"""Run the benchmark over every workload and seeds; print every metric pair.

Run from the repository root::

    python3 perfbench/report.py                 # default + held-out seed
    python3 perfbench/report.py --seeds 1-10

For each workload x end-to-end metric it prints the median raw and
scaled value with its unit, the run-to-run spread of each (interquartile
range over median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles) beside the metric's bound from ``BENCHMARK.json``, and the
operations attempted and failed.  Every run lasts ``run_seconds`` from
``BENCHMARK.json``.  Spreads need at least two seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import spread
from workloads import ALTERNATE_SEED, DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds,
                        default=[DEFAULT_SEED, ALTERNATE_SEED],
                        help="comma-separated seeds or ranges, e.g. 1-10")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    status = 0
    for workload in WORKLOADS:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                status = 1
                continue
            summary = json.loads(done.stdout.splitlines()[-1])
            result = json.loads((ROOT / ".perfbench"
                                 / f"result-{workload}-{seed}.json")
                                .read_text())
            runs.append((seed, summary, result))
            print(f"{workload} seed {seed}: attempted "
                  f"{summary['attempted']}, failed {summary['failed']}",
                  flush=True)
        if not runs:
            continue
        failed = sum(summary["failed"] for _, summary, _ in runs)
        print(f"\n{workload}: {len(runs)} runs, seeds "
              f"{[seed for seed, _, _ in runs]}, failed operations {failed}")
        print(f"{'metric':<18}{'unit':>6}{'raw':>14}{'scaled':>14}"
              f"{'spread raw':>12}{'spread scaled':>15}{'bound':>7}")
        for name, metric in bounds.items():
            raw = [result["raw"][name] for _, _, result in runs]
            scaled = [result["scaled"][name] for _, _, result in runs]
            spreads = (f"{100 * spread(raw):>11.1f}%"
                       f"{100 * spread(scaled):>14.1f}%"
                       if len(runs) > 1 else f"{'-':>12}{'-':>15}")
            print(f"{name:<18}{metric['unit']:>6}"
                  f"{statistics.median(raw):>14.6g}"
                  f"{statistics.median(scaled):>14.6g}{spreads}"
                  f"{100 * metric['bound']:>6.0f}%")
        print(flush=True)
        status |= failed > 0
    return status


if __name__ == "__main__":
    sys.exit(main())
