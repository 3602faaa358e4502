"""Benchmark of the three headline paths: LoRa receive, fleet OTA, service.

Run from the repository root::

    python3 perfbench/run.py --workload lora_gateway_rx --seed 2020 --trace 0

Workloads: ``lora_gateway_rx``, ``fleet_ota_100k``,
``service_zipf_journal`` (see ``workloads.py`` and ``BENCHMARK.json``).
``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

With ``--trace 0`` the run prints the end-to-end metrics, host-speed
scaled, with the raw value beside each:

* ``throughput_per_s``: units of work per second spent inside the
  program's calls (LoRa samples, fleet node-events, service jobs),
  the median over epochs of about a second;
* ``latency_p50_ms`` / ``latency_p99_ms``: one operation's wall time;
  a run too short for 10 samples beyond p99 reports its maximum and
  says so;
* ``setup_s``: median over fresh interpreters of importing the
  program, building the system under test and running one operation,
  excluding input generation;
* ``peak_rss_mb``: peak resident memory of the measuring process once
  a fixed number of operations has run.

With ``--trace 1`` the run alternates untraced and traced blocks of
operations, wraps the program's public calls from outside
(``spans.py``) and prints the per-layer metrics, a stage table, the
share of operation time that no named stage covers and the tracing
overhead.  The traced run is correct only when every traced layer is
found and that share is at most 10%.  A Chrome trace is written under
``.perfbench/``.

Each workload runs in its own process on one thread.  A fixed
calibration slice (``measure.py``) runs between operations, and each
operation's time is multiplied by nominal / the median slice time
measured around it, so that runs on a busier or slower host read
alike.  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from measure import (
    Calibrator,
    epoch_bounds,
    local_calibrations,
    scale_time,
    tail,
)
from spans import (
    ROOT as OP_SPAN,
    Tracer,
    chrome_trace,
    stage_table,
    unattributed_share,
)
from workloads import (
    DEFAULT_SEED,
    DERIVED,
    PER_LAYER,
    WORKLOADS,
    layer_metrics,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

SETUP_RUNS = 5
"""Cold starts per run; ``setup_s`` is their median."""

SETUP_CALIBRATION_SLICES = 12
STAGE_SUM_TOLERANCE = 0.10
"""Largest share of traced operation time that no named stage covers."""
RUN_BUDGET_S = 170.0
"""Wall time after which a run gives up on its child processes."""

END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"})
    source = str(ROOT / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"]
                                  if env.get("PYTHONPATH") else "")
    return env


# -- child processes ---------------------------------------------------------

def setup_probe(args: argparse.Namespace) -> int:
    """Time one cold start: imports, build and one operation."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        workload = WORKLOADS[args.workload](args.seed, Path(scratch))
        workload.import_program()
        workload.build()
        built = time.perf_counter()
        workload.make_inputs()
        ready = time.perf_counter()
        output, _ = workload.op()
        done = time.perf_counter()
        ok = workload.check(output)
        workload.close()
    calibrator = Calibrator()
    calibrator.run(SETUP_CALIBRATION_SLICES)
    print(json.dumps({"setup_s": (built - start) + (done - ready),
                      "calibration_s": calibrator.median_s(), "ok": ok}))
    return 0


def _warm_up(workload) -> int:
    failed = 0
    for _ in range(workload.warmup_ops):
        output, _ = workload.op()
        failed += not workload.check(output)
    return failed


def measure(workload, seconds: float) -> dict:
    """The untraced closed loop: latency, throughput, memory."""
    failed = _warm_up(workload)
    attempted = workload.warmup_ops
    calibrator = Calibrator()
    ops: list[tuple[float, float]] = []
    work: list[float] = []
    peak_rss_kb = None
    clock = time.perf_counter
    deadline = clock() + seconds
    while clock() < deadline:
        start = clock()
        output, units = workload.op()
        end = clock()
        ops.append((start, end))
        work.append(units)
        attempted += 1
        failed += not workload.check(output)
        # Released before the next operation, so that peak memory never
        # holds two operations' outputs.
        del output
        calibrator.after_op(end - start)
        if len(ops) == workload.rss_ops:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak_rss_kb is None:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed += not workload.finish()

    raw = [end - start for start, end in ops]
    scaled = [scale_time(seconds_, factor) for seconds_, factor in
              zip(raw, local_calibrations(calibrator.stamps, ops))]
    bounds = epoch_bounds(raw)

    def throughput(times: list[float]) -> float:
        return statistics.median(sum(work[lo:hi]) / sum(times[lo:hi])
                                 for lo, hi in bounds)

    def summary(times: list[float]) -> dict[str, float]:
        return {"latency_p50_ms": statistics.median(times) * 1e3,
                "latency_p99_ms": tail(times, 99.0)[0] * 1e3,
                "throughput_per_s": throughput(times),
                "peak_rss_mb": peak_rss_kb / 1024.0}

    return {
        "attempted": attempted,
        "failed": failed,
        "timed_ops": len(raw),
        "epochs": len(bounds),
        "p99_label": tail(raw, 99.0)[1],
        "calibration_s": calibrator.median_s(),
        "calibration_slices": len(calibrator.stamps),
        "calibration_share": calibrator.spent_s / sum(raw),
        "raw": summary(raw),
        "scaled": summary(scaled),
    }


def trace(workload, seconds: float) -> dict:
    """Alternate untraced and traced blocks; return per-layer metrics."""
    failed = _warm_up(workload)
    attempted = workload.warmup_ops
    tracer = Tracer()
    totals = {False: [0.0, 0.0], True: [0.0, 0.0]}  # traced -> time, work
    traced_ops = 0
    traced = False
    clock = time.perf_counter
    deadline = clock() + seconds
    while clock() < deadline or not traced_ops:
        if traced:
            workload.install_tracing(tracer)
        for _ in range(workload.trace_block_ops):
            start = clock()
            if traced:
                tracer.begin_op(traced_ops)
                output, units = workload.op()
                tracer.end_op()
                traced_ops += 1
            else:
                output, units = workload.op()
            totals[traced][0] += clock() - start
            totals[traced][1] += units
            attempted += 1
            failed += not workload.check(output)
        tracer.uninstall()
        traced = not traced
    failed += not workload.finish()

    table = stage_table(tracer.spans)
    unattributed = unattributed_share(tracer.spans)
    missing = sorted(tracer.missing)
    values = layer_metrics(table, tracer.work, traced_ops)
    values.update(workload.layer_totals())
    values.update({f"perf.plan_cache.{key}": value
                   for key, value in _plan_cache_stats().items()})
    values["trace.ops"] = traced_ops
    plain_cost = totals[False][0] / totals[False][1] \
        if totals[False][1] else float("nan")
    values["trace.overhead"] = 100.0 * (
        (totals[True][0] / totals[True][1]) / plain_cost - 1.0)
    # Layers this workload bypasses read zero.
    metrics = {name: values.get(name, 0.0)
               for name, *_ in PER_LAYER + DERIVED}

    name = f"{workload.name}-{workload.seed}"
    (OUT_DIR / f"trace-{name}.json").write_text(
        json.dumps(chrome_trace(tracer.spans)))
    text = _stage_text(workload, table, tracer.work, traced_ops,
                       totals[True][0], unattributed,
                       metrics["trace.overhead"], missing)
    (OUT_DIR / f"stages-{name}.txt").write_text(text)
    return {"attempted": attempted, "failed": failed,
            "trace_ok": unattributed <= STAGE_SUM_TOLERANCE and not missing,
            "stage_text": text, "metrics": metrics}


def _plan_cache_stats() -> dict[str, int]:
    from repro.perf import cache

    stats = cache.stats()
    return {"hits": stats.hits, "misses": stats.misses,
            "entries": stats.entries}


def _stage_text(workload, table, work, ops, op_total_s, unattributed,
                overhead, missing) -> str:
    lines = [f"stage table: {workload.name}, seed {workload.seed}, "
             f"{ops} traced operations",
             f"{'stage':<26}{'calls/op':>10}{'incl ms/op':>12}"
             f"{'self ms/op':>12}{'self %':>8}  work/op"]
    for name, row in sorted(table.items(), key=lambda item:
                            -item[1]["self_s"]):
        counts = ", ".join(f"{key} {value / ops:.4g}"
                           for (stage, key), value in sorted(work.items())
                           if stage == name)
        lines.append(f"{name:<26}{row['calls'] / ops:>10.3f}"
                     f"{row['inclusive_s'] / ops * 1e3:>12.4f}"
                     f"{row['self_s'] / ops * 1e3:>12.4f}"
                     f"{100.0 * row['self_s'] / op_total_s:>8.1f}  {counts}")
    lines.append(f"named stages cover {100 * (1 - unattributed):.2f}% of the "
                 f"traced operation time ({op_total_s / ops * 1e3:.4f} "
                 f"ms/op); {100 * unattributed:.2f}% is the {OP_SPAN!r} "
                 f"span's own time (at most {100 * STAGE_SUM_TOLERANCE:g}% "
                 f"passes)")
    lines.append(f"tracing overhead: {overhead:+.2f}% per unit of work "
                 f"against untraced blocks")
    if missing:
        lines.append(f"not traced, the program has no such target (run not "
                     f"correct): {', '.join(missing)}")
    lines.append("layer -> per-layer metrics -> end-to-end metrics moved:")
    for layer, layer_names, moves in workload.layers:
        lines.append(f"  {layer}: {', '.join(layer_names)} -> "
                     f"{', '.join(moves)}")
    return "\n".join(lines)


def worker(args: argparse.Namespace) -> int:
    """Run one workload in this process and write its detail JSON."""
    import numpy

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        workload = WORKLOADS[args.workload](args.seed, Path(scratch))
        try:
            workload.import_program()
            workload.build()
            workload.make_inputs()
            if args.trace:
                detail = trace(workload, args.seconds)
            else:
                detail = measure(workload, args.seconds)
        finally:
            workload.close()
    detail["env"] = {"python": platform.python_version(),
                     "numpy": numpy.__version__,
                     "nproc": os.cpu_count(),
                     "affinity": len(os.sched_getaffinity(0)),
                     "machine": platform.machine()}
    Path(args.out).write_text(json.dumps(detail))
    return 0


def _run_child(args: argparse.Namespace, role: str, deadline: float,
               extra=()) -> str:
    command = [sys.executable, str(HERE / "run.py"), "--role", role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               *extra]
    done = subprocess.run(command, cwd=ROOT, env=_pinned_env(),
                          capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0),
                          check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{role} process exited with {done.returncode}")
    return done.stdout


# -- the command -------------------------------------------------------------

def _report_end_to_end(args, detail: dict, setups: list[dict]) -> dict:
    calibration = detail["calibration_s"]
    raw = dict(detail["raw"])
    scaled = dict(detail["scaled"])
    raw["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    scaled["setup_s"] = statistics.median(
        scale_time(s["setup_s"], s["calibration_s"]) for s in setups)
    env = detail["env"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g}: python {env['python']}, numpy "
          f"{env['numpy']}, nproc {env['nproc']}, one process, one thread")
    print(f"calibration: median slice {calibration * 1e6:.1f} us over "
          f"{detail['calibration_slices']} slices "
          f"({100 * detail['calibration_share']:.1f}% of operation time)")
    print(f"{'metric':<18}{'unit':>6}{'raw':>16}{'scaled':>16}")
    for name, unit in END_TO_END:
        print(f"{name:<18}{unit:>6}{raw[name]:>16.6g}{scaled[name]:>16.6g}")
    print(f"latency_p99_ms is the {detail['p99_label']} of "
          f"{detail['timed_ops']} operations; throughput_per_s the median "
          f"of {detail['epochs']} epochs; setup_s the median of "
          f"{len(setups)} cold starts")
    workload = WORKLOADS[args.workload]
    print(f"throughput_per_s counts {workload.unit}")
    if workload.realtime_per_s:
        print(f"real-time factor: "
              f"{scaled['throughput_per_s'] / workload.realtime_per_s:.2f}x "
              f"the radio's {workload.realtime_per_s / 1e3:g} kS/s (scaled)")
    result = {"workload": args.workload, "seed": args.seed, "raw": raw,
              "scaled": scaled, "detail": detail, "setups": setups}
    (OUT_DIR / f"result-{args.workload}-{args.seed}.json").write_text(
        json.dumps(result))
    return {name: {"value": scaled[name], "unit": unit}
            for name, unit in END_TO_END}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the LoRa receive, fleet OTA and campaign "
                    "service paths.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds in "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "worker", "setup"),
                        default="main", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role == "setup":
        return setup_probe(args)
    if args.role == "worker":
        return worker(args)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"worker-{os.getpid()}.json"
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        _run_child(args, "worker", deadline, ("--out", str(out)))
        detail = json.loads(out.read_text())
        setups = [] if args.trace else [
            json.loads(_run_child(args, "setup", deadline).splitlines()[-1])
            for _ in range(SETUP_RUNS)]
    except (RuntimeError, OSError, subprocess.TimeoutExpired,
            ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if out.exists():
            out.unlink()

    attempted = detail["attempted"] + len(setups)
    failed = detail["failed"] + sum(not s["ok"] for s in setups)
    if args.trace:
        print(detail["stage_text"])
        units = {name: unit for name, unit, *_ in PER_LAYER + DERIVED}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in detail["metrics"].items()}
        correct = failed == 0 and detail["trace_ok"]
    else:
        metrics = _report_end_to_end(args, detail, setups)
        correct = failed == 0
    print(f"operations attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
