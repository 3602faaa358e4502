"""Throughput regression gate for the hot-path benchmark suite.

Runs a fresh :mod:`bench_hotpath_throughput` sweep and compares every
fast-path throughput against the committed ``BENCH_hotpath.json``
baseline.  Exits nonzero if any fast path regressed by more than the
threshold (default 30%), so CI can fail the build before a slow hot path
lands.  Speedups are reported but never fail the gate; refresh the
committed baseline by re-running the harness
(``python benchmarks/bench_hotpath_throughput.py``).

On top of the relative gate, four absolute floors are enforced within
the fresh sweep itself: the vectorized fleet engine
(``ota_campaign_100k``, ISSUE-6) must sustain at least 100x the legacy
timeline-backed campaign (``ota_campaign``) in events/second, the
campaign service (``campaign_service``, ISSUE-8) must keep its result
cache's hit ratio on the 50% duplicate-job mix at the designed 0.5
(floor 0.45) — a drop means content addressing or the dedupe path
broke — the supervised service under a seeded 20% crash/hang mix
(``campaign_service_faulty``, ISSUE-10) must sustain at least 50
terminal jobs/second — a dip means journaling, watchdog or breaker
bookkeeping became a hot path — and the chunked streaming LoRa
receiver (``lora_streaming_4msps``, ISSUE-9) must sustain at least
4.0 Msps of complex baseband through :class:`StreamingDemodulator`,
the paper's over-the-air gateway headline.

Usage::

    python benchmarks/check_regression.py [--baseline PATH] [--threshold 0.30]

or ``make bench-check``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from bench_hotpath_throughput import BENCH_PATH, collect_report

FLEET_GROUP = "ota_campaign_100k"
FLEET_BASE_GROUP = "ota_campaign"
FLEET_MIN_SPEEDUP = 100.0

SERVICE_GROUP = "campaign_service"
SERVICE_MIN_HIT_RATIO = 0.45

FAULTY_SERVICE_GROUP = "campaign_service_faulty"
FAULTY_SERVICE_MIN_JOBS_PER_S = 50.0

STREAMING_GROUP = "lora_streaming_4msps"
STREAMING_MIN_SPS = 4.0e6


def load_baseline(path: pathlib.Path) -> dict:
    """Parse a committed ``BENCH_hotpath.json`` document."""
    return json.loads(path.read_text())


def best_of(runs: list[dict]) -> dict:
    """Merge run documents, keeping each fast path's best throughput.

    A loaded machine can only make a benchmark look slower than the code
    is, never faster, so the elementwise best over several fresh runs is
    the robust estimate to gate on.
    """
    merged = json.loads(json.dumps(runs[0]))
    for run in runs[1:]:
        for group, variants in run.get("results", {}).items():
            target = merged.setdefault("results", {}).setdefault(group, {})
            for variant, result in variants.items():
                if not isinstance(result, dict):
                    continue
                current = target.get(variant)
                if current is None or (result["items_per_second"]
                                       > current["items_per_second"]):
                    target[variant] = result
    return merged


def compare(baseline: dict, fresh: dict,
            threshold: float) -> tuple[list[str], list[str]]:
    """Compare fast-path throughputs; return (regressions, notes)."""
    regressions: list[str] = []
    notes: list[str] = []
    for group, variants in sorted(baseline.get("results", {}).items()):
        base_fast = variants.get("fast", {}).get("items_per_second")
        if base_fast is None:
            continue
        fresh_variants = fresh.get("results", {}).get(group)
        if fresh_variants is None or "fast" not in fresh_variants:
            regressions.append(f"{group}: missing from fresh run")
            continue
        fresh_fast = fresh_variants["fast"]["items_per_second"]
        ratio = fresh_fast / base_fast if base_fast else float("inf")
        line = (f"{group}: baseline {base_fast:.3e}/s, "
                f"fresh {fresh_fast:.3e}/s ({ratio:.2f}x)")
        if ratio < 1.0 - threshold:
            regressions.append(line)
        else:
            notes.append(line)
    return regressions, notes


def check_fleet_floor(fresh: dict,
                      min_speedup: float = FLEET_MIN_SPEEDUP
                      ) -> tuple[list[str], list[str]]:
    """ISSUE-6 acceptance floor; returns (failures, notes).

    Both entries come from the same fresh sweep, so the floor holds on
    any machine regardless of the committed baseline's hardware.
    """
    results = fresh.get("results", {})
    try:
        fleet = results[FLEET_GROUP]["fast"]["items_per_second"]
        legacy = results[FLEET_BASE_GROUP]["fast"]["items_per_second"]
    except KeyError:
        return ([f"fleet floor: {FLEET_GROUP} or {FLEET_BASE_GROUP} "
                 f"missing from fresh run"], [])
    ratio = fleet / legacy if legacy else float("inf")
    line = (f"fleet floor: {FLEET_GROUP} {fleet:.3e} events/s is "
            f"{ratio:.0f}x {FLEET_BASE_GROUP} {legacy:.3e} events/s "
            f"(need >= {min_speedup:.0f}x)")
    if ratio < min_speedup:
        return ([line], [])
    return ([], [line])


def check_service_floor(fresh: dict,
                        min_hit_ratio: float = SERVICE_MIN_HIT_RATIO
                        ) -> tuple[list[str], list[str]]:
    """ISSUE-8 acceptance floor; returns (failures, notes).

    The bench entry feeds the service a 50% duplicate-job mix, so a
    healthy content-addressed cache answers half of all completions.
    The ratio comes from the fresh sweep's own annotation — it is a
    correctness property of the dedupe path, not a hardware number.
    """
    entry = (fresh.get("metadata", {}).get("entries", {})
             .get(SERVICE_GROUP, {}).get("service"))
    if entry is None:
        return ([f"service floor: {SERVICE_GROUP} annotation missing "
                 f"from fresh run"], [])
    ratio = entry["cache_hit_ratio"]
    line = (f"service floor: {SERVICE_GROUP} cache hit ratio "
            f"{ratio:.2f} on the 50%-duplicate mix "
            f"(need >= {min_hit_ratio:.2f})")
    if ratio < min_hit_ratio:
        return ([line], [])
    return ([], [line])


def check_faulty_service_floor(fresh: dict,
                               min_jobs_per_s: float =
                               FAULTY_SERVICE_MIN_JOBS_PER_S
                               ) -> tuple[list[str], list[str]]:
    """ISSUE-10 acceptance floor; returns (failures, notes).

    The faulty service entry drives every job through the supervised
    worker loop under a seeded 20% crash/hang mix, so this absolute
    jobs/second floor bounds the bookkeeping cost of journal appends,
    watchdog resets, retry backoff and breaker accounting.  Measured
    throughput sits roughly an order of magnitude above the floor on
    the reference container; dipping below it means supervision became
    a hot path.
    """
    results = fresh.get("results", {})
    try:
        rate = results[FAULTY_SERVICE_GROUP]["fast"]["items_per_second"]
    except KeyError:
        return ([f"faulty service floor: {FAULTY_SERVICE_GROUP} "
                 f"missing from fresh run"], [])
    entry = (fresh.get("metadata", {}).get("entries", {})
             .get(FAULTY_SERVICE_GROUP, {}).get("service", {}))
    mix = (f"{entry.get('jobs_completed', '?')} completed / "
           f"{entry.get('jobs_failed', '?')} failed / "
           f"{entry.get('jobs_quarantined', '?')} quarantined")
    line = (f"faulty service floor: {FAULTY_SERVICE_GROUP} "
            f"{rate:.3e} jobs/s under the 20% crash/hang mix "
            f"({mix}; need >= {min_jobs_per_s:.1f})")
    if rate < min_jobs_per_s:
        return ([line], [])
    return ([], [line])


def check_streaming_floor(fresh: dict,
                          min_sps: float = STREAMING_MIN_SPS
                          ) -> tuple[list[str], list[str]]:
    """ISSUE-9 acceptance floor; returns (failures, notes).

    The streaming entry times the chunked :class:`StreamingDemodulator`
    receive topology — the gateway never holds the whole capture — so
    the 4 Msps floor is on sustained samples/second from the fresh
    sweep, an absolute number rather than a baseline-relative one.
    """
    results = fresh.get("results", {})
    try:
        sps = results[STREAMING_GROUP]["fast"]["items_per_second"]
    except KeyError:
        return ([f"streaming floor: {STREAMING_GROUP} missing from "
                 f"fresh run"], [])
    line = (f"streaming floor: {STREAMING_GROUP} {sps:.3e} samples/s "
            f"(need >= {min_sps:.1e})")
    if sps < min_sps:
        return ([line], [])
    return ([], [line])


def main(argv: list[str] | None = None) -> int:
    """Run the gate; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=pathlib.Path, default=BENCH_PATH,
                        help="committed baseline JSON (default: repo root "
                             "BENCH_hotpath.json)")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional throughput drop "
                             "(default 0.30 = 30%%)")
    parser.add_argument("--runs", type=int, default=2,
                        help="fresh sweeps to merge best-of (default 2; "
                             "suppresses load spikes on shared machines)")
    args = parser.parse_args(argv)
    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run "
              f"'python benchmarks/bench_hotpath_throughput.py' first")
        return 2
    baseline = load_baseline(args.baseline)
    fresh = best_of([collect_report().to_dict()
                     for _ in range(max(1, args.runs))])
    regressions, notes = compare(baseline, fresh, args.threshold)
    for check in (check_fleet_floor, check_service_floor,
                  check_faulty_service_floor, check_streaming_floor):
        floor_failures, floor_notes = check(fresh)
        regressions += floor_failures
        notes += floor_notes
    for line in notes:
        print(f"ok   {line}")
    for line in regressions:
        print(f"FAIL {line}")
    if regressions:
        print(f"{len(regressions)} hot path(s) regressed more than "
              f"{args.threshold:.0%} vs {args.baseline}")
        return 1
    print(f"all hot paths within {args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
