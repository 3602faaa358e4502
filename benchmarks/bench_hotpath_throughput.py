"""Hot-path throughput harness: vectorized engine vs scalar references.

Times every sample/bit-level substrate the Fig. 6 pipelines run on — the
32-bit I/Q word codec, the LVDS DDR round-trip, the deserializer's
alignment search, chirp generation, the radix-2 FFT, and the end-to-end
LoRa mod -> channel -> demod chain — in items/second, for both the
vectorized fast paths and the retained ``*_reference`` scalar
implementations.  Three seeded OTA campaign entries additionally gate
the event ledger in events/second: a clean timeline-backed campaign, a
hardened one under an everything-at-once fault plan (burst loss,
corruption, flash faults, brownouts), and the vectorized fleet engine
driving 100k nodes through struct-of-arrays cohorts (which must clear
100x the legacy per-node path — enforced by
``benchmarks/check_regression.py``).

Every entry records per-entry metadata under ``metadata["entries"]``:
a plan-cache counter snapshot scoped to that entry and the process RSS
(current and peak) after it ran.  The fleet entry additionally spills
its campaign through the bounded-memory JSONL writer outside the timed
region and fails the run if peak RSS grows past a fixed budget.

The report is written to ``BENCH_hotpath.json`` at the repository root
so the perf trajectory is tracked across PRs
(``benchmarks/check_regression.py`` compares a fresh run against the
committed baseline).

Run standalone::

    python benchmarks/bench_hotpath_throughput.py [--only PATTERN]

or via ``make bench-hotpath``; ``make bench-fleet`` runs only the
campaign entries (``--only 'ota_campaign*'``).  A filtered sweep never
rewrites the committed baseline.
"""

from __future__ import annotations

import argparse
import fnmatch
import pathlib
import platform
import resource
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.channel.awgn import awgn
from repro.dsp.fft import Radix2Fft
from repro.faults.models import (
    BrownoutModel,
    CorruptionModel,
    FlashFaultModel,
    GilbertElliott,
)
from repro.faults.plan import FaultPlan
from repro.faults.service import (
    ServiceFaultPlan,
    WorkerCrashModel,
    WorkloadHangModel,
)
from repro.fpga.bitstream import generate_bitstream
from repro.ota.ap import AccessPoint
from repro.ota.fleet import (
    FleetBurstLoss,
    FleetCampaignConfig,
    run_fleet_campaign,
    write_fleet_spill,
)
from repro.perf import cache
from repro.perf.timing import ThroughputReport, measure_throughput
from repro.phy.lora import (
    LoRaDemodulator,
    LoRaModulator,
    LoRaParams,
    StreamingDemodulator,
)
from repro.phy.lora.chirp import chirp_train, ideal_chirp_reference
from repro.phy.lora.demodulator import SymbolDemodulator
from repro.radio import iqword, lvds
from repro.retry import RetryPolicy
from repro.service import (
    TERMINAL_STATES,
    BreakerConfig,
    CampaignService,
    JobSpec,
    SupervisorConfig,
)
from repro.testbed.deployment import campus_deployment

BENCH_PATH = REPO_ROOT / "BENCH_hotpath.json"

CODEC_SAMPLES = 65_536
LVDS_WORDS = 4_096
RESYNC_WORDS = 64
RESYNC_SEARCHES = 50
CHIRP_SYMBOLS = 256
FFT_ROWS = 256
E2E_PAYLOAD = b"tinysdr hot-path benchmark payload!"
E2E_MODEMS = 4
STREAMING_PACKETS = 6
STREAMING_CHUNK = 1 << 14
STREAMING_MIN_SPS = 4.0e6  # acceptance floor, Msps sustained

FAST_REPEATS = 5
REFERENCE_REPEATS = 2

CAMPAIGN_NODES = 4
CAMPAIGN_IMAGE_BYTES = 16_384
CAMPAIGN_REPEATS = 3

FLEET_NODES = 100_000
FLEET_IMAGE_BYTES = 1_800
FLEET_SEED = 2020
FLEET_REPEATS = 2
FLEET_SPILL_BUFFER_ROWS = 4_096
FLEET_SPILL_RSS_BUDGET_KB = 262_144  # units: KiB (256 MiB)

SERVICE_UNIQUE_JOBS = 24
SERVICE_SEED = 2020
SERVICE_REPEATS = 3

FAULTY_SERVICE_JOBS = 24
FAULTY_SERVICE_CRASH_PROB = 0.12
FAULTY_SERVICE_HANG_PROB = 0.08  # 20% crash/hang mix per attempt


def _rss_snapshot() -> dict[str, int]:
    """Process resident-set size, current and peak, in kibibytes.

    Reads ``/proc/self/status`` (``VmRSS``/``VmHWM``) where available;
    falls back to ``resource.getrusage``, whose ``ru_maxrss`` is the
    lifetime peak on Linux, for both fields.
    """
    status = pathlib.Path("/proc/self/status")
    if status.exists():
        fields: dict[str, int] = {}
        for line in status.read_text().splitlines():
            key, _, rest = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                fields[key] = int(rest.split()[0])
        if "VmRSS" in fields:
            return {"rss_kb": fields["VmRSS"],
                    "peak_rss_kb": fields.get("VmHWM", fields["VmRSS"])}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"rss_kb": peak_kb, "peak_rss_kb": peak_kb}


def _bench_codec(report: ThroughputReport,
                 rng: np.random.Generator) -> None:
    """I/Q word pack/unpack throughput (vectorized vs per-word scalar)."""
    samples = (rng.uniform(-0.9, 0.9, CODEC_SAMPLES)
               + 1j * rng.uniform(-0.9, 0.9, CODEC_SAMPLES))
    words = iqword.samples_to_words(samples)
    report.add("iqword_pack", "fast", measure_throughput(
        "iqword_pack.fast", lambda: iqword.samples_to_words(samples),
        CODEC_SAMPLES, repeats=FAST_REPEATS))
    report.add("iqword_pack", "reference", measure_throughput(
        "iqword_pack.reference",
        lambda: iqword.samples_to_words_reference(samples),
        CODEC_SAMPLES, repeats=REFERENCE_REPEATS))
    report.add("iqword_unpack", "fast", measure_throughput(
        "iqword_unpack.fast", lambda: iqword.words_to_samples(words),
        CODEC_SAMPLES, repeats=FAST_REPEATS))
    report.add("iqword_unpack", "reference", measure_throughput(
        "iqword_unpack.reference",
        lambda: iqword.words_to_samples_reference(words),
        CODEC_SAMPLES, repeats=REFERENCE_REPEATS))


def _bench_lvds(report: ThroughputReport,
                rng: np.random.Generator) -> None:
    """DDR serialize + deserialize round-trip throughput."""
    samples = (rng.uniform(-0.9, 0.9, LVDS_WORDS)
               + 1j * rng.uniform(-0.9, 0.9, LVDS_WORDS))
    words = iqword.samples_to_words(samples)

    def roundtrip_fast() -> np.ndarray:
        rising, falling = lvds.serialize_words(words)
        return lvds.deserialize_words(rising, falling)

    def roundtrip_reference() -> np.ndarray:
        rising, falling = lvds.serialize_words_reference(words)
        return lvds.deserialize_words_reference(rising, falling)

    report.add("lvds_roundtrip", "fast", measure_throughput(
        "lvds_roundtrip.fast", roundtrip_fast, LVDS_WORDS, unit="words",
        repeats=FAST_REPEATS))
    report.add("lvds_roundtrip", "reference", measure_throughput(
        "lvds_roundtrip.reference", roundtrip_reference, LVDS_WORDS,
        unit="words", repeats=REFERENCE_REPEATS))


def _bench_resync(report: ThroughputReport,
                  rng: np.random.Generator) -> None:
    """Cold-start word-alignment search throughput."""
    samples = (rng.uniform(-0.9, 0.9, RESYNC_WORDS)
               + 1j * rng.uniform(-0.9, 0.9, RESYNC_WORDS))
    bits = iqword.words_to_bits(iqword.samples_to_words(samples))
    prefix = rng.integers(0, 2, 17).astype(np.uint8)
    stream = np.concatenate([prefix, bits])
    items = stream.size * RESYNC_SEARCHES

    def search_fast() -> None:
        for _ in range(RESYNC_SEARCHES):
            iqword.find_word_alignment(stream)

    def search_reference() -> None:
        for _ in range(RESYNC_SEARCHES):
            iqword.find_word_alignment_reference(stream)

    report.add("resync", "fast", measure_throughput(
        "resync.fast", search_fast, items, unit="bits",
        repeats=FAST_REPEATS))
    report.add("resync", "reference", measure_throughput(
        "resync.reference", search_reference, items, unit="bits",
        repeats=REFERENCE_REPEATS))


def _bench_chirp(report: ThroughputReport,
                 rng: np.random.Generator) -> None:
    """Chirp train generation: plan-cached cyclic shift vs direct exp."""
    params = LoRaParams(8, 125e3)
    values = rng.integers(0, params.chips_per_symbol, CHIRP_SYMBOLS)
    items = CHIRP_SYMBOLS * params.samples_per_symbol
    chirp_train(params, values)  # populate the plan cache

    def train_reference() -> np.ndarray:
        return np.concatenate([
            ideal_chirp_reference(params, int(v)) for v in values])

    report.add("chirp_generation", "fast", measure_throughput(
        "chirp_generation.fast", lambda: chirp_train(params, values),
        items, repeats=FAST_REPEATS))
    report.add("chirp_generation", "reference", measure_throughput(
        "chirp_generation.reference", train_reference, items,
        repeats=REFERENCE_REPEATS))


def _bench_fft(report: ThroughputReport,
               rng: np.random.Generator) -> None:
    """Radix-2 FFT: batched symbol matrix vs one transform per call."""
    length = 256
    core = Radix2Fft(length)
    matrix = (rng.normal(size=(FFT_ROWS, length))
              + 1j * rng.normal(size=(FFT_ROWS, length)))
    items = FFT_ROWS * length

    def fft_reference() -> None:
        for row in matrix:
            core.forward(row)

    report.add("fft", "fast", measure_throughput(
        "fft.fast", lambda: core.forward_block(matrix), items,
        repeats=FAST_REPEATS))
    report.add("fft", "reference", measure_throughput(
        "fft.reference", fft_reference, items,
        repeats=REFERENCE_REPEATS))


def _bench_lora_end_to_end(report: ThroughputReport,
                           rng: np.random.Generator) -> None:
    """Full LoRa mod -> AWGN -> demod chain, multiple modems per config.

    Building ``E2E_MODEMS`` modulator/demodulator pairs with identical
    ``LoRaParams`` is exactly the testbed-sweep construction pattern the
    plan cache exists for; this entry's per-entry plan-cache snapshot
    must show nonzero hits.
    """
    params = LoRaParams(7, 125e3)
    modems = [(LoRaModulator(params), LoRaDemodulator(params))
              for _ in range(E2E_MODEMS)]
    clean = modems[0][0].modulate(E2E_PAYLOAD)
    noisy = awgn(clean, snr_db=20.0, rng=rng)
    items = noisy.size

    def run_chain() -> None:
        modulator, demodulator = modems[0]
        waveform = modulator.modulate(E2E_PAYLOAD)
        decoded = demodulator.receive(
            np.concatenate([np.zeros(64, dtype=np.complex128), noisy]))
        if decoded.payload != E2E_PAYLOAD or waveform.size != clean.size:
            raise AssertionError("end-to-end chain decoded wrong payload")

    report.add("lora_end_to_end", "fast", measure_throughput(
        "lora_end_to_end.fast", run_chain, items, repeats=5))


def _bench_lora_streaming(report: ThroughputReport,
                          rng: np.random.Generator) -> None:
    """Chunked streaming demodulation, in sustained samples/second.

    A multi-packet capture is pushed through a reset
    :class:`StreamingDemodulator` in fixed ``STREAMING_CHUNK``-sample
    chunks, packets validated inside the timed closure.  This is the
    receive topology an OTA gateway runs — the demodulator never sees
    the whole capture — so the throughput here, not the batch path's,
    is the paper-facing 4 Msps headline gated by
    ``benchmarks/check_regression.py``.
    """
    params = LoRaParams(7, 125e3, oversampling=2)
    modulator = LoRaModulator(params)
    pieces = [np.zeros(2048, dtype=np.complex128)]
    for index in range(STREAMING_PACKETS):
        payload = bytes((index + k) % 256 for k in range(24))
        pieces.append(modulator.modulate(payload))
        pieces.append(np.zeros(1500 + 700 * index, dtype=np.complex128))
    capture = np.concatenate(pieces)
    capture = awgn(capture, snr_db=25.0, rng=rng)
    items = capture.size
    demod = StreamingDemodulator(params)

    def run_stream() -> None:
        demod.reset()
        decoded = 0
        for start in range(0, capture.size, STREAMING_CHUNK):
            decoded += len(demod.push(capture[start:start
                                              + STREAMING_CHUNK]))
        decoded += len(demod.flush())
        if decoded != STREAMING_PACKETS:
            raise AssertionError(
                f"streaming demod found {decoded} of "
                f"{STREAMING_PACKETS} packets")

    report.add("lora_streaming_4msps", "fast", measure_throughput(
        "lora_streaming_4msps.fast", run_stream, items,
        repeats=FAST_REPEATS))
    report.annotate("lora_streaming_4msps", streaming={
        "chunk_samples": STREAMING_CHUNK,
        "packets": STREAMING_PACKETS,
        "min_items_per_second": STREAMING_MIN_SPS,
    })


def _bench_symbol_demod(report: ThroughputReport,
                        rng: np.random.Generator) -> None:
    """Aligned symbol-stream demodulation: batched vs symbol-per-call."""
    params = LoRaParams(8, 125e3)
    demod = SymbolDemodulator(params)
    num_symbols = 128
    values = rng.integers(0, params.chips_per_symbol, num_symbols)
    stream = awgn(chirp_train(params, values), snr_db=10.0, rng=rng)
    items = stream.size

    report.add("symbol_demod", "fast", measure_throughput(
        "symbol_demod.fast",
        lambda: demod.demodulate_stream(stream, num_symbols),
        items, repeats=FAST_REPEATS))
    report.add("symbol_demod", "reference", measure_throughput(
        "symbol_demod.reference",
        lambda: demod.demodulate_stream_reference(stream, num_symbols),
        items, repeats=REFERENCE_REPEATS))


def _bench_campaign(report: ThroughputReport) -> None:
    """Timeline-backed OTA campaign simulation, in ledger events/second.

    The whole campaign stack — stop-and-wait MAC, updater, access-point
    scheduler — now routes every interval through the shared
    ``repro.sim.Timeline`` ledger, so campaign wall time tracks how fast
    events can be appended and replayed.  A fully seeded small campaign
    keeps the event count deterministic across runs.
    """
    deployment = campus_deployment(num_nodes=CAMPAIGN_NODES,
                                   max_radius_m=500.0, seed=6)
    image = generate_bitstream(0.02, seed=17,
                               size_bytes=CAMPAIGN_IMAGE_BYTES)

    def run_campaign():
        return AccessPoint(deployment, image).run_campaign(
            np.random.default_rng(3))

    campaign = run_campaign()
    if campaign.success_count != CAMPAIGN_NODES:
        raise AssertionError("benchmark campaign must fully succeed")
    items = len(campaign.timeline)

    report.add("ota_campaign", "fast", measure_throughput(
        "ota_campaign.fast", run_campaign, items, unit="events",
        repeats=CAMPAIGN_REPEATS))


def _bench_campaign_faulty(report: ThroughputReport) -> None:
    """Hardened OTA campaign under a seeded fault plan, in events/second.

    Exercises the fault-injection hot loop on top of the campaign stack:
    burst loss and corruption draws per packet, flash fault draws per
    page program, checkpoint appends per fragment and the dual-bank
    verify/boot path.  Everything is seeded, so the ledger size is
    deterministic and the run is comparable across machines.
    """
    deployment = campus_deployment(num_nodes=CAMPAIGN_NODES,
                                   max_radius_m=500.0, seed=6)
    image = generate_bitstream(0.02, seed=17,
                               size_bytes=CAMPAIGN_IMAGE_BYTES)
    plan = FaultPlan(
        seed=3,
        burst_loss=GilbertElliott(seed=3, p_enter_bad=0.05,
                                  p_exit_bad=0.4, loss_bad=0.6),
        corruption=CorruptionModel(seed=3, per_packet_prob=0.01),
        flash=FlashFaultModel(seed=3, page_failure_prob=0.001,
                              stuck_bit_prob=0.001),
        brownout=BrownoutModel(seed=3, prob_per_fragment=0.002))
    policy = RetryPolicy(backoff="exponential", base_delay_s=0.25,
                         max_delay_s=2.0)

    def run_campaign():
        return AccessPoint(deployment, image).run_campaign(
            np.random.default_rng(3), faults=plan, policy=policy)

    campaign = run_campaign()
    if sum(campaign.outcome_counts().values()) != CAMPAIGN_NODES:
        raise AssertionError(
            "benchmark campaign must classify every node")
    items = len(campaign.timeline)

    report.add("ota_campaign_faulty", "fast", measure_throughput(
        "ota_campaign_faulty.fast", run_campaign, items, unit="events",
        repeats=CAMPAIGN_REPEATS))


def _bench_campaign_100k(report: ThroughputReport) -> None:
    """Vectorized fleet campaign over 100k nodes, in events/second.

    The ISSUE-6 tentpole entry: the struct-of-arrays cohort engine runs
    the whole fleet through the same ARQ/session state machine the
    timeline-backed campaign walks per node, and is gated at >= 100x the
    ``ota_campaign`` events/second by ``check_regression.py``.  Items
    are the ledger rows an event-level simulation would have emitted
    (``FleetReport.total_events``), so the two entries share a unit.

    After timing, the full report is spilled through the bounded-memory
    ``StreamingLedgerWriter`` and the run fails if the spill's resident
    buffer exceeds its bound or peak RSS grows past the fixed budget.
    """
    config = FleetCampaignConfig(
        num_nodes=FLEET_NODES, image_bytes=FLEET_IMAGE_BYTES,
        seed=FLEET_SEED, loss=FleetBurstLoss(), verify_failure_prob=0.01)
    fleet = run_fleet_campaign(config)
    items = fleet.total_events

    report.add("ota_campaign_100k", "fast", measure_throughput(
        "ota_campaign_100k.fast", lambda: run_fleet_campaign(config),
        items, unit="events", repeats=FLEET_REPEATS))

    before = _rss_snapshot()
    with tempfile.TemporaryDirectory() as tmp:
        spill = write_fleet_spill(
            fleet, pathlib.Path(tmp) / "fleet_campaign.jsonl",
            buffer_rows=FLEET_SPILL_BUFFER_ROWS)
    growth_kb = max(
        0, _rss_snapshot()["peak_rss_kb"] - before["peak_rss_kb"])
    if spill["max_buffered"] > FLEET_SPILL_BUFFER_ROWS:
        raise AssertionError(
            f"spill buffered {spill['max_buffered']} rows, bound is "
            f"{FLEET_SPILL_BUFFER_ROWS}")
    if growth_kb > FLEET_SPILL_RSS_BUDGET_KB:
        raise AssertionError(
            f"fleet spill grew peak RSS by {growth_kb} KiB, budget is "
            f"{FLEET_SPILL_RSS_BUDGET_KB} KiB")
    report.annotate("ota_campaign_100k", fleet={
        "nodes": FLEET_NODES,
        "total_events": items,
        "outcomes": fleet.outcome_counts(),
        "spill_rows": spill["rows_written"],
        "spill_max_buffered": spill["max_buffered"],
        "spill_peak_rss_growth_kb": growth_kb,
        "spill_rss_budget_kb": FLEET_SPILL_RSS_BUDGET_KB,
    })


def _service_job_mix() -> list[JobSpec]:
    """A 50% duplicate job mix: every unique seeded spec appears twice.

    Interleaved (unique, duplicate, unique, duplicate, ...) so the
    cache is exercised throughout the run, not only in a trailing
    burst.  Within one service instance every second submission is a
    content-address hit.
    """
    specs: list[JobSpec] = []
    for seed in range(SERVICE_UNIQUE_JOBS):
        spec = JobSpec(kind="sweep-ble",
                       config={"packets": 2, "stop_dbm": -84.0},
                       seed=seed)
        specs.extend((spec, spec))
    return specs


def _bench_campaign_service(report: ThroughputReport) -> None:
    """Campaign-service scheduling throughput, in jobs/second.

    Drives one service instance through a 50% duplicate-job mix: every
    job clears admission (quota + token bucket), the priority queue,
    dispatch, content addressing and the ``service.*`` ledger; half are
    then served from the result cache with zero engine recompute.  Items
    are completed jobs, so the number folds admission overhead, cache
    lookups and engine time into one figure.  The cache hit ratio and
    per-kind invocation counts are annotated and gated by
    ``check_regression.py`` (the hit ratio on this mix must stay at the
    designed 0.5, floor 0.45).
    """
    mix = _service_job_mix()

    def run_service() -> CampaignService:
        service = CampaignService(seed=SERVICE_SEED)
        for spec in mix:
            service.submit(spec)
        service.run_until_idle()
        return service

    service = run_service()
    stats = service.stats()
    if stats.completed != len(mix):
        raise AssertionError(
            f"benchmark service completed {stats.completed} of "
            f"{len(mix)} jobs")
    if stats.cache_hits != SERVICE_UNIQUE_JOBS:
        raise AssertionError(
            f"duplicate mix must produce {SERVICE_UNIQUE_JOBS} cache "
            f"hits, got {stats.cache_hits}")

    report.add("campaign_service", "fast", measure_throughput(
        "campaign_service.fast", run_service, len(mix), unit="jobs",
        repeats=SERVICE_REPEATS))
    report.annotate("campaign_service", service={
        "jobs_submitted": stats.submitted,
        "jobs_admitted": stats.admitted,
        "jobs_completed": stats.completed,
        "cache_hits": stats.cache_hits,
        "cache_hit_ratio": stats.cache_hit_ratio,
        "invocations": stats.invocations,
        "virtual_now_s": stats.virtual_now_s,
    })


def _bench_campaign_service_faulty(report: ThroughputReport) -> None:
    """Supervised campaign service under chaos, in terminal jobs/second.

    Same unique-job mix as ``campaign_service`` but every attempt rolls
    a seeded 20% crash/hang disruption (12% worker crash, 8% workload
    hang), so the run exercises the full resilience stack: heartbeat
    watchdog resets, ``RetryPolicy`` backoff with jitter, poison-job
    quarantine and per-kind circuit breakers.  Items are jobs driven to
    *a* terminal state — completed, failed or quarantined — because the
    floor gated by ``check_regression.py`` is on supervision overhead,
    not engine time.  The terminal-state mix is annotated so a silent
    shift (e.g. everything quarantining) shows up in the baseline diff.
    """
    def build_service() -> CampaignService:
        return CampaignService(
            seed=SERVICE_SEED,
            supervisor=SupervisorConfig(
                policy=RetryPolicy(max_attempts=3, backoff="exponential",
                                   base_delay_s=0.5,
                                   jitter_fraction=0.1,
                                   seed=SERVICE_SEED + 1)),
            breakers=BreakerConfig(seed=SERVICE_SEED + 2,
                                   failure_threshold=4,
                                   open_duration_s=30.0),
            faults=ServiceFaultPlan(
                seed=SERVICE_SEED + 3,
                worker_crash=WorkerCrashModel(
                    seed=SERVICE_SEED + 3,
                    crash_prob=FAULTY_SERVICE_CRASH_PROB),
                workload_hang=WorkloadHangModel(
                    seed=SERVICE_SEED + 3,
                    hang_prob=FAULTY_SERVICE_HANG_PROB)))

    specs = [JobSpec(kind="sweep-ble",
                     config={"packets": 2, "stop_dbm": -84.0},
                     seed=seed)
             for seed in range(FAULTY_SERVICE_JOBS)]

    def run_service() -> CampaignService:
        service = build_service()
        for spec in specs:
            service.submit(spec)
        service.run_until_idle()
        return service

    service = run_service()
    jobs = service.jobs()
    if not all(job.state in TERMINAL_STATES for job in jobs):
        raise AssertionError(
            "faulty benchmark service left non-terminal jobs")
    stats = service.stats()
    if stats.completed == 0:
        raise AssertionError(
            "faulty benchmark service completed nothing; the fault "
            "mix is too hot to measure supervision throughput")

    report.add("campaign_service_faulty", "fast", measure_throughput(
        "campaign_service_faulty.fast", run_service, len(specs),
        unit="jobs", repeats=SERVICE_REPEATS))
    report.annotate("campaign_service_faulty", service={
        "jobs_submitted": stats.submitted,
        "jobs_completed": stats.completed,
        "jobs_failed": stats.failed,
        "jobs_quarantined": stats.quarantined,
        "attempts": sum(job.attempts for job in jobs),
        "virtual_now_s": stats.virtual_now_s,
    })


# Every harness entry, in sweep order.  Entry names are what ``--only``
# matches and what keys the per-entry metadata; an entry may add one or
# more result groups (the codec entry adds pack and unpack).
_ENTRIES = (
    ("iqword", _bench_codec),
    ("lvds_roundtrip", _bench_lvds),
    ("resync", _bench_resync),
    ("chirp_generation", _bench_chirp),
    ("fft", _bench_fft),
    ("symbol_demod", _bench_symbol_demod),
    ("ota_campaign", lambda report, rng: _bench_campaign(report)),
    ("ota_campaign_faulty",
     lambda report, rng: _bench_campaign_faulty(report)),
    ("ota_campaign_100k",
     lambda report, rng: _bench_campaign_100k(report)),
    ("campaign_service",
     lambda report, rng: _bench_campaign_service(report)),
    ("campaign_service_faulty",
     lambda report, rng: _bench_campaign_service_faulty(report)),
    ("lora_end_to_end", _bench_lora_end_to_end),
    ("lora_streaming_4msps", _bench_lora_streaming),
)


def collect_report(seed: int = 2020,
                   only: str | None = None) -> ThroughputReport:
    """Run the hot-path benchmarks and return the populated report.

    Args:
        seed: RNG seed for the synthetic bench inputs.
        only: optional ``fnmatch`` pattern over entry names; entries
            that do not match are skipped entirely.

    The plan cache is cleared before each entry so the per-entry
    ``plan_cache`` snapshot counts exactly that entry's traffic, and an
    RSS snapshot is annotated after each entry runs.
    """
    rng = np.random.default_rng(seed)
    report = ThroughputReport()
    for name, bench in _ENTRIES:
        if only is not None and not fnmatch.fnmatchcase(name, only):
            continue
        cache.clear()
        bench(report, rng)
        stats = cache.stats()
        report.annotate(
            name,
            plan_cache={"hits": stats.hits, "misses": stats.misses,
                        "entries": stats.entries,
                        "evictions": stats.evictions},
            **_rss_snapshot())
    report.metadata.update({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "seed": seed,
    })
    return report


def main(argv: list[str] | None = None) -> int:
    """Run the harness, print a summary and write ``BENCH_hotpath.json``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only", default=None, metavar="PATTERN",
                        help="fnmatch pattern selecting bench entries "
                             "(e.g. 'ota_campaign*'); a filtered sweep "
                             "does not rewrite BENCH_hotpath.json")
    args = parser.parse_args(argv)
    report = collect_report(only=args.only)
    if not report.results:
        print(f"no bench entries match {args.only!r}")
        return 2
    print(f"{'benchmark':<20} {'fast (items/s)':>16} "
          f"{'reference (items/s)':>20} {'speedup':>9}")
    for group in sorted(report.results):
        variants = report.results[group]
        fast = variants.get("fast")
        reference = variants.get("reference")
        ratio = report.speedup(group)
        print(f"{group:<20} "
              f"{fast.items_per_second if fast else 0:>16.3e} "
              f"{reference.items_per_second if reference else 0:>20.3e} "
              f"{f'{ratio:.1f}x' if ratio else '-':>9}")
    for name, entry in sorted(report.metadata.get("entries", {}).items()):
        plan_cache = entry["plan_cache"]
        print(f"{name}: plan cache {plan_cache}, "
              f"rss {entry['rss_kb']} KiB (peak {entry['peak_rss_kb']})")
    if args.only is None:
        path = report.write_json(BENCH_PATH)
        print(f"wrote {path}")
    else:
        print("partial sweep (--only); baseline not rewritten")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
