"""The benchmark's three closed-loop workloads.

Each workload drives one client that sends its next operation when the
previous one returns, calling only the program's public functions.  A
workload knows how to import and build the system under test, how to
generate its inputs from the seed, what one operation is, how to check
an operation's output, and where to attach the outside-in tracer.

Nothing here imports the program at module level: the set-up probe
times those imports itself.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
from pathlib import Path

DEFAULT_SEED = 2020
"""Seed the benchmark runs when none is given."""

ALTERNATE_SEED = 7
"""Held-out seed: a claimed gain must also hold here."""


class Workload:
    """One closed-loop workload.

    Attributes:
        name: workload name, as ``--workload`` takes it.
        unit: what one unit of throughput work is.
        warmup_ops: untimed operations before measuring.
        trace_block_ops: operations per traced/untraced block.
        rss_ops: timed operations after which peak memory is read, so
            that a faster host running more operations reads the same.
        realtime_per_s: the rate at which the input arrives in real
            time, when there is one.
        layers: ``(layer, per-layer metrics, end-to-end metrics it
            should move)`` rows, the workload's layer -> metric map.
    """

    name = ""
    unit = ""
    warmup_ops = 1
    trace_block_ops = 1
    rss_ops = 1000
    realtime_per_s = 0.0
    layers: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = ()

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def import_program(self) -> None:
        """Import the program modules this workload exercises."""
        raise NotImplementedError

    def build(self) -> None:
        """Build the receiver, engine or service under test."""
        raise NotImplementedError

    def make_inputs(self) -> None:
        """Generate the seeded inputs (never timed as set-up)."""
        raise NotImplementedError

    def op(self) -> tuple[object, float]:
        """Run one operation; return its output and its units of work.

        An operation makes only the program's calls: :meth:`check`
        prepares the input of the next one.
        """
        raise NotImplementedError

    def check(self, output: object) -> bool:
        """Whether one operation's output is correct."""
        raise NotImplementedError

    def finish(self) -> bool:
        """End-of-run checks; whether they pass."""
        return True

    def install_tracing(self, tracer) -> None:
        """Attach the tracer's wrappers to this workload's layers."""
        raise NotImplementedError

    def layer_totals(self) -> dict[str, float]:
        """Per-layer figures read from the program's own counters."""
        return {}

    def close(self) -> None:
        """Release files and handles."""


def _rows(args, kwargs, result) -> dict[str, float]:
    return {"rows": len(args[0])}


class LoraGatewayRx(Workload):
    """Streaming LoRa receive of a seeded multi-packet capture.

    The capture repeats without a reset, as a gateway's radio stream
    would, in fixed chunks.  Its length is not a multiple of the chunk,
    so every pass cuts the packets at other places and the latency tail
    samples many chunkings instead of the few heaviest chunks of one.
    """

    name = "lora_gateway_rx"
    unit = "samples"
    layers = (
        ("repro.phy.backend fir_carry",
         ("phy.fir_carry.self", "phy.fir_carry.samples"),
         ("throughput_per_s", "latency_p50_ms")),
        ("repro.phy.backend dechirp_magnitudes",
         ("phy.dechirp_magnitudes.self", "phy.dechirp_magnitudes.rows"),
         ("throughput_per_s", "latency_p50_ms")),
        ("repro.phy.lora.demodulator block demodulation",
         ("lora.demodulate_upchirp_block.self", "lora.demodulate_block.self",
          "lora.demodulate_stream.self", "lora.preamble_scan.windows",
          "lora.sfd_walk.windows", "lora.payload.windows"),
         ("throughput_per_s",)),
        ("repro.phy.lora.codec decode_header / decode",
         ("lora.codec.decode_header.self", "lora.codec.decode.self",
          "lora.codec.header_failures", "lora.codec.crc_failures"),
         ("latency_p99_ms",)),
        ("repro.phy.lora.streaming push",
         ("lora.push.self",),
         ("latency_p50_ms",)),
    )

    SPREADING_FACTOR = 8
    BANDWIDTH_HZ = 125e3
    OVERSAMPLING = 2
    realtime_per_s = BANDWIDTH_HZ * OVERSAMPLING
    CHUNK_SAMPLES = 16384
    PACKETS = 40
    MIN_PAYLOAD_BYTES = 16
    MAX_PAYLOAD_BYTES = 63
    GAP_SYMBOLS = (2, 6)
    MAX_CFO_BINS = 3
    SNR_DB = 15.0

    def import_program(self) -> None:
        import repro.phy.lora as lora

        self.lora = lora

    def build(self) -> None:
        self.params = self.lora.LoRaParams(
            self.SPREADING_FACTOR, self.BANDWIDTH_HZ,
            oversampling=self.OVERSAMPLING)
        self.demod = self.lora.StreamingDemodulator(self.params)

    def make_inputs(self) -> None:
        import numpy as np
        from repro.channel.awgn import complex_noise
        from repro.channel.impairments import apply_cfo

        # Payload sizes, gaps and CFOs are fixed multisets that the seed
        # only shuffles, so every seed's capture has the same length and
        # mix of work; the seed picks the order, bytes and noise.
        rng = np.random.default_rng(self.seed)
        params = self.params
        modulator = self.lora.LoRaModulator(params)
        sym = params.samples_per_symbol
        bin_hz = params.bandwidth_hz / params.chips_per_symbol
        sizes = np.linspace(self.MIN_PAYLOAD_BYTES, self.MAX_PAYLOAD_BYTES,
                            self.PACKETS).round().astype(int)
        gaps = np.linspace(self.GAP_SYMBOLS[0] * sym,
                           self.GAP_SYMBOLS[1] * sym,
                           self.PACKETS).astype(int)
        cfos = np.arange(self.PACKETS) % (2 * self.MAX_CFO_BINS + 1) \
            - self.MAX_CFO_BINS
        for values in (sizes, gaps, cfos):
            rng.shuffle(values)
        self.truth: list[tuple[bytes, int]] = []
        frames = []
        for size, cfo_bins in zip(sizes, cfos):
            payload = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            frames.append(modulator.frame_for_payload(payload))
            self.truth.append((payload, int(cfo_bins)))
        # Each packet is rendered straight into the capture, so that the
        # inputs never hold every packet twice and peak memory is the
        # capture plus what the receiver allocates.
        total = int(gaps.sum()) + self.GAP_SYMBOLS[1] * sym \
            + sum(frame.total_samples for frame in frames)
        self.capture = np.zeros(total, dtype=np.complex128)
        self.ends: list[int] = []
        position = 0
        for gap, frame, (_, cfo_bins) in zip(gaps, frames, self.truth):
            position += int(gap)
            waveform = apply_cfo(modulator.modulate_frame(frame),
                                 cfo_bins * bin_hz, params.sample_rate_hz)
            self.capture[position:position + waveform.size] = waveform
            position += waveform.size
            self.ends.append(position)
        noise_power = 10.0 ** (-self.SNR_DB / 10.0)  # signal power is 1
        block = 1 << 16
        for start in range(0, total, block):
            count = min(block, total - start)
            self.capture[start:start + count] += complex_noise(
                count, noise_power, rng)
        self.trace_block_ops = total // self.CHUNK_SAMPLES
        self.pushed = 0
        self.received = 0
        self._next = self._chunk_at(0)

    def _chunk_at(self, position: int):
        """The chunk starting at stream ``position`` (the capture repeats)."""
        import numpy as np

        offset = position % self.capture.size
        chunk = self.capture[offset:offset + self.CHUNK_SAMPLES]
        if chunk.size < self.CHUNK_SAMPLES:
            chunk = np.concatenate(
                [chunk, self.capture[:self.CHUNK_SAMPLES - chunk.size]])
        return chunk

    def op(self) -> tuple[object, float]:
        return self.demod.push(self._next), self.CHUNK_SAMPLES

    def check(self, output) -> bool:
        ok = True
        for packet in output:
            payload, cfo_bins = self.truth[self.received % self.PACKETS]
            self.received += 1
            ok = ok and (packet.decoded.payload == payload
                         and packet.decoded.crc_ok is True
                         and packet.cfo_bins == cfo_bins)
        self.pushed += self.CHUNK_SAMPLES
        self._next = self._chunk_at(self.pushed)
        return ok

    def _completed(self, samples: int) -> int:
        """Packets that end within the first ``samples`` of the stream."""
        passes, offset = divmod(samples, self.capture.size)
        return passes * self.PACKETS + bisect.bisect_right(self.ends, offset)

    def finish(self) -> bool:
        # Every packet the stream has carried has been received, within
        # two symbols of slack for the receiver's window and FIR delay.
        slack = 2 * self.params.samples_per_symbol
        return (self._completed(self.pushed - slack) <= self.received
                <= self._completed(self.pushed + slack))

    def install_tracing(self, tracer) -> None:
        from repro.phy.backend import get_backend

        demod = self.demod
        backend = get_backend()
        tracer.install(demod, "push", "push")
        tracer.install(backend, "fir_carry", "fir_carry",
                       lambda a, k, r: {"samples": len(a[2])})
        tracer.install(backend, "dechirp_magnitudes", "dechirp_magnitudes",
                       _rows)
        tracer.install(demod.symbol_demod, "demodulate_upchirp_block",
                       "demodulate_upchirp_block", _rows)
        tracer.install(demod.symbol_demod, "demodulate_block",
                       "demodulate_block", _rows)
        tracer.install(demod.symbol_demod, "demodulate_stream",
                       "demodulate_stream",
                       lambda a, k, r: {"rows": int(a[1])})
        tracer.install(demod.codec, "decode_header", "decode_header",
                       lambda a, k, r: {"failures": int(not r.header_ok)})
        tracer.install(demod.codec, "decode", "decode",
                       lambda a, k, r: {"failures": int(r.crc_ok is False)})


class FleetOta100k(Workload):
    """One 100k-node fleet OTA campaign plus its per-node spill."""

    name = "fleet_ota_100k"
    unit = "events"
    layers = (
        ("repro.ota.fleet prepare_links", ("fleet.prepare_links.self",),
         ("throughput_per_s",)),
        ("repro.ota.fleet rng.uniforms",
         ("fleet.rng_uniforms.self", "fleet.rng_uniforms.draws"),
         ("throughput_per_s",)),
        ("repro.ota.fleet step loop", ("fleet.step_loop.self",),
         ("throughput_per_s",)),
        ("repro.ota.fleet finalize_fleet", ("fleet.finalize_fleet.self",),
         ("throughput_per_s",)),
        ("repro.ota.fleet write_fleet_spill",
         ("fleet.write_fleet_spill.self", "fleet.write_fleet_spill.rows",
          "fleet.write_fleet_spill.bytes"),
         ("throughput_per_s", "peak_rss_mb")),
    )

    rss_ops = 2
    NODES = 100_000
    IMAGE_BYTES = 1800
    VERIFY_FAILURE_PROB = 0.01
    SPILL_BUFFER_ROWS = 4096
    CHECKED_NODES = 4

    def import_program(self) -> None:
        import repro.ota.fleet as fleet

        self.fleet = fleet

    def build(self) -> None:
        self.config = self.fleet.FleetCampaignConfig(
            num_nodes=self.NODES, image_bytes=self.IMAGE_BYTES,
            seed=self.seed, loss=self.fleet.FleetBurstLoss(),
            verify_failure_prob=self.VERIFY_FAILURE_PROB)
        self.spill_path = self.scratch / "fleet-spill.jsonl"

    def make_inputs(self) -> None:
        self._picker = random.Random(self.seed)
        self._plan = None
        self._events = None

    def op(self) -> tuple[object, float]:
        report = self.fleet.run_fleet_campaign(self.config)
        spill = self.fleet.write_fleet_spill(
            report, self.spill_path, buffer_rows=self.SPILL_BUFFER_ROWS)
        return (report, spill), report.total_events

    def check(self, output) -> bool:
        report, spill = output
        if self._plan is None:
            self._plan = self.fleet.prepare_links(self.config)
            self._events = report.total_events
        ok = (sum(report.outcome_counts().values()) == self.NODES
              and report.total_events == self._events
              and spill["rows_written"]
              == 1 + self.NODES + len(report.rollup.to_rows())
              and spill["max_buffered"] <= self.SPILL_BUFFER_ROWS)
        for node in self._picker.sample(range(self.NODES),
                                        self.CHECKED_NODES):
            timeline = self.fleet.simulate_node_timeline(
                self.config, node, plan=self._plan)
            ok = ok and len(timeline) == int(report.events_per_node[node])
        return ok

    def install_tracing(self, tracer) -> None:
        from repro.ota.fleet import engine

        tracer.install(self.fleet, "run_fleet_campaign",
                       "run_fleet_campaign")
        tracer.install(self.fleet, "write_fleet_spill", "write_fleet_spill",
                       lambda a, k, r: {"rows": r["rows_written"],
                                        "bytes": os.path.getsize(a[1])})
        tracer.install(engine, "prepare_links", "prepare_links")
        tracer.install(engine, "uniforms", "uniforms",
                       lambda a, k, r: {"draws": len(a[0])})
        tracer.install(engine, "finalize_fleet", "finalize_fleet")

    def close(self) -> None:
        if self.spill_path.exists():
            self.spill_path.unlink()


class ServiceZipfJournal(Workload):
    """A journaled campaign service fed a Zipf-skewed job stream."""

    name = "service_zipf_journal"
    unit = "jobs"
    trace_block_ops = 200
    layers = (
        ("repro.service jobspec.content_address",
         ("service.content_address.self",), ("latency_p50_ms",)),
        ("repro.service ResultCache.get / put",
         ("service.cache_get.self", "service.cache_put.self",
          "service.cache.hits", "service.cache.misses",
          "service.cache.evictions", "service.cache.hit_ratio"),
         ("latency_p50_ms", "latency_p99_ms", "throughput_per_s")),
        ("repro.service JobJournal.append",
         ("service.journal_append.self", "service.journal_append.records",
          "service.journal.bytes"),
         ("latency_p50_ms", "latency_p99_ms")),
        ("repro.service WorkloadRegistry.invoke",
         ("service.registry_invoke.self", "service.registry_invoke.calls"),
         ("latency_p99_ms",)),
        ("repro.phy.lora.demodulator demodulate_upchirp",
         ("lora.demodulate_upchirp.calls", "lora.demodulate_upchirp.self",
          "phy.dechirp_magnitudes.self"),
         ("latency_p99_ms",)),
        ("repro.service CampaignService.submit / run_next",
         ("service.submit.self", "service.run_next.self"),
         ("latency_p50_ms",)),
        ("repro.sim.timeline Timeline.record",
         ("service.timeline_record.calls", "service.timeline_record.self"),
         ("latency_p50_ms",)),
    )

    POOL = 512  # about twice the default 256-entry result cache
    ZIPF_EXPONENT = 0.8  # ~75% hits at steady state
    warmup_ops = 600  # fills the result cache before timing
    rss_ops = 3000
    SPEC = {"spreading_factor": 7, "symbols": 24, "start_dbm": -118.0,
            "stop_dbm": -121.0, "step_db": 3.0}

    def import_program(self) -> None:
        import repro.service as service

        self.service_mod = service

    def build(self) -> None:
        self.journal_path = self.scratch / "service-journal.jsonl"
        self.journal = self.service_mod.JobJournal(str(self.journal_path))
        self.service = self.service_mod.CampaignService(
            seed=self.seed, journal=self.journal)

    def make_inputs(self) -> None:
        rng = random.Random(self.seed)
        base = rng.randrange(1 << 20)
        specs = [self.service_mod.JobSpec(kind="sweep-lora",
                                          config=self.SPEC, seed=base + index)
                 for index in range(self.POOL)]
        # Addresses are computed here so that checks never call a
        # traced function outside an operation.
        self.pool = [(spec, spec.content_address) for spec in specs]
        rng.shuffle(self.pool)
        self._cumulative = list(itertools.accumulate(
            1.0 / (rank + 1) ** self.ZIPF_EXPONENT
            for rank in range(self.POOL)))
        self._rng = rng
        self._fingerprints: dict[str, str] = {}
        self.jobs = 0
        self.journal_bytes = 0
        self._next = self._draw()

    def _draw(self):
        """The next ``(spec, address)`` of the Zipf-skewed stream."""
        draw = self._rng.random() * self._cumulative[-1]
        return self.pool[bisect.bisect_left(self._cumulative, draw)]

    def op(self) -> tuple[object, float]:
        spec, address = self._next
        return (address, self.service.submit_and_run(spec)), 1

    def check(self, output) -> bool:
        address, job = output
        self.jobs += 1
        self._next = self._draw()
        if job.state != self.service_mod.JOB_COMPLETED or job.result is None:
            return False
        fingerprint = job.result.fingerprint()
        first = self._fingerprints.setdefault(address, fingerprint)
        return job.result.address == address and fingerprint == first

    def finish(self) -> bool:
        self.journal.close()
        cache = self.service.cache.stats()
        records = self.service_mod.read_journal(
            str(self.journal_path)).records
        self.journal_bytes = self.journal_path.stat().st_size
        # open + submit, admit, dispatch and complete per job
        return (cache.hits + cache.misses == self.jobs
                and len(records) == 1 + 4 * self.jobs)

    def install_tracing(self, tracer) -> None:
        from repro.phy.backend import get_backend
        from repro.phy.lora.demodulator import SymbolDemodulator
        from repro.service import jobspec

        service = self.service
        tracer.install(jobspec, "content_address", "content_address")
        tracer.install(service, "submit", "submit")
        tracer.install(service, "run_next", "run_next")
        tracer.install(service.cache, "get", "cache_get",
                       lambda a, k, r: {"hits": int(r is not None),
                                        "misses": int(r is None)})
        tracer.install(service.cache, "put", "cache_put")
        tracer.install(self.journal, "append", "journal_append")
        tracer.install(service.registry, "invoke", "registry_invoke")
        tracer.install(service.timeline, "record", "timeline_record")
        tracer.install(SymbolDemodulator, "demodulate_upchirp",
                       "demodulate_upchirp")
        tracer.install(get_backend(), "dechirp_magnitudes",
                       "dechirp_magnitudes", _rows)

    def layer_totals(self) -> dict[str, float]:
        cache = self.service.cache.stats()
        return {"service.cache.evictions": cache.evictions,
                "service.cache.hit_ratio":
                    100.0 * cache.hits / max(cache.hits + cache.misses, 1),
                "service.journal.bytes":
                    self.journal_bytes / max(self.jobs, 1)}

    def close(self) -> None:
        self.journal.close()
        if self.journal_path.exists():
            self.journal_path.unlink()


WORKLOADS = {cls.name: cls for cls in (LoraGatewayRx, FleetOta100k,
                                       ServiceZipfJournal)}

# Per-layer metrics of the traced run: (name, unit, stage, quantity).
# A quantity is "self" (self time), "calls" or a work count from the
# stage's wrapper; units ending in "/op" are per traced operation.
PER_LAYER = (
    ("phy.fir_carry.self", "us/op", "fir_carry", "self"),
    ("phy.fir_carry.samples", "count/op", "fir_carry", "samples"),
    ("phy.dechirp_magnitudes.self", "us/op", "dechirp_magnitudes", "self"),
    ("phy.dechirp_magnitudes.rows", "count/op", "dechirp_magnitudes",
     "rows"),
    ("lora.push.self", "us/op", "push", "self"),
    ("lora.demodulate_upchirp_block.self", "us/op",
     "demodulate_upchirp_block", "self"),
    ("lora.demodulate_block.self", "us/op", "demodulate_block", "self"),
    ("lora.demodulate_stream.self", "us/op", "demodulate_stream", "self"),
    ("lora.sfd_walk.windows", "count/op", "demodulate_block", "rows"),
    ("lora.payload.windows", "count/op", "demodulate_stream", "rows"),
    ("lora.codec.decode_header.self", "us/op", "decode_header", "self"),
    ("lora.codec.decode.self", "us/op", "decode", "self"),
    ("lora.codec.header_failures", "count", "decode_header", "failures"),
    ("lora.codec.crc_failures", "count", "decode", "failures"),
    ("lora.demodulate_upchirp.calls", "count/op", "demodulate_upchirp",
     "calls"),
    ("lora.demodulate_upchirp.self", "us/op", "demodulate_upchirp", "self"),
    ("fleet.prepare_links.self", "us/op", "prepare_links", "self"),
    ("fleet.rng_uniforms.self", "us/op", "uniforms", "self"),
    ("fleet.rng_uniforms.draws", "count/op", "uniforms", "draws"),
    ("fleet.step_loop.self", "us/op", "run_fleet_campaign", "self"),
    ("fleet.finalize_fleet.self", "us/op", "finalize_fleet", "self"),
    ("fleet.write_fleet_spill.self", "us/op", "write_fleet_spill", "self"),
    ("fleet.write_fleet_spill.rows", "count/op", "write_fleet_spill",
     "rows"),
    ("fleet.write_fleet_spill.bytes", "B/op", "write_fleet_spill", "bytes"),
    ("service.content_address.self", "us/op", "content_address", "self"),
    ("service.cache_get.self", "us/op", "cache_get", "self"),
    ("service.cache_put.self", "us/op", "cache_put", "self"),
    ("service.cache.hits", "count", "cache_get", "hits"),
    ("service.cache.misses", "count", "cache_get", "misses"),
    ("service.journal_append.self", "us/op", "journal_append", "self"),
    ("service.journal_append.records", "count/op", "journal_append",
     "calls"),
    ("service.registry_invoke.self", "us/op", "registry_invoke", "self"),
    ("service.registry_invoke.calls", "count/op", "registry_invoke",
     "calls"),
    ("service.submit.self", "us/op", "submit", "self"),
    ("service.run_next.self", "us/op", "run_next", "self"),
    ("service.timeline_record.calls", "count/op", "timeline_record",
     "calls"),
    ("service.timeline_record.self", "us/op", "timeline_record", "self"),
)

# Per-layer metrics computed outside the span table.
DERIVED = (
    ("lora.preamble_scan.windows", "count/op"),
    ("service.cache.evictions", "count"),
    ("service.cache.hit_ratio", "%"),
    ("service.journal.bytes", "B/op"),
    ("perf.plan_cache.hits", "count"),
    ("perf.plan_cache.misses", "count"),
    ("perf.plan_cache.entries", "count"),
    ("trace.ops", "count"),
    ("trace.overhead", "%"),
)


def layer_metrics(table: dict, work: dict, ops: int) -> dict[str, float]:
    """Per-layer metrics from a stage table and the wrappers' work counts."""
    metrics: dict[str, float] = {}
    for name, unit, stage, quantity in PER_LAYER:
        row = table.get(stage, {"calls": 0, "self_s": 0.0})
        if quantity == "self":
            value = row["self_s"] * 1e6
        elif quantity == "calls":
            value = row["calls"]
        else:
            value = work.get((stage, quantity), 0.0)
        metrics[name] = value / ops if unit.endswith("/op") else value
    upchirp_rows = work.get(("demodulate_upchirp_block", "rows"), 0.0)
    payload_rows = work.get(("demodulate_stream", "rows"), 0.0)
    metrics["lora.preamble_scan.windows"] = \
        (upchirp_rows - payload_rows) / ops
    return metrics
