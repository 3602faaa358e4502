"""Golden-vector corpus generator for the PHY conformance suite.

The batch and streaming receivers must reproduce these vectors **bit
exactly**.
Each JSON case pins:

* the full seeded generation recipe (modulation parameters, payload,
  noise seed) so the IQ capture is rebuilt, never stored;
* ``capture_sha256`` over the rebuilt capture's raw ``complex128``
  bytes, so a silent modulator/noise change is caught as corpus drift
  rather than misattributed to a demodulator bug;
* the expected receiver outputs — LoRa payload bytes, raw symbol
  values, CFO and sync word; GFSK bit decisions plus their
  integrate-and-dump metrics; O-QPSK recovered bytes plus soft chips —
  with every float pinned via ``float.hex()`` (exact, not approximate).

Regenerate the corpus after an intentional DSP change::

    python -m tests.gen_phy_golden

Verify the committed corpus matches the current code (CI drift gate)::

    python -m tests.gen_phy_golden --check
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.phy import backend
from repro.phy.ble import GfskConfig, GfskDemodulator, GfskModulator
from repro.phy.lora import LoRaDemodulator, LoRaModulator, LoRaParams
from repro.phy.oqpsk import OqpskDemodulator, OqpskModulator, despread, \
    spread, symbols_to_bytes

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "fixtures" \
    / "phy_golden"

# One case per row: (name, sf, bw, cr, oversampling, payload, seed).
# SF/BW/CR coverage spans both FIR (oversampling > 1) and direct paths,
# all four coding rates, and two bandwidths.
LORA_CASES = (
    ("lora_sf7_bw125_cr45", 7, 125e3, 5, 1, b"golden sf7", 101),
    ("lora_sf8_bw125_cr48", 8, 125e3, 8, 2, b"golden sf8 cr48!", 202),
    ("lora_sf9_bw250_cr46", 9, 250e3, 6, 1, b"sf9 wideband", 303),
    ("lora_sf10_bw125_cr47", 10, 125e3, 7, 2, b"sf10 deep", 404),
)

# (name, samples_per_symbol, num_bits, seed)
GFSK_CASES = (
    ("gfsk_ble_sps4", 4, 64, 511),
    ("gfsk_ble_sps8", 8, 48, 522),
)

# (name, samples_per_chip, payload, seed)
OQPSK_CASES = (
    ("oqpsk_spc2", 2, b"\x12\x34\xab", 711),
    ("oqpsk_spc4", 4, b"zig", 722),
)


def _sha256(capture: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(capture, dtype=np.complex128).tobytes()
    ).hexdigest()


def _hex_floats(values: np.ndarray) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=np.float64)]


def build_lora_capture(case: dict) -> np.ndarray:
    """Rebuild a LoRa case's IQ capture from its pinned recipe."""
    params = LoRaParams(
        spreading_factor=case["spreading_factor"],
        bandwidth_hz=case["bandwidth_hz"],
        coding_rate_denominator=case["coding_rate_denominator"],
        oversampling=case["oversampling"])
    waveform = LoRaModulator(params).modulate(bytes.fromhex(case["payload"]))
    rng = np.random.default_rng(case["seed"])
    head = int(1.5 * params.samples_per_symbol)
    stream = np.concatenate([
        np.zeros(head, dtype=np.complex128), waveform,
        np.zeros(head, dtype=np.complex128)])
    noise = (rng.normal(scale=case["noise_scale"], size=stream.size)
             + 1j * rng.normal(scale=case["noise_scale"], size=stream.size))
    return stream + noise


def _gen_lora(name: str, sf: int, bw: float, cr: int, oversampling: int,
              payload: bytes, seed: int) -> dict:
    case = {
        "kind": "lora",
        "name": name,
        "spreading_factor": sf,
        "bandwidth_hz": bw,
        "coding_rate_denominator": cr,
        "oversampling": oversampling,
        "payload": payload.hex(),
        "seed": seed,
        "noise_scale": 0.02,
    }
    capture = build_lora_capture(case)
    params = LoRaParams(spreading_factor=sf, bandwidth_hz=bw,
                        coding_rate_denominator=cr,
                        oversampling=oversampling)
    packets = LoRaDemodulator(params).receive_all(capture)
    if len(packets) != 1 or packets[0].decoded.payload != payload:
        raise AssertionError(f"{name}: demodulator failed on clean capture")
    packet = packets[0]
    case.update({
        "capture_sha256": _sha256(capture),
        "expected": {
            "payload": packet.decoded.payload.hex(),
            "crc_ok": packet.decoded.crc_ok,
            "symbols": [int(s) for s in packet.symbols],
            "payload_start": packet.payload_start,
            "cfo_bins": packet.cfo_bins,
            "sync_word": packet.sync_word,
        },
    })
    return case


def build_gfsk_capture(case: dict) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild a GFSK case's (bits, IQ capture) from its recipe."""
    rng = np.random.default_rng(case["seed"])
    bits = rng.integers(0, 2, case["num_bits"])
    config = GfskConfig(samples_per_symbol=case["samples_per_symbol"])
    clean = GfskModulator(config).modulate(bits)
    noise = (rng.normal(scale=case["noise_scale"], size=clean.size)
             + 1j * rng.normal(scale=case["noise_scale"], size=clean.size))
    return bits, clean + noise


def _gen_gfsk(name: str, sps: int, num_bits: int, seed: int) -> dict:
    case = {
        "kind": "gfsk",
        "name": name,
        "samples_per_symbol": sps,
        "num_bits": num_bits,
        "seed": seed,
        "noise_scale": 0.01,
    }
    bits, capture = build_gfsk_capture(case)
    demod = GfskDemodulator(GfskConfig(samples_per_symbol=sps))
    decided = demod.demodulate(capture, num_bits)
    if not np.array_equal(decided, bits):
        raise AssertionError(f"{name}: GFSK demod failed on clean capture")
    freq = demod.instantaneous_frequency(capture)
    metrics = backend.integrate_bits(freq, 0, num_bits, sps)
    case.update({
        "capture_sha256": _sha256(capture),
        "expected": {
            "bits": [int(b) for b in decided],
            "metrics_hex": _hex_floats(metrics),
        },
    })
    return case


def build_oqpsk_capture(case: dict) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild an O-QPSK case's (chips, IQ capture) from its recipe."""
    chips = spread(bytes.fromhex(case["payload"]))
    clean = OqpskModulator(case["samples_per_chip"]).modulate(chips)
    rng = np.random.default_rng(case["seed"])
    noise = (rng.normal(scale=case["noise_scale"], size=clean.size)
             + 1j * rng.normal(scale=case["noise_scale"], size=clean.size))
    return chips, clean + noise


def _gen_oqpsk(name: str, spc: int, payload: bytes, seed: int) -> dict:
    case = {
        "kind": "oqpsk",
        "name": name,
        "samples_per_chip": spc,
        "payload": payload.hex(),
        "seed": seed,
        "noise_scale": 0.02,
    }
    chips, capture = build_oqpsk_capture(case)
    demod = OqpskDemodulator(spc)
    soft = demod.soft_chips(capture, chips.size)
    symbols = despread((soft > 0.0).astype(np.int64))
    recovered = symbols_to_bytes(symbols)
    if recovered != payload:
        raise AssertionError(f"{name}: O-QPSK demod failed on clean capture")
    case.update({
        "capture_sha256": _sha256(capture),
        "expected": {
            "payload": recovered.hex(),
            "hard_chips": [int(c) for c in (soft > 0.0).astype(np.int64)],
            "soft_chips_hex": _hex_floats(soft),
        },
    })
    return case


def generate_cases() -> list[dict]:
    """Generate the whole corpus, deterministically, in manifest order."""
    cases = [_gen_lora(*row) for row in LORA_CASES]
    cases += [_gen_gfsk(*row) for row in GFSK_CASES]
    cases += [_gen_oqpsk(*row) for row in OQPSK_CASES]
    return cases


def _render(case: dict) -> str:
    return json.dumps(case, indent=2, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="verify the committed corpus matches the "
                             "current code instead of rewriting it")
    args = parser.parse_args(argv)
    cases = generate_cases()
    if args.check:
        drifted: list[str] = []
        expected_names = {case["name"] for case in cases}
        for case in cases:
            path = GOLDEN_DIR / f"{case['name']}.json"
            if not path.exists():
                drifted.append(f"{case['name']}: missing {path}")
            elif path.read_text() != _render(case):
                drifted.append(f"{case['name']}: committed vector differs "
                               f"from regenerated output")
        for path in sorted(GOLDEN_DIR.glob("*.json")):
            if path.stem not in expected_names:
                drifted.append(f"{path.stem}: stale vector not produced "
                               f"by the generator")
        for line in drifted:
            print(f"DRIFT {line}")
        if drifted:
            print(f"{len(drifted)} golden vector(s) drifted; rerun "
                  f"'python -m tests.gen_phy_golden' if intentional")
            return 1
        print(f"{len(cases)} golden vectors match the current code")
        return 0
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for case in cases:
        (GOLDEN_DIR / f"{case['name']}.json").write_text(_render(case))
        print(f"wrote {case['name']}.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
