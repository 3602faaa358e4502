"""The 32-bit I/Q word structure of the radio-FPGA interface (paper Fig. 4).

The AT86RF215 streams baseband samples over LVDS as 32-bit serial words at
4 Mwords/s: a 2-bit ``I_SYNC`` pattern, 13 bits of I data and a control
bit, then a 2-bit ``Q_SYNC`` pattern, 13 bits of Q data and a final
control bit.  The FPGA deserializer uses the sync patterns to find word
boundaries and loads the I and Q fields into 13-bit registers.

This module is the bit-exact codec for that format: samples -> words ->
bit stream and back, including the alignment search a cold-started
deserializer performs.

Two implementations coexist.  The public entry points are vectorized
(whole-array shift-and-mask bit-plane operations, ``np.packbits`` /
``np.unpackbits`` for serialization); the original per-word, per-bit
scalar code is retained as ``*_reference`` functions, and the property
tests assert the fast paths are bit-exact against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.fixedpoint import from_codes, to_codes
from repro.errors import FramingError
from repro.radio.at86rf215 import ADC_BITS, SAMPLE_RATE_HZ

WORD_BITS = 32  # paper: Fig. 4 (32-bit LVDS I/Q word)
SAMPLE_BITS = ADC_BITS
"""The I and Q fields carry the converters' 13-bit codes (Fig. 4)."""

I_SYNC = 0b10  # datasheet: AT86RF215, I/Q IF sync pattern
Q_SYNC = 0b01  # datasheet: AT86RF215, I/Q IF sync pattern
SYNC_BITS = 2  # paper: Fig. 4 (2-bit sync prefix per field)

WORD_RATE_HZ = SAMPLE_RATE_HZ
"""One 32-bit word per baseband sample: 4 Mwords/s (section 3.1.1)."""

BIT_RATE_BPS = WORD_BITS * WORD_RATE_HZ
"""128 Mbps serial rate, carried by a 64 MHz DDR clock."""

_FIELD_MASK = (1 << SAMPLE_BITS) - 1
_CODE_MIN = -(1 << (SAMPLE_BITS - 1))
_CODE_MAX = (1 << (SAMPLE_BITS - 1)) - 1

# Bit positions (LSB-based shifts) of each field in the 32-bit word,
# MSB transmitted first: [I_SYNC:2][I:13][ctrl:1][Q_SYNC:2][Q:13][ctrl:1].
_Q_CONTROL_SHIFT = 0
_Q_FIELD_SHIFT = 1
_Q_SYNC_SHIFT = 1 + SAMPLE_BITS
_I_CONTROL_SHIFT = 1 + SAMPLE_BITS + SYNC_BITS
_I_FIELD_SHIFT = 2 + SAMPLE_BITS + SYNC_BITS
_I_SYNC_SHIFT = 2 + 2 * SAMPLE_BITS + SYNC_BITS


@dataclass(frozen=True)
class IqWord:
    """One decoded 32-bit I/Q word.

    Attributes:
        i_code: signed 13-bit I sample code.
        q_code: signed 13-bit Q sample code.
        i_control: the control bit following the I field.
        q_control: the control bit following the Q field.
    """

    i_code: int
    q_code: int
    i_control: int = 0
    q_control: int = 0


def _field_to_unsigned(code: int) -> int:
    """Two's-complement 13-bit encoding of a signed sample code."""
    if not _CODE_MIN <= code <= _CODE_MAX:
        raise FramingError(
            f"sample code {code} does not fit in {SAMPLE_BITS} signed bits")
    return code & _FIELD_MASK


def _field_to_signed(value: int) -> int:
    """Decode a 13-bit two's-complement field."""
    if value & (1 << (SAMPLE_BITS - 1)):
        return value - (1 << SAMPLE_BITS)
    return value


def pack_word(word: IqWord) -> int:
    """Pack one :class:`IqWord` into its 32-bit integer representation.

    Bit layout, MSB transmitted first:
    ``[I_SYNC:2][I:13][ctrl:1][Q_SYNC:2][Q:13][ctrl:1]``.
    """
    value = I_SYNC
    value = (value << SAMPLE_BITS) | _field_to_unsigned(word.i_code)
    value = (value << 1) | (word.i_control & 1)
    value = (value << SYNC_BITS) | Q_SYNC
    value = (value << SAMPLE_BITS) | _field_to_unsigned(word.q_code)
    value = (value << 1) | (word.q_control & 1)
    return value


def unpack_word(value: int) -> IqWord:
    """Decode a 32-bit integer into an :class:`IqWord`.

    Raises:
        FramingError: if either sync pattern is wrong (misaligned word).
    """
    if not 0 <= value < (1 << WORD_BITS):
        raise FramingError(f"word {value:#x} does not fit in 32 bits")
    q_control = value & 1
    q_field = (value >> _Q_FIELD_SHIFT) & _FIELD_MASK
    q_sync = (value >> _Q_SYNC_SHIFT) & 0b11
    i_control = (value >> _I_CONTROL_SHIFT) & 1
    i_field = (value >> _I_FIELD_SHIFT) & _FIELD_MASK
    i_sync = (value >> _I_SYNC_SHIFT) & 0b11
    if i_sync != I_SYNC or q_sync != Q_SYNC:
        raise FramingError(
            f"sync patterns {i_sync:#04b}/{q_sync:#04b} do not match "
            f"{I_SYNC:#04b}/{Q_SYNC:#04b}")
    return IqWord(i_code=_field_to_signed(i_field),
                  q_code=_field_to_signed(q_field),
                  i_control=i_control, q_control=q_control)


# -- vectorized word codec ----------------------------------------------------

def pack_codes(i_codes: np.ndarray, q_codes: np.ndarray,
               i_controls: np.ndarray | int = 0,
               q_controls: np.ndarray | int = 0) -> np.ndarray:
    """Pack arrays of signed 13-bit codes into 32-bit words (vectorized).

    Raises:
        FramingError: if any code does not fit in 13 signed bits.
    """
    i_codes = np.asarray(i_codes, dtype=np.int64)
    q_codes = np.asarray(q_codes, dtype=np.int64)
    for name, codes in (("I", i_codes), ("Q", q_codes)):
        bad = (codes < _CODE_MIN) | (codes > _CODE_MAX)
        if bad.any():
            offender = int(codes[np.argmax(bad)])
            raise FramingError(
                f"{name} sample code {offender} does not fit in "
                f"{SAMPLE_BITS} signed bits")
    i_controls = np.asarray(i_controls, dtype=np.int64) & 1
    q_controls = np.asarray(q_controls, dtype=np.int64) & 1
    words = np.full(i_codes.shape, I_SYNC << _I_SYNC_SHIFT, dtype=np.uint64)
    words |= ((i_codes & _FIELD_MASK) << _I_FIELD_SHIFT).astype(np.uint64)
    words |= (i_controls << _I_CONTROL_SHIFT).astype(np.uint64)
    words |= np.uint64(Q_SYNC << _Q_SYNC_SHIFT)
    words |= ((q_codes & _FIELD_MASK) << _Q_FIELD_SHIFT).astype(np.uint64)
    words |= q_controls.astype(np.uint64)
    return words


def unpack_codes(words: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unpack 32-bit words into code/control arrays (vectorized).

    Returns:
        ``(i_codes, q_codes, i_controls, q_controls)`` as ``int64``.

    Raises:
        FramingError: if any word exceeds 32 bits or has corrupted sync
            patterns.
    """
    words = np.asarray(words, dtype=np.uint64)
    oversize = words >> np.uint64(WORD_BITS)
    if oversize.any():
        offender = int(words[np.argmax(oversize != 0)])
        raise FramingError(f"word {offender:#x} does not fit in 32 bits")
    i_sync = (words >> np.uint64(_I_SYNC_SHIFT)) & np.uint64(0b11)
    q_sync = (words >> np.uint64(_Q_SYNC_SHIFT)) & np.uint64(0b11)
    bad = (i_sync != I_SYNC) | (q_sync != Q_SYNC)
    if bad.any():
        index = int(np.argmax(bad))
        raise FramingError(
            f"sync patterns {int(i_sync[index]):#04b}/"
            f"{int(q_sync[index]):#04b} do not match "
            f"{I_SYNC:#04b}/{Q_SYNC:#04b}")
    i_fields = ((words >> np.uint64(_I_FIELD_SHIFT))
                & np.uint64(_FIELD_MASK)).astype(np.int64)
    q_fields = ((words >> np.uint64(_Q_FIELD_SHIFT))
                & np.uint64(_FIELD_MASK)).astype(np.int64)
    sign = 1 << (SAMPLE_BITS - 1)
    i_codes = np.where(i_fields >= sign, i_fields - (1 << SAMPLE_BITS),
                       i_fields)
    q_codes = np.where(q_fields >= sign, q_fields - (1 << SAMPLE_BITS),
                       q_fields)
    i_controls = ((words >> np.uint64(_I_CONTROL_SHIFT))
                  & np.uint64(1)).astype(np.int64)
    q_controls = (words & np.uint64(1)).astype(np.int64)
    return i_codes, q_codes, i_controls, q_controls


def samples_to_words(samples: np.ndarray,
                     full_scale: float = 1.0) -> np.ndarray:
    """Quantize complex samples to 13 bits and pack them into 32-bit words."""
    samples = np.asarray(samples, dtype=np.complex128)
    i_codes = to_codes(samples.real, SAMPLE_BITS, full_scale)
    q_codes = to_codes(samples.imag, SAMPLE_BITS, full_scale)
    return pack_codes(i_codes, q_codes)


def samples_to_words_reference(samples: np.ndarray,
                               full_scale: float = 1.0) -> np.ndarray:
    """Scalar per-word reference implementation of :func:`samples_to_words`."""
    samples = np.asarray(samples, dtype=np.complex128)
    i_codes = to_codes(samples.real, SAMPLE_BITS, full_scale)
    q_codes = to_codes(samples.imag, SAMPLE_BITS, full_scale)
    words = np.empty(samples.size, dtype=np.uint64)
    for index, (i_code, q_code) in enumerate(zip(i_codes, q_codes)):
        words[index] = pack_word(IqWord(int(i_code), int(q_code)))
    return words


def words_to_samples(words: np.ndarray,
                     full_scale: float = 1.0) -> np.ndarray:
    """Decode packed words back to complex samples.

    Raises:
        FramingError: on any word with corrupted sync patterns.
    """
    i_codes, q_codes, _, _ = unpack_codes(words)
    return (from_codes(i_codes, SAMPLE_BITS, full_scale)
            + 1j * from_codes(q_codes, SAMPLE_BITS, full_scale))


def words_to_samples_reference(words: np.ndarray,
                               full_scale: float = 1.0) -> np.ndarray:
    """Scalar per-word reference implementation of :func:`words_to_samples`."""
    words = np.asarray(words, dtype=np.uint64)
    i_codes = np.empty(words.size, dtype=np.int64)
    q_codes = np.empty(words.size, dtype=np.int64)
    for index, value in enumerate(words):
        word = unpack_word(int(value))
        i_codes[index] = word.i_code
        q_codes[index] = word.q_code
    return (from_codes(i_codes, SAMPLE_BITS, full_scale)
            + 1j * from_codes(q_codes, SAMPLE_BITS, full_scale))


# -- vectorized bit-stream serialization -------------------------------------

def words_to_bits(words: np.ndarray) -> np.ndarray:
    """Serialize packed words into the on-wire bit stream (MSB first).

    Vectorized: each word is viewed as four big-endian bytes and expanded
    with ``np.unpackbits``, which yields exactly the MSB-first order the
    LVDS lane transmits.
    """
    words = np.asarray(words, dtype=np.uint64)
    big_endian = words.astype(">u4")
    return np.unpackbits(big_endian.view(np.uint8))


def words_to_bits_reference(words: np.ndarray) -> np.ndarray:
    """Scalar per-bit reference implementation of :func:`words_to_bits`."""
    words = np.asarray(words, dtype=np.uint64)
    bits = np.empty(words.size * WORD_BITS, dtype=np.uint8)
    for index, value in enumerate(words):
        for bit in range(WORD_BITS):
            bits[index * WORD_BITS + bit] = (int(value) >> (WORD_BITS - 1 - bit)) & 1
    return bits


def bits_to_words(bits: np.ndarray, offset: int = 0) -> np.ndarray:
    """Pack an aligned bit stream back into 32-bit words from ``offset``.

    Vectorized: the usable bits are packed into bytes with
    ``np.packbits`` and re-viewed as big-endian 32-bit words.

    Raises:
        FramingError: if fewer than one whole word remains after
            ``offset``.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    usable = (bits.size - offset) // WORD_BITS
    if usable <= 0:
        raise FramingError("bit stream shorter than one word")
    trimmed = bits[offset:offset + usable * WORD_BITS]
    packed = np.packbits(trimmed)
    return packed.view(">u4").astype(np.uint64)


def bits_to_words_reference(bits: np.ndarray, offset: int = 0) -> np.ndarray:
    """Scalar per-bit reference implementation of :func:`bits_to_words`."""
    bits = np.asarray(bits, dtype=np.uint8)
    usable = (bits.size - offset) // WORD_BITS
    if usable <= 0:
        raise FramingError("bit stream shorter than one word")
    words = np.empty(usable, dtype=np.uint64)
    for w in range(usable):
        value = 0
        base = offset + w * WORD_BITS
        for bit in range(WORD_BITS):
            value = (value << 1) | int(bits[base + bit])
        words[w] = value
    return words


# -- alignment search ---------------------------------------------------------

def _sync_valid(values: np.ndarray) -> np.ndarray:
    """Boolean mask of words whose I_SYNC and Q_SYNC patterns are intact."""
    i_sync = (values >> np.uint64(_I_SYNC_SHIFT)) & np.uint64(0b11)
    q_sync = (values >> np.uint64(_Q_SYNC_SHIFT)) & np.uint64(0b11)
    return (i_sync == I_SYNC) & (q_sync == Q_SYNC)


def find_word_alignment(bits: np.ndarray, required_words: int = 4) -> int:
    """Locate the word boundary in an unaligned serial bit stream.

    Mirrors the FPGA deserializer's cold-start behaviour: slide a 32-bit
    window until ``required_words`` consecutive words decode with valid
    I_SYNC and Q_SYNC patterns.

    Vectorized: the candidate word value at every bit position is built
    from a sliding bit-plane view in one pass, sync validity is checked
    for all positions at once, and each candidate offset's score is the
    AND of its ``required_words`` word positions.

    Returns:
        The bit offset of the first full word.

    Raises:
        FramingError: if no consistent alignment exists in the stream.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size < WORD_BITS * required_words:
        raise FramingError(
            f"need at least {WORD_BITS * required_words} bits to align, "
            f"got {bits.size}")
    num_offsets = min(WORD_BITS, bits.size - WORD_BITS * required_words + 1)
    span = num_offsets - 1 + WORD_BITS * required_words
    windows = np.lib.stride_tricks.sliding_window_view(
        bits[:span], WORD_BITS).astype(np.uint64)
    weights = (np.uint64(1) << np.arange(WORD_BITS - 1, -1, -1,
                                         dtype=np.uint64))
    values = windows @ weights
    valid = _sync_valid(values)
    positions = (np.arange(num_offsets)[:, None]
                 + WORD_BITS * np.arange(required_words)[None, :])
    aligned = valid[positions].all(axis=1)
    hits = np.flatnonzero(aligned)
    if hits.size:
        return int(hits[0])
    raise FramingError("no valid word alignment found in bit stream")


def find_word_alignment_reference(bits: np.ndarray,
                                  required_words: int = 4) -> int:
    """Scalar nested-loop reference for :func:`find_word_alignment`."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size < WORD_BITS * required_words:
        raise FramingError(
            f"need at least {WORD_BITS * required_words} bits to align, "
            f"got {bits.size}")
    for offset in range(min(WORD_BITS, bits.size - WORD_BITS * required_words + 1)):
        aligned = True
        for w in range(required_words):
            base = offset + w * WORD_BITS
            value = 0
            for bit in range(WORD_BITS):
                value = (value << 1) | int(bits[base + bit])
            try:
                unpack_word(value)
            except FramingError:
                aligned = False
                break
        if aligned:
            return offset
    raise FramingError("no valid word alignment found in bit stream")
