"""Seeded, counted streams of fair random bits and dyadic uniforms, and
the one table of stream ids.

Every stream reads numpy's Philox4x64-10 (Salmon et al., SC 2011), keyed
[seed, stream_id], whose raw stream NEP 19 keeps stable across releases.
Streams with distinct keys or counter ranges are independent. `generator`
starts a normal stream at counter 0, and BitSource reads bit block i as
word i % 4 at counter (i // 4, 0, 0, 1), which a Generator would need
2^192 words to reach; any bit is reproducible however draws are chunked.

    stream_id            kind    read by
    l = 0..L (< 2^63)    normal  run --variant classical, level l
    l = 0..L             bits    run, bit-based variants, level l
    ORACLE_STREAM        bits    oracle --mc-reps, = 2^63 + 1
    TOP_STREAM - m       normal  strong-error discretization, m < 2^56
    TOP_STREAM           bits    strong-error quantization, = 2^64 - 1

Dyadic uniforms live on the grid of cell midpoints
{sum_i b_i 2^-i + 2^-(q+1) : b_i in {0,1}}, i.e. (numerator + 1/2) / 2^q
with numerator assembled most-significant-bit first from q fresh bits.
Numerators are read in periods of lcm(q, 64) bits, in which numerator j
always sits at the same block and shift, so each is one column of shifts.
enumerate_numerators applies the same reading to every bit string at once,
which is the ground truth of the exact enumeration checks.
"""

import math
import operator

import numpy as np

from .errors import FeasibilityError, check_indexable

ENUMERATION_BIT_CAP = 24
ORACLE_STREAM = (1 << 63) + 1
TOP_STREAM = (1 << 64) - 1


def key_word(name: str, value) -> int:
    """value, an integer or its decimal text, as a Philox key word, never
    masked: -1 would alias 2^64 - 1. 1.5 or '1.5' is refused, not cut."""
    try:
        word = int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer in [0, 2^64), got "
                         f"{value!r}") from None
    if not 0 <= word < 1 << 64:
        raise ValueError(f"{name} must lie in [0, 2^64), got {word}")
    return word


def generator(seed: int, stream_id: int) -> "np.random.Generator":
    """Normal stream (seed, stream_id) of the module docstring's table."""
    key = [key_word("seed", seed), key_word("stream_id", stream_id)]
    return np.random.Generator(np.random.Philox(key=np.array(key, np.uint64)))


class BitSource:
    """Single-owner stream of ideal fair bits, counted per draw."""

    def __init__(self, seed: int, stream_id: int):
        self.seed = key_word("seed", seed)
        self.stream_id = key_word("stream_id", stream_id)
        self.bits_consumed = 0

    def _blocks(self, first: int, count: int) -> np.ndarray:
        skip = first % 4
        gen = np.random.Philox(
            key=np.array([self.seed, self.stream_id], dtype=np.uint64),
            counter=np.array([first // 4, 0, 0, 1], dtype=np.uint64))
        return gen.random_raw(skip + count)[skip:]

    def draw_dyadic_numerators(self, q: int, shape) -> np.ndarray:
        """Array of independent q-bit numerators; consumes q*prod(shape) bits.

        Numerator j is the q-bit field at the j*q-th next stream position,
        most significant bit first. A period of lcm(q, 64) bits spans P
        blocks and holds K numerators, the j-th at the same block and shift
        in every period. The blocks, realigned once to the stream position,
        are laid out as (P, periods), and numerator column j is cut from one
        block row, or two where it straddles, by whole-row shifts.
        """
        if not 1 <= q <= 63:
            raise ValueError(f"q must lie in 1..63, got {q}")
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        if any(n < 0 for n in shape):
            raise ValueError(f"shape must be non-negative, got {shape}")
        total = math.prod(shape)
        per = math.lcm(q, 64)
        P, K = per // 64, per // q
        periods = -(-total // K)
        first, off = divmod(self.bits_consumed, 64)
        # the blocks _blocks reads: first % 4 skipped words, then its count
        check_indexable((first % 4 + periods * P + 1) * 8,
                        f"a draw of q = {q} numerators of shape {shape}")
        blk = self._blocks(first, periods * P + 1)
        if off:  # realign the stream so that it starts at a block boundary
            tail = blk[1:] >> np.uint64(64 - off)
            blk <<= np.uint64(off)
            blk[:-1] |= tail
            del tail
        rows = np.ascontiguousarray(blk[:-1].reshape(periods, P).T)
        del blk
        cols = np.empty((K, periods), dtype=np.uint64)
        spill = np.empty(periods, dtype=np.uint64)
        for j in range(K):
            b, r = divmod(j * q, 64)
            if r + q <= 64:
                np.right_shift(rows[b], np.uint64(64 - r - q), out=cols[j])
            else:
                np.left_shift(rows[b], np.uint64(r + q - 64), out=cols[j])
                np.right_shift(rows[b + 1], np.uint64(128 - r - q), out=spill)
                cols[j] |= spill
        del rows, spill
        cols &= np.uint64((1 << q) - 1)
        self.bits_consumed += total * q
        return (np.ascontiguousarray(cols.view(np.int64).T)
                .reshape(-1)[:total].reshape(shape))

    def draw_dyadic_values(self, q: int, shape) -> np.ndarray:
        """Array of independent dyadic uniforms in (0,1) at depth q."""
        return (self.draw_dyadic_numerators(q, shape) + 0.5) / 2.0 ** q


def enumerate_numerators(count: int, q: int) -> np.ndarray:
    """Every string of count*q bits read as count q-bit numerators.

    Returns shape (2^(count*q), count). Row c holds the numerators that
    draw_dyadic_numerators(q, count) returns when the next count*q bits of
    the source spell c, most significant bit first: field j of the string
    is numerator j.
    """
    total_bits = count * q
    if total_bits > ENUMERATION_BIT_CAP:
        raise FeasibilityError(
            f"enumeration of {count}*{q} = {total_bits} bits exceeds cap "
            f"{ENUMERATION_BIT_CAP}")
    codes = np.arange(1 << total_bits, dtype=np.int64)
    shifts = total_bits - q * np.arange(1, count + 1)
    return (codes[:, None] >> shifts[None, :]) & ((1 << q) - 1)
