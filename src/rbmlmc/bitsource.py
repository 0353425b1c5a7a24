"""Seeded, counted streams of fair random bits and dyadic uniforms.

A BitSource is a counter-based generator keyed by (seed, stream_id): the
64-bit block at index i is a pure function of (seed, stream_id, i), so the
bit at any global position is reproducible independently of how draws are
chunked, and distinct stream_ids give independent-looking substreams.

Dyadic uniforms live on the grid of cell midpoints
{sum_i b_i 2^-i + 2^-(q+1) : b_i in {0,1}}, i.e. (numerator + 1/2) / 2^q
with numerator assembled most-significant-bit first from q fresh bits.
Numerators are read in periods of lcm(q, 64) bits, in which numerator j
always sits at the same block and shift, so each is one column of shifts.
enumerate_numerators applies the same reading to every bit string at once,
which is the ground truth of the exact enumeration checks.
"""

import math

import numpy as np

from .errors import FeasibilityError

ENUMERATION_BIT_CAP = 24

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(z):
    """splitmix64 finalizer, in place on a uint64 array; returns z."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


class BitSource:
    """Single-owner stream of ideal fair bits, counted per draw."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream_id = int(stream_id) & 0xFFFFFFFFFFFFFFFF
        self.bits_consumed = 0
        k = _mix64(np.array([self.seed, self.stream_id], dtype=np.uint64)
                   + np.array([0, _GOLDEN], dtype=np.uint64))
        k[:1] += _GOLDEN
        self._key = _mix64(k[:1] ^ k[1:])[0]

    def _blocks(self, first: int, count: int) -> np.ndarray:
        z = np.arange(first + 1, first + count + 1, dtype=np.uint64)
        z *= _GOLDEN
        z += self._key
        return _mix64(z)

    def draw_bits(self, n: int) -> np.ndarray:
        """Next n bits as a uint8 array; advances bits_consumed by n."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return np.zeros(0, dtype=np.uint8)
        p0 = self.bits_consumed
        b0 = p0 // 64
        b1 = (p0 + n - 1) // 64 + 1
        blocks = self._blocks(b0, b1 - b0)
        bits = np.unpackbits(blocks.astype(">u8").view(np.uint8))
        off = p0 - 64 * b0
        self.bits_consumed += n
        return bits[off:off + n]

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
        total = int(np.prod(shape, dtype=np.int64)) if shape else 1
        per = math.lcm(q, 64)
        P, K = per // 64, per // q
        periods = -(-total // K)
        first, off = divmod(self.bits_consumed, 64)
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
