"""Counter-based random streams.

Ring k of a lattice site draws its clock gap and its update bit from one
Philox4x32-10 block (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
3", SC'11).  The block's key is the replica's simulation seed and its counter
is (k, site key), where the site key hashes the site's coordinates.  A draw
therefore depends only on (seed, site, k): never on the horizon, the
enclosing window, the replica batch or the evaluation chunk, which is what
makes replica reproducibility, horizon extension and the dependence-cone
checks exact.

The kernel keeps each block's four 32-bit words as two uint64 lanes,
X = w0 2^32 + w1 and Y = w2 2^32 + w3, and updates them in place, so a round
is ten whole-array uint64 operations with no casts and no strided views.
Lane X is the 64-bit value whose top 53 bits give the gap uniform, and ring
k's bit is 1 exactly when Y < bit_threshold(p), which is the same test as
"bit uniform < p" without a float conversion.  The output bytes are those of
the 32-bit-word formulation (kept as the test oracle), so STREAM_VERSION
stays 3.  Draws are ring-major, (count, rows), so per-row words broadcast
along the contiguous axis.

Cost of one chunk of 1365 rows x 12 rings (16 380 blocks), median of 800
calls on a 2-core x86-64 host with numpy 2.4.6:

    lane rounds alone (_lanes)            811 us   50 ns per block
    ring_draws                            919 us   56 ns per block
    ring_draws on 32-bit words (before)  1498 us   91 ns per block
"""

from __future__ import annotations

import math

import numpy as np

STREAM_VERSION = 3  # bump whenever sampled outputs change for a fixed seed
PHILOX_CHUNK = 1 << 14  # elements per vectorized Philox evaluation

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """splitmix64 finalizer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def mix64(*parts) -> int | np.ndarray:
    """Deterministically hash a sequence of ints (or short str tags) to 64 bits;
    with integer ndarray parts, elementwise to a uint64 array."""
    z = 0x243F6A8885A308D3
    for v in parts:
        if isinstance(v, str):
            v = int.from_bytes(v.encode(), "little")
        v = v.astype(np.uint64) if isinstance(v, np.ndarray) else int(v) & _MASK
        z = _mix(((z ^ v) + _GOLDEN) & _MASK)
    return z


def derive_seed(seed: int, *parts) -> int | np.ndarray:
    """A 64-bit child seed (array for array parts) for a named sub-stream."""
    return mix64(seed, *parts)


def derived_generator(seed: int, *parts: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, *parts)))


def site_key(coords) -> int | np.ndarray:
    """The 64-bit counter half that names a site's stream; a uint64 array for
    one integer coordinate array per axis (negative values wrap alike).  The
    hash ends with a zero word, as STREAM_VERSION 3 defines the key."""
    return mix64(*coords, 0)


_32 = np.uint64(32)
_HI32 = np.uint64(0xFFFFFFFF00000000)  # the high word of a lane
_PHILOX_M = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_PHILOX_W = (np.uint64(0x9E3779B9 << 32), np.uint64(0xBB67AE85 << 32))  # key bumps, high words


def _swap(v: np.ndarray) -> np.ndarray:
    """uint64 values with their 32-bit halves swapped."""
    return (v << _32) | (v >> _32)


def _lanes(seeds: np.ndarray, site_keys: np.ndarray, k0, count: int):
    """Philox4x32-10 blocks k0 .. k0+count-1 of each stream, chunk by chunk.

    Block k of a stream has counter words (w0, w1, w2, w3) = (low, high word
    of k, low, high word of the site key) and key words (low, high word of the
    seed).  The block is kept as two lanes X = w0 2^32 + w1 and
    Y = w2 2^32 + w3, and a round is
    X, Y = (X << 32) ^ (Y >> 32) M1 ^ K0, (Y << 32) ^ (X >> 32) M0 ^ K1
    with the round's key words in the high halves of K0 and K1.  Yields
    (index, X, Y): the block of a (count, rows) array that this chunk fills,
    and its two output lanes, ring-major.
    """
    rows = seeds.size
    k0 = np.broadcast_to(np.asarray(k0, dtype=np.uint64), rows)
    key = (seeds << _32, seeds & _HI32)
    y0 = _swap(site_keys)
    ring = np.arange(count, dtype=np.uint64)[:, None]
    row_step = max(1, min(rows, PHILOX_CHUNK))
    ring_step = max(1, PHILOX_CHUNK // row_step)  # 1 unless a chunk holds every row
    for lo in range(0, rows, row_step):
        cols = slice(lo, lo + row_step)
        for a in range(0, count, ring_step):
            x = _swap(k0[cols] + ring[a:a + ring_step])
            y = np.empty_like(x)
            y[...] = y0[cols]
            t, u = np.empty_like(x), np.empty_like(x)
            kx, ky = key[0][cols].copy(), key[1][cols].copy()
            for r in range(10):
                if r:
                    kx += _PHILOX_W[0]  # wraps mod 2^32 in the high word
                    ky += _PHILOX_W[1]
                np.right_shift(x, _32, out=t)
                t *= _PHILOX_M[0]
                np.right_shift(y, _32, out=u)
                u *= _PHILOX_M[1]
                x <<= _32
                x ^= u
                x ^= kx
                y <<= _32
                y ^= t
                y ^= ky
            yield (slice(a, a + ring_step), cols), x, y


def bit_threshold(p: float) -> np.uint64:
    """The lane value below which a ring's bit is 1: for p in [0, 1), a lane
    Y has Y < bit_threshold(p) exactly when its uniform (Y >> 11) 2^-53 < p.
    (Y >> 11) < p 2^53 holds for the integer Y >> 11 exactly when it lies
    below ceil(p 2^53), which is at most 2^53 - 1 for p < 1."""
    return np.uint64(math.ceil(p * 2.0**53) << 11)


def ring_draws(
    seeds: np.ndarray, site_keys: np.ndarray, k0, count: int, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exp(1) gaps and Bernoulli(p) bits of rings k0 .. k0+count-1 of each stream.

    ``seeds`` and ``site_keys`` are uint64 arrays naming one stream per row;
    ``k0`` is one first ring index for every row, or an array of one per row.
    Returns a (count, rows) float64 and a (count, rows) bool array, ring-major.
    Lane X of block k gives gap k as -log1p(-(X >> 11) 2^-53); bit k is
    Y < bit_threshold(p).
    """
    gaps = np.empty((count, seeds.size))
    bits = np.empty((count, seeds.size), dtype=bool)
    threshold = bit_threshold(p)
    for block, x, y in _lanes(seeds, site_keys, k0, count):
        np.less(y, threshold, out=bits[block])
        x >>= np.uint64(11)
        g = gaps[block]
        np.multiply(x, -(2.0**-53), out=g)
        np.log1p(g, out=g)
        np.negative(g, out=g)
    return gaps, bits

