"""Counter-based random streams.

Ring k of a lattice site draws its clock gap and its update bit from one
Philox4x32-10 block (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
3", SC'11).  The block's key is the replica's simulation seed and its counter
is (k, site key), where the site key hashes the site's coordinates and an
optional salt.  A draw therefore depends only on (seed, site, salt, k): never
on the horizon, the enclosing window, the replica batch or the evaluation
chunk, which is what makes replica reproducibility, horizon extension and the
dependence-cone checks exact.
"""

from __future__ import annotations

import sys

import numpy as np

STREAM_VERSION = 3  # bump whenever sampled outputs change for a fixed seed
PHILOX_CHUNK = 1 << 14  # elements per vectorized Philox evaluation

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_PHILOX_M = (np.uint32(0xD2511F53), np.uint32(0xCD9E8D57))
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_LO, _HI = (0, 1) if sys.byteorder == "little" else (1, 0)  # 32-bit halves of a uint64


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


def site_key(coords, salt: int = 0) -> int | np.ndarray:
    """The 64-bit counter half that names a site's stream; a uint64 array for
    one integer coordinate array per axis (negative values wrap alike)."""
    return mix64(*coords, salt)


def philox4x32(counter: tuple, key: tuple) -> tuple[np.ndarray, ...]:
    """Philox4x32-10 on uint32 word arrays (four counter words, two key words;
    key words may be scalars).  Returns the four output words."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for r in range(10):
        kr0 = k0 + np.uint32(r * _PHILOX_W[0] & 0xFFFFFFFF)  # wraps mod 2^32
        kr1 = k1 + np.uint32(r * _PHILOX_W[1] & 0xFFFFFFFF)
        p0 = np.multiply(c0, _PHILOX_M[0], dtype=np.uint64).view(np.uint32)
        p1 = np.multiply(c2, _PHILOX_M[1], dtype=np.uint64).view(np.uint32)
        c0, c1, c2, c3 = p1[_HI::2] ^ c1 ^ kr0, p1[_LO::2], p0[_HI::2] ^ c3 ^ kr1, p0[_LO::2]
    return c0, c1, c2, c3


def _unit(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Uniform on [0, 1) from the top 53 of two 32-bit words."""
    x = (hi.astype(np.uint64) << 32) | lo
    return (x >> 11).astype(np.float64) * 2.0**-53


def _words(k: np.ndarray) -> list[np.ndarray]:
    """Low and high 32-bit words of uint64 ring indices (astype keeps the low 32 bits)."""
    return [k.astype(np.uint32), (k >> 32).astype(np.uint32)]


def ring_draws(
    seeds: np.ndarray, site_keys: np.ndarray, k0, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exp(1) gaps and bit uniforms of rings k0 .. k0+count-1 of each stream.

    ``seeds`` and ``site_keys`` are uint64 arrays naming one stream per row;
    ``k0`` is one first ring index for every row, or an array of one per row.
    Returns two (rows, count) float64 arrays.  Words 0-1 of block k give gap
    k, words 2-3 the uniform that decides bit k.
    """
    rows = seeds.size
    gaps = np.empty((rows, count))
    bits_u = np.empty((rows, count))
    k = np.arange(count, dtype=np.uint64)
    k0 = np.broadcast_to(np.asarray(k0, dtype=np.uint64), rows)
    row_words = [(a >> shift).astype(np.uint32) for a in (site_keys, seeds) for shift in (0, 32)]
    step = max(1, PHILOX_CHUNK // count)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        counter = _words((k0[lo:hi, None] + k).ravel())
        counter += [np.repeat(w[lo:hi], count) for w in row_words[:2]]
        key = [np.repeat(w[lo:hi], count) for w in row_words[2:]]
        w0, w1, w2, w3 = philox4x32(counter, key)
        gaps[lo:hi] = (-np.log1p(-_unit(w0, w1))).reshape(hi - lo, count)
        bits_u[lo:hi] = _unit(w2, w3).reshape(hi - lo, count)
    return gaps, bits_u
