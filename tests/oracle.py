"""References used only as test oracles.

``event_loop`` replays one replica's rings in global time order with one spin
table and returns what legality and spin-after each ring must have.  Ties in
time break by site order, as in the simulator.  ``oriented_path`` answers the
oriented-path lemma on one replica, site by site.  ``site_loop_rates`` builds the
exact rate matrix Q of a region site by site, and ``symmetrized`` conjugates
it by sqrt(mu) into S; `eastlab.exact` writes Q, -S and the killed operator
from one legal-flip pass instead.  ``philox4x32`` is Philox4x32-10 on 32-bit
word arrays, as Salmon et al. state it, and ``ring_blocks`` draws a stream's
blocks with it; `eastlab.streams` runs the same rounds on two packed 64-bit
lanes.  ``off_cone_history`` swaps a run's rings off a site's backward cone
for another run's, the perturbation that the cone tests hold the site against.
"""

import math
import sys
from itertools import product

import numpy as np
import scipy.sparse as sp

from eastlab.exact import ExactEngineError
from eastlab.lattice import bernoulli_weights, site_sub_e
from eastlab.sim import UNKNOWN, BatchLog

_PHILOX_M = (np.uint32(0xD2511F53), np.uint32(0xCD9E8D57))
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_LO, _HI = (0, 1) if sys.byteorder == "little" else (1, 0)  # 32-bit halves of a uint64


def philox4x32(counter: tuple, key: tuple) -> tuple:
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


def unit(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Uniform on [0, 1) from the top 53 of two 32-bit words."""
    x = (hi.astype(np.uint64) << 32) | lo
    return (x >> 11).astype(np.float64) * 2.0**-53


def words(k: np.ndarray) -> list:
    """Low and high 32-bit words of uint64 values (astype keeps the low 32 bits)."""
    return [k.astype(np.uint32), (k >> 32).astype(np.uint32)]


def ring_blocks(seeds, site_keys, k0, count):
    """Output words w0 .. w3 of blocks k0 .. k0+count-1 of each stream, each
    (rows, count): block k has counter words (k, site key) and key words
    (seed), low word first.  Words 0-1 give ring k's gap uniform and words
    2-3 the uniform that decides its bit."""
    rows = seeds.size
    k = np.broadcast_to(np.asarray(k0, dtype=np.uint64), rows)[:, None] + np.arange(count, dtype=np.uint64)
    counter = words(k.ravel()) + [np.repeat(w, count) for w in words(site_keys)]
    out = philox4x32(counter, [np.repeat(w, count) for w in words(seeds)])
    return [w.reshape(rows, count) for w in out]


def event_loop(batch, r):
    """(legal, spin_after) per window site, aligned with ``batch.rings(r, x)``.
    In a batch ``within`` a larger window, the larger window's other sites
    read UNKNOWN, and so does the legality of a ring whose neighbors are not
    certainly 0 but include an UNKNOWN."""
    params, rule = batch.params, batch.rule
    sites = batch.window.sites
    n = len(sites)
    index = {x: i for i, x in enumerate(sites)}

    # neighbor slot table; slot n holds the frozen exterior spin, slot n + 1
    # UNKNOWN, slots beyond it hold exterior override spins
    extra_spins: list[int] = []
    override_slot: dict = {}
    nbrs: list[tuple[int, ...]] = []
    for x in sites:
        row = []
        for i in range(params.d):
            y = site_sub_e(x, i)
            j = index.get(y)
            if j is None:
                if batch.within is not None and y in batch.within:
                    j = n + 1
                elif y in rule.overrides:
                    if y not in override_slot:
                        override_slot[y] = n + 2 + len(extra_spins)
                        extra_spins.append(rule.overrides[y])
                    j = override_slot[y]
                else:
                    j = n
            row.append(j)
        nbrs.append(tuple(row))

    rings = [batch.rings(r, x) for x in sites]
    times = np.concatenate([r[0] for r in rings])
    ev_site = np.concatenate([np.full(r[0].size, i) for i, r in enumerate(rings)])
    ev_bit = np.concatenate([r[1] for r in rings])
    ev_pos = np.concatenate([np.arange(r[0].size) for r in rings])
    order = np.argsort(times, kind="stable")

    spins = batch.init[r * n:(r + 1) * n].tolist() + [rule.spin, UNKNOWN] + extra_spins
    legal = [np.zeros(r[0].size, dtype=np.int8) for r in rings]
    after = [np.zeros(r[0].size, dtype=np.int8) for r in rings]
    for k in order:
        si, bit = int(ev_site[k]), int(ev_bit[k])
        near = [spins[j] for j in nbrs[si]]
        ok = 1 if 0 in near else UNKNOWN if UNKNOWN in near else 0
        if ok == 1:
            spins[si] = bit
        elif ok == UNKNOWN and spins[si] != bit:
            spins[si] = UNKNOWN
        legal[si][ev_pos[k]] = ok
        after[si][ev_pos[k]] = spins[si]
    return legal, after


def off_cone_history(base, other, x):
    """The batch of one that starts from ``base``'s spins, with ``base``'s ring
    times and bits at the sites of x's backward cone {y <= x} and ``other``'s
    at every other window site, swept afresh by the public constructor."""
    rings = [(base if all(a <= b for a, b in zip(y, x)) else other).rings(0, y)[:2]
             for y in base.window.sites]
    offsets = np.cumsum([0] + [t.size for t, _ in rings])
    times, bits = (np.concatenate(col) for col in zip(*rings))
    return BatchLog(base.params, base.rule, base.initial(0).spins, base.horizon, base.seeds,
                    offsets, times, bits)


def oriented_path(batch, k, t, alpha, x):
    """(applicable, hypothesis held, found, path length) of the oriented-path
    lemma on replica k of the batch.  From x, grow the sites reachable by -e_i
    steps inside E one step at a time; the first step that meets D's outer
    layer gives the length of a shortest path."""
    d = batch.params.d
    r = math.floor(2 * d * alpha * t)
    half = t / 2
    box = list(product(range(-r, 1), repeat=d))
    spin0 = dict(zip(batch.window.sites, batch.initial(k).spins))

    def stayed_at_zero(y):
        times, _, _, after = batch.rings(k, y)
        return spin0[y] == 0 and not after[times <= half].any()

    E = {y for y in box if batch.first_update_time(y)[k] <= half}
    applicable = spin0[x] == 0
    held = applicable and not any(stayed_at_zero(y) for y in box)
    reached = {x} & E if held else set()
    for steps in range(d * r + 1):
        if any(min(y) == -r for y in reached):
            return applicable, held, True, steps + 1
        reached = {site_sub_e(y, i) for y in reached for i in range(d)} & E
    return applicable, held, False, 0


def site_loop_rates(region, boundary, p):
    """Rate matrix Q of the East dynamics on the region's 2^n bitmask states
    (bit i = spin of the i-th site in sorted order), one site at a time."""
    sites = tuple(sorted(region.sites))
    d = len(sites[0])
    dim = 1 << len(sites)
    index = {x: i for i, x in enumerate(sites)}
    states = np.arange(dim, dtype=np.int64)
    rows, cols, vals = [], [], []
    diag = np.zeros(dim)
    for i, x in enumerate(sites):
        cons = np.zeros(dim, dtype=bool)
        for j in range(d):
            y = site_sub_e(x, j)
            if y in index:
                cons |= ((states >> index[y]) & 1) == 0
            elif y in boundary:
                if boundary[y] == 0:
                    cons[:] = True
            else:
                raise ExactEngineError(f"missing boundary assignment for {y}")
        bit = (states >> i) & 1
        rate = np.where(bit == 0, p, 1.0 - p)
        rows.append(states[cons])
        cols.append(states[cons] ^ (1 << i))
        vals.append(rate[cons])
        diag[cons] -= rate[cons]
    rows.append(states)
    cols.append(states)
    vals.append(diag)
    Q = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    return Q.tocsr()


def symmetrized(rates, p):
    """S = (D Q D^-1 + its transpose) / 2 with D = diag(sqrt(mu)), mu the
    product Bernoulli(p) weights."""
    sq = np.sqrt(bernoulli_weights(rates.shape[0].bit_length() - 1, p))
    S = sp.diags(sq) @ rates @ sp.diags(1.0 / sq)
    return ((S + S.T) * 0.5).tocsr()
