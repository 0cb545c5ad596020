"""Graphical construction of the East dynamics, swept hyperplane by hyperplane.

Each window site rings at rate 1; every ring draws an independent Bernoulli(p)
bit.  The spin is replaced by the bit iff some neighbor x - e_i carries spin 0
at that instant (frozen exterior spins where neighbors leave the window).

The constraint at x reads only the sites x - e_i, which lie on the diagonal
hyperplane just before x's.  The trajectories on hyperplane H_k are therefore
a function of those on H_{k-1} and of H_k's own rings, and the simulation runs
as one vectorized pass per hyperplane over every replica and every site of
H_k at once.  The full ring history (legal and illegal) is kept per site in
CSR form, indexed once per batch by exact time-rank keys that answer the
sweep's neighbor lookups, every log query and the CSV.  ``BatchLog``
is the one trajectory type; ``simulate`` returns a batch of one replica.
"""

from __future__ import annotations

import json
import math
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .lattice import Configuration, Exterior, ModelParams, Site, Window
from .streams import STREAM_VERSION, ring_draws

MAX_HORIZON = 1e9
# One replica's peak RSS grew by 65-82 bytes per ring slot (1-d and 2-d
# windows of 1e6-2e6 slots, every summary built; numpy 2.4, x86-64), so a
# replica at the cap needs about 1.4 GB.
MAX_REPLICA_RING_SLOTS = 1 << 24


class SimulationError(ValueError):
    pass


def ring_block(horizon: float) -> int:
    """Rings drawn per site in a pass; the few sites that need more draw
    another pass.  Raises SimulationError on a horizon outside [0, MAX_HORIZON],
    NaN included."""
    if not 0 <= horizon <= MAX_HORIZON:
        why = f"capped at {MAX_HORIZON:g}" if horizon > MAX_HORIZON else "must be >= 0"
        raise SimulationError(f"horizon {why}, got {horizon}")
    return int(horizon + math.sqrt(horizon)) + 2


def replica_ring_slots(window: Window, horizon: float) -> int:
    """Ring slots one replica draws in its first pass: window sites x
    ring_block(horizon).  Raises SimulationError above MAX_REPLICA_RING_SLOTS."""
    sites, block = window.site_count(), ring_block(horizon)
    if sites * block > MAX_REPLICA_RING_SLOTS:
        raise SimulationError(
            f"{sites} window sites x {block} ring slots per site exceed the "
            f"{MAX_REPLICA_RING_SLOTS} ring slots one replica may use"
        )
    return sites * block


class _Geometry(NamedTuple):
    """Window facts shared by every batch on that window."""

    coords: np.ndarray  # (d, n) offsets from the window's lower corner
    strides: tuple[int, ...]  # row distance to x - e_i
    plane: np.ndarray  # hyperplane index (coordinate-sum offset) per site, smallest uint
    boundary: tuple[np.ndarray, ...]  # per axis i, the sites whose x - e_i leaves the window


@lru_cache(maxsize=8)
def _geometry(window: Window) -> _Geometry:
    extent = [hi - lo + 1 for lo, hi in zip(window.lower, window.upper)]
    coords = np.indices(extent).reshape(window.d, -1)
    return _Geometry(
        coords=coords,
        strides=tuple(math.prod(extent[i + 1:]) for i in range(window.d)),
        plane=coords.sum(axis=0).astype(np.min_scalar_type(sum(extent))),
        boundary=tuple(np.flatnonzero(c == 0) for c in coords),
    )


def _ring_times(seeds: np.ndarray, keys: np.ndarray, p: float, start: float, horizon: float,
                k_first: np.ndarray, base: np.ndarray):
    """CSR offsets, times and bits of each stream's rings on (start, horizon].

    Stream r's first ring after ``start`` is ring ``k_first[r]``, and
    ``base[r]`` is the time of the ring before it (0 before ring 0).  Times
    are sequential cumulative sums of the gaps from there, so ring k's time
    does not depend on how many rings a pass draws, nor on where an earlier
    batch stopped.  Every pass is ring_block(horizon - start) wide and starts
    each stream at its next ring.  A stream enters another pass only if all
    its drawn rings fell inside the horizon, so its rings of pass j land j x
    width after its offset.  A pass is ring-major, (width, rows): its
    cumulative sum runs down axis 0, one add per ring for all rows at once,
    which are the same sequential sums as row by row.  The first pass fills
    every slot that no later pass fills, so it needs no index array.
    """
    n = seeds.size
    width = ring_block(horizon - start)
    rows, last = np.arange(n), base
    counts = np.zeros(n, dtype=np.int64)
    passes = []
    while rows.size:
        times, bits = ring_draws(seeds[rows], keys[rows], k_first[rows] + len(passes) * width, width, p)
        times[0] += last
        np.cumsum(times, axis=0, out=times)
        inside = times <= horizon
        per_row = inside.sum(axis=0)
        counts[rows] += per_row
        passes.append((rows, times, bits, inside, per_row))
        rows, last = rows[inside[-1]], times[-1, inside[-1]]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    out_t = np.empty(offsets[-1])
    out_b = np.empty(offsets[-1], dtype=np.int8)
    first = np.ones(offsets[-1], dtype=bool)  # the slots no later pass fills
    for j, (rows, times, bits, inside, per_row) in enumerate(passes[1:], 1):
        dest = _ranges(offsets[rows] + j * width, per_row)
        first[dest] = False
        out_t[dest] = times.T[inside.T]  # row by row, as the CSR wants
        out_b[dest] = bits.T[inside.T]
    _, times, bits, inside, _ = passes[0]
    out_t[first] = times.T[inside.T]
    out_b[first] = bits.T[inside.T]
    return offsets, out_t, out_b


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + lengths[i] - 1, concatenated."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


def _frozen_zero(rule: Exterior, boundary: tuple[np.ndarray, ...]) -> np.ndarray:
    """Per window site: some neighbor outside the window is frozen at 0."""
    window = rule.window
    row = np.zeros(window.site_count(), dtype=bool)
    for i, sites in enumerate(boundary):
        zero = np.full(sites.size, rule.spin == 0)
        for y, s in rule.overrides.items():
            x = tuple(c + (k == i) for k, c in enumerate(y))  # y = x - e_i
            if x in window:
                zero[sites.searchsorted(window.index(x))] = s == 0
        row[sites] |= zero
    return row


def _rank_keys(offsets: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Increasing integer keys row * m + rank of the m rings, and their sorted
    times; rank orders all ring times of the batch (ties: lower row first, as
    in a time-ordered event loop that breaks ties by site order)."""
    m = times.size
    order = np.argsort(times)
    ordered = times[order]
    if (ordered[1:] == ordered[:-1]).any():  # only ties need the slower stable sort
        order = np.argsort(times, kind="stable")
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m)
    return np.repeat(np.arange(offsets.size - 1) * m, np.diff(offsets)) + rank, ordered


def _last_ring(key: np.ndarray, offsets: np.ndarray, rows: np.ndarray, rank) -> tuple:
    """Index of each row's last ring ranked below ``rank``, and whether one
    exists; rings at or before t rank below searchsorted(ordered, t, "right")."""
    pos = key.searchsorted(rows * key.size + rank)
    return pos - 1, pos > offsets[rows]


def _sweep(geo: _Geometry, init, free, offsets, bits, key):
    """Legality and spin after each ring, one hyperplane at a time.  A ring's
    neighbor spin is the spin after the neighbor's last ring ranked below it.

    ``buf`` holds, per row, the initial spin and then the spin after each
    ring, and last a sentinel spin 1.  The neighbor row's rings ranked below a
    ring end just before the searchsorted position of key - stride * m, so
    that position plus the neighbor row is its entry in ``buf``: the initial
    spin if there is none.  These slots depend on the keys alone, so before
    the sweep each axis finds them for the whole batch, in one searchsorted
    over the rings whose neighbor lies in the window (the queries come
    sorted).  The other rings point at the sentinel; ``free`` already holds
    the frozen zeros there."""
    m, n_rows = key.size, init.size
    sentinel = m + n_rows
    row = key // m
    replicas = n_rows // geo.plane.size

    def per_ring(per_site):
        return np.tile(per_site, replicas)[row]

    buf = np.empty(sentinel + 1, dtype=np.int8)
    buf[offsets[:-1] + np.arange(n_rows)] = init
    buf[sentinel] = 1
    legal = per_ring(free)
    slots = []
    for i, stride in enumerate(geo.strides):
        inner = per_ring(geo.coords[i] > 0)
        pos = key[inner]
        pos -= stride * m
        pos = key.searchsorted(pos)
        pos += row[inner]
        pos -= stride
        # int32 slots while they fit: they set a small batch's peak memory
        nb = np.full(m, sentinel, dtype=np.int32 if sentinel < 2**31 else np.int64)
        nb[inner] = pos
        slots.append(nb)
    del inner, pos
    ring_plane = per_ring(geo.plane)
    by_plane = np.argsort(ring_plane, kind="stable")  # row order kept within a plane
    bounds = np.searchsorted(ring_plane[by_plane], np.arange(geo.plane.max() + 2))
    del ring_plane
    for k in range(geo.plane.max() + 1):
        sel = by_plane[bounds[k]:bounds[k + 1]]
        if sel.size == 0:
            continue
        rs = row[sel]
        ok = legal[sel]
        for nb in slots:
            ok |= buf[nb[sel]] == 0
        legal[sel] = ok
        # spin after a ring = bit of the row's last legal ring so far
        idx = np.arange(sel.size)
        last = np.where(ok, idx, -1)
        np.maximum.accumulate(last, out=last)
        first = idx - (sel - offsets[rs])
        buf[sel + rs + 1] = np.where(last >= first, bits[sel][last], init[rs])
    row += np.arange(1, m + 1)  # each ring's own entry in buf
    return legal, buf[row]


class BatchLog:
    """Ring histories of R replicas on one window, stored per (replica, site) row.

    Row r*n + i holds site i of replica r, which starts at spin ``init[row]``;
    every replica shares the exterior ``rule``.  A row's rings are
    ``times[offsets[row]:offsets[row + 1]]`` in increasing order, with the drawn
    bit, the legality and the spin after each ring.  Built on first use, per
    row: ``first_legal``, the first legal ring time (inf if none), and
    ``first_change``, the first time the spin leaves its initial value.
    ``key`` and the sorted ``ordered`` times (see ``_rank_keys``) are the one
    ring index: a query costs O(log M) per row.  The queries answer for every
    replica at once; ``initial``, ``rings`` and ``to_csv`` take a replica
    index r.

    The constructor sweeps the given rings (``offsets``, ``times``, ``bits``),
    which fall on (start, horizon], for legality and spins, from ``spins`` at
    ``start``: one row per seed, or one for all.  A batch that
    ``simulate_batch`` or ``resume`` made also keeps ``streams`` = (site keys,
    per row the index of its first ring after ``start`` and the time of the
    ring before it), 16 bytes per row, from which ``resume`` continues it.
    """

    def __init__(self, params: ModelParams, rule: Exterior, spins, horizon: float,
                 seeds: np.ndarray, offsets: np.ndarray, times: np.ndarray, bits: np.ndarray,
                 start: float = 0.0,
                 streams: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None):
        self.params, self.rule, self.window = params, rule, rule.window
        self.start, self.horizon, self.seeds = float(start), float(horizon), seeds
        self.offsets, self.times, self.bits = offsets, times, bits
        self.streams = streams
        geo = _geometry(self.window)
        self.n_sites = geo.plane.size
        shape = (seeds.size, self.n_sites)
        try:
            self.init = np.broadcast_to(np.asarray(spins, dtype=np.int8), shape).flatten()
        except ValueError:
            raise SimulationError("need one row of window spins per seed, or one row for all")
        if ((self.init != 0) & (self.init != 1)).any():
            raise SimulationError("spins must be 0 or 1")
        self.key, self.ordered = _rank_keys(offsets, times)
        free = _frozen_zero(rule, geo.boundary)
        self.legal, self.spin_after = _sweep(geo, self.init, free, offsets, bits, self.key)

    def __len__(self) -> int:
        return self.seeds.size

    @cached_property
    def first_legal(self) -> np.ndarray:
        return self._first_time(self.legal)

    @cached_property
    def first_change(self) -> np.ndarray:
        return self._first_time(self.spin_after != self.init[self.key // self.key.size])

    def _first_time(self, mask: np.ndarray) -> np.ndarray:
        out = np.full(self.init.size, np.inf)
        idx = np.flatnonzero(mask)
        r = self.key[idx] // self.key.size
        lead = np.diff(r, prepend=-1) != 0  # first masked ring of its row
        out[r[lead]] = self.times[idx[lead]]
        return out

    def resume(self, replicas, horizon: float) -> "BatchLog":
        """The given replicas continued from this batch's horizon to a later one.

        The new batch starts at this horizon from its final spins.  Each stream
        goes on from the ring after the last one this batch kept, drawn again
        from its counter, and its times continue the sum of gaps from that
        last ring's time.  So the new batch's rings, legality and spins on
        (start, horizon] are bit for bit those of one run of the same replicas
        to ``horizon``, and it can resume in turn.  Raises SimulationError on a
        batch replayed from CSV, replicas not distinct or not in the batch, or
        a horizon before this one.
        """
        if self.streams is None:
            raise SimulationError("only a simulated batch can resume")
        if not self.horizon <= horizon <= MAX_HORIZON:
            raise SimulationError(f"resume horizon must lie in [{self.horizon}, {MAX_HORIZON:g}]")
        replicas = np.asarray(replicas, dtype=np.int64).reshape(-1)
        if not (replicas.size and ((0 <= replicas) & (replicas < len(self))).all()
                and np.bincount(replicas).max() == 1):  # np.unique would import numpy.ma
            raise SimulationError("need distinct replica indices of the batch, at least one")
        replica_ring_slots(self.window, horizon - self.horizon)
        keys, k_first, base = self.streams
        rows = (replicas[:, None] * self.n_sites + np.arange(self.n_sites)).ravel()
        end = self.offsets[rows + 1]
        rung = end > self.offsets[rows]
        base = base[rows]
        base[rung] = self.times[end[rung] - 1]
        spins = self._final(rows).reshape(replicas.size, self.n_sites)
        return _run(self.params, self.rule, spins, self.seeds[replicas], keys, self.horizon,
                    horizon, k_first[rows] + end - self.offsets[rows], base)

    def _site(self, x: Site) -> int:
        if x not in self.window:
            raise SimulationError(f"site {x} outside window")
        return self.window.index(x)

    def _rows(self, x: Site) -> np.ndarray:
        return np.arange(len(self)) * self.n_sites + self._site(x)

    def _base(self, r: int) -> int:
        if not 0 <= r < len(self):
            raise SimulationError(f"replica {r} not in a batch of {len(self)}")
        return r * self.n_sites

    def spin_at_time(self, x: Site, s: float | Sequence[float]) -> np.ndarray:
        """Spin of x at time s in every replica; for a 1-d array of times, a
        (replicas, times) array.  Every time lies in [start, horizon]."""
        rows = self._rows(x)
        s = np.asarray(s, dtype=float)
        if s.ndim > 1:
            raise SimulationError(f"times must be one time or a 1-d array, got shape {s.shape}")
        outside = ~((self.start <= s) & (s <= self.horizon))  # NaN included
        if outside.any():
            raise SimulationError(f"time {s[outside][0]} outside [start, horizon]")
        if s.ndim:
            rows = rows[:, None]
        last, hit = _last_ring(self.key, self.offsets, rows, self.ordered.searchsorted(s, "right"))
        spins = np.broadcast_to(self.init[rows], hit.shape).copy()
        spins[hit] = self.spin_after[last[hit]]
        return spins

    def occupation_time(self, x: Site, t: float) -> np.ndarray:
        """Lebesgue time in [start, t] during which x has spin 0, per replica:
        the zero intervals between x's rings up to t, summed in ring order from
        0, then the interval from the last of them (or from start) to t."""
        rows = self._rows(x)
        if not (self.start <= t <= self.horizon):
            raise SimulationError(f"time {t} outside [start, horizon]")
        last, hit = _last_ring(self.key, self.offsets, rows, self.ordered.searchsorted(t, "right"))
        lo = self.offsets[rows]
        count = last + 1 - lo  # 0 where no ring: last is lo - 1 there
        j, replica = _ranges(lo, count), np.repeat(np.arange(len(self)), count)
        head = j == lo[replica]
        prev_t = np.where(head, self.start, self.times[j - 1])
        prev_s = np.where(head, self.init[rows][replica], self.spin_after[j - 1])
        occ = np.bincount(replica, np.where(prev_s == 0, self.times[j] - prev_t, 0.0), len(self))
        end_t, end_s = np.full(len(self), self.start), self.init[rows]
        end_t[hit], end_s[hit] = self.times[last[hit]], self.spin_after[last[hit]]
        return occ + (t - end_t) * (end_s == 0)

    def first_update_time(self, x: Site) -> np.ndarray:
        """Time of the first legal ring at x after start per replica, inf if none."""
        return self.first_legal[self._rows(x)]

    def updated_set(self, sites: Sequence[Site], deadline: float) -> np.ndarray:
        """(replicas, len(sites)) mask: site had a legal ring by the deadline."""
        rows = np.stack([self._rows(x) for x in sites], axis=1)
        if not deadline <= self.horizon:
            raise SimulationError(f"deadline {deadline} beyond horizon")
        return self.first_legal[rows] <= deadline

    def _final(self, rows: np.ndarray) -> np.ndarray:
        """Spin after each row's last ring, or its initial spin."""
        spins = self.init[rows]
        end = self.offsets[rows + 1]
        rung = end > self.offsets[rows]
        spins[rung] = self.spin_after[end[rung] - 1]
        return spins

    def final_spins(self) -> np.ndarray:
        """(replicas, sites) spins at the horizon."""
        return self._final(np.arange(self.init.size)).reshape(len(self), self.n_sites)

    def initial(self, r: int) -> Configuration:
        """Replica r's initial configuration: the exterior rule and its row."""
        base = self._base(r)
        return self.rule.configuration(self.init[base:base + self.n_sites])

    def rings(self, r: int, x: Site) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Replica r's ring times, bits, legality and spins after at x, in time order."""
        row = self._base(r) + self._site(x)
        s = slice(self.offsets[row], self.offsets[row + 1])
        return self.times[s], self.bits[s], self.legal[s], self.spin_after[s]

    def to_csv(self, r: int) -> str:
        """Replica r's event CSV: a JSON manifest line, then its rings in time order."""
        if self.start:
            raise SimulationError("a resumed batch's replicas have no event CSV")
        initial = self.initial(r)
        manifest = {
            "d": self.params.d,
            "p": self.params.p,
            "seed": int(self.seeds[r]),
            "horizon": self.horizon,
            "stream_version": STREAM_VERSION,
            "window_lower": list(self.window.lower),
            "window_upper": list(self.window.upper),
            "exterior": initial.exterior,
            "initial_spins": "".join(str(s) for s in initial.spins),
            "exterior_overrides": [
                [list(x), s] for x, s in sorted(initial.exterior_overrides.items())
            ],
        }
        lines = ["# " + json.dumps(manifest, sort_keys=True)]
        lines.append("site_coords,time,bit,legal,spin_after")
        # the replica's rings in time order, read off the batch's time ranks in O(M)
        base = self._base(r)
        lo, hi = self.offsets[base], self.offsets[base + self.n_sites]
        m = self.times.size
        slot = np.full(m, -1)
        slot[self.key[lo:hi] % m] = np.arange(lo, hi)
        order = slot[slot >= 0]
        sites = self.window.sites
        for s, t, b, l, a in zip(self.key[order] // m - base, self.times[order], self.bits[order],
                                 self.legal[order], self.spin_after[order]):
            coords = ";".join(str(c) for c in sites[s])
            lines.append(f"{coords},{t:.17g},{int(b)},{int(l)},{int(a)}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str) -> "BatchLog":
        """Replay a ``to_csv`` log's ring times and bits as a batch of one.  Raises
        SimulationError on a wrong column header, a site outside the window, ring
        times of a site not strictly increasing within (0, horizon], a bit not
        0/1, or ``legal``/``spin_after`` columns unlike the replay."""
        lines = text.splitlines()
        manifest = json.loads(lines[0].lstrip("# "))
        if lines[1:2] != ["site_coords,time,bit,legal,spin_after"]:
            raise SimulationError(f"unexpected event header {lines[1:2]}")
        params, horizon = ModelParams(manifest["d"], manifest["p"]), manifest["horizon"]
        window = Window(tuple(manifest["window_lower"]), tuple(manifest["window_upper"]))
        rule = Exterior(
            window, manifest["exterior"], {tuple(x): s for x, s in manifest["exterior_overrides"]}
        )
        rows = [ln.split(",") for ln in lines[2:] if ln.strip()]
        sites = [tuple(int(c) for c in r[0].split(";")) for r in rows]
        for x in sites:
            if x not in window:
                raise SimulationError(f"ring at site {x} outside window")
        site_idx = np.asarray([window.index(x) for x in sites], dtype=np.int64)
        cols = [np.asarray([r[k] for r in rows]) for k in range(1, 5)]
        order = np.argsort(site_idx, kind="stable")  # per site, in file order
        times = cols[0].astype(np.float64)[order]
        rising = (times[1:] > times[:-1]) | (site_idx[order][1:] != site_idx[order][:-1])
        if not (rising.all() and ((times > 0) & (times <= horizon)).all()):
            raise SimulationError("a site's ring times must strictly increase within (0, horizon]")
        bits, legal, spin_after = (c.astype(np.int8)[order] for c in cols[1:])
        if not np.isin(bits, (0, 1)).all():
            raise SimulationError("ring bits must be 0 or 1")
        offsets = np.zeros(window.site_count() + 1, dtype=np.int64)
        np.cumsum(np.bincount(site_idx, minlength=window.site_count()), out=offsets[1:])
        spins = [int(c) for c in manifest["initial_spins"]]
        seeds = np.array([manifest["seed"]], dtype=np.uint64)
        batch = BatchLog(params, rule, spins, horizon, seeds, offsets, times, bits)
        if (legal != batch.legal).any() or (spin_after != batch.spin_after).any():
            raise SimulationError("legal or spin_after column differs from the replayed rings")
        return batch


def simulate_batch(
    params: ModelParams, rule: Exterior, spins, horizon: float, seeds: Sequence[int]
) -> BatchLog:
    """Run the graphical construction for replica r = (spins[r], seeds[r])
    under one exterior rule.

    ``spins`` holds 0/1 window spins in ``rule.window.sites`` order: one row
    per seed, or a single row that every replica starts from.  Deterministic
    per replica: replica r's history depends on its own (params, rule, spins,
    horizon, seed) only, never on the rest of the batch.  A replica over
    MAX_REPLICA_RING_SLOTS raises before any per-site array.
    """
    window = rule.window
    if window.d != params.d:
        raise SimulationError("window dimension does not match params.d")
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    if seeds.size == 0:
        raise SimulationError("need at least one seed")
    replica_ring_slots(window, horizon)
    keys = window.site_keys
    rows = seeds.size * keys.size
    return _run(params, rule, spins, seeds, keys, 0.0, horizon, np.zeros(rows, dtype=np.int64),
                np.zeros(rows))


def _run(params: ModelParams, rule: Exterior, spins, seeds: np.ndarray, keys: np.ndarray,
         start: float, horizon: float, k_first: np.ndarray, base: np.ndarray) -> BatchLog:
    """Draw the rings of every (seed, site key) stream on (start, horizon],
    from ring ``k_first`` after time ``base`` per row, and sweep them."""
    offsets, times, bits = _ring_times(np.repeat(seeds, keys.size), np.tile(keys, seeds.size),
                                       params.p, start, horizon, k_first, base)
    return BatchLog(params, rule, spins, horizon, seeds, offsets, times, bits, start,
                    (keys, k_first, base))


def simulate(params: ModelParams, initial: Configuration, horizon: float, seed: int) -> BatchLog:
    """``simulate_batch`` for the one replica (initial, seed): a batch of one."""
    return simulate_batch(params, initial.rule, initial.spins, horizon, [seed])
