"""Graphical construction of the East dynamics, swept hyperplane by hyperplane.

Each window site rings at rate 1; every ring draws an independent Bernoulli(p)
bit.  The spin is replaced by the bit iff some neighbor x - e_i carries spin 0
at that instant (frozen exterior spins where neighbors leave the window).

The constraint at x reads only the sites x - e_i, which lie on the diagonal
hyperplane just before x's.  The trajectories on hyperplane H_k are therefore
a function of those on H_{k-1} and of H_k's own rings, and the simulation runs
as one vectorized pass per hyperplane over every replica and every site of
H_k at once.  The full ring history (legal and illegal) is kept per site in
CSR form; the time-sorted view is derived only for ``records`` and CSV.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .lattice import Configuration, ModelParams, Region, Site, Window, site_sub_e
from .streams import STREAM_VERSION, ring_draws, site_key

MAX_HORIZON = 1e9


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class RingRecord:
    site: Site
    time: float
    bit: int
    legal: bool
    spin_after: int


def ring_block(horizon: float) -> int:
    """Rings drawn per site in a pass; the few sites that need more draw
    another pass."""
    return int(horizon + math.sqrt(horizon)) + 2


class _Geometry(NamedTuple):
    """Window facts shared by every batch on that window."""

    keys: np.ndarray  # unsalted stream key per site
    coords: np.ndarray  # (d, n) offsets from the window's lower corner
    strides: tuple[int, ...]  # row distance to x - e_i
    plane: np.ndarray  # hyperplane index (coordinate-sum offset) per site, smallest uint
    edge: tuple[tuple[int, Site], ...]  # (site index, neighbor outside the window)


@lru_cache(maxsize=8)
def _geometry(window: Window) -> _Geometry:
    extent = [hi - lo + 1 for lo, hi in zip(window.lower, window.upper)]
    coords = np.indices(extent).reshape(window.d, -1)
    edge = tuple(
        (i, site_sub_e(x, k))
        for i, x in enumerate(window.sites)
        for k in range(window.d)
        if x[k] == window.lower[k]
    )
    return _Geometry(
        keys=np.array([site_key(x) for x in window.sites], dtype=np.uint64),
        coords=coords,
        strides=tuple(math.prod(extent[i + 1:]) for i in range(window.d)),
        plane=coords.sum(axis=0).astype(np.min_scalar_type(sum(extent))),
        edge=edge,
    )


def _ring_times(seeds: np.ndarray, keys: np.ndarray, horizon: float, p: float):
    """CSR offsets, times and bits of each stream's rings on (0, horizon].

    Times are sequential cumulative sums of the gaps, so ring k's time does not
    depend on how many rings a pass draws.  A stream enters pass j only if all
    its earlier rings fell inside the horizon, so pass j's rings start at its
    offset + j * width.
    """
    width = ring_block(horizon)
    passes = []
    rows = np.arange(seeds.size)
    last = np.zeros(seeds.size)
    while rows.size:
        gaps, bit_u = ring_draws(seeds[rows], keys[rows], len(passes) * width, width)
        gaps[:, 0] += last
        times = np.cumsum(gaps, axis=1)
        passes.append((rows, times, bit_u))
        full = times[:, -1] <= horizon
        rows, last = rows[full], times[full, -1]
    counts = np.zeros(seeds.size, dtype=np.int64)
    for rows, times, _ in passes:
        counts[rows] += (times <= horizon).sum(axis=1)
    offsets = np.zeros(seeds.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    out_t = np.empty(offsets[-1])
    out_b = np.empty(offsets[-1], dtype=np.int8)
    for j, (rows, times, bit_u) in enumerate(passes):
        r, c = np.nonzero(times <= horizon)
        dest = offsets[rows[r]] + j * width + c
        out_t[dest] = times[r, c]
        out_b[dest] = bit_u[r, c] < p
    return offsets, out_t, out_b


def _frozen_zero(initials: Sequence[Configuration], edge) -> np.ndarray:
    """Per (replica, site) row: some neighbor outside the window is frozen at 0."""
    n = initials[0].window.site_count()
    by_exterior: dict = {}
    parts = []
    for c in initials:
        tag = (c.exterior, tuple(sorted(c.exterior_overrides.items())))
        row = by_exterior.get(tag)
        if row is None:
            row = np.zeros(n, dtype=bool)
            for i, y in edge:
                row[i] |= c.spin_at(y) == 0
            by_exterior[tag] = row
        parts.append(row)
    return np.concatenate(parts)


def _sweep(geo: _Geometry, init, free, offsets, times, bits):
    """Legality and spin after each ring, one hyperplane at a time.

    A ring's neighbor spin is the spin after the neighbor's last ring at or
    before it.  Rings are located by exact integer keys row * m + rank, where
    rank orders all m ring times of the batch (ties: lower row first, as in a
    time-ordered event loop that breaks ties by site order).
    """
    n = geo.plane.size
    m = times.size
    row = np.repeat(np.arange(init.size), np.diff(offsets))
    site = row % n
    order = np.argsort(times)
    ordered = times[order]
    if (ordered[1:] == ordered[:-1]).any():  # only ties need the slower stable sort
        order = np.argsort(times, kind="stable")
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m)
    key = row * m + rank

    legal = free[row]
    spin_after = np.empty(m, dtype=np.int8)
    ring_plane = geo.plane[site]
    by_plane = np.argsort(ring_plane, kind="stable")  # row order kept within a plane
    bounds = np.searchsorted(ring_plane[by_plane], np.arange(geo.plane.max() + 2))
    for k in range(geo.plane.max() + 1):
        sel = by_plane[bounds[k]:bounds[k + 1]]
        if sel.size == 0:
            continue
        rs = row[sel]
        ss = site[sel]
        ok = legal[sel]
        for i, stride in enumerate(geo.strides):
            inner = geo.coords[i][ss] > 0
            nb = rs[inner] - stride
            pos = np.searchsorted(key, nb * m + rank[sel[inner]], side="right")
            nb_spin = np.where(pos > offsets[nb], spin_after[pos - 1], init[nb])
            ok[inner] |= nb_spin == 0
        legal[sel] = ok
        # spin after a ring = bit of the row's last legal ring so far
        idx = np.arange(sel.size)
        last = np.where(ok, idx, -1)
        np.maximum.accumulate(last, out=last)
        first = idx - (sel - offsets[rs])
        spin_after[sel] = np.where(last >= first, bits[sel][last], init[rs])
    return legal, spin_after


class BatchLog:
    """Ring histories of R replicas on one window, stored per (replica, site) row.

    Row r*n + i holds site i of replica r.  Its rings are
    ``times[offsets[row]:offsets[row + 1]]`` in increasing order, with the drawn
    bit, the legality and the spin after each ring.  Per ring, ``zero_time`` is
    the time the site spent at 0 on [0, ring time]; per row, ``first_legal`` is
    the first legal ring time and ``first_change`` the first time the spin
    leaves its initial value (inf if none).  Queries on one replica go through
    ``log(r)``; the methods here answer them for all replicas at once.
    """

    def __init__(
        self,
        params: ModelParams,
        initials: Sequence[Configuration],
        horizon: float,
        seeds: Sequence[int],
        offsets: np.ndarray,
        times: np.ndarray,
        bits: np.ndarray,
        legal: np.ndarray,
        spin_after: np.ndarray,
    ):
        self.params = params
        self.initials = list(initials)
        self.window = self.initials[0].window
        self.horizon = float(horizon)
        self.seeds = [int(s) for s in seeds]
        self.n_sites = self.window.site_count()
        self.offsets = offsets
        self.times = times
        self.bits = bits
        self.legal = legal
        self.spin_after = spin_after
        self.init = np.array([c.spins for c in self.initials], dtype=np.int8).reshape(-1)
        self._summarize()

    def __len__(self) -> int:
        return len(self.initials)

    def _summarize(self) -> None:
        rows, m = self.init.size, self.times.size
        counts = np.diff(self.offsets)
        row = np.repeat(np.arange(rows), counts)
        col = np.arange(m) - self.offsets[row]
        head = col == 0
        prev_t = np.where(head, 0.0, self.times[np.maximum(np.arange(m) - 1, 0)])
        prev_s = np.where(head, self.init[row], self.spin_after[np.arange(m) - 1])
        # per-row sequential cumulative sum, so a row's value ignores its batch
        padded = np.zeros((rows, int(counts.max(initial=0))))
        padded[row, col] = np.where(prev_s == 0, self.times - prev_t, 0.0)
        np.cumsum(padded, axis=1, out=padded)
        self.zero_time = padded[row, col]
        self.first_legal = self._first_time(row, self.legal)
        self.first_change = self._first_time(row, self.spin_after != self.init[row])

    def _first_time(self, row: np.ndarray, mask: np.ndarray) -> np.ndarray:
        out = np.full(self.init.size, np.inf)
        idx = np.flatnonzero(mask)
        r = row[idx]
        lead = np.ones(idx.size, dtype=bool)
        lead[1:] = r[1:] != r[:-1]
        out[r[lead]] = self.times[idx[lead]]
        return out

    def log(self, r: int) -> "EventLog":
        return EventLog(self, r)

    def _rows(self, x: Site) -> np.ndarray:
        if x not in self.window:
            raise SimulationError(f"site {x} outside window")
        return np.arange(len(self)) * self.n_sites + self.window.index(x)

    def _last_ring(self, rows: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Index of each row's last ring at or before t, and whether one exists."""
        lo = self.offsets[rows]
        lens = self.offsets[rows + 1] - lo
        seg = np.repeat(np.arange(rows.size), lens)
        ring = lo[seg] + np.arange(seg.size) - np.repeat(np.cumsum(lens) - lens, lens)
        count = np.bincount(seg[self.times[ring] <= t], minlength=rows.size)
        return lo + count - 1, count > 0

    def spin_at_time(self, x: Site, s: float) -> np.ndarray:
        """Spin of x at time s in every replica."""
        if not (0 <= s <= self.horizon):
            raise SimulationError(f"time {s} outside [0, horizon]")
        rows = self._rows(x)
        return self._spins(rows, *self._last_ring(rows, s))

    def occupation_time(self, x: Site, t: float) -> np.ndarray:
        """Lebesgue time in [0, t] during which x has spin 0, per replica."""
        if t > self.horizon:
            raise SimulationError(f"time {t} beyond horizon")
        rows = self._rows(x)
        last, any_ring = self._last_ring(rows, t)
        occ = t * (self.init[rows] == 0)
        j = last[any_ring]
        occ[any_ring] = self.zero_time[j] + (t - self.times[j]) * (self.spin_after[j] == 0)
        return occ

    def first_update_time(self, x: Site) -> np.ndarray:
        """Time of the first legal ring at x per replica, inf if none."""
        return self.first_legal[self._rows(x)]

    def updated_set(self, sites: Sequence[Site], deadline: float) -> np.ndarray:
        """(replicas, len(sites)) mask: site had a legal ring by the deadline."""
        if deadline > self.horizon:
            raise SimulationError("deadline beyond horizon")
        rows = np.stack([self._rows(x) for x in sites], axis=1)
        return self.first_legal[rows] <= deadline

    def _spins(self, rows: np.ndarray, last: np.ndarray, any_ring: np.ndarray) -> np.ndarray:
        """Spin after ring ``last`` of each row, or its initial spin if it has none."""
        spins = self.init[rows]
        spins[any_ring] = self.spin_after[last[any_ring]]
        return spins

    def _final(self, rows: np.ndarray) -> np.ndarray:
        ends = self.offsets[rows + 1]
        return self._spins(rows, ends - 1, ends > self.offsets[rows])

    def final_spins(self) -> np.ndarray:
        """(replicas, sites) spins at the horizon."""
        return self._final(np.arange(self.init.size)).reshape(len(self), self.n_sites)


class EventLog:
    """Immutable record of one realized trajectory up to a horizon: replica r
    of a BatchLog.  Per-site queries cost O(log m_x) in the site's ring count."""

    def __init__(self, batch: BatchLog, r: int):
        self._batch = batch
        self._base = r * batch.n_sites
        self.params = batch.params
        self.initial = batch.initials[r]
        self.window = batch.window
        self.horizon = batch.horizon
        self.seed = batch.seeds[r]

    def _row(self, x: Site) -> int:
        if x not in self.window:
            raise SimulationError(f"site {x} outside window")
        return self._base + self.window.index(x)

    def _span(self) -> slice:
        off = self._batch.offsets
        return slice(off[self._base], off[self._base + self.window.site_count()])

    def rings(self, x: Site) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Ring times, bits, legality and spin after each ring at x, in time order."""
        row = self._row(x)
        b = self._batch
        s = slice(b.offsets[row], b.offsets[row + 1])
        return b.times[s], b.bits[s], b.legal[s], b.spin_after[s]

    def _time_order(self):
        """Time-sorted (site index, time, bit, legal, spin after) arrays."""
        b, s = self._batch, self._span()
        n = self.window.site_count()
        site = np.repeat(np.arange(n), np.diff(b.offsets[self._base:self._base + n + 1]))
        order = np.argsort(b.times[s], kind="stable")  # ties break by site order
        return (site[order], b.times[s][order], b.bits[s][order], b.legal[s][order],
                b.spin_after[s][order])

    @property
    def records(self) -> list[RingRecord]:
        sites = self.window.sites
        return [
            RingRecord(sites[s], float(t), int(b), bool(l), int(a))
            for s, t, b, l, a in zip(*self._time_order())
        ]

    def __len__(self) -> int:
        s = self._span()
        return int(s.stop - s.start)

    def n_legal(self) -> int:
        return int(self._batch.legal[self._span()].sum())

    def _last_ring(self, row: int, t: float) -> Optional[int]:
        b = self._batch
        lo = b.offsets[row]
        j = lo + int(np.searchsorted(b.times[lo:b.offsets[row + 1]], t, side="right"))
        return j - 1 if j > lo else None

    def spin_at_time(self, x: Site, s: float) -> int:
        """Spin of x at time s: initial spin modified by legal rings up to s."""
        row = self._row(x)
        if not (0 <= s <= self.horizon):
            raise SimulationError(f"time {s} outside [0, horizon]")
        j = self._last_ring(row, s)
        return int(self._batch.init[row] if j is None else self._batch.spin_after[j])

    def occupation_time(self, x: Site, t: float) -> float:
        """Lebesgue time in [0, t] during which x has spin 0."""
        if t > self.horizon:
            raise SimulationError(f"time {t} beyond horizon")
        row = self._row(x)
        b = self._batch
        j = self._last_ring(row, t)
        if j is None:
            return float(t * (b.init[row] == 0))
        return float(b.zero_time[j] + (t - b.times[j]) * (b.spin_after[j] == 0))

    def first_update_time(self, x: Site) -> Optional[float]:
        """Time of the first legal ring at x, or None."""
        tau = self._batch.first_legal[self._row(x)]
        return None if tau == np.inf else float(tau)

    def stays_at(self, x: Site, spin: int, until: float) -> bool:
        """Spin of x equal to ``spin`` on all of [0, until]."""
        row = self._row(x)
        return bool(self._batch.init[row] == spin and self._batch.first_change[row] > until)

    def updated_set(self, region: Region, deadline: float) -> set[Site]:
        """Region sites with at least one legal ring at time <= deadline."""
        if deadline > self.horizon:
            raise SimulationError("deadline beyond horizon")
        first = self._batch.first_legal
        return {x for x in region.sites if x in self.window and first[self._row(x)] <= deadline}

    def final_spins(self) -> tuple[int, ...]:
        rows = self._base + np.arange(self.window.site_count())
        return tuple(int(v) for v in self._batch._final(rows))

    # --- serialization ----------------------------------------------------

    def to_csv(self) -> str:
        manifest = {
            "d": self.params.d,
            "p": self.params.p,
            "seed": self.seed,
            "horizon": self.horizon,
            "stream_version": STREAM_VERSION,
            "window_lower": list(self.window.lower),
            "window_upper": list(self.window.upper),
            "exterior": self.initial.exterior,
            "initial_spins": "".join(str(s) for s in self.initial.spins),
            "exterior_overrides": [
                [list(x), s] for x, s in sorted(self.initial.exterior_overrides.items())
            ],
        }
        lines = ["# " + json.dumps(manifest, sort_keys=True)]
        lines.append("site_coords,time,bit,legal,spin_after")
        sites = self.window.sites
        for s, t, b, l, a in zip(*self._time_order()):
            coords = ";".join(str(c) for c in sites[s])
            lines.append(f"{coords},{t:.17g},{int(b)},{int(l)},{int(a)}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str) -> "EventLog":
        lines = text.splitlines()
        manifest = json.loads(lines[0].lstrip("# "))
        params = ModelParams(manifest["d"], manifest["p"])
        window = Window(tuple(manifest["window_lower"]), tuple(manifest["window_upper"]))
        overrides = {tuple(x): s for x, s in manifest["exterior_overrides"]}
        initial = Configuration(
            window,
            tuple(int(c) for c in manifest["initial_spins"]),
            manifest["exterior"],
            overrides,
        )
        rows = [ln.split(",") for ln in lines[2:] if ln.strip()]
        site_idx = np.asarray(
            [window.index(tuple(int(c) for c in r[0].split(";"))) for r in rows], dtype=np.int64
        )
        cols = [np.asarray([r[k] for r in rows]) for k in range(1, 5)]
        order = np.argsort(site_idx, kind="stable")  # per site, still in time order
        offsets = np.zeros(window.site_count() + 1, dtype=np.int64)
        np.cumsum(np.bincount(site_idx, minlength=window.site_count()), out=offsets[1:])
        batch = BatchLog(
            params,
            [initial],
            manifest["horizon"],
            [manifest["seed"]],
            offsets,
            cols[0].astype(np.float64)[order],
            cols[1].astype(np.int8)[order],
            cols[2].astype(np.int8)[order].astype(bool),
            cols[3].astype(np.int8)[order],
        )
        return batch.log(0)


def simulate_batch(
    params: ModelParams,
    initials: Sequence[Configuration],
    horizon: float,
    seeds: Sequence[int],
    stream_salts: Optional[Mapping[Site, int]] = None,
) -> BatchLog:
    """Run the graphical construction for replica r = (initials[r], seeds[r]).

    Deterministic per replica: replica r's history depends on its own
    (params, initial, horizon, seed) only, never on the rest of the batch.
    ``stream_salts`` re-keys the clock/bit streams of selected sites in every
    replica (used by the dependence-cone diagnostics); unlisted sites are
    unaffected.
    """
    if horizon < 0:
        raise SimulationError("horizon must be >= 0")
    if horizon > MAX_HORIZON:
        raise SimulationError(f"horizon capped at {MAX_HORIZON:g}")
    initials = list(initials)
    if not initials or len(seeds) != len(initials):
        raise SimulationError("need one seed per initial configuration, at least one")
    window = initials[0].window
    if window.d != params.d:
        raise SimulationError("window dimension does not match params.d")
    if any(c.window != window for c in initials):
        raise SimulationError("all replicas of a batch must share one window")
    geo = _geometry(window)
    keys = geo.keys
    if stream_salts:
        keys = keys.copy()
        for x, salt in stream_salts.items():
            if x in window:
                keys[window.index(x)] = site_key(x, salt)
    replicas = len(initials)
    seed_words = np.array([int(s) & ((1 << 64) - 1) for s in seeds], dtype=np.uint64)
    offsets, times, bits = _ring_times(
        np.repeat(seed_words, keys.size), np.tile(keys, replicas), horizon, params.p
    )
    init = np.array([c.spins for c in initials], dtype=np.int8).reshape(-1)
    legal, spin_after = _sweep(geo, init, _frozen_zero(initials, geo.edge), offsets, times, bits)
    return BatchLog(params, initials, horizon, seeds, offsets, times, bits, legal, spin_after)


def simulate(
    params: ModelParams,
    initial: Configuration,
    horizon: float,
    seed: int,
    stream_salts: Optional[Mapping[Site, int]] = None,
) -> EventLog:
    """Run the graphical construction; deterministic in (params, initial, horizon, seed).

    The batch-of-one view of ``simulate_batch``.
    """
    return simulate_batch(params, [initial], horizon, [seed], stream_salts).log(0)
