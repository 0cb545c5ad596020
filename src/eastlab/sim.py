"""Graphical construction of the East dynamics, swept hyperplane by hyperplane.

Each window site rings at rate 1; every ring draws an independent Bernoulli(p)
bit.  The spin is replaced by the bit iff some neighbor x - e_i carries spin 0
at that instant (frozen exterior spins where neighbors leave the window).

The constraint at x reads only the sites x - e_i, which lie on the diagonal
hyperplane just before x's.  The trajectories on hyperplane H_k are therefore
a function of those on H_{k-1} and of H_k's own rings, and the simulation runs
as one vectorized pass per hyperplane over every replica and every site of
H_k at once.  The swept rings (legal and illegal) are kept per site in CSR
form beside one spin table, indexed once per batch by exact time-rank keys
that answer the sweep's neighbor lookups and every spin query.

A site whose every x - e_i stays 1 for all time can never ring legally
(``_blocked``); under a frozen exterior of 1s that is known from the initial
spins alone.  Such rows draw no rings before the sweep: thinning in the sense
of Lewis and Shedler (Naval Res. Logist. Q. 26, 1979), where a ring that can
never be legal is not drawn.  Such a row keeps only its initial spin, which is
its spin at all times, so ``occupation_time`` answers from it; its rings stay
fixed by their counters, and ``rings`` and ``to_csv`` draw replica r's on each
read, so the full ring history is what every output reports.

A blocked row's spin never moves, so a site reading it, as one reading a
frozen exterior spin, reads a fixed value with no search.  A row with a fixed
neighbor at 0 is settled: each of its rings is legal whatever its other
neighbors read, and the spin after it is its bit, so the sweep writes it
before the hyperplane loop and never reads another row's history for it.
``BatchLog`` is the one trajectory type; ``simulate`` returns a batch of one.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .lattice import Configuration, Exterior, ModelParams, Site, Window
from .streams import STREAM_VERSION, ring_draws

MAX_HORIZON = 1e9
# One replica's peak RSS grew by 65-82 bytes per ring slot (1-d and 2-d
# windows of 1e6-2e6 slots, every summary built; numpy 2.4, x86-64), so a
# replica at the cap needs about 1.4 GB.
MAX_REPLICA_RING_SLOTS = 1 << 24
UNKNOWN = 2  # the spin of a site whose value a batch does not know (see ``_sweep``)


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


def _ring_times(seeds: np.ndarray, keys: np.ndarray, p: float, horizon: float):
    """CSR offsets, times and bits of each stream's rings on (0, horizon].

    Times are sequential cumulative sums of the gaps from 0, so ring k's time
    does not depend on how many rings a pass draws.  Every pass is
    ring_block(horizon) wide and starts each stream at its next ring.  A
    stream enters another pass only if all its drawn rings fell inside the
    horizon, so its rings of pass j land j x width after its offset.  A pass
    is ring-major, (width, rows): its cumulative sum runs down axis 0 (see
    ``_accumulate``), the same sequential sums as row by row.  The first pass
    fills every slot that no later pass fills, so it needs no index array.
    No stream: an empty CSR.
    """
    n = seeds.size
    if n == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int8)
    width = ring_block(horizon)
    rows, last = np.arange(n), 0.0
    counts = np.zeros(n, dtype=np.int64)
    passes = []
    while rows.size:
        times, bits = ring_draws(seeds[rows], keys[rows], len(passes) * width, width, p)
        times[0] += last
        _accumulate(np.add, times, 0)
        inside = times <= horizon
        per_row = inside.sum(axis=0)
        counts[rows] += per_row
        passes.append((rows, times, bits, inside, per_row))
        rows, last = rows[inside[-1]], times[-1, inside[-1]]
    offsets = _csr_offsets(counts)
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


def _accumulate(ufunc: np.ufunc, a: np.ndarray, axis: int) -> None:
    """``ufunc.accumulate`` of ``a`` along ``axis``, in place.  numpy strides
    down a non-last axis one element at a time, so while the axis has fewer
    steps than each step has elements, one whole-slice op per step is faster
    (``np.cumsum`` on (12, 9000) float64: 408 -> 58 us on a 2-core x86-64
    host, numpy 2.4) and the interpreter's steps stay below the square root of
    the work.  Each step is the same op on the same values, so the result is
    the same bit for bit."""
    steps = a.swapaxes(0, axis)
    if len(steps) ** 2 >= a.size:
        ufunc.accumulate(steps, axis=0, out=steps)
        return
    for k in range(1, len(steps)):
        ufunc(steps[k], steps[k - 1], out=steps[k])


def _csr_offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets of rows holding these counts."""
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + lengths[i] - 1, concatenated."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


def _outside(rule: Exterior, within: Optional[Window] = None) -> np.ndarray:
    """(d, sites) int8: per axis i and window site x, the spin of x - e_i if
    it lies outside the window (the rule's, or UNKNOWN on a face that lies in
    ``within``); entries of an x - e_i in the window are not read."""
    window = rule.window
    out = np.full((window.d, window.site_count()), rule.spin, dtype=np.int8)
    for i in range(window.d):
        if within is not None and within.lower[i] < window.lower[i]:
            out[i] = UNKNOWN
            continue
        for y, s in rule.overrides.items():
            x = tuple(c + (k == i) for k, c in enumerate(y))  # y = x - e_i, so x lies on the face
            if x in window:
                out[i, window.index(x)] = s
    return out


def _initial_spins(params: ModelParams, rule: Exterior, within: Optional[Window], spins,
                   replicas: int) -> np.ndarray:
    """A batch's initial spins, flat: entry r * n + i holds site i of replica r.
    Raises SimulationError on a window whose dimension is not params.d, a
    ``within`` that does not hold the window, or spins that are not one row
    of 0/1 window spins per replica or one row for all (ragged rows
    included); a spin is checked before any cast could truncate or wrap it."""
    window = rule.window
    if window.d != params.d:
        raise SimulationError("window dimension does not match params.d")
    if within is not None and not (within.d == window.d and within.contains_window(window)):
        raise SimulationError(f"window {within} does not hold the batch's window")
    shape = (replicas, window.site_count())
    try:
        spins = np.asarray(spins)
    except ValueError:  # ragged rows
        spins = None
    if spins is None or spins.shape not in (shape, shape[1:], (1, shape[1])):
        raise SimulationError(f"need one row of {shape[1]} window spins per seed, "
                              "or one row for all")
    if not ((spins == 0) | (spins == 1)).all():
        raise SimulationError("spins must be 0 or 1")
    return np.broadcast_to(spins.astype(np.int8), shape).reshape(-1)


def _blocked(window: Window, init: np.ndarray, outside: np.ndarray) -> Optional[np.ndarray]:
    """Per row, whether the site can never ring legally; None if no row is.

    x rings legally only while some x - e_i is 0, so x is blocked iff every
    x - e_i stays 1 for all time: it lies outside the window at spin 1, or it
    is blocked and starts at 1.  Unrolled: every window site y <= x, y != x,
    starts at 1, and every outside neighbor of those sites and of x is at 1
    (UNKNOWN is not).  So the replica's initial spins, padded on each lower
    face with the outside spins there (``outside``, see ``_outside``), take
    one prefix AND per axis (slice ANDs along a short window axis, see
    ``_accumulate``), after which a cell holds whether every cell at or below
    it is 1; x is blocked iff that holds at every x - e_i.  No site
    is blocked unless every outside neighbor of the lower corner is at 1,
    which is tested first."""
    if not (outside[:, 0] == 1).all():
        return None
    d, extent = window.d, tuple(hi - lo + 1 for lo, hi in zip(window.lower, window.upper))
    cells = np.ones((init.size // window.site_count(),) + tuple(e + 1 for e in extent), dtype=bool)
    cells[(slice(None),) + (slice(1, None),) * d] = (init == 1).reshape(cells.shape[:1] + extent)
    for i in range(d):
        face = tuple(0 if k == i else slice(1, None) for k in range(d))
        cells[(slice(None),) + face] = np.take(outside[i].reshape(extent) == 1, 0, axis=i)
    for i in range(d):
        _accumulate(np.logical_and, cells, i + 1)
    blocked = np.ones(cells.shape[:1] + extent, dtype=bool)
    for i in range(d):  # the cells of x - e_i
        blocked &= cells[(slice(None),) + tuple(slice(None, -1) if k == i else slice(1, None)
                                                for k in range(d))]
    blocked = blocked.reshape(-1)
    return blocked if blocked.any() else None


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


def _sweep(window: Window, init, outside, offsets, bits, key, undrawn):
    """Legality of each ring and the spin table, one hyperplane at a time.  A
    ring's neighbor spin is the spin after the neighbor's last ring ranked below it.

    The table ``buf`` holds, per row, the initial spin and then the spin after
    each ring, and at its end one entry per spin 0, 1 and UNKNOWN.  The
    neighbor row's rings ranked below a ring end just before the searchsorted
    position of key - stride * m, so that position plus the neighbor row is
    its entry in ``buf``: the initial spin if there is none.  These slots
    depend on the keys alone, so before the sweep each axis finds them for the
    whole batch, in one searchsorted over the rings whose neighbor moves.

    A neighbor's spin is fixed for all time where it lies outside the window
    (its spin in ``outside``, see ``_outside``) or is an ``undrawn`` row (its
    initial spin: it never rings legally); it points at the end entry of that
    spin and takes no search.  A row with a fixed neighbor at 0 is settled:
    each of its rings is legal whatever its other neighbors read, so it reads
    no neighbor's history, and the spin after it is its bit.  Settled rows are
    written before the sweep and enter neither the search nor the plane loop.

    Where ``outside`` holds UNKNOWN, spins take that third value.  A ring is
    legal if some neighbor is certainly 0, illegal if all are certainly 1, and
    of unknown legality otherwise; after such a ring the spin stays certain
    only if the bit equals it.  So every certain spin and legality is the one
    a run on a larger window with the same rings has.  Returns (legal, the
    table, unknown legality), the last None when no neighbor is unknown."""
    m, n_rows = key.size, init.size
    sentinel = m + n_rows  # the table entry of spin 0
    replicas = n_rows // window.site_count()
    buf = np.empty(sentinel + 3, dtype=np.int8)
    buf[offsets[:-1] + np.arange(n_rows)] = init
    buf[sentinel:] = 0, 1, UNKNOWN
    legal = np.zeros(m, dtype=bool)
    unknown = np.zeros(m, dtype=bool) if (outside == UNKNOWN).any() else None
    # the entries of spins 0, 1 and UNKNOWN; int32 slots while they fit: they
    # set a small batch's peak memory
    end = np.arange(sentinel, sentinel + 3, dtype=np.int32 if sentinel + UNKNOWN < 2**31 else np.int64)
    # per axis and row: whether x - e_i moves, and else its fixed entry
    moves = np.tile(window.grid > 0, replicas)
    entry = end[np.tile(outside, replicas)]
    for i, stride in enumerate(window.strides if undrawn is not None else ()):
        frozen = moves[i, stride:] & undrawn[:-stride]
        entry[i, stride:][frozen] = end[init[:-stride][frozen]]
        moves[i, stride:] &= ~frozen
    settled = ((entry == sentinel) & ~moves).any(axis=0)
    moves &= ~settled
    row = key // m
    # sweep order: rings by hyperplane, in row order within one, and the
    # settled rows' rings past the last hyperplane
    plane = window.grid.sum(axis=0)
    past = plane[-1] + 1
    small = np.min_scalar_type(past)  # bounds included: a wider query casts every ring
    plane = np.where(settled, past, np.tile(plane, replicas)).astype(small)[row]
    swept = np.argsort(plane, kind="stable")
    bounds = np.searchsorted(plane[swept], np.arange(past + 1, dtype=small))
    del plane
    slots = []
    for i, stride in enumerate(window.strides):
        inner = moves[i][row]
        pos = key[inner]
        pos -= stride * m
        pos = key.searchsorted(pos)  # the queries come sorted
        pos += row[inner]
        pos -= stride
        nb = entry[i][row]
        nb[inner] = pos
        slots.append(nb)
    del inner, pos, moves, entry
    done = swept[bounds[-1]:]  # a settled ring is legal and leaves its bit
    legal[done] = True
    at = row[done]  # in place: one index array the size of the settled rings
    at += done
    at += 1
    buf[at] = bits[done]
    del done, at
    for k in range(past):
        sel = swept[bounds[k]:bounds[k + 1]]
        if sel.size == 0:
            continue
        rs = row[sel]
        ok = np.zeros(sel.size, dtype=bool)
        if unknown is None:
            for nb in slots:
                ok |= buf[nb[sel]] == 0
        else:
            maybe = np.zeros(sel.size, dtype=bool)
            for nb in slots:
                near = buf[nb[sel]]
                ok |= near == 0
                maybe |= near == UNKNOWN
            maybe &= ~ok
            unknown[sel] = maybe
        legal[sel] = ok
        # spin after a ring = bit of the row's last legal ring so far
        idx = np.arange(sel.size)
        last = _last_index(ok, idx)
        first = idx - (sel - offsets[rs])
        b = bits[sel]
        spin = np.where(last >= first, b[last], init[rs])
        if unknown is not None:
            # lost: an unknown-legality ring since then drew the other bit
            since = np.maximum(last, first - 1)
            other = np.where(spin == 0, _last_index(maybe & (b == 1), idx),
                             _last_index(maybe & (b == 0), idx))
            spin[other > since] = UNKNOWN
        buf[sel + rs + 1] = spin
    return legal, buf, unknown


def _last_index(mask: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per position, the last index at or before it where ``mask`` holds, -1 if none."""
    last = np.where(mask, idx, -1)
    np.maximum.accumulate(last, out=last)
    return last


class BatchLog:
    """Ring histories of R replicas on one window, stored per (replica, site) row.

    Row r*n + i holds site i of replica r, which starts at spin ``init[row]``;
    every replica shares the exterior ``rule``.  A row's swept rings are
    ``times[offsets[row]:offsets[row + 1]]`` in increasing order, with the drawn
    bit and the legality of each ring.  The sweep's ``table`` (see ``_sweep``)
    is the one spin store, and ``key`` and the sorted ``ordered`` times (see
    ``_rank_keys``) the one ring index: as in the sweep, a row's spin at time
    t is entry key.searchsorted(row * M + rank) + row, rank the number of
    rings at or before t, so a query costs O(log M) per row.  Built on first
    use: ``spin_after`` per ring, and per row ``first_legal`` and
    ``first_change``, the first legal ring and spin change times (inf if none).
    The queries answer for every replica at once; ``initial``, ``rings`` and
    ``to_csv`` take a replica index r.

    The constructor sweeps the given rings (``offsets``, ``times``, ``bits``),
    which fall on (0, horizon], for legality and spins, from 0/1 ``spins`` at
    time 0: one row of window spins per seed, or one for all.  ``undrawn``
    marks the rows whose rings the CSR leaves out (``simulate_batch`` leaves
    out the rows that can never ring legally, see ``_blocked``), or is None.
    Those rows hold no ring in ``offsets``, ``times``, ``bits``, ``legal``,
    ``key`` and ``table``, which keep only the rings the sweep ranks, and
    point at their initial spin, which is their spin at every time, so
    ``occupation_time`` answers from it.  ``rings`` and ``to_csv`` report
    every ring: each read draws replica r's undrawn rows' rings from their
    counters, each one illegal and leaving the initial spin (``_row_rings``).

    A batch ``within`` a larger window simulates only its own window: the
    spins of the larger window's other sites are unknown, and the exterior
    rule holds beyond the larger window only.  Its spins after a ring may
    then read UNKNOWN, ``legal`` marks the certainly legal rings and
    ``unknown`` those of unknown legality (None if no neighbor is unknown, as
    without ``within``); see ``_sweep``.  Each certain value is the one the
    larger window's run with the same rings has.  Of the per-site queries,
    only ``first_update_time`` and ``rings`` answer on such a batch; the
    others and ``to_csv`` raise SimulationError, as an UNKNOWN spin has no
    value to report.
    """

    def __init__(self, params: ModelParams, rule: Exterior, spins, horizon: float,
                 seeds: np.ndarray, offsets: np.ndarray, times: np.ndarray, bits: np.ndarray,
                 within: Optional[Window] = None, undrawn: Optional[np.ndarray] = None):
        self.params, self.rule, self.window = params, rule, rule.window
        self.horizon, self.seeds, self.within = float(horizon), seeds, within
        self.offsets, self.times, self.bits, self.undrawn = offsets, times, bits, undrawn
        self.init = _initial_spins(params, rule, within, spins, seeds.size)
        self.n_sites = self.window.site_count()
        self.key, self.ordered = _rank_keys(offsets, times)
        self.legal, self.table, self.unknown = _sweep(
            self.window, self.init, _outside(rule, within), offsets, bits, self.key, undrawn)

    def __len__(self) -> int:
        return self.seeds.size

    @cached_property
    def first_legal(self) -> np.ndarray:
        first = self._first_time(self.legal)
        if self.unknown is not None:  # NaN: a ring of unknown legality comes first
            first[self._first_time(self.unknown) < first] = np.nan
        return first

    @cached_property
    def spin_after(self) -> np.ndarray:
        """Spin after each ring: entry j + row + 1 of ``table`` for ring j."""
        m = self.key.size
        return self.table[self.key // m + np.arange(1, m + 1)]

    @cached_property
    def first_change(self) -> np.ndarray:
        self._certain("first_change")
        return self._first_time(self.spin_after != self.init[self.key // self.key.size])

    def _first_time(self, mask: np.ndarray) -> np.ndarray:
        out = np.full(self.init.size, np.inf)
        idx = np.flatnonzero(mask)
        r = self.key[idx] // self.key.size
        lead = np.diff(r, prepend=-1) != 0  # first masked ring of its row
        out[r[lead]] = self.times[idx[lead]]
        return out

    def _certain(self, query: str) -> None:
        if self.within is not None:
            raise SimulationError(f"{query} is undefined on a box batch, whose spins may be UNKNOWN")

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
        (replicas, times) array.  Every time lies in [0, horizon]."""
        self._certain("spin_at_time")
        rows = self._rows(x)
        s = np.asarray(s, dtype=float)
        if s.ndim > 1:
            raise SimulationError(f"times must be one time or a 1-d array, got shape {s.shape}")
        outside = ~((0 <= s) & (s <= self.horizon))  # NaN included
        if outside.any():
            raise SimulationError(f"time {s[outside][0]} outside [0, horizon]")
        if s.ndim:
            rows = rows[:, None]
        rank = self.ordered.searchsorted(s, "right")
        return self.table[self.key.searchsorted(rows * self.key.size + rank) + rows]

    def occupation_time(self, x: Site, t: float) -> np.ndarray:
        """Lebesgue time in [0, t] during which x has spin 0, per replica:
        the zero intervals between x's swept rings up to t, summed in ring
        order from 0, then the interval from the last of them (or from 0) to
        t.  An undrawn row holds no ring and keeps its initial spin, so it
        answers t if that spin is 0, else 0, with no draw."""
        self._certain("occupation_time")
        rows = self._rows(x)
        if np.ndim(t) != 0:
            raise SimulationError(f"t must be one time, got shape {np.shape(t)}")
        if not (0 <= t <= self.horizon):
            raise SimulationError(f"time {t} outside [0, horizon]")
        offsets, times, table = self.offsets, self.times, self.table
        lo = offsets[rows]
        n = offsets[rows + 1] - lo
        up_to = times[_ranges(lo, n)] <= t  # x's rings up to t, counted per replica
        count = np.bincount(np.repeat(np.arange(len(self)), n)[up_to], minlength=len(self))
        end = lo + count
        j, replica = _ranges(lo, count), np.repeat(np.arange(len(self)), count)
        prev_t = np.where(j == lo[replica], 0.0, times[j - 1])
        prev_s = table[j + rows[replica]]  # the spin just before ring j
        occ = np.bincount(replica, np.where(prev_s == 0, times[j] - prev_t, 0.0), len(self))
        end_t = np.zeros(len(self))
        end_t[count > 0] = times[end[count > 0] - 1]
        return occ + (t - end_t) * (table[end + rows] == 0)

    def first_update_time(self, x: Site) -> np.ndarray:
        """Time of the first legal ring at x per replica, inf if none; NaN
        where a ring of unknown legality comes before any legal one."""
        return self.first_legal[self._rows(x)]

    def final_spins(self) -> np.ndarray:
        """(replicas, sites) spins at the horizon: after each row's last ring,
        or its initial spin."""
        self._certain("final_spins")
        last = self.offsets[1:] + np.arange(self.init.size)  # each row's last entry
        return self.table[last].reshape(len(self), self.n_sites)

    def initial(self, r: int) -> Configuration:
        """Replica r's initial configuration: the exterior rule and its row."""
        base = self._base(r)
        return self.rule.configuration(self.init[base:base + self.n_sites])

    def _row_rings(self, r: int, sites: np.ndarray) -> tuple[np.ndarray, ...]:
        """Replica r's rings at the given increasing window sites, site by site:
        (site, times, bits, legal, spin after).  Drawn rows are sliced from the
        CSR; the undrawn rows among them draw theirs from their counters in one
        ``_ring_times`` call, each ring illegal and leaving the initial spin."""
        base = self._base(r)
        rows = base + sites
        lo = self.offsets[rows]
        count = self.offsets[rows + 1] - lo
        j = _ranges(lo, count)
        parts = [(np.repeat(sites, count), self.times[j], self.bits[j], self.legal[j],
                  self.table[j + np.repeat(rows, count) + 1])]
        undrawn = sites[self.undrawn[rows]] if self.undrawn is not None else sites[:0]
        if undrawn.size:
            offsets, times, bits = _ring_times(np.full(undrawn.size, self.seeds[r]),
                                               self.window.site_keys[undrawn],
                                               self.params.p, self.horizon)
            site = np.repeat(undrawn, np.diff(offsets))
            parts.append((site, times, bits, np.zeros(times.size, dtype=bool),
                          self.init[base + site]))
        site, *rest = (np.concatenate(a) for a in zip(*parts))
        order = np.argsort(site, kind="stable")
        return (site[order], *(a[order] for a in rest))

    def rings(self, r: int, x: Site) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Replica r's ring times, bits, legality and spins after at x, in time
        order; an undrawn row's rings too, drawn on each read (``_row_rings``)."""
        return self._row_rings(r, np.array([self._site(x)]))[1:]

    def to_csv(self, r: int) -> str:
        """Replica r's event CSV: a JSON manifest line, then its rings in time order."""
        self._certain("to_csv")
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
        # the replica's rings, undrawn rows' included, in time order; ties
        # by lower row, as the sweep ranks them
        rings = self._row_rings(r, np.arange(self.n_sites))
        order = np.argsort(rings[1], kind="stable")
        sites = self.window.sites
        for s, t, b, l, a in zip(*(a[order] for a in rings)):
            coords = ";".join(str(c) for c in sites[s])
            lines.append(f"{coords},{t:.17g},{int(b)},{int(l)},{int(a)}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str) -> "BatchLog":
        """Replay a ``to_csv`` log's ring times and bits as a batch of one.  Raises
        SimulationError on empty text, a first line that is not a JSON object, a
        manifest key missing, a wrong column header, a row without exactly its
        five columns, a site coordinate that is not an integer, a site outside
        the window, ring times of a site not strictly increasing within
        (0, horizon], a bit not 0/1, initial spins not one 0/1 per window site,
        ``legal``/``spin_after`` columns unlike the replay, or a ``d`` other
        than the window's dimension.  A field of the wrong type or outside its
        type's range (a time, a bit, the seed, a manifest value; a bool or a
        float for the seed, ``d``, a window bound or a spin; a bool horizon),
        and a model, window or exterior the lattice refuses (p outside (0, 1),
        an exterior spin not 0/1, an override inside the window or of another
        dimension), raise it as "malformed event log: " and the refusal."""
        lines = text.splitlines()
        if not lines:
            raise SimulationError("empty event log")
        try:
            manifest = json.loads(lines[0].lstrip("# "))
        except json.JSONDecodeError:
            manifest = None
        if not isinstance(manifest, dict):
            raise SimulationError(f"event manifest {lines[0]!r} is not a JSON object")
        missing = [k for k in ("d", "p", "seed", "horizon", "window_lower", "window_upper",
                               "exterior", "exterior_overrides", "initial_spins")
                   if k not in manifest]
        if missing:
            raise SimulationError(f"event manifest lacks {', '.join(missing)}")
        if lines[1:2] != ["site_coords,time,bit,legal,spin_after"]:
            raise SimulationError(f"unexpected event header {lines[1:2]}")
        try:
            params, horizon = ModelParams(manifest["d"], manifest["p"]), manifest["horizon"]
            if isinstance(horizon, bool):  # true would replay as 1.0
                raise TypeError(f"horizon must be a number, got {horizon!r}")
            window = Window(tuple(manifest["window_lower"]), tuple(manifest["window_upper"]))
            overrides = {tuple(x): s for x, s in manifest["exterior_overrides"]}
            rule = Exterior(window, manifest["exterior"], overrides)
            rows = [ln.split(",") for ln in lines[2:] if ln.strip()]
            for r in rows:
                if len(r) != 5:
                    raise SimulationError(f"event row {','.join(r)!r} does not have 5 columns")
            try:
                sites = [tuple(int(c) for c in r[0].split(";")) for r in rows]
            except ValueError:
                raise SimulationError("site coordinates must be integers") from None
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
            offsets = _csr_offsets(np.bincount(site_idx, minlength=window.site_count()))
            spins = [int(c) for c in manifest["initial_spins"]]
            if type(manifest["seed"]) is not int:  # a bool or a float would replay truncated
                raise TypeError(f"seed must be an integer, got {manifest['seed']!r}")
            seeds = np.array([manifest["seed"]], dtype=np.uint64)
            batch = BatchLog(params, rule, spins, horizon, seeds, offsets, times, bits)
        except SimulationError:
            raise
        except (TypeError, ValueError, OverflowError) as e:  # LatticeError included
            raise SimulationError(f"malformed event log: {e}") from None
        if (legal != batch.legal).any() or (spin_after != batch.spin_after).any():
            raise SimulationError("legal or spin_after column differs from the replayed rings")
        return batch


def simulate_batch(
    params: ModelParams, rule: Exterior, spins, horizon: float, seeds: Sequence[int],
    within: Optional[Window] = None,
) -> BatchLog:
    """Run the graphical construction for replica r = (spins[r], seeds[r])
    under one exterior rule.

    ``spins`` holds 0/1 window spins in ``rule.window.sites`` order: one row
    per seed, or a single row that every replica starts from.  Deterministic
    per replica: replica r's history depends on its own (params, rule, spins,
    horizon, seed) only, never on the rest of the batch.  A replica over
    MAX_REPLICA_RING_SLOTS, and spins of the wrong shape or not 0/1, raise
    before any draw.  ``within``: see ``BatchLog``.

    Rows that can never ring legally (``_blocked``) draw no rings: they are
    found only when every outside neighbor of the window's lower corner is at
    1, so never when that corner borders a box's unknown face, and the batch
    marks them ``undrawn`` (see ``BatchLog``).
    """
    window = rule.window
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    if seeds.size == 0:
        raise SimulationError("need at least one seed")
    replica_ring_slots(window, horizon)
    init = _initial_spins(params, rule, within, spins, seeds.size)
    blocked = _blocked(window, init, _outside(rule, within))
    drawn = np.ones(init.size, dtype=bool) if blocked is None else ~blocked
    keys = window.site_keys
    drawn_offsets, times, bits = _ring_times(np.repeat(seeds, keys.size)[drawn],
                                             np.tile(keys, seeds.size)[drawn], params.p, horizon)
    counts = np.zeros(init.size, dtype=np.int64)
    counts[drawn] = np.diff(drawn_offsets)
    return BatchLog(params, rule, init.reshape(seeds.size, -1), horizon, seeds,
                    _csr_offsets(counts), times, bits, within, undrawn=blocked)


def simulate(params: ModelParams, initial: Configuration, horizon: float, seed: int) -> BatchLog:
    """``simulate_batch`` for the one replica (initial, seed): a batch of one."""
    return simulate_batch(params, initial.rule, initial.spins, horizon, [seed])
