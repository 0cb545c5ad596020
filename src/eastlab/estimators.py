"""Monte Carlo estimation of persistence and relaxation decay, plus rate fits.

Persistence F(t) is the fraction of independent runs whose target site has had
no legal ring by time t (Wilson intervals).  Relaxation averages the normalized
deviation |E_eta[f] - mu(f)| / ||f - mu(f)||_inf over initial draws (bootstrap
intervals over the outer draws).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .lattice import (
    MeasureSpec,
    ModelParams,
    Site,
    Window,
    bernoulli_weights,
    initial_rows,
)
from .sim import BatchLog, replica_ring_slots, simulate_batch
from .streams import derived_generator, derive_seed

Z95 = 1.959963984540054  # two-sided 95% normal quantile
# The ring slots a simulated chunk aims at (it may hold up to about 1.5x, see
# replica_batches), or the bootstrap indices drawn at once.
RING_SLOT_BUDGET = 1 << 16
N_BOOT = 1000  # bootstrap resamples of the relaxation draws
BOX_SIDE = 3  # persistence's first box side; each later box doubles it (see estimate_persistence)


class EstimatorError(ValueError):
    pass


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if n <= 0:
        raise EstimatorError("n must be positive")
    if not 0 <= k <= n:
        raise EstimatorError(f"k must lie in 0..n = 0..{n}, got {k}")
    z = Z95
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def wilson_halfwidth(k: int, n: int) -> float:
    lo, hi = wilson_interval(k, n)
    return (hi - lo) / 2


@dataclass(frozen=True)
class DecaySeries:
    times: tuple[float, ...]
    values: tuple[float, ...]
    halfwidths: tuple[float, ...]
    n_outer: int
    n_inner: int

    def __post_init__(self):
        if not (len(self.times) == len(self.values) == len(self.halfwidths)):
            raise EstimatorError("times/values/halfwidths must have equal length")
        if any(h < 0 for h in self.halfwidths):
            raise EstimatorError("halfwidths must be >= 0")

    def to_csv(self, manifest: dict | None = None) -> str:
        lines = []
        if manifest is not None:
            lines.append("# " + json.dumps(manifest, sort_keys=True))
        lines.append("t,value,halfwidth")
        for t, v, h in zip(self.times, self.values, self.halfwidths):
            lines.append(f"{t:.17g},{v:.17g},{h:.17g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FitResult:
    rate: float
    prefactor: float
    r_squared: float
    fit_window: tuple[int, int]

    def summary_line(self) -> str:
        return (
            f"rate={self.rate:.17g},prefactor={self.prefactor:.17g},"
            f"r_squared={self.r_squared:.17g},fit_window={self.fit_window[0]}:{self.fit_window[1]}"
        )


@dataclass(frozen=True)
class Observable:
    """Function of the spins on a finite support."""

    sites: tuple[Site, ...]
    fn: Callable[[tuple[int, ...]], float]

    def table(self) -> np.ndarray:
        """f on every support state; bit i of the state = spin of sites[i]."""
        k = len(self.sites)
        return np.array([float(self.fn(tuple((s >> i) & 1 for i in range(k)))) for s in range(1 << k)])

    @staticmethod
    def spin(site: Site) -> "Observable":
        return Observable((site,), lambda s: float(s[0]))


def observable_mu_and_norm(f: Observable, p: float) -> tuple[float, float]:
    """(mu(f), ||f - mu(f)||_inf) by enumeration over the support."""
    vals = f.table()
    mu_f = float(bernoulli_weights(len(f.sites), p) @ vals)
    return mu_f, float(np.max(np.abs(vals - mu_f)))


def replica_batches(
    params: ModelParams,
    spec: MeasureSpec,
    window: Window,
    horizon: float,
    seed: int,
    tag: str,
    n: int,
    n_inner: Optional[int] = None,
    runs: Optional[np.ndarray] = None,
    within: Optional[Window] = None,
) -> Iterator[tuple[np.ndarray, BatchLog]]:
    """The replica driver: simulate runs in chunks of about RING_SLOT_BUDGET
    ring slots, yielding (draw index of each replica, batch) per chunk.

    Draw o is draw o of ``initial_rows`` under ``derive_seed(seed, f"{tag}-init")``.
    With ``n_inner`` None, each of the n draws is run once, seeded
    ``derive_seed(seed, f"{tag}-sim", o)``; otherwise each is run ``n_inner``
    times, seeded ``derive_seed(seed, f"{tag}-sim", o, i)``.  The runs split
    into round(runs x slots / RING_SLOT_BUDGET) chunks, at least one and at
    most one per run, whose sizes differ by at most one: a chunk holds at most
    1.5 budgets of ring slots and one run more, or a single run, and no small
    remainder chunk pays a batch's fixed cost.  A chunk is a range of runs in
    (o, i) order: it hashes its seeds and draws its spin rows in one array
    call each.  Nothing carries from one chunk to the next, and replica
    randomness is counter-based, so no output depends on the chunking.
    ``runs``, increasing indices into that order, runs those alone, each with
    the draw and seed it has among all (none: no chunk); every batch is
    simulated ``within`` (see ``BatchLog``).
    Raises EstimatorError on an ``n`` or ``n_inner`` below 1, or on a run
    index outside 0..n (n_inner or 1) - 1.
    """
    _positive(n=n, n_inner=n_inner)
    slots = replica_ring_slots(window, horizon)
    total = n * (n_inner or 1)
    if runs is None:
        runs = np.arange(total)
    elif runs.size and not (0 <= runs.min() and runs.max() < total):
        raise EstimatorError(f"run indices must lie in 0..{total - 1}, got {runs.min()}..{runs.max()}")
    if runs.size == 0:
        return
    chunks = min(runs.size, max(1, round(runs.size * slots / RING_SLOT_BUDGET)))
    init_key = derive_seed(seed, f"{tag}-init")
    for chunk in np.array_split(runs, chunks):
        draws, inner = np.divmod(chunk, n_inner or 1)
        first = np.diff(draws, prepend=-1) != 0  # a draw's first run: its spins are drawn once
        rule, rows = initial_rows(spec, window, init_key, draws[first])
        seeds = derive_seed(seed, f"{tag}-sim", *((draws,) if n_inner is None else (draws, inner)))
        yield draws, simulate_batch(params, rule, rows[np.cumsum(first) - 1], horizon, seeds,
                                    within)


def _positive(**counts: Optional[int]) -> None:
    """Raises EstimatorError naming the first count below 1; None passes."""
    for name, k in counts.items():
        if k is not None and k < 1:
            raise EstimatorError(f"{name} must be positive, got {k}")


def _time_grid(times: Sequence[float], **counts: int) -> tuple[float, ...]:
    """The requested times, sorted.  Raises EstimatorError on no time, on a
    time that is negative or not finite, or on a count below 1, naming it."""
    ts = [float(t) for t in times]
    if not ts:
        raise EstimatorError("times must hold at least one time")
    for t in ts:
        if not 0 <= t < math.inf:
            raise EstimatorError(f"times must be finite and >= 0, got {t}")
    _positive(**counts)
    return tuple(sorted(ts))


def estimate_persistence(
    params: ModelParams,
    spec: MeasureSpec,
    x: Site,
    times: Sequence[float],
    n: int,
    window: Window,
    seed: int,
    notes: Optional[dict] = None,
) -> DecaySeries:
    """Fraction of runs with no legal ring at x by each time, Wilson intervals.

    A run's answer is its first update time tau_x, which reads only sites
    y <= x.  So every run is simulated first, from time 0 to the last
    requested time, on the box W ∩ [x - s + 1, x] with s = BOX_SIDE, the
    window's other sites unknown (``sim._sweep``).  A run is certified when
    x's first ring that is not certainly illegal is certainly legal, or when
    every ring of x to the horizon is certainly illegal; its tau_x is then the
    window's.  The runs a box leaves uncertain rerun once, with the same draws
    and seeds, on the box of twice its side, or on W ∩ {y <= x} when more
    than half of the runs that entered the box are uncertain.  W ∩ {y <= x}
    has no unknown neighbor and so decides every run.  Every tau_x, and with
    it every output, is the run's on the window.  A window x horizon over the
    replica cap fails before any box runs.  ``notes``, if given, receives
    ``persistence.box_sides`` (the side of each box run; W ∩ {y <= x} counts
    as the side that reaches it) and ``persistence.reruns`` (the runs that
    entered each box after the first, k/n each; 0/n if none ran).
    """
    if x not in window:
        raise EstimatorError(f"site {x} outside window")
    ts = _time_grid(times, n=n)
    horizon = ts[-1]
    replica_ring_slots(window, horizon)
    last = max(c - lo + 1 for lo, c in zip(window.lower, x))  # the side of W ∩ {y <= x}
    tau = np.full(n, np.nan)  # NaN until certified
    runs, sides, entered = np.arange(n), [], []
    side = min(BOX_SIDE, last)
    while runs.size:
        sides.append(side)
        entered.append(runs.size)
        box = Window(tuple(max(lo, c - side + 1) for lo, c in zip(window.lower, x)), x)
        for draws, batch in replica_batches(params, spec, box, horizon, seed, "persist", n,
                                            runs=runs, within=window if side < last else None):
            tau[draws] = batch.first_update_time(x)
        runs = np.flatnonzero(np.isnan(tau))
        side = last if 2 * runs.size > entered[-1] else min(2 * side, last)
    if notes is not None:
        notes.update({"persistence.box_sides": " ".join(map(str, sides)),
                      "persistence.reruns": " ".join(f"{k}/{n}" for k in entered[1:]) or f"0/{n}"})
    counts = n - np.sort(tau).searchsorted(ts, "right")
    values = tuple(float(k) / n for k in counts)
    halfwidths = tuple(wilson_halfwidth(int(k), n) for k in counts)
    return DecaySeries(ts, values, halfwidths, n_outer=n, n_inner=1)


def estimate_relaxation(
    params: ModelParams,
    spec: MeasureSpec,
    f: Observable,
    times: Sequence[float],
    n_outer: int,
    n_inner: int,
    window: Window,
    seed: int,
    gamma: float = 1.0,
) -> DecaySeries:
    """Average of (|inner estimate of E_eta[f] - mu(f)| / ||f - mu(f)||_inf)^gamma."""
    if not 0 < gamma < math.inf:
        raise EstimatorError(f"gamma must be finite and > 0, got {gamma}")
    if any(x not in window for x in f.sites):
        raise EstimatorError("observable support must lie inside the window")
    ts = _time_grid(times, n_outer=n_outer, n_inner=n_inner)
    horizon = ts[-1]
    mu_f, norm = observable_mu_and_norm(f, params.p)
    if norm == 0.0:
        raise EstimatorError("constant observable: normalization undefined")
    table = f.table()
    weights = 1 << np.arange(len(f.sites))
    sums = np.zeros((n_outer, len(ts)))  # per draw, in run order: bit for bit a mean's sum
    batches = replica_batches(params, spec, window, horizon, seed, "relax", n_outer, n_inner)
    for draws, batch in batches:
        state = sum(w * batch.spin_at_time(x, ts) for w, x in zip(weights, f.sites))
        np.add.at(sums, draws, table[state])
    outer_vals = (np.abs(sums / n_inner - mu_f) / norm) ** gamma
    values = outer_vals.mean(axis=0)
    if n_outer > 1:
        rngb = derived_generator(seed, "relax-boot")
        block = max(1, RING_SLOT_BUDGET // n_outer)  # resamples drawn at once
        boot = np.concatenate([
            outer_vals[rngb.integers(0, n_outer, (min(block, N_BOOT - b), n_outer))].mean(axis=1)
            for b in range(0, N_BOOT, block)
        ])
        lo = percentile(boot, 2.5)
        hi = percentile(boot, 97.5)
        halfwidths = (hi - lo) / 2
    else:
        halfwidths = np.zeros(len(ts))
    return DecaySeries(
        ts, tuple(float(v) for v in values), tuple(float(h) for h in halfwidths), n_outer, n_inner
    )


def median(a: np.ndarray) -> float:
    """``np.median(a)`` of a 1-d array, bit for bit: the mean of the two
    middle values at even size.  Unlike numpy's, it does not import numpy.ma
    (17.5 ms and 2 MB of RSS on a process's first call)."""
    half = a.size // 2
    if a.size % 2:
        return float(np.partition(a, half)[half])
    part = np.partition(a, (half - 1, half))
    return float((part[half - 1] + part[half]) / 2)


def percentile(a: np.ndarray, q: float) -> np.ndarray:
    """``np.percentile(a, q, axis=0)`` under its default linear method, bit
    for bit, without importing numpy.ma: the values at ranks floor(v) and
    floor(v) + 1, v = (n - 1) q / 100, interpolated from the nearer one."""
    at = (a.shape[0] - 1) * (q / 100)
    lo = math.floor(at)
    hi = min(lo + 1, a.shape[0] - 1)
    part = np.partition(a, (lo, hi), axis=0)
    t = at - lo
    diff = part[hi] - part[lo]
    return part[hi] - diff * (1 - t) if t >= 0.5 else part[lo] + diff * t


def default_fit_floor(series: DecaySeries) -> float:
    """3x the median halfwidth, excluding noise-dominated tail points."""
    return 3.0 * median(np.asarray(series.halfwidths))


def fit_exponential(series: DecaySeries, floor: float) -> FitResult:
    """Least squares on (t, ln value) over points with value > floor, which
    must fall at 3 or more distinct times."""
    t = np.asarray(series.times)
    v = np.asarray(series.values)
    mask = v > floor
    x = t[mask]
    if np.count_nonzero(np.diff(np.sort(x))) < 2:  # np.unique would import numpy.ma
        raise EstimatorError("fewer than 3 distinct times above the fit floor")
    y = np.log(v[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    used = np.nonzero(mask)[0]
    return FitResult(
        rate=float(-slope),
        prefactor=float(math.exp(intercept)),
        r_squared=max(0.0, r2),
        fit_window=(int(used[0]), int(used[-1])),
    )
