"""Monte Carlo estimation of persistence and relaxation decay, plus rate fits.

Persistence F(t) is the fraction of independent runs whose target site has had
no legal ring by time t (Wilson intervals).  Relaxation averages the normalized
deviation |E_eta[f] - mu(f)| / ||f - mu(f)||_inf over initial draws (bootstrap
intervals over the outer draws).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .lattice import (
    MeasureSpec,
    ModelParams,
    Region,
    Site,
    Window,
    sample_initial,
)
from .sim import BatchLog, ring_block, simulate_batch
from .streams import derived_generator, derive_seed

Z95 = 1.959963984540054  # two-sided 95% normal quantile
RING_SLOT_BUDGET = 1 << 16  # ring slots simulated at once; bounds a chunk's memory


class EstimatorError(ValueError):
    pass


def wilson_interval(k: int, n: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if n <= 0:
        raise EstimatorError("n must be positive")
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
            import json

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

    def support_region(self) -> Region:
        return Region(frozenset(self.sites), "ObservableSupport")

    def eval_spins(self, spins: Sequence[int]) -> float:
        return float(self.fn(tuple(spins)))

    def state_function(self) -> Callable[[int], float]:
        """Bitmask adapter: bit i = spin of the i-th support site in lex order."""
        order = sorted(range(len(self.sites)), key=lambda i: self.sites[i])
        inv = {self.sites[i]: pos for pos, i in enumerate(order)}

        def f(state: int) -> float:
            spins = tuple((state >> inv[x]) & 1 for x in self.sites)
            return float(self.fn(spins))

        return f

    @staticmethod
    def spin(site: Site) -> "Observable":
        return Observable((site,), lambda s: float(s[0]))


def observable_mu_and_norm(f: Observable, p: float) -> tuple[float, float]:
    """(mu(f), ||f - mu(f)||_inf) by enumeration over the support."""
    k = len(f.sites)
    vals = [f.eval_spins(s) for s in product((0, 1), repeat=k)]
    weights = [
        math.prod(p if b == 1 else 1 - p for b in s) for s in product((0, 1), repeat=k)
    ]
    mu_f = sum(w * v for w, v in zip(weights, vals))
    norm = max(abs(v - mu_f) for v in vals)
    return mu_f, norm


def replica_batches(
    params: ModelParams,
    spec: MeasureSpec,
    window: Window,
    horizon: float,
    seed: int,
    tag: str,
    n: int,
    n_inner: Optional[int] = None,
) -> Iterator[tuple[np.ndarray, BatchLog]]:
    """The replica driver: simulate runs in chunks of at most RING_SLOT_BUDGET
    ring slots, yielding (draw index of each replica, batch) per chunk.

    Draw o's initial configuration comes from ``derived_generator(seed,
    f"{tag}-init", o)``.  With ``n_inner`` None, each of the n draws is run
    once, seeded ``derive_seed(seed, f"{tag}-sim", o)``; otherwise each is run
    ``n_inner`` times, seeded ``derive_seed(seed, f"{tag}-sim", o, i)``.  Runs
    come in (o, i) order, so a draw's runs are consecutive.  Replica
    randomness is counter-based, so no output depends on the chunking.
    """
    per_chunk = max(1, RING_SLOT_BUDGET // (window.site_count() * ring_block(horizon)))
    total = n * (n_inner or 1)
    init, last = None, -1
    for start in range(0, total, per_chunk):
        draws, runs = np.divmod(np.arange(start, min(total, start + per_chunk)), n_inner or 1)
        inits, seeds = [], []
        for o, i in zip(draws.tolist(), runs.tolist()):
            if o != last:
                rng = derived_generator(seed, f"{tag}-init", o)
                init, last = sample_initial(spec, window, rng), o
            inits.append(init)
            ids = (o,) if n_inner is None else (o, i)
            seeds.append(derive_seed(seed, f"{tag}-sim", *ids))
        yield draws, simulate_batch(params, inits, horizon, seeds)


def estimate_persistence(
    params: ModelParams,
    spec: MeasureSpec,
    x: Site,
    times: Sequence[float],
    n: int,
    window: Window,
    seed: int,
) -> DecaySeries:
    """Fraction of runs with no legal ring at x by each time, Wilson intervals."""
    if x not in window:
        raise EstimatorError(f"site {x} outside window")
    ts = tuple(sorted(float(t) for t in times))
    horizon = ts[-1]
    counts = np.zeros(len(ts), dtype=np.int64)
    for _, batch in replica_batches(params, spec, window, horizon, seed, "persist", n):
        tau = batch.first_update_time(x)
        counts += (tau[:, None] > np.asarray(ts)).sum(axis=0)
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
    n_boot: int = 1000,
) -> DecaySeries:
    """Average of (|inner estimate of E_eta[f] - mu(f)| / ||f - mu(f)||_inf)^gamma."""
    if any(x not in window for x in f.sites):
        raise EstimatorError("observable support must lie inside the window")
    ts = tuple(sorted(float(t) for t in times))
    horizon = ts[-1]
    mu_f, norm = observable_mu_and_norm(f, params.p)
    if norm == 0.0:
        raise EstimatorError("constant observable: normalization undefined")
    # f on every support state; state index = spins read as binary digits
    table = np.array([f.eval_spins(s) for s in product((0, 1), repeat=len(f.sites))])
    weights = 1 << np.arange(len(f.sites))[::-1]
    outer_vals = np.zeros((n_outer, len(ts)))
    inner = np.empty((n_inner, len(ts)))  # one draw's runs, reduced once complete
    filled = 0
    batches = replica_batches(params, spec, window, horizon, seed, "relax", n_outer, n_inner)
    for draws, batch in batches:
        values = np.empty((len(batch), len(ts)))
        for j, t in enumerate(ts):
            state = sum(w * batch.spin_at_time(x, t) for w, x in zip(weights, f.sites))
            values[:, j] = table[state]
        start = 0
        for o, count in zip(*np.unique(draws, return_counts=True)):
            inner[filled:filled + count] = values[start:start + count]
            filled += count
            start += count
            if filled == n_inner:
                outer_vals[o] = (np.abs(inner.mean(axis=0) - mu_f) / norm) ** gamma
                filled = 0
    values = outer_vals.mean(axis=0)
    if n_outer > 1:
        rngb = derived_generator(seed, "relax-boot")
        boot = np.empty((n_boot, len(ts)))
        for b in range(n_boot):
            idx = rngb.integers(0, n_outer, n_outer)
            boot[b] = outer_vals[idx].mean(axis=0)
        lo = np.percentile(boot, 2.5, axis=0)
        hi = np.percentile(boot, 97.5, axis=0)
        halfwidths = (hi - lo) / 2
    else:
        halfwidths = np.zeros(len(ts))
    return DecaySeries(
        ts, tuple(float(v) for v in values), tuple(float(h) for h in halfwidths), n_outer, n_inner
    )


def default_fit_floor(series: DecaySeries) -> float:
    """3x the median halfwidth, excluding noise-dominated tail points."""
    return 3.0 * float(np.median(series.halfwidths))


def fit_exponential(series: DecaySeries, floor: float) -> FitResult:
    """Least squares on (t, ln value) over points with value > floor."""
    t = np.asarray(series.times)
    v = np.asarray(series.values)
    mask = v > floor
    if mask.sum() < 3:
        raise EstimatorError("fewer than 3 points above the fit floor")
    x = t[mask]
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


@dataclass(frozen=True)
class OccupationSummary:
    sites: tuple[Site, ...]
    means: tuple[float, ...]
    q10: tuple[float, ...]
    q50: tuple[float, ...]
    q90: tuple[float, ...]
    g_frequency: float
    threshold: float
    n: int


def occupation_statistics(
    params: ModelParams,
    spec: MeasureSpec,
    region: Region,
    t: float,
    n: int,
    window: Window,
    seed: int,
) -> OccupationSummary:
    """Per-site occupation-at-zero statistics and the frequency of the event
    {some region site spends at least (1-p)t/4 at zero}."""
    sites = tuple(region.sorted_sites())
    if any(x not in window for x in sites):
        raise EstimatorError("region must lie inside the window")
    threshold = (1.0 - params.p) * t / 4.0
    occ = np.zeros((n, len(sites)))
    for draws, batch in replica_batches(params, spec, window, t, seed, "occ", n):
        for j, x in enumerate(sites):
            occ[draws, j] = batch.occupation_time(x, t)
    g_freq = float((occ.max(axis=1) >= threshold).mean()) if sites else 0.0
    return OccupationSummary(
        sites=sites,
        means=tuple(occ.mean(axis=0)),
        q10=tuple(np.percentile(occ, 10, axis=0)),
        q50=tuple(np.percentile(occ, 50, axis=0)),
        q90=tuple(np.percentile(occ, 90, axis=0)),
        g_frequency=g_freq,
        threshold=threshold,
        n=n,
    )
