"""Mechanical checks of the combinatorial machinery on simulated histories.

The oriented-path check takes a batch of realized histories, computes per
replica the set E of sites updated before t/2 inside the box
D = {-radius..0}^d, and (when no site of D stayed at zero throughout [0, t/2])
searches for an oriented path of -e_i steps inside E from the starting zero
down to the outer layer of D, the sites with some coordinate equal to
-radius, as one reach sweep over D's box for the whole batch.  Failure to
find one would contradict a proven statement and is surfaced as a
counterexample.  The check reads only [0, t/2], so it needs a batch
simulated to t/2, not t: ring times come from the Philox counter, not the
horizon, and the sweep is causal, so a longer batch gives the same answers.
The module also evaluates the closed-form constants of the decay machinery
and probes the occupation-time cascade along y^(0)..y^(d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimators import replica_batches, wilson_halfwidth
from .lattice import MeasureSpec, ModelParams, Site, Window
from .sim import BatchLog


class TheoryCheckError(ValueError):
    pass


def _lemma_box(batch: BatchLog, t: float, alpha: float, x: Site):
    """Check the lemma's premises, with D = {-radius..0}^d for radius =
    floor(2 d alpha t); return D's batch rows (r * n_sites + window index),
    shaped (R, radius+1, ..., radius+1) in D's lexicographic (C) order, x's index
    into them, and per site y of D, |x - y|_1 and whether y lies on D's outer
    layer: the sites with some coordinate equal to -radius."""
    d = batch.params.d
    radius, small = math.floor(2 * d * alpha * t), math.floor(alpha * t)
    if alpha * t < 0:
        raise TheoryCheckError(f"alpha t = {alpha * t:g} < 0 leaves no start site")
    if not all(-small <= c <= 0 for c in x):
        raise TheoryCheckError(f"start site {x} outside {{-{small}..0}}^d")
    if t / 2.0 > batch.horizon:
        raise TheoryCheckError(f"t/2 = {t / 2.0:g} beyond log horizon {batch.horizon:g}")
    w = batch.window
    # D is a box, so it fits iff both its corners do; it is not empty, as
    # alpha t >= 0 here
    if (-radius,) * d not in w or (0,) * d not in w:
        raise TheoryCheckError("D does not fit inside the log's window")
    corner = np.indices((radius + 1,) * d)  # offsets from D's lower corner
    index = sum(s * (c - radius - lo) for s, c, lo in zip(w.strides, corner, w.lower))
    rows = np.arange(len(batch)).reshape((-1,) + (1,) * d) * batch.n_sites + index
    xc = [c + radius for c in x]
    dist = np.abs(corner - np.reshape(xc, (-1,) + (1,) * d)).sum(axis=0)
    return rows, (np.s_[:], *xc), dist, (corner == 0).any(axis=0)


def _fed(a: np.ndarray) -> np.ndarray:
    """Per site y of D's rows: some y + e_i in D is set in ``a``."""
    out = np.zeros_like(a)
    for i in range(1, a.ndim):
        out[(np.s_[:],) * i + (np.s_[:-1],)] |= a[(np.s_[:],) * i + (np.s_[1:],)]
    return out


class PathCheck(NamedTuple):
    """The oriented-path lemma on each replica of a batch."""

    applicable: np.ndarray  # x has spin 0 initially
    hypothesis_held: np.ndarray  # applicable, and no site of D stayed at 0 on [0, t/2]
    length: np.ndarray  # nodes of a shortest -e_i path in E from x to D's outer layer; 0: none
    reach: np.ndarray  # (R, r+1, ..., r+1): sites of D joined to x by a -e_i path in E

    @property
    def found(self) -> np.ndarray:
        return self.length > 0


def oriented_path_check(batch: BatchLog, t: float, alpha: float, x: Site) -> PathCheck:
    """If no site of D stayed at zero on [0, t/2], an oriented path in E (the
    sites of D with a legal ring by t/2) must join x to the outer layer of D;
    absence of one is a counterexample.

    Pass k of the sweep reach |= E & fed(reach) reaches the sites k steps from
    x.  Every -e_i path from x to y has |x - y|_1 + 1 nodes, so a shortest path
    ends at the nearest reached outer-layer site."""
    rows, start, dist, outer = _lemma_box(batch, t, alpha, x)
    half = t / 2.0
    init, E = batch.init[rows], batch.first_legal[rows] <= half
    stayed = (init == 0) & (batch.first_change[rows] > half)
    applicable = init[start] == 0
    held = applicable & ~stayed.reshape(len(batch), -1).any(axis=1)
    reach = np.zeros_like(E)
    reach[start] = E[start] & held
    far = dist.max() + 1  # more steps than any path from x has
    for _ in range(far - 1):
        reach |= E & _fed(reach)
    near = np.where(reach & outer, dist, far).reshape(len(batch), -1).min(axis=1)
    return PathCheck(applicable, held, np.where(near < far, near + 1, 0), reach)


def certify_paths(
    batch: BatchLog, t: float, alpha: float, x: Site, check: PathCheck
) -> np.ndarray:
    """Per replica: ``check.reach`` proves a -e_i path in E of ``check.length``
    nodes from x to D's outer layer.  Every reached site lies in E (read afresh,
    not from the sweep), every reached site but x has a reached y + e_i in D, and
    a reached outer-layer site y lies at distance length - 1 from x: climbing
    reached sites up from y then ends at x, after |x - y|_1 steps."""
    rows, start, dist, outer = _lemma_box(batch, t, alpha, x)
    reach, length = check.reach, check.length.reshape((-1,) + (1,) * dist.ndim)
    fed = _fed(reach)
    fed[start] = True
    sound = ~reach | (fed & (batch.first_legal[rows] <= t / 2.0))
    ends = reach & outer & (dist == length - 1)
    flat = len(batch), -1
    return check.found & sound.reshape(flat).all(axis=1) & ends.reshape(flat).any(axis=1)


@dataclass(frozen=True)
class ConstantsReport:
    p: float
    d: int
    delta: float
    c: float
    lambda_pp: float
    c3_prime: float
    alpha: float
    chi: float
    update_ratio: float  # 2p/(1+p), must be < 1

    def to_text(self) -> str:
        lines = [
            f"p = {self.p!r}",
            f"d = {self.d}",
            f"delta = {self.delta!r}  # imported constant, placeholder default",
            f"c = {self.c!r}  # imported constant, placeholder default",
            f"lambda_pp = {self.lambda_pp!r}",
            f"c3_prime = {self.c3_prime!r}",
            f"alpha = {self.alpha!r}",
            f"chi = {self.chi!r}",
            f"update_ratio = {self.update_ratio!r}",
        ]
        return "\n".join(lines) + "\n"


def compute_constants(p: float, d: int, delta: float, c: float, lambda_pp: float) -> ConstantsReport:
    """Evaluate the closed-form constants of the decay machinery."""
    if not (0.0 < p < 1.0):
        raise TheoryCheckError(f"p must lie in (0,1), got {p}")
    if d < 1:
        raise TheoryCheckError(f"d must be >= 1, got {d}")
    if not (0.0 < delta < 1.0):
        raise TheoryCheckError(f"delta must lie in (0,1), got {delta}")
    if not 0 < c < math.inf:  # NaN included
        raise TheoryCheckError(f"c must be finite and > 0, got {c}")
    if not 0 < lambda_pp < math.inf:
        raise TheoryCheckError(f"lambda_pp must be finite and > 0, got {lambda_pp}")
    pmin = min(p, 1.0 - p)
    ratio = 2.0 * p / (1.0 + p)
    c3_prime = -math.log(ratio)
    alpha = c * (1.0 - p) * delta ** (d - 1) / (-16.0 * d * math.log(pmin))
    chi = 0.5 * (lambda_pp * (1.0 - p) * delta**d / (-8.0 * math.log(pmin))) ** (1.0 / d)
    return ConstantsReport(p, d, delta, c, lambda_pp, c3_prime, alpha, chi, ratio)


@dataclass(frozen=True)
class CascadeProbeResult:
    sites: tuple[Site, ...]  # y^(0) .. y^(d)
    probabilities: tuple[float, ...]  # P(T(y^(i)) <= delta T(y^(i-1))), i = 1..d
    halfwidths: tuple[float, ...]


def cascade_sites(y: Site) -> tuple[Site, ...]:
    """y^(0) = y, y^(i) zeroes the first i coordinates, y^(d) = origin."""
    d = len(y)
    return tuple((0,) * i + y[i:] for i in range(d + 1))


def fk_cascade_probe(
    params: ModelParams,
    spec: MeasureSpec,
    y: Site,
    delta: float,
    t: float,
    n: int,
    window: Window,
    seed: int,
) -> CascadeProbeResult:
    """Empirical probabilities of the occupation-time cascade along y^(0)..y^(d)."""
    if not (0.0 < delta < 1.0):
        raise TheoryCheckError(f"delta must lie in (0,1), got {delta}")
    if any(c > 0 for c in y):
        raise TheoryCheckError(f"y must lie in the lower-left orthant, got {y}")
    sites = cascade_sites(y)
    if any(s not in window for s in sites):
        raise TheoryCheckError("cascade sites must lie inside the window")
    counts = np.zeros(params.d, dtype=np.int64)
    for _, batch in replica_batches(params, spec, window, t, seed, "fk", n):
        occ = np.array([batch.occupation_time(s, t) for s in sites])  # (d + 1, R)
        counts += (occ[1:] <= delta * occ[:-1]).sum(axis=1)
    probs = tuple(float(k) / n for k in counts)
    halfwidths = tuple(wilson_halfwidth(int(k), n) for k in counts)
    return CascadeProbeResult(sites, probs, halfwidths)
