"""Mechanical checks of the combinatorial machinery on simulated histories.

The oriented-path check takes a realized event log, computes the set E of
sites updated before t/2 inside the box D, and (when no site of D stayed at
zero throughout [0, t/2]) searches for an oriented path of -e_i steps inside E
from the starting zero down to the outer layer of D.  Failure to find one
would contradict a proven statement and is surfaced as a counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .estimators import replica_batches, wilson_halfwidth
from .lattice import (
    MeasureSpec,
    ModelParams,
    Region,
    Site,
    Window,
    site_sub_e,
)
from .sim import EventLog


class TheoryCheckError(ValueError):
    pass


@dataclass(frozen=True)
class GeometrySet:
    """The boxes D, D' and the diagonal hyperplanes H_k for given (t, alpha, d)."""

    t: float
    alpha: float
    d: int

    @property
    def beta(self) -> float:
        return 2 * self.d * self.alpha

    @property
    def radius(self) -> int:
        """floor(2 d alpha t) = floor(beta t); D = {-radius..0}^d."""
        return math.floor(self.beta * self.t)

    @cached_property
    def D(self) -> Region:
        r = self.radius
        return Region(frozenset(product(range(-r, 1), repeat=self.d)), f"D(t={self.t},alpha={self.alpha})")

    @cached_property
    def D_prime(self) -> Region:
        r = self.radius
        return Region(
            frozenset(product(range(-r + 1, 1), repeat=self.d)),
            f"D'(t={self.t},alpha={self.alpha})",
        )

    def D_fits(self, window: Window) -> bool:
        """D = {-radius..0}^d lies in a window box iff it is empty or both its corners do."""
        r = self.radius
        return r < 0 or ((-r,) * self.d in window and (0,) * self.d in window)

    @property
    def k_max(self) -> int:
        return self.d * self.radius

    def hyperplane(self, k: int) -> frozenset[Site]:
        """H_k = sites of D with coordinate sum -k."""
        if not (0 <= k <= self.k_max):
            raise TheoryCheckError(f"k must lie in 0..{self.k_max}")
        return frozenset(x for x in self.D.sites if sum(x) == -k)

    def outer_layer(self) -> frozenset[Site]:
        """D minus D': sites with some coordinate equal to -radius."""
        r = self.radius
        return frozenset(x for x in self.D.sites if min(x) == -r)


@dataclass(frozen=True)
class PathResult:
    found: bool
    path: tuple[Site, ...]
    hypothesis_held: bool


def verify_oriented_path_lemma(log: EventLog, t: float, alpha: float, x: Site) -> PathResult:
    """If no site of D stayed at zero on [0, t/2], an oriented path in E must
    join x to the outer layer of D; absence of one is a counterexample."""
    geom = GeometrySet(t, alpha, log.params.d)
    small = math.floor(alpha * t)
    if not all(-small <= c <= 0 for c in x):
        raise TheoryCheckError(f"start site {x} outside {{-{small}..0}}^d")
    if t > log.horizon:
        raise TheoryCheckError("t beyond log horizon")
    if not geom.D_fits(log.window):
        raise TheoryCheckError("D does not fit inside the log's window")
    if log.initial_spin(x) != 0:  # x lies in D, so in the window
        raise TheoryCheckError(f"start site {x} must have initial spin 0")

    half = t / 2.0
    if any(log.stays_at(y, 0, half) for y in geom.D.sites):
        return PathResult(found=False, path=(), hypothesis_held=False)

    E = log.updated_set(geom.D, half)
    targets = geom.outer_layer()
    if x not in E:
        return PathResult(found=False, path=(), hypothesis_held=True)
    # BFS over -e_i steps inside E
    parent: dict[Site, Optional[Site]] = {x: None}
    queue = [x]
    hit: Optional[Site] = x if x in targets else None
    while queue and hit is None:
        cur = queue.pop(0)
        for i in range(log.params.d):
            nxt = site_sub_e(cur, i)
            if nxt in E and nxt not in parent:
                parent[nxt] = cur
                if nxt in targets:
                    hit = nxt
                    break
                queue.append(nxt)
    if hit is None:
        return PathResult(found=False, path=(), hypothesis_held=True)
    path = []
    node: Optional[Site] = hit
    while node is not None:
        path.append(node)
        node = parent[node]
    path.reverse()
    return PathResult(found=True, path=tuple(path), hypothesis_held=True)


def validate_path(result: PathResult, log: EventLog, t: float, alpha: float, x: Site) -> bool:
    """Re-check the path invariants independently of the search."""
    if not result.found:
        return False
    geom = GeometrySet(t, alpha, log.params.d)
    path = result.path
    if path[0] != x or path[-1] not in geom.outer_layer():
        return False
    E = log.updated_set(geom.D, t / 2.0)
    if any(y not in E for y in path):
        return False
    for a, b in zip(path, path[1:]):
        diffs = [ai - bi for ai, bi in zip(a, b)]
        if sorted(diffs) != [0] * (len(a) - 1) + [1]:
            return False
    return True


@dataclass(frozen=True)
class HyperplaneProfile:
    u_k: tuple[bool, ...]  # H_k meets the updated set E
    g_k: tuple[bool, ...]  # some site of H_k spends >= (1-p)t/4 at zero


def hyperplane_hit_profile(log: EventLog, geom: GeometrySet) -> HyperplaneProfile:
    if not geom.D_fits(log.window):
        raise TheoryCheckError("D does not fit inside the log's window")
    sites = geom.D.sorted_sites()
    E = log.updated_set(geom.D, geom.t / 2.0)
    threshold = (1.0 - log.params.p) * geom.t / 4.0
    hits = ([y in E for y in sites], log.occupation_times(sites, geom.t) >= threshold)
    plane = -np.sum(sites, axis=1)  # y lies on H_{-sum(y)}
    u, g = (np.bincount(plane, weights=h, minlength=geom.k_max + 1) > 0 for h in hits)
    return HyperplaneProfile(tuple(u.tolist()), tuple(g.tolist()))


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
    if c <= 0:
        raise TheoryCheckError(f"c must be > 0, got {c}")
    if lambda_pp <= 0:
        raise TheoryCheckError(f"lambda_pp must be > 0, got {lambda_pp}")
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
    delta: float
    t: float
    n: int


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
        occ = [batch.occupation_time(s, t) for s in sites]
        for i in range(1, params.d + 1):
            counts[i - 1] += int((occ[i] <= delta * occ[i - 1]).sum())
    probs = tuple(float(k) / n for k in counts)
    halfwidths = tuple(wilson_halfwidth(int(k), n) for k in counts)
    return CascadeProbeResult(sites, probs, halfwidths, delta, t, n)
