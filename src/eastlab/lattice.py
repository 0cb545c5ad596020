"""Lattice primitives: sites, regions, windows, configurations, the East constraint.

Sites are plain tuples of ints.  The infinite lattice is truncated to a finite
Window; spins outside the window are frozen for all time (a constant default
value, optionally with a finite set of per-site overrides so that e.g. a single
boundary neighbor can be pinned at zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterator, Mapping, Union

import numpy as np

Site = tuple[int, ...]

MAX_WINDOW_SITES = 2**31


class LatticeError(ValueError):
    pass


class BlockedMeasureError(LatticeError):
    """Raised when a measure cannot satisfy the exponential all-ones bound."""


@dataclass(frozen=True)
class ModelParams:
    """Dimension and update probability of the dynamics."""

    d: int
    p: float

    def __post_init__(self):
        if self.d < 1:
            raise LatticeError(f"d must be >= 1, got {self.d}")
        if not (0.0 < self.p < 1.0):
            raise LatticeError(f"p must lie in (0,1), got {self.p}")


def site_sub_e(x: Site, i: int) -> Site:
    """x - e_i (0-based direction index)."""
    return x[:i] + (x[i] - 1,) + x[i + 1 :]


@dataclass(frozen=True)
class Region:
    """A finite set of sites with a human-readable descriptor."""

    sites: frozenset[Site]
    descriptor: str = "Explicit"

    def __contains__(self, x: Site) -> bool:
        return x in self.sites

    def __len__(self) -> int:
        return len(self.sites)

    def sorted_sites(self) -> list[Site]:
        return sorted(self.sites)


def build_lambda_region(r: float, d: int) -> Region:
    """The box {0..floor(r)}^d minus the origin."""
    if r < 0:
        raise LatticeError(f"r must be >= 0, got {r}")
    if d < 1:
        raise LatticeError(f"d must be >= 1, got {d}")
    m = math.floor(r)
    sites = frozenset(s for s in product(range(m + 1), repeat=d) if any(c != 0 for c in s))
    return Region(sites, f"LambdaBox({r})")


@dataclass(frozen=True)
class Window:
    """Finite product box {lower_1..upper_1} x ... x {lower_d..upper_d}."""

    lower: Site
    upper: Site

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise LatticeError("lower/upper dimension mismatch")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise LatticeError(f"window lower {self.lower} exceeds upper {self.upper}")
        if self.site_count() > MAX_WINDOW_SITES:
            raise LatticeError("window exceeds the 2^31 site cap")

    @property
    def d(self) -> int:
        return len(self.lower)

    def site_count(self) -> int:
        n = 1
        for lo, hi in zip(self.lower, self.upper):
            n *= hi - lo + 1
        return n

    @cached_property
    def sites(self) -> tuple[Site, ...]:
        """All window sites in lexicographic order."""
        return tuple(product(*(range(lo, hi + 1) for lo, hi in zip(self.lower, self.upper))))

    def __contains__(self, x: Site) -> bool:
        return len(x) == self.d and all(
            lo <= c <= hi for c, lo, hi in zip(x, self.lower, self.upper)
        )

    def index(self, x: Site) -> int:
        """Lexicographic index of a window site."""
        if x not in self:
            raise LatticeError(f"site {x} not in window")
        idx = 0
        for c, lo, hi in zip(x, self.lower, self.upper):
            idx = idx * (hi - lo + 1) + (c - lo)
        return idx

    def contains_window(self, other: "Window") -> bool:
        return all(a <= b for a, b in zip(self.lower, other.lower)) and all(
            a <= b for a, b in zip(other.upper, self.upper)
        )


@dataclass(frozen=True)
class Configuration:
    """Spins on a window plus a frozen-exterior rule.

    ``spins`` is aligned with ``window.sites`` order.  ``exterior`` is the
    frozen spin for every site outside the window, except the finitely many
    sites listed in ``exterior_overrides``.
    """

    window: Window
    spins: tuple[int, ...]
    exterior: int = 1
    exterior_overrides: Mapping[Site, int] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.spins) != self.window.site_count():
            raise LatticeError("spins length must equal window site count")
        if self.exterior not in (0, 1):
            raise LatticeError("exterior spin must be 0 or 1")
        if any(s not in (0, 1) for s in self.spins):
            raise LatticeError("spins must be 0 or 1")
        for x, s in self.exterior_overrides.items():
            if x in self.window:
                raise LatticeError(f"override site {x} lies inside the window")
            if s not in (0, 1):
                raise LatticeError("override spins must be 0 or 1")

    def spin_at(self, x: Site) -> int:
        if x in self.window:
            return self.spins[self.window.index(x)]
        return self.exterior_overrides.get(x, self.exterior)

    def with_spins(self, spins: tuple[int, ...]) -> "Configuration":
        return Configuration(self.window, spins, self.exterior, dict(self.exterior_overrides))

    @staticmethod
    def all_ones(window: Window, exterior: int = 1, overrides=None) -> "Configuration":
        return Configuration(window, (1,) * window.site_count(), exterior, overrides or {})

    @staticmethod
    def with_zeros(window: Window, zeros, exterior: int = 1, overrides=None) -> "Configuration":
        """All ones except spin zero at the given window sites."""
        spins = [1] * window.site_count()
        for z in zeros:
            spins[window.index(z)] = 0
        return Configuration(window, tuple(spins), exterior, overrides or {})


def spin_at_site(config: Configuration, x: Site) -> int:
    return config.spin_at(x)


def east_constraint(config: Configuration, x: Site) -> bool:
    """True iff some neighbor x - e_i has spin 0."""
    return any(config.spin_at(site_sub_e(x, i)) == 0 for i in range(len(x)))


@dataclass(frozen=True)
class ProductBernoulli:
    """I.i.d. Bernoulli(q) spins on the window, exterior frozen at 1."""

    q: float

    def __post_init__(self):
        if not (0.0 <= self.q < 1.0):
            raise LatticeError(f"Bernoulli parameter must lie in [0,1), got {self.q}")


@dataclass(frozen=True)
class Delta:
    """Point mass on a fixed configuration."""

    config: Configuration


MeasureSpec = Union[ProductBernoulli, Delta]


def sample_initial(spec: MeasureSpec, window: Window, rng: np.random.Generator) -> Configuration:
    """Draw an initial configuration on the window from the given measure."""
    if isinstance(spec, ProductBernoulli):
        u = rng.random(window.site_count())
        spins = tuple(int(v) for v in (u < spec.q))
        return Configuration(window, spins, exterior=1)
    if isinstance(spec, Delta):
        stored = spec.config
        if not stored.window.contains_window(window):
            raise LatticeError("Delta configuration window does not contain the requested window")
        spins = tuple(stored.spin_at(x) for x in window.sites)
        overrides = {
            x: s for x, s in stored.exterior_overrides.items() if x not in window
        }
        # stored window sites that fall outside the restricted window keep
        # their spins through overrides, so the restriction is exact
        for x in stored.window.sites:
            if x not in window and stored.spin_at(x) != stored.exterior:
                overrides[x] = stored.spin_at(x)
        return Configuration(window, spins, stored.exterior, overrides)
    raise LatticeError(f"unknown measure spec {spec!r}")


def _delta_zero_scale(config: Configuration) -> int | None:
    """Smallest integer m such that {-m..0}^d contains a zero of config.

    Returns None if no box in the lower-left orthant ever contains a zero.
    """
    d = config.window.d
    extent = max((abs(c) for c in config.window.lower), default=0)
    extent = max(
        extent,
        max((max(abs(c) for c in x) for x in config.exterior_overrides), default=0),
    )
    for m in range(extent + 2):
        for x in product(range(-m, 1), repeat=d):
            if config.spin_at(x) == 0:
                return m
    return None


def condition_C_params(spec: MeasureSpec) -> tuple[float, float]:
    """Constants (a, A) with nu(all ones on {-floor(l)..0}^d) <= A e^{-a l}.

    One valid certificate is returned, not the optimal one.  Raises
    BlockedMeasureError for measures concentrated on blocked configurations.
    """
    if isinstance(spec, ProductBernoulli):
        if spec.q == 0.0:
            return 1.0, 1.0
        # the box has (floor(l)+1)^d >= l sites, so q^sites <= e^{l ln q}
        return -math.log(spec.q), 1.0
    if isinstance(spec, Delta):
        m = _delta_zero_scale(spec.config)
        if m is None:
            raise BlockedMeasureError("Delta measure has no zero in the lower-left orthant")
        return 1.0, math.exp(m)
    raise LatticeError(f"unknown measure spec {spec!r}")


def all_ones_probability(spec: MeasureSpec, ell: float, d: int) -> float:
    """Exact nu(all spins 1 on {-floor(ell)..0}^d); used as the oracle for (a, A)."""
    m = math.floor(ell)
    if isinstance(spec, ProductBernoulli):
        return spec.q ** ((m + 1) ** d)
    if isinstance(spec, Delta):
        for x in product(range(-m, 1), repeat=d):
            if spec.config.spin_at(x) == 0:
                return 0.0
        return 1.0
    raise LatticeError(f"unknown measure spec {spec!r}")


# --- text serialization -------------------------------------------------

def config_to_text(config: Configuration, params: ModelParams) -> str:
    """Header "d p window_lower window_upper exterior", one line per site."""
    w = config.window
    head = " ".join(
        [str(params.d), repr(params.p)]
        + [str(c) for c in w.lower]
        + [str(c) for c in w.upper]
        + [str(config.exterior)]
    )
    lines = [head]
    for x in w.sites:
        lines.append(" ".join(str(c) for c in x) + f" {config.spin_at(x)}")
    for x in sorted(config.exterior_overrides):
        lines.append("ext " + " ".join(str(c) for c in x) + f" {config.exterior_overrides[x]}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> tuple[ModelParams, Configuration]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    d = int(head[0])
    p = float(head[1])
    lower = tuple(int(c) for c in head[2 : 2 + d])
    upper = tuple(int(c) for c in head[2 + d : 2 + 2 * d])
    exterior = int(head[2 + 2 * d])
    window = Window(lower, upper)
    spins = [0] * window.site_count()
    overrides: dict[Site, int] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "ext":
            overrides[tuple(int(c) for c in parts[1 : 1 + d])] = int(parts[1 + d])
        else:
            x = tuple(int(c) for c in parts[:d])
            spins[window.index(x)] = int(parts[d])
    return ModelParams(d, p), Configuration(window, tuple(spins), exterior, overrides)
