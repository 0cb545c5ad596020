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
from typing import Mapping, Sequence, Union

import numpy as np

from .streams import ring_draws, site_key

Site = tuple[int, ...]

MAX_WINDOW_SITES = 2**31


class LatticeError(ValueError):
    pass


def _integer(v) -> bool:
    """Whether v is an integer: a numpy integer is, a bool or a float is not."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class ModelParams:
    """Dimension and update probability of the dynamics."""

    d: int
    p: float

    def __post_init__(self):
        if not _integer(self.d) or self.d < 1:
            raise LatticeError(f"d must be an integer >= 1, got {self.d!r}")
        if not (0.0 < self.p < 1.0):
            raise LatticeError(f"p must lie in (0,1), got {self.p}")


def site_sub_e(x: Site, i: int) -> Site:
    """x - e_i (0-based direction index)."""
    return x[:i] + (x[i] - 1,) + x[i + 1 :]


@dataclass(frozen=True)
class Region:
    """A finite set of sites."""

    sites: frozenset[Site]

    def __contains__(self, x: Site) -> bool:
        return x in self.sites

    def __len__(self) -> int:
        return len(self.sites)


@dataclass(frozen=True)
class Window:
    """Finite product box {lower_1..upper_1} x ... x {lower_d..upper_d}."""

    lower: Site
    upper: Site

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise LatticeError("lower/upper dimension mismatch")
        if not all(map(_integer, (*self.lower, *self.upper))):
            raise LatticeError(f"window bounds must be integers, got {self.lower} and {self.upper}")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise LatticeError(f"window lower {self.lower} exceeds upper {self.upper}")
        if self.site_count() > MAX_WINDOW_SITES:
            raise LatticeError("window exceeds the 2^31 site cap")

    @property
    def d(self) -> int:
        return len(self.lower)

    @property
    def _extent(self) -> list[int]:
        return [hi - lo + 1 for lo, hi in zip(self.lower, self.upper)]

    def site_count(self) -> int:
        return math.prod(self._extent)

    @cached_property
    def sites(self) -> tuple[Site, ...]:
        """All window sites in lexicographic order."""
        return tuple(map(tuple, (self.grid.T + self.lower).tolist()))

    @cached_property
    def grid(self) -> np.ndarray:
        """(d, n) offsets of the sites from the lower corner, in site order."""
        return np.indices(self._extent).reshape(self.d, -1)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Per axis i, how far x - e_i lies before x in site order."""
        return tuple(math.prod(self._extent[i + 1:]) for i in range(self.d))

    @cached_property
    def site_keys(self) -> np.ndarray:
        """Stream key (``streams.site_key``) of each site, in site order."""
        return site_key(self.grid + np.array(self.lower, dtype=np.int64)[:, None])

    def __contains__(self, x: Site) -> bool:
        return len(x) == self.d and all(
            lo <= c <= hi for c, lo, hi in zip(x, self.lower, self.upper)
        )

    def index(self, x: Site) -> int:
        """Lexicographic index of a window site."""
        if x not in self:
            raise LatticeError(f"site {x} not in window")
        return sum(s * (c - lo) for s, c, lo in zip(self.strides, x, self.lower))

    def contains_window(self, other: "Window") -> bool:
        return all(a <= b for a, b in zip(self.lower, other.lower)) and all(
            a <= b for a, b in zip(other.upper, self.upper)
        )


@dataclass(frozen=True)
class Exterior:
    """The frozen-exterior rule of a window, shared by a whole replica batch: every
    site outside the window holds ``spin``, except the finitely many ``overrides``."""

    window: Window
    spin: int
    overrides: Mapping[Site, int]

    def __post_init__(self):
        if not _integer(self.spin) or self.spin not in (0, 1):
            raise LatticeError(f"exterior spin must be 0 or 1, got {self.spin!r}")
        for x, s in self.overrides.items():
            if len(x) != self.window.d:
                raise LatticeError(f"override site {x} is not {self.window.d}-dimensional")
            if x in self.window:
                raise LatticeError(f"override site {x} lies inside the window")
            if not _integer(s) or s not in (0, 1):
                raise LatticeError(f"override spins must be 0 or 1, got {s!r}")

    def configuration(self, spins) -> "Configuration":
        """The configuration with these window spins (window site order)."""
        spins = tuple(np.asarray(spins).tolist())
        return Configuration(self.window, spins, self.spin, self.overrides)


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
        if any(s not in (0, 1) for s in self.spins):
            raise LatticeError("spins must be 0 or 1")
        self.rule  # validates the exterior

    @property
    def rule(self) -> Exterior:
        return Exterior(self.window, self.exterior, self.exterior_overrides)

    def spin_at(self, x: Site) -> int:
        if x in self.window:
            return self.spins[self.window.index(x)]
        return self.exterior_overrides.get(x, self.exterior)

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


def east_constraint(config: Configuration, x: Site) -> bool:
    """True iff some neighbor x - e_i has spin 0."""
    return any(config.spin_at(site_sub_e(x, i)) == 0 for i in range(len(x)))


@dataclass(frozen=True)
class ProductBernoulli:
    """I.i.d. Bernoulli(q) spins on the window, exterior frozen at ``exterior``."""

    q: float
    exterior: int = 1

    def __post_init__(self):
        if not (0.0 <= self.q < 1.0):
            raise LatticeError(f"Bernoulli parameter must lie in [0,1), got {self.q}")


@dataclass(frozen=True)
class Delta:
    """Point mass on a fixed configuration."""

    config: Configuration


MeasureSpec = Union[ProductBernoulli, Delta]


def bernoulli_weights(n: int, p: float) -> np.ndarray:
    """Product Bernoulli(p) weights of the 2^n bitmask states (bit i = spin of site i)."""
    pop = np.bitwise_count(np.arange(1 << n, dtype=np.int64))
    return p**pop * (1.0 - p) ** (n - pop)


def initial_rows(spec: MeasureSpec, window: Window, key: int,
                 draws: Sequence[int]) -> tuple[Exterior, np.ndarray]:
    """The exterior rule and the (len(draws), sites) int8 spins of these draws
    on the window.  Under Bernoulli(q), site x of draw j is ring j's bit of
    x's stream under ``key`` (``ring_draws``, one block per (draw, site)): 1
    iff that block's bit uniform is below q, whatever the other sites and
    draws.  A Delta measure broadcasts one row."""
    n = window.site_count()
    if isinstance(spec, ProductBernoulli):
        m = len(draws)
        _, bits = ring_draws(np.full(n * m, np.uint64(key)), np.tile(window.site_keys, m),
                             np.repeat(np.asarray(draws, dtype=np.uint64), n), 1, spec.q)
        return Exterior(window, spec.exterior, {}), bits.view(np.int8).reshape(m, n)
    if isinstance(spec, Delta):
        stored = spec.config
        if not stored.window.contains_window(window):
            raise LatticeError("Delta configuration window does not contain the requested window")
        row = np.array([stored.spin_at(x) for x in window.sites], dtype=np.int8)
        # stored window sites that fall outside the restricted window keep
        # their spins through overrides, so the restriction is exact
        overrides = dict(stored.exterior_overrides)
        overrides.update((x, s) for x, s in zip(stored.window.sites, stored.spins)
                         if s != stored.exterior and x not in window)
        return Exterior(window, stored.exterior, overrides), np.broadcast_to(row, (len(draws), n))
    raise LatticeError(f"unknown measure spec {spec!r}")
