"""Outside-in tracer: spans around the names each eastlab layer looks up from
the layer below, installed only for the traced run.

Nothing under src/ changes.  A hook replaces a module global or a class
attribute with a timing wrapper, so a call is traced exactly when the caller
resolves the name at call time.  A span's self time is its duration minus the
duration of the spans it encloses; summed over all spans below the root
``cli.main`` span, self times add up to the root's duration.  A hook whose
name no longer exists is reported as not observed instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict
from typing import Callable, Optional

LAYERS = ("lattice", "streams", "sim", "estimators", "exact", "theory", "cli")
LOG_QUERIES = ("spin_at_time", "occupation_time", "first_update_time", "updated_set", "_events_at")
GAP_SIZES = (11, 12, 13)

# (module, attribute path, span name); the layer is the span name's first part
HOOKS: tuple[tuple[str, str, str], ...] = (
    ("eastlab.sim", "site_generator", "streams.site_generator"),
    *(
        (f"eastlab.{mod}", name, "streams.derive")
        for mod in ("cli", "estimators", "theory")
        for name in ("derive_seed", "derived_generator")
    ),
    *((f"eastlab.{mod}", "sample_initial", "lattice.sample_initial") for mod in ("cli", "estimators", "theory")),
    *((f"eastlab.{mod}", "simulate", "sim.simulate") for mod in ("cli", "estimators", "theory")),
    *(("eastlab.sim", f"EventLog.{q}", "sim.log_query") for q in LOG_QUERIES),
    ("eastlab.cli", "estimate_persistence", "estimators.estimate"),
    ("eastlab.cli", "estimate_relaxation", "estimators.estimate"),
    ("eastlab.cli", "default_fit_floor", "estimators.fit"),
    ("eastlab.cli", "fit_exponential", "estimators.fit"),
    ("eastlab.cli", "verify_oriented_path_lemma", "theory.verify"),
    ("eastlab.cli", "validate_path", "theory.validate"),
    ("eastlab.cli", "east1d_gap", "exact.east1d_gap"),
    ("eastlab.exact", "Generator._build", "exact.build"),
    ("eastlab.exact", "Generator.mu", "exact.mu"),
    ("eastlab.exact", "spectral_gap", "exact.gap"),
)


class Tracer:
    """In-memory span aggregates: self time and calls per span name, plus the
    counters that the result observers below add."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.replica_s: list[float] = []
        self.gap_s: dict[int, float] = defaultdict(float)
        self._stack: list[float] = []  # child time accumulated by each open span

    def span(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        stack, self_s, calls, clock = self._stack, self.self_s, self.calls, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                self_s[name] += dur - child
                calls[name] += 1
            if observe is not None:
                observe(self, args, result, dur)
            return result

        return wrapper


def _observe_simulate(tr: Tracer, args, log, dur: float) -> None:
    tr.counts["rings"] += len(log)
    tr.counts["legal_rings"] += log.n_legal()
    tr.replica_s.append(dur)


def _observe_build(tr: Tracer, args, rates, dur: float) -> None:
    tr.counts["states"] += rates.shape[0]
    tr.counts["nnz"] += rates.nnz


def _observe_verify(tr: Tracer, args, res, dur: float) -> None:
    tr.counts["hypothesis_held"] += bool(res.hypothesis_held)
    tr.counts["paths_found"] += bool(res.found)


def _observe_gap(tr: Tracer, args, gap, dur: float) -> None:
    tr.gap_s[int(args[1])] += dur


OBSERVERS = {
    "sim.simulate": _observe_simulate,
    "exact.build": _observe_build,
    "theory.verify": _observe_verify,
    "exact.east1d_gap": _observe_gap,
}


class Hooks:
    """Context manager installing ``hooks`` on ``tracer``; ``missing`` lists the
    hooked names that do not exist, and ``observed`` the layers with a hook."""

    def __init__(self, tracer: Tracer, hooks=HOOKS):
        self.tracer = tracer
        self.hooks = hooks
        self.missing: list[str] = []
        self.observed: set[str] = {"cli"}
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Hooks":
        for mod_name, path, span_name in self.hooks:
            owner = importlib.import_module(mod_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.append(f"{mod_name}.{path}")
                continue
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.tracer.span(span_name, original, OBSERVERS.get(span_name)))
            self.observed.add(span_name.split(".")[0])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_metrics(tr: Tracer, runs: int) -> dict[str, float]:
    """Per-layer figures per east-lab run (totals divided by ``runs``)."""
    per = 1.0 / max(runs, 1)

    def self_of(*names: str) -> float:
        return per * sum(tr.self_s[n] for n in names)

    layer_self = defaultdict(float)
    for name, s in tr.self_s.items():
        layer_self[name.split(".")[0]] += s * per
    rings = tr.counts["rings"]
    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m.update(
        {
            "lattice.sample_initial.calls": per * tr.calls["lattice.sample_initial"],
            "lattice.sample_initial.self_s": self_of("lattice.sample_initial"),
            "streams.site_generator.calls": per * tr.calls["streams.site_generator"],
            "streams.site_generator.self_s": self_of("streams.site_generator"),
            "streams.derive.calls": per * tr.calls["streams.derive"],
            "streams.derive.self_s": self_of("streams.derive"),
            "sim.simulate.calls": per * tr.calls["sim.simulate"],
            "sim.simulate.self_s": self_of("sim.simulate"),
            "sim.rings": per * rings,
            "sim.legal_rings": per * tr.counts["legal_rings"],
            "sim.legal_ratio": tr.counts["legal_rings"] / rings if rings else 0.0,
            "sim.replica_ms_p50": 1e3 * _percentile(tr.replica_s, 50),
            "sim.replica_ms_p99": 1e3 * _percentile(tr.replica_s, 99),
            "sim.log_query.calls": per * tr.calls["sim.log_query"],
            "sim.log_query.self_s": self_of("sim.log_query"),
            "estimators.fit.self_s": self_of("estimators.fit"),
            "exact.build.self_s": self_of("exact.build"),
            "exact.mu.self_s": self_of("exact.mu"),
            "exact.gap.self_s": self_of("exact.gap"),
            **{f"exact.gap_s.N{n}": per * tr.gap_s[n] for n in GAP_SIZES},
            "exact.states": per * tr.counts["states"],
            "exact.nnz": per * tr.counts["nnz"],
            "theory.verify.self_s": self_of("theory.verify"),
            "theory.validate.self_s": self_of("theory.validate"),
            "theory.hypothesis_held": per * tr.counts["hypothesis_held"],
            "theory.paths_found": per * tr.counts["paths_found"],
        }
    )
    return m
