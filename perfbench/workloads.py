"""The four benchmark workloads: east-lab configs and checks of their outputs.

Every check compares an output with an exact reference or with a bound that
holds in law, so a change of random streams that keeps the dynamics' law
passes; no check hashes sampled bytes.  A check returns None when it passes
and a one-line reason when it fails.

This module imports only the standard library at load time, so that the
worker can time ``import eastlab.cli`` from a cold start.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
GAP_REFERENCE = os.path.join(HERE, "gap_reference.json")

Check = Callable[[str, object], Optional[str]]
RunCheck = Callable[[list[str], object], Optional[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # east-lab config text without seed and out
    units: int  # simulate calls (gap solves on gap-1d) per east-lab run
    checks: tuple[tuple[str, Check], ...]  # on each east-lab run's output directory
    reference: Callable[[object], object]  # parsed config -> what the checks compare with
    run_checks: tuple[tuple[str, RunCheck], ...] = ()  # on all output directories of a run
    calibration: str = "interpreter"  # the reference in calibrate.py that tracks host speed


def _read_rows(path: str) -> list[list[str]]:
    """Data rows of a CSV with an optional '# manifest' line and a header."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _series(path: str) -> tuple[list[float], list[float], list[float]]:
    rows = _read_rows(path)
    return ([float(r[0]) for r in rows], [float(r[1]) for r in rows], [float(r[2]) for r in rows])


def check_manifest(out: str, ref: object) -> Optional[str]:
    """status = ok, and every listed checksum matches its file."""
    import hashlib

    with open(os.path.join(out, "manifest.txt")) as fh:
        entries = dict(ln.split(" = ", 1) for ln in fh.read().splitlines() if " = " in ln)
    if entries.get("status") != "ok":
        return f"manifest status {entries.get('status')!r}"
    sums = {k[len("sha256."):]: v for k, v in entries.items() if k.startswith("sha256.")}
    if not sums:
        return "manifest lists no outputs"
    for name, digest in sums.items():
        with open(os.path.join(out, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                return f"checksum mismatch on {name}"
    return None


# --- persist-2d-wide --------------------------------------------------------


def check_persistence_bound(out: str, ref: object) -> Optional[str]:
    """F(t) + 3h >= e^{-t}: the target site rings at rate 1, so P(tau > t) >= e^{-t}."""
    times, values, halfwidths = _series(os.path.join(out, "persistence.csv"))
    for t, v, h in zip(times, values, halfwidths):
        if v + 3 * h < math.exp(-t):
            return f"F({t:g}) + 3h = {v + 3 * h:.4g} < e^-t"
    return None


def check_persistence_monotone(out: str, ref: object) -> Optional[str]:
    """F counts runs with no legal ring by t, so it cannot increase."""
    times, values, _ = _series(os.path.join(out, "persistence.csv"))
    for k in range(1, len(values)):
        if values[k] > values[k - 1]:
            return f"F increases between t={times[k - 1]:g} and t={times[k]:g}"
    return None


def check_persistence_fit_pooled(outs: list[str], n: int) -> Optional[str]:
    """The acceptance criterion A4 on the fit (r^2 >= 0.98, 0 < rate <= 1),
    applied to the series pooled over all runs of the benchmark run.

    A single run's replicas are too few for A4's criterion, which A4 applies
    to 10k: resampling 10k simulated replicas, a 400-replica series misses it
    4% of the time, a 2800-replica one 0.05% and a 3200-replica one 0.005%.
    """
    from eastlab.estimators import DecaySeries, default_fit_floor, fit_exponential, wilson_halfwidth

    counts = None
    for out in outs:
        times, values, _ = _series(os.path.join(out, "persistence.csv"))
        k = [round(v * n) for v in values]
        counts = k if counts is None else [a + b for a, b in zip(counts, k)]
    total = n * len(outs)
    series = DecaySeries(
        tuple(times), tuple(k / total for k in counts),
        tuple(wilson_halfwidth(k, total) for k in counts), total, 1,
    )
    fit = fit_exponential(series, default_fit_floor(series))
    if not (fit.r_squared >= 0.98 and 0.0 < fit.rate <= 1.0):
        return f"pooled fit over {total} replicas: rate={fit.rate:.4g} r2={fit.r_squared:.4g}"
    return None


# --- relax-2x2-many -----------------------------------------------------------


def relaxation_reference(cfg) -> dict:
    """E_eta[f(eta_t)] for f = spin at the config's site, exact by uniformization
    on the config's window with its frozen exterior, plus mu(f), ||f - mu(f)||
    and the inner sample size."""
    import numpy as np
    from eastlab.estimators import Observable, observable_mu_and_norm
    from eastlab.exact import build_generator, evolve_expectation
    from eastlab.lattice import Region, site_sub_e

    window, initial, p = cfg.window, cfg.measure.config, cfg.params.p
    sites = sorted(window.sites)
    boundary = {
        y: initial.spin_at(y)
        for x in sites
        for y in (site_sub_e(x, i) for i in range(window.d))
        if y not in window
    }
    gen = build_generator(Region(frozenset(sites)), boundary, p)
    state = sum(initial.spin_at(x) << i for i, x in enumerate(sites))
    target = sites.index(cfg.site)
    fvec = ((np.arange(gen.dim) >> target) & 1).astype(float)
    mu_f, norm = observable_mu_and_norm(Observable.spin(cfg.site), p)
    expect = {t: evolve_expectation(gen, state, fvec, t, tol=1e-12) for t in cfg.times}
    return {"expect": expect, "mu_f": mu_f, "norm": norm, "n_inner": cfg.n_inner}


def check_relaxation_exact(out: str, ref: dict) -> Optional[str]:
    """|value(t) - exact(t)| <= 3 sigma(t) / norm, sigma(t)^2 = q(1-q)/n_inner.

    With q = E[f(eta_t)] and m_o the inner mean of outer draw o, the triangle
    inequality gives |value - exact| <= mean_o |m_o - q| / norm, and by
    Cauchy-Schwarz that exceeds 3 sigma / norm only if sum_o ((m_o - q)/sigma)^2
    exceeds 9 n_outer: a chi-square tail below 1e-9 for n_outer = 6.
    """
    times, values, _ = _series(os.path.join(out, "relaxation.csv"))
    for t, v in zip(times, values):
        q = ref["expect"][t]
        exact = abs(q - ref["mu_f"]) / ref["norm"]
        tol = 3.0 * math.sqrt(q * (1.0 - q) / ref["n_inner"]) / ref["norm"]
        if abs(v - exact) > tol:
            return f"relaxation({t:g}) = {v:.5f}, exact {exact:.5f}, tolerance {tol:.5f}"
    return None


# --- lemma-2d ------------------------------------------------------------------


def replica_count(cfg) -> int:
    return cfg.n


def check_lemma_rows(out: str, n: int) -> Optional[str]:
    """One row per replica, and a path wherever the hypothesis held."""
    rows = _read_rows(os.path.join(out, "lemma.csv"))
    if len(rows) != n:
        return f"{len(rows)} rows for {n} replicas"
    for r in rows:
        if r[3] == "1" and r[4] != "1":
            return f"hypothesis held without a path (seed {r[0]})"
    return None


# --- gap-1d ---------------------------------------------------------------------


def gap_reference(cfg) -> dict[int, float]:
    with open(GAP_REFERENCE) as fh:
        table = json.load(fh)
    if float(table["p"]) != cfg.params.p:
        raise ValueError(f"gap reference is for p={table['p']}, config has p={cfg.params.p}")
    return {int(n): float(g) for n, g in table["gaps"].items()}


def check_gap_table(out: str, ref: dict[int, float]) -> Optional[str]:
    """Each gap within 1e-8 relative of the committed table."""
    rows = _read_rows(os.path.join(out, "gap.csv"))
    if sorted(int(r[0]) for r in rows) != sorted(ref):
        return f"gap.csv covers N={[r[0] for r in rows]}, reference N={sorted(ref)}"
    for n, g in ((int(r[0]), float(r[1])) for r in rows):
        if abs(g - ref[n]) > 1e-8 * abs(ref[n]):
            return f"gap(N={n}) = {g!r}, reference {ref[n]!r}"
    return None


def check_gap_monotone(out: str, ref: object) -> Optional[str]:
    """Adding a site to the chain cannot raise the gap."""
    rows = sorted((int(r[0]), float(r[1])) for r in _read_rows(os.path.join(out, "gap.csv")))
    for (n0, g0), (n1, g1) in zip(rows, rows[1:]):
        if g1 > g0:
            return f"gap rises from N={n0} to N={n1}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "persist-2d-wide",
            "kind = persistence\nd = 2\np = 0.5\nwindow_lower = -10 -10\nwindow_upper = 1 1\n"
            "measure = bernoulli 0.5\nsite = 1 1\ntimes = 1 2 3 4 5 6 7 8 9 10\nn = 100\n",
            units=100,
            checks=(
                ("manifest", check_manifest),
                ("persistence_bound", check_persistence_bound),
                ("persistence_monotone", check_persistence_monotone),
            ),
            reference=replica_count,
            run_checks=(("persistence_fit_pooled", check_persistence_fit_pooled),),
        ),
        Workload(
            "relax-2x2-many",
            "kind = relaxation\nd = 2\np = 0.5\nwindow_lower = 0 0\nwindow_upper = 1 1\n"
            "exterior = 1\nmeasure = delta-zeros 0 0\nsite = 1 1\ntimes = 1 2 3 4 5 6 7 8\n"
            "n_outer = 6\nn_inner = 500\n",
            units=6 * 500,
            checks=(("manifest", check_manifest), ("relaxation_exact", check_relaxation_exact)),
            reference=relaxation_reference,
        ),
        Workload(
            "lemma-2d",
            "kind = verify-lemma\nd = 2\np = 0.5\nalpha = 0.1\nt = 10\nwindow_lower = -4 -4\n"
            "window_upper = 0 0\nexterior = 0\nmeasure = delta-zeros 0 0\nsite = 0 0\nn = 300\n",
            units=300,
            checks=(("manifest", check_manifest), ("lemma_rows", check_lemma_rows)),
            reference=replica_count,
        ),
        Workload(
            "gap-1d",
            "kind = gap\np = 0.5\nN = 11 12 13\n",
            units=3,
            checks=(
                ("manifest", check_manifest),
                ("gap_table", check_gap_table),
                ("gap_monotone", check_gap_monotone),
            ),
            reference=gap_reference,
            calibration="lapack",
        ),
    )
}
