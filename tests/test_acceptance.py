"""Acceptance suite: one test per criterion, one pass/fail line each.

Each test prints "[A<k>] <label>: PASS|FAIL" and then asserts, so the verdicts
survive in captured output either way.  Monte Carlo tolerances are 3 standard
errors unless stated otherwise; exact comparisons use 1e-12.
"""

import math
from itertools import product

import numpy as np
import pytest

from eastlab.exact import build_generator, east1d_gap, evolve_expectation
from eastlab.estimators import (
    Observable,
    default_fit_floor,
    estimate_persistence,
    estimate_relaxation,
    fit_exponential,
)
from eastlab.lattice import (
    Configuration,
    Delta,
    Exterior,
    ModelParams,
    ProductBernoulli,
    Region,
    Window,
    bernoulli_weights,
)
from eastlab.sim import simulate, simulate_batch
from eastlab.streams import derive_seed, derived_generator
from eastlab.theory import certify_paths, compute_constants, oriented_path_check
from oracle import event_loop, off_cone_history


def verdict(tag: str, label: str, ok: bool) -> bool:
    print(f"[{tag}] {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_a1_blocked_invariance():
    ok = True
    for d in (1, 2, 3):
        w = Window((0,) * d, (2,) * d)
        init = Configuration.all_ones(w, exterior=1)
        log = simulate(ModelParams(d, 0.5), init, 100.0, 10 + d)
        ok &= log.legal.sum() == 0 and np.array_equal(log.final_spins(), [init.spins])
        # every site's rings, drawn on read, are there and illegal, also to the event loop
        rings = [log.rings(0, x) for x in w.sites]
        ok &= all(t.size > 0 and not legal.any() for t, _, legal, _ in rings)
        ok &= not any(legal.any() for legal in event_loop(log, 0)[0])
    assert verdict("A1", "blocked all-ones has zero legal updates (d=1,2,3)", ok)


def test_a2_monte_carlo_vs_uniformization():
    p = 0.5
    params = ModelParams(1, p)
    w = Window((1,), (3,))
    init = Configuration.all_ones(w, exterior=0)
    times = (0.5, 1.0, 2.0)
    n = 20_000
    seeds = [derive_seed(202, r) for r in range(n)]
    batch = simulate_batch(params, init.rule, init.spins, times[-1], seeds)
    means = np.array([batch.spin_at_time((3,), t).sum() for t in times]) / n

    gen = build_generator(Region(frozenset({(1,), (2,), (3,)})), {(0,): 0}, p)
    fvec = np.array([float((s >> 2) & 1) for s in range(8)])  # spin of site 3
    ok = True
    for j, t in enumerate(times):
        exact = evolve_expectation(gen, 0b111, fvec, t, tol=1e-12)
        se = math.sqrt(max(means[j] * (1 - means[j]), 1e-12) / n)
        ok &= abs(means[j] - exact) < 3 * se
    assert verdict("A2", "MC spin mean matches uniformization within 3 SE", ok)


def test_a3_stationarity():
    p = 0.3
    d = 2
    params = ModelParams(d, p)
    w = Window((0, 0), (5, 5))
    overrides = {(-1, 0): 0}  # frozen zero at one boundary neighbor
    t = 5.0
    n = 10_000
    n_sites = w.site_count()
    counts = np.zeros(n_sites)
    rule = Exterior(w, 1, overrides)
    for start in range(0, n, 1000):
        rows, seeds = [], []
        for r in range(start, start + 1000):
            rng = derived_generator(303, r)
            rows.append(rng.random(n_sites) < p)
            seeds.append(derive_seed(303, "sim", r))
        counts += simulate_batch(params, rule, rows, t, seeds).final_spins().sum(axis=0)
    freqs = counts / n
    sigma = math.sqrt(p * (1 - p) / n)
    within = np.abs(freqs - p) < 3 * sigma
    ok = within.mean() >= 0.95
    assert verdict(
        "A3", f"stationary spin-1 frequency within 3 sigma at {within.mean():.0%} of sites", ok
    )


def test_a4_persistence_bounds_and_decay():
    params = ModelParams(2, 0.5)
    w = Window((-10, -10), (1, 1))
    times = [float(t) for t in range(1, 11)]
    series = estimate_persistence(
        params, ProductBernoulli(0.5), (1, 1), times, 10_000, w, 404
    )
    bound_ok = all(
        v + 3 * h >= math.exp(-t)
        for t, v, h in zip(series.times, series.values, series.halfwidths)
    )
    fit = fit_exponential(series, default_fit_floor(series))
    fit_ok = fit.r_squared >= 0.98 and 0.0 < fit.rate <= 1.0
    ok = bound_ok and fit_ok
    assert verdict(
        "A4",
        f"persistence >= e^-t and exponential fit (rate={fit.rate:.3f}, r2={fit.r_squared:.4f})",
        ok,
    )


def test_a5_relaxation_decay():
    params = ModelParams(2, 0.5)
    w = Window((0, 0), (1, 1))
    spec = Delta(Configuration.with_zeros(w, [(0, 0)], exterior=1))
    times = [float(t) for t in range(1, 9)]
    series = estimate_relaxation(
        params, spec, Observable.spin((1, 1)), times, 6, 20_000, w, 505
    )
    fit = fit_exponential(series, default_fit_floor(series))
    ok = fit.rate > 0.0 and fit.r_squared >= 0.95
    assert verdict(
        "A5",
        f"relaxation decays exponentially (rate={fit.rate:.3f}, r2={fit.r_squared:.4f})",
        ok,
    )


def test_a6_oriented_path_lemma():
    # criterion batch: alpha = 0.2, t = 10, single zero at the origin
    d, p, alpha, t = 2, 0.5, 0.2, 10.0
    params = ModelParams(d, p)
    radius = math.floor(2 * d * alpha * t)
    w = Window((-radius,) * d, (0,) * d)

    def counterexamples(batch, alpha):
        check = oriented_path_check(batch, t, alpha, (0, 0))
        certified = certify_paths(batch, t, alpha, (0, 0), check)
        failed = (check.hypothesis_held & ~check.found).sum() + (check.found & ~certified).sum()
        return int(failed), int(check.hypothesis_held.sum()), int(check.found.sum())

    init = Configuration.with_zeros(w, [(0, 0)], exterior=1)
    seeds = [derive_seed(606, r) for r in range(1000)]
    batch = simulate_batch(params, init.rule, init.spins, t, seeds)
    failed, _, _ = counterexamples(batch, alpha)
    # supplementary batch with open boundary and a tight box, so the
    # hypothesis-holding branch and the path search are actually exercised
    alpha_s = 0.05
    rad_s = math.floor(2 * d * alpha_s * t)
    ws = Window((-rad_s,) * d, (0,) * d)
    init = Configuration.with_zeros(ws, [(0, 0)], exterior=0)
    seeds = [derive_seed(607, r) for r in range(200)]
    batch = simulate_batch(params, init.rule, init.spins, t, seeds)
    failed_s, held, found = counterexamples(batch, alpha_s)
    ok = failed + failed_s == 0 and held > 0 and found > 0
    assert verdict(
        "A6",
        f"oriented-path lemma: 0 counterexamples in 1200 logs ({found} paths re-validated)",
        ok,
    )


def test_a7_detailed_balance():
    ok = True
    for trial in range(100):
        rng = np.random.default_rng(707 + trial)
        d = int(rng.integers(1, 4))
        box = list(product(range(3), repeat=d))
        rng.shuffle(box)
        sites = frozenset(tuple(s) for s in box[: int(rng.integers(1, 11))])
        boundary = {}
        for x in sites:
            for i in range(d):
                y = x[:i] + (x[i] - 1,) + x[i + 1 :]
                if y not in sites:
                    boundary[y] = int(rng.integers(0, 2))
        p = float(rng.uniform(0.05, 0.95))
        gen = build_generator(Region(sites), boundary, p)
        Q = gen.rates.toarray()
        rows = np.asarray(gen.rates.sum(axis=1)).ravel()
        mu = bernoulli_weights(gen.n, gen.p)
        flux = mu[:, None] * Q
        ok &= np.max(np.abs(rows)) < 1e-12
        ok &= np.max(np.abs(flux - flux.T)) < 1e-12
    assert verdict("A7", "row sums and detailed balance < 1e-12 on 100 random regions", ok)


def test_a8_gap_facts():
    ok = all(abs(east1d_gap(p, 1) - 1.0) < 1e-12 for p in (0.1, 0.5, 0.9))
    gaps = [east1d_gap(0.5, N) for N in range(1, 13)]
    ok &= all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
    ok &= abs(gaps[11] - gaps[10]) < 0.01
    assert verdict(
        "A8",
        f"gap(1)=1, nonincreasing to N=12, increment {abs(gaps[11] - gaps[10]):.2e} < 0.01",
        ok,
    )


def test_a9_cone_measurability():
    params = ModelParams(2, 0.5)
    w = Window((-3, -3), (2, 2))
    x = (0, 0)
    ok = True
    for trial in range(100):
        rng = np.random.default_rng(909 + trial)
        spins = tuple(int(v) for v in rng.integers(0, 2, w.site_count()))
        init = Configuration(w, spins, exterior=1)
        seed = derive_seed(909, trial)
        base = simulate(params, init, 8.0, seed)
        other = simulate(params, init, 8.0, derive_seed(909, trial, "off-cone"))
        pert = off_cone_history(base, other, x)
        ref, got = base.rings(0, x), pert.rings(0, x)
        ok &= np.array_equal(ref[0], got[0]) and np.array_equal(ref[3], got[3])
        off = [y for y in w.sites if not all(c <= xc for c, xc in zip(y, x))]
        ok &= any(not np.array_equal(base.rings(0, y)[0], pert.rings(0, y)[0]) for y in off)
    assert verdict("A9", "trajectory at x unchanged under off-cone ring perturbation", ok)


def test_a10_constants():
    base = compute_constants(0.5, 2, 0.5, 0.1, 0.2)
    ok = abs(base.c3_prime - math.log(1.5)) < 1e-12
    doubled_c = compute_constants(0.5, 2, 0.5, 0.2, 0.2)
    ok &= abs(doubled_c.alpha - 2 * base.alpha) < 1e-12
    doubled_lam = compute_constants(0.5, 2, 0.5, 0.1, 0.4)
    ok &= abs(doubled_lam.chi - 2 ** (1 / 2) * base.chi) < 1e-12
    assert verdict("A10", "c3'(0.5)=ln(1.5) and alpha/chi scalings to 1e-12", ok)


def test_a11_persistence_identity():
    p = 0.3
    params = ModelParams(1, p)
    w = Window((1,), (2,))
    init = Configuration.all_ones(w, exterior=0)
    x = (2,)
    times = (0.5, 1.0, 2.0)
    gen = build_generator(Region(frozenset({(1,), (2,)})), {(0,): 0}, p)
    fvec = np.array([float((s >> 1) & 1) for s in range(4)])
    n = 20_000
    seeds = [derive_seed(1111, r) for r in range(n)]
    batch = simulate_batch(params, init.rule, init.spins, times[-1], seeds)
    tau = batch.first_update_time(x)  # inf where x never updates
    survived = np.array([(tau > t).sum() for t in times])
    ok = True
    for j, t in enumerate(times):
        lhs = abs(evolve_expectation(gen, 0b11, fvec, t, tol=1e-12) - p)
        fhat = survived[j] / n
        rhs = abs(1 - p) * fhat
        sigma = abs(1 - p) * math.sqrt(max(fhat * (1 - fhat), 1e-12) / n)
        ok &= abs(lhs - rhs) < 3 * sigma
    assert verdict("A11", "|E_eta(eta_t(x)) - p| = |eta(x) - p| P(tau_x > t) within 3 sigma", ok)
