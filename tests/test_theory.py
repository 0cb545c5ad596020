import math
from itertools import product

import numpy as np
import pytest

from eastlab.lattice import (
    Configuration,
    Delta,
    ModelParams,
    ProductBernoulli,
    Window,
    sample_initial,
)
from eastlab.sim import simulate
from eastlab.streams import derive_seed, derived_generator
from eastlab.theory import (
    CascadeProbeResult,
    GeometrySet,
    TheoryCheckError,
    cascade_sites,
    compute_constants,
    fk_cascade_probe,
    hyperplane_hit_profile,
    validate_path,
    verify_oriented_path_lemma,
)


class TestGeometry:
    def test_boxes(self):
        geom = GeometrySet(t=10.0, alpha=0.2, d=2)
        assert geom.radius == 8
        assert len(geom.D) == 81
        assert len(geom.D_prime) == 64
        assert geom.D_prime.sites < geom.D.sites

    def test_hyperplanes_partition_d(self):
        geom = GeometrySet(t=5.0, alpha=0.3, d=2)
        seen = set()
        total = 0
        for k in range(geom.k_max + 1):
            hk = geom.hyperplane(k)
            assert not (hk & seen)
            seen |= hk
            total += len(hk)
        assert seen == geom.D.sites
        assert total == len(geom.D)

    def test_outer_layer(self):
        geom = GeometrySet(t=10.0, alpha=0.2, d=2)
        layer = geom.outer_layer()
        assert layer == geom.D.sites - geom.D_prime.sites
        assert all(min(x) == -geom.radius for x in layer)

    @pytest.mark.parametrize("t, alpha", [(10.0, 0.2), (2.0, 0.1), (1.0, 0.0), (1.0, -0.3)])
    def test_d_fits_matches_site_scan(self, t, alpha):
        geom = GeometrySet(t, alpha, 2)
        r = geom.radius
        for lower, upper in product((-r - 1, -r, -r + 1), (-1, 0, 1)):
            if lower <= upper:
                w = Window((lower, -r - 1), (upper, 2))
                assert geom.D_fits(w) == all(y in w for y in geom.D.sites)


def active_log(seed, t=8.0, alpha=0.25, d=2, p=0.5):
    """Log on a window covering D with frozen zeros outside: ergodic dynamics."""
    geom = GeometrySet(t, alpha, d)
    r = geom.radius
    w = Window((-r,) * d, (0,) * d)
    init = Configuration.with_zeros(w, [(0,) * d], exterior=0)
    return simulate(ModelParams(d, p), init, t, seed), geom


class TestOrientedPathLemma:
    def test_precondition_spin(self):
        log, geom = active_log(1)
        # start site must carry spin zero initially
        with pytest.raises(TheoryCheckError):
            verify_oriented_path_lemma(log, geom.t, geom.alpha, (-1, 0))

    def test_precondition_box(self):
        log, geom = active_log(2)
        with pytest.raises(TheoryCheckError):
            verify_oriented_path_lemma(log, geom.t, geom.alpha, (-geom.radius, 0))

    def test_window_too_small(self):
        params = ModelParams(2, 0.5)
        w = Window((-1, -1), (0, 0))
        init = Configuration.with_zeros(w, [(0, 0)], exterior=0)
        log = simulate(params, init, 8.0, 3)
        with pytest.raises(TheoryCheckError):
            verify_oriented_path_lemma(log, 8.0, 0.25, (0, 0))

    def test_frozen_zero_voids_hypothesis(self):
        # single zero with all-ones exterior can never be updated, so some
        # site of D stays at zero and the lemma hypothesis is void
        t, alpha, d = 10.0, 0.2, 2
        geom = GeometrySet(t, alpha, d)
        r = geom.radius
        w = Window((-r - 1,) * d, (1,) * d)
        init = Configuration.with_zeros(w, [(-1, -1)], exterior=1)
        log = simulate(ModelParams(d, 0.5), init, t, 5)
        res = verify_oriented_path_lemma(log, t, alpha, (-1, -1))
        assert not res.hypothesis_held
        assert not res.found
        assert res.path == ()

    @pytest.mark.parametrize("seed", range(60))
    def test_no_counterexamples_on_active_logs(self, seed):
        # ergodic setting: whenever the hypothesis holds a path must exist
        log, geom = active_log(derive_seed(400, seed), alpha=0.08)
        res = verify_oriented_path_lemma(log, geom.t, geom.alpha, (0, 0))
        if res.hypothesis_held:
            assert res.found, "counterexample to a proven statement"
            assert validate_path(res, log, geom.t, geom.alpha, (0, 0))

    def test_some_active_logs_hold_hypothesis(self):
        # small alpha keeps D close to the origin so the zero front can
        # clear it before t/2, exercising the hypothesis-holding branch
        held = 0
        for seed in range(40):
            log, geom = active_log(derive_seed(700, seed), alpha=0.08)
            res = verify_oriented_path_lemma(log, geom.t, geom.alpha, (0, 0))
            held += res.hypothesis_held
        assert held > 0

    def test_path_consistency_with_hyperplanes(self):
        # a found path forces E to meet every H_k between d*floor(alpha t)
        # and floor(beta t)
        found = 0
        for seed in range(40):
            log, geom = active_log(derive_seed(900, seed), alpha=0.08)
            res = verify_oriented_path_lemma(log, geom.t, geom.alpha, (0, 0))
            if res.found:
                found += 1
                profile = hyperplane_hit_profile(log, geom)
                lo = geom.d * math.floor(geom.alpha * geom.t)
                hi = math.floor(geom.beta * geom.t)
                assert all(profile.u_k[k] for k in range(lo, hi + 1))
        assert found > 0


class TestHyperplaneProfile:
    def test_blocked_run_all_false(self):
        t, alpha, d = 6.0, 0.2, 2
        geom = GeometrySet(t, alpha, d)
        r = geom.radius
        w = Window((-r,) * d, (0,) * d)
        init = Configuration.all_ones(w, exterior=1)
        log = simulate(ModelParams(d, 0.5), init, t, 8)
        profile = hyperplane_hit_profile(log, geom)
        assert not any(profile.u_k)
        assert not any(profile.g_k)

    def test_matches_per_site_definition(self):
        # u_k: H_k meets E; g_k: some site of H_k spends >= (1-p)t/4 at zero
        seen = set()
        for seed in range(12):
            log, geom = active_log(derive_seed(1200, seed))
            E = log.updated_set(geom.D, geom.t / 2)
            threshold = (1 - log.params.p) * geom.t / 4
            planes = [geom.hyperplane(k) for k in range(geom.k_max + 1)]
            profile = hyperplane_hit_profile(log, geom)
            assert profile.u_k == tuple(any(y in E for y in hk) for hk in planes)
            assert profile.g_k == tuple(
                any(log.occupation_time(y, geom.t) >= threshold for y in hk) for hk in planes
            )
            seen |= {(name, v) for name in ("u", "g") for v in getattr(profile, f"{name}_k")}
        assert seen == {("u", True), ("u", False), ("g", True), ("g", False)}

    def test_origin_update_sets_u0(self):
        log, geom = active_log(31)
        e = log.updated_set(geom.D, geom.t / 2)
        profile = hyperplane_hit_profile(log, geom)
        assert profile.u_k[0] == ((0, 0) in e)


class TestConstants:
    def test_c3_prime_at_half(self):
        report = compute_constants(0.5, 1, 0.5, 0.1, 1.0)
        assert report.c3_prime == pytest.approx(math.log(1.5), abs=1e-12)
        assert report.update_ratio < 1

    def test_c3_prime_monotone_vanishing(self):
        vals = [compute_constants(p, 1, 0.5, 0.1, 1.0).c3_prime for p in (0.5, 0.9, 0.99, 0.999)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_independent_re_evaluation(self):
        p, d, delta, c, lam = 0.5, 2, 0.5, 0.1, 0.17
        report = compute_constants(p, d, delta, c, lam)
        pmin = min(p, 1 - p)
        alpha = c * (1 - p) * delta ** (d - 1) / (-16 * d * math.log(pmin))
        chi = 0.5 * (lam * (1 - p) * delta**d / (-8 * math.log(pmin))) ** (1 / d)
        assert report.alpha == pytest.approx(alpha, abs=1e-12)
        assert report.chi == pytest.approx(chi, abs=1e-12)
        assert report.alpha > 0 and report.chi > 0

    def test_scaling_laws(self):
        p, d, delta, c, lam = 0.3, 2, 0.4, 0.2, 0.15
        base = compute_constants(p, d, delta, c, lam)
        assert compute_constants(p, d, delta, 2 * c, lam).alpha == pytest.approx(
            2 * base.alpha, rel=1e-12
        )
        assert compute_constants(p, d, delta, c, 2 * lam).chi == pytest.approx(
            2 ** (1 / d) * base.chi, rel=1e-12
        )

    def test_input_validation(self):
        with pytest.raises(TheoryCheckError):
            compute_constants(1.5, 1, 0.5, 0.1, 1.0)
        with pytest.raises(TheoryCheckError):
            compute_constants(0.5, 1, 1.5, 0.1, 1.0)
        with pytest.raises(TheoryCheckError):
            compute_constants(0.5, 1, 0.5, -0.1, 1.0)
        with pytest.raises(TheoryCheckError):
            compute_constants(0.5, 1, 0.5, 0.1, 0.0)

    def test_report_text(self):
        text = compute_constants(0.5, 2, 0.5, 0.1, 0.2).to_text()
        assert "c3_prime" in text and "chi" in text


class TestCascade:
    def test_sites_sequence(self):
        assert cascade_sites((-2, -3)) == ((-2, -3), (0, -3), (0, 0))
        assert cascade_sites((0,)) == ((0,), (0,))

    def test_origin_degenerate(self):
        # all cascade sites equal: T <= delta T is impossible once T > 0
        params = ModelParams(1, 0.3)
        w = Window((-1,), (0,))
        spec = Delta(Configuration.with_zeros(w, [(-1,), (0,)], exterior=0))
        res = fk_cascade_probe(params, spec, (0,), 0.5, 10.0, 50, w, 3)
        assert res.probabilities[0] == 0.0

    def test_1d_unconstrained_pair(self):
        params = ModelParams(1, 0.5)
        w = Window((-2,), (0,))
        spec = Delta(Configuration.all_ones(w, exterior=0))
        res = fk_cascade_probe(params, spec, (-1,), 0.5, 10.0, 200, w, 4)
        assert len(res.probabilities) == 1
        assert 0.0 <= res.probabilities[0] <= 1.0
        assert res.halfwidths[0] > 0

    def test_probability_decays_in_t(self):
        params = ModelParams(1, 0.5)
        w = Window((-2,), (0,))
        spec = Delta(Configuration.all_ones(w, exterior=0))
        probs = [
            fk_cascade_probe(params, spec, (-1,), 0.5, t, 400, w, 6).probabilities[0]
            for t in (5.0, 10.0, 20.0)
        ]
        assert probs[0] >= probs[-1] - 0.05  # monotone trend with MC slack

    def test_validation(self):
        params = ModelParams(2, 0.5)
        w = Window((-2, -2), (0, 0))
        spec = ProductBernoulli(0.5)
        with pytest.raises(TheoryCheckError):
            fk_cascade_probe(params, spec, (1, -1), 0.5, 5.0, 10, w, 0)
        with pytest.raises(TheoryCheckError):
            fk_cascade_probe(params, spec, (-1, -1), 1.5, 5.0, 10, w, 0)
