import math
from itertools import product
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eastlab.lattice import (
    Configuration,
    Delta,
    Exterior,
    ModelParams,
    ProductBernoulli,
    Window,
)
from eastlab.sim import simulate_batch
from eastlab.streams import derive_seed
from eastlab.theory import (
    TheoryCheckError,
    cascade_sites,
    certify_paths,
    compute_constants,
    fk_cascade_probe,
    oriented_path_check,
)
from oracle import oriented_path

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class Lemma(NamedTuple):
    """The lemma's (t, alpha, d) and its box D = {-radius..0}^d."""

    t: float
    alpha: float
    d: int

    @property
    def radius(self) -> int:
        return math.floor(2 * self.d * self.alpha * self.t)

    @property
    def sites(self) -> list:
        """D's sites in lexicographic order."""
        return list(product(range(-self.radius, 1), repeat=self.d))


def blank_batch(window: Window, horizon: float):
    return simulate_batch(ModelParams(window.d, 0.5), Exterior(window, 0, {}),
                          [1] * window.site_count(), horizon, [1, 2])


class TestGeometry:
    def test_boxes(self):
        # D = {-8..0}^2 at t = 10, alpha = 0.2: the reach spans its 81 sites
        batch = blank_batch(Window((-8, -8), (0, 0)), 5.0)
        assert oriented_path_check(batch, 10.0, 0.2, (0, 0)).reach.shape == (2, 9, 9)

    @pytest.mark.parametrize("t, alpha", [(10.0, 0.2), (2.0, 0.1), (1.0, 0.0), (1.0, -0.3)])
    def test_d_fits_matches_site_scan(self, t, alpha):
        # the check refuses D exactly when a site of D lies outside the window;
        # alpha t < 0 leaves no start site, so an empty D never gets that far
        lemma = Lemma(t, alpha, 2)
        r = lemma.radius
        for lower, upper in product((-r - 1, -r, -r + 1), (-1, 0, 1)):
            if lower > upper:
                continue
            for w in (Window((lower, -r - 1), (upper, 2)), Window((-r - 1, lower), (2, upper))):
                batch = blank_batch(w, t / 2)
                if alpha < 0:
                    with pytest.raises(TheoryCheckError, match="start site"):
                        oriented_path_check(batch, t, alpha, (0, 0))
                elif all(y in w for y in lemma.sites):
                    assert oriented_path_check(batch, t, alpha, (0, 0)).reach.shape == (2, r + 1, r + 1)
                else:
                    with pytest.raises(TheoryCheckError, match="D does not fit"):
                        oriented_path_check(batch, t, alpha, (0, 0))


    def test_negative_alpha_t_named(self):
        # once "start site (0, 0) outside {--1..0}^d", from floor(alpha t) = -1
        batch = blank_batch(Window((-2, -2), (0, 0)), 0.5)
        with pytest.raises(TheoryCheckError, match=r"^alpha t = -0\.3 < 0 leaves no start site$"):
            oriented_path_check(batch, 1.0, -0.3, (0, 0))


def active_batch(seeds, t=8.0, alpha=0.25, d=2, p=0.5):
    """Batch on a window covering D with frozen zeros outside: ergodic dynamics."""
    geom = Lemma(t, alpha, d)
    r = geom.radius
    w = Window((-r,) * d, (0,) * d)
    init = Configuration.with_zeros(w, [(0,) * d], exterior=0)
    return simulate_batch(ModelParams(d, p), init.rule, init.spins, t, seeds), geom


@st.composite
def lemma_cases(draw):
    """(batch, t, alpha, x): random d = 1..3, window around D, exterior 0 or 1,
    and per-replica Bernoulli spins or one Delta row with x at zero."""
    d = draw(st.integers(1, 3))
    t = draw(st.floats(2.0, 10.0))
    alpha = draw(st.floats(0.0, {1: 0.3, 2: 0.12, 3: 0.06}[d]))
    r, small = Lemma(t, alpha, d).radius, math.floor(alpha * t)
    x = tuple(draw(st.integers(-small, 0)) for _ in range(d))
    lower = tuple(-r - draw(st.integers(0, 1)) for _ in range(d))
    w = Window(lower, tuple(draw(st.integers(0, 1)) for _ in range(d)))
    rule = Exterior(w, draw(st.integers(0, 1)), {})
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
    if draw(st.booleans()):  # zeros at rate q, and x at zero in every other replica
        spins = np.random.default_rng(seeds[0]).random((len(seeds), w.site_count()))
        spins = spins >= draw(st.floats(0.0, 0.5))
        spins[::2, w.index(x)] = 0
    else:
        zeros = {x, *draw(st.lists(st.sampled_from(w.sites), max_size=3))}
        spins = [int(y not in zeros) for y in w.sites]
    return simulate_batch(ModelParams(d, draw(st.floats(0.3, 0.9))), rule, spins, t, seeds), t, alpha, x


class TestOrientedPathLemma:
    def test_precondition_spin(self):
        # a start site at spin 1 initially does not meet the lemma's premise
        batch, geom = active_batch([1])
        check = oriented_path_check(batch, geom.t, geom.alpha, (-1, 0))
        assert check.applicable.tolist() == [False]
        assert check.hypothesis_held.tolist() == check.found.tolist() == [False]

    def test_precondition_box(self):
        batch, geom = active_batch([2])
        with pytest.raises(TheoryCheckError):
            oriented_path_check(batch, geom.t, geom.alpha, (-geom.radius, 0))

    def test_window_too_small(self):
        params = ModelParams(2, 0.5)
        init = Configuration.with_zeros(Window((-1, -1), (0, 0)), [(0, 0)], exterior=0)
        batch = simulate_batch(params, init.rule, init.spins, 8.0, [3])
        with pytest.raises(TheoryCheckError):
            oriented_path_check(batch, 8.0, 0.25, (0, 0))

    @pytest.mark.parametrize("t", [8.0, 7.3])
    def test_batch_must_reach_half_t(self, t):
        # the check reads [0, t/2]: a batch to t/2 suffices, a shorter one does not
        init = Configuration.with_zeros(Window((-2, -2), (0, 0)), [(0, 0)], exterior=0)
        params, alpha, x = ModelParams(2, 0.5), 0.08, (0, 0)
        short = simulate_batch(params, init.rule, init.spins, np.nextafter(t / 2, 0), [4, 5])
        with pytest.raises(TheoryCheckError, match="t/2"):
            oriented_path_check(short, t, alpha, x)
        batch = simulate_batch(params, init.rule, init.spins, t / 2, [4, 5])
        check = oriented_path_check(batch, t, alpha, x)
        with pytest.raises(TheoryCheckError, match="t/2"):
            certify_paths(short, t, alpha, x, check)
        assert (certify_paths(batch, t, alpha, x, check) == check.found).all()

    def test_frozen_zero_voids_hypothesis(self):
        # single zero with all-ones exterior can never be updated, so some
        # site of D stays at zero and the lemma hypothesis is void
        t, alpha, d = 10.0, 0.2, 2
        r = Lemma(t, alpha, d).radius
        w = Window((-r - 1,) * d, (1,) * d)
        init = Configuration.with_zeros(w, [(-1, -1)], exterior=1)
        batch = simulate_batch(ModelParams(d, 0.5), init.rule, init.spins, t, [5])
        check = oriented_path_check(batch, t, alpha, (-1, -1))
        assert check.applicable.all()
        assert not check.hypothesis_held.any()
        assert not check.found.any() and not check.reach.any()

    @pytest.mark.parametrize("seed", range(60))
    def test_no_counterexamples_on_active_logs(self, seed):
        # ergodic setting: whenever the hypothesis holds a path must exist;
        # a one-replica check is a batch of one
        batch, geom = active_batch([derive_seed(400, seed)], alpha=0.08)
        check = oriented_path_check(batch, geom.t, geom.alpha, (0, 0))
        if check.hypothesis_held[0]:
            assert check.found[0], "counterexample to a proven statement"
            assert certify_paths(batch, geom.t, geom.alpha, (0, 0), check)[0]

    def test_some_active_logs_hold_hypothesis(self):
        # small alpha keeps D close to the origin so the zero front can
        # clear it before t/2, exercising the hypothesis-holding branch
        batch, geom = active_batch([derive_seed(700, seed) for seed in range(40)], alpha=0.08)
        assert oriented_path_check(batch, geom.t, geom.alpha, (0, 0)).hypothesis_held.any()

    def test_path_consistency_with_hyperplanes(self):
        # a found path forces E to meet every H_k, the sites of D with
        # coordinate sum -k, between d*floor(alpha t) and floor(beta t)
        batch, geom = active_batch([derive_seed(900, seed) for seed in range(40)], alpha=0.08)
        found = oriented_path_check(batch, geom.t, geom.alpha, (0, 0)).found
        sites = geom.sites
        E = np.stack([batch.first_update_time(x) for x in sites], axis=1)[found] <= geom.t / 2
        plane = -np.sum(sites, axis=1)
        lo = geom.d * math.floor(geom.alpha * geom.t)
        hi = geom.radius
        assert found.any() and lo < hi
        for k in range(lo, hi + 1):
            assert E[:, plane == k].any(axis=1).all(), f"E misses H_{k}"

    @PROPERTY
    @given(lemma_cases())
    def test_matches_per_log_reference(self, case):
        batch, t, alpha, x = case
        check = oriented_path_check(batch, t, alpha, x)
        got = zip(check.applicable, check.hypothesis_held, check.found, check.length)
        assert [tuple(map(int, g)) for g in got] == [
            tuple(map(int, oriented_path(batch, r, t, alpha, x))) for r in range(len(batch))
        ]
        assert (certify_paths(batch, t, alpha, x, check) == check.found).all()

    def test_certificate_rejects_broken_reach(self):
        batch, geom = active_batch([derive_seed(901, seed) for seed in range(200)], alpha=0.08)
        t, alpha, x = geom.t, geom.alpha, (0, 0)
        check = oriented_path_check(batch, t, alpha, x)
        found = check.found
        assert found.sum() >= 10 and certify_paths(batch, t, alpha, x, check)[found].all()
        start = (slice(None),) + tuple(c + geom.radius for c in x)
        # x feeds every endpoint: without it no reached site climbs back to x
        reach = check.reach.copy()
        reach[start] = False
        assert not certify_paths(batch, t, alpha, x, check._replace(reach=reach)).any()
        # no reached outer-layer site lies one step nearer than the nearest
        short = check._replace(length=np.where(found, check.length - 1, 0))
        assert (short.length[found] > 0).all()
        assert not certify_paths(batch, t, alpha, x, short).any()
        # one reached site outside E
        first = np.stack([batch.first_update_time(y) for y in geom.sites], axis=1)
        outside = ~(first <= t / 2).reshape(check.reach.shape)
        bad = found & outside.reshape(len(batch), -1).any(axis=1)
        reach = check.reach.copy()
        for r in np.flatnonzero(bad):
            reach[r][np.unravel_index(np.argmax(outside[r]), outside[r].shape)] = True
        certified = certify_paths(batch, t, alpha, x, check._replace(reach=reach))
        assert bad.sum() >= 10 and not certified[bad].any()
        assert certified[found & ~bad].all()


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

    @pytest.mark.parametrize("c,lambda_pp,match", [
        (float("nan"), 1.0, "c must be finite and > 0, got nan"),  # alpha was nan
        (float("inf"), 1.0, "c must be finite and > 0, got inf"),  # alpha was inf
        (0.1, float("nan"), "lambda_pp must be finite and > 0, got nan"),  # chi was nan
        (0.1, float("inf"), "lambda_pp must be finite and > 0, got inf"),
    ])
    def test_non_finite_c_or_lambda_pp_named(self, c, lambda_pp, match):
        with pytest.raises(TheoryCheckError, match=match):
            compute_constants(0.5, 2, 0.5, c, lambda_pp)

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
