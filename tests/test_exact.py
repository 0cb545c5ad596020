import math
import re
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigvalsh_tridiagonal
from scipy.sparse.linalg import eigsh, expm_multiply

import eastlab.exact
from eastlab.exact import (
    ExactEngineError,
    MAX_REGION_SITES,
    MAX_SPECTRAL_SITES,
    _lowest_tridiagonal,
    build_generator,
    east1d_gap,
    evolve_expectation,
    half_space_operator,
    killed_operator,
    spectral_gap,
)
from eastlab.lattice import Region, bernoulli_weights
from oracle import site_loop_rates, symmetrized


def region_1d(sites):
    return Region(frozenset((i,) for i in sites))


def killed_reference(region, boundary, p, z):
    """diag(c_z) - S from the oracle's site loop and sqrt(mu) conjugation,
    with z's constraint read state by state."""
    rates = site_loop_rates(region, boundary, p)
    index = {x: i for i, x in enumerate(sorted(region.sites))}

    def at_zero(s, y):
        return (s >> index[y]) & 1 == 0 if y in index else boundary[y] == 0

    lower = [z[:j] + (z[j] - 1,) + z[j + 1 :] for j in range(len(z))]
    c = [float(any(at_zero(s, y) for y in lower)) for s in range(rates.shape[0])]
    return (sp.diags(c) - symmetrized(rates, p)).tocsr()


# the two public builders on a region and boundary, at p = 0.5; z = (3,) for the killed one
BUILDERS = {
    "build_generator": lambda region, boundary: build_generator(region, boundary, 0.5),
    "killed_operator": lambda region, boundary: killed_operator(region, boundary, 0.5, (3,)),
}


def chain_reference(p, m):
    """B_m of `half_space_operator`, built through the oracle route."""
    return killed_reference(region_1d(range(1, m + 1)), {(0,): 0}, p, (m + 1,))


class TestBuildGenerator:
    def test_single_unconstrained_site(self):
        gen = build_generator(region_1d([1]), {(0,): 0}, 0.3)
        Q = gen.rates.toarray()
        assert np.allclose(Q, [[-0.3, 0.3], [0.7, -0.7]])

    def test_single_blocked_site(self):
        gen = build_generator(region_1d([1]), {(0,): 1}, 0.3)
        assert np.allclose(gen.rates.toarray(), 0.0)

    def test_two_sites_state_11_single_legal_flip(self):
        # frozen zero at 0: in state (1,1) only site 1 may flip (site 2's
        # left neighbor carries spin 1)
        gen = build_generator(region_1d([1, 2]), {(0,): 0}, 0.4)
        Q = gen.rates.toarray()
        s11 = 0b11
        offdiag = [(t, Q[s11, t]) for t in range(4) if t != s11 and Q[s11, t] != 0]
        assert offdiag == [(0b10, pytest.approx(0.6))]

    def test_missing_boundary(self):
        with pytest.raises(ExactEngineError):
            build_generator(region_1d([1, 3]), {(0,): 0}, 0.5)

    def test_row_sums_zero(self):
        gen = build_generator(region_1d([1, 2, 3]), {(0,): 0}, 0.7)
        rows = np.asarray(gen.rates.sum(axis=1)).ravel()
        assert np.max(np.abs(rows)) < 1e-12

    @pytest.mark.parametrize("trial", range(50))
    def test_detailed_balance_random_regions(self, trial):
        rng = np.random.default_rng(trial)
        d = int(rng.integers(1, 3))
        n_target = int(rng.integers(1, 7))
        box = list(product(range(3), repeat=d))
        rng.shuffle(box)
        sites = frozenset(tuple(s) for s in box[:n_target])
        region = Region(sites)
        boundary = {}
        for x in sites:
            for i in range(d):
                y = x[:i] + (x[i] - 1,) + x[i + 1 :]
                if y not in sites:
                    boundary[y] = int(rng.integers(0, 2))
        p = float(rng.uniform(0.05, 0.95))
        gen = build_generator(region, boundary, p)
        Q = gen.rates.toarray()
        mu = bernoulli_weights(gen.n, gen.p)
        resid = mu[:, None] * Q - (mu[:, None] * Q).T
        assert np.max(np.abs(resid)) < 1e-12
        rows = np.asarray(gen.rates.sum(axis=1)).ravel()
        assert np.max(np.abs(rows)) < 1e-12
        # the one-pass rates against the site loop: the same flips, the same
        # rates, and the diagonal summed in another order
        want = site_loop_rates(region, boundary, p)
        assert np.array_equal(gen.rates.indptr, want.indptr)
        assert np.array_equal(gen.rates.indices, want.indices)
        off = gen.rates.indices != np.repeat(np.arange(gen.dim), np.diff(gen.rates.indptr))
        assert np.array_equal(gen.rates.data[off], want.data[off])
        assert np.allclose(gen.rates.diagonal(), want.diagonal(), rtol=1e-15, atol=0)
        # and spectral_gap's -S against the oracle's sqrt(mu) conjugation
        spec = np.linalg.eigvalsh(-symmetrized(want, p).toarray())
        zero = spec <= max(np.abs(want.diagonal()).max(), 1.0) * 1e-10
        res = spectral_gap(gen)
        assert res.eigenvalue_count_at_zero == zero.sum()
        assert res.gap == pytest.approx(spec[~zero].min() if (~zero).any() else 0.0, rel=1e-9)

    @pytest.mark.parametrize("spin", [2, -1, 7, 0.5])
    @pytest.mark.parametrize("build", BUILDERS, ids=BUILDERS)
    def test_boundary_spin_outside_0_1_named(self, build, spin):
        with pytest.raises(ExactEngineError, match=rf"boundary spin at \(0,\) must be 0 or 1, got {spin}"):
            BUILDERS[build](region_1d([1, 2]), {(0,): spin})

    @pytest.mark.parametrize("build", BUILDERS, ids=BUILDERS)
    def test_mixed_dimensions_named(self, build):
        region = Region(frozenset({(1,), (1, 2)}))
        with pytest.raises(ExactEngineError, match=r"region mixes sites of dimensions \[1, 2\]"):
            BUILDERS[build](region, {(0,): 0, (0, 2): 0, (1, 1): 0, (2,): 0})

    def test_killed_site_of_other_dimension_named(self):
        with pytest.raises(ExactEngineError, match=r"killed site \(2, 0\) is not 1-dimensional"):
            killed_operator(region_1d([1]), {(0,): 0}, 0.5, (2, 0))


class TestEvolveExpectation:
    def test_t_zero(self):
        gen = build_generator(region_1d([1]), {(0,): 0}, 0.3)
        assert evolve_expectation(gen, 1, np.array([0.0, 1.0]), 0.0) == 1.0

    @pytest.mark.parametrize("eta0", [0, 1])
    @pytest.mark.parametrize("t", [0.2, 1.0, 3.0])
    def test_single_site_closed_form(self, eta0, t):
        # two-state master equation: E[spin] = p + (eta0 - p) e^{-t}
        p = 0.3
        gen = build_generator(region_1d([1]), {(0,): 0}, p)
        got = evolve_expectation(gen, eta0, np.array([0.0, 1.0]), t, tol=1e-12)
        assert got == pytest.approx(p + (eta0 - p) * math.exp(-t), abs=1e-10)

    def test_matches_matrix_exponential(self):
        # independent oracle: e^{tQ} = D^-1 e^{tS} D with D = diag(sqrt(mu)),
        # Q from the oracle's site loop and e^{tS} from S's eigenvectors
        region, boundary, p = region_1d([1, 2, 3]), {(0,): 0}, 0.35
        gen = build_generator(region, boundary, p)
        lam, vecs = np.linalg.eigh(symmetrized(site_loop_rates(region, boundary, p), p).toarray())
        sq = np.sqrt(bernoulli_weights(3, p))
        f = np.array([float((s >> 2) & 1) for s in range(8)])
        for t in (0.5, 1.0, 2.0):
            want = float(((vecs * np.exp(t * lam)) @ (vecs.T @ (sq * f)) / sq)[0b111])
            got = evolve_expectation(gen, 0b111, f, t, tol=1e-12)
            assert got == pytest.approx(want, abs=1e-9)

    def test_long_time_reaches_mu(self):
        gen = build_generator(region_1d([1, 2, 3]), {(0,): 0}, 0.5)
        f = np.array([float(s & 1) for s in range(8)])
        tol = 1e-10
        got = evolve_expectation(gen, 0b111, f, 1000.0, tol=tol)
        want = bernoulli_weights(gen.n, gen.p) @ f
        assert abs(got - want) < 10 * tol

    def test_stationarity_of_mu_mixture(self):
        gen = build_generator(region_1d([1, 2]), {(0,): 0}, 0.3)
        f = np.array([float(s & 1) for s in range(4)])
        mu = bernoulli_weights(gen.n, gen.p)
        want = float(mu @ f)
        for t in (0.1, 1.0, 10.0):
            got = evolve_expectation(gen, mu, f, t, tol=1e-12)
            assert got == pytest.approx(want, abs=1e-10)


class TestEvolveExpectationInputs:
    gen = build_generator(region_1d([1, 2, 3]), {(0,): 0}, 0.5)
    # f below is the spin of (1,), bit 0 of the state
    two_site = build_generator(region_1d([1, 2]), {(0,): 0}, 0.5)

    @pytest.mark.parametrize("state", [-1, 8, 100])
    def test_state_outside_range_named(self, state):
        with pytest.raises(ExactEngineError, match=rf"initial state {state} lies outside 0\.\.7"):
            evolve_expectation(self.gen, state, np.ones(8), 1.0)

    def test_distribution_of_wrong_length_named(self):
        with pytest.raises(ExactEngineError, match=r"initial distribution has shape \(4,\)"):
            evolve_expectation(self.gen, np.full(4, 0.25), np.ones(8), 1.0)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_f_of_wrong_length_named(self, t):
        with pytest.raises(ExactEngineError, match=r"f has shape \(7,\)"):
            evolve_expectation(self.gen, 0, np.ones(7), t)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, -math.inf])
    def test_t_negative_or_not_finite_named(self, t):
        with pytest.raises(ExactEngineError, match=rf"t must be finite and >= 0, got {t}$"):
            evolve_expectation(self.gen, 0, np.ones(8), t)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_f_not_finite_named(self, value):
        # an infinite or NaN entry would give a nan result with no error
        f = np.array([0.0, 1.0, value, 1.0])
        with pytest.raises(ExactEngineError, match=rf"f must be finite, got {value} at state 2$"):
            evolve_expectation(self.two_site, 1, f, 1.0)

    @pytest.mark.parametrize("f, kind", [(lambda s: float(s), "function of dtype object"),
                                         ("0101", "str of dtype <U4"),
                                         (["a", "b", "c", "d"], "list of dtype <U1"),
                                         ({0: 1.0}, "dict of dtype object")],
                             ids=["callable", "string", "strings", "dict"])
    def test_f_not_numeric_named(self, f, kind):
        with pytest.raises(ExactEngineError, match=f"f must be numeric, got {kind}$"):
            evolve_expectation(self.two_site, 1, f, 1.0)

    @pytest.mark.parametrize("name", ["f", "initial distribution"])
    def test_ragged_input_named(self, name):
        # np.asarray once raised its bare inhomogeneous-shape ValueError here
        ragged = [[1.0], [2.0, 3.0]]
        f, initial = (ragged, 1) if name == "f" else (np.ones(4), ragged)
        with pytest.raises(ExactEngineError, match=f"^{name} is ragged"):
            evolve_expectation(self.two_site, initial, f, 1.0)

    @pytest.mark.parametrize("initial, kind", [("0001", "str of dtype <U4"),
                                               ([None, None, None, None], "list of dtype object")],
                             ids=["string", "none"])
    def test_initial_not_numeric_named(self, initial, kind):
        # Nones would read as nan, and the result would be nan with no error
        with pytest.raises(ExactEngineError, match=f"initial distribution must be numeric, got {kind}$"):
            evolve_expectation(self.two_site, initial, np.ones(4), 1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_initial_not_finite_named(self, value):
        initial = np.array([0.5, 0.5, value, 0.0])
        with pytest.raises(ExactEngineError,
                           match=rf"initial distribution must be finite, got {value} at state 2$"):
            evolve_expectation(self.two_site, initial, np.ones(4), 1.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
    def test_tol_not_positive_named(self, tol):
        # NaN passes a tol <= 0 test
        with pytest.raises(ExactEngineError, match=rf"tol must be > 0, got {tol}$"):
            evolve_expectation(self.gen, 0, np.ones(8), 1.0, tol=tol)

    def test_region_above_dense_cap_named(self):
        # 13 sites: 8192 states, refused before Q is densified
        gen = build_generator(region_1d(range(1, 14)), {(0,): 0}, 0.4)
        with pytest.raises(ExactEngineError,
                           match=f"^evolve_expectation is capped at {MAX_SPECTRAL_SITES} sites$"):
            evolve_expectation(gen, 0, np.ones(gen.dim), 1.0)


class TestUniformizationCrossCheck:
    @pytest.mark.parametrize("t", [0.5, 2.0, 8.0])
    def test_matches_expm_multiply_on_2d_box(self, t):
        # 3x3 box with a mixed frozen boundary: zeros facilitate part of the
        # bottom row and left column, ones block the rest
        sites = [(i, j) for i in range(3) for j in range(3)]
        boundary = {(-1, j): j % 2 for j in range(3)}
        boundary.update({(i, -1): 1 - i % 2 for i in range(3)})
        gen = build_generator(Region(frozenset(sites)), boundary, 0.35)
        states = np.arange(gen.dim)
        f = ((states >> 8) & 1) + 0.5 * ((states >> 4) & 1)  # spins at (2,2) and (1,1)
        want = expm_multiply(gen.rates * t, f)
        for initial in (gen.dim - 1, 0b101010101):
            got = evolve_expectation(gen, initial, f, t, tol=1e-12)
            assert got == pytest.approx(want[initial], abs=1e-9)


class TestSpectralGap:
    def test_single_unconstrained_site(self):
        for p in (0.1, 0.5, 0.9):
            res = spectral_gap(build_generator(region_1d([1]), {(0,): 0}, p))
            assert res.gap == pytest.approx(1.0, abs=1e-12)
            assert res.eigenvalue_count_at_zero == 1

    def test_blocked_site(self):
        res = spectral_gap(build_generator(region_1d([1]), {(0,): 1}, 0.5))
        assert res.gap == 0.0
        assert res.eigenvalue_count_at_zero == 2

    def test_two_site_hand_built(self):
        # independent 4x4 symmetric eigenproblem built from scratch
        p = 0.5
        Q = np.zeros((4, 4))
        for s in range(4):
            for i, legal in ((0, True), (1, (s & 1) == 0)):
                if not legal:
                    continue
                t = s ^ (1 << i)
                rate = p if (s >> i) & 1 == 0 else 1 - p
                Q[s, t] = rate
                Q[s, s] -= rate
        mu = np.array([(p if (s >> 0) & 1 else 1 - p) * (p if (s >> 1) & 1 else 1 - p) for s in range(4)])
        S = np.diag(np.sqrt(mu)) @ Q @ np.diag(1 / np.sqrt(mu))
        want = sorted(-np.linalg.eigvalsh((S + S.T) / 2))[1]
        assert east1d_gap(p, 2) == pytest.approx(want, abs=1e-12)

    def test_gap_decreasing_in_n(self):
        p = 0.5
        gaps = [east1d_gap(p, N) for N in range(1, 9)]
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert all(g > 0 for g in gaps)

    def test_region_above_dense_cap_rejected(self):
        # 13 sites: 8192 states, refused before the dense solve
        gen = build_generator(region_1d(range(1, 14)), {(0,): 0}, 0.4)
        with pytest.raises(ExactEngineError):
            spectral_gap(gen)

    def test_east1d_gap_range(self):
        with pytest.raises(ExactEngineError):
            east1d_gap(0.5, 0)
        with pytest.raises(ExactEngineError):
            east1d_gap(0.5, 21)


def chain_spectrum(p, N):
    """Sorted spectrum of -S_N on the chain {1..N}; the empty chain has spectrum {0}."""
    if N == 0:
        return np.zeros(1)
    rates = site_loop_rates(region_1d(range(1, N + 1)), {(0,): 0}, p)
    return np.linalg.eigvalsh(-symmetrized(rates, p).toarray())


class TestHalfSpaceGap:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("N", range(1, 9))
    def test_spectrum_union(self, p, N):
        half = np.linalg.eigvalsh(half_space_operator(p, N - 1).toarray()) if N > 1 else np.ones(1)
        union = np.sort(np.concatenate([chain_spectrum(p, N - 1), half]))
        assert np.allclose(chain_spectrum(p, N), union, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_half_space_minimum_strictly_decreasing(self, p):
        # lambda_min(B_m) < lambda_min(B_{m-1}), which makes gap(N) = lambda_min(B_{N-1})
        lows = [1.0] + [np.linalg.eigvalsh(half_space_operator(p, m).toarray())[0] for m in range(1, 9)]
        assert all(b < a for a, b in zip(lows, lows[1:]))

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
    def test_matches_dense_spectral_gap(self, p):
        for N in range(1, 11):
            dense = spectral_gap(build_generator(region_1d(range(1, N + 1)), {(0,): 0}, p)).gap
            assert east1d_gap(p, N) == pytest.approx(dense, rel=1e-9)

    def test_committed_reference_values(self):
        # dense (N <= 12) and shift-invert (N = 13) solves of the full chain, p = 0.5
        reference = {11: 0.044470024056328078, 12: 0.04279452219894378, 13: 0.041446762143797083}
        for N, want in reference.items():
            assert east1d_gap(0.5, N) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("N", [6, 12, 15])
    def test_repeat_calls_bit_identical(self, N):
        assert east1d_gap(0.3, N).hex() == east1d_gap(0.3, N).hex()

    def test_rejects_p_outside_unit_interval(self):
        for p in (0.0, 1.0):
            with pytest.raises(ExactEngineError):
                east1d_gap(p, 1)

    @pytest.mark.parametrize("N", [2.5, 3.0, True, "3"])
    def test_rejects_n_that_is_not_an_integer_named(self, N):
        # 2.5 and 3.0 would reach the operator builder, and True passes 1 <= N
        with pytest.raises(ExactEngineError, match=rf"N must be an integer, got {re.escape(repr(N))}$"):
            east1d_gap(0.5, N)

    @pytest.mark.parametrize("N", [np.int32(1), np.int64(6), np.uint8(11)])
    def test_numpy_integer_n_accepted(self, N):
        assert east1d_gap(0.5, N) == east1d_gap(0.5, int(N))

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("N", range(11, 15))
    def test_matches_arpack(self, p, N):
        # an independent solver: implicitly restarted Lanczos (ARPACK) to machine precision
        B = chain_reference(p, N - 1)
        want = eigsh(B, k=1, which="SA", v0=np.ones(B.shape[0]), tol=0, return_eigenvectors=False)[0]
        assert east1d_gap(p, N) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("N", range(2, 8))
    def test_breakdown_gives_exact_minimum(self, p, N, monkeypatch):
        # the Krylov space of 2^(N-1) states is exhausted within 2^(N-1)
        # steps, and the recurrence stops there at the latest
        steps = []
        lowest = eastlab.exact._lowest_tridiagonal
        monkeypatch.setattr(eastlab.exact, "_lowest_tridiagonal",
                            lambda alpha, beta: steps.append(len(alpha)) or lowest(alpha, beta))
        want = np.linalg.eigvalsh(chain_reference(p, N - 1).toarray())[0]
        assert east1d_gap(p, N) == pytest.approx(want, abs=1e-12)
        assert max(steps) <= 2 ** (N - 1)

    @pytest.mark.parametrize("N", [11, 12])
    def test_slow_chain_within_rounding_of_dense(self, N):
        # at p = 0.95 the gap is about 1e-5 and |B| about 11: the accuracy is
        # absolute, a few eps |B| (seen <= 5e-15), not 1e-12 relative
        want = np.linalg.eigvalsh(chain_reference(0.95, N - 1).toarray())[0]
        assert east1d_gap(0.95, N) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("p", [0.5, 0.9])
    @pytest.mark.parametrize("N", [11, 12])
    def test_within_rounding_of_dense_on_its_operator(self, p, N):
        # the recurrence alone, against a dense solve of the operator it
        # iterates on: the result is absolute, a few eps |B|
        want = np.linalg.eigvalsh(half_space_operator(p, N - 1).toarray())[0]
        assert east1d_gap(p, N) == pytest.approx(want, abs=1e-13)

    def test_step_cap_named(self, monkeypatch):
        # p = 0.9, N = 12 needs about 380 steps
        monkeypatch.setattr(eastlab.exact, "MAX_LANCZOS_STEPS", 100)
        with pytest.raises(ExactEngineError, match=r"p=0\.9, N=12.*MAX_LANCZOS_STEPS = 100"):
            east1d_gap(0.9, 12)

    def test_unsettled_run_reads_spaced_out(self, monkeypatch):
        # with a negative tolerance neither the stagnation rule nor a small
        # beta fires, so the run goes on until its Krylov space of
        # 2^12 = 4096 states is full; past step 2000 the reads of
        # lambda_min(T_k) are 5% apart, not 10 steps
        reads = []
        lowest = eastlab.exact._lowest_tridiagonal
        monkeypatch.setattr(eastlab.exact, "LANCZOS_RTOL", -1.0)
        monkeypatch.setattr(eastlab.exact, "_lowest_tridiagonal",
                            lambda alpha, beta: reads.append(len(alpha)) or lowest(alpha, beta))
        east1d_gap(0.5, 13)
        assert reads[:200] == list(range(10, 2001, 10))
        assert reads[-1] == 4096 and len(reads) < 300


class TestKilledOperator:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("m", range(1, 11))
    def test_chain_matches_oracle(self, p, m):
        B = half_space_operator(p, m)
        assert B.indices.dtype == np.int32 and B.has_sorted_indices
        assert np.max(np.abs(B.toarray() - chain_reference(p, m).toarray())) <= 1e-14

    @pytest.mark.parametrize("edge_spins", ["zeros", "ones", "mixed"])
    @pytest.mark.parametrize("z_reads", ["region", "boundary at 0", "boundary at 1"])
    def test_2d_box_matches_oracle(self, edge_spins, z_reads):
        # the 3x3 box without its corner (2, 2): z = (2, 2) reads two region
        # sites, z = (-1, -1) two frozen sites off the box's own boundary
        region = Region(frozenset((i, j) for i in range(3) for j in range(3)) - {(2, 2)})
        edge = [(-1, j) for j in range(3)] + [(i, -1) for i in range(3)]
        spin = {"zeros": lambda k: 0, "ones": lambda k: 1, "mixed": lambda k: k % 2}[edge_spins]
        boundary = {y: spin(k) for k, y in enumerate(edge)}
        z = (2, 2)
        if z_reads != "region":
            z = (-1, -1)
            boundary.update({(-2, -1): int(z_reads[-1]), (-1, -2): int(z_reads[-1])})
        B = killed_operator(region, boundary, 0.35, z)
        assert B.indices.dtype == np.int32 and B.has_sorted_indices
        want = killed_reference(region, boundary, 0.35, z).toarray()
        assert np.max(np.abs(B.toarray() - want)) <= 1e-14

    def test_missing_boundary_site_named(self):
        with pytest.raises(ExactEngineError, match=r"missing boundary assignment for \(0,\)"):
            killed_operator(region_1d([1, 2]), {}, 0.5, (3,))
        with pytest.raises(ExactEngineError, match=r"missing boundary assignment for \(4,\)"):
            killed_operator(region_1d([1, 2]), {(0,): 0}, 0.5, (5,))

    def test_region_above_cap_named(self):
        region = region_1d(range(1, MAX_REGION_SITES + 2))
        with pytest.raises(ExactEngineError, match=f"region capped at {MAX_REGION_SITES} sites"):
            killed_operator(region, {(0,): 0}, 0.5, (MAX_REGION_SITES + 2,))

    def test_killed_site_inside_region_named(self):
        with pytest.raises(ExactEngineError, match=r"killed site \(2,\) lies inside the region"):
            killed_operator(region_1d([1, 2]), {(0,): 0}, 0.5, (2,))


class TestLowestTridiagonal:
    def test_bit_identical_to_eigvalsh_tridiagonal(self):
        # east1d_gap makes the LAPACK call of eigvalsh_tridiagonal itself, so a
        # change of scipy's wrapper arguments shows here
        rng = np.random.default_rng(12)
        for k in range(1, 301):
            alpha = rng.normal(size=k).tolist()
            beta = (rng.uniform(0.0, 1.0, k - 1) * 10.0 ** rng.uniform(-6, 1)).tolist()
            want = eigvalsh_tridiagonal(alpha, beta, select="i", select_range=(0, 0))[0]
            assert _lowest_tridiagonal(alpha, beta).hex() == float(want).hex()


class TestBernoulliWeights:
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_matches_product_of_site_factors(self, n):
        p = 0.3
        want = [math.prod(p if (s >> i) & 1 else 1 - p for i in range(n)) for s in range(1 << n)]
        assert np.allclose(bernoulli_weights(n, p), want, rtol=1e-14, atol=0)
