import json
import math

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

from eastlab.lattice import Configuration, ModelParams, Region, Window
from eastlab.sim import EventLog, SimulationError, simulate, simulate_batch
from eastlab.streams import derive_seed, mix64, ring_draws, site_key


def single_site_log(p=0.3, horizon=100.0, seed=1, exterior=0):
    params = ModelParams(1, p)
    w = Window((1,), (1,))
    init = Configuration(w, (1,), exterior=exterior)
    return simulate(params, init, horizon, seed)


class TestStreams:
    def test_mix64_deterministic(self):
        assert mix64(1, 2, 3) == mix64(1, 2, 3)
        assert mix64(1, 2) != mix64(2, 1)
        assert mix64(-5) != mix64(5)

    def test_site_stream_window_independent(self):
        # a site's stream is named by (seed, coordinates, salt) alone
        def draws(seed, x, salt=0):
            seeds = np.array([seed], dtype=np.uint64)
            return ring_draws(seeds, np.array([site_key(x, salt)], dtype=np.uint64), 0, 4)[0]

        a = draws(9, (2, 3))
        assert np.array_equal(a, draws(9, (2, 3)))
        assert not np.array_equal(a, draws(9, (3, 2)))
        assert not np.array_equal(a, draws(9, (2, 3), salt=1))
        assert not np.array_equal(a, draws(10, (2, 3)))


class TestSimulate:
    def test_blocked_all_ones(self):
        params = ModelParams(2, 0.5)
        init = Configuration.all_ones(Window((0, 0), (3, 3)), exterior=1)
        log = simulate(params, init, 50.0, 7)
        assert log.n_legal() == 0
        assert log.final_spins() == init.spins

    def test_unconstrained_site_occupancy(self):
        # frozen zero neighbor: two-state chain with stationary P(spin 0) = 1-p
        log = single_site_log(p=0.3, horizon=10_000.0, seed=5)
        frac = log.occupation_time((1,), 10_000.0) / 10_000.0
        # time-average sigma ~ sqrt(2 tau p(1-p) / T) with tau = 1
        sigma = math.sqrt(2 * 0.3 * 0.7 / 10_000.0)
        assert abs(frac - 0.7) < 3 * sigma
        assert log.n_legal() == len(log)  # every ring legal

    def test_deterministic_replay(self):
        params = ModelParams(2, 0.4)
        init = Configuration.with_zeros(Window((0, 0), (2, 2)), [(0, 0)])
        a = simulate(params, init, 20.0, 123).to_csv()
        b = simulate(params, init, 20.0, 123).to_csv()
        assert a == b

    def test_negative_horizon_rejected(self):
        params = ModelParams(1, 0.5)
        init = Configuration.all_ones(Window((0,), (0,)))
        with pytest.raises(SimulationError):
            simulate(params, init, -1.0, 0)

    def test_spin_changes_only_at_legal_rings(self):
        params = ModelParams(1, 0.5)
        init = Configuration.with_zeros(Window((1,), (5,)), [(3,)], exterior=0)
        log = simulate(params, init, 30.0, 11)
        spins = list(init.spins)
        for rec in log.records:
            i = log.window.index(rec.site)
            # legality matches the East constraint at the pre-ring configuration
            cfg = Configuration(log.window, tuple(spins), init.exterior)
            from eastlab.lattice import east_constraint

            assert rec.legal == east_constraint(cfg, rec.site)
            if rec.legal:
                spins[i] = rec.bit
            assert rec.spin_after == spins[i]
        assert tuple(spins) == log.final_spins()

    def test_ring_times_sorted_distinct(self):
        log = single_site_log(horizon=200.0)
        times = [r.time for r in log.records]
        assert times == sorted(times)
        assert len(set(times)) == len(times)


class TestQueries:
    def test_spin_at_time_zero(self):
        params = ModelParams(1, 0.5)
        init = Configuration.with_zeros(Window((1,), (3,)), [(2,)])
        log = simulate(params, init, 5.0, 3)
        for x in log.window.sites:
            assert log.spin_at_time(x, 0.0) == init.spin_at(x)

    def test_spin_at_time_follows_updates(self):
        log = single_site_log(p=0.3, horizon=50.0, seed=9)
        recs = [r for r in log.records if r.legal]
        for rec in recs[:20]:
            assert log.spin_at_time((1,), rec.time) == rec.spin_after

    def test_spin_at_time_errors(self):
        log = single_site_log(horizon=10.0)
        with pytest.raises(SimulationError):
            log.spin_at_time((2,), 1.0)
        with pytest.raises(SimulationError):
            log.spin_at_time((1,), 11.0)

    def test_occupation_time_trivial(self):
        params = ModelParams(1, 0.5)
        init = Configuration.all_ones(Window((1,), (2,)), exterior=1)  # blocked
        log = simulate(params, init, 10.0, 1)
        assert log.occupation_time((1,), 7.0) == 0.0
        init0 = Configuration.with_zeros(Window((1,), (1,)), [(1,)], exterior=1)
        log0 = simulate(ModelParams(1, 0.5), init0, 10.0, 1)
        # neighbor (0,) frozen at 1: no legal ring, spin stays 0
        assert log0.occupation_time((1,), 8.5) == pytest.approx(8.5)

    def test_occupation_piecewise(self):
        log = single_site_log(p=0.5, horizon=50.0, seed=21)
        # cross-check against a dense-grid replay of the same log
        grid = np.linspace(0, 20.0, 40_001)
        dense = np.mean([1 - log.spin_at_time((1,), float(s)) for s in grid[:-1]]) * 20.0
        assert abs(log.occupation_time((1,), 20.0) - dense) < 0.01

    def test_occupation_sum_identity(self):
        params = ModelParams(2, 0.5)
        init = Configuration.with_zeros(Window((0, 0), (2, 2)), [(0, 0)], exterior=1)
        log = simulate(params, init, 15.0, 4)
        t = 12.0
        total_zero = sum(log.occupation_time(x, t) for x in log.window.sites)
        # time at one computed by independent replay of each site
        total_one = 0.0
        for x in log.window.sites:
            idx = [r for r in log.records if r.site == x and r.legal and r.time <= t]
            cur, last, acc = init.spin_at(x), 0.0, 0.0
            for r in idx:
                if cur == 1:
                    acc += r.time - last
                cur, last = r.spin_after, r.time
            if cur == 1:
                acc += t - last
            total_one += acc
        assert abs(total_zero + total_one - 9 * t) < 1e-9

    def test_first_update_time(self):
        blocked = simulate(
            ModelParams(1, 0.5), Configuration.all_ones(Window((1,), (2,))), 10.0, 2
        )
        assert blocked.first_update_time((1,)) is None
        log = single_site_log(horizon=50.0, seed=13)
        first_ring = log.records[0].time
        assert log.first_update_time((1,)) == pytest.approx(first_ring)

    def test_first_update_not_before_first_ring(self):
        # tau_x is at least the site's first ring time
        params = ModelParams(1, 0.5)
        init = Configuration.with_zeros(Window((1,), (4,)), [(2,)], exterior=0)
        for seed in range(30):
            log = simulate(params, init, 20.0, seed)
            for x in log.window.sites:
                rings = [r.time for r in log.records if r.site == x]
                tau = log.first_update_time(x)
                if tau is not None and rings:
                    assert tau >= rings[0] - 1e-15

    def test_updated_set(self):
        region = Region(frozenset({(1,), (2,)}))
        blocked = simulate(
            ModelParams(1, 0.5), Configuration.all_ones(Window((1,), (2,))), 10.0, 2
        )
        assert blocked.updated_set(region, 10.0) == set()
        log = single_site_log(horizon=10.0, seed=17)
        assert log.updated_set(Region(frozenset({(1,)})), 0.0) == set()
        assert log.updated_set(Region(frozenset({(1,)})), 10.0) == {(1,)}

    def test_updated_set_hit_probability(self):
        # single unconstrained site: P(some ring by deadline) = 1 - e^{-deadline}
        deadline = 2.0
        n = 10_000
        params = ModelParams(1, 0.3)
        init = Configuration(Window((1,), (1,)), (1,), exterior=0)
        seeds = [derive_seed(99, r) for r in range(n)]
        batch = simulate_batch(params, [init] * n, deadline, seeds)
        hits = int(batch.updated_set([(1,)], deadline).sum())
        target = 1 - math.exp(-deadline)
        sigma = math.sqrt(target * (1 - target) / n)
        assert abs(hits / n - target) < 3 * sigma


class TestStatisticalContracts:
    def test_ring_counts_poisson(self):
        # chi-square goodness of fit of per-site ring counts at the 0.1% level
        T = 2.0
        n = 10_000
        params = ModelParams(1, 0.5)
        init = Configuration(Window((0,), (0,)), (1,), exterior=1)
        batch = simulate_batch(params, [init] * n, T, [derive_seed(5, r) for r in range(n)])
        counts = np.diff(batch.offsets)
        kmax = 9
        observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        probs = poisson.pmf(np.arange(kmax), T)
        probs = np.append(probs, 1 - probs.sum())
        stat, pvalue = chisquare(observed, n * probs)
        assert pvalue > 0.001

    def test_bits_bernoulli(self):
        log = single_site_log(p=0.3, horizon=5_000.0, seed=31)
        bits = [r.bit for r in log.records if r.legal]
        mean = np.mean(bits)
        sigma = math.sqrt(0.3 * 0.7 / len(bits))
        assert abs(mean - 0.3) < 3 * sigma

    def test_cone_measurability(self):
        # perturbing streams outside x + (-N)^d leaves the trajectory at x intact
        params = ModelParams(2, 0.5)
        w = Window((-3, -3), (2, 2))
        x = (0, 0)
        for trial in range(20):
            rng = np.random.default_rng(trial)
            spins = tuple(int(v) for v in rng.integers(0, 2, w.site_count()))
            init = Configuration(w, spins, exterior=1)
            base = simulate(params, init, 8.0, derive_seed(1000, trial))
            salts = {
                y: 1 + trial
                for y in w.sites
                if not all(c <= xc for c, xc in zip(y, x))
            }
            pert = simulate(params, init, 8.0, derive_seed(1000, trial), stream_salts=salts)
            ref = [(r.time, r.spin_after) for r in base.records if r.site == x and r.legal]
            got = [(r.time, r.spin_after) for r in pert.records if r.site == x and r.legal]
            assert ref == got


class TestCsv:
    def test_round_trip(self):
        params = ModelParams(2, 0.25)
        init = Configuration.with_zeros(
            Window((0, 0), (1, 1)), [(0, 0)], exterior=1, overrides={(-1, 0): 0}
        )
        log = simulate(params, init, 12.0, 77)
        text = log.to_csv()
        log2 = EventLog.from_csv(text)
        assert log2.to_csv() == text
        assert log2.first_update_time((1, 1)) == log.first_update_time((1, 1))
        assert log2.occupation_time((0, 0), 12.0) == log.occupation_time((0, 0), 12.0)

    def test_header(self):
        log = single_site_log(horizon=1.0)
        lines = log.to_csv().splitlines()
        assert lines[0].startswith("# ")
        assert json.loads(lines[0][2:])["stream_version"] == 2
        assert lines[1] == "site_coords,time,bit,legal,spin_after"
