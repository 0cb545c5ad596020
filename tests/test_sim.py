import json
import math
import re

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

from eastlab import sim
from eastlab.lattice import (
    Configuration, Delta, Exterior, ModelParams, Window, east_constraint, initial_rows,
)
from eastlab.sim import BatchLog, SimulationError, replica_ring_slots, simulate, simulate_batch
from eastlab.streams import derive_seed, mix64, ring_draws, site_key
from eastlab.theory import oriented_path_check
from oracle import event_loop, off_cone_history


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

    @pytest.mark.parametrize("seed", [0, 2024, (1 << 64) - 1])
    def test_derive_seed_elementwise_on_arrays(self, seed):
        draws = np.array([0, 1, 7, 1 << 40, (1 << 64) - 1], dtype=np.uint64)
        runs = np.array([0, 19_999, 3, 0, 1 << 63], dtype=np.uint64)
        one = derive_seed(seed, "relax-sim", draws)
        two = derive_seed(seed, "relax-sim", draws, runs)
        assert one.dtype == two.dtype == np.uint64
        assert one.tolist() == [derive_seed(seed, "relax-sim", int(o)) for o in draws]
        assert two.tolist() == [
            derive_seed(seed, "relax-sim", int(o), int(i)) for o, i in zip(draws, runs)
        ]

    def test_site_stream_window_independent(self):
        # a site's stream is named by (seed, coordinates) alone
        def draws(seed, x):
            seeds = np.array([seed], dtype=np.uint64)
            return ring_draws(seeds, np.array([site_key(x)], dtype=np.uint64), 0, 4, 0.5)[0]

        a = draws(9, (2, 3))
        assert np.array_equal(a, draws(9, (2, 3)))
        assert not np.array_equal(a, draws(9, (3, 2)))
        assert not np.array_equal(a, draws(10, (2, 3)))


class TestSimulate:
    def test_blocked_all_ones(self):
        params = ModelParams(2, 0.5)
        init = Configuration.all_ones(Window((0, 0), (3, 3)), exterior=1)
        log = simulate(params, init, 50.0, 7)
        assert log.legal.sum() == 0
        assert np.array_equal(log.final_spins(), [init.spins])
        # no row was drawn for the sweep; its rings, read, are all illegal
        for x in init.window.sites:
            times, _, legal, _ = log.rings(0, x)
            assert times.size and not legal.any()
        assert not any(legal.any() for legal in event_loop(log, 0)[0])

    @pytest.mark.parametrize("sites", [254, 255, 256])
    def test_plane_dtype_edge_matches_event_loop(self, sites):
        # the sweep keeps hyperplane indices in the smallest uint; on these
        # 1-d windows the bounds of the last plane reach 255, 256 and 257
        init = Configuration.with_zeros(Window((1,), (sites,)), [(1,)], exterior=0)
        batch = simulate_batch(ModelParams(1, 0.5), init.rule, init.spins, 3.0, [1, 2])
        for r in range(len(batch)):
            legal, after = event_loop(batch, r)
            for i, x in enumerate(batch.window.sites):
                _, _, got_legal, got_after = batch.rings(r, x)
                assert np.array_equal(got_legal, legal[i]) and np.array_equal(got_after, after[i])

    def test_unconstrained_site_occupancy(self):
        # frozen zero neighbor: two-state chain with stationary P(spin 0) = 1-p
        log = single_site_log(p=0.3, horizon=10_000.0, seed=5)
        frac = log.occupation_time((1,), 10_000.0)[0] / 10_000.0
        # time-average sigma ~ sqrt(2 tau p(1-p) / T) with tau = 1
        sigma = math.sqrt(2 * 0.3 * 0.7 / 10_000.0)
        assert abs(frac - 0.7) < 3 * sigma
        assert log.legal.sum() == log.times.size  # every ring legal

    def test_deterministic_replay(self):
        params = ModelParams(2, 0.4)
        init = Configuration.with_zeros(Window((0, 0), (2, 2)), [(0, 0)])
        a = simulate(params, init, 20.0, 123).to_csv(0)
        b = simulate(params, init, 20.0, 123).to_csv(0)
        assert a == b

    def test_negative_horizon_rejected(self):
        params = ModelParams(1, 0.5)
        init = Configuration.all_ones(Window((0,), (0,)))
        with pytest.raises(SimulationError):
            simulate(params, init, -1.0, 0)

    @pytest.mark.parametrize("horizon, message", [(-1.0, "horizon must be >= 0, got -1.0"),
                                                  (2e9, "horizon capped at 1e"),
                                                  (math.nan, "horizon must be >= 0, got nan")])
    def test_horizon_outside_range_named(self, horizon, message):
        # NaN fails both comparisons, so the range test itself must reject it
        init = Configuration.all_ones(Window((0,), (1,)))
        with pytest.raises(SimulationError, match=message):
            simulate_batch(ModelParams(1, 0.5), init.rule, init.spins, horizon, [1])
        with pytest.raises(SimulationError, match=message):
            replica_ring_slots(init.window, horizon)

    def test_replica_index_outside_batch_rejected(self):
        log = single_site_log(horizon=1.0)
        for r in (-1, 1):
            for call in (log.initial, log.to_csv, lambda r: log.rings(r, (1,))):
                with pytest.raises(SimulationError, match=f"replica {r} not in a batch of 1"):
                    call(r)

    def test_spin_changes_only_at_legal_rings(self):
        params = ModelParams(1, 0.5)
        init = Configuration.with_zeros(Window((1,), (5,)), [(3,)], exterior=0)
        log = simulate(params, init, 30.0, 11)
        spins = list(init.spins)
        for line in log.to_csv(0).splitlines()[2:]:  # the rings of all sites in time order
            coords, _, bit, legal, spin_after = line.split(",")
            site, bit, legal, spin_after = (int(coords),), int(bit), legal == "1", int(spin_after)
            i = log.window.index(site)
            # legality matches the East constraint at the pre-ring configuration
            cfg = Configuration(log.window, tuple(spins), init.exterior)
            assert legal == east_constraint(cfg, site)
            if legal:
                spins[i] = bit
            assert spin_after == spins[i]
        assert np.array_equal(log.final_spins(), [spins])

    def test_ring_times_sorted_distinct(self):
        log = single_site_log(horizon=200.0)
        times = log.rings(0, (1,))[0].tolist()
        assert times and times == sorted(times)
        assert len(set(times)) == len(times)


class TestQueries:
    def test_spin_at_time_zero(self):
        params = ModelParams(1, 0.5)
        init = Configuration.with_zeros(Window((1,), (3,)), [(2,)])
        log = simulate(params, init, 5.0, 3)
        for x in log.window.sites:
            assert log.spin_at_time(x, 0.0)[0] == init.spin_at(x)

    def test_spin_at_time_follows_updates(self):
        log = single_site_log(p=0.3, horizon=50.0, seed=9)
        times, _, legal, after = log.rings(0, (1,))
        for t, a in list(zip(times[legal], after[legal]))[:20]:
            assert log.spin_at_time((1,), t)[0] == a

    def test_spin_at_time_errors(self):
        log = single_site_log(horizon=10.0)
        with pytest.raises(SimulationError):
            log.spin_at_time((2,), 1.0)
        with pytest.raises(SimulationError):
            log.spin_at_time((1,), 11.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_spin_at_many_times_stacks_single_queries(self, seed):
        # at every ring time (a ring at s counts by s), at 0, at the horizon
        # and in between
        rng = np.random.default_rng(seed)
        w = Window((0, 0), (2, 1))
        rule = Exterior(w, int(rng.integers(2)), {(-1, 0): 0})
        spins = rng.integers(0, 2, (5, len(w.sites)))
        batch = simulate_batch(ModelParams(2, float(rng.uniform(0.2, 0.8))), rule, spins, 2.0,
                               rng.integers(0, 1 << 62, 5))
        times = np.concatenate([batch.times, [0.0, batch.horizon],
                                rng.uniform(0.0, batch.horizon, 5)])
        rng.shuffle(times)
        for x in w.sites:
            want = np.stack([batch.spin_at_time(x, float(t)) for t in times], axis=1)
            got = batch.spin_at_time(x, times)
            assert got.dtype == want.dtype and (got == want).all()

    @pytest.mark.parametrize("times, bad", [([1.0, 11.0, -1.0], "11.0"), ([2.0, math.nan], "nan"),
                                            ([-0.5], "-0.5")])
    def test_spin_at_many_times_names_the_first_outside(self, times, bad):
        log = single_site_log(horizon=10.0)
        with pytest.raises(SimulationError, match=rf"^time {bad} outside \[0, horizon\]$"):
            log.spin_at_time((1,), np.array(times))

    def test_spin_at_time_of_2d_times_rejected(self):
        with pytest.raises(SimulationError, match=r"shape \(2, 1\)"):
            single_site_log(horizon=10.0).spin_at_time((1,), np.ones((2, 1)))

    @pytest.mark.parametrize("t", [[1.0], np.ones(2), np.ones((2, 1))], ids=["list", "1d", "2d"])
    def test_occupation_time_of_many_times_rejected(self, t):
        # numpy once raised its bare "truth value of an array ... is ambiguous"
        shape = re.escape(str(np.shape(t)))
        with pytest.raises(SimulationError, match=rf"^t must be one time, got shape {shape}$"):
            single_site_log(horizon=10.0).occupation_time((1,), t)

    def test_occupation_time_trivial(self):
        params = ModelParams(1, 0.5)
        init = Configuration.all_ones(Window((1,), (2,)), exterior=1)  # blocked
        log = simulate(params, init, 10.0, 1)
        assert log.occupation_time((1,), 7.0)[0] == 0.0
        init0 = Configuration.with_zeros(Window((1,), (1,)), [(1,)], exterior=1)
        log0 = simulate(ModelParams(1, 0.5), init0, 10.0, 1)
        # neighbor (0,) frozen at 1: no legal ring, spin stays 0
        assert log0.occupation_time((1,), 8.5)[0] == pytest.approx(8.5)

    @pytest.mark.parametrize("d, horizon", [(1, 2.0), (2, 2.0), (3, 2.0), (1, 0.0)],
                             ids=["1d", "2d", "3d", "no-rings"])
    def test_occupation_matches_sequential_sum(self, d, horizon):
        # bit for bit x's zero intervals up to t summed in ring order, then
        # the tail to t, in every replica: at 0, between rings, at ring
        # times and at the horizon, with some replicas that never ring at x
        w = Window((0,) * d, (2,) * (d - 1) + (1 + (d == 1) * 4,))
        spins = np.random.default_rng(d).integers(0, 2, (12, w.site_count()))
        batch = simulate_batch(ModelParams(d, 0.5), Exterior(w, 0, {}), spins, horizon, range(12))
        bare = 0
        for x in w.sites:
            rungs = [batch.rings(r, x) for r in range(len(batch))]
            inits = [batch.initial(r).spin_at(x) for r in range(len(batch))]
            bare += sum(times.size == 0 for times, *_ in rungs)
            edges = np.concatenate([[0.0, batch.horizon], *(ts for ts, *_ in rungs)])
            edges = np.unique(edges)
            for t in np.concatenate([edges, (edges[1:] + edges[:-1]) / 2]):
                occ = batch.occupation_time(x, float(t))
                for r, (times, _, _, after) in enumerate(rungs):
                    acc, prev_t, prev_s = 0.0, 0.0, inits[r]
                    for s, a in zip(times[times <= t], after[times <= t]):
                        if prev_s == 0:
                            acc += s - prev_t
                        prev_t, prev_s = s, a
                    if prev_s == 0:
                        acc += t - prev_t
                    assert occ[r] == acc, (x, r, t)
        assert bare > 0

    def test_occupation_piecewise(self):
        log = single_site_log(p=0.5, horizon=50.0, seed=21)
        # cross-check against a dense-grid replay of the same log
        grid = np.linspace(0, 20.0, 40_001)
        dense = np.mean([1 - log.spin_at_time((1,), float(s))[0] for s in grid[:-1]]) * 20.0
        assert abs(log.occupation_time((1,), 20.0)[0] - dense) < 0.01

    def test_occupation_sum_identity(self):
        params = ModelParams(2, 0.5)
        init = Configuration.with_zeros(Window((0, 0), (2, 2)), [(0, 0)], exterior=1)
        log = simulate(params, init, 15.0, 4)
        t = 12.0
        total_zero = sum(log.occupation_time(x, t)[0] for x in log.window.sites)
        # time at one computed by independent replay of each site
        total_one = 0.0
        for x in log.window.sites:
            times, _, legal, after = log.rings(0, x)
            keep = legal & (times <= t)
            cur, last, acc = init.spin_at(x), 0.0, 0.0
            for s, a in zip(times[keep], after[keep]):
                if cur == 1:
                    acc += s - last
                cur, last = a, s
            if cur == 1:
                acc += t - last
            total_one += acc
        assert abs(total_zero + total_one - 9 * t) < 1e-9

    def test_first_update_time(self):
        blocked = simulate(
            ModelParams(1, 0.5), Configuration.all_ones(Window((1,), (2,))), 10.0, 2
        )
        assert blocked.first_update_time((1,))[0] == math.inf
        log = single_site_log(horizon=50.0, seed=13)
        first_ring = log.rings(0, (1,))[0][0]
        assert log.first_update_time((1,))[0] == pytest.approx(first_ring)

    def test_first_update_not_before_first_ring(self):
        # tau_x is at least the site's first ring time
        params = ModelParams(1, 0.5)
        init = Configuration.with_zeros(Window((1,), (4,)), [(2,)], exterior=0)
        for seed in range(30):
            log = simulate(params, init, 20.0, seed)
            for x in log.window.sites:
                rings = log.rings(0, x)[0]
                tau = log.first_update_time(x)[0]
                if tau != math.inf and rings.size:
                    assert tau >= rings[0] - 1e-15

    def test_updated_set(self):
        # the sites updated by a deadline: first_update_time <= deadline
        blocked = simulate(
            ModelParams(1, 0.5), Configuration.all_ones(Window((1,), (2,))), 10.0, 2
        )
        assert not (blocked.first_update_time((1,)) <= 10.0).any()
        assert not (blocked.first_update_time((2,)) <= 10.0).any()
        log = single_site_log(horizon=10.0, seed=17)
        assert (log.first_update_time((1,)) <= 0.0).tolist() == [False]
        assert (log.first_update_time((1,)) <= 10.0).tolist() == [True]
        with pytest.raises(SimulationError, match=r"site \(2,\) outside window"):
            log.first_update_time((2,))

    def test_updated_set_hit_probability(self):
        # single unconstrained site: P(some ring by deadline) = 1 - e^{-deadline}
        deadline = 2.0
        n = 10_000
        params = ModelParams(1, 0.3)
        init = Configuration(Window((1,), (1,)), (1,), exterior=0)
        seeds = [derive_seed(99, r) for r in range(n)]
        batch = simulate_batch(params, init.rule, init.spins, deadline, seeds)
        hits = int((batch.first_update_time((1,)) <= deadline).sum())
        target = 1 - math.exp(-deadline)
        sigma = math.sqrt(target * (1 - target) / n)
        assert abs(hits / n - target) < 3 * sigma


class TestBatchInput:
    def test_single_row_broadcasts(self):
        params = ModelParams(2, 0.4)
        init = Configuration.with_zeros(Window((0, 0), (2, 1)), [(1, 0)], exterior=0)
        seeds = [3, 4, 5]
        one = simulate_batch(params, init.rule, init.spins, 6.0, seeds)
        every = simulate_batch(params, init.rule, [init.spins] * 3, 6.0, seeds)
        for r in range(3):
            assert one.to_csv(r) == every.to_csv(r)
            assert one.initial(r) == init

    @pytest.mark.parametrize("spins", [[(1, 0)] * 2, [(1, 0, 1)], [(1, 2)], [(1,)], [[1], [0, 1]],
                                       [0.5, 1], [1.7, 0], [256, 1]],
                             ids=["rows", "sites", "value", "one-site-row", "ragged",
                                  "fraction", "above-one", "int8-overflow"])
    def test_bad_spins_rejected(self, spins):
        # a fraction would truncate to 0 or 1 and 256 wrap in an int8 cast
        init = Configuration.all_ones(Window((0,), (1,)))
        with pytest.raises(SimulationError):
            simulate_batch(ModelParams(1, 0.5), init.rule, spins, 1.0, [1, 2, 3])

    def test_no_stream_gives_empty_csr(self):
        offsets, times, bits = sim._ring_times(np.empty(0, dtype=np.uint64),
                                               np.empty(0, dtype=np.uint64), 0.5, 3.0)
        assert offsets.tolist() == [0] and times.size == bits.size == 0

    def test_summaries_built_on_first_use(self):
        init = Configuration.with_zeros(Window((0, 0), (2, 2)), [(0, 0)], exterior=0)
        batch = simulate_batch(ModelParams(2, 0.5), init.rule, init.spins, 5.0, [1, 2])
        assert "first_legal" not in vars(batch)
        batch.first_update_time((1, 1))
        assert "first_legal" in vars(batch)
        batch.occupation_time((1, 1), 5.0)  # reads x's own rings, no summary
        assert "first_change" not in vars(batch)
        oriented_path_check(batch, 2.0, 0.1, (0, 0))  # reads which sites stayed at 0
        assert "first_change" in vars(batch)


class TestStatisticalContracts:
    def test_ring_counts_poisson(self):
        # chi-square goodness of fit of per-site ring counts at the 0.1% level
        T = 2.0
        n = 10_000
        params = ModelParams(1, 0.5)
        init = Configuration(Window((0,), (0,)), (1,), exterior=1)
        seeds = [derive_seed(5, r) for r in range(n)]
        batch = simulate_batch(params, init.rule, init.spins, T, seeds)
        # the site is blocked, so its rings are drawn when read, not swept
        counts = np.array([batch.rings(r, (0,))[0].size for r in range(n)])
        kmax = 9
        observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        probs = poisson.pmf(np.arange(kmax), T)
        probs = np.append(probs, 1 - probs.sum())
        stat, pvalue = chisquare(observed, n * probs)
        assert pvalue > 0.001

    def test_bits_bernoulli(self):
        log = single_site_log(p=0.3, horizon=5_000.0, seed=31)
        _, ring_bits, legal, _ = log.rings(0, (1,))
        bits = ring_bits[legal]
        mean = np.mean(bits)
        sigma = math.sqrt(0.3 * 0.7 / len(bits))
        assert abs(mean - 0.3) < 3 * sigma

    def test_cone_measurability(self):
        # other rings outside x + (-N)^d leave the trajectory at x intact
        params = ModelParams(2, 0.5)
        w = Window((-3, -3), (2, 2))
        x = (0, 0)
        for trial in range(20):
            rng = np.random.default_rng(trial)
            spins = tuple(int(v) for v in rng.integers(0, 2, w.site_count()))
            init = Configuration(w, spins, exterior=1)
            base = simulate(params, init, 8.0, derive_seed(1000, trial))
            other = simulate(params, init, 8.0, derive_seed(1000, trial, "off-cone"))
            pert = off_cone_history(base, other, x)
            ref = [(t, a) for t, _, legal, a in zip(*base.rings(0, x)) if legal]
            got = [(t, a) for t, _, legal, a in zip(*pert.rings(0, x)) if legal]
            assert ref == got
            off = [y for y in w.sites if not all(c <= xc for c, xc in zip(y, x))]
            assert any(not np.array_equal(base.rings(0, y)[0], pert.rings(0, y)[0]) for y in off)


class TestCsv:
    def test_round_trip(self):
        params = ModelParams(2, 0.25)
        init = Configuration.with_zeros(
            Window((0, 0), (1, 1)), [(0, 0)], exterior=1, overrides={(-1, 0): 0}
        )
        log = simulate(params, init, 12.0, 77)
        text = log.to_csv(0)
        log2 = BatchLog.from_csv(text)
        assert log2.to_csv(0) == text
        assert log2.first_update_time((1, 1)) == log.first_update_time((1, 1))
        assert log2.occupation_time((0, 0), 12.0) == log.occupation_time((0, 0), 12.0)

    def test_round_trip_of_every_replica(self):
        # each replica's CSV carries its own seed and initial row, under exterior
        # overrides that a Delta start leaves outside the window, and replays
        # to that replica's rings
        stored = Configuration.with_zeros(Window((-1, -1), (2, 1)), [(-1, 0), (0, -1), (1, 1)],
                                          exterior=1)
        w = Window((0, 0), (2, 1))
        rule, rows = initial_rows(Delta(stored), w, 0, range(4))
        rows = np.array(rows)
        rows[1:] = [[1, 0, 0, 1, 1, 1], [0, 1, 1, 0, 1, 0], [1, 1, 1, 1, 0, 0]]
        assert rule.overrides and len({tuple(row) for row in rows}) == 4
        batch = simulate_batch(ModelParams(2, 0.45), rule, rows, 6.0, [11, 12, 13, 14])
        for r in range(len(batch)):
            text = batch.to_csv(r)
            replay = BatchLog.from_csv(text)
            assert len(replay) == 1 and replay.to_csv(0) == text
            assert replay.initial(0) == batch.initial(r)
            assert replay.seeds[0] == batch.seeds[r]
            for x in w.sites:
                for got, want in zip(replay.rings(0, x), batch.rings(r, x)):
                    assert np.array_equal(got, want)

    # hand-written logs in which x - e_i and x ring at the same instant, with
    # the rows of the opposite tie outcome: ties break by site order, so x
    # sees its neighbor's new spin
    TIES = {
        # site 0 is frozen at 0, so site 1 flips to 0 at t = 1 and site 2 may update then
        "1d": ({"d": 1, "window_lower": [1], "window_upper": [2], "exterior": 0,
                "initial_spins": "11"},
               ["1,1,0,1,0", "2,1,0,1,0"], {1: "2,1,0,0,1"}, (2,), [((1,), 1.0)]),
        # (0, 0) stays 0; x = (1, 1) is blocked but at t = 1 by x - e_0 = (0, 1)
        # and at t = 3 by x - e_1 = (1, 0), each flipping to 0 at that instant
        "2d": ({"d": 2, "window_lower": [0, 0], "window_upper": [1, 1], "exterior": 1,
                "initial_spins": "0111"},
               ["0;1,1,0,1,0", "1;1,1,0,1,0", "0;1,2,1,1,1", "1;0,3,0,1,0", "1;1,3,1,1,1"],
               {1: "1;1,1,0,0,1", 4: "1;1,3,1,0,1"}, (1, 1), [((0, 1), 1.0), ((1, 0), 3.0)]),
    }

    @pytest.mark.parametrize("case", sorted(TIES))
    def test_tied_neighbor_rings_first(self, case):
        fields, rows, opposite, x, ties = self.TIES[case]
        manifest = {"p": 0.5, "seed": 0, "horizon": 4.0, "stream_version": 3,
                    "exterior_overrides": [], **fields}
        head = ["# " + json.dumps(manifest), "site_coords,time,bit,legal,spin_after"]
        batch = BatchLog.from_csv("\n".join(head + rows) + "\n")
        legal, after = event_loop(batch, 0)
        for i, y in enumerate(batch.window.sites):
            _, _, got_legal, got_after = batch.rings(0, y)
            assert np.array_equal(got_legal, legal[i]) and np.array_equal(got_after, after[i])
        times, _, x_legal, x_after = batch.rings(0, x)
        for nb, t in ties:
            assert x_legal[times == t].all()
            # at the tied instant the spins read are those after both rings
            assert batch.spin_at_time(nb, t)[0] == 0
            assert batch.spin_at_time(x, t)[0] == x_after[times == t][0]
        flipped = [opposite.get(k, row) for k, row in enumerate(rows)]
        with pytest.raises(SimulationError, match="differs from the replayed rings"):
            BatchLog.from_csv("\n".join(head + flipped) + "\n")

    def test_header(self):
        log = single_site_log(horizon=1.0)
        lines = log.to_csv(0).splitlines()
        assert lines[0].startswith("# ")
        assert json.loads(lines[0][2:])["stream_version"] == 3
        assert lines[1] == "site_coords,time,bit,legal,spin_after"

    def test_swapped_rings_rejected(self):
        lines = single_site_log(horizon=10.0, seed=9).to_csv(0).splitlines()
        assert len(lines) >= 4
        lines[2], lines[3] = lines[3], lines[2]
        with pytest.raises(SimulationError):
            BatchLog.from_csv("\n".join(lines))

    def test_wrong_header_rejected(self):
        lines = single_site_log(horizon=10.0, seed=9).to_csv(0).splitlines()
        lines[1] = "site_coords,bit,time,legal,spin_after"
        with pytest.raises(SimulationError):
            BatchLog.from_csv("\n".join(lines))

    @pytest.mark.parametrize("site, time", [("2", None), (None, "0"), (None, "10.5")])
    def test_ring_outside_window_or_horizon_rejected(self, site, time):
        lines = single_site_log(horizon=10.0, seed=9).to_csv(0).splitlines()
        fields = lines[2].split(",")
        fields[0] = site or fields[0]
        fields[1] = time or fields[1]
        lines[2] = ",".join(fields)
        with pytest.raises(SimulationError):
            BatchLog.from_csv("\n".join(lines))

    @pytest.mark.parametrize(
        "edits", [{3: "flip", 4: "7"}, {3: "flip"}, {2: "5"}], ids=["spin_after", "legal", "bit"]
    )
    def test_columns_disagreeing_with_replay_rejected(self, edits):
        lines = single_site_log(horizon=10.0, seed=9).to_csv(0).splitlines()
        fields = lines[2].split(",")
        for k, value in edits.items():
            fields[k] = str(1 - int(fields[k])) if value == "flip" else value
        lines[2] = ",".join(fields)
        with pytest.raises(SimulationError):
            BatchLog.from_csv("\n".join(lines))

    # a field of the wrong type or range, or a d unlike the window's: manifest
    # values to set, or a column of the first ring's row and its text
    BAD_FIELDS = {
        "time": (1, "x"), "bit": (2, "x"), "legal": (3, "x"), "spin_after": (4, "x"),
        "bit-300": (2, "300"), "legal-300": (3, "300"),
        "d-str": {"d": "x"}, "p-str": {"p": "x"}, "p-2": {"p": 2}, "horizon-str": {"horizon": "x"},
        "seed-negative": {"seed": -1}, "lower-int": {"window_lower": 5}, "exterior-7": {"exterior": 7},
        "overrides-int": {"exterior_overrides": 5}, "spins-int": {"initial_spins": 1011},
        "spins-letter": {"initial_spins": "01x1"},
        "override-of-2d": {"exterior_overrides": [[[5, 5], 0]]},
        # a bool or a float where an integer belongs, which replayed truncated or as 0/1
        "seed-float": {"seed": 9.7}, "seed-bool": {"seed": True}, "d-bool": {"d": True},
        "exterior-bool": {"exterior": True}, "exterior-float": {"exterior": 1.0},
        "override-bool": {"exterior_overrides": [[[-1], True]]},
        # the window {0..1} again, which replayed and was written back as bools
        "lower-bool": {"window_lower": [False], "window_upper": [True]},
        "lower-float": {"window_lower": [0.0]}, "horizon-bool": {"horizon": True},
        # a replay would carry d = 3 into batch.params.d, which theory reads
        "d-3": {"d": 3},
    }

    # what each malformed log's error says
    MALFORMED = {
        "empty": "empty event log",
        "missing-key": "manifest lacks horizon",
        "short-row": "does not have 5 columns",
        # "1" once broadcast to every site, which on an all-ones start even
        # replayed to the same columns
        "one-initial-spin": "one row of 2 window spins",
        "not-json": "is not a JSON object",
        "coordinate": "site coordinates must be integers",
        **dict.fromkeys(BAD_FIELDS, "malformed event log"),
        "d-3": "window dimension does not match params.d",
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_log_rejected(self, case):
        init = Configuration.all_ones(Window((0,), (1,)), exterior=0)
        lines = simulate(ModelParams(1, 0.5), init, 5.0, 9).to_csv(0).splitlines()
        assert len(lines) > 2
        manifest = json.loads(lines[0][2:])
        edit = self.BAD_FIELDS.get(case)
        if case == "empty":
            lines = []
        elif case == "missing-key":
            del manifest["horizon"]
        elif case == "short-row":
            lines[2] = lines[2].rsplit(",", 1)[0]
        elif case == "one-initial-spin":
            manifest["initial_spins"] = "1"
        elif isinstance(edit, dict):
            manifest.update(edit)
        elif edit:
            fields = lines[2].split(",")
            fields[edit[0]] = edit[1]
            lines[2] = ",".join(fields)
        if lines:
            lines[0] = "# " + json.dumps(manifest)
        if case == "not-json":
            lines[0] = "# not json"
        elif case == "coordinate":
            lines[2] = "x" + lines[2]
        with pytest.raises(SimulationError, match=self.MALFORMED[case]):
            BatchLog.from_csv("\n".join(lines))
