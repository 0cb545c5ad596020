import json
import math

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

from eastlab.lattice import Configuration, Delta, Exterior, ModelParams, Window, initial_rows
from eastlab.sim import BatchLog, SimulationError, replica_ring_slots, simulate, simulate_batch
from eastlab.streams import derive_seed, mix64, ring_draws, site_key
from eastlab.theory import oriented_path_check


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
        # a site's stream is named by (seed, coordinates, salt) alone
        def draws(seed, x, salt=0):
            seeds = np.array([seed], dtype=np.uint64)
            return ring_draws(seeds, np.array([site_key(x, salt)], dtype=np.uint64), 0, 4, 0.5)[0]

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
        assert log.legal.sum() == 0
        assert np.array_equal(log.final_spins(), [init.spins])

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
            for call in (log.initial, log.records, log.to_csv, lambda r: log.rings(r, (1,))):
                with pytest.raises(SimulationError, match=f"replica {r} not in a batch of 1"):
                    call(r)

    def test_spin_changes_only_at_legal_rings(self):
        params = ModelParams(1, 0.5)
        init = Configuration.with_zeros(Window((1,), (5,)), [(3,)], exterior=0)
        log = simulate(params, init, 30.0, 11)
        spins = list(init.spins)
        for rec in log.records(0):
            i = log.window.index(rec.site)
            # legality matches the East constraint at the pre-ring configuration
            cfg = Configuration(log.window, tuple(spins), init.exterior)
            from eastlab.lattice import east_constraint

            assert rec.legal == east_constraint(cfg, rec.site)
            if rec.legal:
                spins[i] = rec.bit
            assert rec.spin_after == spins[i]
        assert np.array_equal(log.final_spins(), [spins])

    def test_ring_times_sorted_distinct(self):
        log = single_site_log(horizon=200.0)
        times = [r.time for r in log.records(0)]
        assert times == sorted(times)
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
        recs = [r for r in log.records(0) if r.legal]
        for rec in recs[:20]:
            assert log.spin_at_time((1,), rec.time)[0] == rec.spin_after

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
        assert log.occupation_time((1,), 7.0)[0] == 0.0
        init0 = Configuration.with_zeros(Window((1,), (1,)), [(1,)], exterior=1)
        log0 = simulate(ModelParams(1, 0.5), init0, 10.0, 1)
        # neighbor (0,) frozen at 1: no legal ring, spin stays 0
        assert log0.occupation_time((1,), 8.5)[0] == pytest.approx(8.5)

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
            idx = [r for r in log.records(0) if r.site == x and r.legal and r.time <= t]
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
        assert blocked.first_update_time((1,))[0] == math.inf
        log = single_site_log(horizon=50.0, seed=13)
        first_ring = log.records(0)[0].time
        assert log.first_update_time((1,))[0] == pytest.approx(first_ring)

    def test_first_update_not_before_first_ring(self):
        # tau_x is at least the site's first ring time
        params = ModelParams(1, 0.5)
        init = Configuration.with_zeros(Window((1,), (4,)), [(2,)], exterior=0)
        for seed in range(30):
            log = simulate(params, init, 20.0, seed)
            for x in log.window.sites:
                rings = [r.time for r in log.records(0) if r.site == x]
                tau = log.first_update_time(x)[0]
                if tau != math.inf and rings:
                    assert tau >= rings[0] - 1e-15

    def test_updated_set(self):
        blocked = simulate(
            ModelParams(1, 0.5), Configuration.all_ones(Window((1,), (2,))), 10.0, 2
        )
        assert not blocked.updated_set([(1,), (2,)], 10.0).any()
        log = single_site_log(horizon=10.0, seed=17)
        assert log.updated_set([(1,)], 0.0).tolist() == [[False]]
        assert log.updated_set([(1,)], 10.0).tolist() == [[True]]
        with pytest.raises(SimulationError, match=r"site \(2,\) outside window"):
            log.updated_set([(1,), (2,)], 10.0)

    @pytest.mark.parametrize("deadline", [10.5, math.nan, math.inf])
    def test_deadline_beyond_horizon_rejected(self, deadline):
        # NaN would otherwise compare false and read as "no site updated"
        log = single_site_log(horizon=10.0, seed=17)
        with pytest.raises(SimulationError, match=f"deadline {deadline} beyond horizon"):
            log.updated_set([(1,)], deadline)

    def test_updated_set_hit_probability(self):
        # single unconstrained site: P(some ring by deadline) = 1 - e^{-deadline}
        deadline = 2.0
        n = 10_000
        params = ModelParams(1, 0.3)
        init = Configuration(Window((1,), (1,)), (1,), exterior=0)
        seeds = [derive_seed(99, r) for r in range(n)]
        batch = simulate_batch(params, init.rule, init.spins, deadline, seeds)
        hits = int(batch.updated_set([(1,)], deadline).sum())
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

    @pytest.mark.parametrize("spins", [[(1, 0)] * 2, [(1, 0, 1)], [(1, 2)]],
                             ids=["rows", "sites", "value"])
    def test_bad_spins_rejected(self, spins):
        init = Configuration.all_ones(Window((0,), (1,)))
        with pytest.raises(SimulationError):
            simulate_batch(ModelParams(1, 0.5), init.rule, spins, 1.0, [1, 2, 3])

    def test_summaries_built_on_first_use(self):
        init = Configuration.with_zeros(Window((0, 0), (2, 2)), [(0, 0)], exterior=0)
        batch = simulate_batch(ModelParams(2, 0.5), init.rule, init.spins, 5.0, [1, 2])
        batch.first_update_time((1, 1))
        assert "zero_time" not in vars(batch) and "first_change" not in vars(batch)
        batch.occupation_time((1, 1), 5.0)
        assert "zero_time" in vars(batch) and "first_change" not in vars(batch)
        oriented_path_check(batch, 2.0, 0.1, (0, 0))  # reads which sites stayed at 0
        assert "first_change" in vars(batch)


class TestResume:
    def batch(self):
        w = Window((0, 0), (1, 2))
        return simulate_batch(ModelParams(2, 0.4), Exterior(w, 0, {(-1, 1): 1}), [1] * 6, 2.0,
                              [3, 4, 5])

    def test_queries_answer_from_start(self):
        # occupation and updates count from the resumed batch's start; its
        # spins at start are the first batch's spins there
        batch = self.batch()
        one = simulate_batch(batch.params, batch.rule, [1] * 6, 5.0, batch.seeds)
        resumed = batch.resume([2, 0], 5.0)
        for x in batch.window.sites:
            occ = one.occupation_time(x, 5.0) - one.occupation_time(x, 2.0)
            assert np.allclose(resumed.occupation_time(x, 5.0), occ[[2, 0]], rtol=0, atol=1e-12)
            assert (resumed.spin_at_time(x, 2.0) == batch.spin_at_time(x, 2.0)[[2, 0]]).all()
        with pytest.raises(SimulationError, match="outside"):
            resumed.spin_at_time((0, 0), 1.0)
        with pytest.raises(SimulationError, match="outside"):
            resumed.occupation_time((0, 0), 1.0)

    @pytest.mark.parametrize("replicas, horizon", [([0], 1.0), ([0, 0], 3.0), ([3], 3.0),
                                                   ([-1], 3.0), ([], 3.0), ([0], 2e9)])
    def test_bad_request_rejected(self, replicas, horizon):
        with pytest.raises(SimulationError):
            self.batch().resume(replicas, horizon)

    def test_batch_without_streams_rejected(self):
        # a batch replayed from CSV has no site keys to draw from
        batch = self.batch()
        replay = BatchLog.from_csv(batch.to_csv(0))
        with pytest.raises(SimulationError, match="only a simulated batch"):
            replay.resume([0], 4.0)
        with pytest.raises(SimulationError, match="no event CSV"):
            batch.resume([1], 3.0).to_csv(0)


class TestStatisticalContracts:
    def test_ring_counts_poisson(self):
        # chi-square goodness of fit of per-site ring counts at the 0.1% level
        T = 2.0
        n = 10_000
        params = ModelParams(1, 0.5)
        init = Configuration(Window((0,), (0,)), (1,), exterior=1)
        seeds = [derive_seed(5, r) for r in range(n)]
        batch = simulate_batch(params, init.rule, init.spins, T, seeds)
        counts = np.diff(batch.offsets)
        kmax = 9
        observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        probs = poisson.pmf(np.arange(kmax), T)
        probs = np.append(probs, 1 - probs.sum())
        stat, pvalue = chisquare(observed, n * probs)
        assert pvalue > 0.001

    def test_bits_bernoulli(self):
        log = single_site_log(p=0.3, horizon=5_000.0, seed=31)
        bits = [r.bit for r in log.records(0) if r.legal]
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
            ref = [(r.time, r.spin_after) for r in base.records(0) if r.site == x and r.legal]
            got = [(r.time, r.spin_after) for r in pert.records(0) if r.site == x and r.legal]
            assert ref == got


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
