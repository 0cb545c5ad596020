import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eastlab import estimators, lattice, sim
from eastlab.cli import parse_config
from eastlab.estimators import (
    DecaySeries,
    EstimatorError,
    Observable,
    default_fit_floor,
    estimate_persistence,
    estimate_relaxation,
    fit_exponential,
    median,
    observable_mu_and_norm,
    percentile,
    replica_batches,
    wilson_halfwidth,
    wilson_interval,
)
from eastlab.exact import build_generator, evolve_expectation
from eastlab.lattice import (
    Configuration,
    Delta,
    Exterior,
    ModelParams,
    ProductBernoulli,
    Region,
    Window,
    initial_rows,
    site_sub_e,
)
from eastlab.sim import (
    MAX_REPLICA_RING_SLOTS,
    BatchLog,
    SimulationError,
    replica_ring_slots,
    ring_block,
    simulate_batch,
)
from eastlab.streams import derive_seed

# the lemma-2d and relax-2x2-many benchmark configs
LEMMA_2D = ("kind = verify-lemma\nd = 2\np = 0.5\nalpha = 0.1\nt = 10\nwindow_lower = -4 -4\n"
            "window_upper = 0 0\nexterior = 0\nmeasure = delta-zeros 0 0\nsite = 0 0\nn = 300\n")
RELAX_2X2_MANY = ("kind = relaxation\nd = 2\np = 0.5\nwindow_lower = 0 0\nwindow_upper = 1 1\n"
                  "exterior = 1\nmeasure = delta-zeros 0 0\nsite = 1 1\ntimes = 1 2 3 4 5 6 7 8\n"
                  "n_outer = 6\nn_inner = 500\n")


class TestReplicaBatches:
    def test_negative_horizon_named(self):
        # checked before a chunk is sized from the horizon
        with pytest.raises(SimulationError, match="horizon must be >= 0"):
            next(replica_batches(ModelParams(1, 0.5), ProductBernoulli(0.5), Window((0,), (2,)),
                                 -1.0, 0, "x", 3))

    def test_replica_over_ring_slot_cap_named(self):
        # windows at the cap and one site wider, sized by arithmetic: the
        # check must fire before any per-site array exists
        horizon = 11.0
        block = ring_block(horizon)
        sites = MAX_REPLICA_RING_SLOTS // block + 1
        at_cap = Window((0,), (sites - 2,))
        assert replica_ring_slots(at_cap, horizon) == (sites - 1) * block <= MAX_REPLICA_RING_SLOTS
        w = Window((0,), (sites - 1,))
        message = f"{sites} window sites x {block} ring slots per site"
        with pytest.raises(SimulationError, match=message):
            next(replica_batches(ModelParams(1, 0.5), ProductBernoulli(0.5), w, horizon, 0, "x", 3))
        with pytest.raises(SimulationError, match=message):
            simulate_batch(ModelParams(1, 0.5), Exterior(w, 1, {}), [1], horizon, [0])
        assert "sites" not in vars(w) and "site_keys" not in vars(w)

    @pytest.mark.parametrize("n,n_inner,match", [
        (3, 0, "n_inner must be positive, got 0"),
        (3, -2, "n_inner must be positive, got -2"),
        (0, None, "n must be positive, got 0"),
        (0, 2, "n must be positive, got 0"),
    ])
    def test_counts_below_one_named(self, n, n_inner, match):
        # n_inner = 0 once ran as None (one run per draw); n = 0 and
        # n_inner < 0 once yielded no batch at all
        with pytest.raises(EstimatorError, match=match):
            next(replica_batches(ModelParams(1, 0.5), ProductBernoulli(0.5), Window((0,), (2,)),
                                 1.0, 0, "x", n, n_inner))

    @pytest.mark.parametrize("kind,sizes", [("lemma-2d", [300]), ("relax-2x2-many", [1500, 1500])])
    def test_benchmark_configs_run_in_equal_batches(self, kind, sizes):
        # lemma-2d holds 1.03 budgets (once 291 + 9), relax-2x2-many 2.2
        # (once 1365 + 1365 + 270)
        if kind == "lemma-2d":
            cfg = parse_config(LEMMA_2D)
            batches = replica_batches(cfg.params, cfg.measure, cfg.window, cfg.t / 2, 7, "lemma",
                                      cfg.n)
        else:
            cfg = parse_config(RELAX_2X2_MANY)
            batches = replica_batches(cfg.params, cfg.measure, cfg.window, cfg.times[-1], 7,
                                      "relax", cfg.n_outer, cfg.n_inner)
        assert [len(batch) for _, batch in batches] == sizes

    def test_chunk_sizes_differ_by_at_most_one(self, monkeypatch):
        # 34 runs of 12 ring slots against a budget of 120: 3.4 budgets
        w = Window((0,), (2,))
        assert replica_ring_slots(w, 1.0) == 12
        monkeypatch.setattr(estimators, "RING_SLOT_BUDGET", 120)
        parts = [draws for draws, _ in replica_batches(ModelParams(1, 0.5), ProductBernoulli(0.5),
                                                       w, 1.0, 0, "x", 34)]
        assert [part.size for part in parts] == [12, 11, 11]
        assert np.concatenate(parts).tolist() == list(range(34))

    def test_no_runs_no_batch(self):
        assert list(replica_batches(ModelParams(1, 0.5), ProductBernoulli(0.5), Window((0,), (2,)),
                                    1.0, 0, "x", 3, runs=np.array([], int))) == []

    @pytest.mark.parametrize("n_inner,runs,match", [
        (None, [-1, 0], r"0\.\.2, got -1\.\.0$"),
        (None, [1, 3], r"0\.\.2, got 1\.\.3$"),
        (2, [5, 6], r"0\.\.5, got 5\.\.6$"),
    ], ids=["negative", "past-n", "past-n-inner"])
    def test_run_indices_outside_range_named(self, n_inner, runs, match):
        # they once ran draws outside the n, and negative ones wrapped through uint64
        with pytest.raises(EstimatorError, match="run indices must lie in " + match):
            next(replica_batches(ModelParams(1, 0.5), ProductBernoulli(0.5), Window((0,), (2,)),
                                 1.0, 0, "x", 3, n_inner, runs=np.array(runs)))

    def test_none_is_one_run_per_draw(self):
        (draws, batch), = replica_batches(ModelParams(1, 0.5), ProductBernoulli(0.5),
                                          Window((0,), (2,)), 1.0, 0, "x", 3)
        assert draws.tolist() == [0, 1, 2]
        assert batch.seeds.tolist() == [derive_seed(0, "x-sim", o) for o in range(3)]


class TestWilson:
    def test_interval_contains_phat(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi

    def test_extremes_stay_in_unit_interval(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0
        assert wilson_halfwidth(0, 50) > 0.0

    @pytest.mark.parametrize("k", [-1, 6])
    def test_k_outside_range_named(self, k):
        # math.sqrt of a negative phat (1 - phat) once raised "math domain error"
        with pytest.raises(EstimatorError, match=rf"^k must lie in 0\.\.n = 0\.\.5, got {k}$"):
            wilson_interval(k, 5)


class TestPersistence:
    def test_blocked_delta_stays_one(self):
        w = Window((0, 0), (2, 2))
        spec = Delta(Configuration.all_ones(w, exterior=1))
        params = ModelParams(2, 0.5)
        series = estimate_persistence(params, spec, (1, 1), [0.5, 1, 2], 200, w, 3)
        assert series.values == (1.0, 1.0, 1.0)

    def test_unconstrained_site_exponential(self):
        # frozen zero at 0: tau_x is the first ring, Exp(1), so F(t) = e^{-t}
        params = ModelParams(1, 0.3)
        w = Window((1,), (1,))
        spec = Delta(Configuration(w, (1,), exterior=0))
        n = 4000
        series = estimate_persistence(params, spec, (1,), [0.5, 1.0, 2.0], n, w, 12)
        for t, v in zip(series.times, series.values):
            want = math.exp(-t)
            sigma = math.sqrt(want * (1 - want) / n)
            assert abs(v - want) < 3 * sigma

    def test_lower_bound_remark(self):
        # estimate + 3 halfwidths never falls below e^{-t}
        params = ModelParams(2, 0.5)
        w = Window((-3, -3), (1, 1))
        spec = ProductBernoulli(0.5)
        series = estimate_persistence(params, spec, (1, 1), [0.5, 1, 2, 4], 2000, w, 5)
        for t, v, h in zip(series.times, series.values, series.halfwidths):
            assert v + 3 * h >= math.exp(-t)

    def test_nonincreasing_with_slack(self):
        params = ModelParams(1, 0.5)
        w = Window((1,), (4,))
        spec = ProductBernoulli(0.4)
        series = estimate_persistence(params, spec, (2,), [0.5, 1, 2, 3], 1500, w, 8)
        for (v1, h1), (v2, h2) in zip(
            zip(series.values, series.halfwidths), zip(series.values[1:], series.halfwidths[1:])
        ):
            assert v2 <= v1 + 3 * (h1 + h2)

    def test_halfwidth_monte_carlo_scaling(self):
        params = ModelParams(1, 0.4)
        w = Window((1,), (2,))
        spec = Delta(Configuration.all_ones(w, exterior=0))  # F(t) = e^{-t}
        small = estimate_persistence(params, spec, (1,), [0.5, 1.0], 500, w, 6)
        large = estimate_persistence(params, spec, (1,), [0.5, 1.0], 2000, w, 6)
        ratio = np.mean(large.halfwidths) / np.mean(small.halfwidths)
        assert abs(ratio - 0.5) < 0.1  # 4x samples halves the width within 20%

    def test_site_outside_window(self):
        with pytest.raises(EstimatorError):
            estimate_persistence(
                ModelParams(1, 0.5), ProductBernoulli(0.5), (9,), [1.0], 10, Window((0,), (1,)), 0
            )

    @pytest.mark.parametrize("times,n,match", [
        ((), 10, "times must hold at least one time"),
        ([1.0], 0, "n must be positive, got 0"),
        ([1.0], -3, "n must be positive, got -3"),
    ])
    def test_empty_times_or_nonpositive_n_named(self, times, n, match):
        with pytest.raises(EstimatorError, match=match):
            estimate_persistence(
                ModelParams(1, 0.5), ProductBernoulli(0.5), (1,), times, n, Window((0,), (1,)), 0
            )

    @pytest.mark.parametrize("times,bad", [
        ((-1.0, 2.0), "-1.0"),
        ((float("nan"), 2.0), "nan"),
        ((2.0, float("inf"), -3.0), "inf"),
    ])
    def test_negative_or_non_finite_time_named(self, times, bad):
        # F(-1) once read 1.0 and F(nan) 0.0 on this chain
        with pytest.raises(EstimatorError, match=f"times must be finite and >= 0, got {bad}$"):
            estimate_persistence(
                ModelParams(1, 0.5), ProductBernoulli(0.5), (1,), times, 200, Window((0,), (2,)), 0
            )


def one_shot_persistence(params, spec, x, times, n, window, seed) -> DecaySeries:
    """Every run simulated on the whole window to the last requested time: the
    reference that the boxed ``estimate_persistence`` must equal."""
    ts = tuple(sorted(float(t) for t in times))
    counts = np.zeros(len(ts), dtype=np.int64)
    for _, batch in replica_batches(params, spec, window, ts[-1], seed, "persist", n):
        counts += (batch.first_update_time(x)[:, None] > np.asarray(ts)).sum(axis=0)
    return DecaySeries(ts, tuple(float(k) / n for k in counts),
                       tuple(wilson_halfwidth(int(k), n) for k in counts), n_outer=n, n_inner=1)


A4_WINDOW = Window((-10, -10), (1, 1))
CHAIN = Window((1,), (2,))  # site 1 sits beside a frozen zero: F(t) = e^{-t}
STAGED_SETUPS = {
    "a4": (ModelParams(2, 0.5), ProductBernoulli(0.5), (1, 1), range(1, 11), 40, A4_WINDOW),
    "slow": (ModelParams(2, 0.9), ProductBernoulli(0.9), (1, 1), range(1, 11), 40, A4_WINDOW),
    "blocked": (ModelParams(2, 0.5), Delta(Configuration.all_ones(A4_WINDOW)), (1, 1),
                range(1, 11), 20, A4_WINDOW),
    "zero-and-duplicate-times": (ModelParams(2, 0.5), ProductBernoulli(0.5), (0, 0),
                                 [3, 0, 0.5, 0.5, 0, 1.2], 60, Window((-2, -2), (0, 0))),
    "every-end-a-stage": (ModelParams(1, 0.5), Delta(Configuration.all_ones(CHAIN, exterior=0)),
                          (1,), [1, 1.5, 2, 3, 4, 8], 200, CHAIN),
}


class TestStagedPersistence:
    @pytest.mark.parametrize("budget", [None, 1, 300, 5000])
    @pytest.mark.parametrize("setup", sorted(STAGED_SETUPS))
    def test_equals_one_shot(self, monkeypatch, setup, budget):
        args = (*STAGED_SETUPS[setup], 11)
        want = one_shot_persistence(*args)
        if budget is not None:
            monkeypatch.setattr(estimators, "RING_SLOT_BUDGET", budget)
        assert estimate_persistence(*args) == want

    def test_over_cap_horizon_fails_before_a_stage(self, monkeypatch):
        # stage 1 ends at t = 1 and would fit the replica cap; the horizon does
        # not, and the check must fire before any batch is simulated
        horizon = 11.0
        sites = MAX_REPLICA_RING_SLOTS // ring_block(horizon) + 1
        w = Window((0,), (sites - 1,))
        assert replica_ring_slots(w, 1.0) <= MAX_REPLICA_RING_SLOTS
        monkeypatch.setattr(estimators, "simulate_batch", lambda *a, **k: pytest.fail("a stage ran"))
        with pytest.raises(SimulationError, match="ring slots per site"):
            estimate_persistence(ModelParams(1, 0.5), ProductBernoulli(0.5), (0,), [1.0, horizon],
                                 3, w, 0)
        assert "sites" not in vars(w) and "site_keys" not in vars(w)


@st.composite
def box_setups(draw):
    """estimate_persistence arguments on a random window (d = 1..3) and site,
    under Bernoulli or a Delta stored on a wider window with exterior
    overrides, and a first box side and slot budget for it to run with."""
    d = draw(st.integers(1, 3))
    lower = tuple(draw(st.integers(-3, 3)) for _ in range(d))
    extent = tuple(draw(st.integers(1, {1: 16, 2: 8, 3: 4}[d])) for _ in range(d))
    window = Window(lower, tuple(lo + e - 1 for lo, e in zip(lower, extent)))
    # near the upper corner, so W ∩ {y <= x} is mostly wider than a first box
    x = tuple(draw(st.integers(max(lo, hi - 2), hi)) for lo, hi in zip(window.lower, window.upper))
    exterior = draw(st.integers(0, 1))
    if draw(st.booleans()):
        spec = ProductBernoulli(draw(st.floats(0.0, 0.95)), exterior)
    else:  # stored on a window up to one site wider per side: a rim becomes overrides
        stored = Window(tuple(c - draw(st.integers(0, 1)) for c in window.lower),
                        tuple(c + draw(st.integers(0, 1)) for c in window.upper))
        spins = draw(st.lists(st.integers(0, 1), min_size=stored.site_count(),
                              max_size=stored.site_count()))
        edge = sorted({site_sub_e(y, i) for y in window.sites for i in range(d)}
                      - set(stored.sites))
        overrides = draw(st.dictionaries(st.sampled_from(edge), st.integers(0, 1), max_size=3)
                         if edge else st.just({}))
        spec = Delta(Configuration(stored, tuple(spins), exterior, overrides))
    times = draw(st.lists(st.floats(1.0, 6.0), min_size=1, max_size=4))
    args = (ModelParams(d, draw(st.floats(0.05, 0.95))), spec, x, times,
            draw(st.integers(1, 30)), window, draw(st.integers(0, 2**32)))
    return args, draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([None, 40, 400]))


# 2 x 2, 4 x 4, then the 8 x 8 window
THREE_BOXES = ((ModelParams(2, 0.5), ProductBernoulli(0.5), (7, 7), [1.5, 3.0], 30,
                Window((0, 0), (7, 7)), 2), 2, 400)
# every run that rings in the box {15} is uncertain, so the next box is the window
BAIL = ((ModelParams(1, 0.5), Delta(Configuration.all_ones(Window((0,), (15,)))), (15,), [1, 4],
         10, Window((0,), (15,)), 0), 1, None)


class TestBoxPersistence:
    def test_equals_one_shot_on_the_window(self):
        # first boxes of side 1 to 3, doubling towards W ∩ {y <= x} or jumping
        # to it, with the reruns' sparse draws split over chunks by the
        # smaller budgets
        sides = []

        @settings(max_examples=80, deadline=None, derandomize=True, database=None)
        @given(box_setups())
        @example(THREE_BOXES)
        @example(BAIL)
        def check(setup):
            args, side, budget = setup
            want = one_shot_persistence(*args)
            notes = {}
            with pytest.MonkeyPatch.context() as m:
                m.setattr(estimators, "BOX_SIDE", side)
                if budget is not None:
                    m.setattr(estimators, "RING_SLOT_BUDGET", budget)
                assert estimate_persistence(*args, notes=notes) == want
            sides.append([int(s) for s in notes["persistence.box_sides"].split()])

        check()
        assert [2, 4, 8] in sides and [1, 16] in sides
        assert 4 * sum(len(s) > 1 for s in sides) >= len(sides)

    def test_open_face_ring_is_uncertain(self):
        # x = 2's one ring at t = 1 reads site 1, at spin 0 in the window:
        # legal there, illegal in the box {2} under exterior 1, and of
        # unknown legality in that box within the window
        params, seeds = ModelParams(1, 0.5), np.zeros(1, dtype=np.uint64)
        box, window = Window((2,), (2,)), Window((0,), (2,))
        rings = (np.array([1.0]), np.array([0], dtype=np.int8))
        closed = BatchLog(params, Exterior(box, 1, {}), [1], 2.0, seeds, np.array([0, 1]), *rings)
        boxed = BatchLog(params, Exterior(box, 1, {}), [1], 2.0, seeds, np.array([0, 1]), *rings,
                         within=window)
        full = BatchLog(params, Exterior(window, 1, {}), [1, 0, 1], 2.0, seeds,
                        np.array([0, 0, 0, 1]), *rings)
        assert full.first_update_time((2,)).tolist() == [1.0]
        assert closed.first_update_time((2,)).tolist() == [np.inf]
        assert np.isnan(boxed.first_update_time((2,))).all()
        assert boxed.unknown.tolist() == [True] and boxed.legal.tolist() == [False]
        # its bit 0 differs from the spin 1 before it, so the spin is lost
        assert boxed.spin_after.tolist() == [sim.UNKNOWN]
        # queries that would report that lost spin as a value refuse
        for query in (lambda: boxed.first_change, lambda: boxed.final_spins(),
                      lambda: boxed.spin_at_time((2,), 1.5),
                      lambda: boxed.occupation_time((2,), 1.5),
                      lambda: boxed.to_csv(0)):
            with pytest.raises(SimulationError, match="undefined on a box batch"):
                query()

    def test_every_replica_reruns_from_the_open_face(self, monkeypatch):
        # the setting above under the estimator: x's neighbor starts at 0 just
        # outside the box of side 1, so a run reruns on the window unless x
        # never rings by the horizon
        window = Window((0,), (2,))
        args = (ModelParams(1, 0.5), Delta(Configuration.with_zeros(window, [(1,)])), (2,),
                [0.5, 1, 2, 4], 50, window, 3)
        monkeypatch.setattr(estimators, "BOX_SIDE", 1)
        notes = {}
        assert estimate_persistence(*args, notes=notes) == one_shot_persistence(*args)
        never = sum((np.diff(batch.offsets) == 0).sum() for _, batch in replica_batches(
            args[0], args[1], Window((2,), (2,)), 4.0, 3, "persist", 50))
        # more than half of them rerun, so the second box is the window, of side 3
        assert notes == {"persistence.box_sides": "1 3", "persistence.reruns": f"{50 - never}/50"}

    def test_sweeps_fewer_rings_than_the_window(self, monkeypatch):
        # persist-2d-wide's config at seed 7: the staged run on the whole
        # window swept 41 598 rings and drew 151 912 Philox blocks; a 4 x 4
        # box and then the window swept 21 878 rings and drew 37 456 blocks
        seen = {"rings": 0, "blocks": 0}
        run, draws = estimators.simulate_batch, sim.ring_draws

        def counted_run(*args):
            batch = run(*args)
            seen["rings"] += batch.times.size
            return batch

        def counted_draws(seeds, keys, k0, count, *args):
            seen["blocks"] += seeds.size * count
            return draws(seeds, keys, k0, count, *args)

        monkeypatch.setattr(estimators, "simulate_batch", counted_run)
        monkeypatch.setattr(sim, "ring_draws", counted_draws)
        monkeypatch.setattr(lattice, "ring_draws", counted_draws)
        estimate_persistence(ModelParams(2, 0.5), ProductBernoulli(0.5), (1, 1), range(1, 11), 100,
                             A4_WINDOW, 7)
        assert seen["rings"] < 41_598 and seen["blocks"] < 151_912
        assert seen["rings"] < 21_878 and seen["blocks"] < 37_456

    def test_each_run_simulated_once_per_box(self, monkeypatch):
        # persist-2d-wide's config at seed 7: the 3 x 3 box for all 100 runs,
        # then the 6 x 6 box for the runs it leaves uncertain, then the window
        # for any runs left, every call to the last requested time
        calls = []
        run = estimators.simulate_batch

        def spy(params, rule, spins, horizon, seeds, within=None):
            batch = run(params, rule, spins, horizon, seeds, within)
            calls.append((rule.window, horizon, seeds.tolist(), batch.first_update_time((1, 1))))
            return batch

        monkeypatch.setattr(estimators, "simulate_batch", spy)
        notes = {}
        estimate_persistence(ModelParams(2, 0.5), ProductBernoulli(0.5), (1, 1), range(1, 11), 100,
                             A4_WINDOW, 7, notes=notes)
        assert {h for _, h, _, _ in calls} == {10.0}
        boxes = list(dict.fromkeys(w for w, _, _, _ in calls))  # in call order
        assert len(boxes) >= 2
        assert boxes == [Window((-1, -1), (1, 1)), Window((-4, -4), (1, 1)), A4_WINDOW][:len(boxes)]
        assert notes["persistence.box_sides"] == " ".join(["3", "6", "12"][:len(boxes)])
        # each box's calls come together, hold each run once, and hold just
        # the runs the box before left uncertain
        assert [w for w, _, _, _ in calls] == sorted((w for w, _, _, _ in calls), key=boxes.index)
        entered, uncertain = [], None
        for box in boxes:
            seeds = [s for w, _, chunk, _ in calls if w == box for s in chunk]
            assert len(seeds) == len(set(seeds))
            if uncertain is None:
                assert len(seeds) == 100
            else:
                assert set(seeds) == uncertain
            entered.append(len(seeds))
            uncertain = {s for w, _, chunk, tau in calls if w == box
                         for s, t in zip(chunk, tau.tolist()) if math.isnan(t)}
        assert not uncertain
        assert notes["persistence.reruns"] == " ".join(f"{k}/100" for k in entered[1:])

    def test_blocked_setup_goes_to_the_window_second(self):
        # all ones: every run on which x rings is uncertain in the 3 x 3 box,
        # so the second box is the window, not the 6 x 6 one
        notes = {}
        args = (*STAGED_SETUPS["blocked"], 11)
        assert estimate_persistence(*args, notes=notes) == one_shot_persistence(*args)
        assert notes["persistence.box_sides"] == "3 12"


class TestRelaxation:
    def test_t_zero_value(self):
        # int |eta(x) - p| dnu = 2 p (1-p) for nu = Bernoulli(p), normalized
        # by max(p, 1-p); n_inner = 1 at t = 0 evaluates f exactly
        p = 0.3
        params = ModelParams(1, p)
        w = Window((0,), (4,))
        series = estimate_relaxation(
            params, ProductBernoulli(p), Observable.spin((2,)), [0.0], 4000, 1, w, 9
        )
        want = 2 * p * (1 - p) / max(p, 1 - p)
        assert abs(series.values[0] - want) < 4 * series.halfwidths[0] + 0.02

    def test_blocked_delta_constant(self):
        p = 0.3
        params = ModelParams(1, p)
        w = Window((1,), (3,))
        spec = Delta(Configuration.all_ones(w, exterior=1))
        series = estimate_relaxation(
            params, spec, Observable.spin((2,)), [0.5, 1, 2], 3, 5, w, 2
        )
        want = (1 - p) / max(p, 1 - p)
        assert all(v == pytest.approx(want) for v in series.values)

    def test_bootstrap_blocks_match_single_resamples(self, monkeypatch):
        # the resamples are drawn RING_SLOT_BUDGET // n_outer at a time; a
        # budget of n_outer draws them one by one, and changes no number
        args = (ModelParams(1, 0.5), ProductBernoulli(0.5), Observable.spin((1,)), [0.5, 1.0],
                33, 2, Window((0,), (2,)), 4)
        blocked = estimate_relaxation(*args)
        monkeypatch.setattr(estimators, "RING_SLOT_BUDGET", 33)
        assert estimate_relaxation(*args) == blocked
        assert all(h > 0 for h in blocked.halfwidths)

    def test_batches_build_no_first_legal(self, monkeypatch):
        # relaxation reads spins only: the per-row first legal ring time stays unbuilt
        batches = []

        def kept(*args):
            batches.append(sim.simulate_batch(*args))
            return batches[-1]

        monkeypatch.setattr(estimators, "simulate_batch", kept)
        estimate_relaxation(ModelParams(2, 0.5), ProductBernoulli(0.5), Observable.spin((1, 1)),
                            [0.5, 1.0, 2.0], 4, 3, Window((0, 0), (1, 1)), 5)
        assert batches and all("first_legal" not in vars(b) for b in batches)

    def test_constant_observable_rejected(self):
        w = Window((0,), (2,))
        obs = Observable(((1,),), lambda s: 1.0)
        with pytest.raises(EstimatorError):
            estimate_relaxation(
                ModelParams(1, 0.5), ProductBernoulli(0.5), obs, [1.0], 2, 2, w, 0
            )

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_gamma_rejected(self, gamma):
        # |deviation|^gamma is 1 at gamma = 0, and inf at a zero deviation for
        # gamma < 0; at gamma = inf each draw's value once read 0 or 1
        with pytest.raises(EstimatorError, match="gamma"):
            estimate_relaxation(ModelParams(1, 0.5), ProductBernoulli(0.5), Observable.spin((1,)),
                                [1.0], 2, 2, Window((0,), (2,)), 0, gamma)

    @pytest.mark.parametrize("times,n_outer,n_inner,match", [
        ((), 2, 2, "times must hold at least one time"),
        ([1.0], 0, 2, "n_outer must be positive, got 0"),
        ([1.0], 2, 0, "n_inner must be positive, got 0"),
        ([1.0], 2, -1, "n_inner must be positive, got -1"),
    ])
    def test_empty_times_or_nonpositive_counts_named(self, times, n_outer, n_inner, match):
        with pytest.raises(EstimatorError, match=match):
            estimate_relaxation(ModelParams(1, 0.5), ProductBernoulli(0.5), Observable.spin((1,)),
                                times, n_outer, n_inner, Window((0,), (2,)), 0)

    @pytest.mark.parametrize("times,bad", [((-1.0, 2.0), "-1.0"), ((float("nan"), 2.0), "nan")])
    def test_negative_or_non_finite_time_named(self, times, bad):
        # refused before any batch runs, not by a log query
        with pytest.raises(EstimatorError, match=f"times must be finite and >= 0, got {bad}$"):
            estimate_relaxation(ModelParams(1, 0.5), ProductBernoulli(0.5), Observable.spin((1,)),
                                times, 2, 2, Window((0,), (2,)), 0)

    def test_against_exact_engine(self):
        # 2-site chain with frozen zero boundary: MC inner estimates must
        # track the exact engine started from the same initial states
        p = 0.5
        params = ModelParams(1, p)
        w = Window((1,), (2,))
        region = Region(frozenset({(1,), (2,)}))
        gen = build_generator(region, {(0,): 0}, p)
        fvec = np.array([float((s >> 1) & 1) for s in range(4)])  # spin of site 2
        spec = ProductBernoulli(0.5)
        times = [0.5, 1.0]
        n_outer, n_inner = 40, 400
        series = estimate_relaxation(
            params, spec, Observable.spin((2,)), times, n_outer, n_inner, w, 14
        )
        # oracle: same outer draws, exact inner expectation
        mu_f = 0.5
        norm = 0.5
        exact_vals = np.zeros(len(times))
        _, rows = initial_rows(spec, w, derive_seed(14, "relax-init"), range(n_outer))
        for init in rows.tolist():
            state = init[0] | (init[1] << 1)
            for j, t in enumerate(times):
                e = evolve_expectation(gen, state, fvec, t, tol=1e-10)
                exact_vals[j] += abs(e - mu_f) / norm
        exact_vals /= n_outer
        for j in range(len(times)):
            # inner-loop noise: sd of |mean - mu| is below 0.5/sqrt(n_inner)
            slack = 3 * (0.5 / math.sqrt(n_inner)) + 3 * series.halfwidths[j]
            assert abs(series.values[j] - exact_vals[j]) < slack

    def test_values_in_unit_interval(self):
        params = ModelParams(1, 0.4)
        w = Window((1,), (3,))
        series = estimate_relaxation(
            params, ProductBernoulli(0.3), Observable.spin((2,)), [0.5, 2.0], 20, 30, w, 4
        )
        assert all(0.0 <= v <= 1.0 for v in series.values)

    def test_observable_mu_and_norm(self):
        mu_f, norm = observable_mu_and_norm(Observable.spin((0,)), 0.3)
        assert mu_f == pytest.approx(0.3)
        assert norm == pytest.approx(0.7)


class TestFit:
    def test_exact_exponential(self):
        t = tuple(float(i) for i in range(1, 11))
        v = tuple(2.0 * math.exp(-0.7 * x) for x in t)
        series = DecaySeries(t, v, (0.0,) * 10, 10, 1)
        fit = fit_exponential(series, floor=0.0)
        assert fit.rate == pytest.approx(0.7, abs=1e-9)
        assert fit.prefactor == pytest.approx(2.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_constant_series(self):
        series = DecaySeries((1.0, 2.0, 3.0), (0.5, 0.5, 0.5), (0.0,) * 3, 3, 1)
        fit = fit_exponential(series, floor=0.0)
        assert fit.rate == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 0.0

    def test_noisy_exponential(self):
        rng = np.random.default_rng(0)
        t = tuple(float(i) for i in range(1, 21))
        v = tuple(math.exp(-x) * (1 + 0.01 * rng.standard_normal()) for x in t)
        series = DecaySeries(t, v, (0.001,) * 20, 20, 1)
        fit = fit_exponential(series, floor=0.0)
        assert 0.9 <= fit.rate <= 1.1
        assert fit.r_squared > 0.99

    def test_too_few_points(self):
        series = DecaySeries((1.0, 2.0, 3.0), (0.5, 0.4, 0.01), (0.0,) * 3, 3, 1)
        with pytest.raises(EstimatorError):
            fit_exponential(series, floor=0.1)

    @pytest.mark.parametrize("times", [(1.0, 1.0, 1.0), (1.0, 1.0, 2.0, 2.0), (2.0, 1.0, 2.0, 1.0)])
    def test_too_few_distinct_times(self, times):
        # a line through fewer than 3 distinct times leaves no point to judge it by
        series = DecaySeries(times, (0.5, 0.4, 0.3, 0.2)[: len(times)], (0.0,) * len(times), 3, 1)
        with pytest.raises(EstimatorError, match="3 distinct times"):
            fit_exponential(series, floor=0.0)

    @pytest.mark.parametrize("times", [(1.0, 1.0, 2.0, 3.0), (3.0, 1.0, 2.0, 1.0)])
    def test_three_distinct_times_with_repeats_fit(self, times):
        series = DecaySeries(times, tuple(2.0**-t for t in times), (0.0,) * 4, 4, 1)
        assert fit_exponential(series, floor=0.0).rate == pytest.approx(math.log(2), abs=1e-12)

    def test_floor_excludes_tail(self):
        series = DecaySeries(
            (1.0, 2.0, 3.0, 4.0, 5.0),
            (0.5, 0.25, 0.125, 0.001, 0.0005),
            (0.01, 0.01, 0.01, 0.01, 0.01),
            5,
            1,
        )
        fit = fit_exponential(series, floor=default_fit_floor(series))
        assert fit.fit_window == (0, 2)


class TestOrderStatistics:
    # the estimators' median and percentile stand in for numpy's, which import numpy.ma
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 31, 64, 1001])
    def test_median_bit_identical_to_numpy(self, n):
        a = np.random.default_rng(n).exponential(size=n)
        assert median(a).hex() == float(np.median(a)).hex()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 31, 64, 1001])
    @pytest.mark.parametrize("q", [0, 2.5, 10, 50, 90, 97.5, 100, 33.3])
    def test_percentile_bit_identical_to_numpy(self, n, q):
        a = np.random.default_rng(n).normal(size=(n, 3))
        want = np.percentile(a, q, axis=0)
        assert np.array_equal(percentile(a, q), want)
        assert np.array_equal(percentile(a[:, 0], q), np.percentile(a[:, 0], q))


class TestOccupation:
    # occupation_time read through the replica driver, as the cascade probe reads it
    def test_blocked_run(self):
        # all ones under an exterior of ones: no ring is legal, no site is ever at 0
        w = Window((0, 0), (1, 1))
        spec = Delta(Configuration.all_ones(w, exterior=1))
        for _, batch in replica_batches(ModelParams(2, 0.5), spec, w, 5.0, 1, "occ", 50):
            for x in w.sites:
                assert not batch.occupation_time(x, 5.0).any()

    def test_unconstrained_site_mean(self):
        # a site whose neighbor is frozen at 0 is at 0 a fraction 1 - p of the time
        p, t, n = 0.3, 50.0, 300
        w = Window((1,), (1,))
        spec = Delta(Configuration(w, (1,), exterior=0))
        batches = replica_batches(ModelParams(1, p), spec, w, t, 7, "occ", n)
        occ = np.concatenate([batch.occupation_time((1,), t) for _, batch in batches])
        assert occ.size == n
        sigma = math.sqrt(2 * p * (1 - p) / t) / math.sqrt(n)
        assert abs(occ.mean() / t - (1 - p)) < 4 * sigma
