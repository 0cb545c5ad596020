import math

import numpy as np
import pytest

from eastlab.lattice import (
    Configuration,
    Delta,
    Exterior,
    LatticeError,
    ModelParams,
    ProductBernoulli,
    Window,
    east_constraint,
    initial_rows,
)


def test_model_params_validation():
    ModelParams(1, 0.5)
    with pytest.raises(LatticeError):
        ModelParams(0, 0.5)
    with pytest.raises(LatticeError):
        ModelParams(1, 1.0)
    with pytest.raises(LatticeError):
        ModelParams(2, 0.0)


@pytest.mark.parametrize("lower, upper", [((False,), (True,)), ((0.0,), (1,)), ((0,), (1.5,))])
def test_window_bounds_must_be_integers(lower, upper):
    Window((np.int64(0),), (1,))
    with pytest.raises(LatticeError, match="window bounds must be integers"):
        Window(lower, upper)


class TestConfiguration:
    def test_spin_lookup(self):
        w = Window((0, 0), (1, 1))
        cfg = Configuration.with_zeros(w, [(0, 1)])
        assert cfg.spin_at((0, 1)) == 0
        assert cfg.spin_at((1, 1)) == 1
        assert cfg.spin_at((5, 5)) == 1  # exterior default

    def test_exterior_values(self):
        w = Window((0,), (0,))
        assert Configuration(w, (1,), exterior=0).spin_at((7,)) == 0
        assert Configuration(w, (1,), exterior=1).spin_at((7,)) == 1

    def test_exterior_override(self):
        w = Window((1, 1), (2, 2))
        cfg = Configuration.all_ones(w, exterior=1, overrides={(0, 1): 0})
        assert cfg.spin_at((0, 1)) == 0
        assert cfg.spin_at((0, 2)) == 1

    def test_override_inside_window_rejected(self):
        w = Window((0,), (3,))
        with pytest.raises(LatticeError):
            Configuration.all_ones(w, overrides={(1,): 0})

    @pytest.mark.parametrize("site", [(5,), (-1, 0, 0)])
    def test_override_of_another_dimension_rejected(self, site):
        # a site of another dimension is never in the window, so the inside
        # check alone would keep it as an override that no constraint reads
        with pytest.raises(LatticeError, match="is not 2-dimensional"):
            Exterior(Window((0, 0), (1, 1)), 1, {site: 0})


class TestEastConstraint:
    def test_zero_neighbor(self):
        w = Window((0, 0), (2, 2))
        cfg = Configuration.with_zeros(w, [(0, 1)])
        assert east_constraint(cfg, (1, 1))  # x - e_1 = (0,1) is zero

    def test_all_ones_neighbors(self):
        w = Window((0, 0), (2, 2))
        cfg = Configuration.all_ones(w, exterior=1)
        assert not east_constraint(cfg, (1, 1))

    def test_boundary_mix(self):
        # x on the window edge: x - e_2 frozen exterior 1, x - e_1 interior zero
        w = Window((0, 0), (2, 2))
        cfg = Configuration.with_zeros(w, [(0, 0)], exterior=1)
        assert east_constraint(cfg, (1, 0))

    def test_monotone_in_zeros(self):
        # adding a zero at a neighbor never turns the constraint off
        w = Window((0, 0), (2, 2))
        rng = np.random.default_rng(3)
        for _ in range(50):
            spins = tuple(int(v) for v in rng.integers(0, 2, w.site_count()))
            cfg = Configuration(w, spins)
            for x in w.sites:
                if east_constraint(cfg, x):
                    more = list(spins)
                    nb = (x[0] - 1, x[1])
                    if nb in w:
                        more[w.index(nb)] = 0
                    cfg2 = Configuration(w, tuple(more))
                    assert east_constraint(cfg2, x)


class TestSampleInitial:
    def test_delta_restriction(self):
        big = Window((-2, -2), (2, 2))
        stored = Configuration.with_zeros(big, [(0, 0), (-2, -2)])
        small = Window((0, 0), (1, 1))
        rule, rows = initial_rows(Delta(stored), small, 0, range(1))
        cfg = rule.configuration(rows[0])
        assert cfg.spin_at((0, 0)) == 0
        assert cfg.spin_at((1, 1)) == 1
        # restriction is exact: the out-of-window zero survives as an override
        assert cfg.spin_at((-2, -2)) == 0

    def test_delta_rows_read_no_generator(self):
        big = Window((-2, -2), (2, 2))
        stored = Configuration.with_zeros(big, [(0, 0), (-2, -2)], overrides={(-3, 0): 0})
        small = Window((0, 0), (1, 1))
        rule, rows = initial_rows(Delta(stored), small, 0, range(3, 8))
        want_rule, want = initial_rows(Delta(stored), small, 1, range(1))
        assert rows.shape == (5, 4)
        assert want.tolist() == [[0, 1, 1, 1]]
        assert (rows == want).all()
        assert rule == want_rule
        assert rule.overrides == {(-3, 0): 0, (-2, -2): 0}

    def test_bernoulli_rows_are_per_draw_samples(self):
        # draw j's row is the same whatever draw range it is drawn in
        w = Window((0, 0), (2, 3))
        rule, rows = initial_rows(ProductBernoulli(0.4), w, 9, range(6))
        assert rule.spin == 1 and rule.overrides == {}
        for a, b in ((0, 1), (0, 6), (2, 5), (5, 6)):
            assert (initial_rows(ProductBernoulli(0.4), w, 9, range(a, b))[1] == rows[a:b]).all()
        assert len({row.tobytes() for row in rows}) == 6

    def test_delta_incompatible_window(self):
        stored = Configuration.all_ones(Window((0,), (1,)))
        with pytest.raises(LatticeError):
            initial_rows(Delta(stored), Window((0,), (5,)), 0, range(1))

    def test_bernoulli_extremes(self):
        w = Window((0,), (9,))
        rule, rows = initial_rows(ProductBernoulli(0.0), w, 1, range(1))
        assert (rows == 0).all()
        assert rule.spin == 1

    def test_bernoulli_mean(self):
        w = Window((0, 0), (99, 99))  # 10^4 sites
        _, rows = initial_rows(ProductBernoulli(0.5), w, 2, range(1))
        mean = rows.mean()
        sigma = 0.5 / math.sqrt(rows.size)
        assert abs(mean - 0.5) < 3 * sigma
