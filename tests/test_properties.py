"""Property tests of the graphical construction on random windows (d = 1..3).

Coupling properties: the sweep equals the time-ordered event loop given
identical rings, histories are consistent under horizon extension, a site's
rings ignore the enclosing window, a site's trajectory is measurable with
respect to its backward cone, and estimator outputs ignore the replica
chunking.  Philox4x32-10 is checked against the Random123 known answers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eastlab import estimators, streams
from eastlab.estimators import (
    Observable,
    estimate_persistence,
    estimate_relaxation,
    occupation_statistics,
)
from eastlab.lattice import (
    Configuration,
    Delta,
    ModelParams,
    ProductBernoulli,
    Region,
    Window,
    site_sub_e,
)
from eastlab.sim import simulate, simulate_batch
from eastlab.theory import fk_cascade_probe
from oracle import event_loop

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def windows(draw):
    d = draw(st.integers(1, 3))
    lower = tuple(draw(st.integers(-3, 3)) for _ in range(d))
    extent = tuple(draw(st.integers(1, {1: 6, 2: 4, 3: 3}[d])) for _ in range(d))
    return Window(lower, tuple(lo + e - 1 for lo, e in zip(lower, extent)))


@st.composite
def scenarios(draw):
    """(params, initial, horizon, seed) with random spins, exterior and overrides."""
    window = draw(windows())
    d, n = window.d, window.site_count()
    spins = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    edge = sorted(
        {site_sub_e(x, i) for x in window.sites for i in range(d)} - set(window.sites)
    )
    overrides = draw(st.dictionaries(st.sampled_from(edge), st.integers(0, 1), max_size=3))
    initial = Configuration(window, spins, draw(st.integers(0, 1)), overrides)
    params = ModelParams(d, draw(st.floats(0.05, 0.95)))
    horizon = draw(st.floats(0.5, 6.0))
    return params, initial, horizon, draw(st.integers(0, 2**64 - 1))


def site_records(log, x, until=np.inf):
    return [(r.time, r.bit, r.legal, r.spin_after) for r in log.records
            if r.site == x and r.time <= until]


@PROPERTY
@given(scenarios())
def test_sweep_matches_event_loop(scenario):
    log = simulate(*scenario)
    legal, after = event_loop(log)
    for i, x in enumerate(log.window.sites):
        _, _, got_legal, got_after = log.rings(x)
        assert np.array_equal(got_legal, legal[i])
        assert np.array_equal(got_after, after[i])


@PROPERTY
@given(scenarios(), st.floats(0.1, 20.0))
def test_horizon_prefix_consistency(scenario, extra):
    params, initial, h, seed = scenario
    short = simulate(params, initial, h, seed)
    long = simulate(params, initial, h + extra, seed)
    for x in initial.window.sites:
        assert site_records(long, x, until=h) == site_records(short, x)


@PROPERTY
@given(scenarios(), st.lists(st.integers(0, 2), min_size=6, max_size=6))
def test_window_independence_of_rings(scenario, grow):
    params, initial, horizon, seed = scenario
    w, d = initial.window, initial.window.d
    big = Window(
        tuple(lo - g for lo, g in zip(w.lower, grow[:d])),
        tuple(hi + g for hi, g in zip(w.upper, grow[3:3 + d])),
    )
    a = simulate(params, initial, horizon, seed)
    b = simulate(params, Configuration.all_ones(big), horizon, seed)
    for x in w.sites:
        assert np.array_equal(a.rings(x)[0], b.rings(x)[0])
        assert np.array_equal(a.rings(x)[1], b.rings(x)[1])


@PROPERTY
@given(scenarios(), st.data())
def test_cone_measurability(scenario, data):
    params, initial, horizon, seed = scenario
    x = data.draw(st.sampled_from(initial.window.sites))
    salt = data.draw(st.integers(1, 2**32))
    off_cone = {y: salt for y in initial.window.sites if not all(a <= b for a, b in zip(y, x))}
    base = simulate(params, initial, horizon, seed)
    pert = simulate(params, initial, horizon, seed, stream_salts=off_cone)
    for got, ref in zip(pert.rings(x), base.rings(x)):
        assert np.array_equal(got, ref)


@PROPERTY
@given(st.lists(scenarios(), min_size=2, max_size=4), st.data())
def test_batch_replicas_match_single_runs(group, data):
    # replicas of one batch share the first window but keep their own spins,
    # exterior and seed
    params, first, horizon, _ = group[0]
    inits = [
        Configuration(first.window, first.spins if i == 0 else tuple(
            data.draw(st.lists(st.integers(0, 1), min_size=len(first.spins),
                               max_size=len(first.spins)))), s[1].exterior)
        for i, s in enumerate(group)
    ]
    seeds = [s[3] for s in group]
    batch = simulate_batch(params, inits, horizon, seeds)
    for r, (init, seed) in enumerate(zip(inits, seeds)):
        assert batch.log(r).to_csv() == simulate(params, init, horizon, seed).to_csv()


@pytest.mark.parametrize("budget", [1, 300, 5000])
def test_estimators_ignore_chunking(monkeypatch, budget):
    def outputs():
        p2 = ModelParams(2, 0.5)
        w2 = Window((-3, -3), (1, 1))
        w1 = Window((-2,), (0,))
        spec1 = Delta(Configuration.all_ones(w1, exterior=0))
        weighted = Observable(((0, 0), (1, 1)), lambda s: 0.3 * s[0] + 0.7 * s[1])
        return (
            estimate_persistence(p2, ProductBernoulli(0.5), (1, 1), [1, 2, 4], 60, w2, 3),
            estimate_relaxation(p2, ProductBernoulli(0.4), weighted, [0.5, 2.0], 4, 30, w2, 5),
            occupation_statistics(p2, ProductBernoulli(0.5), Region(frozenset(w2.sites)),
                                  3.0, 40, w2, 7),
            fk_cascade_probe(ModelParams(1, 0.5), spec1, (-1,), 0.5, 4.0, 50, w1, 9),
        )

    reference = outputs()
    monkeypatch.setattr(estimators, "RING_SLOT_BUDGET", budget)
    assert outputs() == reference


@pytest.mark.parametrize(
    "word, expected",
    [
        (0, (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        (0xFFFFFFFF, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ],
)
def test_philox_known_answers(word, expected):
    w = np.full(3, word, dtype=np.uint32)
    out = streams.philox4x32((w, w, w, w), (w, w))
    assert [tuple(int(v) for v in col) for col in zip(*out)] == [expected] * 3


def test_ring_draws_ignore_philox_chunk(monkeypatch):
    seeds = np.arange(1, 40, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    keys = np.arange(39, dtype=np.uint64)
    reference = streams.ring_draws(seeds, keys, 5, 17)
    monkeypatch.setattr(streams, "PHILOX_CHUNK", 50)
    for got, ref in zip(streams.ring_draws(seeds, keys, 5, 17), reference):
        assert np.array_equal(got, ref)
    # a later block of the same stream equals the tail of a longer draw
    tail = streams.ring_draws(seeds, keys, 12, 10)
    assert np.array_equal(tail[0], reference[0][:, 7:])
