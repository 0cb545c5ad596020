"""Property tests of the graphical construction on random windows (d = 1..3).

Coupling properties: the sweep equals the time-ordered event loop given
identical rings, histories are consistent under horizon extension, a batch
resumed from its horizon continues the one-shot run bit for bit, a site's
rings ignore the enclosing window, a site's trajectory is measurable with
respect to its backward cone, estimator outputs ignore the replica chunking,
relaxation equals its per-run reference, a spin read at a ring's own time
is that ring's outcome, and the oriented-path lemma answers the same on a
batch simulated to t/2 as on one simulated to t.  A window's array site keys
and frozen-exterior rows match their per-site definitions.  Philox4x32-10 is
checked against the Random123 known answers, the packed-lane kernel against
the 32-bit-word oracle, and the integer bit threshold against the float rule
u < p.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eastlab import estimators, sim, streams
from eastlab.estimators import (
    Observable,
    estimate_persistence,
    estimate_relaxation,
    observable_mu_and_norm,
)
from eastlab.lattice import (
    Configuration,
    Delta,
    Exterior,
    ModelParams,
    ProductBernoulli,
    Window,
    initial_rows,
    site_sub_e,
)
from eastlab.sim import simulate, simulate_batch
from eastlab.streams import derive_seed
from eastlab.theory import certify_paths, fk_cascade_probe, oriented_path_check
import oracle
from oracle import event_loop, off_cone_history

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
    rings = log.rings(0, x)
    return [col[rings[0] <= until].tolist() for col in rings]


@PROPERTY
@given(scenarios())
def test_sweep_matches_event_loop(scenario):
    log = simulate(*scenario)
    legal, after = event_loop(log, 0)
    for i, x in enumerate(log.window.sites):
        _, _, got_legal, got_after = log.rings(0, x)
        assert np.array_equal(got_legal, legal[i])
        assert np.array_equal(got_after, after[i])


@PROPERTY
@given(windows())
def test_site_keys_match_scalar_hash(window):
    assert window.site_keys.tolist() == [streams.site_key(x) for x in window.sites]


@PROPERTY
@given(windows(), st.integers(0, 1), st.data())
def test_frozen_zero_matches_per_site_rule(window, spin, data):
    # overrides anywhere in a margin of 2 around the window, not only beside it
    margin = [range(lo - 2, hi + 3) for lo, hi in zip(window.lower, window.upper)]
    outside = [y for y in itertools.product(*margin) if y not in window]
    overrides = data.draw(st.dictionaries(st.sampled_from(outside), st.integers(0, 1), max_size=6))
    rule = Exterior(window, spin, overrides)
    want = [
        any(y not in window and overrides.get(y, spin) == 0
            for y in (site_sub_e(x, i) for i in range(window.d)))
        for x in window.sites
    ]
    assert sim._frozen_zero(rule, sim._geometry(window).boundary).tolist() == want


@PROPERTY
@given(scenarios(), st.floats(0.1, 20.0))
def test_horizon_prefix_consistency(scenario, extra):
    params, initial, h, seed = scenario
    short = simulate(params, initial, h, seed)
    long = simulate(params, initial, h + extra, seed)
    for x in initial.window.sites:
        assert site_records(long, x, until=h) == site_records(short, x)


@PROPERTY
@given(scenarios(), st.lists(st.integers(0, 2**64 - 1), max_size=3),
       st.lists(st.one_of(st.just(0.0), st.floats(0.01, 8.0)), min_size=2, max_size=2),
       st.data())
def test_resume_matches_one_shot(scenario, more_seeds, extra, data):
    # simulate to h, resume chosen replicas to mid, and some of those to H:
    # rings on (mid, H] and the spins at H are the one-shot run's; a zero
    # extension leaves rows with no rings.
    params, initial, h, seed = scenario
    seeds = [seed, *more_seeds]
    mid, horizon = h + extra[0], h + extra[0] + extra[1]
    one = simulate_batch(params, initial.rule, initial.spins, horizon, seeds)
    picks = data.draw(st.lists(st.sampled_from(range(len(seeds))), min_size=1, unique=True))
    again = data.draw(st.lists(st.sampled_from(range(len(picks))), min_size=1, unique=True))
    first = simulate_batch(params, initial.rule, initial.spins, h, seeds)
    resumed = first.resume(picks, mid).resume(again, horizon)
    chosen = [picks[i] for i in again]
    assert (resumed.start, resumed.horizon) == (mid, horizon)
    assert np.array_equal(resumed.final_spins(), one.final_spins()[chosen])
    for i, r in enumerate(chosen):
        for x in initial.window.sites:
            want = one.rings(r, x)
            late = want[0] > mid
            for got, ref in zip(resumed.rings(i, x), want):
                assert np.array_equal(got, ref[late])
            legal_late = want[0][late & want[2]]
            tau = legal_late[0] if legal_late.size else np.inf
            assert resumed.first_update_time(x)[i] == tau
            assert resumed.spin_at_time(x, mid)[i] == one.spin_at_time(x, mid)[r]


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
        assert np.array_equal(a.rings(0, x)[0], b.rings(0, x)[0])
        assert np.array_equal(a.rings(0, x)[1], b.rings(0, x)[1])


@PROPERTY
@given(scenarios(), st.data())
def test_cone_measurability(scenario, data):
    params, initial, horizon, seed = scenario
    x = data.draw(st.sampled_from(initial.window.sites))
    other = data.draw(st.integers(0, 2**64 - 1))
    base = simulate(params, initial, horizon, seed)
    pert = off_cone_history(base, simulate(params, initial, horizon, other), x)
    for got, ref in zip(pert.rings(0, x), base.rings(0, x)):
        assert np.array_equal(got, ref)


@PROPERTY
@given(st.lists(scenarios(), min_size=2, max_size=4), st.data())
def test_batch_replicas_match_single_runs(group, data):
    # replicas of one batch share the first scenario's exterior rule but keep
    # their own spins and seed
    params, first, horizon, _ = group[0]
    rows = [first.spins] + [
        tuple(data.draw(st.lists(st.integers(0, 1), min_size=len(first.spins),
                                 max_size=len(first.spins))))
        for _ in group[1:]
    ]
    seeds = [s[3] for s in group]
    batch = simulate_batch(params, first.rule, rows, horizon, seeds)
    for r, (spins, seed) in enumerate(zip(rows, seeds)):
        init = first.rule.configuration(spins)
        assert batch.to_csv(r) == simulate(params, init, horizon, seed).to_csv(0)


@PROPERTY
@given(scenarios(), st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3), st.booleans())
def test_spins_right_continuous_at_rings(scenario, seeds, no_rings):
    # the spin read at a ring's own time is that ring's outcome, and at the
    # horizon the final spin; a batch with zero rings answers from its start
    params, initial, horizon, seed = scenario
    horizon = 0.0 if no_rings else horizon
    batch = simulate_batch(params, initial.rule, initial.spins, horizon, [seed, *seeds])
    final = batch.final_spins()
    if no_rings:
        assert batch.times.size == 0 and (final == np.array(initial.spins)).all()
    for r in range(len(batch)):
        for i, x in enumerate(initial.window.sites):
            times, _, _, after = batch.rings(r, x)
            assert batch.spin_at_time(x, horizon)[r] == final[r, i]
            assert batch.occupation_time(x, 0.0)[r] == 0.0
            for t, spin in zip(times, after):
                assert batch.spin_at_time(x, t)[r] == spin


@st.composite
def lemma_runs(draw):
    """(params, spec, window, t, alpha, x, seed): d = 1..3, t from 0, a window
    holding D, exterior 0 or 1, a Bernoulli or a Delta measure with few zeros
    (so that D often clears by t/2), and x in {-floor(alpha t)..0}^d."""
    d = draw(st.integers(1, 3))
    t = 0.0 if draw(st.integers(0, 9)) == 9 else draw(st.floats(2.0, 10.0))
    # D's radius floor(2 d alpha t) is drawn first, so that most boxes have more than one site
    alpha = (draw(st.integers(0, 3)) + draw(st.floats(0.0, 0.99))) / (2 * d * max(t, 1.0))
    r, small = math.floor(2 * d * alpha * t), math.floor(alpha * t)
    x = tuple(draw(st.integers(-small, 0)) for _ in range(d))
    window = Window(tuple(-r - draw(st.integers(0, 1)) for _ in range(d)),
                    tuple(draw(st.integers(0, 1)) for _ in range(d)))
    exterior = draw(st.integers(0, 1))
    if draw(st.booleans()):
        spec = ProductBernoulli(draw(st.floats(0.5, 0.95)), exterior)
    else:
        zeros = {x, *draw(st.lists(st.sampled_from(window.sites), max_size=3))}
        spec = Delta(Configuration.with_zeros(window, zeros, exterior))
    params = ModelParams(d, draw(st.floats(0.3, 0.7)))
    return params, spec, window, t, alpha, x, draw(st.integers(0, 2**64 - 1))


@PROPERTY
@given(lemma_runs())
@example((ModelParams(2, 0.5), Delta(Configuration.with_zeros(Window((-1, -1), (0, 0)), [(0, 0)], 0)),
          Window((-1, -1), (0, 0)), 0.0, 0.1, (0, 0), 5))
def test_lemma_reads_only_half_horizon(case):
    # the check reads [0, t/2]: runs cut there answer as runs to t
    params, spec, window, t, alpha, x, seed = case
    rule, rows = initial_rows(spec, window, derive_seed(seed, "init"), range(16))
    rows = np.array(rows)
    rows[::2, window.index(x)] = 0  # x starts at zero in every other replica
    seeds = derive_seed(seed, "sim", np.arange(16))
    answers = []
    for horizon in (t, t / 2):
        batch = simulate_batch(params, rule, rows, horizon, seeds)
        check = oriented_path_check(batch, t, alpha, x)
        answers.append((*check, certify_paths(batch, t, alpha, x, check)))
    for full, half in zip(*answers):
        assert np.array_equal(full, half)


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
            fk_cascade_probe(p2, ProductBernoulli(0.5), (-2, -1), 0.5, 3.0, 40, w2, 7),
            fk_cascade_probe(ModelParams(1, 0.5), spec1, (-1,), 0.5, 4.0, 50, w1, 9),
        )

    reference = outputs()
    monkeypatch.setattr(estimators, "RING_SLOT_BUDGET", budget)
    assert outputs() == reference


def test_relaxation_matches_per_run_reference():
    # one simulate() per run, seeded by the scalar hash, and each draw's mean
    # over its runs: the driver's array-hashed seeds and per-draw sums agree
    params, w, spec = ModelParams(2, 0.35), Window((-1, -1), (0, 0)), ProductBernoulli(0.4)
    f = Observable(((0, 0), (-1, 0)), lambda s: 0.3 * s[0] + 1.7 * s[1] * (1 - s[0]))
    times, n_outer, n_inner, gamma = (0.5, 2.0), 3, 5, 1.3
    mu_f, norm = observable_mu_and_norm(f, params.p)
    outer = []
    rule, rows = initial_rows(spec, w, derive_seed(5, "relax-init"), range(n_outer))
    for o in range(n_outer):
        init = rule.configuration(rows[o])
        logs = [simulate(params, init, times[-1], derive_seed(5, "relax-sim", o, i))
                for i in range(n_inner)]
        inner = np.array([[f.fn([log.spin_at_time(x, t)[0] for x in f.sites])
                           for t in times] for log in logs])
        outer.append((np.abs(inner.mean(axis=0) - mu_f) / norm) ** gamma)
    series = estimate_relaxation(params, spec, f, times, n_outer, n_inner, w, 5, gamma)
    assert series.values == tuple(float(v) for v in np.mean(outer, axis=0))


def _block_words(seed: int, site_key: int, k: int) -> list[int]:
    """Output words w0 .. w3 of block k of one stream, unpacked from the
    production kernel's lanes X = w0 2^32 + w1 and Y = w2 2^32 + w3."""
    (_, x, y), = streams._lanes(np.array([seed], dtype=np.uint64),
                                np.array([site_key], dtype=np.uint64), k, 1)
    x, y = int(x[0, 0]), int(y[0, 0])
    return [x >> 32, x & 0xFFFFFFFF, y >> 32, y & 0xFFFFFFFF]


@pytest.mark.parametrize(
    "word, expected",
    [
        (0, (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        (0xFFFFFFFF, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ],
)
def test_philox_known_answers(word, expected):
    # every counter and key word equal to ``word``; the oracle's 32-bit-word
    # kernel gives the same answers
    both = word << 32 | word
    assert tuple(_block_words(both, both, both)) == expected
    w = np.full(3, word, dtype=np.uint32)
    out = oracle.philox4x32((w, w, w, w), (w, w))
    assert [tuple(int(v) for v in col) for col in zip(*out)] == [expected] * 3


@pytest.mark.parametrize(
    "key, draw, site, top53",
    [
        (0, 0, (0,), 0x1306A2D32EE57B),
        (0x0123456789ABCDEF, 5, (-3, 2), 0x972BC8A82248E),
        ((1 << 64) - 1, (1 << 32) + 7, (1, -1, 4), 0x73558C2E21972),
    ],
)
def test_initial_spin_known_answers(key, draw, site, top53):
    # by hand: Philox4x32-10 with counter (draw, site key) and the two key
    # words; output words 2-3 give the top 53 bits of a uniform u, and the
    # spin under Bernoulli(q) is 1 exactly when u < q
    w0, w1, w2, w3 = _block_words(key, streams.site_key(site), draw)
    assert (w2 << 32 | w3) >> 11 == top53
    u = top53 * 2.0**-53
    w = Window(tuple(c - 1 for c in site), tuple(c + 1 for c in site))
    for q, spin in ((u, 0), (np.nextafter(u, 1.0), 1), (0.5, int(u < 0.5))):
        rows = initial_rows(ProductBernoulli(float(q)), w, key, range(draw, draw + 1))[1]
        assert rows[0, w.index(site)] == spin


def test_persistence_window_independent():
    # x = (1, 1) is the upper corner of w; growing w upward leaves x's cone,
    # and with it every ring and initial spin that x reads, unchanged
    params, spec, x = ModelParams(2, 0.5), ProductBernoulli(0.5), (1, 1)
    w, grown = Window((-3, -3), (1, 1)), Window((-3, -3), (4, 3))
    a, b = (estimate_persistence(params, spec, x, [1, 2, 3], 200, v, 3) for v in (w, grown))
    assert a.to_csv() == b.to_csv()


U64 = st.one_of(st.just(2**64 - 1), st.integers(0, 2**64 - 1))


@PROPERTY
@given(st.lists(st.tuples(U64, U64, st.one_of(st.integers(0, 2**40), st.integers(2**32, 2**64 - 10))),
                min_size=1, max_size=12),
       st.integers(1, 9), st.sampled_from([7, 50, 1 << 14]), st.floats(0.0, 1.0, exclude_max=True))
@example([(2**64 - 1, 2**64 - 1, 2**32 - 2)] * 3, 5, 7, 0.5)
def test_lanes_match_reference_philox(streams_, count, chunk, p):
    # the packed-lane kernel against the 32-bit-word reference: random and
    # all-ones seeds and site keys, ring indices whose high counter word is
    # set or turns over within a draw, every chunking
    seeds, keys, starts = (np.array(c, dtype=np.uint64) for c in zip(*streams_))
    w0, w1, w2, w3 = (w.T.astype(np.uint64) for w in oracle.ring_blocks(seeds, keys, starts, count))
    x, y = np.empty_like(w0), np.empty_like(w0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(streams, "PHILOX_CHUNK", chunk)
        for block, bx, by in streams._lanes(seeds, keys, starts, count):
            x[block], y[block] = bx, by
        gaps, bits = streams.ring_draws(seeds, keys, starts, count, p)
    assert np.array_equal(x, w0 << 32 | w1) and np.array_equal(y, w2 << 32 | w3)
    assert np.array_equal(gaps, -np.log1p(-oracle.unit(w0, w1)))
    assert np.array_equal(bits, oracle.unit(w2, w3) < p)


@PROPERTY
@given(st.integers(0, 2**64 - 1))
@example(0)
@example(2**64 - 1)
@example(2**11 - 1)
@example(2**11)
def test_bit_threshold_matches_float_rule(x):
    # x < bit_threshold(p) is exactly (x >> 11) 2^-53 < p, at p on and next
    # to x's own uniform and at fixed p near both ends of [0, 1)
    u = (x >> 11) * 2.0**-53
    ps = [u, np.nextafter(u, 0.0), np.nextafter(u, 1.0), 2.0**-53, 0.5, 1 - 2.0**-53, 0.0]
    for p in (float(v) for v in ps):
        if p < 1.0:
            assert (np.uint64(x) < streams.bit_threshold(p)) == (u < p), (x, p)


def test_bit_threshold_over_random_lanes():
    xs = np.random.default_rng(17).integers(0, 2**64 - 1, 1 << 14, dtype=np.uint64, endpoint=True)
    u = (xs >> np.uint64(11)).astype(np.float64) * 2.0**-53
    for p in (2.0**-53, 0.5, 1 - 2.0**-53, float(u[0]), float(u[1])):
        assert np.array_equal(xs < streams.bit_threshold(p), u < p), p


def test_bit_threshold_range():
    # the largest p that ModelParams and ProductBernoulli accept keeps the
    # threshold below 2^64; q = 0 gives no ones
    top = float(np.nextafter(1.0, 0.0))
    ModelParams(1, top)
    ProductBernoulli(top)
    for reject in (lambda: ModelParams(1, 1.0), lambda: ProductBernoulli(1.0)):
        with pytest.raises(ValueError):
            reject()
    assert int(streams.bit_threshold(top)) == 2**64 - 2**11
    assert streams.bit_threshold(0.0) == 0
    w = Window((-2, -2), (3, 3))
    assert not initial_rows(ProductBernoulli(0.0), w, 5, range(200))[1].any()
    assert initial_rows(ProductBernoulli(top), w, 5, range(200))[1].all()


def test_ring_bit_is_strict_at_its_threshold():
    # a drawn lane Y with its low 11 bits zero equals bit_threshold(p) at p =
    # its own uniform: the bit is 0 there and 1 from the next p up
    seeds = np.array([11], dtype=np.uint64)
    keys = np.array([streams.site_key((0,))], dtype=np.uint64)
    (_, _, y), = streams._lanes(seeds, keys, 0, 1 << 14)
    k = int(np.flatnonzero(y[:, 0] & np.uint64(0x7FF) == 0)[0])
    u = int(y[k, 0] >> np.uint64(11)) * 2.0**-53
    assert streams.bit_threshold(u) == y[k, 0]
    for p, bit in ((u, False), (float(np.nextafter(u, 1.0)), True)):
        assert streams.ring_draws(seeds, keys, k, 1, p)[1][0, 0] == bit


@PROPERTY
@given(st.lists(st.integers(0, 2**40), min_size=1, max_size=12), st.integers(1, 9),
       st.sampled_from([7, 50, 1 << 14]))
def test_ring_draws_per_row_start_matches_scalar_calls(starts, count, chunk):
    # a per-row first ring index equals one scalar call per row, however the
    # Philox evaluation is chunked
    seeds = (np.arange(len(starts), dtype=np.uint64) + 3) * np.uint64(0x9E3779B97F4A7C15)
    keys = np.arange(len(starts), dtype=np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(streams, "PHILOX_CHUNK", chunk)
        got = streams.ring_draws(seeds, keys, np.array(starts), count, 0.3)
    for r, k0 in enumerate(starts):
        want = streams.ring_draws(seeds[r:r + 1], keys[r:r + 1], k0, count, 0.3)
        assert np.array_equal(got[0][:, r], want[0][:, 0]) and np.array_equal(got[1][:, r], want[1][:, 0])


def test_ring_draws_ignore_philox_chunk(monkeypatch):
    seeds = np.arange(1, 40, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    keys = np.arange(39, dtype=np.uint64)
    reference = streams.ring_draws(seeds, keys, 5, 17, 0.3)
    monkeypatch.setattr(streams, "PHILOX_CHUNK", 50)
    for got, ref in zip(streams.ring_draws(seeds, keys, 5, 17, 0.3), reference):
        assert np.array_equal(got, ref)
    # a later block of the same stream equals the tail of a longer draw
    tail = streams.ring_draws(seeds, keys, 12, 10, 0.3)
    assert np.array_equal(tail[0], reference[0][7:])
