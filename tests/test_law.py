"""Whole-law gate: the sampled law of a small window's state against exact e^{tQ}.

The statistical contracts elsewhere each compare one marginal.  Here the
window's whole state (bit i = spin of the i-th site in sorted order, as in
``oracle.site_loop_rates``) is counted over every state at three times per
config, and compared with the start's law times ``expm(t Q)``, Q the oracle's
site-by-site rate matrix.  Config 0 also compares the joint law of its states
at times 1 and 3 over 256 cells, which a construction that is not Markov over
time would fail even with every one-time law right.

Each comparison is a chi-square test, with the cells of expected count below
5 pooled into one cell.  The family-wise level is 1e-3, Bonferroni over the
ten comparisons, so each p-value must exceed 1e-4.  Each config runs
n = 40 000 replicas seeded ``derive_seed(37, k, arange(n))``.
"""

import functools

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import chisquare

from eastlab.lattice import (
    Exterior, ModelParams, ProductBernoulli, Region, Window, bernoulli_weights, initial_rows, site_sub_e,
)
from eastlab.sim import simulate_batch
from eastlab.streams import derive_seed
from oracle import site_loop_rates

RUNS = 40_000
CHUNK = 10_000  # replicas per batch; no replica's history depends on its batch
LEVEL = 1e-3 / 10
JOINT = (1.0, 3.0)  # config 0's two-time law

# config k: (p, exterior rule, start, times); a start of None is all ones
CONFIGS = {
    0: (0.5, Exterior(Window((0, 0), (1, 1)), 1, {(-1, 0): 0}), None, (0.5, 2.0, 8.0)),
    1: (0.7, Exterior(Window((0,), (5,)), 0, {}), None, (1.0, 4.0, 10.0)),
    # the lower corner never rings legally, so its rows are thinned (undrawn)
    2: (0.5, Exterior(Window((0, 0, 0), (1, 1, 1)), 1, {}), ProductBernoulli(0.3, 1), (0.5, 2.0, 6.0)),
}


def generator(rule, p):
    """The oracle's Q on the window, with the rule's spin at each outside neighbor."""
    w = rule.window
    boundary = {y: rule.overrides.get(y, rule.spin)
                for x in w.sites for i in range(w.d) if (y := site_sub_e(x, i)) not in w}
    return site_loop_rates(Region(frozenset(w.sites)), boundary, p).toarray()


@functools.cache
def sampled(k):
    """({t: each run's window state at t}, undrawn rows) for config k, at its
    times and, for config 0, at the joint times too."""
    p, rule, start, times = CONFIGS[k]
    w = rule.window
    reads = sorted(set(times) | (set(JOINT) if k == 0 else set()))
    runs = np.arange(RUNS)
    seeds = derive_seed(37, k, runs)
    if start is None:
        rows = np.ones((RUNS, w.site_count()), dtype=np.int8)
    else:
        _, rows = initial_rows(start, w, derive_seed(37, k, "init"), runs)
    weights = 1 << np.arange(w.site_count())
    states, undrawn = [], 0
    for lo in range(0, RUNS, CHUNK):
        batch = simulate_batch(ModelParams(w.d, p), rule, rows[lo:lo + CHUNK], max(reads),
                               seeds[lo:lo + CHUNK])
        states.append(sum(wt * batch.spin_at_time(x, reads) for wt, x in zip(weights, w.sites)))
        undrawn += 0 if batch.undrawn is None else int(batch.undrawn.sum())
    states = np.concatenate(states)
    return {t: states[:, j] for j, t in enumerate(reads)}, undrawn


def start_law(k):
    p, rule, start, _ = CONFIGS[k]
    n = rule.window.site_count()
    if start is None:
        law = np.zeros(1 << n)
        law[-1] = 1.0
        return law
    return bernoulli_weights(n, start.q)


def chi_square_p(counts, probs):
    """p-value of the counts against RUNS * probs, with cells of expected
    count below 5 pooled into one cell."""
    expected = RUNS * probs
    small = expected < 5
    observed, expected = counts[~small], expected[~small]
    if small.any():
        observed = np.append(observed, counts[small].sum())
        expected = np.append(expected, (RUNS * probs)[small].sum())
    return chisquare(observed, expected).pvalue


@pytest.mark.parametrize("k, t", [(k, t) for k, (_, _, _, times) in CONFIGS.items() for t in times])
def test_state_law_at_time(k, t):
    p, rule, _, _ = CONFIGS[k]
    law = start_law(k) @ expm(t * generator(rule, p))
    states, _ = sampled(k)
    counts = np.bincount(states[t], minlength=law.size)
    assert chi_square_p(counts, law) > LEVEL


def test_two_time_joint_law():
    p, rule, _, _ = CONFIGS[0]
    q = generator(rule, p)
    (s, t), dim = JOINT, q.shape[0]
    # P(state a at s, b at t) = P(a at s) * (e^{(t - s) Q})[a, b]
    law = ((start_law(0) @ expm(s * q))[:, None] * expm((t - s) * q)).ravel()
    states, _ = sampled(0)
    counts = np.bincount(states[s] * dim + states[t], minlength=law.size)
    assert chi_square_p(counts, law) > LEVEL


def test_bernoulli_config_thins_blocked_rows():
    # the gate covers the thinned path: config 2 has rows that draw no rings
    assert sampled(2)[1] > 0
