import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algrec import freestats, groups as G
from algrec.closure import ClosureBudget, closure
from algrec.freestats import (
    CANCEL_CHUNK,
    PrefixStats,
    cancellation_bound,
    cancellation_experiment,
    random_reduced_words,
    return_excursion_estimate,
    return_probability,
    smallest_passing_j0,
    sphere_growth_profile,
    walk_prefix_stats,
)
from algrec.measures import make_measure, uniform_standard_measure
from algrec.walks import WalkTrace, generate_walk, trace_from_increments
from conftest import child_output
from oracles import (
    cancel,
    full_array_excursion_estimate,
    quadratic_prefix_counts,
    whole_array_cancellation_experiment,
)


def f_el(d, letters):
    return G.make_element(G.Free(d), letters)


# ---------------------------------------------------------------------------
# Prefix statistics

def test_prefix_counts_nested():
    f2 = G.Free(2)
    trace = trace_from_increments(f2, 0, [f_el(2, [1]), f_el(2, [2])])
    stats = walk_prefix_stats(trace)
    assert stats.counts == {1: 1, 2: 1}


def test_prefix_counts_two_branches():
    f2 = G.Free(2)
    trace = trace_from_increments(f2, 0, [f_el(2, [1]), f_el(2, [-1, 2])])
    stats = walk_prefix_stats(trace)
    assert stats.counts == {1: 2}


def test_prefix_counts_multiletter_increment():
    # A single jump by a two-letter word still contributes both prefixes.
    f2 = G.Free(2)
    trace = trace_from_increments(f2, 0, [f_el(2, [2, 1])])
    stats = walk_prefix_stats(trace)
    assert stats.counts == {1: 1, 2: 1}


def test_prefix_counts_requires_free_group():
    z = G.ZPower(1)
    trace = trace_from_increments(z, 0, [G.make_element(z, (1,))])
    with pytest.raises(ValueError):
        walk_prefix_stats(trace)


@pytest.mark.parametrize("d,seed", [(2, 1), (2, 2), (5, 1), (5, 9)])
def test_prefix_counts_match_quadratic_recount(d, seed):
    mu = uniform_standard_measure(G.Free(d))
    trace = generate_walk(mu, 1000, seed=seed)
    stats = walk_prefix_stats(trace)
    assert stats.counts == quadratic_prefix_counts(trace)
    assert stats.trace_length == 1000


def two_letter_measure():
    f2 = G.Free(2)
    return make_measure(f2, [(f_el(2, w), Fraction(1, 4))
                             for w in ([1, 2], [-2, -1], [2], [-2])])


@pytest.mark.parametrize("seed", [1, 4, 9])
def test_prefix_counts_multiletter_match_quadratic_recount(seed):
    trace = generate_walk(two_letter_measure(), 600, seed=seed)
    assert walk_prefix_stats(trace).counts == quadratic_prefix_counts(trace)


def test_prefix_counts_of_trace_prefixes():
    """A prefix of a trace shares the whole walk's trie, but counts only
    the prefixes of its own positions."""
    trace = generate_walk(two_letter_measure(), 300, seed=4)
    for n in (0, 1, 7, 150, 300):
        prefix = WalkTrace(trace.descriptor, trace.seed,
                           trace.increments[:n], trace.positions[:n])
        stats = walk_prefix_stats(prefix)
        assert stats.counts == quadratic_prefix_counts(prefix)
        assert stats.trace_length == n


def f5_walk(n_steps, seed):
    return generate_walk(uniform_standard_measure(G.Free(5)), n_steps, seed)


def test_prefix_invariants_on_walk():
    stats = walk_prefix_stats(f5_walk(2000, seed=4))
    d = 5
    max_depth = stats.max_depth
    for j in range(1, max_depth + 1):
        v = stats.count(j)
        assert v >= 1
        assert v <= min(2 * d * (2 * d - 1) ** (j - 1), 2000)
    for j in range(1, max_depth):
        assert stats.count(j + 1) <= (2 * d - 1) * stats.count(j)


def log_bound_holds(stats, j0):
    """The reference decision: V_j <= log2(j) at every depth j > j0."""
    return all(2 ** v <= j for j, v in stats.counts.items() if j > j0)


def test_log_bound_check_boundary_equality():
    # 2**1 = 2 at depth 2 is no violation; depth 1 is one, at or below j0 = 1.
    stats = PrefixStats(10, {1: 5, 2: 1})
    assert smallest_passing_j0(stats) == 1


def test_log_bound_check_violation():
    stats = PrefixStats(10, {8: 4})
    assert smallest_passing_j0(stats) == 8
    assert not log_bound_holds(stats, 2)


def test_smallest_passing_j0():
    stats = PrefixStats(10, {2: 3, 8: 4, 16: 4, 100: 6})
    # violations at 2 (2**3 > 2), 8 (2**4 > 8), 16 (2**4 = 16 ok), 100 (2**6 < 100? 64<100 ok)
    assert smallest_passing_j0(stats) == 8
    assert log_bound_holds(stats, 8) and not log_bound_holds(stats, 7)
    assert smallest_passing_j0(PrefixStats(0, {})) == 0


@pytest.mark.parametrize("d", [2, 5])
def test_log_bound_decision_matches_reference_on_walks(d):
    """free-stats' log_bound_holds, smallest_passing_j0 <= j0, agrees with
    the depth-by-depth reference on real walks, at every j0 checked."""
    mu = uniform_standard_measure(G.Free(d))
    for seed in range(1, 7):
        stats = walk_prefix_stats(generate_walk(mu, 3000, seed))
        smallest = smallest_passing_j0(stats)
        for j0 in (-1, 0, 7, 64):
            assert (smallest <= j0) == log_bound_holds(stats, j0)


def test_log_bound_mostly_holds_at_scale():
    # 200 seeds of a 10**4-step walk; the bound past depth 64 should hold
    # for a solid majority (the claim is positive probability, not certainty).
    passing = 0
    for seed in range(1, 201):
        stats = walk_prefix_stats(f5_walk(10_000, seed))
        if smallest_passing_j0(stats) <= 64:
            passing += 1
    assert passing >= 60  # >= 30% of 200


# ---------------------------------------------------------------------------
# Return probability and the level walk

def test_return_probability_values():
    assert return_probability(5) == Fraction(10, 91)
    assert return_probability(1) == Fraction(2, 3)


def test_return_probability_fixed_point_range():
    for d in range(1, 101):
        p = return_probability(d)
        two_d = 2 * d
        assert p == Fraction(1, two_d) * (1 + Fraction(two_d - 1, two_d) * p)


def test_return_probability_rejects_a_tampered_closed_form(monkeypatch):
    # The closed form 10/91 of d = 5, moved by 10**-9, fails the check.
    def tampered(*args):
        value = Fraction(*args)
        return value + Fraction(1, 10 ** 9) if args == (10, 91) else value

    monkeypatch.setattr(freestats, "Fraction", tampered)
    with pytest.raises(ArithmeticError, match="fixed-point equation"):
        return_probability(5)


def test_return_excursion_estimates_pinned_seeds():
    exact = float(Fraction(10, 91))
    for seed in (1, 2, 3):
        estimate = return_excursion_estimate(5, 10 ** 5, seed)
        assert abs(estimate - exact) <= 0.01


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("excursions,seed", [(1, 1), (1, 2), (7, 3), (20_000, 4)])
def test_return_excursion_estimate_matches_full_array_oracle(d, excursions, seed):
    assert return_excursion_estimate(d, excursions, seed) == \
        full_array_excursion_estimate(d, excursions, seed)


def test_free_statistics_reject_rank_zero():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    calls = [lambda: return_probability(0),
             lambda: return_excursion_estimate(0, 10, 1),
             lambda: random_reduced_words(0, 4, 3, rng),
             lambda: cancellation_experiment(0, 10, [(1,)], seed=0)]
    for call in calls:
        with pytest.raises(ValueError, match=r"^d must be >= 1$"):
            call()


# ---------------------------------------------------------------------------
# Cancellation

def test_cancel_examples():
    assert cancel(f_el(2, [1, 2]), f_el(2, [-2, 1])) == 1
    x = f_el(2, [1, 2, 1])
    assert cancel(x, G.invert(x)) == 3
    assert cancel(f_el(2, [1]), f_el(2, [2])) == 0


def test_cancel_length_identity():
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8),
           st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8))
    def check(u, v):
        x, y = f_el(2, u), f_el(2, v)
        c = cancel(x, y)
        assert 0 <= c <= min(len(x.payload), len(y.payload))
        product = G.multiply(x, y)
        assert len(product.payload) == len(x.payload) + len(y.payload) - 2 * c

    check()


def _all_reduced_words(d, max_len):
    letters = [i for i in range(1, d + 1)] + [-i for i in range(1, d + 1)]
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (l,) for w in frontier for l in letters
                    if not w or w[-1] != -l]
        words.extend(frontier)
    return words


def test_cancel_symmetry_exhaustive_short():
    words = _all_reduced_words(2, 4)
    for u in words:
        for v in words:
            x, y = f_el(2, u), f_el(2, v)
            assert cancel(x, y) == cancel(G.invert(y), G.invert(x))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cancel_symmetry_random_length8(data):
    letters = st.sampled_from([1, -1, 2, -2])
    u = data.draw(st.lists(letters, max_size=8))
    v = data.draw(st.lists(letters, max_size=8))
    x, y = f_el(2, u), f_el(2, v)
    assert cancel(x, y) == cancel(G.invert(y), G.invert(x))


def test_random_reduced_words_are_reduced_and_uniformish():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    words = random_reduced_words(3, 10, 500, rng)
    assert words.shape == (500, 10)
    for row in words:
        assert all(a != -b for a, b in zip(row, row[1:]))
        assert all(1 <= abs(x) <= 3 for x in row)


#: sha256 of shape, dtype and bytes of every random_reduced_words draw of
#: length (1, 2, 16, 256) x count (1, 7, 20000), in that order, from one
#: generator per rank d, so the letters and the generator's stream position
#: after each draw are both pinned.
REDUCED_WORD_PINS = {
    2: "80e8dc409f6c48c0b65bcdf45cd015f0fdc5da634114c92d7c4d1f3ba4f359cc",
    3: "df78fe1cc47af21d3096361e1c1450de41bdfa7628b7be84d6613ab17710ca4c",
    5: "c827e0d2b52c2fda131e54083b666616fe91e7635e961d98c1cb0f7929d35885",
    8: "04e0ef06867a3cda60fd0712b51538fc5a22ce5ce714cca6861a7e20ff2b8e02",
}


@pytest.mark.parametrize("d", sorted(REDUCED_WORD_PINS))
def test_random_reduced_words_pinned(d):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([d, 2024])))
    digest = hashlib.sha256()
    for length in (1, 2, 16, 256):
        for count in (1, 7, 20000):
            words = random_reduced_words(d, length, count, rng)
            assert words.shape == (count, length)
            digest.update(f"{words.shape} {words.dtype.str};".encode())
            digest.update(words.tobytes())
    assert digest.hexdigest() == REDUCED_WORD_PINS[d]


def test_cancellation_experiment_exceedance_under_bound():
    pool_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([7, 1])))
    pool = random_reduced_words(5, 64, 8, pool_rng)
    sample = cancellation_experiment(5, 20_000,
                                     [tuple(int(x) for x in w) for w in pool],
                                     seed=7, lengths=(16, 64))
    for row in sample.table:
        assert row.trials == 20_000
        assert row.empirical <= 3 * cancellation_bound(5, row.length)


def test_cancellation_experiment_counts_match_oracle():
    # One batch per length, so the draws can be replayed in the same order.
    pool = [(1, 2, 1), (-2,), (2, -1, -1, 2)]
    sample = cancellation_experiment(2, 600, pool, seed=5, lengths=(2, 4, 8))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
    for row in sample.table:
        xs = random_reduced_words(2, row.length, 600, rng)
        which = rng.integers(0, len(pool), size=600)
        expected = sum(
            cancel(f_el(2, [int(a) for a in x]), f_el(2, pool[w]))
            > math.log2(row.length) for x, w in zip(xs, which))
        assert row.exceed_count == expected
    assert sample.table[0].exceed_count > 0


def _pool(d, seed):
    """Eight reduced words of length 64, then prefixes of them of lengths
    1, 3 and 9, so the pool's words differ in length."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([d, seed])))
    words = [tuple(int(x) for x in w) for w in random_reduced_words(d, 64, 8, rng)]
    return words + [words[0][:1], words[1][:3], words[2][:9]]


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("pool_lengths", [None, (3,), (1, 2, 5)])
def test_cancellation_experiment_matches_whole_array_oracle(d, pool_lengths):
    """Across a chunk boundary, at word lengths s below, at and above the
    pool words' lengths, and at lengths that are not powers of 2. Given
    pool_lengths, the pool keeps that many of its words, cut to them."""
    pool = _pool(d, 3)
    if pool_lengths is not None:
        pool = [w[:n] for w, n in zip(pool, pool_lengths)]
    args = (d, CANCEL_CHUNK + 1, pool, 17, (1, 2, 3, 5, 9, 16, 65, 256))
    assert cancellation_experiment(*args) == \
        whole_array_cancellation_experiment(*args)


def test_cancellation_experiment_validates_pool():
    with pytest.raises(ValueError):
        cancellation_experiment(5, 10, [()], seed=0)
    with pytest.raises(ValueError):
        cancellation_experiment(5, 10, [(1, -1)], seed=0)
    with pytest.raises(ValueError, match="length must be >= 1"):
        cancellation_experiment(5, 10, [(1,)], seed=0, lengths=(4, 0))


@pytest.mark.parametrize("d,word", [(5, (7, 1)), (5, (1, -6)), (2, (0,)),
                                    (2, (1, 0, 2))])
def test_cancellation_experiment_rejects_foreign_letters(d, word):
    with pytest.raises(ValueError, match=f"pool word {re.escape(str(word))}"):
        cancellation_experiment(d, 10, [(1,), word], seed=0)


def test_cancellation_chunk_memory_is_bounded():
    """One 20k-trial chunk at s = 256 raises the high-water mark by less
    than 8 MB: the whole-array kernel held about 24 MB of words for it."""
    rise_kb, = child_output(
        "import numpy as np\n"
        "from algrec.freestats import cancellation_experiment as run, "
        "random_reduced_words\n"
        "rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([11, 1])))\n"
        "pool = [tuple(int(x) for x in w) for w in random_reduced_words(5, 64, 8, rng)]\n"
        "run(5, 10, pool, 1, (256,))\n"
        "before = vm('VmRSS')\n"
        "run(5, 20_000, pool, 11, (256,))\n"
        "print(vm('VmHWM') - before)\n")
    assert int(rise_kb) < 8 * 1024


# ---------------------------------------------------------------------------
# Sphere growth

def test_sphere_growth_single_generator():
    f2 = G.Free(2)
    result = closure([f_el(2, [1])], ClosureBudget(radius=4))
    profile = sphere_growth_profile(result)
    assert profile.counts == {1: 1, 2: 1, 3: 1, 4: 1}
    assert profile.slope == 0


def test_sphere_growth_two_letter_monoid():
    f2 = G.Free(2)
    result = closure([f_el(2, [1]), f_el(2, [2])], ClosureBudget(radius=6))
    profile = sphere_growth_profile(result)
    assert profile.counts == {r: 2 ** r for r in range(1, 7)}
    assert abs(profile.slope - 1.0) < 1e-9
    assert profile.ambient_slope == math.log2(3)


def test_sphere_growth_walk_closure_reports_slope():
    mu = uniform_standard_measure(G.Free(5))
    trace = generate_walk(mu, 200, seed=12)
    result = closure(trace.positions, ClosureBudget(radius=6))
    profile = sphere_growth_profile(result)
    assert set(profile.counts) <= set(range(0, 7))
    assert profile.slope < math.log2(9)
