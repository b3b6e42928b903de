import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algrec import closure as C, groups as G
from algrec.closure import (
    ClosureBudget,
    InverseWitnessReport,
    Membership,
    WitnessRow,
    brute_force_abelian_closure,
    closure,
    contains,
    coverage_fraction,
    inverse_witness_report,
    write_closure_dump,
)
from algrec.measures import uniform_standard_measure
from algrec.walks import generate_walk, trace_from_increments
from oracles import worklist_closure


def z_el(v):
    return G.make_element(G.ZPower(1), (v,))


def test_closure_z_2_3():
    result = closure([z_el(2), z_el(3)], ClosureBudget(radius=10))
    assert {g.payload[0] for g in result.elements} == set(range(2, 11))
    assert result.exhausted


def test_closure_z_includes_derived_identity():
    result = closure([z_el(1), z_el(-1)], ClosureBudget(radius=3))
    assert {g.payload[0] for g in result.elements} == set(range(-3, 4))
    assert result.exhausted


def test_closure_free_monoid_single_letter():
    f2 = G.Free(2)
    result = closure([G.make_element(f2, [1])], ClosureBudget(radius=4))
    assert {g.payload for g in result.elements} == {
        (1,), (1, 1), (1, 1, 1), (1, 1, 1, 1)}
    assert result.exhausted


def test_contains_tristate():
    result = closure([z_el(2), z_el(3)], ClosureBudget(radius=10))
    assert contains(result, z_el(7)) is Membership.PRESENT
    assert contains(result, z_el(1)) is Membership.ABSENT_WITHIN_BUDGET
    assert contains(result, z_el(11)) is Membership.UNKNOWN


def test_contains_unknown_when_not_exhausted():
    result = closure([z_el(1), z_el(-1)],
                     ClosureBudget(radius=12, max_products=5))
    assert not result.exhausted
    missing = next(v for v in range(-12, 13)
                   if z_el(v) not in result.elements)
    assert contains(result, z_el(missing)) is Membership.UNKNOWN


def test_budget_truncation_reports_not_exhausted():
    result = closure([z_el(1)], ClosureBudget(radius=12, max_elements=3))
    assert not result.exhausted
    assert len(result.elements) >= 3


def test_coverage_examples():
    full = closure([z_el(1), z_el(-1)], ClosureBudget(radius=5))
    assert coverage_fraction(full, 3) == 1
    partial = closure([z_el(2), z_el(3)], ClosureBudget(radius=10))
    assert coverage_fraction(partial, 2) == Fraction(1, 5)
    f2 = G.Free(2)
    mono = closure([G.make_element(f2, [1])], ClosureBudget(radius=4))
    assert coverage_fraction(mono, 1) == Fraction(1, 5)


def test_coverage_radius_validated():
    result = closure([z_el(1)], ClosureBudget(radius=4))
    with pytest.raises(ValueError):
        coverage_fraction(result, 5)


def test_closure_oracle_equivalence_quick():
    cases = [
        ([2, 3], 10), ([1, -1], 12), ([5, -3], 12), ([11, -9], 12),
        ([7], 12), ([4, 6], 12), ([12, -11], 12), ([2, -2], 8),
    ]
    for gens, radius in cases:
        elements = [z_el(v) for v in gens]
        ours = closure(elements, ClosureBudget(radius=radius))
        assert ours.exhausted
        assert ours.elements == brute_force_abelian_closure(elements, radius)


def test_closure_oracle_equivalence_cyclic():
    for m in (5, 6, 12, 24):
        desc = G.CyclicZ(m)
        for gens in ([1], [5 % m], [2, 3], [m - 1]):
            elements = [G.GroupElement(desc, g % m) for g in gens]
            radius = 12
            ours = closure(elements, ClosureBudget(radius=radius))
            assert ours.exhausted
            assert ours.elements == brute_force_abelian_closure(elements, radius)


def test_monotonicity_in_generators():
    base = closure([z_el(3)], ClosureBudget(radius=10))
    bigger = closure([z_el(3), z_el(2)], ClosureBudget(radius=10))
    assert base.elements <= bigger.elements


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=3),
       st.integers(-6, 6).filter(bool))
def test_monotonicity_random(gens, extra):
    budget = ClosureBudget(radius=8)
    small = closure([z_el(v) for v in gens], budget)
    large = closure([z_el(v) for v in gens] + [z_el(extra)], budget)
    assert small.elements <= large.elements


@pytest.mark.parametrize("descriptor,gen_payloads,radius", [
    (G.ZPower(1), [(3,), (-2,)], 8),
    (G.ZPower(2), [(1, 1), (0, -1)], 5),
    (G.CyclicZ(12), [1, 7], 6),
    (G.Free(2), [(1,), (2,), (-1,), (1, 2)], 4),
    (G.Heisenberg(), [(1, 0, 0), (0, -1, 0), (-1, 0, 0)], 4),
    (G.LamplighterZ(), [(1, ()), (-1, (0,)), (0, (0,))], 4),
], ids=lambda v: str(v)[:24])
def test_semigroup_property_at_exhaustion(descriptor, gen_payloads, radius):
    gens = [G.make_element(descriptor, p) for p in gen_payloads]
    result = closure(gens, ClosureBudget(radius=radius))
    assert result.exhausted
    for x in result.elements:
        for y in result.elements:
            z = G.multiply(x, y)
            if G.word_length_within(z, radius) is not None:
                assert z in result.elements


def test_generator_closedness_at_exhaustion():
    gens = [z_el(2), z_el(5), z_el(-3)]
    result = closure(gens, ClosureBudget(radius=9))
    assert result.exhausted
    for x in result.elements:
        for g in gens:
            for z in (G.multiply(x, g), G.multiply(g, x)):
                if G.word_length_within(z, 9) is not None:
                    assert z in result.elements


def test_closure_determinism():
    gens = [z_el(5), z_el(-3), z_el(2)]
    a = closure(gens, ClosureBudget(radius=9))
    b = closure(list(reversed(gens)), ClosureBudget(radius=9))
    assert a.elements == b.elements
    assert a.products_performed == b.products_performed


#: Groups with the largest radius checked for each. Balls of more than 512
#: elements, which memoise no products, are those of F_5 at r >= 3, F_3 at
#: r = 4, Heisenberg at r = 6 and Z^2 at r >= 16.
TABLE_CASES = [
    (G.ZPower(1), 12), (G.ZPower(2), 6), (G.ZPower(3), 4),
    (G.CyclicZ(5), 3), (G.CyclicZ(12), 6),
    (G.Free(2), 4), (G.Heisenberg(), 5), (G.LamplighterZ(), 6),
    (G.Free(5), 4), (G.Free(3), 4), (G.Heisenberg(), 6), (G.ZPower(2), 20),
]

#: The groups of TABLE_CASES whose balls some drawn tails fill under each cap.
FILLED_BY_TAILS = {G.ZPower(1), G.CyclicZ(5), G.CyclicZ(12)}


@pytest.mark.parametrize("cap", [None, "max_elements", "max_products"])
@pytest.mark.parametrize("descriptor,max_radius", TABLE_CASES, ids=str)
def test_table_engine_replays_worklist(descriptor, max_radius, cap):
    """closure() replays the element worklist of tests/oracles.py, which
    tries every pair from both sides: elements, exhausted and product count
    agree on walk tails, with no cap or with a small cap that stops some
    runs, whether or not the ball memoises products. On Z and Z/m some
    tails fill the ball under each cap, after which closure() counts the
    remaining products without computing them."""
    mu = uniform_standard_measure(descriptor)
    truncated, filled = [], []

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, max_radius), st.integers(0, 2**16),
           st.integers(10, 200), st.data())
    def check(radius, seed, steps, data):
        positions = generate_walk(mu, steps, seed=seed).positions
        tail = positions[data.draw(st.integers(0, steps // 4)):]
        caps = {cap: data.draw(st.integers(
            1, 40 if cap == "max_elements" else 2000))} if cap else {}
        budget = ClosureBudget(radius, **caps)
        elements, exhausted, products = worklist_closure(tail, budget)
        result = closure(tail, budget)
        assert (result.elements, result.exhausted, result.products_performed) \
            == (frozenset(elements), exhausted, products)
        truncated.append(not exhausted)
        filled.append(len(elements) == G.ball_size(descriptor, radius))

    check()
    assert any(truncated) == (cap is not None)
    assert any(filled) or descriptor not in FILLED_BY_TAILS


def heavy_free_tail(seed):
    return generate_walk(uniform_standard_measure(G.Free(5)), 200,
                         seed=seed).positions


@pytest.mark.parametrize("seed,products,kept,muls", [
    (28, 180_172, 310, 4_584), (30, 640_372, 572, 23_446)])
def test_exhausted_free_closure_multiplies_only_pairs_in_reach(
        monkeypatch, seed, products, kept, muls):
    """The heavy F_5, r = 4, 200-step tail closures count two products per
    partner visit, but multiply each unordered pair at most once, and only
    when one of its products lands in the ball: far fewer than k(k+1)
    calls of mul_within for k elements, and none of mul."""
    monkeypatch.setattr(C, "_STORES", {})
    tail = heavy_free_tail(seed)
    calls, plain, pairs = [], [], []
    mul, mul_within = G.Free.mul, G.Free.mul_within
    products_of = C._Store.products
    monkeypatch.setattr(G.Free, "mul", lambda self, p, q: plain.append(1)
                        or mul(self, p, q))
    monkeypatch.setattr(G.Free, "mul_within", lambda self, p, q, r:
                        calls.append(1) or mul_within(self, p, q, r))
    monkeypatch.setattr(C._Store, "products", lambda self, a, b:
                        pairs.append(products_of(self, a, b)) or pairs[-1])
    result = closure(tail, ClosureBudget(radius=4))
    k = len(result.elements)
    assert result.exhausted
    assert (result.products_performed, k) == (products, kept)
    assert len(calls) == muls == 2 * len(pairs) < k * (k + 1)
    assert (-1, -1) not in pairs
    assert plain == []


def test_heavy_free_closures_within_budget(monkeypatch):
    """The two heavy F_5, r = 4, 200-step tails (seeds 28 and 30) close
    from a cold store in under 0.3 s together."""
    tails = [heavy_free_tail(seed) for seed in (28, 30)]
    monkeypatch.setattr(C, "_STORES", {})
    start = time.perf_counter()
    for tail in tails:
        closure(tail, ClosureBudget(radius=4))
    assert time.perf_counter() - start < 0.3


@pytest.mark.parametrize("descriptor,radius", [
    (G.Free(2), 3), (G.Free(3), 3), (G.Free(5), 2)], ids=str)
def test_pairs_out_of_reach_leave_the_ball(monkeypatch, descriptor, radius):
    """The reach index is exact both ways: over every pair of the ball,
    ``Free.reach_keys`` files y in a bucket that x looks up exactly when
    x*y or y*x lies in the ball. Seeded with the ball's words that avoid
    the letter -d, which are closed under products in the ball (reduction
    only deletes letters), the closure pops each x once with every member
    as a partner, skips the partners popped before x, gains no member and
    never fills the ball, so it multiplies each unordered pair {x, y} once
    exactly when a product lands; each pop multiplies in snapshot
    (canonical key) order; and a product budget that cuts the snapshot of
    pop i after its first c partners limits that pop to those partners.
    Seeded with the whole ball, the closure is full from the start: it
    multiplies nothing and counts what the worklist counts, under each
    budget."""
    ball = sorted(G.ball_distances(descriptor, radius))
    length, mul = descriptor.length, descriptor.mul
    reach = {p: descriptor.reach_keys(p, radius) for p in ball}
    for p in ball:
        looks = set(reach[p][1])
        assert [q for q in ball if looks.intersection(reach[q][0])] == [
            q for q in ball
            if min(length(mul(p, q)), length(mul(q, p))) <= radius]

    products_of = C._Store.products
    calls = []
    monkeypatch.setattr(C._Store, "products", lambda self, a, b: calls.append(
        (self.payloads[a], self.payloads[b])) or products_of(self, a, b))

    def run(seed, **caps):
        monkeypatch.setattr(C, "_STORES", {})  # no memoised products
        calls.clear()
        return closure([G.GroupElement(descriptor, p) for p in seed],
                       ClosureBudget(radius, **caps))

    key = descriptor.format
    seed = [p for p in ball if -descriptor.rank not in p]
    order = sorted(seed, key=key)  # join and pop order
    result = run(seed)
    assert result.exhausted and len(result.elements) == len(seed) < len(ball)
    in_reach = {(p, q) for i, p in enumerate(order) for q in order[i:]
                if min(length(mul(p, q)), length(mul(q, p))) <= radius}
    assert len(calls) == len(set(calls)) and set(calls) == in_reach
    assert calls == sorted(calls, key=lambda c: (
        order.index(c[0]), key(c[1])))
    assert 0 < len(in_reach) < len(seed) * (len(seed) + 1) // 2

    n = len(seed)
    for i in (0, n // 3, n - 1):
        for c in (1, n // 2, n - 1):
            budget = 2 * n * i + 2 * c  # pop i's snapshot is cut after c
            result = run(seed, max_products=budget)
            x = order[i]
            assert not result.exhausted
            assert result.products_performed == budget
            assert [q for p, q in calls if p == x] == [
                q for q in order[i:c] if (x, q) in in_reach]

    n = len(ball)
    for caps in [{}, {"max_elements": n}, {"max_elements": n + 1},
                 *({"max_products": 2 * n * i + 2 * c}
                   for i in (0, n // 3, n - 1) for c in (1, n // 2, n - 1))]:
        result = run(ball, **caps)
        elements, exhausted, products = worklist_closure(
            [G.GroupElement(descriptor, p) for p in ball],
            ClosureBudget(radius, **caps))
        assert calls == []
        assert (result.elements, result.exhausted, result.products_performed) \
            == (frozenset(elements), exhausted, products)


def full_inversion_report(trace, n, budget):
    """The witness report that closes the whole tail and inverts every
    position, however long, and its rows."""
    tail = list(trace.positions[n - 1:])
    result = closure(tail, budget, generator_range=(n, len(trace)))
    rows = tuple(WitnessRow(i, contains(result, G.invert(x)),
                            G.word_length_within(x, budget.radius))
                 for i, x in enumerate(tail, start=n))
    return InverseWitnessReport(
        result, n, tuple(r.membership for r in rows),
        tuple(r.position_length for r in rows)), rows


WITNESS_CASES = [(G.ZPower(2), 4), (G.Free(2), 3), (G.Free(5), 3),
                 (G.Heisenberg(), 3), (G.LamplighterZ(), 3), (G.CyclicZ(12), 4)]


@pytest.mark.parametrize("cap", [None, "max_elements", "max_products"])
@pytest.mark.parametrize("descriptor,radius", WITNESS_CASES, ids=str)
def test_witness_report_matches_full_inversion(descriptor, radius, cap):
    """Rows decided by length first equal contains(result, invert(x)) on
    every row, with and without a budget that truncates the closure."""
    mu = uniform_standard_measure(descriptor)
    exhausted, outside = set(), set()

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.integers(0, 2**16), st.integers(1, 80), st.data())
    def check(seed, steps, data):
        trace = generate_walk(mu, steps, seed=seed)
        n = data.draw(st.integers(1, steps // 3 + 1))
        caps = {cap: data.draw(st.integers(
            1, 8 if cap == "max_elements" else 100))} if cap else {}
        budget = ClosureBudget(radius, **caps)
        report = inverse_witness_report(trace, n, budget)
        expected, rows = full_inversion_report(trace, n, budget)
        assert report == expected and report.rows == rows
        exhausted.add(report.closure_result.exhausted)
        outside.update(r.position_length is None for r in report.rows)

    check()
    assert (False in exhausted) == (cap is not None)
    assert outside == {True, False}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WITNESS_CASES), st.integers(0, 2**16),
       st.sampled_from([None, "max_elements", "max_products"]), st.data())
def test_closure_ignores_generator_order_and_repeats(case, seed, cap, data):
    """The closure of a tail is the same result for its positions shuffled
    and repeated, with or without a budget that truncates it."""
    descriptor, radius = case
    tail = list(generate_walk(uniform_standard_measure(descriptor), 60,
                              seed=seed).positions)
    caps = {cap: data.draw(st.integers(
        1, 8 if cap == "max_elements" else 100))} if cap else {}
    budget = ClosureBudget(radius, **caps)
    again = data.draw(st.permutations(tail + data.draw(
        st.lists(st.sampled_from(tail), max_size=20))))
    assert closure(again, budget) == closure(tail, budget)


def test_survey_walks_and_reports_build_no_products(monkeypatch):
    """Walks and witness reports on H, L, Z and Z/12 multiply payloads
    through the family, never through groups.multiply."""
    calls = []
    multiply = G.multiply

    def counted(a, b):
        calls.append(1)
        return multiply(a, b)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("algrec") and \
                getattr(module, "multiply", None) is multiply:
            monkeypatch.setattr(module, "multiply", counted)
    for descriptor, steps, radius in [
            (G.Heisenberg(), 500, 4), (G.LamplighterZ(), 500, 4),
            (G.ZPower(1), 200, 5), (G.CyclicZ(12), 500, 6)]:
        trace = generate_walk(uniform_standard_measure(descriptor), steps,
                              seed=3)
        report = inverse_witness_report(trace, 1, ClosureBudget(radius))
        assert len(report.rows) == steps
    assert calls == []
    G.multiply(G.identity(G.CyclicZ(12)), G.identity(G.CyclicZ(12)))
    assert calls == [1]  # the counter is in place


def test_witness_report_torsion_all_present():
    c6 = G.CyclicZ(6)
    incs = [G.GroupElement(c6, 1), G.GroupElement(c6, 4)]  # positions 1, 5
    trace = trace_from_increments(c6, 0, incs)
    report = inverse_witness_report(trace, 1, ClosureBudget(radius=3))
    assert {x.payload for x in trace.positions} == {1, 5}
    assert report.present == len(report.rows)
    assert report.present_fraction == 1


def test_witness_report_z_both_signs_present():
    z = G.ZPower(1)
    incs = [z_el(1), z_el(1), z_el(-1), z_el(-1), z_el(-1)]
    trace = trace_from_increments(z, 0, incs)
    assert [x.payload[0] for x in trace.positions] == [1, 2, 1, 0, -1]
    report = inverse_witness_report(trace, 1, ClosureBudget(radius=5))
    assert report.present == 5
    assert report.present_fraction == 1


def test_witness_report_free_group_completes():
    mu = uniform_standard_measure(G.Free(5))
    trace = generate_walk(mu, 50, seed=3)
    report = inverse_witness_report(trace, 1, ClosureBudget(radius=6))
    assert len(report.rows) == 50
    assert report.present + report.absent + report.unknown == 50
    assert 0 <= report.present_fraction <= 1
    assert report.unknown > 0  # long positions fall outside the ball


def test_witness_report_tail_index():
    z = G.ZPower(1)
    incs = [z_el(1)] * 4
    trace = trace_from_increments(z, 0, incs)
    report = inverse_witness_report(trace, 3, ClosureBudget(radius=6))
    assert report.closure_result.generator_range == (3, 4)
    assert [r.index for r in report.rows] == [3, 4]


def test_closure_dump(tmp_path):
    result = closure([z_el(2), z_el(3)], ClosureBudget(radius=6),
                     generator_range=(1, 2))
    path = tmp_path / "dump.txt"
    write_closure_dump(result, path, meta={"config": "x"})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# closure group=ZPower(1) generators=1..2")
    assert "exhausted=True" in lines[0]
    body = [l for l in lines if not l.startswith("#")]
    assert body == sorted(body)
    assert len(body) == len(result.elements)


def test_closure_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        closure([], ClosureBudget(radius=3))
    with pytest.raises(ValueError):
        closure([z_el(1), G.identity(G.ZPower(2))], ClosureBudget(radius=3))


def test_heisenberg_closure_runs_past_radius_12():
    """No radius is out of range: a Heisenberg closure at r = 14 keeps
    elements longer than 12 and replays the worklist oracle."""
    h = G.Heisenberg()
    gens = [G.GroupElement(h, p) for p in ((1, 0, 0), (0, 1, 3), (-2, 1, 0))]
    budget = ClosureBudget(radius=14, max_elements=400)
    result = closure(gens, budget)
    assert (set(result.elements), result.exhausted,
            result.products_performed) == worklist_closure(gens, budget)
    assert max(G.word_length(g) for g in result.elements) == 14
