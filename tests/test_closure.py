import sys
from concurrent.futures import ThreadPoolExecutor
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
    return G.make_element(G.zpower(1), (v,))


def test_closure_z_2_3():
    result = closure([z_el(2), z_el(3)], ClosureBudget(radius=10))
    assert {g.payload[0] for g in result.elements} == set(range(2, 11))
    assert result.exhausted


def test_closure_z_includes_derived_identity():
    result = closure([z_el(1), z_el(-1)], ClosureBudget(radius=3))
    assert {g.payload[0] for g in result.elements} == set(range(-3, 4))
    assert result.exhausted


def test_closure_free_monoid_single_letter():
    f2 = G.free(2)
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
    f2 = G.free(2)
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
        desc = G.cyclic(m)
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
    (G.zpower(1), [(3,), (-2,)], 8),
    (G.zpower(2), [(1, 1), (0, -1)], 5),
    (G.cyclic(12), [1, 7], 6),
    (G.free(2), [(1,), (2,), (-1,), (1, 2)], 4),
    (G.heisenberg(), [(1, 0, 0), (0, -1, 0), (-1, 0, 0)], 4),
    (G.lamplighter_z(), [(1, ()), (-1, (0,)), (0, (0,))], 4),
], ids=lambda v: str(v)[:24])
def test_semigroup_property_at_exhaustion(descriptor, gen_payloads, radius):
    gens = [G.GroupElement(descriptor, G.canonicalize_payload(descriptor, p))
            for p in gen_payloads]
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
    (G.zpower(1), 12), (G.zpower(2), 6), (G.zpower(3), 4),
    (G.cyclic(5), 3), (G.cyclic(12), 6),
    (G.free(2), 4), (G.heisenberg(), 5), (G.lamplighter_z(), 6),
    (G.free(5), 4), (G.free(3), 4), (G.heisenberg(), 6), (G.zpower(2), 20),
]


@pytest.mark.parametrize("cap", [None, "max_elements", "max_products"])
@pytest.mark.parametrize("descriptor,max_radius", TABLE_CASES, ids=str)
def test_table_engine_replays_worklist(descriptor, max_radius, cap):
    """closure() replays the element worklist of tests/oracles.py, which
    tries every pair from both sides: elements, exhausted and product count
    agree on walk tails, with no cap or with a small cap that stops some
    runs, whether or not the ball memoises products."""
    mu = uniform_standard_measure(descriptor)
    truncated = []

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

    check()
    assert any(truncated) == (cap is not None)


@pytest.mark.parametrize("seed,products,kept,muls", [
    (28, 180_172, 310, 96_410), (30, 640_372, 572, 327_756)])
def test_exhausted_closure_multiplies_each_pair_once(monkeypatch, seed,
                                                     products, kept, muls):
    """The heavy F_5, r = 4, 200-step tail closures count two products per
    partner visit but multiply each unordered pair once: k(k+1) calls of
    mul for k elements, about half the products counted."""
    monkeypatch.setattr(C, "_STORES", {})
    tail = generate_walk(uniform_standard_measure(G.free(5)), 200,
                         seed=seed).positions
    calls = []
    mul = G.Free.mul
    monkeypatch.setattr(G.Free, "mul",
                        lambda self, p, q: calls.append(1) or mul(self, p, q))
    result = closure(tail, ClosureBudget(radius=4))
    k = len(result.elements)
    assert result.exhausted
    assert (result.products_performed, k) == (products, kept)
    assert len(calls) == k * (k + 1) == muls


def test_store_is_shared_across_threads(monkeypatch):
    """Three threads closing Heisenberg and F_5 tails into empty stores get
    the one-thread results, and every payload keeps one id."""
    budget = ClosureBudget(radius=4)
    tails = [list(generate_walk(uniform_standard_measure(d), 60, seed=s)
                  .positions)
             for d, s in [(G.heisenberg(), 1), (G.heisenberg(), 2),
                          (G.free(5), 30), (G.free(5), 3), (G.heisenberg(), 3),
                          (G.free(5), 28)]]

    def run_all(threads):
        monkeypatch.setattr(C, "_STORES", {})
        with ThreadPoolExecutor(threads) as pool:
            futures = [pool.submit(closure, t, budget) for t in tails]
            results = [f.result(timeout=120) for f in futures]
        return results, dict(C._STORES)

    one, _ = run_all(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        three, stores = run_all(3)
    finally:
        sys.setswitchinterval(interval)
    assert [(r.elements, r.exhausted, r.products_performed) for r in three] \
        == [(r.elements, r.exhausted, r.products_performed) for r in one]
    assert len(stores) == 2
    for store in stores.values():
        assert len(store.ids) == len(store.payloads) == len(store.keys)
        assert all(store.ids[p] == i for i, p in enumerate(store.payloads))
        assert store.keys == [store.desc.format(p) for p in store.payloads]


def full_inversion_report(trace, n, budget):
    """The witness report that closes the whole tail and inverts every
    position, however long."""
    tail = list(trace.positions[n - 1:])
    result = closure(tail, budget, generator_range=(n, len(trace)))
    return InverseWitnessReport(result, tuple(
        WitnessRow(i, contains(result, G.invert(x)),
                   G.word_length_within(x, budget.radius))
        for i, x in enumerate(tail, start=n)))


WITNESS_CASES = [(G.zpower(2), 4), (G.free(2), 3), (G.free(5), 3),
                 (G.heisenberg(), 3), (G.lamplighter_z(), 3), (G.cyclic(12), 4)]


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
        assert report == full_inversion_report(trace, n, budget)
        exhausted.add(report.closure_result.exhausted)
        outside.update(r.position_length is None for r in report.rows)

    check()
    assert (False in exhausted) == (cap is not None)
    assert outside == {True, False}


def test_witness_report_torsion_all_present():
    c6 = G.cyclic(6)
    incs = [G.GroupElement(c6, 1), G.GroupElement(c6, 4)]  # positions 1, 5
    trace = trace_from_increments(c6, 0, incs)
    report = inverse_witness_report(trace, 1, ClosureBudget(radius=3))
    assert {x.payload for x in trace.positions} == {1, 5}
    assert report.present == len(report.rows)
    assert report.present_fraction == 1


def test_witness_report_z_both_signs_present():
    z = G.zpower(1)
    incs = [z_el(1), z_el(1), z_el(-1), z_el(-1), z_el(-1)]
    trace = trace_from_increments(z, 0, incs)
    assert [x.payload[0] for x in trace.positions] == [1, 2, 1, 0, -1]
    report = inverse_witness_report(trace, 1, ClosureBudget(radius=5))
    assert report.present == 5
    assert report.present_fraction == 1


def test_witness_report_free_group_completes():
    mu = uniform_standard_measure(G.free(5))
    trace = generate_walk(mu, 50, seed=3)
    report = inverse_witness_report(trace, 1, ClosureBudget(radius=6))
    assert len(report.rows) == 50
    assert report.present + report.absent + report.unknown == 50
    assert 0 <= report.present_fraction <= 1
    assert report.unknown > 0  # long positions fall outside the ball


def test_witness_report_tail_index():
    z = G.zpower(1)
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
        closure([z_el(1), G.identity(G.zpower(2))], ClosureBudget(radius=3))


def test_closure_radius_capped_for_bfs_groups():
    with pytest.raises(ValueError):
        closure([G.identity(G.heisenberg())], ClosureBudget(radius=40))
