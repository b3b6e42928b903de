from fractions import Fraction

import pytest

from algrec import groups as G
from algrec.closure import ClosureBudget, closure, coverage_fraction
from algrec.measures import (
    heavy_tail_measure_z2,
    make_measure,
    uniform_standard_measure,
)
from conftest import SMALL_DESCRIPTORS


def support_coverage(measure, radius):
    """Fraction of ball(radius) that products of the support reach."""
    result = closure(measure.support, ClosureBudget(radius=radius))
    return coverage_fraction(result, radius)


def test_uniform_free5():
    mu = uniform_standard_measure(G.Free(5))
    assert len(mu.atoms) == 10
    assert all(w == Fraction(1, 10) for _, w in mu.atoms)


def test_uniform_z1():
    mu = uniform_standard_measure(G.ZPower(1))
    weights = {g.payload[0]: w for g, w in mu.atoms}
    assert weights == {1: Fraction(1, 2), -1: Fraction(1, 2)}


def test_uniform_heisenberg():
    mu = uniform_standard_measure(G.Heisenberg())
    assert len(mu.atoms) == 4
    assert all(w == Fraction(1, 4) for _, w in mu.atoms)


def test_heavy_tail_single_cutoff():
    mu = heavy_tail_measure_z2(1.5, 1, Fraction(1, 2))
    weights = {g.payload: w for g, w in mu.atoms}
    assert weights == {(1, 1): Fraction(1, 4), (-1, -1): Fraction(1, 4),
                       (1, -1): Fraction(1, 4), (-1, 1): Fraction(1, 4)}


def test_heavy_tail_quadratic_profile():
    mu = heavy_tail_measure_z2(2, 2, Fraction(1, 5))
    weights = {g.payload: w for g, w in mu.atoms}
    assert weights[(1, 1)] == 4 * weights[(2, 2)]
    diagonal = weights[(1, 1)] + weights[(-1, -1)] + weights[(2, 2)] + weights[(-2, -2)]
    assert diagonal == Fraction(4, 5)
    assert weights[(1, -1)] == weights[(-1, 1)] == Fraction(1, 10)


def test_heavy_tail_always_symmetric():
    for alpha, cutoff in [(1.3, 3), (2, 5), (3.7, 2)]:
        mu = heavy_tail_measure_z2(alpha, cutoff, Fraction(1, 7))
        assert mu.first_asymmetric_atom is None
        assert sum(w for _, w in mu.atoms) == 1


def test_heavy_tail_rejects_bad_alpha():
    with pytest.raises(ValueError):
        heavy_tail_measure_z2(1, 3, Fraction(1, 2))


def test_validate_uniform_free2():
    mu = uniform_standard_measure(G.Free(2))
    assert mu.first_asymmetric_atom is None
    assert support_coverage(mu, 2) == 1


def test_validate_flags_asymmetric_atom():
    z = G.ZPower(1)
    mu = make_measure(z, [(G.make_element(z, (1,)), Fraction(2, 3)),
                          (G.make_element(z, (-1,)), Fraction(1, 3))])
    assert mu.first_asymmetric_atom.payload in ((1,), (-1,))


def test_validate_even_support_misses_ball():
    z = G.ZPower(1)
    mu = make_measure(z, [(G.make_element(z, (2,)), Fraction(1, 2)),
                          (G.make_element(z, (-2,)), Fraction(1, 2))])
    assert mu.first_asymmetric_atom is None
    result = closure(mu.support, ClosureBudget(radius=3))
    assert result.exhausted
    assert {g.payload[0] for g in result.elements} == {-2, 0, 2}
    assert support_coverage(mu, 3) == Fraction(3, 7)


def test_make_measure_rejects_bad_weights():
    z = G.ZPower(1)
    one = G.make_element(z, (1,))
    with pytest.raises(ValueError):
        make_measure(z, [(one, Fraction(1, 2))])
    with pytest.raises(ValueError):
        make_measure(z, [(one, Fraction(-1, 2)),
                         (G.make_element(z, (-1,)), Fraction(3, 2))])


def test_make_measure_merges_duplicates():
    z = G.ZPower(1)
    one = G.make_element(z, (1,))
    neg = G.make_element(z, (-1,))
    mu = make_measure(z, [(one, Fraction(1, 4)), (one, Fraction(1, 4)),
                          (neg, Fraction(1, 2))])
    assert len(mu.atoms) == 2
    assert mu.weight_by_element[one] == Fraction(1, 2)


@pytest.mark.parametrize("descriptor", SMALL_DESCRIPTORS, ids=str)
def test_uniform_measures_validate(descriptor):
    mu = uniform_standard_measure(descriptor)
    assert mu.first_asymmetric_atom is None
    assert support_coverage(mu, 2) == 1


def test_atoms_sorted_canonically():
    mu = uniform_standard_measure(G.Free(2))
    keys = [G.canonical_key(g) for g, _ in mu.atoms]
    assert keys == sorted(keys)
