from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from algrec import groups as G
from algrec.identities import (
    ZInverseCertificate,
    nilpotent_identity_grid,
    torsion_inverse_witness,
    z_inverse_witness,
)
from oracles import nilpotent_identity_check


def test_nilpotent_identity_uncorrected_exponents():
    res = nilpotent_identity_check(0, 0, 0, 0, 2, 3)
    assert (res.exponent_pos, res.exponent_neg, res.holds) == (6, -6, True)


def test_nilpotent_identity_zero_correction():
    res = nilpotent_identity_check(1, 0, -1, 0, 1, 1)
    assert (res.exponent_pos, res.exponent_neg, res.holds) == (1, -1, True)


def test_nilpotent_identity_derived_case():
    res = nilpotent_identity_check(1, 2, 3, 4, 5, 7)
    assert (res.exponent_pos, res.exponent_neg, res.holds) == (97, 27, True)


def test_grid_agrees_with_pointwise():
    """The grid's rows are exactly the element-level check of every case,
    in (k1, k2, k3, k4, n, m) order: on a symmetric grid, and on one with
    unsorted, repeated k values and different n and m ranges, where a power
    table taken for the wrong k or the wrong length would show."""
    grid = nilpotent_identity_grid(range(-2, 3), range(1, 4), range(1, 4))
    assert grid.cases == 5 ** 4 * 9
    assert grid.all_hold
    for ks, ns, ms in [(range(-2, 3), range(1, 4), range(1, 4)),
                       ([2, -3, 0, 2], [4, 1], [1, 5, 2])]:
        expected = []
        for case in product(*[sorted(set(ks))] * 4, sorted(set(ns)),
                            sorted(set(ms))):
            res = nilpotent_identity_check(*case)
            expected.append((*case, res.exponent_pos, res.exponent_neg,
                             res.holds))
        assert nilpotent_identity_grid(ks, ns, ms).rows == tuple(expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
       st.integers(-5, 5), st.integers(1, 8), st.integers(1, 8))
def test_nilpotent_identity_holds_everywhere(k1, k2, k3, k4, n, m):
    assert nilpotent_identity_check(k1, k2, k3, k4, n, m).holds


def test_torsion_witness_cyclic6():
    c6 = G.CyclicZ(6)
    found = torsion_inverse_witness(G.GroupElement(c6, 2),
                                    G.GroupElement(c6, 1), 10)
    assert found.k == 2
    assert found.witness.payload == 4
    assert found.witness == G.invert(G.GroupElement(c6, 2))


def test_torsion_witness_immediate_identity():
    c5 = G.CyclicZ(5)
    found = torsion_inverse_witness(G.GroupElement(c5, 3),
                                    G.GroupElement(c5, 2), 10)
    assert found.k == 1
    assert found.witness.payload == 2


def test_torsion_witness_lamplighter():
    ll = G.LamplighterZ()
    x = G.make_element(ll, (0, [0]))
    y = G.make_element(ll, (0, [1]))
    found = torsion_inverse_witness(x, y, 10)
    assert found.k == 2
    assert found.witness == G.make_element(ll, (0, [0]))
    assert G.multiply(found.witness, x) == G.identity(ll)


def test_torsion_witness_absent_in_z():
    z = G.ZPower(1)
    x = G.make_element(z, (1,))
    y = G.make_element(z, (2,))
    assert torsion_inverse_witness(x, y, 50) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 23), st.integers(0, 22), st.integers(0, 22))
def test_torsion_witness_recovers_inverse_in_cyclic(m_raw, x_raw, y_off):
    m = m_raw + 1
    c = G.CyclicZ(m)
    x = G.GroupElement(c, x_raw % m)
    y = G.GroupElement(c, (-x_raw + y_off) % m)
    found = torsion_inverse_witness(x, y, max_k=2 * m)
    assert found is not None  # every element of a finite group has finite order
    assert found.witness == G.invert(x)


def test_z_inverse_witness_basic_multiplicities():
    cert = z_inverse_witness(3, -2)
    assert (cert.y_copies, cert.x_copies) == (3, 1)
    assert cert.combination_value == -3


def test_z_inverse_witness_degenerate():
    cert = z_inverse_witness(1, -1)
    assert (cert.y_copies, cert.x_copies) == (1, 0)
    assert cert.combination_value == -1


def test_z_inverse_witness_derived():
    cert = z_inverse_witness(7, -5)
    assert (cert.y_copies, cert.x_copies) == (7, 4)
    assert cert.combination_value == -7


def test_z_inverse_witness_negative_x():
    cert = z_inverse_witness(-4, 3)
    assert (cert.y_copies, cert.x_copies) == (4, 2)
    assert cert.combination_value == 4


@pytest.mark.parametrize("x,y", [(0, -1), (3, 0), (3, 2), (-3, -2)])
def test_z_inverse_witness_rejects_bad_signs(x, y):
    with pytest.raises(ValueError):
        z_inverse_witness(x, y)


def test_z_inverse_witness_full_range():
    for x in range(1, 101):
        for y in range(-100, 0):
            assert z_inverse_witness(x, y).combination_value == -x


def test_z_inverse_witness_rejects_a_tampered_certificate(monkeypatch):
    # A combination off by one no longer sums to -x, and the check raises.
    value = ZInverseCertificate.combination_value.fget
    monkeypatch.setattr(ZInverseCertificate, "combination_value",
                        property(lambda cert: value(cert) + 1))
    with pytest.raises(ArithmeticError, match="does not sum to -x"):
        z_inverse_witness(3, -2)
