import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from algrec import groups as G
from conftest import SMALL_DESCRIPTORS, ball_elements, elements, generator_words
from oracles import (
    heisenberg_ball_size_box,
    heisenberg_to_matrix,
    mat_mul,
    matrix_to_heisenberg,
)


def test_identity_examples():
    assert G.identity(G.ZPower(2)).payload == (0, 0)
    assert G.identity(G.Free(3)).payload == ()
    assert G.identity(G.LamplighterZ()).payload == (0, ())


def test_lamplighter_product_example():
    ll = G.LamplighterZ()
    a = G.make_element(ll, (1, [0]))
    b = G.make_element(ll, (-1, [0]))
    assert G.multiply(a, b).payload == (0, (0, 1))
    move = G.make_element(ll, (3, []))  # lights no lamp
    c = G.make_element(ll, (2, [0, 5]))
    assert G.multiply(c, move).payload == (5, (0, 5))
    assert G.multiply(move, c).payload == (5, (3, 8))


def test_free_product_cancels():
    f2 = G.Free(2)
    prod = G.multiply(G.make_element(f2, [1, 2]), G.make_element(f2, [-2, 1]))
    assert prod.payload == (1, 1)


def test_heisenberg_product_matches_matrix_oracle():
    h = G.Heisenberg()
    x = G.GroupElement(h, (1, 0, 0))
    y = G.GroupElement(h, (0, 1, 0))
    assert G.multiply(x, y).payload == (1, 1, 1)


def test_invert_examples():
    assert G.invert(G.make_element(G.ZPower(3), (1, -2, 5))).payload == (-1, 2, -5)
    assert G.invert(G.make_element(G.Free(2), [1, -2, 1])).payload == (-1, 2, -1)
    h = G.Heisenberg()
    inv = G.invert(G.GroupElement(h, (1, 1, 1)))
    assert inv.payload == (-1, -1, 0)
    assert G.multiply(G.GroupElement(h, (1, 1, 1)), inv) == G.identity(h)


def test_word_length_examples():
    assert G.word_length(G.make_element(G.ZPower(2), (3, -4))) == 7
    assert G.word_length(G.make_element(G.Free(5), [1, 2, -1])) == 3
    assert G.word_length(G.GroupElement(G.CyclicZ(12), 7)) == 5
    z = G.GroupElement(G.Heisenberg(), (0, 0, 1))
    assert G.word_length(z) == 4


def test_word_length_has_no_cap():
    far = G.GroupElement(G.Heisenberg(), (100, 100, 0))
    assert G.word_length(far) == 200
    assert G.word_length_within(far, 4) is None


def test_commutator_examples():
    def commutator(a, b):  # [a, b] = a^-1 b^-1 a b
        return G.multiply(G.multiply(G.invert(a), G.invert(b)), G.multiply(a, b))

    h = G.Heisenberg()
    a, b = G.GroupElement(h, (1, 0, 0)), G.GroupElement(h, (0, 1, 0))
    assert commutator(a, b).payload == (0, 0, 1)
    z2 = G.ZPower(2)
    assert commutator(G.make_element(z2, (1, 0)),
                      G.make_element(z2, (0, 1))) == G.identity(z2)
    f2 = G.Free(2)
    assert commutator(G.make_element(f2, [1]),
                      G.make_element(f2, [2])).payload == (-1, -2, 1, 2)


def test_descriptor_mismatch_raises():
    with pytest.raises(G.DescriptorMismatchError):
        G.multiply(G.identity(G.ZPower(1)), G.identity(G.ZPower(2)))


def test_descriptor_validation():
    with pytest.raises(ValueError):
        G.Free(1)
    with pytest.raises(ValueError):
        G.ZPower(0)
    with pytest.raises(ValueError):
        G.CyclicZ(0)


@pytest.mark.parametrize("descriptor", SMALL_DESCRIPTORS, ids=str)
def test_associativity_exhaustive_radius2(descriptor):
    ball = ball_elements(descriptor, 2)
    # Free(5) has a large radius-2 ball; spot-check it on a slice instead.
    if len(ball) > 30:
        ball = ball[::7]
    for g, h, k in itertools.product(ball, repeat=3):
        assert G.multiply(G.multiply(g, h), k) == G.multiply(g, G.multiply(h, k))


@pytest.mark.parametrize("descriptor", SMALL_DESCRIPTORS, ids=str)
def test_inverse_law(descriptor):
    @settings(max_examples=40, deadline=None)
    @given(elements(descriptor))
    def check(g):
        e = G.identity(descriptor)
        assert G.multiply(g, G.invert(g)) == e
        assert G.multiply(G.invert(g), g) == e

    check()


@pytest.mark.parametrize("descriptor", SMALL_DESCRIPTORS, ids=str)
def test_associativity_random(descriptor):
    @settings(max_examples=40, deadline=None)
    @given(generator_words(descriptor, 6), generator_words(descriptor, 6),
           generator_words(descriptor, 6))
    def check(g, h, k):
        assert G.multiply(G.multiply(g, h), k) == G.multiply(g, G.multiply(h, k))

    check()


@pytest.mark.parametrize("descriptor", SMALL_DESCRIPTORS, ids=str)
def test_canonical_idempotence(descriptor):
    @settings(max_examples=40, deadline=None)
    @given(elements(descriptor))
    def check(g):
        once = descriptor.canonicalize(g.payload)
        assert once == g.payload
        assert descriptor.canonicalize(once) == once

    check()


def test_free_payloads_always_reduced():
    f2 = G.Free(2)

    @settings(max_examples=80, deadline=None)
    @given(elements(f2, 8), elements(f2, 8))
    def check(u, v):
        w = G.multiply(u, v).payload
        assert all(a != -b for a, b in zip(w, w[1:]))

    check()


@pytest.mark.parametrize("descriptor", [G.Free(d) for d in range(2, 6)],
                         ids=str)
def test_mul_within_is_the_product_inside_the_radius(descriptor):
    """Free's length-first mul_within(p, q, r) is mul(p, q) when its length
    is <= r, else None."""
    ident = G.identity(descriptor)

    @settings(max_examples=150, deadline=None)
    @given(elements(descriptor, 8), elements(descriptor, 8), st.integers(0, 8))
    @example(ident, ident, 0)
    @example(ident, G.standard_generators(descriptor)[0], 0)
    def check(u, v, radius):
        p, q = u.payload, v.payload
        pq = descriptor.mul(p, q)
        inside = descriptor.length(pq) <= radius
        assert descriptor.mul_within(p, q, radius) == (pq if inside else None)

    check()


def test_heisenberg_matrix_oracle_on_generator_products():
    h = G.Heisenberg()

    @settings(max_examples=120, deadline=None)
    @given(generator_words(h, 8))
    def check(g):
        assert matrix_to_heisenberg(heisenberg_to_matrix(g)) == g

    check()

    @settings(max_examples=120, deadline=None)
    @given(generator_words(h, 8), generator_words(h, 8))
    def check_product(g1, g2):
        direct = G.multiply(g1, g2)
        via_matrices = matrix_to_heisenberg(
            mat_mul(heisenberg_to_matrix(g1), heisenberg_to_matrix(g2)))
        assert direct == via_matrices

    check_product()


@pytest.mark.parametrize("descriptor", SMALL_DESCRIPTORS, ids=str)
def test_homomorphism_property_exhaustive_radius2(descriptor):
    image = descriptor.abelian_image
    ball = [g.payload for g in ball_elements(descriptor, 2)]
    for p, q in itertools.product(ball, repeat=2):
        assert image(descriptor.mul(p, q)) == tuple(
            x + y for x, y in zip(image(p), image(q), strict=True))


@pytest.mark.parametrize("descriptor", SMALL_DESCRIPTORS, ids=str)
def test_abelian_image_of_a_generator_is_a_unit_vector_or_zero(descriptor):
    for s in G.standard_generators(descriptor):
        image = descriptor.abelian_image(s.payload)
        assert sorted(map(abs, image)) in (
            [0] * len(image), [0] * (len(image) - 1) + [1])


def test_homomorphism_examples():
    assert G.LamplighterZ().abelian_image((3, (0, 2))) == (3,)
    f2 = G.Free(2)
    word = G.make_element(f2, [1, 2, -1])
    assert f2.abelian_image(word.payload) == (0, 1)
    assert G.ZPower(2).abelian_image((3, -4)) == (3, -4)
    assert G.Heisenberg().abelian_image((2, -1, 5)) == (2, -1)
    assert G.CyclicZ(4).abelian_image(3) == ()


@pytest.mark.parametrize("descriptor", SMALL_DESCRIPTORS, ids=str)
def test_text_roundtrip(descriptor):
    @settings(max_examples=60, deadline=None)
    @given(elements(descriptor))
    def check(g):
        text = G.format_element(g)
        assert G.parse_element(descriptor, text) == g

    check()


def test_text_format_examples():
    assert G.format_element(G.make_element(G.ZPower(2), (3, -4))) == "(3,-4)"
    f2 = G.Free(2)
    assert G.format_element(G.make_element(f2, [1, 2, -1])) == "x1 x2 X1"
    assert G.format_element(G.identity(f2)) == "e"
    assert G.format_element(G.GroupElement(G.Heisenberg(), (1, 2, 3))) == "H(1,2,3)"
    ll = G.LamplighterZ()
    assert G.format_element(G.make_element(ll, (3, [0, 2]))) == "L(3;{0,2})"
    assert G.format_element(G.identity(ll)) == "L(0;{})"
    assert G.format_element(G.GroupElement(G.CyclicZ(12), 5)) == "5 mod 12"


def test_descriptor_text_roundtrip():
    for descriptor in SMALL_DESCRIPTORS:
        assert G.parse_descriptor(str(descriptor)) == descriptor
    with pytest.raises(ValueError):
        G.parse_descriptor("Free(1)")
    with pytest.raises(ValueError):
        G.parse_descriptor("Quaternion")


@pytest.mark.parametrize("call, args, message", [
    (G.parse_descriptor, ("ZPower(2",),
     "malformed group descriptor 'ZPower(2'"),
    (G.parse_descriptor, ("Heisenberg(3)",),
     "group 'Heisenberg' takes no parameter"),
    (G.parse_descriptor, ("ZPower",),
     "group 'ZPower' needs an integer parameter"),
    (G.parse_element, (G.ZPower(2), "(1,2,3)"),
     "cannot parse '(1,2,3)' as ZPower(2) element: expected 2 coordinates"),
    (G.parse_element, (G.ZPower(2), "1,2"),
     "cannot parse '1,2' as ZPower(2) element: expected (c1,...,cd)"),
    (G.parse_element, (G.Free(2), "x3"), "cannot parse 'x3' as Free(2) "
     "element: letter 3 outside alphabet of rank 2"),
    (G.parse_element, (G.Free(2), "y1"),
     "cannot parse 'y1' as Free(2) element: bad letter token 'y1'"),
    (G.parse_element, (G.Free(2), "x1 X1"),
     "cannot parse 'x1 X1' as Free(2) element: word is not reduced"),
    (G.parse_element, (G.Heisenberg(), "(1,2,3)"),
     "cannot parse '(1,2,3)' as Heisenberg element: expected H(a,b,c)"),
    (G.parse_element, (G.LamplighterZ(), "(1;{})"), "cannot parse '(1;{})' "
     "as LamplighterZ element: expected L(x;{s1,...})"),
    (G.parse_element, (G.LamplighterZ(), "L(1;0})"), "cannot parse 'L(1;0})' "
     "as LamplighterZ element: expected lamp support in braces"),
    (G.parse_element, (G.LamplighterZ(), "L(1;{2,1})"),
     "cannot parse 'L(1;{2,1})' as LamplighterZ element: "
     "lamp support must be sorted and duplicate-free"),
    (G.parse_element, (G.CyclicZ(12), "3 mod 5"),
     "cannot parse '3 mod 5' as CyclicZ(12) element: expected 'r mod m'"),
    (G.parse_element, (G.CyclicZ(12), "13 mod 12"),
     "cannot parse '13 mod 12' as CyclicZ(12) element: residue out of range"),
    (G.ball_size, (G.ZPower(1), -1), "radius must be >= 0"),
    (G.ball_distances, (G.ZPower(1), -1), "radius must be >= 0"),
], ids=["descriptor-unclosed", "descriptor-extra-parameter",
        "descriptor-no-parameter", "zpower-arity", "zpower-no-parens",
        "free-letter-outside-rank", "free-bad-token", "free-unreduced",
        "heisenberg-no-h", "lamplighter-no-l", "lamplighter-no-braces",
        "lamplighter-unsorted", "cyclic-other-modulus", "cyclic-residue",
        "ball-size-radius", "ball-distances-radius"])
def test_malformed_input_raises_its_own_message(call, args, message):
    with pytest.raises(ValueError) as err:
        call(*args)
    assert str(err.value) == message


def test_ball_sizes_against_bfs():
    for descriptor in (G.ZPower(1), G.ZPower(2), G.Free(2), G.CyclicZ(6)):
        for radius in range(0, 4):
            assert G.ball_size(descriptor, radius) == \
                len(G.ball_distances(descriptor, radius))
    for descriptor in (G.Heisenberg(), G.LamplighterZ()):
        for radius in range(0, 13):
            assert G.ball_size(descriptor, radius) == \
                len(G.ball_distances(descriptor, radius))


def test_heisenberg_ball_size_matches_the_box_count():
    h = G.Heisenberg()
    assert [h.ball_size(r) for r in range(25)] == \
        [heisenberg_ball_size_box(r) for r in range(25)]


@pytest.mark.parametrize("descriptor", [G.Heisenberg(), G.LamplighterZ()],
                         ids=str)
def test_closed_form_lengths_match_bfs(descriptor):
    ball = G.ball_distances(descriptor, 14)
    assert len(ball) == descriptor.ball_size(14)
    assert all(descriptor.length(p) == n for p, n in ball.items())


def _far_heisenberg():
    big = st.integers(-60, 60)
    return st.tuples(big, big, st.integers(-2000, 2000)).map(
        lambda t: G.GroupElement(G.Heisenberg(), t))


def _far_lamplighter():
    cells = st.integers(-40, 40)
    return st.tuples(cells, st.sets(cells, max_size=40)).map(
        lambda t: G.make_element(G.LamplighterZ(), t))


@pytest.mark.parametrize("descriptor, far", [
    (G.Heisenberg(), _far_heisenberg()),
    (G.LamplighterZ(), _far_lamplighter()),
], ids=["Heisenberg", "LamplighterZ"])
def test_closed_form_length_descends_far_outside_the_bfs(descriptor, far):
    """A function that is 0 only at e, moves by exactly one along each
    generator and drops by one along some generator away from e is the word
    length: it is 1-Lipschitz from e, and a descent reaches e in that many
    steps. Checked on elements far past any BFS ball."""
    gens = descriptor.generator_payloads
    e = descriptor.identity_payload

    @settings(max_examples=300, deadline=None)
    @given(far)
    @example(G.identity(descriptor))
    def check(g):
        p, n = g.payload, descriptor.length(g.payload)
        assert (n == 0) == (p == e)
        steps = [descriptor.length(descriptor.mul(p, s)) - n for s in gens]
        assert set(steps) <= {-1, 1}
        assert -1 in steps or p == e

    check()


def test_standard_generator_counts():
    assert len(G.standard_generators(G.ZPower(2))) == 4
    assert len(G.standard_generators(G.Free(5))) == 10
    assert len(G.standard_generators(G.Heisenberg())) == 4
    assert len(G.standard_generators(G.LamplighterZ())) == 3
    assert len(G.standard_generators(G.CyclicZ(6))) == 2
    assert len(G.standard_generators(G.CyclicZ(2))) == 1
