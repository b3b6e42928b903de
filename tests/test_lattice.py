import hashlib
import itertools
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from algrec.lattice import (
    FULL,
    IN_HALF_SPACE,
    IN_PROPER_SUBGROUP,
    HalfSpaceWitness,
    ZeroInHullWitness,
    _check_normal,
    _column_echelon,
    _conic_solution,
    _lift_normal,
    _positive_certificate,
    _span_coordinates,
    _verify_certificate,
    classify_subsemigroup,
    smith_normal_form,
    subgroup_index,
    zero_in_convex_hull,
)
from oracles import (
    GridClosure,
    integer_determinant,
    separator_normals,
    subset_conic_solution,
)


def mat_mul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(len(y)))
             for j in range(len(y[0]))] for i in range(len(x))]


def check_snf(rows):
    snf = smith_normal_form(rows)
    n, d = len(rows), len(rows[0])
    product = mat_mul(mat_mul([list(r) for r in snf.left], [list(r) for r in rows]),
                      [list(r) for r in snf.right])
    expected = [[snf.diagonal[i] if i == j and i < len(snf.diagonal) else 0
                 for j in range(d)] for i in range(n)]
    assert product == expected
    assert abs(integer_determinant(snf.left)) == 1
    assert abs(integer_determinant(snf.right)) == 1
    nonzero = [x for x in snf.diagonal if x]
    assert all(x > 0 for x in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert list(snf.diagonal) == nonzero + [0] * (len(snf.diagonal) - len(nonzero))
    return snf


def test_subgroup_index_examples():
    report = subgroup_index([(2, 0), (0, 2)])
    assert (report.rank, report.smith_diagonal, report.index) == (2, (2, 2), 4)
    assert subgroup_index([(1, 0), (0, 1)]).index == 1
    collinear = subgroup_index([(2, 4), (1, 2)])
    assert collinear.rank == 1
    assert collinear.index is None


def test_snf_fixed_cases():
    check_snf([[0]])
    check_snf([[5]])
    check_snf([[2, 4, 4]])
    check_snf([[2, 0], [0, 2]])
    check_snf([[1, 2], [3, 4]])
    check_snf([[6, 4], [4, 6], [0, 0]])
    check_snf([[0, 0], [0, 0]])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10 ** 6))
def test_snf_random_matrices(n, d, seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(n)]
    check_snf(rows)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(st.integers(-9, 9), min_size=d, max_size=d),
    min_size=1, max_size=4)))
def test_snf_diagonal_matches_sympy(rows):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    expected = sympy_snf(Matrix(rows), domain=ZZ)
    k = min(len(rows), len(rows[0]))
    assert smith_normal_form(rows).diagonal == tuple(
        abs(expected[i, i]) for i in range(k))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.lists(st.lists(st.integers(-6, 6), min_size=d, max_size=d),
             min_size=1, max_size=7),
    st.lists(st.integers(0, 6), max_size=3),
    st.integers(0, 2),
    st.randoms(use_true_random=False))))
def test_subgroup_index_diagonal_matches_smith_form(case):
    # The report is taken on a basis of the lattice; padded with zeros, its
    # diagonal is the Smith diagonal of all the rows, zero and repeated ones
    # included.
    rows, repeats, zeros, rng = case
    d = len(rows[0])
    rows = rows + [rows[i % len(rows)] for i in repeats] + [[0] * d] * zeros
    rng.shuffle(rows)
    assert subgroup_index(rows).smith_diagonal == \
        smith_normal_form(rows).diagonal


def test_determinant_matches_numpy_on_small_ints():
    rng = random.Random(7)
    import numpy as np
    for _ in range(100):
        n = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert integer_determinant(m) == round(np.linalg.det(np.array(m, dtype=float)))


def test_hull_quadrant():
    witness = zero_in_convex_hull([(1, 0), (0, 1)])
    assert isinstance(witness, HalfSpaceWitness)
    assert witness.normal == (1, 1)


def test_hull_symmetric_triple():
    witness = zero_in_convex_hull([(1, 0), (0, 1), (-1, -1)])
    assert isinstance(witness, ZeroInHullWitness)
    assert witness.points == ((1, 0), (0, 1), (-1, -1))
    assert witness.coefficients == (1, 1, 1)


def test_hull_dimension_one():
    witness = zero_in_convex_hull([(2,), (-3,)])
    assert isinstance(witness, ZeroInHullWitness)
    assert witness.points == ((2,), (-3,))
    assert witness.coefficients == (3, 2)


def test_hull_boundary_cases_are_half_spaces():
    # Sets inside a hyperplane through 0 count as (weakly) trapped.
    w = zero_in_convex_hull([(1, 0), (-1, 0)])
    assert isinstance(w, HalfSpaceWitness)
    assert all(x * w.normal[0] + y * w.normal[1] == 0 for x, y in [(1, 0), (-1, 0)])
    w2 = zero_in_convex_hull([(1, 0), (-1, 0), (0, 1)])
    assert isinstance(w2, HalfSpaceWitness)


def test_hull_cross_needs_four_points():
    # No 3-point certificate exists for the coordinate cross.
    witness = zero_in_convex_hull([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert isinstance(witness, ZeroInHullWitness)
    assert len(witness.points) == 4


def test_certificate_check_raises_on_a_set_that_does_not_span():
    witness = ZeroInHullWitness(((1, 0), (-1, 0)), (1, 1))
    with pytest.raises(ArithmeticError, match="does not span"):
        _verify_certificate(witness, 2)


CROSS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def test_certificate_check_raises_on_a_nonpositive_coefficient():
    witness = zero_in_convex_hull(CROSS)
    _verify_certificate(witness, 2)
    tampered = replace(witness, coefficients=(0, *witness.coefficients[1:]))
    with pytest.raises(ArithmeticError, match="nonpositive coefficient"):
        _verify_certificate(tampered, 2)


def test_certificate_check_raises_on_a_combination_off_zero():
    witness = zero_in_convex_hull(CROSS)
    t0, *rest = witness.coefficients
    tampered = replace(witness, coefficients=(t0 + 1, *rest))
    with pytest.raises(ArithmeticError, match="does not sum to zero"):
        _verify_certificate(tampered, 2)


def test_lift_raises_on_a_dependent_basis():
    basis, _ = _span_coordinates([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert _lift_normal(basis, (1, 1)) == (1, 1, 0)
    dependent = [basis[0], tuple(2 * x for x in basis[0])]
    with pytest.raises(ArithmeticError, match="Gram matrix of a basis is singular"):
        _lift_normal(dependent, (1, 1))


def test_normal_check_raises_on_a_vector_below_or_a_zero_normal():
    _check_normal((1, 1), [(1, 0), (-1, 1)])
    with pytest.raises(ArithmeticError, match="does not bound"):
        _check_normal((1, 0), [(1, 0), (-1, 1)])
    with pytest.raises(ArithmeticError, match="does not bound"):
        _check_normal((0, 0), [(1, 0)])


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _certificate_target(vecs, d):
    # The target _positive_certificate solves for: minus the sum of the
    # first independent vectors.
    basis = _column_echelon(vecs)[1]
    return tuple(-sum(vecs[i][c] for i in basis) for c in range(d))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-3, 3)] * d), min_size=2 * d + 2, max_size=12)))
def test_conic_solution_agrees_with_subset_oracle(vectors):
    # On spanning sets whose dual cone is {0} (no separator normal bounds
    # them), both the simplex and the subset search find a nonnegative
    # combination hitting the target, and the certificate checks out.
    d = len(vectors[0])
    vecs = [v for v in dict.fromkeys(vectors) if any(v)]
    normals = separator_normals(vecs) if vecs else []
    assume(normals and not any(all(_dot(n, v) >= 0 for v in vecs)
                               for n in normals))
    target = _certificate_target(vecs, d)
    found = _conic_solution(vecs, target)
    assert found is not None and all(q > 0 for _, q in found.values())
    for sol in ({i: Fraction(p, q) for i, (p, q) in found.items()},
                subset_conic_solution(vecs, target)):
        assert sol is not None and all(t >= 0 for t in sol.values())
        assert tuple(sum(t * vecs[i][c] for i, t in sol.items())
                     for c in range(d)) == target
    witness = _positive_certificate(vecs, _column_echelon(vecs)[1])
    _verify_certificate(witness, d)


def test_conic_solution_none_outside_the_cone():
    assert _conic_solution([(1, 0), (0, 1)], (-1, 0)) is None
    assert subset_conic_solution([(1, 0), (0, 1)], (-1, 0)) is None
    with pytest.raises(ArithmeticError, match="no conic combination"):
        _positive_certificate([(1, 0), (0, 1)],
                              _column_echelon([(1, 0), (0, 1)])[1])


def test_hull_empty_rejected():
    """Each public entry point checks its input: no vectors, vectors of
    dimension 0 and vectors of different dimensions raise ValueError."""
    for bad in ([], [()], [(1, 0), (1,)], [(1,), (2, 3)]):
        for public in (zero_in_convex_hull, classify_subsemigroup,
                       subgroup_index, smith_normal_form):
            with pytest.raises(ValueError):
                public(bad)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                min_size=1, max_size=8))
def test_hull_witness_soundness(vectors):
    witness = zero_in_convex_hull(vectors)
    if isinstance(witness, HalfSpaceWitness):
        assert any(witness.normal)
        assert all(sum(n * x for n, x in zip(witness.normal, v)) >= 0
                   for v in vectors)
    else:
        assert all(t > 0 for t in witness.coefficients)
        combo = [sum(t * p[c] for t, p in zip(witness.coefficients, witness.points))
                 for c in range(2)]
        assert combo == [0, 0]


def test_classify_examples():
    assert classify_subsemigroup([(1, 0), (0, 1), (-1, -1)]).kind == FULL
    proper = classify_subsemigroup([(2, 0), (0, 2), (-2, -2)])
    assert proper.kind == IN_PROPER_SUBGROUP
    assert proper.index == 4
    trapped = classify_subsemigroup([(1, 0), (0, 1)])
    assert trapped.kind == IN_HALF_SPACE
    assert trapped.normal == (1, 1)


def test_classify_rank_deficit():
    line = classify_subsemigroup([(1, 1), (-1, -1)])
    assert line.kind == IN_PROPER_SUBGROUP
    assert line.rank == 1
    assert classify_subsemigroup([(0, 0)]).rank == 0


def test_classify_boundary_half_plane():
    # The upper half plane: full rank, 0 on the hull boundary, not Full.
    result = classify_subsemigroup([(1, 0), (-1, 0), (0, 1)])
    assert result.kind == IN_HALF_SPACE
    assert result.normal == (0, 1)


def test_classify_agrees_with_grid_oracle_random():
    rng = random.Random(2024)
    grid = GridClosure(23)
    for _ in range(400):
        k = rng.randint(1, 4)
        gens = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(k)]
        gens = [g for g in gens if g != (0, 0)]
        if not gens:
            continue
        result = classify_subsemigroup(gens)
        covers = grid.covers_ball(grid.close(gens), 5)
        assert (result.kind == FULL) == covers, (gens, result)


def _random_set(rng: random.Random) -> list[tuple[int, ...]]:
    """A seeded set in Z^1-Z^4, entries in -1..1 or -3..3, with duplicates,
    positive multiples, a half-space bias or a rank deficit mixed in."""
    d = rng.randint(1, 4)
    style = rng.choice(["unit", "box", "dupes", "multiples", "half", "rank"])
    size = rng.randint(1, 12)
    top = 1 if style == "unit" else 3
    vecs = [tuple(rng.randint(-top, top) for _ in range(d))
            for _ in range(size)]
    if style == "dupes":
        vecs += rng.choices(vecs, k=rng.randint(1, 4))
    elif style == "multiples":
        vecs += [tuple(rng.randint(1, 3) * x for x in rng.choice(vecs))
                 for _ in range(rng.randint(1, 4))]
    elif style == "half":
        normal = [rng.randint(-2, 2) for _ in range(d)]
        vecs = [v for v in vecs
                if sum(a * b for a, b in zip(v, normal)) >= 0] or vecs
    elif style == "rank":
        spanning = [[rng.randint(-2, 2) for _ in range(d)]
                    for _ in range(rng.randint(1, max(1, d - 1)))]
        vecs = [tuple(sum(rng.randint(-2, 2) * g[c] for g in spanning)
                      for c in range(d)) for _ in range(size)]
    rng.shuffle(vecs)
    return vecs


def test_hull_normal_matches_separator_enumeration():
    # On a spanning set the normal is the primitive sum of the valid
    # (d-1)-subset normals, and there is none exactly when the origin is
    # interior. Sets that do not span are taken in span coordinates, as
    # classify_subsemigroup does.
    rng = random.Random(909)
    for _ in range(1500):
        nonzero = [v for v in dict.fromkeys(_random_set(rng)) if any(v)]
        if not nonzero:
            continue
        reduction = _span_coordinates(nonzero)
        vecs = nonzero if reduction is None else reduction[1]
        valid = [n for n in separator_normals(vecs)
                 if all(sum(a * b for a, b in zip(n, v)) >= 0 for v in vecs)]
        witness = zero_in_convex_hull(vecs)
        if not valid:
            assert isinstance(witness, ZeroInHullWitness), vecs
            continue
        total = [sum(col) for col in zip(*valid)]
        g = math.gcd(*total)
        assert witness == HalfSpaceWitness(tuple(x // g for x in total)), vecs


def _walk_positions(d: int, points: int, rng: random.Random):
    pos = [0] * d
    seen: dict[tuple[int, ...], None] = {}
    while len(seen) < points:
        pos[rng.randrange(d)] += rng.choice((1, -1))
        seen.setdefault(tuple(pos), None)
    return list(seen)


def _pin_corpus() -> list[list[tuple[int, ...]]]:
    """Seeded sets: _random_set sets in Z^1-Z^4 and the lattice benchmark's
    shapes (Z^2 sets of 1-4 vectors from the 7x7 box, Z^2/Z^3/Z^4 walk
    positions, 20-vector Z^4 boxes)."""
    rng = random.Random(4242)
    box = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if (x, y) != (0, 0)]
    sets = [_random_set(rng) for _ in range(1500)]
    sets += [rng.sample(box, rng.randint(1, 4)) for _ in range(1000)]
    for d, points in ((2, 200), (3, 140), (4, 36)):
        sets += [_walk_positions(d, points, rng) for _ in range(6)]
    sets += [[tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(20)]
             for _ in range(6)]
    return sets


def test_classification_pinned_on_a_seeded_corpus():
    # Every field of every classification: kind, normal, index, rank, the
    # Smith report, and the hull witness's points and coefficients.
    digest = hashlib.sha256()
    for vecs in _pin_corpus():
        digest.update(repr(classify_subsemigroup(vecs)).encode() + b"\n")
    assert digest.hexdigest()[:16] == "8c7a43ae5d1dc1bf"


def test_large_sets_match_separator_enumeration():
    # The many-ray double description at the lattice benchmark's sizes:
    # 36-point Z^4 and 140-point Z^3 walk positions and 20-vector Z^4 boxes,
    # all spanning. A half-space normal is the primitive sum of the valid
    # (d-1)-subset normals; a hull witness exists only when none is valid.
    rng = random.Random(5)
    sets = [_walk_positions(d, points, rng)
            for d, points in [(4, 36)] * 4 + [(3, 140)] * 4]
    sets += [[tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(20)]
             for _ in range(4)]
    # First, 24 Z^4 walk positions shifted by e_1, in a half-space. Some
    # ray pairs that a vector separates have two common zero vectors but
    # are not adjacent, so the double description combines them unless its
    # adjacency test also asks that no third ray's zero set hold the common
    # zeros: without that check, or without the whole test, the normal
    # differs here, before the sets above, on which a copy without the
    # whole test runs for seconds.
    sets.insert(0, [(x + 1, *rest)
                    for x, *rest in _walk_positions(4, 24, random.Random(151))])
    kinds = set()
    for vecs in sets:
        d = len(vecs[0])
        assert subgroup_index(vecs).rank == d
        result = classify_subsemigroup(vecs)
        kinds.add(result.kind)
        valid = [n for n in separator_normals(vecs)
                 if all(_dot(n, v) >= 0 for v in vecs)]
        if result.kind == IN_HALF_SPACE:
            total = [sum(col) for col in zip(*valid)]
            g = math.gcd(*total)
            assert result.normal == tuple(x // g for x in total), vecs
        else:
            assert not valid, vecs
            assert set(result.hull_witness.points) <= set(vecs)
            _verify_certificate(result.hull_witness, d)
    assert {FULL, IN_HALF_SPACE} <= kinds


@pytest.mark.parametrize("kind", ["box200", "trace36"])
def test_large_z4_sets_classify_within_budget(kind):
    rng = random.Random(0)
    if kind == "box200":
        vecs = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(200)]
    else:
        vecs = _walk_positions(4, 36, rng)
    start = time.perf_counter()
    classify_subsemigroup(vecs)
    assert time.perf_counter() - start < 2.0


def _z3_walk_positions(seed: int) -> list[tuple[int, ...]]:
    """Distinct positions of a 500-step simple random walk on Z^3."""
    rng = random.Random(seed)
    pos = [0, 0, 0]
    seen: dict[tuple[int, ...], None] = {}
    for _ in range(500):
        pos[rng.randrange(3)] += rng.choice((1, -1))
        seen.setdefault(tuple(pos), None)
    return list(seen)


def test_z3_walk_sets_classify_within_budget():
    # A subset search for the positive certificate took 27 s on seed 1
    # (353 points). Consecutive positions differ by a unit vector, so the
    # lattice is Z^3 and the verdict is Full or InHalfSpace.
    elapsed = 0.0
    for seed in range(20):
        vecs = _z3_walk_positions(seed)
        start = time.perf_counter()
        result = classify_subsemigroup(vecs)
        elapsed += time.perf_counter() - start
        if result.kind == IN_HALF_SPACE:
            dots = [_dot(result.normal, v) for v in vecs]
            assert min(dots) >= 0 and max(dots) > 0, seed
            continue
        assert result.kind == FULL and result.report.index == 1, seed
        witness = result.hull_witness
        members = set(vecs)
        assert set(witness.points) <= members, seed
        assert all(t > 0 for t in witness.coefficients), seed
        assert not any(sum(t * p[c] for t, p in zip(witness.coefficients,
                                                       witness.points))
                       for c in range(3)), seed
        assert any(integer_determinant(rows) for rows in
                   itertools.combinations(witness.points, 3)), seed
    assert elapsed < 10.0
