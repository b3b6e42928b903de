"""Integer lattice subsemigroup analysis, all in exact arithmetic.

Three tools: Smith normal form over the integers (with the unimodular
transforms), a decision procedure for whether the origin lies strictly
inside the convex hull of a vector set (producing either a weak separating
half-space or a positive combination certificate), and the resulting
classification of the subsemigroup generated by integer vectors as Full,
inside a proper subgroup, or trapped in a closed half-space.

Boundary convention: vector sets lying in a hyperplane through the origin
count as half-space trapped with a weak inequality, so the positive
certificate is returned only when the origin is interior to the hull. In
that case the semigroup generated equals the group generated and the
classification is exact.

The hull decision makes one fraction-free Gauss-Jordan elimination of the
d x (n + d) matrix [V^T | I]: the n vectors as columns, the identity
appended. Row r's identity part y_r records the combination of coordinates
that formed the row, so y_r.v_j is the row's entry in column j. The pivot
count decides whether V spans. If it does not, a row without a pivot gives
a normal orthogonal to every vector. If it does, the pivot columns pick d
independent vectors, and each y_r, orthogonal to all of them but one, is a
ray of their simplicial cone.

From that start cone the double description method (Motzkin et al. 1953;
Fukuda & Prodon 1996) finds, in integer arithmetic, the extreme rays of the
dual cone C* = {n : n.v >= 0 for every v in V}. Because V spans, C* is
pointed, and its extreme rays are exactly the primitive normals of
(d-1)-subsets of V that are nonnegative on all of V: a ray of C* is extreme
when the vectors it is orthogonal to have rank d-1. So the half-space
normal is the sum over all valid subset normals, without enumerating the
C(n, d-1) subsets. No extreme ray means C* = {0}: the origin is interior,
and phase one of the simplex method with Bland's rule (Bland 1977), on a
d-row integer tableau, completes the d pivot vectors to the positive
certificate.

On a spanning set in the plane a direct kernel replaces both: its pivots are
the first vector and the first one not parallel to it, its start rays their
signed normals, and its double description holds at most two rays and no
zero sets. It finds the same rays, so the same normal and certificate. Sets
on a line, and sets in other dimensions, take the general path.

The classification decides the hull first. Only a set that does not span
is then written in coordinates of a basis of its span and decided there.

The Smith report is taken on an echelon basis of the generated lattice, at
most d rows found by Euclid row steps, so its cost does not grow with the
number of vectors. When that basis has d pivots equal to +-1 it is
unimodular, the lattice is Z^d and every invariant factor is 1: no Smith
form is taken, and no later vector is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index, mul
from typing import Sequence

Vec = tuple[int, ...]


class _Vectors(list):
    """Vectors that ``_as_vectors`` has checked: int tuples, at least one,
    all of one positive dimension. Each public function checks its input
    once; the lists it hands to the others are of this type, so they are
    not checked again."""


def _as_vectors(vectors: Sequence[Sequence[int]]) -> _Vectors:
    if type(vectors) is _Vectors:
        return vectors
    try:
        vecs = _Vectors(tuple(map(index, v)) for v in vectors)
    except TypeError:
        raise ValueError("vectors must have integer entries") from None
    if not vecs:
        raise ValueError("need at least one vector")
    d = len(vecs[0])
    if d == 0 or any(len(v) != d for v in vecs):
        raise ValueError("vectors must share one positive dimension")
    return vecs


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _primitive(v: Vec) -> Vec:
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g > 1 else v


# ---------------------------------------------------------------------------
# Smith normal form

@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = D with U, V unimodular and D diagonal, divisibility chain."""

    matrix: tuple[Vec, ...]
    left: tuple[Vec, ...]
    right: tuple[Vec, ...]
    diagonal: tuple[int, ...]


def smith_normal_form(rows: Sequence[Sequence[int]]) -> SmithDecomposition:
    original = _as_vectors(rows)
    a = [list(r) for r in original]
    n, d = len(a), len(a[0])
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(d)] for i in range(d)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    t = 0
    while t < min(n, d):
        pivot = None
        for i in range(t, n):
            for j in range(t, d):
                if a[i][j] and (pivot is None
                                or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # Euclid steps until the pivot divides its whole row and column.
            progressed = False
            for i in range(t + 1, n):
                if a[i][t] % a[t][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    swap_rows(i, t)
                    progressed = True
                    break
            if progressed:
                continue
            for j in range(t + 1, d):
                if a[t][j] % a[t][t]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    swap_cols(j, t)
                    progressed = True
                    break
            if progressed:
                continue
            for i in range(t + 1, n):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
            for j in range(t + 1, d):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
            violation = None
            for i in range(t + 1, n):
                for j in range(t + 1, d):
                    if a[i][j] % a[t][t]:
                        violation = i
                        break
                if violation is not None:
                    break
            if violation is None:
                break
            add_row(t, violation, 1)
        t += 1

    for i in range(min(n, d)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    diagonal = tuple(a[i][i] for i in range(min(n, d)))
    return SmithDecomposition(
        tuple(tuple(r) for r in original),
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in v),
        diagonal,
    )


@dataclass(frozen=True)
class LatticeBasisReport:
    """Rank, Smith diagonal and subgroup index for a set of integer vectors."""

    vectors: tuple[Vec, ...]
    rank: int
    smith_diagonal: tuple[int, ...]
    index: int | None  # None means infinite (rank-deficient)


def _is_unit_basis(pivots: dict[int, Vec], d: int) -> bool:
    """d pivots, all +-1: the basis is unimodular, the lattice Z^d."""
    return len(pivots) == d and all(abs(row[col]) == 1
                                    for col, row in pivots.items())


def _lattice_basis(vecs: Sequence[Vec], d: int) -> dict[int, Vec]:
    """Echelon basis of the lattice the vectors generate, at most d rows,
    keyed by each row's leading column.

    Each vector is reduced against the basis row with its leading column by
    Euclid row steps, which are unimodular, so the lattice never changes.
    It stops at a unit basis, whose lattice Z^d no later vector can change.
    """
    pivots: dict[int, Vec] = {}
    for v in vecs:
        if _is_unit_basis(pivots, d):
            break
        for col in range(d):
            if not v[col]:
                continue
            p = pivots.get(col)
            if p is None:
                pivots[col] = v
                break
            while v[col]:
                q = p[col] // v[col]
                p, v = v, tuple(x - q * y for x, y in zip(p, v))
            pivots[col] = p
    return pivots


def subgroup_index(vectors: Sequence[Sequence[int]]) -> LatticeBasisReport:
    """Smith-form report on the subgroup of Z^d generated by the vectors."""
    vecs = _as_vectors(vectors)
    d = len(vecs[0])
    pivots = _lattice_basis(vecs, d)
    basis = _Vectors(pivots.values())
    nonzero = ((1,) * d if _is_unit_basis(pivots, d)
               else smith_normal_form(basis).diagonal if basis else ())
    rank = len(nonzero)
    index = math.prod(nonzero) if rank == d else None
    # At full rank the echelon basis is triangular; its diagonal checks.
    if index is not None and index != abs(math.prod(
            row[col] for col, row in pivots.items())):
        raise ArithmeticError(f"Smith diagonal {nonzero} does not match the "
                              "echelon basis")
    diagonal = nonzero + (0,) * (min(len(vecs), d) - rank)
    return LatticeBasisReport(tuple(vecs), rank, diagonal, index)


# ---------------------------------------------------------------------------
# Exact linear algebra: fraction-free integer elimination

def _eliminate(row: list[int], pivot_row: list[int], col: int) -> list[int]:
    """pivot_row[col] * row - row[col] * pivot_row, which is zero in column
    col, divided by the gcd of its entries."""
    a, f = pivot_row[col], row[col]
    row = [a * x - f * y for x, y in zip(row, pivot_row)]
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _echelon(rows: list[list[int]], width: int) -> list[int]:
    """Fraction-free Gauss-Jordan on the first `width` columns, in place.

    Afterwards row r has a nonzero pivot in column pivots[r] and zeros in
    every other pivot column, and each row that was updated is divided by
    the gcd of its entries. Returns the pivot columns.
    """
    pivots: list[int] = []
    for col in range(width):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        pivot_row = rows[r]
        for i, row in enumerate(rows):
            if row[col] and i != r:
                rows[i] = _eliminate(row, pivot_row, col)
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return pivots


def _rank(vectors: Sequence[Vec]) -> int:
    return len(_echelon([list(v) for v in vectors], len(vectors[0])))


def _column_echelon(vecs: Sequence[Vec]) -> tuple[list[list[int]], list[int]]:
    """Echelon rows of the matrix whose columns are vecs, and its pivots.

    The pivot columns index the first independent vectors in input order.
    """
    rows = [list(col) for col in zip(*vecs)]
    return rows, _echelon(rows, len(vecs))


def _clear_denominators(pairs: Sequence[tuple[int, int]]) -> Vec:
    """The quotients p/q of the (p, q) pairs times their least common denominator."""
    lcm = math.lcm(*[abs(q) // math.gcd(p, q) for p, q in pairs])
    return tuple(p * lcm // q for p, q in pairs)


def _solve_unique(basis: Sequence[Vec], target: Vec) -> Vec | None:
    """The unique exact solution of sum t_i b_i = target times the least
    common denominator of its entries, else None."""
    k = len(basis)
    rows = [[b[i] for b in basis] + [x] for i, x in enumerate(target)]
    if len(_echelon(rows, k)) < k or any(row[k] for row in rows[k:]):
        return None
    return _clear_denominators([(rows[c][k], rows[c][c]) for c in range(k)])


# ---------------------------------------------------------------------------
# Cone witnesses

@dataclass(frozen=True)
class HalfSpaceWitness:
    """Nonzero normal with <normal, v> >= 0 for every input vector."""

    normal: Vec


@dataclass(frozen=True)
class ZeroInHullWitness:
    """Positive integer combination of input points summing to zero.

    The points span the ambient space, certifying that the origin is
    interior to the convex hull (so the generated semigroup is a group).
    """

    points: tuple[Vec, ...]
    coefficients: tuple[int, ...]


ConeWitness = HalfSpaceWitness | ZeroInHullWitness


def _dual_extreme_rays(vecs: list[Vec], rows: list[list[int]],
                       basis: list[int]) -> list[Vec]:
    """Primitive extreme rays of the dual cone {n : n.v >= 0 for all v}.

    Double description on a spanning set. The start cone is the simplicial
    cone of the `basis` vectors, whose rays are the identity parts of the
    echelon `rows` of [V^T | I] (see the module docstring), each made
    primitive and signed by its pivot entry; the other vectors are added
    one at a time. Each ray carries its zero set, a bit mask of the vectors
    it is orthogonal to.
    """
    n, d = len(vecs), len(basis)
    in_basis = sum(1 << j for j in basis)
    rays: list[Vec] = []
    zeros: list[int] = []
    for row, j in zip(rows, basis):
        ray = _primitive(tuple(row[n:]))
        rays.append(ray if row[j] > 0 else tuple(-x for x in ray))
        zeros.append(in_basis ^ 1 << j)
    for k, v in enumerate(vecs):
        if in_basis >> k & 1:
            continue
        bit = 1 << k
        dots = [sum(map(mul, r, v)) for r in rays]
        if min(dots) >= 0:
            # Every ray is on the vector's side, so its inequality is implied
            # by the earlier ones: a facet it defines, an earlier vector
            # defines too, and its zero bits never change an adjacency test.
            continue
        new_rays = [r for r, t in zip(rays, dots) if t >= 0]
        new_zeros = [z if t else z | bit
                     for z, t in zip(zeros, dots) if t >= 0]
        negative = [(r, z, t) for r, z, t in zip(rays, zeros, dots) if t < 0]
        for p, zp, tp in zip(rays, zeros, dots):
            if tp <= 0:
                continue
            for q, zq, tq in negative:
                # Adjacent: the smallest face holding p and q holds no
                # third ray, so exactly two zero sets contain `common`. The
                # bit count is a quick necessary condition.
                common = zp & zq
                if common.bit_count() < d - 2 or list(
                        map(common.__and__, zeros)).count(common) != 2:
                    continue
                new_rays.append(_primitive(tuple(
                    tp * b - tq * a for a, b in zip(p, q))))
                new_zeros.append(common | bit)
        if not new_rays:
            return []
        rays, zeros = new_rays, new_zeros
    return rays


def _planar_dual_rays(vecs: list[Vec]) -> tuple[list[int], list[Vec]] | None:
    """The pivot indices [0, j] and dual-cone rays that the elimination and
    `_dual_extreme_rays` find for a set in Z^2; None when it lies on a line.

    Two rays of a pointed cone in the plane are adjacent, so a vector that
    cuts one ray and not the other replaces the cut ray by their
    combination on its line.
    """
    x0, y0 = vecs[0]
    j = next((k for k, (x, y) in enumerate(vecs) if x0 * y != y0 * x), None)
    if j is None:
        return None
    rays = [_primitive((-y, x) if y * u < x * w else (y, -x))
            for (x, y), (u, w) in ((vecs[j], vecs[0]), (vecs[0], vecs[j]))]
    for x, y in vecs[1:j] + vecs[j + 1:]:
        dots = [a * x + b * y for a, b in rays]
        if min(dots) >= 0:
            continue
        if max(dots) < 0:
            return [0, j], []
        (tp, p), (tq, q) = sorted(zip(dots, rays), reverse=True)
        rays = [p] if tp == 0 else [p, _primitive(
            (tp * q[0] - tq * p[0], tp * q[1] - tq * p[1]))]
    return [0, j], rays


def _check_normal(normal: Vec, vecs: Sequence[Vec]) -> None:
    if not any(normal) or any(_dot(normal, v) < 0 for v in vecs):
        raise ArithmeticError(f"normal {normal} does not bound the vectors")


def zero_in_convex_hull(vectors: Sequence[Sequence[int]]) -> ConeWitness:
    """Decide whether the origin is interior to the convex hull.

    Returns a HalfSpaceWitness whenever some nonzero normal has nonnegative
    inner product with every vector (including all boundary cases), and
    otherwise a verified ZeroInHullWitness: a positive integer combination
    of input points summing to zero whose points span the space.
    """
    vecs = _as_vectors(vectors)
    d = len(vecs[0])
    nonzero = [v for v in dict.fromkeys(vecs) if any(v)]
    if not nonzero:
        return HalfSpaceWitness(tuple([1] + [0] * (d - 1)))
    planar = _planar_dual_rays(nonzero) if d == 2 else None
    if planar is None:
        # [V^T | I], eliminated once (see the module docstring).
        n = len(nonzero)
        rows = [list(col) + [int(i == c) for i in range(d)]
                for c, col in enumerate(zip(*nonzero))]
        basis = _echelon(rows, n)
        # A row without a pivot is zero on every vector, so its identity
        # part is the one ray needed: a normal orthogonal to the span.
        rays = (_dual_extreme_rays(nonzero, rows, basis) if len(basis) == d
                else [tuple(rows[-1][n:])])
    else:
        basis, rays = planar
    if not rays:
        return _positive_certificate(nonzero, basis)
    # The normal is the primitive sum of the rays. A spanning set's dual cone
    # is pointed, so the sum is nonzero, and it is valid because each
    # summand is.
    normal = _primitive(tuple(map(sum, zip(*rays))))
    _check_normal(normal, nonzero)
    return HalfSpaceWitness(normal)


def _conic_solution(vecs: Sequence[Vec],
                    target: Vec) -> dict[int, tuple[int, int]] | None:
    """A basic solution t >= 0 of sum t_i vecs[i] = target, else None.

    The support of t is returned as {i: (p, q)} with t_i = p / q, q > 0.
    Phase one of the simplex method on a d-row integer tableau: one
    artificial variable per row starts in the basis, and their sum is
    driven to zero. Rows are updated fraction-free and divided by their
    gcd, so a row's values are its entries over its basic entry, which
    stays positive; ratios are compared by cross-multiplication. Bland's
    rule (the lowest-index entering column, ties on the ratio to the lowest
    basic index) makes the exact simplex terminate. An artificial that
    leaves the basis never returns, so its column is not stored.
    """
    n = len(vecs)
    rows = []
    for c, t in enumerate(target):
        sign = -1 if t < 0 else 1
        rows.append([sign * v[c] for v in vecs] + [sign * t])
    basis = [n + r for r in range(len(rows))]
    # Reduced costs of the sum of the artificials, and minus that sum.
    cost = [-sum(col) for col in zip(*rows)]
    while True:
        enter = next((j for j in range(n) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for r, row in enumerate(rows):
            if row[enter] > 0:
                if leave is None:
                    leave = r
                    continue
                best = rows[leave]
                here, there = row[n] * best[enter], best[n] * row[enter]
                if here < there or here == there and basis[r] < basis[leave]:
                    leave = r
        # The sum of the artificials is bounded below, so some row leaves.
        pivot_row = rows[leave]
        for r, row in enumerate(rows):
            if row[enter] and r != leave:
                rows[r] = _eliminate(row, pivot_row, enter)
        cost = _eliminate(cost, pivot_row, enter)
        basis[leave] = enter
    if cost[n]:
        return None
    return {j: (row[n], row[j])
            for j, row in zip(basis, rows) if j < n and row[n]}


def _positive_certificate(vecs: list[Vec],
                          base_idx: list[int]) -> ZeroInHullWitness:
    """Positive combination summing to zero: the d independent vectors
    vecs[base_idx] at coefficient 1, plus a conic solution for minus their
    sum."""
    d = len(vecs[0])
    target = tuple(-sum(vecs[i][c] for i in base_idx) for c in range(d))
    coeffs = {i: (1, 1) for i in base_idx}
    if any(target):
        found = _conic_solution(vecs, target)
        if found is None:
            raise ArithmeticError(
                "origin interior but no conic combination found")
        for i, (p, q) in found.items():
            coeffs[i] = (p + q, q) if i in coeffs else (p, q)
    indices = sorted(coeffs)
    ints = _primitive(_clear_denominators([coeffs[i] for i in indices]))
    witness = ZeroInHullWitness(tuple(vecs[i] for i in indices), ints)
    _verify_certificate(witness, d)
    return witness


def _verify_certificate(witness: ZeroInHullWitness, d: int) -> None:
    if not all(t > 0 for t in witness.coefficients):
        raise ArithmeticError("certificate has a nonpositive coefficient")
    combo = [sum(t * p[c] for t, p in zip(witness.coefficients, witness.points))
             for c in range(d)]
    if any(combo):
        raise ArithmeticError("certificate does not sum to zero")
    if _rank(witness.points) != d:
        raise ArithmeticError("certificate does not span")


# ---------------------------------------------------------------------------
# Classification

FULL = "Full"
IN_PROPER_SUBGROUP = "InProperSubgroup"
IN_HALF_SPACE = "InHalfSpace"


@dataclass(frozen=True)
class SubsemigroupClassification:
    kind: str
    normal: Vec | None = None
    index: int | None = None
    rank: int | None = None
    report: LatticeBasisReport | None = None
    hull_witness: ZeroInHullWitness | None = None

    def __str__(self) -> str:
        if self.kind == FULL:
            return FULL
        if self.kind == IN_HALF_SPACE:
            return f"InHalfSpace(normal=({','.join(str(x) for x in self.normal)}))"
        if self.index is not None:
            return f"InProperSubgroup(index={self.index})"
        return f"InProperSubgroup(rank={self.rank})"


def _span_coordinates(vecs: list[Vec]) -> tuple[list[Vec], list[Vec]] | None:
    """Integer coordinates of the vectors in a basis of their span.

    Returns (basis, coordinate vectors) or None when the vectors already
    span the whole space. Each coordinate vector is scaled by a positive
    integer, which preserves both half-space trapping and the existence of
    positive combinations summing to zero.
    """
    rows, pivots = _column_echelon(vecs)
    if len(pivots) == len(rows):
        return None
    coords = [_clear_denominators([(row[j], row[p])
                                   for row, p in zip(rows, pivots)])
              for j in range(len(vecs))]
    return [vecs[p] for p in pivots], coords


def _lift_normal(basis: list[Vec], span_normal: Vec) -> Vec:
    """Ambient normal whose inner products match a normal in span coordinates."""
    gram = [tuple(_dot(a, b) for b in basis) for a in basis]
    c = _solve_unique(gram, span_normal)
    if c is None:
        raise ArithmeticError("Gram matrix of a basis is singular")
    return _primitive(tuple(_dot(c, col) for col in zip(*basis)))


def classify_subsemigroup(
        generators: Sequence[Sequence[int]]) -> SubsemigroupClassification:
    """Trichotomy for the subsemigroup of Z^d generated by the vectors.

    InHalfSpace when some half-space contains all generators with at least
    one of them off its boundary (the origin is not in the relative interior
    of the hull). Otherwise the semigroup equals the group the generators
    generate, and the Smith report decides exactly: rank deficit or index
    above one gives InProperSubgroup, index one gives Full.
    """
    vecs = _as_vectors(generators)
    d = len(vecs[0])
    nonzero = [v for v in dict.fromkeys(vecs) if any(v)]
    if not nonzero:
        report = subgroup_index(vecs)
        return SubsemigroupClassification(IN_PROPER_SUBGROUP, rank=0,
                                          report=report)
    witness = zero_in_convex_hull(_Vectors(nonzero))
    if isinstance(witness, ZeroInHullWitness):
        report = subgroup_index(vecs)
        if report.index == 1:
            return SubsemigroupClassification(FULL, report=report,
                                              hull_witness=witness)
        return SubsemigroupClassification(IN_PROPER_SUBGROUP,
                                          index=report.index,
                                          rank=report.rank, report=report,
                                          hull_witness=witness)
    if any(_dot(witness.normal, v) for v in nonzero):
        return SubsemigroupClassification(IN_HALF_SPACE, normal=witness.normal)
    # A normal orthogonal to every vector: the set does not span, so decide
    # in coordinates of a basis of its span.
    basis, coords = _span_coordinates(nonzero)
    witness = zero_in_convex_hull(_Vectors(coords))
    if isinstance(witness, HalfSpaceWitness):
        normal = _lift_normal(basis, witness.normal)
        _check_normal(normal, nonzero)
        return SubsemigroupClassification(IN_HALF_SPACE, normal=normal)
    report = subgroup_index(vecs)
    return SubsemigroupClassification(IN_PROPER_SUBGROUP, rank=report.rank,
                                      report=report)
