"""Independent brute-force oracles used to cross-check the implementations."""

from __future__ import annotations

import csv
import itertools
import math
from bisect import insort
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from algrec.freestats import (
    CANCEL_CHUNK,
    EXCURSION_CUTOFF,
    CancellationSample,
    ExceedanceRow,
    random_reduced_words,
)
from algrec.groups import (
    GroupElement,
    Heisenberg,
    canonical_key,
    identity,
    invert,
    multiply,
    parse_descriptor,
    parse_element,
    word_length_within,
)
from algrec.walks import WalkTrace, trace_from_increments

# ---------------------------------------------------------------------------
# Heisenberg via 3x3 upper-unitriangular integer matrices

def heisenberg_to_matrix(g: GroupElement) -> tuple:
    a, b, c = g.payload
    return ((1, a, c), (0, 1, b), (0, 0, 1))


def mat_mul(x: tuple, y: tuple) -> tuple:
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3))
        for i in range(3))


def matrix_to_heisenberg(m: tuple) -> GroupElement:
    return GroupElement(Heisenberg(), (m[0][1], m[1][2], m[0][2]))


def heisenberg_ball_size_box(radius: int) -> int:
    """|B_H(radius)| by the closed-form length on every point of the box
    |a| + |b| <= radius, |c| <= radius**2 / 4: c sums the current a over
    the y-letters, so h x-letters and v y-letters end at |c| <= h * v."""
    length, top = Heisenberg().length, radius * radius // 4
    return sum(1 for a in range(-radius, radius + 1)
               for b in range(abs(a) - radius, radius - abs(a) + 1)
               for c in range(-top, top + 1)
               if length((a, b, c)) <= radius)


# ---------------------------------------------------------------------------
# The nilpotent identity element by element, with square-and-multiply powers

def power(a: GroupElement, n: int) -> GroupElement:
    """a**n by square-and-multiply; negative exponents go through invert."""
    if n < 0:
        return power(invert(a), -n)
    result = identity(a.descriptor)
    base = a
    while n:
        if n & 1:
            result = multiply(result, base)
        base = multiply(base, base)
        n >>= 1
    return result


@dataclass(frozen=True)
class NilpotentIdentityResult:
    exponent_pos: int
    exponent_neg: int
    expected_pos: int
    expected_neg: int

    @property
    def holds(self) -> bool:
        return (self.exponent_pos == self.expected_pos
                and self.exponent_neg == self.expected_neg)


def _central_exponent(g: GroupElement) -> int:
    a, b, c = g.payload
    if a != 0 or b != 0:
        raise ValueError(f"product {g.payload} is not central")
    return c


def nilpotent_identity_check(k1: int, k2: int, k3: int, k4: int,
                             n: int, m: int) -> NilpotentIdentityResult:
    """One case of identities.nilpotent_identity_grid, multiplied out on
    elements with powers of z = [a, b] and of c = a z^k1, d = b z^k2,
    e = a^-1 z^k3, f = b^-1 z^k4."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    a, b, z = (GroupElement(Heisenberg(), p)
               for p in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    c = multiply(a, power(z, k1))
    d = multiply(b, power(z, k2))
    e = multiply(invert(a), power(z, k3))
    f = multiply(invert(b), power(z, k4))
    cn, dm, en, fm = power(c, n), power(d, m), power(e, n), power(f, m)
    pos = _central_exponent(multiply(multiply(cn, dm), multiply(en, fm)))
    neg = _central_exponent(multiply(multiply(dm, cn), multiply(fm, en)))
    ell = (k1 + k3) * n + (k2 + k4) * m
    return NilpotentIdentityResult(pos, neg, n * m + ell, -n * m + ell)


# ---------------------------------------------------------------------------
# Integer determinants, half-space normals and conic combinations by subset
# enumeration

def integer_determinant(rows) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def separator_normals(vecs) -> list[tuple[int, ...]]:
    """Both signs of the primitive normal of every independent (d-1)-subset,
    by cofactor expansion; for d = 1, (1,) and (-1,).

    On a spanning set, the ones with n.v >= 0 for every v are the extreme
    rays of the dual cone, the rays zero_in_convex_hull sums.
    """
    d = len(vecs[0])
    normals: dict[tuple[int, ...], None] = {}
    for rows in itertools.combinations(vecs, d - 1):
        normal = tuple((-1) ** j * integer_determinant(
            [[row[c] for c in range(d) if c != j] for row in rows])
            for j in range(d))
        if any(normal):
            g = math.gcd(*normal)
            normal = tuple(x // g for x in normal)
            normals.setdefault(normal, None)
            normals.setdefault(tuple(-x for x in normal), None)
    return list(normals)


def _solve_fraction(columns, target) -> list[Fraction] | None:
    """The unique solution of sum t_i columns[i] = target, by Gaussian
    elimination over Fractions; None when the columns are dependent or the
    system is inconsistent."""
    k = len(columns)
    rows = [[Fraction(c[i]) for c in columns] + [Fraction(x)]
            for i, x in enumerate(target)]
    for col in range(k):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(len(rows)):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    if any(row[k] for row in rows[k:]):
        return None
    return [rows[c][k] / rows[c][c] for c in range(k)]


def subset_conic_solution(vecs, target) -> dict[int, Fraction] | None:
    """A nonnegative t with sum t_i vecs[i] = target, from the first subset
    of size 1..d, in combinations order, whose unique solution is
    nonnegative; returned as {i: t_i} on the subset. By Caratheodory's
    theorem some such subset exists whenever target is in the cone."""
    d = len(target)
    for size in range(1, d + 1):
        for subset in itertools.combinations(range(len(vecs)), size):
            sol = _solve_fraction([vecs[i] for i in subset], target)
            if sol is not None and all(t >= 0 for t in sol):
                return dict(zip(subset, sol))
    return None


# ---------------------------------------------------------------------------
# Z^2 semigroup reachability on a bitmask grid

class GridClosure:
    """Semigroup closure of integer 2-vectors on a [-R, R]^2 grid.

    The grid is one big Python integer: bit (y + R) * W + (x + R) marks the
    point (x, y). Shift masks are cached per generator so that scanning many
    generator sets stays fast.
    """

    def __init__(self, radius: int):
        self.radius = radius
        self.width = 2 * radius + 1
        self.full = (1 << self.width * self.width) - 1
        col = sum(1 << i * self.width for i in range(self.width))
        self._col = col
        self._shift_cache: dict[tuple[int, int], tuple[int, int]] = {}

    def bit(self, x: int, y: int) -> int:
        return (y + self.radius) * self.width + (x + self.radius)

    def _shift(self, vec: tuple[int, int]) -> tuple[int, int]:
        cached = self._shift_cache.get(vec)
        if cached is not None:
            return cached
        dx, dy = vec
        offset = dy * self.width + dx
        source_cols = 0
        for x in range(-self.radius, self.radius + 1):
            if -self.radius <= x + dx <= self.radius:
                source_cols |= self._col << (x + self.radius)
        self._shift_cache[vec] = (offset, source_cols & self.full)
        return self._shift_cache[vec]

    def shift_set(self, bits: int, vec: tuple[int, int]) -> int:
        offset, source_cols = self._shift(vec)
        masked = bits & source_cols
        if offset >= 0:
            return (masked << offset) & self.full
        return masked >> -offset

    def close(self, generators) -> int:
        bits = 0
        for v in generators:
            if abs(v[0]) <= self.radius and abs(v[1]) <= self.radius:
                bits |= 1 << self.bit(*v)
        while True:
            new = bits
            for v in generators:
                new |= self.shift_set(bits, v)
            if new == bits:
                return bits
            bits = new

    def covers_ball(self, bits: int, ball_radius: int) -> bool:
        for x in range(-ball_radius, ball_radius + 1):
            for y in range(-ball_radius + abs(x), ball_radius - abs(x) + 1):
                if not bits >> self.bit(x, y) & 1:
                    return False
        return True

    def points(self, bits: int) -> set[tuple[int, int]]:
        out = set()
        for x in range(-self.radius, self.radius + 1):
            for y in range(-self.radius, self.radius + 1):
                if bits >> self.bit(x, y) & 1:
                    out.add((x, y))
        return out


def set_closure_z2(generators, window: int) -> set[tuple[int, int]]:
    """Plain set-based BFS closure, the oracle for the bitmask oracle."""
    gens = [v for v in generators
            if abs(v[0]) <= window and abs(v[1]) <= window]
    reached = set(gens)
    frontier = list(gens)
    while frontier:
        x = frontier.pop()
        for g in gens:
            z = (x[0] + g[0], x[1] + g[1])
            if z not in reached and abs(z[0]) <= window and abs(z[1]) <= window:
                reached.add(z)
                frontier.append(z)
    return reached


# ---------------------------------------------------------------------------
# Closure on group elements

def worklist_closure(gens: list[GroupElement], budget
                     ) -> tuple[set[GroupElement], bool, int]:
    """The closure's steps on group elements, every pair tried from both
    sides: elements, exhausted and products_performed for closure() to
    replay exactly."""
    radius = budget.radius
    seed = sorted({g for g in gens if word_length_within(g, radius) is not None},
                  key=canonical_key)
    elements: set[GroupElement] = set(seed)
    partners = [(canonical_key(g), g) for g in seed]
    worklist = deque(seed)
    products = 0
    truncated = False
    while worklist:
        if len(elements) >= budget.max_elements or products >= budget.max_products:
            truncated = True
            break
        x = worklist.popleft()
        for _, y in partners[:]:
            for z in (multiply(x, y), multiply(y, x)):
                products += 1
                if z in elements:
                    continue
                if word_length_within(z, radius) is None:
                    continue
                elements.add(z)
                worklist.append(z)
                insort(partners, (canonical_key(z), z))
            if products >= budget.max_products or len(elements) >= budget.max_elements:
                truncated = True
                break
        if truncated:
            break
    return elements, not truncated and not worklist, products


# ---------------------------------------------------------------------------
# Free-group cancellation

def cancel(x: GroupElement, y: GroupElement) -> int:
    """Number of letters cancelled in the product of reduced words x * y,
    the count cancellation_experiment takes on whole arrays of words."""
    u, v = x.payload, y.payload
    c = 0
    while c < min(len(u), len(v)) and u[len(u) - 1 - c] == -v[c]:
        c += 1
    return c


def whole_array_cancellation_experiment(d, trials, pool, seed,
                                        lengths=(16, 64, 256)):
    """cancellation_experiment on whole arrays: each chunk holds all its
    words as letters and gathers the rows of each pool word's trials."""
    words = [np.array(tuple(w), dtype=np.int16) for w in pool]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    rows = []
    for s in lengths:
        exceed = 0
        done = 0
        while done < trials:
            batch = min(CANCEL_CHUNK, trials - done)
            xs = random_reduced_words(d, s, batch, rng)
            which = rng.integers(0, len(words), size=batch)
            cancels = np.zeros(batch, dtype=np.int64)
            for wi, w in enumerate(words):
                mask = which == wi
                if not mask.any():
                    continue
                sub = xs[mask]
                m = min(s, len(w))
                # sub[:, s-1-t] must equal -w[t] for all t < cancel
                agree = sub[:, s - 1 - np.arange(m)] == -w[: m]
                cancels[mask] = np.logical_and.accumulate(agree, axis=1).sum(axis=1)
            exceed += int((cancels > math.log2(s)).sum())
            done += batch
        rows.append(ExceedanceRow(s, trials, exceed))
    return CancellationSample(tuple(rows))


# ---------------------------------------------------------------------------
# The level walk on full arrays

def full_array_excursion_estimate(d: int, excursions: int, seed: int) -> float:
    """return_excursion_estimate over arrays of every excursion, finished
    ones masked out rather than dropped."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    two_d = 2 * d
    threshold = np.uint64(round(Fraction(two_d - 1, two_d) * (1 << 64)))
    level = np.zeros(excursions, dtype=np.int32)
    active = np.ones(excursions, dtype=bool)
    returned = np.zeros(excursions, dtype=bool)
    while active.any():
        n = int(active.sum())
        ups = rng.integers(0, 1 << 64, size=n, dtype=np.uint64) < threshold
        steps = np.where(ups, np.int32(1), np.int32(-1))
        level[active] += steps
        hit = active & (level < 0)
        returned |= hit
        active &= (level >= 0) & (level < EXCURSION_CUTOFF)
    return float(returned.mean())


# ---------------------------------------------------------------------------
# Trace files and prefix counts

def read_trace(path) -> WalkTrace:
    """Parse walks.write_trace output back into the trace."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# trace "):
        raise ValueError(f"{path}: missing trace header")
    fields = dict(part.split("=", 1) for part in lines[0][8:].split()
                  if "=" in part)
    descriptor = parse_descriptor(fields["group"])
    seed = int(fields["seed"])
    steps = int(fields["steps"])
    body = [line for line in lines[1:] if line and not line.startswith("#")]
    if len(body) != steps:
        raise ValueError(f"{path}: header says {steps} steps, found {len(body)}")
    increments = [parse_element(descriptor, line) for line in body]
    return trace_from_increments(descriptor, seed, increments)


def quadratic_prefix_counts(trace) -> dict[int, int]:
    """Distinct length-j prefixes by scanning every position's prefixes."""
    by_depth: dict[int, set] = {}
    for x in trace.positions:
        word = x.payload
        for j in range(1, len(word) + 1):
            by_depth.setdefault(j, set()).add(word[:j])
    return {j: len(s) for j, s in by_depth.items()}


# ---------------------------------------------------------------------------
# '#'-metadata CSV through the csv module

def csv_module_write(path, meta: dict, header: list[str], rows) -> None:
    """The bytes manifest.write_csv must write: sorted '# key=value' lines,
    then the header and rows through csv.writer's default dialect."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {key}={meta[key]}\n" for key in sorted(meta))
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
