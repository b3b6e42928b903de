"""Independent brute-force oracles used to cross-check the implementations."""

from __future__ import annotations

from bisect import insort
from collections import deque

from algrec.groups import (
    GroupElement,
    canonical_key,
    heisenberg,
    multiply,
    word_length_within,
)

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
    return GroupElement(heisenberg(), (m[0][1], m[1][2], m[0][2]))


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
# Quadratic prefix recount

def quadratic_prefix_counts(trace) -> dict[int, int]:
    """Distinct length-j prefixes by scanning every position's prefixes."""
    by_depth: dict[int, set] = {}
    for x in trace.positions:
        word = x.payload
        for j in range(1, len(word) + 1):
            by_depth.setdefault(j, set()).add(word[:j])
    return {j: len(s) for j, s in by_depth.items()}
