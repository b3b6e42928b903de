"""Budget-bounded semigroup closure and inverse-witness reports.

The closure worklist saturates pairwise products: every popped element is
multiplied on both sides against the current element set, and products are
retained while their word length stays within the budget radius. At
exhaustion the element set is therefore closed under products of any two
members that land inside the radius, which subsumes closure under the
generators themselves.

``closure`` runs one of two engines, chosen by the size of the radius ball:

- the ball table, for balls of at most ``_TABLE_MAX_BALL`` elements. Once
  per group and radius, the ball is enumerated in canonical order and its
  product table on integer indices (-1 where a product leaves the ball) is
  built with its transpose and cached for the process. The engine then
  saturates on indices without building, hashing or measuring an element;
- the worklist on group elements, for larger balls. It keeps its partners
  sorted with their text keys computed once per element.

Both engines run the same steps: seed with the distinct in-ball generators in
canonical order, pop FIFO, pair the popped x with a snapshot of the members
in canonical order, try x*y then y*x for each partner y, counting every
product, and check the budgets before each pop and after each partner. The
table engine is an exact replay of the worklist, so elements, ``exhausted``
and ``products_performed`` agree between them for truncated runs too.
"""

from __future__ import annotations

import enum
import threading
from bisect import insort
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Sequence

from .groups import (
    GroupDescriptor,
    GroupElement,
    ball_elements,
    ball_size,
    canonical_key,
    format_element,
    invert,
    multiply,
    word_length_within,
)
from .walks import TriePositions, WalkTrace

#: Largest ball, in elements, whose product table the closure builds; a
#: table of n elements holds 2n^2 indices.
_TABLE_MAX_BALL = 512


class Membership(enum.Enum):
    PRESENT = "Present"
    ABSENT_WITHIN_BUDGET = "AbsentWithinBudget"
    UNKNOWN = "Unknown"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ClosureBudget:
    """Caps for a closure run: retained word length, set size, work."""

    radius: int
    max_elements: int = 100_000
    max_products: int = 2_000_000

    def __post_init__(self) -> None:
        if self.radius < 1 or self.max_elements < 1 or self.max_products < 1:
            raise ValueError("budget fields must be positive")


@dataclass(frozen=True)
class ClosureResult:
    descriptor: GroupDescriptor
    elements: frozenset[GroupElement]
    radius: int
    exhausted: bool
    products_performed: int
    generator_range: tuple[int, int] | None = None

    @cached_property
    def sorted_elements(self) -> tuple[GroupElement, ...]:
        return tuple(sorted(self.elements, key=canonical_key))


def closure(generators: Sequence[GroupElement],
            budget: ClosureBudget,
            generator_range: tuple[int, int] | None = None) -> ClosureResult:
    """Saturate products of the generators within the budget.

    Only generators whose word length fits the radius seed the worklist;
    products are kept while their word length stays within the radius.
    Deterministic: the worklist is FIFO and partners are visited in
    canonical element order.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    desc = gens[0].descriptor
    if any(g.descriptor != desc for g in gens):
        raise ValueError("generators must share one descriptor")
    if budget.radius > desc.length_cap:
        raise ValueError(
            f"radius {budget.radius} exceeds BFS word-length cap "
            f"{desc.length_cap} for {desc}")
    if ball_size(desc, budget.radius) <= _TABLE_MAX_BALL:
        elements, exhausted, products = _table_closure(
            _ball_table(desc, budget.radius), gens, budget)
    else:
        elements, exhausted, products = _worklist_closure(gens, budget)
    return ClosureResult(desc, frozenset(elements), budget.radius,
                         exhausted, products, generator_range)


def _worklist_closure(gens: list[GroupElement], budget: ClosureBudget
                      ) -> tuple[set[GroupElement], bool, int]:
    """The closure on group elements, for balls too large to tabulate."""
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


@dataclass(frozen=True)
class _BallTable:
    """ball(r) in canonical order and its product table on indices."""

    elements: list[GroupElement]
    #: payload -> index into ``elements``
    index: dict[Any, int]
    #: rows[i][j] is the index of elements[i] * elements[j], or -1 outside
    #: the ball; cols[i][j] is that of elements[j] * elements[i].
    rows: list[tuple[int, ...]]
    cols: list[tuple[int, ...]]


_TABLE_CACHE: dict[tuple[GroupDescriptor, int], _BallTable] = {}
_TABLE_LOCK = threading.Lock()


def _ball_table(desc: GroupDescriptor, radius: int) -> _BallTable:
    """The cached product table of ball(radius). Reads take no lock; the
    first finished table for a key is the one every thread keeps."""
    key = (desc, radius)
    table = _TABLE_CACHE.get(key)
    if table is not None:
        return table
    elements = ball_elements(desc, radius)
    payloads = [g.payload for g in elements]
    index = {p: i for i, p in enumerate(payloads)}
    mul = desc.mul
    rows = [tuple(index.get(mul(p, q), -1) for q in payloads) for p in payloads]
    table = _BallTable(elements, index, rows, list(zip(*rows)))
    with _TABLE_LOCK:
        return _TABLE_CACHE.setdefault(key, table)


def _table_closure(table: _BallTable, gens: list[GroupElement],
                   budget: ClosureBudget) -> tuple[list[GroupElement], bool, int]:
    """The worklist closure replayed on ball indices; same steps, same result."""
    index = table.index
    seed = sorted({index[g.payload] for g in gens if g.payload in index})
    # One slot past the ball, always set: a product outside the ball (-1)
    # reads as already present.
    member = bytearray(len(table.elements) + 1)
    member[-1] = 1
    for i in seed:
        member[i] = 1
    partners = list(seed)
    worklist = deque(seed)
    max_elements, max_products = budget.max_elements, budget.max_products
    products = 0
    truncated = False
    while worklist:
        if len(partners) >= max_elements or products >= max_products:
            truncated = True
            break
        x = worklist.popleft()
        row, col = table.rows[x], table.cols[x]
        for y in partners[:]:
            products += 2
            for z in (row[y], col[y]):
                if not member[z]:
                    member[z] = 1
                    worklist.append(z)
                    insort(partners, z)
            if products >= max_products or len(partners) >= max_elements:
                truncated = True
                break
        if truncated:
            break
    return ([table.elements[i] for i in partners],
            not truncated and not worklist, products)


def contains(result: ClosureResult, g: GroupElement) -> Membership:
    """Tri-state membership of g in the truncated closure."""
    if g.descriptor != result.descriptor:
        raise ValueError("descriptor mismatch")
    if g in result.elements:
        return Membership.PRESENT
    if result.exhausted and word_length_within(g, result.radius) is not None:
        return Membership.ABSENT_WITHIN_BUDGET
    return Membership.UNKNOWN


def coverage_fraction(result: ClosureResult, radius: int) -> Fraction:
    """|elements within the radius-r ball| / |ball(r)|, exact."""
    if radius < 0 or radius > result.radius:
        raise ValueError(f"coverage radius {radius} outside 0..{result.radius}")
    hits = sum(1 for g in result.elements
               if word_length_within(g, radius) is not None)
    return Fraction(hits, ball_size(result.descriptor, radius))


@dataclass(frozen=True)
class WitnessRow:
    index: int
    membership: Membership
    position_length: int | None


@dataclass(frozen=True)
class InverseWitnessReport:
    """Per-index membership of X_i^-1 in the closure of the walk tail."""

    closure_result: ClosureResult
    rows: tuple[WitnessRow, ...]

    @property
    def present(self) -> int:
        return sum(1 for r in self.rows if r.membership is Membership.PRESENT)

    @property
    def absent(self) -> int:
        return sum(1 for r in self.rows
                   if r.membership is Membership.ABSENT_WITHIN_BUDGET)

    @property
    def unknown(self) -> int:
        return sum(1 for r in self.rows if r.membership is Membership.UNKNOWN)

    @property
    def present_fraction(self) -> Fraction:
        """Fraction Present over all reported indices."""
        return Fraction(self.present, len(self.rows)) if self.rows else Fraction(0)

    @property
    def present_fraction_decided(self) -> Fraction:
        """Fraction Present among indices decided either way within budget."""
        decided = self.present + self.absent
        return Fraction(self.present, decided) if decided else Fraction(0)


def tail_within(tail: Sequence[GroupElement], radius: int
                ) -> tuple[list[int | None], list[GroupElement]]:
    """Each tail position's word length if it is <= radius, else None, and
    the closure generators: the in-ball positions, or the first position
    when none is in the ball (the closure then seeds nothing).

    Free-group lengths are trie depths, so only in-ball words are built.
    """
    if isinstance(tail, TriePositions):
        lengths = [n if n <= radius else None for n in tail.lengths()]
    else:
        lengths = [word_length_within(x, radius) for x in tail]
    inside = [tail[i] for i, n in enumerate(lengths) if n is not None]
    return lengths, inside or list(tail[:1])


def inverse_witness_report(trace: WalkTrace, n: int,
                           budget: ClosureBudget) -> InverseWitnessReport:
    """Close the tail {X_n..X_N} and test each X_i^-1 for membership.

    Word length is invariant under inversion in every family, so a position
    outside the radius has its inverse outside it too: neither in the
    closure nor decidable within the ball, that row is Unknown.
    """
    if not 1 <= n <= len(trace):
        raise ValueError(f"tail index {n} outside 1..{len(trace)}")
    tail = trace.positions[n - 1:]
    lengths, generators = tail_within(tail, budget.radius)
    result = closure(generators, budget, generator_range=(n, len(trace)))
    rows = []
    for i, length in enumerate(lengths):
        member = (Membership.UNKNOWN if length is None
                  else contains(result, invert(tail[i])))
        rows.append(WitnessRow(n + i, member, length))
    return InverseWitnessReport(result, tuple(rows))


# ---------------------------------------------------------------------------
# Text output

def write_closure_dump(result: ClosureResult, path: str | Path,
                       meta: dict | None = None) -> None:
    """Sorted canonical element list, one per line, with a header line."""
    gen_range = result.generator_range or ("-", "-")
    header = (f"# closure group={result.descriptor} generators={gen_range[0]}..{gen_range[1]} "
              f"radius={result.radius} exhausted={result.exhausted} "
              f"products={result.products_performed} count={len(result.elements)}")
    lines = [header]
    for key in sorted(meta or {}):
        lines.append(f"# {key}={meta[key]}")
    lines.extend(format_element(g) for g in result.sorted_elements)
    Path(path).write_text("\n".join(lines) + "\n")


def write_witness_report_csv(report: InverseWitnessReport, path: str | Path,
                             meta: dict | None = None) -> None:
    """CSV rows (i, membership of X_i^-1, word length of X_i or blank)."""
    lines = []
    for key in sorted(meta or {}):
        lines.append(f"# {key}={meta[key]}")
    summary = (f"# present={report.present} absent={report.absent} "
               f"unknown={report.unknown}")
    lines.append(summary)
    lines.append("i,membership,word_length")
    for row in report.rows:
        wl = "" if row.position_length is None else row.position_length
        lines.append(f"{row.index},{row.membership},{wl}")
    Path(path).write_text("\n".join(lines) + "\n")


def brute_force_abelian_closure(generators: Iterable[GroupElement],
                                radius: int) -> frozenset[GroupElement]:
    """Independent oracle for Z and Z/m closures.

    Dynamic programming over products of ever more factors, with
    intermediates allowed a wider window than the retained radius, iterated
    to a fixpoint and restricted to the radius ball at the end.
    """
    gens = [g for g in generators
            if word_length_within(g, radius) is not None]
    if not gens:
        return frozenset()
    desc = gens[0].descriptor
    if desc.kind not in ("ZPower", "CyclicZ"):
        raise ValueError("oracle only supports ZPower and CyclicZ")
    max_gen = max(word_length_within(g, radius) for g in gens)
    window = radius + max_gen
    current = set(gens)
    while True:
        new = set()
        for x in current:
            for g in gens:
                z = multiply(x, g)
                if z not in current and word_length_within(z, window) is not None:
                    new.add(z)
        if not new:
            break
        current |= new
    return frozenset(g for g in current
                     if word_length_within(g, radius) is not None)
