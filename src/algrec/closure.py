"""Budget-bounded semigroup closure and inverse-witness reports.

The closure saturates pairwise products: every member x is paired with the
members present when x is popped, on both sides, and products are kept while
their word length stays within the budget radius. At exhaustion the element
set is therefore closed under products of any two members that land inside
the radius, which subsumes closure under the generators themselves.

The saturation runs on integer ids. A store per descriptor and radius,
shared across calls and threads, interns each in-ball payload once, in
first-seen order, with its canonical key (its text form) and its element;
reads take no lock and inserts take the store's lock. Products are computed
on payloads through the descriptor, and the in-ball test is the
descriptor's ``length_within`` on the payload, so no element is built per
product.

The steps are fixed: seed with the distinct in-ball generators in canonical
order, pop FIFO, pair the popped x with a snapshot of the members taken in
canonical-key order, try x*y then y*x for each partner y, counting both
products, and check the budgets before each pop and after each partner. The
product budget is checked by cutting the snapshot at the partner that
reaches it.

Each unordered pair is multiplied once. Number the members j = 0, 1, ... in
join order, which is also pop order, and let snap[y] be the member count
when y was popped. If x's partner y has j(y) < j(x) < snap[y], x was in y's
snapshot, so y's pop already made the same two products. Each of them then
became a member or lay outside the ball, and stays so: the retry cannot
change the members, so it is counted but not computed. As snap only grows,
these partners are those with t <= j(y) < j(x) for one bisected t. An
exhausted closure of k elements thus multiplies k(k+1) times: x*y and y*x
once for each pair of distinct members, and x*x twice.

Balls of at most ``_MEMO_MAX_BALL`` elements also keep every product pair
on the store, filled on demand, so the many tails of a survey share their
work. Larger balls keep none: different tails share few pairs there. On F_5
at r = 4 (8,201 elements), the 200-step tails of seeds 1-100 reused 3 % of
their 240k pairs, and a memo of them raised peak RSS from 35 to 58 MB.
"""

from __future__ import annotations

import enum
import threading
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Sequence

from .groups import (
    GroupDescriptor,
    GroupElement,
    ball_size,
    canonical_key,
    format_element,
    invert,
    multiply,
    word_length_within,
)
from .walks import TriePositions, WalkTrace

#: Largest ball, in elements, whose products the store memoises.
_MEMO_MAX_BALL = 512


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


class _Store:
    """Ids for the in-ball payloads of one group and radius, in first-seen
    order, with their canonical keys and elements, and for balls of at most
    ``_MEMO_MAX_BALL`` elements the products found so far."""

    def __init__(self, desc: GroupDescriptor, radius: int):
        self.desc, self.radius = desc, radius
        self.ids: dict[Any, int] = {}
        self.payloads: list[Any] = []
        self.keys: list[str] = []
        self.elements: list[GroupElement] = []
        self.lock = threading.Lock()
        #: rows[a][b] is products(a, b), kept only for small balls
        self.rows: dict[int, dict[int, tuple[int, int]]] = {}
        self.memoise = ball_size(desc, radius) <= _MEMO_MAX_BALL

    def id_of(self, p: Any) -> int:
        """The id of payload p, interned on first sight, or -1 outside the
        ball. Of threads that intern p at once, the first to lock wins."""
        i = self.ids.get(p)
        if i is not None:
            return i
        if self.desc.length_within(p, self.radius) is None:
            return -1
        with self.lock:
            i = self.ids.get(p)
            if i is None:
                i = len(self.payloads)
                self.payloads.append(p)
                self.keys.append(self.desc.format(p))
                self.elements.append(GroupElement(self.desc, p))
                self.ids[p] = i  # published last, for lock-free readers
        return i

    def products(self, a: int, b: int) -> tuple[int, int]:
        """The ids of a*b and b*a."""
        p, q = self.payloads[a], self.payloads[b]
        mul = self.desc.mul
        pair = self.id_of(mul(p, q)), self.id_of(mul(q, p))
        if self.memoise:
            self.rows.setdefault(a, {})[b] = pair
        return pair


_STORES: dict[tuple[GroupDescriptor, int], _Store] = {}
_STORES_LOCK = threading.Lock()


def _store(desc: GroupDescriptor, radius: int) -> _Store:
    store = _STORES.get((desc, radius))
    if store is None:
        with _STORES_LOCK:
            store = _STORES.setdefault((desc, radius), _Store(desc, radius))
    return store


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
    store = _store(desc, budget.radius)
    products_of, rows, keys = store.products, store.rows, store.keys
    ids = sorted({store.id_of(g.payload) for g in gens} - {-1},
                 key=keys.__getitem__)  # members' ids, in join order
    members = {-1, *ids}  # -1, outside the ball, reads as already a member
    partners = [(keys[z], j, z) for j, z in enumerate(ids)]
    snap: list[int] = []  # member count at each pop, in join order
    max_elements, max_products = budget.max_elements, budget.max_products
    count, products = len(ids), 0
    truncated = False
    while len(snap) < count:
        if count >= max_elements or products >= max_products:
            truncated = True
            break
        jx = len(snap)
        x = ids[jx]
        row = rows.get(x, {})
        t = bisect_right(snap, jx)  # y's pop saw x exactly when t <= j(y) < jx
        snap.append(count)
        # Partners visited before the product budget runs out; each counts 2.
        snapshot = partners[:(max_products - products + 1) // 2]
        visits = len(snapshot)
        for key, jy, y in snapshot:
            if jy < t or jy >= jx:
                for z in row.get(y) or products_of(x, y):
                    if z not in members:
                        members.add(z)
                        insort(partners, (keys[z], count, z))
                        ids.append(z)
                        count += 1
                if count >= max_elements:
                    visits = bisect_left(snapshot, (key,)) + 1
                    break
        products += 2 * visits
        if products >= max_products or count >= max_elements:
            truncated = True
            break
    elements = store.elements
    return ClosureResult(desc, frozenset(elements[z] for z in ids),
                         budget.radius, not truncated, products, generator_range)


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
