"""Budget-bounded semigroup closure and inverse-witness reports.

``inverse_witness_report`` is the one path from a walk to its tail's
closure: the CLI's closure, ar-estimate and free-stats commands all close
a seed's tail through it. A witness report keeps its rows as columns, the
memberships and the word lengths, and builds row tuples only when ``rows``
is read; a survey only tallies the memberships.

The closure saturates pairwise products: every member x is paired with the
members present when x is popped, on both sides, and products are kept while
their word length stays within the budget radius. At exhaustion the element
set is therefore closed under products of any two members that land inside
the radius, which subsumes closure under the generators themselves.

The saturation runs on integer ids. A store per descriptor and radius,
shared across calls, interns each in-ball payload once, in first-seen
order, with its canonical key (its text form) and its element. Products are
computed on payloads through the descriptor, so no element is built per
product. A family with a reach index (F_d) multiplies length-first with
``mul_within``, which builds only the words that fit the radius; the others
look each product up before testing its closed-form ``length``.

The steps are fixed: seed with the distinct in-ball generators in canonical
order, pop FIFO, pair the popped x with a snapshot of the members taken in
canonical-key order, try x*y then y*x for each partner y, counting both
products, and check the budgets before each pop and after each partner. The
product budget is checked by cutting the snapshot at the partner that
reaches it.

Each unordered pair is multiplied at most once. Number the members
j = 0, 1, ... in join order, which is also pop order, and let snap[y] be the
member count when y was popped. If x's partner y has j(y) < j(x) < snap[y],
x was in y's snapshot, so y's pop already made the same two products. Each
of them then became a member or lay outside the ball, and stays so: the
retry cannot change the members, so it is counted but not computed. As snap
only grows, these partners are those with t <= j(y) < j(x) for one bisected
t.

On F_d a pair is also counted but not computed when neither product can
land in the ball. A reduced product has length |x| + |y| - 2c, where c
letters cancel, so for |x| = n, |y| = m and c = ceil((n + m - r) / 2),
x*y lands exactly when y begins with the first c letters of x^-1, and y*x
exactly when y ends with the last c letters of x^-1; if c <= 0 both land.
The store keeps, as compact ints, the reach buckets of each payload
(``Free.reach_keys``): those it joins, by its length and by its prefixes
and suffixes of up to ceil(m / 2) letters, and the at most 2r + 1 that hold
its partners in reach. Each closure files its members in the buckets they
join, and a pop visits the union of its buckets in snapshot order, so no
partner out of reach is visited at all. A product outside the ball reads as
a member already, so skipping the pair changes no member, no join order and
no count. On F_5 at r = 4 the 200-step tail of seed 30 multiplies 23,446
times against k(k+1) = 327,756 for its k members, and that of seed 28
4,584 times against 96,410.

Once the member count reaches the ball size, no product can join: the pop
in progress stops multiplying, and each later pop only counts its
snapshot, 2 min(count, cut) products, visiting no partner. Members, join
order, product count and truncation stay those of the full loop. Survey
tails fill small balls often: in one pass of the benchmark's ar-survey
workload (seed 5), 7 of 32 Heisenberg closures filled the 135-element
r = 4 ball, at up to 34,966 counted products, and 6 of 16 lamplighter
closures the 44-element one.

An exhausted closure of k elements multiplies at most k(k+1) times
(x*y and y*x once for each pair of distinct members, and x*x twice). Off
F_d it multiplies exactly that often unless the memo below supplies a
product or the members fill the ball.

Balls of at most ``_MEMO_MAX_BALL`` elements also keep every product pair
on the store, filled on demand, so the many tails of a survey share their
work. Larger balls keep none: different tails share few pairs there. On F_5
at r = 4 (8,201 elements), the 200-step tails of seeds 1-100 reused 3 % of
their 240k pairs, and a memo of them raised peak RSS from 35 to 58 MB.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Sequence

from .groups import (
    CyclicZ,
    GroupDescriptor,
    GroupElement,
    ZPower,
    ball_size,
    canonical_key,
    format_element,
    invert,
    multiply,
    word_length_within,
)
from .manifest import metadata_lines
from .walks import WalkTrace

#: Largest ball, in elements, whose products the store memoises.
_MEMO_MAX_BALL = 512


class Membership(enum.Enum):
    """Membership in a truncated closure. AbsentWithinBudget means "not
    reached by products that stay in the radius ball", not "decided
    absent": outside Z, products that leave the ball may reach it."""

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
    order, with their canonical keys, elements and, for families that have
    a reach index (F_d), the buckets each id joins and looks up, and for
    balls of at most ``_MEMO_MAX_BALL`` elements the products found so
    far."""

    def __init__(self, desc: GroupDescriptor, radius: int):
        self.desc, self.radius = desc, radius
        self.ids: dict[Any, int] = {}
        self.payloads: list[Any] = []
        self.keys: list[str] = []
        self.elements: list[GroupElement] = []
        #: joins[i] and looks[i] are id i's reach buckets, as compact ints
        self.joins: list[tuple[int, ...]] | None = (
            None if desc.reach_keys is None else [])
        self.looks: list[tuple[int, ...]] = []
        self.buckets: dict[Any, int] = {}  # reach bucket -> its compact int
        #: rows[a][b] is products(a, b), kept only for small balls
        self.rows: dict[int, dict[int, tuple[int, int]]] = {}
        self.size = ball_size(desc, radius)
        self.memoise = self.size <= _MEMO_MAX_BALL

    def id_of(self, p: Any) -> int:
        """Payload p's id, interned on first sight; -1 outside the ball or
        for None, which ``mul_within`` returns there."""
        i = self.ids.get(p)
        if i is not None:
            return i
        if p is None or self.desc.length(p) > self.radius:
            return -1
        i = self.ids[p] = len(self.payloads)
        self.payloads.append(p)
        self.keys.append(self.desc.format(p))
        self.elements.append(GroupElement(self.desc, p))
        if self.joins is not None:
            buckets = self.buckets
            joins, looks = self.desc.reach_keys(p, self.radius)
            self.joins.append(tuple(
                buckets.setdefault(b, len(buckets)) for b in joins))
            self.looks.append(tuple(
                buckets.setdefault(b, len(buckets)) for b in looks))
        return i

    def products(self, a: int, b: int) -> tuple[int, int]:
        """The ids of a*b and b*a: length-first for families with a reach
        index, else looked up before the length test, which costs those
        families one closed-form length per product not yet in the store."""
        p, q = self.payloads[a], self.payloads[b]
        id_of = self.id_of
        if self.joins is None:
            mul = self.desc.mul
            pair = id_of(mul(p, q)), id_of(mul(q, p))
        else:
            mul, radius = self.desc.mul_within, self.radius
            pair = id_of(mul(p, q, radius)), id_of(mul(q, p, radius))
        if self.memoise:
            self.rows.setdefault(a, {})[b] = pair
        return pair


_STORES: dict[tuple[GroupDescriptor, int], _Store] = {}


def _store(desc: GroupDescriptor, radius: int) -> _Store:
    store = _STORES.get((desc, radius))
    if store is None:
        store = _STORES[desc, radius] = _Store(desc, radius)
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
    store = _store(desc, budget.radius)
    products_of, rows, keys = store.products, store.rows, store.keys
    joins, looks = store.joins, store.looks
    ids = sorted({store.id_of(g.payload) for g in gens} - {-1},
                 key=keys.__getitem__)  # members' ids, in join order
    members = {-1, *ids}  # -1, outside the ball, reads as already a member
    # Without a reach index every member is a partner, kept in key order;
    # with one, each member sits in the buckets it joins, in join order.
    partners: list[tuple[str, int, int]] = []
    index: defaultdict[int, list[tuple[str, int, int]]] = defaultdict(list)
    for j, z in enumerate(ids):
        entry = (keys[z], j, z)
        if joins is None:
            partners.append(entry)
        else:
            for b in joins[z]:
                index[b].append(entry)
    snap: list[int] = []  # member count at each pop, in join order
    max_elements, max_products = budget.max_elements, budget.max_products
    full = store.size  # at this count no product can join
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
        # The snapshot is the members, in key order, cut at the partner
        # that reaches the product budget; each partner in it counts 2.
        cut = (max_products - products + 1) // 2
        visits = count if count < cut else cut
        if count == full:
            visit = ()
        elif joins is None:
            visit = partners[:cut]
        else:  # the partners of the snapshot with a product in the ball
            visit = sorted({e for b in looks[x] if b in index
                            for e in index[b]})
            if cut < count:
                last = sorted(map(keys.__getitem__, ids))[cut]
                visit = visit[:bisect_left(visit, (last,))]
        for key, jy, y in visit:
            if jy < t or jy >= jx:
                for z in row.get(y) or products_of(x, y):
                    if z not in members:
                        members.add(z)
                        entry = (keys[z], count, z)
                        if joins is None:
                            insort(partners, entry)
                        else:
                            for b in joins[z]:
                                index[b].append(entry)
                        ids.append(z)
                        count += 1
                if count >= max_elements:  # count the snapshot up to y
                    visits = sum(keys[w] < key for w in ids[:snap[-1]]) + 1
                    break
                if count == full:
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


class WitnessRow(NamedTuple):
    index: int
    membership: Membership
    position_length: int | None


@dataclass(frozen=True)
class InverseWitnessReport:
    """Per-index membership of X_i^-1 in the closure of the walk tail, kept
    as columns: row k is index start + k, memberships[k] and lengths[k],
    the word length of X_i or None outside the radius."""

    closure_result: ClosureResult
    start: int
    memberships: tuple[Membership, ...]
    lengths: tuple[int | None, ...]

    @cached_property
    def rows(self) -> tuple[WitnessRow, ...]:
        """The columns as rows, built on first use."""
        return tuple(map(WitnessRow, range(self.start, self.start + len(
            self.memberships)), self.memberships, self.lengths))

    @cached_property
    def _tally(self) -> dict[Membership, int]:
        return {m: self.memberships.count(m) for m in Membership}

    @property
    def present(self) -> int:
        return self._tally[Membership.PRESENT]

    @property
    def absent(self) -> int:
        return self._tally[Membership.ABSENT_WITHIN_BUDGET]

    @property
    def unknown(self) -> int:
        return self._tally[Membership.UNKNOWN]

    @property
    def present_fraction(self) -> Fraction:
        """Fraction Present over all reported indices."""
        total = len(self.memberships)
        return Fraction(self.present, total) if total else Fraction(0)

    @property
    def present_fraction_decided(self) -> Fraction:
        """Fraction Present among rows Present or AbsentWithinBudget."""
        decided = self.present + self.absent
        return Fraction(self.present, decided) if decided else Fraction(0)


def inverse_witness_report(trace: WalkTrace, n: int,
                           budget: ClosureBudget) -> InverseWitnessReport:
    """Close the tail {X_n..X_N} and test each X_i^-1 for membership.

    The closure's generators are the distinct in-ball tail positions in
    first-seen order, or the first position when none is in the ball (the
    closure then seeds nothing). Word length is invariant under inversion in
    every family, so a position outside the radius has its inverse outside
    it too: neither in the closure nor decidable within the ball, that row
    is Unknown. Lengths come from the positions' ``lengths()``, only the
    distinct in-ball positions are built as elements, and each is decided
    once, by ``contains``; its other rows reuse that verdict.
    """
    if not 1 <= n <= len(trace):
        raise ValueError(f"tail index {n} outside 1..{len(trace)}")
    tail = trace.positions[n - 1:]
    lengths = [k if k <= budget.radius else None for k in tail.lengths()]
    payload, desc = tail.payload, tail.descriptor
    inside = dict.fromkeys(payload(i) for i, k in enumerate(lengths)
                           if k is not None)
    generators = [GroupElement(desc, p) for p in inside] or list(tail[:1])
    result = closure(generators, budget, generator_range=(n, len(trace)))
    verdicts = {g.payload: contains(result, invert(g)) for g in generators}
    unknown = Membership.UNKNOWN
    members = [unknown if length is None else verdicts[payload(i)]
               for i, length in enumerate(lengths)]
    return InverseWitnessReport(result, n, tuple(members), tuple(lengths))


# ---------------------------------------------------------------------------
# Text output

def write_closure_dump(result: ClosureResult, path: str | Path,
                       meta: dict | None = None) -> None:
    """Sorted canonical element list, one per line, with a header line."""
    gen_range = result.generator_range or ("-", "-")
    header = (f"# closure group={result.descriptor} generators={gen_range[0]}..{gen_range[1]} "
              f"radius={result.radius} exhausted={result.exhausted} "
              f"products={result.products_performed} count={len(result.elements)}")
    lines = [header, *metadata_lines(meta)]
    lines.extend(format_element(g) for g in result.sorted_elements)
    Path(path).write_text("\n".join(lines) + "\n")


def write_witness_report_csv(report: InverseWitnessReport, path: str | Path,
                             meta: dict | None = None) -> None:
    """CSV rows (i, membership of X_i^-1, word length of X_i or blank)."""
    lines = metadata_lines(meta)
    summary = (f"# present={report.present} absent={report.absent} "
               f"unknown={report.unknown}")
    lines.append(summary)
    lines.append("i,membership,word_length")
    for i, (membership, length) in enumerate(
            zip(report.memberships, report.lengths), start=report.start):
        wl = "" if length is None else length
        lines.append(f"{i},{membership.value},{wl}")
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
    if not isinstance(desc, (ZPower, CyclicZ)):
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
