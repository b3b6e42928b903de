"""Exact arithmetic for five concrete finitely generated groups: Z^d, free
groups F_d (d >= 2), the discrete Heisenberg group, the lamplighter group
over Z, and Z/m.

Each family is one ``GroupDescriptor`` subclass that owns its arithmetic,
generators, word lengths, ball sizes, abelian image and text form on raw
payloads; the module functions delegate to it. Elements are immutable and
carry one canonical payload, described in the family's class docstring.

Every family has a closed-form word length and an exact ball size, so any
element's length is known and no radius is out of range. ``ball_distances``
is the breadth-first reference they are checked against.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from functools import cache
from itertools import accumulate
from operator import add
from typing import Any, Callable, ClassVar, Iterable


class DescriptorMismatchError(ValueError):
    """Raised when an operation mixes elements of different groups."""


@dataclass(frozen=True)
class GroupDescriptor:
    """Identifies one group, a family plus its integer parameter if any, and
    implements that family on raw payloads.

    Subclasses define ``identity_payload``, ``generator_payloads``,
    ``canonicalize``, ``mul``, ``inv``, ``length`` (the word length, in
    closed form), ``ball_size``, ``abelian_image``, ``format`` and
    ``parse``. ``walk(steps)`` is the list of running products of a list of
    step payloads, by default an ``accumulate`` over ``mul``; the Heisenberg
    group and the lamplighter override it with a loop on ints that builds
    only the payloads it returns. F_d walks on a prefix trie instead.
    ``abelian_image(payload)`` is the homomorphism onto Z^k, the
    free part of the abelianisation, as a tuple of k ints: the identity on
    Z^d, the letter exponent sums on F_d, (a, b) on the Heisenberg group,
    (position,) on the lamplighter and () on Z/m. A family whose products
    have length |p| + |q| - 2c, c the number of cancelled letters (F_d),
    also defines ``reach_keys(payload, radius)``, the buckets of the
    closure's reach index that the payload joins and those it looks up,
    and ``mul_within(p, q, radius)``, the product if its length is at most
    radius, else None; the closure uses both to multiply only pairs with a
    product inside the ball.
    """

    #: Family name, as in the text form of the descriptor.
    kind: ClassVar[str]
    #: (payload, radius) -> (buckets joined, buckets looked up), or None.
    reach_keys: ClassVar[Callable[[Any, int], tuple[list, list]] | None] = None

    def __str__(self) -> str:
        params = ",".join(str(getattr(self, f.name)) for f in fields(self))
        return f"{self.kind}({params})" if params else self.kind

    def walk(self, steps: list) -> list:
        return list(accumulate(steps, self.mul))


@dataclass(frozen=True)
class ZPower(GroupDescriptor):
    """Z^d; payload: tuple of d ints. Word length is the l1 norm."""

    rank: int
    kind = "ZPower"

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("ZPower requires d >= 1")

    def canonicalize(self, payload: Any) -> tuple[int, ...]:
        coords = tuple(int(x) for x in payload)
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates")
        return coords

    @property
    def identity_payload(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def mul(self, p: tuple, q: tuple) -> tuple[int, ...]:
        return tuple(map(add, p, q))

    def inv(self, p: tuple) -> tuple[int, ...]:
        return tuple(-x for x in p)

    @property
    def generator_payloads(self) -> list[tuple[int, ...]]:
        d = self.rank
        return [tuple(sign if j == i else 0 for j in range(d))
                for i in range(d) for sign in (1, -1)]

    def length(self, p: tuple) -> int:
        return sum(map(abs, p))

    def ball_size(self, radius: int) -> int:
        d = self.rank
        return sum(2 ** k * math.comb(d, k) * math.comb(radius, k)
                   for k in range(0, min(d, radius) + 1))

    def abelian_image(self, p: tuple) -> tuple[int, ...]:
        return p

    def format(self, p: tuple) -> str:
        return "(" + ",".join(str(x) for x in p) + ")"

    def parse(self, s: str) -> tuple[int, ...]:
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError("expected (c1,...,cd)")
        inner = s[1:-1]
        return self.canonicalize([int(t) for t in inner.split(",")] if inner else [])


@dataclass(frozen=True)
class Free(GroupDescriptor):
    """F_d, d >= 2; payload: reduced word, a tuple of nonzero letters in
    {-d..-1, 1..d}. Word length is the word's length."""

    rank: int
    kind = "Free"
    identity_payload = ()

    def __post_init__(self) -> None:
        if self.rank < 2:
            raise ValueError("Free requires d >= 2")

    def canonicalize(self, letters: Iterable[int]) -> tuple[int, ...]:
        """Fully reduce a letter sequence of nonzero ints in +-1..+-d."""
        out: list[int] = []
        for raw in letters:
            s = int(raw)
            if s == 0 or abs(s) > self.rank:
                raise ValueError(f"letter {s} outside alphabet of rank {self.rank}")
            if out and out[-1] == -s:
                out.pop()
            else:
                out.append(s)
        return tuple(out)

    def mul(self, u: tuple, v: tuple) -> tuple[int, ...]:
        i, j, nv = len(u), 0, len(v)
        while i > 0 and j < nv and u[i - 1] == -v[j]:
            i -= 1
            j += 1
        return u[:i] + v[j:]

    def mul_within(self, u: tuple, v: tuple, radius: int) -> tuple[int, ...] | None:
        """Count the cancellation first; build the word only if it fits."""
        i, j, nv = len(u), 0, len(v)
        while i > 0 and j < nv and u[i - 1] == -v[j]:
            i -= 1
            j += 1
        return u[:i] + v[j:] if i + nv - j <= radius else None

    def reach_keys(self, p: tuple, radius: int) -> tuple[list, list]:
        """The reach-index buckets word p joins, and those that together
        hold exactly the words q of the radius ball for which p*q or q*p
        lies in it.

        A bucket is ("len", m), the words of length m, or ("pre", m, s) or
        ("suf", m, s), those whose first or last len(s) letters are s. For
        |p| = n and |q| = m, p*q has length n + m - 2k when k letters
        cancel, so it lands exactly when k >= c = ceil((n + m - radius) / 2):
        when q begins with the first c letters of p^-1. Likewise q*p lands
        exactly when q ends with the last c letters of p^-1, and c <= 0
        admits every q of length m. As n <= radius, c <= ceil(m / 2), so a
        word joins by its affixes of at most that many letters.
        """
        n, inv = len(p), self.inv(p)
        joins = [("len", n)]
        for c in range(1, (n + 1) // 2 + 1):
            joins += [("pre", n, p[:c]), ("suf", n, p[-c:])]
        looks = []
        for m in range(radius + 1):
            c = (n + m - radius + 1) // 2
            looks += ([("len", m)] if c <= 0
                      else [("pre", m, inv[:c]), ("suf", m, inv[-c:])])
        return joins, looks

    def inv(self, p: tuple) -> tuple[int, ...]:
        return tuple(-s for s in reversed(p))

    @property
    def generator_payloads(self) -> list[tuple[int]]:
        return [(s,) for i in range(1, self.rank + 1) for s in (i, -i)]

    def length(self, p: tuple) -> int:
        return len(p)

    def ball_size(self, radius: int) -> int:
        d = self.rank
        return 1 + d * ((2 * d - 1) ** radius - 1) // (d - 1)

    def abelian_image(self, p: tuple) -> tuple[int, ...]:
        """The exponent sum of each letter."""
        return tuple(p.count(i) - p.count(-i) for i in range(1, self.rank + 1))

    def format(self, p: tuple) -> str:
        if not p:
            return "e"
        return " ".join(f"x{s}" if s > 0 else f"X{-s}" for s in p)

    def parse(self, s: str) -> tuple[int, ...]:
        if s == "e":
            return ()
        letters = []
        for tok in s.split():
            if tok[0] == "x":
                letters.append(int(tok[1:]))
            elif tok[0] == "X":
                letters.append(-int(tok[1:]))
            else:
                raise ValueError(f"bad letter token {tok!r}")
        word = tuple(letters)
        if word != self.canonicalize(word):
            raise ValueError("word is not reduced")
        return word


@dataclass(frozen=True)
class Heisenberg(GroupDescriptor):
    """The discrete Heisenberg group; payload: integer triple (a, b, c) with
    (a1,b1,c1)*(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1*b2)."""

    kind = "Heisenberg"
    identity_payload = (0, 0, 0)
    generator_payloads = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))

    def canonicalize(self, payload: Any) -> tuple[int, int, int]:
        a, b, c = payload
        return (int(a), int(b), int(c))

    def mul(self, p: tuple, q: tuple) -> tuple[int, int, int]:
        a1, b1, c1 = p
        a2, b2, c2 = q
        return (a1 + a2, b1 + b2, c1 + c2 + a1 * b2)

    def inv(self, p: tuple) -> tuple[int, int, int]:
        a1, b1, c1 = p
        return (-a1, -b1, a1 * b1 - c1)

    def walk(self, steps: list) -> list:
        a = b = c = 0
        payloads = []
        for da, db, dc in steps:
            c += dc + a * db
            a += da
            b += db
            payloads.append((a, b, c))
        return payloads

    def length(self, p: tuple) -> int:
        """Blachère's closed form (Colloq. Math. 2003) on 0 <= a <= b, c >= 0.
        The first three steps are automorphisms that permute the generators;
        the swap is the third composed with inversion and the first two."""
        a, b, c = p
        if a < 0:
            a, c = -a, -c
        if b < 0:
            b, c = -b, -c
        if c < 0:
            a, b, c = b, a, a * b - c
        if a > b:
            a, b = b, a
        if c <= a * b:
            return a + b
        if b * b >= c:
            return 2 * -(-c // b) + b - a
        return 2 * (math.isqrt(4 * c - 1) + 1) - a - b  # 2 * ceil(2 * sqrt(c))

    def ball_size(self, radius: int) -> int:
        """Per column (a, b) with |a| + |b| <= radius, the c within the ball
        form one interval around ab, the c of the word x^a y^b: after the
        steps in ``length`` the length is a + b for 0 <= c <= ab and grows
        with c beyond, and c < 0 maps to ab - c. Both ends are bisected in
        the box |c| <= radius**2 / 4, which holds because c sums the current
        a over the y-letters, so h x-letters and v y-letters end at
        |c| <= h * v."""
        length, top, total = self.length, radius * radius // 4, 0
        for a in range(-radius, radius + 1):
            for b in range(abs(a) - radius, radius - abs(a) + 1):
                key = lambda c: length((a, b, c))  # noqa: E731
                total += (bisect_right(range(a * b, top + 1), radius, key=key)
                          + bisect_right(range(a * b, -top - 1, -1), radius,
                                         key=key) - 1)
        return total

    def abelian_image(self, p: tuple) -> tuple[int, int]:
        return p[:2]

    def format(self, p: tuple) -> str:
        return "H({},{},{})".format(*p)

    def parse(self, s: str) -> tuple[int, int, int]:
        if not (s.startswith("H(") and s.endswith(")")):
            raise ValueError("expected H(a,b,c)")
        return self.canonicalize(int(t) for t in s[2:-1].split(","))


@dataclass(frozen=True)
class LamplighterZ(GroupDescriptor):
    """The lamplighter group over Z; payload: pair (position, lamps) where
    lamps is the sorted tuple of the integers whose lamp is lit."""

    kind = "LamplighterZ"
    identity_payload = (0, ())
    generator_payloads = ((1, ()), (-1, ()), (0, (0,)))

    def canonicalize(self, payload: Any) -> tuple[int, tuple[int, ...]]:
        pos, lamps = payload
        return (int(pos), tuple(sorted(set(int(s) for s in lamps))))

    def mul(self, p: tuple, q: tuple) -> tuple[int, tuple[int, ...]]:
        x, f = p
        y, g = q
        if not g:
            return (x + y, f)
        lamps = set(f).symmetric_difference(s + x for s in g)
        return (x + y, tuple(sorted(lamps)))

    def inv(self, p: tuple) -> tuple[int, tuple[int, ...]]:
        x, f = p
        return (-x, tuple(sorted(s - x for s in f)))

    def walk(self, steps: list) -> list:
        """The lit lamps stay one sorted list; a step toggles its lamps,
        shifted by the current position, in place by bisection."""
        x, lit, payloads = 0, [], []
        for y, g in steps:
            for s in g:
                s += x
                i = bisect_left(lit, s)
                if i < len(lit) and lit[i] == s:
                    del lit[i]
                else:
                    lit.insert(i, s)
            x += y
            payloads.append((x, tuple(lit)))
        return payloads

    def length(self, p: tuple) -> int:
        """Lit lamps plus the shortest tour from 0 over the lamps that ends at
        x (Cleary and Taback, "Dead end words in lamplighter groups", 2005)."""
        x, f = p
        span = (max(f[-1], x, 0) - min(f[0], x, 0)) if f else abs(x)
        return len(f) + 2 * span - abs(x)

    def ball_size(self, radius: int) -> int:
        """The lamp sets that fit the radius left by each tour over [lo, hi]
        ending at x; an end of [lo, hi] past both 0 and x must be lit."""
        return sum(math.comb(hi - lo + 1 - lit, k)
                   for lo in range(-radius, 1) for hi in range(lo + radius + 1)
                   for x in range(lo, hi + 1)
                   for lit in [(lo < min(0, x)) + (hi > max(0, x))]
                   for k in range(radius - 2 * (hi - lo) + abs(x) - lit + 1))

    def abelian_image(self, p: tuple) -> tuple[int]:
        """The position; the parity of the lit lamps, the rest of the
        abelianisation, is torsion."""
        return (p[0],)

    def format(self, p: tuple) -> str:
        x, f = p
        return "L({};{{{}}})".format(x, ",".join(str(s) for s in f))

    def parse(self, s: str) -> tuple[int, tuple[int, ...]]:
        if not (s.startswith("L(") and s.endswith("})")):
            raise ValueError("expected L(x;{s1,...})")
        pos_part, lamp_part = s[2:-1].split(";", 1)
        if not (lamp_part.startswith("{") and lamp_part.endswith("}")):
            raise ValueError("expected lamp support in braces")
        body = lamp_part[1:-1]
        lamps = [int(t) for t in body.split(",")] if body else []
        if lamps != sorted(set(lamps)):
            raise ValueError("lamp support must be sorted and duplicate-free")
        return self.canonicalize((int(pos_part), lamps))


@dataclass(frozen=True)
class CyclicZ(GroupDescriptor):
    """Z/m; payload: residue in [0, m). Word length is the distance to 0."""

    modulus: int
    kind = "CyclicZ"
    identity_payload = 0

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("CyclicZ requires m >= 1")

    def canonicalize(self, payload: Any) -> int:
        return int(payload) % self.modulus

    def mul(self, p: int, q: int) -> int:
        return (p + q) % self.modulus

    def inv(self, p: int) -> int:
        return (-p) % self.modulus

    @property
    def generator_payloads(self) -> tuple[int, int]:
        return (1 % self.modulus, (-1) % self.modulus)

    def length(self, p: int) -> int:
        return min(p, self.modulus - p)

    def ball_size(self, radius: int) -> int:
        return min(self.modulus, 2 * radius + 1)

    def abelian_image(self, p: int) -> tuple[()]:
        return ()

    def format(self, p: int) -> str:
        return f"{p} mod {self.modulus}"

    def parse(self, s: str) -> int:
        value, mod_kw, modulus = s.split()
        if mod_kw != "mod" or int(modulus) != self.modulus:
            raise ValueError("expected 'r mod m'")
        r = int(value)
        if not 0 <= r < self.modulus:
            raise ValueError("residue out of range")
        return r


_FAMILIES = {f.kind: f for f in (ZPower, Free, Heisenberg, LamplighterZ, CyclicZ)}


def parse_descriptor(text: str) -> GroupDescriptor:
    """Parse a descriptor as ``str`` prints it, like ``ZPower(2)``."""
    name, paren, rest = text.strip().partition("(")
    if paren and not rest.endswith(")"):
        raise ValueError(f"malformed group descriptor {text!r}")
    arg = rest[:-1].strip()
    family = _FAMILIES.get(name.strip())
    if family is None:
        raise ValueError(f"unknown group {text!r}")
    if not fields(family):
        if arg:
            raise ValueError(f"group {name!r} takes no parameter")
        return family()
    if not arg:
        raise ValueError(f"group {name!r} needs an integer parameter")
    return family(int(arg))


@dataclass(frozen=True)
class GroupElement:
    """A group element in canonical form.

    Payloads are trusted to be canonical; build elements through
    ``make_element``, ``parse_element`` or the group operations rather than
    by hand.
    """

    descriptor: GroupDescriptor
    payload: Any

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)

    def inverse(self) -> "GroupElement":
        return invert(self)

    def __str__(self) -> str:
        return format_element(self)


def make_element(descriptor: GroupDescriptor, payload: Any) -> GroupElement:
    """Validating constructor: canonicalizes the payload first."""
    return GroupElement(descriptor, descriptor.canonicalize(payload))


def identity(descriptor: GroupDescriptor) -> GroupElement:
    """The neutral element of the group."""
    return GroupElement(descriptor, descriptor.identity_payload)


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Canonical-form product of two elements of the same group."""
    desc = a.descriptor
    if desc != b.descriptor:
        raise DescriptorMismatchError(f"{desc} vs {b.descriptor}")
    return GroupElement(desc, desc.mul(a.payload, b.payload))


def invert(a: GroupElement) -> GroupElement:
    """The group inverse."""
    return GroupElement(a.descriptor, a.descriptor.inv(a.payload))


def standard_generators(descriptor: GroupDescriptor) -> tuple[GroupElement, ...]:
    """The standard symmetric generating set, in canonical text order."""
    gens = {GroupElement(descriptor, p) for p in descriptor.generator_payloads}
    return tuple(sorted(gens, key=canonical_key))


# ---------------------------------------------------------------------------
# Word length and balls

_BALL_CACHE: dict[tuple[GroupDescriptor, int], dict[Any, int]] = {}


def ball_distances(descriptor: GroupDescriptor, radius: int) -> dict[Any, int]:
    """Payload -> word length on the radius-``radius`` ball, by a cached BFS
    over the standard generators: the reference for the closed forms."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    key = (descriptor, radius)
    cached = _BALL_CACHE.get(key)
    if cached is not None:
        return cached
    gens = [s.payload for s in standard_generators(descriptor)]
    mul = descriptor.mul
    dist = {descriptor.identity_payload: 0}
    frontier = [descriptor.identity_payload]
    for r in range(1, radius + 1):
        new_frontier = []
        for g in frontier:
            for s in gens:
                h = mul(g, s)
                if h not in dist:
                    dist[h] = r
                    new_frontier.append(h)
        frontier = new_frontier
        if not frontier:
            break
    _BALL_CACHE[key] = dist
    return dist


@cache
def ball_size(descriptor: GroupDescriptor, radius: int) -> int:
    """|{g : word_length(g) <= radius}|, exact, cached."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return descriptor.ball_size(radius)


def word_length(a: GroupElement) -> int:
    """Word length with respect to the standard generators."""
    return a.descriptor.length(a.payload)


def word_length_within(a: GroupElement, radius: int) -> int | None:
    """Word length if it is <= radius, else None."""
    n = a.descriptor.length(a.payload)
    return n if n <= radius else None


# ---------------------------------------------------------------------------
# Text format

def format_element(a: GroupElement) -> str:
    """Canonical text form, also the canonical sort key: ``(3,-4)``, ``x1 x2 X1``
    (uppercase for inverse letters, ``e`` for the empty word), ``H(a,b,c)``,
    ``L(x;{s1,s2})`` and ``r mod m``."""
    return a.descriptor.format(a.payload)


def parse_element(descriptor: GroupDescriptor, text: str) -> GroupElement:
    """Inverse of format_element for the given group."""
    try:
        return GroupElement(descriptor, descriptor.parse(text.strip()))
    except (ValueError, IndexError) as exc:
        raise ValueError(f"cannot parse {text!r} as {descriptor} element: {exc}") from None


#: The canonical element order is the order of the text form.
canonical_key = format_element
