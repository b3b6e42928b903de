"""Exact arithmetic for five concrete finitely generated groups: Z^d, free
groups F_d (d >= 2), the discrete Heisenberg group, the lamplighter group
over Z, and Z/m.

Each family is one ``GroupDescriptor`` subclass that owns its arithmetic,
generators, word lengths, ball sizes and text form on raw payloads; the
module functions delegate to it. Elements are immutable and carry one
canonical payload, described in the family's class docstring.

Word lengths in the Heisenberg and lamplighter groups come from a cached
breadth-first search over the standard generators up to a radius cap; beyond
the cap the length is reported as out of range rather than estimated.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, fields
from typing import Any, Callable, ClassVar, Iterable

#: Default cap for BFS-based word lengths (Heisenberg, LamplighterZ).
DEFAULT_WORD_LENGTH_CAP = 12


class DescriptorMismatchError(ValueError):
    """Raised when an operation mixes elements of different groups."""


class WordLengthCapError(ValueError):
    """Raised when a BFS word length exceeds the configured radius cap."""


@dataclass(frozen=True)
class GroupDescriptor:
    """Identifies one group, a family plus its integer parameter if any, and
    implements that family on raw payloads.

    Subclasses define ``identity_payload``, ``generator_payloads``,
    ``canonicalize``, ``mul``, ``inv``, ``ball_size``, ``format`` and
    ``parse``. Word lengths default to the subclass's closed-form ``length``.
    """

    #: Family name, as in the text form of the descriptor.
    kind: ClassVar[str]
    #: Largest radius a closure may use; finite only for families whose
    #: lengths come from the BFS ball.
    length_cap: ClassVar[float] = math.inf

    def __str__(self) -> str:
        params = ",".join(str(getattr(self, f.name)) for f in fields(self))
        return f"{self.kind}({params})" if params else self.kind

    def word_length(self, a: GroupElement, cap: int) -> int:
        return self.length(a.payload)

    def length_within(self, p: Any, radius: int) -> int | None:
        """The word length of payload p if it is <= radius, else None."""
        n = self.length(p)
        return n if n <= radius else None


class _BallLengths(GroupDescriptor):
    """Families without a closed form: lengths are looked up in the BFS ball."""

    length_cap = DEFAULT_WORD_LENGTH_CAP

    def word_length(self, a: GroupElement, cap: int) -> int:
        n = ball_distances(self, cap).get(a.payload)
        if n is None:
            raise WordLengthCapError(
                f"word length of {format_element(a)} exceeds BFS cap {cap}")
        return n

    def length_within(self, p: Any, radius: int) -> int | None:
        return ball_distances(self, radius).get(p)

    def ball_size(self, radius: int) -> int:
        return len(ball_distances(self, radius))


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
        return tuple(x + y for x, y in zip(p, q))

    def inv(self, p: tuple) -> tuple[int, ...]:
        return tuple(-x for x in p)

    @property
    def generator_payloads(self) -> list[tuple[int, ...]]:
        d = self.rank
        return [tuple(sign if j == i else 0 for j in range(d))
                for i in range(d) for sign in (1, -1)]

    def length(self, p: tuple) -> int:
        return sum(abs(x) for x in p)

    def ball_size(self, radius: int) -> int:
        d = self.rank
        return sum(2 ** k * math.comb(d, k) * math.comb(radius, k)
                   for k in range(0, min(d, radius) + 1))

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
class Heisenberg(_BallLengths):
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

    def format(self, p: tuple) -> str:
        return "H({},{},{})".format(*p)

    def parse(self, s: str) -> tuple[int, int, int]:
        if not (s.startswith("H(") and s.endswith(")")):
            raise ValueError("expected H(a,b,c)")
        return self.canonicalize(int(t) for t in s[2:-1].split(","))


@dataclass(frozen=True)
class LamplighterZ(_BallLengths):
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
        lamps = set(f).symmetric_difference(s + x for s in g)
        return (x + y, tuple(sorted(lamps)))

    def inv(self, p: tuple) -> tuple[int, tuple[int, ...]]:
        x, f = p
        return (-x, tuple(sorted(s - x for s in f)))

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


zpower = ZPower
free = Free
heisenberg = Heisenberg
lamplighter_z = LamplighterZ
cyclic = CyclicZ

_DESCRIPTOR_ALIASES: dict[str, type[GroupDescriptor]] = {
    "z": ZPower, "lamplighter": LamplighterZ, "cyclic": CyclicZ,
    **{f.kind.lower(): f for f in (ZPower, Free, Heisenberg, LamplighterZ, CyclicZ)}}


def parse_descriptor(text: str) -> GroupDescriptor:
    """Parse a descriptor like ``ZPower(2)``, ``Free(5)`` or ``Heisenberg``."""
    name, paren, rest = text.strip().partition("(")
    if paren and not rest.endswith(")"):
        raise ValueError(f"malformed group descriptor {text!r}")
    arg = rest[:-1].strip()
    family = _DESCRIPTOR_ALIASES.get(name.strip().lower())
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

    Payloads are trusted to be canonical; build elements through the factory
    helpers, ``parse_element`` or the group operations rather than by hand.
    """

    descriptor: GroupDescriptor
    payload: Any

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)

    def inverse(self) -> "GroupElement":
        return invert(self)

    def __str__(self) -> str:
        return format_element(self)


def canonicalize_payload(descriptor: GroupDescriptor, payload: Any) -> Any:
    """Return the canonical payload for a raw payload of the right shape."""
    return descriptor.canonicalize(payload)


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


def commutator(a: GroupElement, b: GroupElement) -> GroupElement:
    """[a, b] = a^-1 b^-1 a b."""
    return multiply(multiply(invert(a), invert(b)), multiply(a, b))


def standard_generators(descriptor: GroupDescriptor) -> tuple[GroupElement, ...]:
    """The standard symmetric generating set, in canonical text order."""
    gens = {GroupElement(descriptor, p) for p in descriptor.generator_payloads}
    return tuple(sorted(gens, key=canonical_key))


# ---------------------------------------------------------------------------
# Word length and balls

_BALL_CACHE: dict[tuple[GroupDescriptor, int], dict[Any, int]] = {}
_BALL_LOCK = threading.Lock()


def ball_distances(descriptor: GroupDescriptor, radius: int) -> dict[Any, int]:
    """Map the payload of every element of the radius-``radius`` ball to its
    word length.

    Computed by BFS over the standard generators and cached per descriptor
    and radius. Intended for small radii; the cache is shared across threads.
    Reads take no lock: a finished dict is inserted once under the lock, and
    a thread that lost the race to build it adopts the one already there.
    """
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
    with _BALL_LOCK:
        return _BALL_CACHE.setdefault(key, dist)


def ball_elements(descriptor: GroupDescriptor, radius: int) -> list[GroupElement]:
    """All elements with word length <= radius, sorted canonically."""
    return sorted((GroupElement(descriptor, p)
                   for p in ball_distances(descriptor, radius)), key=canonical_key)


def ball_size(descriptor: GroupDescriptor, radius: int) -> int:
    """|{g : word_length(g) <= radius}|, in closed form where there is one."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return descriptor.ball_size(radius)


def word_length(a: GroupElement, cap: int = DEFAULT_WORD_LENGTH_CAP) -> int:
    """Word length with respect to the standard generators. Families without
    a closed form raise WordLengthCapError past ``cap``."""
    return a.descriptor.word_length(a, cap)


def word_length_within(a: GroupElement, radius: int) -> int | None:
    """Word length if it is <= radius, else None. Never raises on long elements."""
    return a.descriptor.length_within(a.payload, radius)


# ---------------------------------------------------------------------------
# Homomorphisms

@dataclass(frozen=True)
class Homomorphism:
    """One of the four projections used by the quotient arguments."""

    kind: str
    source: GroupDescriptor
    target: GroupDescriptor
    map_payload: Callable[[Any], Any] = field(compare=False, repr=False)


def abelianize(d: int) -> Homomorphism:
    """Free(d) -> ZPower(d), letter exponent sums."""
    return Homomorphism("Abelianize", free(d), zpower(d), lambda w: tuple(
        w.count(i) - w.count(-i) for i in range(1, d + 1)))


def mod_m(m: int) -> Homomorphism:
    """ZPower(1) -> CyclicZ(m), reduction of the single coordinate."""
    return Homomorphism("ModM", zpower(1), cyclic(m), lambda p: p[0] % m)


def pos_projection() -> Homomorphism:
    """LamplighterZ -> ZPower(1), forget the lamps."""
    return Homomorphism("Pos", lamplighter_z(), zpower(1), lambda p: (p[0],))


def heisenberg_abelianize() -> Homomorphism:
    """Heisenberg -> ZPower(2), drop the central coordinate."""
    return Homomorphism("HeisenbergAbelianize", heisenberg(), zpower(2),
                        lambda p: p[:2])


def apply_homomorphism(h: Homomorphism, g: GroupElement) -> GroupElement:
    if g.descriptor != h.source:
        raise DescriptorMismatchError(f"element of {g.descriptor}, expected {h.source}")
    return GroupElement(h.target, h.map_payload(g.payload))


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
