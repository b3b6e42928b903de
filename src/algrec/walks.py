"""Seeded, reproducible random-walk traces.

Sampling draws 64-bit words from a Philox counter-based generator keyed by
the seed, looks them up in the measure's fixed-point cumulative table, and
multiplies the resulting increments left to right. Identical
(measure, n_steps, seed) triples give bit-identical traces on any platform.

A trace keeps its positions in a raw form and builds an element only when
one is asked for. On free groups a position is a reduced word whose length
grows linearly with the step, so the positions are node ids of one prefix
trie, in memory linear in the steps, and a length is the node's depth.
Every other family runs its walk kernel, ``walk`` on its descriptor: one
loop on ints over the step payloads that returns the position payloads and
their word lengths, each computed once; slices keep both lists. Both kinds
give every position's word length and payload without building an element.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .groups import (
    Free,
    GroupDescriptor,
    GroupElement,
    ZPower,
    format_element,
)
from .manifest import write_csv
from .measures import SymmetricMeasure


class PrefixTrie:
    """Interned trie over reduced words of a free group; node 0 is the empty
    word and every other node is a (parent, letter) pair, so each node is the
    reduced word spelled by the letters on its path from the root."""

    def __init__(self):
        self._children: dict[tuple[int, int], int] = {}
        self._parent: list[int] = [-1]
        self._depth: list[int] = [0]
        self._last: list[int] = [0]  # letter on the edge into each node

    def _child(self, node: int, letter: int) -> int:
        key = (node, letter)
        child = self._children.get(key)
        if child is None:
            child = len(self._parent)
            self._children[key] = child
            self._parent.append(node)
            self._depth.append(self._depth[node] + 1)
            self._last.append(letter)
        return child

    def mul(self, node: int, word: tuple[int, ...]) -> int:
        """The node of the reduced product of node's word and ``word``:
        cancel against edge letters up the parent chain, then append."""
        last, parent = self._last, self._parent
        i, n = 0, len(word)
        while i < n and node and last[node] == -word[i]:
            node = parent[node]
            i += 1
        for letter in word[i:]:
            node = self._child(node, letter)
        return node

    def word(self, node: int) -> tuple[int, ...]:
        last, parent = self._last, self._parent
        letters = []
        while node:
            letters.append(last[node])
            node = parent[node]
        return tuple(reversed(letters))

    def depth(self, node: int) -> int:
        return self._depth[node]

    def branch(self, a: int, b: int) -> tuple[int, list[int]]:
        """The depth of the deepest common ancestor of a and b, and the
        letters on the path from it down to b."""
        depth, parent, last = self._depth, self._parent, self._last
        letters = []
        while depth[b] > depth[a]:
            letters.append(last[b])
            b = parent[b]
        while depth[a] > depth[b]:
            a = parent[a]
        while a != b:
            letters.append(last[b])
            a, b = parent[a], parent[b]
        letters.reverse()
        return depth[a], letters

    def depth_counts(self, nodes) -> dict[int, int]:
        """Distinct nonempty words per length among the given nodes and all
        their prefixes."""
        depth, parent = self._depth, self._parent
        seen = bytearray(len(parent))
        counts: dict[int, int] = {}
        for node in nodes:
            while node and not seen[node]:
                seen[node] = 1
                counts[depth[node]] = counts.get(depth[node], 0) + 1
                node = parent[node]
        return counts


class Positions(Sequence):
    """Read-only sequence of walk positions kept in a raw form.

    An index builds that one element, a slice returns a view of the same
    kind, and equality compares content with any sequence of elements.
    Subclasses give ``payload(i)``, the payload of position i,
    ``lengths()``, every position's word length, and ``texts()``, every
    position's text form, without building elements.
    """

    __slots__ = ()
    descriptor: GroupDescriptor

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._view(index)
        return GroupElement(self.descriptor, self.payload(index))

    def __iter__(self):
        desc, payload = self.descriptor, self.payload
        for i in range(len(self)):
            yield GroupElement(desc, payload(i))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            x == y for x, y in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.descriptor}, {len(self)} positions)"


class PayloadPositions(Positions):
    """Positions held as the list of their canonical payloads, with the list
    of their word lengths alongside."""

    __slots__ = ("descriptor", "payloads", "_lengths")

    def __init__(self, descriptor: GroupDescriptor, payloads: list,
                 lengths: list[int]):
        self.descriptor = descriptor
        self.payloads = payloads
        self._lengths = lengths

    def __len__(self) -> int:
        return len(self.payloads)

    def payload(self, i: int):
        return self.payloads[i]

    def _view(self, index: slice) -> PayloadPositions:
        return PayloadPositions(self.descriptor, self.payloads[index],
                                self._lengths[index])

    def lengths(self) -> list[int]:
        """Word length of each position, as the trace computed it; the list
        is shared, not copied."""
        return self._lengths

    def texts(self):
        return map(self.descriptor.format, self.payloads)


class TriePositions(Positions):
    """Free-group positions held as node ids of one prefix trie; a position
    is spelled only when it is asked for."""

    __slots__ = ("descriptor", "trie", "ids")

    def __init__(self, descriptor: GroupDescriptor, trie: PrefixTrie,
                 ids: list[int]):
        self.descriptor = descriptor
        self.trie = trie
        self.ids = ids

    def __len__(self) -> int:
        return len(self.ids)

    def payload(self, i: int) -> tuple[int, ...]:
        return self.trie.word(self.ids[i])

    def _view(self, index: slice) -> TriePositions:
        return TriePositions(self.descriptor, self.trie, self.ids[index])

    def lengths(self) -> list[int]:
        """Word length of each position, read from the trie."""
        depth = self.trie.depth
        return [depth(node) for node in self.ids]

    def depth_counts(self) -> dict[int, int]:
        """Distinct nonempty prefixes of these positions per length."""
        return self.trie.depth_counts(self.ids)

    def texts(self):
        """The text form of each position, built from the previous one's:
        truncate to the common prefix, then append the new letters."""
        desc, trie = self.descriptor, self.trie
        token = {s: " " + desc.format((s,))
                 for r in range(1, desc.rank + 1) for s in (r, -r)}
        text, ends, prev = "", [0], 0
        for node in self.ids:
            keep, letters = trie.branch(prev, node)
            if keep + 1 < len(ends):
                text = text[:ends[keep]]
                del ends[keep + 1:]
            for letter in letters:
                text += token[letter]
                ends.append(len(text))
            prev = node
            yield text[1:] or desc.format(())


@dataclass(frozen=True)
class WalkTrace:
    """Positions X_1..X_N and the increments z_1..z_N that produced them."""

    descriptor: GroupDescriptor
    seed: int
    increments: tuple[GroupElement, ...]
    positions: Positions

    def __len__(self) -> int:
        return len(self.increments)


def seeded_rng(seed) -> np.random.Generator:
    """The Philox generator keyed by ``seed``, an int or a list of ints."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def sample_atom_indices(measure: SymmetricMeasure, n_steps: int,
                        seed: int) -> np.ndarray:
    """Indices into measure.atoms for each step; the deterministic core."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if n_steps == 0:
        return np.empty(0, dtype=np.int64)
    thresholds = np.array(measure.sampling_thresholds[:-1], dtype=np.uint64)
    draws = seeded_rng(seed).integers(0, 1 << 64, size=n_steps, dtype=np.uint64)
    return np.searchsorted(thresholds, draws, side="right").astype(np.int64)


def generate_walk(measure: SymmetricMeasure, n_steps: int,
                  seed: int) -> WalkTrace:
    """Generate the trace X_n = z_1 ... z_n of length n_steps."""
    support = measure.support
    steps = sample_atom_indices(measure, n_steps, seed).tolist()
    return trace_from_increments(measure.descriptor, seed,
                                 map(support.__getitem__, steps))


def trace_from_increments(descriptor: GroupDescriptor, seed: int,
                          increments) -> WalkTrace:
    """The trace whose increments are given, with their running products:
    trie nodes on F_d, else the family's walk kernel on the payloads, with
    each position's word length computed once by ``descriptor.length``."""
    increments = tuple(increments)
    if any(z.descriptor is not descriptor and z.descriptor != descriptor
           for z in increments):
        raise ValueError("increment descriptor mismatch")
    if isinstance(descriptor, Free):
        trie = PrefixTrie()
        ids = []
        node = 0
        for z in increments:
            node = trie.mul(node, z.payload)
            ids.append(node)
        positions = TriePositions(descriptor, trie, ids)
    else:
        payloads = descriptor.walk([z.payload for z in increments])
        positions = PayloadPositions(descriptor, payloads,
                                     list(map(descriptor.length, payloads)))
    return WalkTrace(descriptor, seed, increments, positions)


# ---------------------------------------------------------------------------
# Serialization

def trace_header(trace: WalkTrace, extra: str = "") -> str:
    head = f"# trace group={trace.descriptor} seed={trace.seed} steps={len(trace)}"
    return head + (f" {extra}" if extra else "")


def write_trace(trace: WalkTrace, path: str | Path, extra: str = "") -> None:
    """Line-oriented text: one header line, then one increment per line."""
    lines = [trace_header(trace, extra)]
    lines.extend(format_element(z) for z in trace.increments)
    Path(path).write_text("\n".join(lines) + "\n")


def write_positions_csv(trace: WalkTrace, path: str | Path,
                        meta: dict | None = None) -> None:
    """Plot-ready CSV of positions; ZPower traces also get coordinate columns."""
    positions = trace.positions
    is_lattice = isinstance(trace.descriptor, ZPower)
    header = ["step", "position"]
    if is_lattice:
        header += [f"c{i+1}" for i in range(trace.descriptor.rank)]
    rows = enumerate(positions.texts(), start=1)
    if is_lattice:
        rows = ((n, text, *positions.payload(n - 1)) for n, text in rows)
    write_csv(path, meta or {}, header, rows)
