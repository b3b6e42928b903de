"""Seeded, reproducible random-walk traces.

Sampling draws 64-bit words from a Philox counter-based generator keyed by
the seed, looks them up in the measure's fixed-point cumulative table, and
multiplies the resulting increments left to right. Identical
(measure, n_steps, seed) triples give bit-identical traces on any platform.

On free groups a position is a reduced word whose length grows linearly
with the step, so a trace keeps its positions as node ids of one prefix
trie, in memory linear in the steps, and spells a word only when asked for
it. Other families keep a tuple of elements.
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
    format_element,
    multiply,
    parse_descriptor,
    parse_element,
)
from .manifest import write_csv
from .measures import SymmetricMeasure, first_asymmetric_atom


class PrefixTrie:
    """Interned trie over reduced words of F_rank; node 0 is the empty word
    and every other node is a (parent, letter) pair, so each node is the
    reduced word spelled by the letters on its path from the root."""

    def __init__(self, rank: int):
        self.rank = rank
        self._children: dict[tuple[int, int], int] = {}
        self._parent: list[int] = [-1]
        self._depth: list[int] = [0]
        self._last: list[int] = [0]  # letter on the edge into each node

    def __len__(self) -> int:
        return len(self._parent)

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


class TriePositions(Sequence):
    """Read-only sequence of free-group positions held as trie node ids.

    An index builds that one element, a slice returns a view on the same
    trie, and equality compares content with any sequence of elements.
    """

    __slots__ = ("descriptor", "trie", "ids")

    def __init__(self, descriptor: GroupDescriptor, trie: PrefixTrie,
                 ids: list[int]):
        self.descriptor = descriptor
        self.trie = trie
        self.ids = ids

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TriePositions(self.descriptor, self.trie, self.ids[index])
        return GroupElement(self.descriptor, self.trie.word(self.ids[index]))

    def __iter__(self):
        desc, word = self.descriptor, self.trie.word
        for node in self.ids:
            yield GroupElement(desc, word(node))

    def __eq__(self, other) -> bool:
        if isinstance(other, TriePositions) and other.trie is self.trie:
            return other.descriptor == self.descriptor and other.ids == self.ids
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            x == y for x, y in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"TriePositions({self.descriptor}, {len(self)} positions)"

    def lengths(self) -> list[int]:
        """Word length of each position, read from the trie."""
        depth = self.trie.depth
        return [depth(node) for node in self.ids]

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
    positions: Sequence[GroupElement]

    def __len__(self) -> int:
        return len(self.increments)

    def position(self, n: int) -> GroupElement:
        """X_n with 1-based indexing, matching the usual walk notation."""
        if not 1 <= n <= len(self.positions):
            raise IndexError(f"position index {n} outside 1..{len(self.positions)}")
        return self.positions[n - 1]


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def sample_atom_indices(measure: SymmetricMeasure, n_steps: int,
                        seed: int) -> np.ndarray:
    """Indices into measure.atoms for each step; the deterministic core."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if n_steps == 0:
        return np.empty(0, dtype=np.int64)
    thresholds = np.array(measure.sampling_thresholds[:-1], dtype=np.uint64)
    draws = _rng(seed).integers(0, 1 << 64, size=n_steps, dtype=np.uint64)
    return np.searchsorted(thresholds, draws, side="right").astype(np.int64)


def generate_walk(measure: SymmetricMeasure, n_steps: int,
                  seed: int) -> WalkTrace:
    """Generate the trace X_n = z_1 ... z_n of length n_steps."""
    offending = first_asymmetric_atom(measure)
    if offending is not None:
        raise ValueError(
            f"measure is not symmetric at atom {format_element(offending)}")
    support = measure.support
    return trace_from_increments(
        measure.descriptor, seed,
        [support[i] for i in sample_atom_indices(measure, n_steps, seed)])


def trace_from_increments(descriptor: GroupDescriptor, seed: int,
                          increments) -> WalkTrace:
    """The trace whose increments are given, with their running products."""
    increments = tuple(increments)
    if any(z.descriptor != descriptor for z in increments):
        raise ValueError("increment descriptor mismatch")
    if isinstance(descriptor, Free):
        trie = PrefixTrie(descriptor.rank)
        ids = []
        node = 0
        for z in increments:
            node = trie.mul(node, z.payload)
            ids.append(node)
        return WalkTrace(descriptor, seed, increments,
                         TriePositions(descriptor, trie, ids))
    positions = []
    acc = None
    for z in increments:
        acc = z if acc is None else multiply(acc, z)
        positions.append(acc)
    return WalkTrace(descriptor, seed, increments, tuple(positions))


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


def read_trace(path: str | Path) -> WalkTrace:
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


def write_positions_csv(trace: WalkTrace, path: str | Path,
                        meta: dict | None = None) -> None:
    """Plot-ready CSV of positions; ZPower traces also get coordinate columns."""
    positions = trace.positions
    is_lattice = trace.descriptor.kind == "ZPower"
    header = ["step", "position"]
    if is_lattice:
        header += [f"c{i+1}" for i in range(trace.descriptor.rank)]
    if isinstance(positions, TriePositions):
        rows = enumerate(positions.texts(), start=1)
    else:
        rows = ((n, format_element(x), *(x.payload if is_lattice else ()))
                for n, x in enumerate(positions, start=1))
    write_csv(path, meta or {}, header, rows)
