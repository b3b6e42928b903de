"""Seeded, reproducible random-walk traces.

Sampling draws 64-bit words from a Philox counter-based generator keyed by
the seed, looks them up in the measure's fixed-point cumulative table, and
multiplies the resulting increments left to right. Identical
(measure, n_steps, seed) triples give bit-identical traces on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .groups import (
    GroupDescriptor,
    GroupElement,
    format_element,
    multiply,
    parse_descriptor,
    parse_element,
)
from .manifest import write_csv
from .measures import SymmetricMeasure, first_asymmetric_atom


@dataclass(frozen=True)
class WalkTrace:
    """Positions X_1..X_N and the increments z_1..z_N that produced them."""

    descriptor: GroupDescriptor
    seed: int
    increments: tuple[GroupElement, ...]
    positions: tuple[GroupElement, ...]

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
    positions = []
    acc = None
    for z in increments:
        if z.descriptor != descriptor:
            raise ValueError("increment descriptor mismatch")
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
    is_lattice = trace.descriptor.kind == "ZPower"
    header = ["step", "position"]
    if is_lattice:
        header += [f"c{i+1}" for i in range(trace.descriptor.rank)]
    rows = ((n, format_element(x), *(x.payload if is_lattice else ()))
            for n, x in enumerate(trace.positions, start=1))
    write_csv(path, meta or {}, header, rows)
