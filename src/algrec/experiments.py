"""Seeded experiment routines shared by the CLI and the acceptance suite:
one seed's coverage survey, and a mean of fractions. Every routine is
deterministic in its arguments; the CLI runs every seeded subcommand's
seeds, in seed order and in its own process, through ``cli._run_seeds``."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .closure import ClosureBudget, coverage_fraction, inverse_witness_report
from .measures import SymmetricMeasure
from .walks import WalkTrace, generate_walk

#: Seed set pinned for the statistical acceptance runs.
ACCEPTANCE_SEEDS: tuple[int, ...] = tuple(range(1, 101))


@dataclass(frozen=True)
class CoverageRow:
    """One (seed, prefix length) outcome of an algebraic-recurrence probe."""

    seed: int
    n_used: int
    coverage: Fraction
    present_fraction: Fraction
    present_fraction_decided: Fraction
    exhausted: bool


def coverage_survey(measure: SymmetricMeasure, n_steps: int,
                    eval_steps: Sequence[int], tail_index: int,
                    budget: ClosureBudget, coverage_radius: int,
                    seed: int) -> list[CoverageRow]:
    """One seed's survey: walk once, then close and score each requested
    prefix of the trace."""
    trace = generate_walk(measure, n_steps, seed)
    rows = []
    for n_used in eval_steps:
        if not 1 <= n_used <= n_steps:
            raise ValueError(f"eval step {n_used} outside 1..{n_steps}")
        prefix = WalkTrace(trace.descriptor, seed,
                           trace.increments[:n_used], trace.positions[:n_used])
        report = inverse_witness_report(prefix, tail_index, budget)
        cov = coverage_fraction(report.closure_result, coverage_radius)
        rows.append(CoverageRow(seed, n_used, cov,
                                report.present_fraction,
                                report.present_fraction_decided,
                                report.closure_result.exhausted))
    return rows


def mean_fraction(values: Iterable[Fraction]) -> Fraction:
    vals = list(values)
    return sum(vals, Fraction(0)) / len(vals) if vals else Fraction(0)
