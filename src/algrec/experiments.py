"""Seeded experiment routines shared by the CLI and the acceptance suite:
the seed fan-out, ``map_seeds``, and one seed's coverage survey. Every
routine is deterministic in its arguments, and the fan-out returns results
in seed order; the CLI fans every seeded subcommand out, and times each
seed, through ``cli._run_seeds``."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, TypeVar

from .closure import ClosureBudget, coverage_fraction, inverse_witness_report
from .measures import SymmetricMeasure
from .walks import WalkTrace, generate_walk

T = TypeVar("T")

#: Seed set pinned for the statistical acceptance runs.
ACCEPTANCE_SEEDS: tuple[int, ...] = tuple(range(1, 101))

#: The per-seed function forked workers inherit; set while a pool runs.
_SEED_FN: Callable[[int], object] | None = None


def _apply_seed_fn(seed: int):
    return _SEED_FN(seed)


def map_seeds(fn: Callable[[int], T], seeds: Sequence[int],
              threads: int = 1) -> list[T]:
    """Apply fn to each seed; results come back in seed order. Past one
    seed and one thread, fn runs in min(threads, seeds) forked processes,
    each with its own caches; only seeds and results are pickled. Either
    way every seed runs, and the first failure in seed order is raised."""
    workers = min(threads, len(seeds))
    if workers <= 1:
        results, failures = [], []
        for s in seeds:
            try:
                results.append(fn(s))
            except Exception as exc:
                failures.append(exc)
        if failures:
            raise failures[0]
        return results
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    global _SEED_FN
    _SEED_FN = fn
    try:
        with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
            return list(pool.map(_apply_seed_fn, seeds))
    finally:
        _SEED_FN = None


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
