"""Statistics over free-group walks: prefix tries, the return probability
of the biased level walk, cancellation experiments, and sphere growth
profiles of truncated closures.

Logarithms are base 2 throughout. Comparisons of integer counts against
log2(j) are done exactly via 2**count <= j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .closure import ClosureResult
from .groups import free, word_length
from .measures import SymmetricMeasure, uniform_standard_measure
from .walks import PrefixTrie, TriePositions, WalkTrace, sample_atom_indices

#: Levels above the start at which an excursion counts as an escape.
EXCURSION_CUTOFF = 64
#: Trials drawn per batch in cancellation_experiment.
CANCEL_CHUNK = 20_000


# ---------------------------------------------------------------------------
# Prefix statistics

@dataclass(frozen=True)
class PrefixStats:
    """Distinct length-j prefixes V_j over the positions of a free-group trace."""

    rank: int
    trace_length: int
    counts: dict[int, int]
    j0: int = 64

    @property
    def max_depth(self) -> int:
        return max(self.counts) if self.counts else 0

    def count(self, j: int) -> int:
        return self.counts.get(j, 0)


def prefix_counts(trace: WalkTrace, j0: int = 64) -> PrefixStats:
    """Exact distinct-prefix counts per depth for a free-group trace."""
    positions = trace.positions
    if not isinstance(positions, TriePositions):
        raise ValueError("prefix statistics need a free-group trace")
    return PrefixStats(trace.descriptor.rank, len(trace),
                       positions.trie.depth_counts(positions.ids), j0)


def walk_prefix_stats(d: int, n_steps: int, seed: int, j0: int = 64,
                      measure: SymmetricMeasure | None = None) -> PrefixStats:
    """Streaming prefix counts of a walk on F_d under ``measure`` (default
    the uniform measure on the standard generators).

    Uses the same seeded increment stream as generate_walk but never
    materializes positions, so long walks and many seeds stay cheap.
    """
    mu = measure if measure is not None else uniform_standard_measure(free(d))
    words = [g.payload for g in mu.support]
    trie = PrefixTrie(d)
    node = 0
    for i in sample_atom_indices(mu, n_steps, seed):
        node = trie.mul(node, words[i])
    return PrefixStats(d, n_steps, trie.depth_counts(range(len(trie))), j0)


@dataclass(frozen=True)
class LogBoundCheck:
    holds: bool
    first_violation: int | None


def log_bound_check(stats: PrefixStats, j0: int | None = None) -> LogBoundCheck:
    """True iff V_j <= log2(j) for every depth j with j0 < j <= max depth."""
    threshold = stats.j0 if j0 is None else j0
    for j in sorted(stats.counts):
        if j <= threshold:
            continue
        if 2 ** stats.counts[j] > j:  # exact form of V_j > log2(j)
            return LogBoundCheck(False, j)
    return LogBoundCheck(True, None)


def smallest_passing_j0(stats: PrefixStats) -> int:
    """The least threshold j0 for which log_bound_check holds."""
    worst = 0
    for j, v in stats.counts.items():
        if 2 ** v > j:
            worst = max(worst, j)
    return worst


# ---------------------------------------------------------------------------
# The biased level walk

def return_probability(d: int) -> Fraction:
    """Exact 2d / ((2d)^2 - 2d + 1), checked against its fixed-point equation."""
    if d < 1:
        raise ValueError("d must be >= 1")
    two_d = 2 * d
    p = Fraction(two_d, two_d ** 2 - two_d + 1)
    lhs = Fraction(1, two_d) + Fraction(1, two_d) * Fraction(two_d - 1, two_d) * p
    if lhs != p:
        raise ArithmeticError("closed form does not solve the fixed-point equation")
    return p


def return_excursion_estimate(d: int, excursions: int, seed: int) -> float:
    """Monte Carlo re-arrival frequency of the level walk.

    One excursion starts at a level just reached from below and ends when
    the walk either drops below the level (a return) or climbs
    EXCURSION_CUTOFF levels above it (counted as escape; the neglected
    return mass is below (2d-1)**-EXCURSION_CUTOFF). Vectorized over all
    excursions.
    """
    if excursions < 1:
        raise ValueError("excursions must be positive")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    two_d = 2 * d
    threshold = np.uint64(round(Fraction(two_d - 1, two_d) * (1 << 64)))
    level = np.zeros(excursions, dtype=np.int32)
    active = np.ones(excursions, dtype=bool)
    returned = np.zeros(excursions, dtype=bool)
    while active.any():
        n = int(active.sum())
        ups = rng.integers(0, 1 << 64, size=n, dtype=np.uint64) < threshold
        steps = np.where(ups, np.int32(1), np.int32(-1))
        level[active] += steps
        hit = active & (level < 0)
        returned |= hit
        active &= (level >= 0) & (level < EXCURSION_CUTOFF)
    return float(returned.mean())


# ---------------------------------------------------------------------------
# Cancellation

def random_reduced_words(d: int, length: int, count: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Uniform reduced words as a (count, length) array of signed letters.

    First letter uniform over the 2d letters, each later letter uniform over
    the 2d - 1 letters that do not cancel the previous one. The letters are
    drawn position by position into a (length, count) array, so each draw
    fills a contiguous row; the result is its transposed view, since a
    contiguous copy would hold the whole array twice.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    two_d = 2 * d
    # Letters are coded 0..2d-1: code k < d is letter k+1, else -(k-d+1).
    inverse_code = np.array([*range(d, two_d), *range(d)], dtype=np.int16)
    codes = np.empty((length, count), dtype=np.int16)
    codes[0] = rng.integers(0, two_d, size=count, dtype=np.int16)
    for pos in range(1, length):
        inverse = inverse_code[codes[pos - 1]]
        draw = rng.integers(0, two_d - 1, size=count, dtype=np.int16)
        codes[pos] = draw + (draw >= inverse)
    letters = np.array([*range(1, d + 1), *range(-1, -d - 1, -1)], dtype=np.int16)
    return letters[codes].T


@dataclass(frozen=True)
class ExceedanceRow:
    length: int
    trials: int
    exceed_count: int

    @property
    def empirical(self) -> float:
        return self.exceed_count / self.trials

    def bound(self, d: int) -> float:
        return cancellation_bound(d, self.length)


@dataclass(frozen=True)
class CancellationSample:
    """The exceedance table of a cancellation experiment."""

    d: int
    seed: int
    table: tuple[ExceedanceRow, ...]


def cancellation_experiment(d: int, trials: int, pool: Sequence[Sequence[int]],
                            seed: int, lengths: Sequence[int] = (16, 64, 256)
                            ) -> CancellationSample:
    """Estimate Pr(cancel(X, w) > log2 s) for uniform reduced X of length s,
    where cancel(X, w) counts the letters cancelled in the product X * w.

    Each trial pairs a fresh X with a pool word chosen uniformly; the
    exceedance count per length is compared against the analytic bound
    (2d-1)**(-log2 s) by the caller. Pool words are signed-letter tuples.
    Trials are processed in chunks of CANCEL_CHUNK to bound memory.
    """
    if trials < 1 or not pool:
        raise ValueError("need trials >= 1 and a nonempty pool")
    words = []
    for w in pool:
        letters = tuple(w)
        if not letters:
            raise ValueError("pool words must be nonempty")
        if any(a == -b for a, b in zip(letters, letters[1:])):
            raise ValueError("pool words must be reduced")
        words.append(np.array(letters, dtype=np.int16))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    rows = []
    for s in lengths:
        exceed = 0
        done = 0
        while done < trials:
            batch = min(CANCEL_CHUNK, trials - done)
            xs = random_reduced_words(d, s, batch, rng)
            which = rng.integers(0, len(words), size=batch)
            cancels = np.zeros(batch, dtype=np.int64)
            for wi, w in enumerate(words):
                mask = which == wi
                if not mask.any():
                    continue
                sub = xs[mask]
                m = min(s, len(w))
                # sub[:, s-1-t] must equal -w[t] for all t < cancel
                agree = sub[:, s - 1 - np.arange(m)] == -w[: m]
                cancels[mask] = np.logical_and.accumulate(agree, axis=1).sum(axis=1)
            exceed += int((cancels > math.log2(s)).sum())
            done += batch
        rows.append(ExceedanceRow(s, trials, exceed))
    return CancellationSample(d, seed, tuple(rows))


def cancellation_bound(d: int, s: int) -> float:
    """The tail bound (2d-1)**(-log2 s)."""
    return (2 * d - 1) ** -math.log2(s)


# ---------------------------------------------------------------------------
# Sphere growth of a closure

@dataclass(frozen=True)
class SphereGrowthProfile:
    rank: int
    counts: dict[int, int]  # radius -> closure elements of that word length
    slope: float
    ambient_slope: float

    @property
    def below_four_growth(self) -> bool:
        """Whether the fitted log2 slope stays under 2 (the 4**r line)."""
        return self.slope < 2.0


def sphere_growth_profile(result: ClosureResult) -> SphereGrowthProfile:
    """Per-radius element counts of a free-group closure and their log2 slope."""
    if result.descriptor.kind != "Free":
        raise ValueError("sphere growth profile needs a free-group closure")
    d = result.descriptor.rank
    counts: dict[int, int] = {}
    for g in result.elements:
        r = word_length(g)
        counts[r] = counts.get(r, 0) + 1
    pts = [(r, math.log2(c)) for r, c in sorted(counts.items()) if r > 0]
    if len(pts) < 2:
        slope = 0.0
    else:
        n = len(pts)
        mx = sum(p[0] for p in pts) / n
        my = sum(p[1] for p in pts) / n
        denom = sum((p[0] - mx) ** 2 for p in pts)
        slope = sum((p[0] - mx) * (p[1] - my) for p in pts) / denom
    return SphereGrowthProfile(d, counts, slope, math.log2(2 * d - 1))
