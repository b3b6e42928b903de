"""Statistics over free-group walks: the prefix counts of a walk trace, the
return probability of the biased level walk, cancellation experiments, and
sphere growth profiles of truncated closures.

Logarithms are base 2 throughout. Comparisons of integer counts against
log2(j) are done exactly via 2**count <= j.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .closure import ClosureResult
from .groups import Free, word_length
from .walks import WalkTrace, seeded_rng

#: Levels above the start at which an excursion counts as an escape.
EXCURSION_CUTOFF = 64
#: Trials drawn per batch in cancellation_experiment. The batch size fixes
#: the order of the draws, so changing it changes every exceedance count.
CANCEL_CHUNK = 20_000


def _check_rank(d: int) -> None:
    if d < 1:
        raise ValueError("d must be >= 1")


# ---------------------------------------------------------------------------
# Prefix statistics

@dataclass(frozen=True)
class PrefixStats:
    """Distinct length-j prefixes V_j over the positions of a free-group trace."""

    trace_length: int
    counts: dict[int, int]

    @property
    def max_depth(self) -> int:
        return max(self.counts) if self.counts else 0

    def count(self, j: int) -> int:
        return self.counts.get(j, 0)


def walk_prefix_stats(trace: WalkTrace) -> PrefixStats:
    """The distinct prefix counts V_j of a free-group trace, read off the
    trie that holds its positions. Whether V_j <= log2(j) past a depth j0
    is smallest_passing_j0(stats) <= j0."""
    if not isinstance(trace.descriptor, Free):
        raise ValueError("prefix statistics need a free-group trace")
    return PrefixStats(len(trace), trace.positions.depth_counts())


def smallest_passing_j0(stats: PrefixStats) -> int:
    """The deepest j with V_j > log2(j), or 0 if there is none: the least
    j0 >= 0 such that V_j <= log2(j) at every depth j > j0."""
    worst = 0
    for j, v in stats.counts.items():
        if 2 ** v > j:  # exact form of V_j > log2(j)
            worst = max(worst, j)
    return worst


# ---------------------------------------------------------------------------
# The biased level walk

def return_probability(d: int) -> Fraction:
    """Exact 2d / ((2d)^2 - 2d + 1), checked against its fixed-point equation."""
    _check_rank(d)
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
    return mass is below (2d-1)**-EXCURSION_CUTOFF). Each step draws one
    variate per running excursion, in excursion order; only the levels of
    the running excursions are kept, compacted in that order.
    """
    _check_rank(d)
    if excursions < 1:
        raise ValueError("excursions must be positive")
    rng = seeded_rng(seed)
    two_d = 2 * d
    threshold = np.uint64(round(Fraction(two_d - 1, two_d) * (1 << 64)))
    level = np.zeros(excursions, dtype=np.int8)
    returns = 0
    while level.size:
        ups = rng.integers(0, 1 << 64, size=level.size, dtype=np.uint64) < threshold
        level += ups  # +1 on an up step,
        level -= ~ups  # -1 on a down step
        returns += int(np.count_nonzero(level < 0))
        level = level[(level >= 0) & (level < EXCURSION_CUTOFF)]
    return returns / excursions


# ---------------------------------------------------------------------------
# Cancellation

def _reduced_code_rows(d: int, length: int, count: int,
                       rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The letter codes of ``count`` uniform reduced words, one int16 row
    per position, each row drawn as it is asked for.

    Letters are coded 0..2d-1: code k < d is letter k+1, else -(k-d+1). The
    first code is uniform over the 2d codes; each later one is uniform over
    the 2d - 1 that do not cancel the code before it in the same word.
    random_reduced_words and cancellation_experiment both draw through
    here, so their draw order has this one definition.
    """
    two_d = 2 * d
    inverse_code = np.array([*range(d, two_d), *range(d)], dtype=np.int16)
    row = rng.integers(0, two_d, size=count, dtype=np.int16)
    yield row
    for _ in range(1, length):
        draw = rng.integers(0, two_d - 1, size=count, dtype=np.int16)
        draw += draw >= inverse_code[row]
        row = draw
        yield row


def random_reduced_words(d: int, length: int, count: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Uniform reduced words as a (count, length) array of signed letters.

    First letter uniform over the 2d letters, each later letter uniform over
    the 2d - 1 letters that do not cancel the previous one. The words come
    from the code rows of _reduced_code_rows, the draws that
    cancellation_experiment makes too; each row's letters are written into
    a (length, count) array, and the result is its transposed view.
    """
    _check_rank(d)
    if length < 1:
        raise ValueError("length must be >= 1")
    letters = np.array([*range(1, d + 1), *range(-1, -d - 1, -1)], dtype=np.int16)
    words = np.empty((length, count), dtype=np.int16)
    for pos, row in enumerate(_reduced_code_rows(d, length, count, rng)):
        np.take(letters, row, out=words[pos])
    return words.T


@dataclass(frozen=True)
class ExceedanceRow:
    length: int
    trials: int
    exceed_count: int

    @property
    def empirical(self) -> float:
        return self.exceed_count / self.trials


@dataclass(frozen=True)
class CancellationSample:
    """The exceedance table of a cancellation experiment."""

    table: tuple[ExceedanceRow, ...]


def cancellation_experiment(d: int, trials: int, pool: Sequence[Sequence[int]],
                            seed: int, lengths: Sequence[int] = (16, 64, 256)
                            ) -> CancellationSample:
    """Estimate Pr(cancel(X, w) > log2 s) for uniform reduced X of length s,
    where cancel(X, w) counts the letters cancelled in the product X * w.

    Each trial pairs a fresh X with a pool word chosen uniformly; the
    exceedance count per length is compared against the analytic bound
    (2d-1)**(-log2 s) by the caller. Pool words are signed-letter tuples.

    A chunk of CANCEL_CHUNK trials draws its words position by position,
    then its pool-word choices. A trial exceeds when its first ``depth``
    letters cancel, depth being the least count above log2 s, so only the
    last min(s, longest pool word, depth) code rows of a chunk are kept and
    compared with the chosen words' inverse codes, last row first.
    """
    _check_rank(d)
    if trials < 1 or not pool:
        raise ValueError("need trials >= 1 and a nonempty pool")
    words = [tuple(w) for w in pool]
    for w in words:
        if not w:
            raise ValueError("pool words must be nonempty")
        if any(not 1 <= abs(a) <= d for a in w):
            raise ValueError(f"pool word {w} has letters outside +-1..+-{d}")
        if any(a == -b for a, b in zip(w, w[1:])):
            raise ValueError("pool words must be reduced")
    longest = max(map(len, words))
    # inverse_codes[i, t] is the code of the inverse of letter t of word i,
    # -1 (no code) past its end.
    inverse_codes = np.full((len(words), longest), -1, dtype=np.int16)
    for i, w in enumerate(words):
        inverse_codes[i, :len(w)] = [a - 1 + d if a > 0 else -a - 1 for a in w]
    rng = seeded_rng(seed)
    rows = []
    for s in lengths:
        if s < 1:
            raise ValueError("length must be >= 1")
        depth = math.floor(math.log2(s)) + 1
        kept = min(s, longest, depth)
        exceed = 0
        for done in range(0, trials, CANCEL_CHUNK):
            batch = min(CANCEL_CHUNK, trials - done)
            tail = deque(_reduced_code_rows(d, s, batch, rng), maxlen=kept)
            which = rng.integers(0, len(words), size=batch)
            if kept < depth:
                continue
            agree = np.ones(batch, dtype=bool)
            for t, row in enumerate(reversed(tail)):
                agree &= row == inverse_codes[which, t]
            exceed += int(np.count_nonzero(agree))
        rows.append(ExceedanceRow(s, trials, exceed))
    return CancellationSample(tuple(rows))


def cancellation_bound(d: int, s: int) -> float:
    """The tail bound (2d-1)**(-log2 s)."""
    return (2 * d - 1) ** -math.log2(s)


# ---------------------------------------------------------------------------
# Sphere growth of a closure

@dataclass(frozen=True)
class SphereGrowthProfile:
    counts: dict[int, int]  # radius -> closure elements of that word length
    slope: float
    ambient_slope: float


def sphere_growth_profile(result: ClosureResult) -> SphereGrowthProfile:
    """Per-radius element counts of a free-group closure and their log2 slope."""
    if not isinstance(result.descriptor, Free):
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
    return SphereGrowthProfile(counts, slope, math.log2(2 * d - 1))
