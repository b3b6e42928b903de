"""Output checks. They compare mathematical content, never file bytes, so a
change that only adds a column or reformats a number still passes.

- Z and Z/12 survey rows are recomputed from closure.brute_force_abelian_closure.
- Heisenberg, lamplighter and F_5 closures are compared against digests in
  pins.json, made by pin.py from the outputs of the program at the commit
  that defined this benchmark.
- Lattice certificates are verified with integer arithmetic written here, and
  small Z^2 sets are compared against the grid oracle of acceptance
  criterion 3.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

from algrec.closure import brute_force_abelian_closure
from algrec.groups import GroupDescriptor
from algrec.measures import uniform_standard_measure
from algrec.walks import generate_walk

#: Return probability of the level walk on F_5 (acceptance criterion 2).
RETURN_PROBABILITY_F5 = Fraction(10, 91)


def read_rows(path: Path) -> list[dict]:
    """Rows of a CSV whose leading '#' lines carry metadata."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))


def read_meta(path: Path) -> dict:
    meta = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
    return meta


def digest(content) -> str:
    return hashlib.sha256(json.dumps(content).encode()).hexdigest()[:16]


def survey_rows(out: Path) -> list[list]:
    """ar_coverage.csv as [seed, n_used, Fractions..., exhausted] rows."""
    rows = []
    for r in read_rows(out / "ar_coverage.csv"):
        rows.append([int(r["seed"]), int(r["n_used"]), Fraction(r["coverage"]),
                     Fraction(r["present_fraction"]),
                     Fraction(r["present_fraction_decided"]),
                     r["exhausted"] == "True"])
    return rows


def survey_digest(out: Path) -> str:
    return digest([[str(x) for x in row] for row in survey_rows(out)])


def closure_content(out: Path, seed: int) -> tuple[bool, str, int]:
    """(exhausted, digest of element set and verdict column, products)."""
    lines = (out / f"closure_seed{seed}.txt").read_text().splitlines()
    header = dict(part.split("=", 1) for part in lines[0].split() if "=" in part)
    elements = sorted(line for line in lines[1:]
                      if line and not line.startswith("#"))
    verdicts = [[int(r["i"]), r["membership"]]
                for r in read_rows(out / f"witness_seed{seed}.csv")]
    return (header["exhausted"] == "True", digest([elements, verdicts]),
            int(header["products"]))


def abelian_survey_rows(desc: GroupDescriptor, steps: int,
                        eval_steps: tuple[int, ...], radius: int,
                        seed: int) -> list[list]:
    """Expected ar-estimate rows for Z or Z/m, from the brute-force closure.

    Word lengths and ball sizes are the closed forms for Z (|v|, 2r+1) and
    Z/m (min(v, m-v), min(m, 2r+1)); tail index 1, coverage radius = radius.
    """
    trace = generate_walk(uniform_standard_measure(desc), steps, seed)
    if desc.kind == "ZPower":
        value = lambda g: g.payload[0]  # noqa: E731
        length = abs
        inverse = lambda v: -v  # noqa: E731
        ball = 2 * radius + 1
    else:
        m = desc.modulus
        value = lambda g: g.payload  # noqa: E731
        length = lambda v: min(v, m - v)  # noqa: E731
        inverse = lambda v: (-v) % m  # noqa: E731
        ball = min(m, 2 * radius + 1)
    rows = []
    for n in eval_steps:
        prefix = trace.positions[:n]
        closed = {value(g) for g in brute_force_abelian_closure(prefix, radius)}
        inverses = [inverse(value(x)) for x in prefix]
        present = sum(1 for v in inverses if v in closed)
        absent = sum(1 for v in inverses
                     if v not in closed and length(v) <= radius)
        decided = present + absent
        rows.append([seed, n, Fraction(len(closed), ball), Fraction(present, n),
                     Fraction(present, decided) if decided else Fraction(0),
                     True])
    return rows


def free_walk_ok(out: Path, seed: int, steps: int) -> bool:
    """Positions CSV equals the free reduction of the trace's increments."""
    increments = [line for line in (out / f"trace_seed{seed}.txt")
                  .read_text().splitlines() if line and not line.startswith("#")]
    rows = read_rows(out / f"positions_seed{seed}.csv")
    if len(increments) != steps or len(rows) != steps:
        return False
    word: list[str] = []
    for n, (step, row) in enumerate(zip(increments, rows), start=1):
        for token in step.split():
            if word and word[-1] == token.swapcase():
                word.pop()
            else:
                word.append(token)
        if int(row["step"]) != n or row["position"].split() != (word or ["e"]):
            return False
    return True


def free_stats_ok(out: Path, seed: int) -> bool:
    """Exact return probability, a Monte Carlo estimate near it, one row per seed."""
    meta = read_meta(out / "free_summary.csv")
    exact = Fraction(meta["return_probability_exact"])
    estimate = float(meta["return_probability_estimate"])
    summary = read_rows(out / "free_summary.csv")
    prefix = read_rows(out / f"prefix_vj_seed{seed}.csv")
    return (exact == RETURN_PROBABILITY_F5
            and abs(estimate - float(exact)) <= 0.02
            and [int(r["seed"]) for r in summary] == [seed]
            and all(int(r["v_j"]) >= 1 for r in prefix))


# ---------------------------------------------------------------------------
# Lattice certificates

def lattice_rank_index(vectors) -> tuple[int, int | None]:
    """Rank of the lattice the vectors generate, and its index in Z^d.

    Integer echelon form by unimodular row operations (extended gcd); the
    index is the product of the pivots, None when the rank is below d.
    """
    d = len(vectors[0])
    pivots: dict[int, list[int]] = {}
    for vec in vectors:
        v = list(vec)
        for col in range(d):
            if v[col] == 0:
                continue
            p = pivots.get(col)
            if p is None:
                pivots[col] = v
                break
            g, a, b = _egcd(p[col], v[col])
            pc, vc = p[col] // g, v[col] // g
            pivots[col] = [a * x + b * y for x, y in zip(p, v)]
            v = [pc * y - vc * x for x, y in zip(p, v)]
    rank = len(pivots)
    if rank < d:
        return rank, None
    return rank, math.prod(abs(pivots[c][c]) for c in range(d))


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


def _hull_witness_ok(witness, vectors, d: int) -> bool:
    """Positive integer combination of input points summing to zero, spanning."""
    if witness is None or not witness.points:
        return False
    given = {tuple(v) for v in vectors}
    total = [sum(t * p[c] for t, p in zip(witness.coefficients, witness.points))
             for c in range(d)]
    return (all(tuple(p) in given for p in witness.points)
            and all(t > 0 for t in witness.coefficients)
            and not any(total)
            and lattice_rank_index(witness.points)[0] == d)


def lattice_ok(vectors, classification, grid=None) -> bool:
    """Verify the classification's certificates; with a grid, also the oracle.

    Full needs a valid zero-in-hull witness and index 1. InHalfSpace needs a
    normal with every inner product >= 0 and one > 0. InProperSubgroup needs
    rank below d or index above 1, and a valid hull witness when it has one.
    """
    d = len(vectors[0])
    kind = classification.kind
    rank, index = lattice_rank_index(vectors)
    if kind == "Full":
        ok = index == 1 and _hull_witness_ok(classification.hull_witness,
                                             vectors, d)
    elif kind == "InHalfSpace":
        dots = [sum(a * b for a, b in zip(classification.normal, v))
                for v in vectors]
        ok = min(dots) >= 0 and max(dots) > 0
    elif kind == "InProperSubgroup":
        ok = (index is None or index > 1) \
            and classification.rank in (None, rank) \
            and classification.index in (None, index) \
            and (classification.hull_witness is None
                 or _hull_witness_ok(classification.hull_witness, vectors, d))
    else:
        ok = False
    if grid is not None:
        ok = ok and (kind == "Full") == grid.covers_ball(grid.close(vectors), 5)
    return ok
