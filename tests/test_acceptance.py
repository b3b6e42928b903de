"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Statistical criteria use the pinned seed set from algrec.experiments.
"""

import itertools
import random
import time
from fractions import Fraction

from algrec import groups as G
from algrec.cli import main
from algrec.closure import ClosureBudget, brute_force_abelian_closure, closure
from algrec.experiments import ACCEPTANCE_SEEDS, coverage_survey, mean_fraction
from algrec.freestats import (
    cancellation_bound,
    cancellation_experiment,
    random_reduced_words,
    return_excursion_estimate,
    return_probability,
)
from algrec.identities import (
    nilpotent_identity_grid,
    torsion_inverse_witness,
    z_inverse_witness,
)
from algrec.lattice import FULL, classify_subsemigroup, smith_normal_form
from algrec.measures import uniform_standard_measure
from oracles import GridClosure, integer_determinant

import numpy as np


def report(num: int, description: str, ok: bool, elapsed: float,
           budget: float | None) -> None:
    status = "PASS" if ok else "FAIL"
    window = f", {elapsed:.2f}s" + (f" < {budget:g}s" if budget else "")
    print(f"ACCEPTANCE {num} {status}: {description}{window}")
    assert ok, f"criterion {num} failed: {description}"
    if budget is not None:
        assert elapsed < budget, \
            f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_exact_identity_suite():
    start = time.perf_counter()
    grid = nilpotent_identity_grid(range(-3, 4), range(1, 11), range(1, 11))
    ok = grid.all_hold and grid.cases == 7 ** 4 * 100

    for x in range(1, 101):
        for y in range(-100, 0):
            ok &= z_inverse_witness(x, y).combination_value == -x

    for m in range(1, 25):
        desc = G.CyclicZ(m)
        for x_val in range(m):
            x = G.GroupElement(desc, x_val)
            y = G.invert(x)  # the projection of Y must equal X^-1; in Z/m, Y itself
            found = torsion_inverse_witness(x, y, max_k=max(m, 1))
            ok &= found is not None and found.witness == G.invert(x)
    elapsed = time.perf_counter() - start
    report(1, "exact identities (nilpotent grid, Z certificates, torsion witnesses)",
           ok, elapsed, 1.0)


def test_criterion_2_return_probability():
    start = time.perf_counter()
    exact = return_probability(5)
    ok = exact == Fraction(10, 91)
    for seed in (1, 2, 3):
        estimate = return_excursion_estimate(5, 10 ** 5, seed)
        ok &= abs(estimate - float(exact)) <= 0.01
    elapsed = time.perf_counter() - start
    report(2, "return probability 10/91 exact and Monte Carlo within 0.01",
           ok, elapsed, 10.0)


def test_criterion_3_lattice_trichotomy_exhaustive():
    start = time.perf_counter()
    vectors = [(x, y) for x in range(-3, 4) for y in range(-3, 4)
               if (x, y) != (0, 0)]
    grid = GridClosure(23)
    checked = 0
    ok = True
    for k in (1, 2, 3, 4):
        for combo in itertools.combinations(vectors, k):
            checked += 1
            is_full = classify_subsemigroup(combo).kind == FULL
            covers = grid.covers_ball(grid.close(combo), 5)
            if is_full != covers:
                ok = False
                print(f"  mismatch at {combo}: full={is_full} covers={covers}")
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(3, f"trichotomy vs ball-coverage oracle on {checked} generator sets",
           ok, elapsed, 300.0)


def _snf_valid(rows) -> bool:
    snf = smith_normal_form(rows)
    n, d = len(rows), len(rows[0])

    def mat_mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(len(y)))
                 for j in range(len(y[0]))] for i in range(len(x))]

    product = mat_mul(mat_mul([list(r) for r in snf.left],
                              [list(r) for r in rows]),
                      [list(r) for r in snf.right])
    expected = [[snf.diagonal[i] if i == j and i < len(snf.diagonal) else 0
                 for j in range(d)] for i in range(n)]
    if product != expected:
        return False
    if abs(integer_determinant(snf.left)) != 1:
        return False
    if abs(integer_determinant(snf.right)) != 1:
        return False
    nonzero = [x for x in snf.diagonal if x]
    if any(x < 0 for x in snf.diagonal):
        return False
    return all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


def test_criterion_4_smith_validity_random():
    start = time.perf_counter()
    rng = random.Random(20240817)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 4)
        d = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(n)]
        ok &= _snf_valid(rows)
    elapsed = time.perf_counter() - start
    report(4, "Smith normal form U*A*V = D, unimodular, divisibility (500 random)",
           ok, elapsed, 10.0)


def test_criterion_5_closure_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    z = G.ZPower(1)
    z_cases = [
        ([2, 3], 10), ([1, -1], 12), ([1, -1], 3), ([2, -2], 12),
        ([5, -3], 12), ([7, -5], 12), ([11, -9], 12), ([12, -11], 12),
        ([12, -7], 12), ([9, -6], 12), ([5], 12), ([-3], 12), ([1], 5),
        ([2, 3, -7], 12), ([4, 6, -10], 12), ([3, -5, 7], 12),
        ([12, -9, 2], 12), ([10, -4, 6], 8), ([11, -7], 11),
    ]
    for gens, radius in z_cases:
        elements = [G.make_element(z, (v,)) for v in gens]
        ours = closure(elements, ClosureBudget(radius=radius))
        oracle = brute_force_abelian_closure(elements, radius)
        ok &= ours.exhausted and ours.elements == oracle
    for m in range(2, 25):
        desc = G.CyclicZ(m)
        gen_sets = [[1], [m - 1], [2, 3], [5], [2, m - 3], [3, 7, 11]]
        for gens in gen_sets:
            elements = [G.GroupElement(desc, v % m) for v in gens]
            ours = closure(elements, ClosureBudget(radius=12))
            oracle = brute_force_abelian_closure(elements, 12)
            ok &= ours.exhausted and ours.elements == oracle
    elapsed = time.perf_counter() - start
    report(5, "closure equals brute-force product enumeration on Z and Z/m",
           ok, elapsed, 30.0)


def test_criterion_6_ar_direction_statistics():
    start = time.perf_counter()

    def survey(measure, n_steps, eval_steps, radius):
        return [row for seed in ACCEPTANCE_SEEDS
                for row in coverage_survey(measure, n_steps, eval_steps, 1,
                                           ClosureBudget(radius=radius),
                                           radius, seed)]

    mu12 = uniform_standard_measure(G.CyclicZ(12))
    rows = survey(mu12, 500, (500,), 6)
    full_count = sum(1 for r in rows if r.coverage == 1)
    ok_a = full_count >= 99

    mu_z = uniform_standard_measure(G.ZPower(1))
    rows = survey(mu_z, 200, (20, 200), 5)
    mean_20 = mean_fraction(r.coverage for r in rows if r.n_used == 20)
    mean_200 = mean_fraction(r.coverage for r in rows if r.n_used == 200)
    ok_b = mean_200 > mean_20

    mu_f5 = uniform_standard_measure(G.Free(5))
    rows = survey(mu_f5, 200, (200,), 4)
    below_count = sum(1 for r in rows if r.coverage < 1)
    ok_c = below_count >= 90

    mu_h = uniform_standard_measure(G.Heisenberg())
    rows = survey(mu_h, 500, (50, 500), 4)
    present_50 = mean_fraction(r.present_fraction_decided for r in rows
                               if r.n_used == 50)
    present_500 = mean_fraction(r.present_fraction_decided for r in rows
                                if r.n_used == 500)
    ok_d = present_500 >= present_50

    elapsed = time.perf_counter() - start
    print(f"  (a) Z/12 full coverage in {full_count}/100 seeds")
    print(f"  (b) Z mean coverage {float(mean_20):.4f} @20 -> {float(mean_200):.4f} @200")
    print(f"  (c) F_5 coverage < 1 in {below_count}/100 seeds")
    print(f"  (d) Heisenberg decided-present {float(present_50):.4f} @50 -> "
          f"{float(present_500):.4f} @500")
    report(6, "AR-direction statistics over 100 pinned seeds",
           ok_a and ok_b and ok_c and ok_d, elapsed, None)


def test_criterion_7_cancellation_bound():
    start = time.perf_counter()
    d = 5
    pool_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([11, 1])))
    pool = random_reduced_words(d, 64, 8, pool_rng)
    sample = cancellation_experiment(
        d, 10 ** 5, [tuple(int(x) for x in w) for w in pool], seed=11,
        lengths=(16, 64, 256))
    ok = True
    for row in sample.table:
        bound = cancellation_bound(d, row.length)
        print(f"  s={row.length}: empirical {row.empirical:.3e} "
              f"vs 3x bound {3 * bound:.3e}")
        ok &= row.empirical <= 3 * bound
    elapsed = time.perf_counter() - start
    report(7, "cancellation exceedance within 3x the analytic bound",
           ok, elapsed, 60.0)


def test_criterion_8_cli_determinism(tmp_path):
    start = time.perf_counter()
    scenarios = {
        "walk": ("walk", """
[group]
kind = LamplighterZ
[walk]
steps = 30
[run]
seeds = 4,5
"""),
        "closure": ("closure", """
[group]
kind = CyclicZ(12)
[walk]
steps = 80
[budget]
radius = 6
[run]
seeds = 3
"""),
        "ar": ("ar-estimate", """
[group]
kind = ZPower(1)
[walk]
steps = 60
eval_steps = 20,60
[budget]
radius = 5
[run]
seeds = 1,2,3
"""),
        "free": ("free-stats", """
[group]
kind = Free(5)
[walk]
steps = 300
[budget]
radius = 5
[run]
seeds = 1,2
[free]
trials = 3000
lengths = 16,64
excursions = 4000
"""),
        "nilpotent": ("nilpotent-check", """
[nilpotent]
k_min = -1
k_max = 1
n_max = 2
m_max = 2
"""),
        "witness": ("witness-check", """
[group]
kind = CyclicZ(6)
[witness]
mode = torsion
x = 2 mod 6
y = 1 mod 6
max_k = 12
"""),
    }
    ok = True
    for name, (command, cfg_text) in scenarios.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(cfg_text)
        dirs = [tmp_path / f"{name}_run{i}" for i in (1, 2)]
        for out in dirs:
            code = main([command, "--config", str(cfg), "--out", str(out)])
            ok &= code == 0
        names = sorted(p.name for p in dirs[0].iterdir() if p.name != "manifest.json")
        ok &= bool(names)
        for fname in names:
            ok &= (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()

    vec_file = tmp_path / "vectors.txt"
    vec_file.write_text("2 0\n0 2\n-2 -2\n")
    for i in (1, 2):
        out = tmp_path / f"lattice_run{i}"
        ok &= main(["lattice-classify", str(vec_file), "--out", str(out)]) == 0
    ok &= (tmp_path / "lattice_run1" / "lattice_report.txt").read_bytes() == \
        (tmp_path / "lattice_run2" / "lattice_report.txt").read_bytes()

    elapsed = time.perf_counter() - start
    report(8, "CLI re-runs produce byte-identical data files", ok, elapsed, None)
