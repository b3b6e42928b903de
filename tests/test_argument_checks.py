"""Library entry points refuse an argument no computation can use, each with
its own message."""

from fractions import Fraction

import pytest

from algrec import groups as G
from algrec.closure import (
    ClosureBudget,
    closure,
    contains,
    inverse_witness_report,
)
from algrec.experiments import coverage_survey
from algrec.freestats import (
    cancellation_experiment,
    random_reduced_words,
    return_excursion_estimate,
    sphere_growth_profile,
)
from algrec.identities import nilpotent_identity_grid, torsion_inverse_witness
from algrec.lattice import classify_subsemigroup, subgroup_index
from algrec.measures import (
    heavy_tail_measure_z2,
    make_measure,
    uniform_standard_measure,
)
from algrec.walks import generate_walk, sample_atom_indices, seeded_rng

Z = G.ZPower(1)
ONE = G.make_element(Z, (1,))
MU_Z = uniform_standard_measure(Z)


@pytest.mark.parametrize("call, message", [
    (lambda: ClosureBudget(0), "budget fields must be positive"),
    (lambda: contains(closure([ONE], ClosureBudget(2)),
                      G.make_element(G.ZPower(2), (1, 0))),
     "descriptor mismatch"),
    (lambda: inverse_witness_report(generate_walk(MU_Z, 3, seed=1), 4,
                                    ClosureBudget(2)),
     "tail index 4 outside 1..3"),
    (lambda: coverage_survey(MU_Z, 3, (4,), 1, ClosureBudget(2), 2, seed=1),
     "eval step 4 outside 1..3"),
    (lambda: return_excursion_estimate(2, 0, 1),
     "excursions must be positive"),
    (lambda: random_reduced_words(2, 0, 1, seeded_rng(1)),
     "length must be >= 1"),
    (lambda: cancellation_experiment(2, 0, [(1,)], 1),
     "need trials >= 1 and a nonempty pool"),
    (lambda: cancellation_experiment(2, 1, [], 1),
     "need trials >= 1 and a nonempty pool"),
    (lambda: sphere_growth_profile(closure([ONE], ClosureBudget(2))),
     "sphere growth profile needs a free-group closure"),
    (lambda: nilpotent_identity_grid([0], [0], [1]),
     "n and m must be positive"),
    (lambda: torsion_inverse_witness(ONE, ONE, 0), "max_k must be positive"),
    (lambda: make_measure(Z, [(G.make_element(G.ZPower(2), (1, 0)), 1)]),
     "atom (1,0) is not a ZPower(1) element"),
    (lambda: make_measure(Z, []), "measure needs at least one atom"),
    (lambda: heavy_tail_measure_z2(2, 0, Fraction(1, 5)),
     "cutoff must be >= 1"),
    (lambda: heavy_tail_measure_z2(2, 4, Fraction(1)),
     "minor_weight must lie strictly between 0 and 1"),
    (lambda: sample_atom_indices(MU_Z, -1, 1), "n_steps must be >= 0"),
    (lambda: classify_subsemigroup([(0.5, 0)]),
     "vectors must have integer entries"),
    (lambda: subgroup_index([(2.5, 0), (0, 1)]),
     "vectors must have integer entries"),
], ids=["closure-budget", "contains-foreign-element", "tail-index-past-trace",
        "eval-step-past-walk", "no-excursions", "word-length-zero",
        "no-trials", "empty-pool", "growth-on-z", "grid-n-zero",
        "torsion-max-k-zero", "foreign-atom", "no-atoms", "heavy-tail-cutoff",
        "heavy-tail-minor-weight", "negative-steps", "fractional-generator",
        "fractional-lattice-vector"])
def test_refused_argument_names_itself(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
