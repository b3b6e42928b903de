"""Symmetric step measures with exact rational weights."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .groups import (
    GroupDescriptor,
    GroupElement,
    ZPower,
    canonical_key,
    format_element,
    invert,
    make_element,
    standard_generators,
)

#: Significant bits kept when quantizing non-rational weight profiles.
_WEIGHT_QUANTUM_BITS = 40


@dataclass(frozen=True)
class SymmetricMeasure:
    """Finite-support probability measure with mu(g) = mu(g^-1).

    Atoms are stored sorted by canonical element text, weights are exact
    Fractions summing to 1. Sampling converts the weights once into a
    64-bit fixed-point cumulative table; that conversion is the only
    lossy step anywhere in the walk pipeline.
    """

    descriptor: GroupDescriptor
    atoms: tuple[tuple[GroupElement, Fraction], ...]

    @cached_property
    def support(self) -> tuple[GroupElement, ...]:
        return tuple(g for g, _ in self.atoms)

    @cached_property
    def weight_by_element(self) -> dict[GroupElement, Fraction]:
        return {g: w for g, w in self.atoms}

    @cached_property
    def first_asymmetric_atom(self) -> GroupElement | None:
        """The first atom g, in canonical order, with mu(g) != mu(g^-1), or
        None: the one symmetry check, made once per measure."""
        weights = self.weight_by_element
        for g, w in self.atoms:
            if weights.get(invert(g)) != w:
                return g
        return None

    @cached_property
    def sampling_thresholds(self) -> tuple[int, ...]:
        """Cumulative 64-bit thresholds t_0 < ... < t_{K-1} = 2**64.

        Atom i is drawn for a uniform u in [0, 2**64) iff
        t_{i-1} <= u < t_i.
        """
        scale = 1 << 64
        acc = Fraction(0)
        out = []
        for _, w in self.atoms:
            acc += w
            out.append(round(acc * scale))
        if out[-1] != scale:
            raise ValueError("weights do not sum to 1")
        for prev, cur in zip([0] + out, out):
            if cur <= prev:
                raise ValueError("atom weight too small for the 64-bit table")
        return tuple(out)


def make_measure(descriptor: GroupDescriptor,
                 weighted_atoms) -> SymmetricMeasure:
    """Build a measure from (element, weight) pairs.

    Duplicate elements are merged, weights must be positive rationals
    summing to exactly 1. Symmetry is not forced here; the measure's
    first_asymmetric_atom checks it.
    """
    merged: dict[GroupElement, Fraction] = {}
    for g, w in weighted_atoms:
        if g.descriptor != descriptor:
            raise ValueError(f"atom {format_element(g)} is not a {descriptor} element")
        w = Fraction(w)
        if w <= 0:
            raise ValueError(f"weight of {format_element(g)} must be positive")
        merged[g] = merged.get(g, Fraction(0)) + w
    if not merged:
        raise ValueError("measure needs at least one atom")
    total = sum(merged.values())
    if total != 1:
        raise ValueError(f"weights sum to {total}, expected 1")
    atoms = tuple(sorted(merged.items(), key=lambda it: canonical_key(it[0])))
    return SymmetricMeasure(descriptor, atoms)


def uniform_standard_measure(descriptor: GroupDescriptor) -> SymmetricMeasure:
    """Uniform weights over the standard symmetric generating set."""
    gens = standard_generators(descriptor)
    w = Fraction(1, len(gens))
    return make_measure(descriptor, [(g, w) for g in gens])


def heavy_tail_measure_z2(alpha: float, cutoff: int,
                          minor_weight: Fraction) -> SymmetricMeasure:
    """Measure on Z^2 concentrated along the diagonal x = y.

    Atoms sit at +-(k, k) for 1 <= k <= cutoff with weights proportional
    to k**-alpha, scaled to total 1 - minor_weight; the remaining
    minor_weight is split between +-(1, -1). Non-integer alpha profiles
    are rounded to 40 significant bits before normalization, so that all
    stored weights stay exact rationals and none rounds to zero.
    """
    if alpha <= 1:
        raise ValueError("alpha must be > 1")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    minor_weight = Fraction(minor_weight)
    if not 0 < minor_weight < 1:
        raise ValueError("minor_weight must lie strictly between 0 and 1")
    desc = ZPower(2)
    if float(alpha).is_integer():
        profile = [Fraction(1, k ** int(alpha)) for k in range(1, cutoff + 1)]
    else:
        scale = 1 << _WEIGHT_QUANTUM_BITS
        profile = [Fraction(round(m * scale), scale) * Fraction(2) ** e
                   for m, e in (math.frexp(k ** -float(alpha))
                                for k in range(1, cutoff + 1))]
    total = 2 * sum(profile)
    major = 1 - minor_weight
    atoms = []
    for k, p in enumerate(profile, start=1):
        w = major * p / total
        atoms.append((make_element(desc, (k, k)), w))
        atoms.append((make_element(desc, (-k, -k)), w))
    atoms.append((make_element(desc, (1, -1)), minor_weight / 2))
    atoms.append((make_element(desc, (-1, 1)), minor_weight / 2))
    return make_measure(desc, atoms)

