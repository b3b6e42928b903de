"""Shared hypothesis strategies, fixtures and the child-process memory probe."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from algrec import groups as G

SMALL_DESCRIPTORS = (
    G.ZPower(1),
    G.ZPower(2),
    G.ZPower(3),
    G.Free(2),
    G.Free(5),
    G.Heisenberg(),
    G.LamplighterZ(),
    G.CyclicZ(6),
    G.CyclicZ(12),
)


def ball_elements(descriptor: G.GroupDescriptor, radius: int) -> list[G.GroupElement]:
    """All elements with word length <= radius, sorted canonically."""
    return sorted((G.GroupElement(descriptor, p)
                   for p in G.ball_distances(descriptor, radius)),
                  key=G.canonical_key)


def elements(descriptor: G.GroupDescriptor, size: int = 6) -> st.SearchStrategy:
    """Arbitrary canonical elements of one group, of bounded complexity."""
    kind = descriptor.kind
    small = st.integers(-size, size)
    if kind == "ZPower":
        return st.tuples(*([small] * descriptor.rank)).map(
            lambda t: G.make_element(descriptor, t))
    if kind == "Free":
        letters = st.integers(1, descriptor.rank).flatmap(
            lambda i: st.sampled_from([i, -i]))
        return st.lists(letters, max_size=size).map(
            lambda ls: G.make_element(descriptor, ls))
    if kind == "Heisenberg":
        return st.tuples(small, small, small).map(
            lambda t: G.GroupElement(descriptor, t))
    if kind == "LamplighterZ":
        return st.tuples(small, st.sets(small, max_size=size)).map(
            lambda t: G.make_element(descriptor, t))
    return st.integers(0, descriptor.modulus - 1).map(
        lambda r: G.GroupElement(descriptor, r))


def generator_words(descriptor: G.GroupDescriptor,
                    max_length: int = 8) -> st.SearchStrategy:
    """Elements built as products of up to max_length standard generators."""
    gens = G.standard_generators(descriptor)

    def build(indices):
        acc = G.identity(descriptor)
        for i in indices:
            acc = G.multiply(acc, gens[i])
        return acc

    return st.lists(st.integers(0, len(gens) - 1), max_size=max_length).map(build)


_VM = ("def vm(key):\n"
       "    with open('/proc/self/status') as fh:\n"
       "        return int(next(line.split()[1] for line in fh\n"
       "                        if line.startswith(key + ':')))\n")


def child_output(script: str, *args: str) -> list[str]:
    """Run ``script`` with ``args`` in a fresh interpreter that imports
    algrec from this checkout; return the words of its last output line.

    The script may call ``vm(key)``: the ``/proc/self/status`` entry
    ``key`` in kB, such as VmHWM, the high-water mark of the child's own
    address space. RUSAGE_SELF would carry over the peak of the test
    process that started it, and RUSAGE_CHILDREN that of other tests'
    children. Skips where /proc is absent.
    """
    if not Path("/proc/self/status").exists():
        pytest.skip("reads the peak resident set from /proc")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", _VM + script, *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()
