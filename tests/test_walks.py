import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algrec import groups as G
from algrec.manifest import write_csv
from algrec.measures import make_measure, uniform_standard_measure
from algrec.walks import (
    generate_walk,
    sample_atom_indices,
    trace_from_increments,
    write_positions_csv,
    write_trace,
)
from conftest import child_output
from oracles import read_trace

#: Free-group step sets: single letters, and two-letter atoms whose
#: products cancel across increment boundaries.
FREE_ATOMS = {
    "F2 letters": (2, [[1], [-1], [2], [-2]]),
    "F2 pairs": (2, [[1, 2], [-2, -1], [2], [-2]]),
    "F3 pairs": (3, [[1, 2], [-2, -1], [3], [-3]]),
    "F3 mixed": (3, [[1, 2], [-2, -1], [2, -3], [3, -2], [1], [-1]]),
}


def free_measure(name):
    d, words = FREE_ATOMS[name]
    desc = G.Free(d)
    return make_measure(desc, [(G.make_element(desc, w), Fraction(1, len(words)))
                               for w in words])


def running_products(increments):
    acc, out = None, []
    for z in increments:
        acc = z if acc is None else G.multiply(acc, z)
        out.append(acc)
    return out


def test_empty_walk():
    mu = uniform_standard_measure(G.ZPower(1))
    trace = generate_walk(mu, 0, seed=5)
    assert len(trace) == 0
    assert trace.positions == ()


def test_reproducible_bit_for_bit():
    mu = uniform_standard_measure(G.Free(3))
    a = generate_walk(mu, 500, seed=123)
    b = generate_walk(mu, 500, seed=123)
    assert a == b
    c = generate_walk(mu, 500, seed=124)
    assert a.increments != c.increments


def test_golden_increments_pinned_seed():
    # Freezes the Philox-derived stream so cross-platform drift is caught.
    mu = uniform_standard_measure(G.ZPower(1))
    steps = [z.payload[0] for z in generate_walk(mu, 12, seed=1).increments]
    assert steps == [-1, -1, -1, 1, -1, -1, -1, -1, 1, 1, 1, -1]


def test_prefix_consistency():
    mu = uniform_standard_measure(G.Heisenberg())
    trace = generate_walk(mu, 200, seed=9)
    acc = None
    for z, x in zip(trace.increments, trace.positions):
        acc = z if acc is None else G.multiply(acc, z)
        assert acc == x


def test_unit_steps_on_z():
    mu = uniform_standard_measure(G.ZPower(1))
    trace = generate_walk(mu, 300, seed=2)
    prev = 0
    for x in trace.positions:
        assert abs(x.payload[0] - prev) == 1
        prev = x.payload[0]


def test_clt_mean_bound():
    mu = uniform_standard_measure(G.ZPower(1))
    n = 100_000
    idx = sample_atom_indices(mu, n, seed=11)
    steps = np.where(np.array([g.payload[0] for g in mu.support])[idx] > 0, 1, -1)
    sigma = 1.0  # unit steps
    assert abs(steps.mean()) <= 3 * sigma / math.sqrt(n)


def test_empirical_symmetry():
    mu = uniform_standard_measure(G.Free(2))
    n = 100_000
    idx = sample_atom_indices(mu, n, seed=4)
    counts = np.bincount(idx, minlength=len(mu.atoms)) / n
    for i, (g, w) in enumerate(mu.atoms):
        j = next(k for k, (h, _) in enumerate(mu.atoms) if h == G.invert(g))
        assert abs(counts[i] - counts[j]) <= 4 * math.sqrt(float(w) / n)


def test_asymmetric_measure_rejected():
    # make_measure refuses it, so no walk can start on it.
    z = G.ZPower(1)
    with pytest.raises(ValueError, match="not symmetric"):
        make_measure(z, [(G.make_element(z, (1,)), Fraction(2, 3)),
                         (G.make_element(z, (-1,)), Fraction(1, 3))])


def test_sampling_thresholds_cover_uint64():
    mu = uniform_standard_measure(G.Free(5))
    thresholds = mu.sampling_thresholds
    assert thresholds[-1] == 1 << 64
    assert all(b > a for a, b in zip(thresholds, thresholds[1:]))


def test_trace_file_roundtrip(tmp_path):
    mu = uniform_standard_measure(G.LamplighterZ())
    trace = generate_walk(mu, 40, seed=77)
    path = tmp_path / "trace.txt"
    write_trace(trace, path)
    again = read_trace(path)
    assert again == trace
    write_trace(trace, tmp_path / "t2.txt")
    assert (tmp_path / "trace.txt").read_bytes() == (tmp_path / "t2.txt").read_bytes()


def test_positions_csv(tmp_path):
    mu = uniform_standard_measure(G.ZPower(2))
    trace = generate_walk(mu, 5, seed=3)
    path = tmp_path / "pos.csv"
    write_positions_csv(trace, path, meta={"config": "abc"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# config=abc"
    assert lines[1] == "step,position,c1,c2"
    assert len(lines) == 7


def test_trace_from_increments_checks_descriptor():
    z = G.ZPower(1)
    with pytest.raises(ValueError):
        trace_from_increments(z, 0, [G.identity(G.ZPower(2))])


def check_positions(descriptor, atoms, data):
    """The positions of a drawn walk, of its first step and of the empty
    walk equal the running products as a sequence of elements."""
    walk = [atoms[i] for i in data.draw(
        st.lists(st.integers(0, len(atoms) - 1), max_size=40))]
    for incs in (walk[:0], walk[:1], walk):
        trace = trace_from_increments(descriptor, 0, incs)
        ref = running_products(incs)
        pos = trace.positions
        assert len(pos) == len(ref)
        assert list(pos) == ref
        assert pos == tuple(ref) and tuple(ref) == pos
        assert hash(pos) == hash(tuple(ref))
        assert pos.lengths() == [G.word_length(x) for x in ref]
        assert [pos.payload(i) for i in range(len(ref))] == \
            [x.payload for x in ref]
        for i in range(-len(ref), len(ref)):
            assert pos[i] == ref[i]
        bounds = st.integers(-len(ref) - 2, len(ref) + 2) | st.none()
        cut = slice(data.draw(bounds), data.draw(bounds),
                    data.draw(st.sampled_from([None, 1, 2, -1, -3])))
        assert pos[cut] == tuple(ref[cut])
        assert hash(pos[cut]) == hash(tuple(ref[cut]))
        assert list(pos[cut][1:]) == ref[cut][1:]
        assert trace == trace_from_increments(descriptor, 0, incs)
        if ref:
            other = list(ref)
            other[-1] = G.multiply(other[-1], atoms[0])
            assert pos != tuple(other)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FREE_ATOMS)), st.data())
def test_trie_positions_match_running_products(name, data):
    d, words = FREE_ATOMS[name]
    desc = G.Free(d)
    check_positions(desc, [G.make_element(desc, w) for w in words], data)


#: Step payloads beyond the standard generators, so that every walk kernel
#: meets steps that are not generators: Z^d vectors, Heisenberg steps with
#: c != 0 and |a|, |b| > 1, lamplighter steps with several and negative
#: lamps, and every residue of Z/12.
DRAWN_STEPS = {
    G.ZPower(2): st.tuples(*[st.integers(-3, 3)] * 2),
    G.ZPower(3): st.tuples(*[st.integers(-3, 3)] * 3),
    G.Heisenberg(): st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                              st.integers(-6, 6)),
    G.LamplighterZ(): st.tuples(st.integers(-3, 3),
                                st.sets(st.integers(-4, 4), max_size=5)),
    G.CyclicZ(12): st.integers(0, 11),
}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([G.Free(3), *DRAWN_STEPS]), st.data())
def test_positions_match_running_products(descriptor, data):
    """Positions from the standard generators and, outside F_d, from drawn
    steps as well."""
    steps = DRAWN_STEPS.get(descriptor)
    drawn = [] if steps is None else data.draw(
        st.lists(steps, min_size=1, max_size=4))
    check_positions(descriptor, [
        *G.standard_generators(descriptor),
        *(G.make_element(descriptor, p) for p in drawn)], data)


@pytest.mark.parametrize("name,seed", [("F2 letters", 1), ("F2 pairs", 2),
                                       ("F3 pairs", 3), ("F3 mixed", 4)])
def test_free_positions_csv_matches_formatted_products(tmp_path, name, seed):
    trace = generate_walk(free_measure(name), 400, seed=seed)
    ref = running_products(trace.increments)
    write_positions_csv(trace, tmp_path / "trie.csv", meta={"config": "x"})
    write_csv(tmp_path / "ref.csv", {"config": "x"}, ["step", "position"],
              [(n, G.format_element(x)) for n, x in enumerate(ref, start=1)])
    assert (tmp_path / "trie.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


def test_free_positions_csv_within_budget(tmp_path):
    """The positions CSV of a 4k-step F_5 walk, about 19 MB, is written in
    under 0.3 s."""
    trace = generate_walk(uniform_standard_measure(G.Free(5)), 4000, seed=11)
    start = time.perf_counter()
    write_positions_csv(trace, tmp_path / "pos.csv", meta={"config": "x"})
    assert time.perf_counter() - start < 0.3


def test_long_free_closure_memory_is_linear(tmp_path):
    """A 20k-step F_5 closure run stays far below the gigabyte that full
    reduced-word positions take."""
    cfg = tmp_path / "long.cfg"
    cfg.write_text("[group]\nkind = Free(5)\n[walk]\nsteps = 20000\n"
                   "[budget]\nradius = 4\n[run]\nseeds = 1\n")
    code, peak_kb = child_output(
        "import sys\n"
        "from algrec.cli import main\n"
        "print(main(sys.argv[1:]), vm('VmHWM'))\n",
        "closure", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == "0"
    assert int(peak_kb) < 150 * 1024
