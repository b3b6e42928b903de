import hashlib
import json
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from algrec import closure, groups as G, walks
from algrec.cli import main
from algrec.config import (
    ConfigError,
    ScenarioConfig,
    build_measure,
    canonical_text,
    config_hash,
    load_config,
    parse_config,
)
from algrec.freestats import walk_prefix_stats
from algrec.walks import generate_walk


def test_config_roundtrip_canonical():
    config = ScenarioConfig(group=G.Free(5), steps=500, seeds=(1, 2, 3),
                            eval_steps=(50, 500), budget_radius=4,
                            heavy_minor_weight=Fraction(1, 7))
    text = canonical_text(config)
    assert parse_config(text) == config
    assert canonical_text(parse_config(text)) == text


#: A config that sets every field away from its default.
ALL_FIELDS_CONFIG = ScenarioConfig(
    group=G.Free(3), measure_kind="explicit", heavy_alpha=Fraction(5, 2),
    heavy_cutoff=6, heavy_minor_weight=Fraction(1, 7),
    explicit_atoms=(("x1", Fraction(1, 4)), ("X1", Fraction(1, 4)),
                    ("x2 x3", Fraction(1, 4)), ("X3 X2", Fraction(1, 4))),
    steps=300, tail_index=10, eval_steps=(50, 300), budget_radius=4,
    budget_max_elements=5000, budget_max_products=90_000, coverage_radius=3,
    seeds=(0, 7, 11), out_dir="elsewhere", trials=500, lengths=(8, 32),
    pool_size=4, pool_length=16, excursions=2000, j0=32,
    witness_mode="z-integer", witness_x="3", witness_y="-2", max_k=12,
    k_min=-2, k_max=2, n_max=4, m_max=5)

#: (config_hash, sha256 of canonical_text) per config. They pin the canonical
#: text, and so the config stamp on every data file, across refactors of the
#: config module; update them only for a change meant to alter that text.
CONFIG_PINS = {
    "default": ("e4982ce572de", "db7369009e26459741e5850c60f866b3"
                                "85f461e5629c6f83c0751563d4a9e448"),
    "all-fields": ("5e6630630a82", "ca2856cbf301f0f4041cbfa1969706e3"
                                   "cc67aa120f63f23b923c30ca44f36a14"),
    "ar_survey_f5.cfg": ("c831a8244ca9", "d6de06fc9a5855138a123f0bc5ab1b1c"
                                         "1f7e5b731e25ca93d001446203c4dedf"),
    "ar_survey_heisenberg.cfg": ("e9cd946876c7",
                                 "e37bc189dd490b68fd3bf2de419fbebe"
                                 "72cc38185744dc3edd5a5827d47db103"),
    "ar_survey_z.cfg": ("d208acc6c687", "1bdfe49b23314cbe93d6fa6eaed5b5c0"
                                        "ffcba30656ab633bfdcc2574eaf7ba4e"),
    "ar_survey_z12.cfg": ("57c61aff571c", "4b207ed8dd624d87d19caa3139d007e0"
                                          "2b6a2e48f11295f56d48f4ad4c42715b"),
    "free_stats_f2.cfg": ("88c349869732", "201cface4d5aa4c754663d669443890c"
                                          "4349c57ee6655271e04d916c9f798a5e"),
    "free_stats_f5.cfg": ("c3d0f9522ea0", "36ebe05bfa5a8b9a141cc650ecc3ecb8"
                                          "d090defd9013aff82b9f6003c97c43b7"),
}

CONFIG_DIR = Path(__file__).parents[1] / "configs"


@pytest.mark.parametrize("name", sorted(CONFIG_PINS))
def test_config_hash_and_canonical_text_pinned(name):
    if name == "default":
        config = ScenarioConfig()
    elif name == "all-fields":
        config = ALL_FIELDS_CONFIG
    else:
        config = load_config(str(CONFIG_DIR / name))
    text = canonical_text(config)
    assert (config_hash(config),
            hashlib.sha256(text.encode()).hexdigest()) == CONFIG_PINS[name]
    assert parse_config(text) == config


def test_config_pins_cover_every_field_and_config():
    default = ScenarioConfig()
    assert all(getattr(ALL_FIELDS_CONFIG, f.name) != getattr(default, f.name)
               for f in fields(ScenarioConfig))
    assert {p.name for p in CONFIG_DIR.glob("*.cfg")} <= set(CONFIG_PINS)


def test_config_hash_ignores_out_dir():
    a = ScenarioConfig(out_dir="x")
    b = ScenarioConfig(out_dir="y")
    assert config_hash(a) == config_hash(b)
    assert canonical_text(a) != canonical_text(b)


def test_config_defaults_and_effective_values():
    config = ScenarioConfig(steps=100)
    assert config.effective_eval_steps() == (100,)
    assert config.effective_coverage_radius() == config.budget_radius


def test_parse_errors_carry_field_paths():
    with pytest.raises(ConfigError) as err:
        parse_config("[group]\nkind = Free(1)\n")
    assert "d >= 2" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config("[walk]\nsteps = -3\n")
    assert str(err.value).startswith("walk.steps")
    with pytest.raises(ConfigError) as err:
        parse_config("[bogus]\nx = 1\n")
    assert "unknown section" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config("[budget]\nradius = 3\ncoverage_radius = 9\n")
    assert "budget.coverage_radius" in str(err.value)
    for text, path in [
            ("[budget]\ncoverage_radius = -1\n", "budget.coverage_radius"),
            ("[budget]\nmax_elements = 0\n", "budget.max_elements"),
            ("[budget]\nmax_products = 0\n", "budget.max_products"),
            ("[walk]\nsteps = 200\neval_steps = 20,200\ntail_index = 50\n",
             "walk.tail_index"),
            ("[walk]\nsteps = 10\ntail_index = 11\n", "walk.tail_index"),
            ("[nilpotent]\nk_min = 2\nk_max = 1\n", "nilpotent.k_min"),
            ("steps = 10\n[walk]\n", "<config>"),
            ("[walk]\nsteps\n", "<config>"),
            ("[walk]\nstep = 3\n", "walk.step: unknown key"),
            ("[measure]\nkind = uniform\n", "measure.kind"),
            ("[run]\nseeds =\n", "run.seeds"),
            ("[witness]\nmode = torsionx\n", "witness.mode"),
            ("[walk]\nsteps = 10\neval_steps = 5,11\n", "walk.eval_steps")]:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value).startswith(path)
    parse_config("[walk]\nsteps = 200\neval_steps = 20,200\ntail_index = 20\n")


#: Every declared lower bound; a tuple field's bound holds for each entry.
DECLARED_BOUNDS = {
    "budget.coverage_radius": 0, "budget.max_elements": 1,
    "budget.max_products": 1, "budget.radius": 1,
    "free.excursions": 1, "free.lengths": 1, "free.pool_length": 1,
    "free.pool_size": 1, "free.trials": 1,
    "measure.cutoff": 1,
    "nilpotent.m_max": 1, "nilpotent.n_max": 1,
    "run.seeds": 0,
    "walk.steps": 0, "walk.tail_index": 1,
    "witness.max_k": 1,
}


def test_declared_bounds_listed():
    declared = {f.metadata["key"]: f.metadata["min"]
                for f in fields(ScenarioConfig) if f.metadata["min"] is not None}
    assert declared == DECLARED_BOUNDS


@pytest.mark.parametrize("path", sorted(DECLARED_BOUNDS))
def test_value_below_declared_bound_rejected(path):
    section, key = path.split(".")
    low = DECLARED_BOUNDS[path]
    parse_config(f"[{section}]\n{key} = {low}\n")
    bad = f"{low},{low - 1}" if path in ("free.lengths", "run.seeds") \
        else f"{low - 1}"
    with pytest.raises(ConfigError) as err:
        parse_config(f"[{section}]\n{key} = {bad}\n")
    assert str(err.value) == f"{path}: must be >= {low}"


def test_explicit_measure_built_from_atoms():
    config = parse_config(
        "[group]\nkind = ZPower(1)\n"
        "[measure]\nkind = explicit\natoms = (1):1/2 | (-1):1/2\n")
    mu = build_measure(config)
    assert {g.payload[0]: w for g, w in mu.atoms} == {
        1: Fraction(1, 2), -1: Fraction(1, 2)}


def test_heavy_tail_requires_z2():
    config = parse_config(
        "[group]\nkind = ZPower(1)\n[measure]\nkind = heavy-tail\n")
    with pytest.raises(ConfigError):
        build_measure(config)


def write_config(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return str(path)


WALK_CFG = """
[group]
kind = ZPower(1)

[walk]
steps = 10

[run]
seeds = 1,2
"""


def test_cli_walk_writes_expected_files(tmp_path, capsys):
    cfg = write_config(tmp_path, WALK_CFG)
    out = tmp_path / "out"
    assert main(["walk", "--config", cfg, "--out", str(out)]) == 0
    for seed in (1, 2):
        trace = out / f"trace_seed{seed}.txt"
        assert trace.exists()
        header = trace.read_text().splitlines()[0]
        assert "config=" in header and "steps=10" in header
        assert (out / f"positions_seed{seed}.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "walk"
    listed = {Path(p).name for p in manifest["files"]}
    assert listed == {"trace_seed1.txt", "positions_seed1.csv",
                      "trace_seed2.txt", "positions_seed2.csv"}
    for p in manifest["files"]:
        assert Path(p).exists()
        text = Path(p).read_text()
        assert manifest["config_hash"] in text.splitlines()[0] or \
            f"config={manifest['config_hash']}" in text


def test_cli_walk_deterministic_reruns(tmp_path):
    cfg = write_config(tmp_path, WALK_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["walk", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["walk", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("trace_seed1.txt", "positions_seed1.csv",
                 "trace_seed2.txt", "positions_seed2.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_rejects_invalid_group(tmp_path, capsys):
    cfg = write_config(tmp_path, "[group]\nkind = Free(1)\n")
    assert main(["walk", "--config", cfg]) == 2
    assert "d >= 2" in capsys.readouterr().err


def test_cli_seed_override(tmp_path):
    cfg = write_config(tmp_path, WALK_CFG)
    out = tmp_path / "out"
    assert main(["walk", "--config", cfg, "--out", str(out),
                 "--seed", "7"]) == 0
    assert (out / "trace_seed7.txt").exists()
    assert not (out / "trace_seed1.txt").exists()


AR_CFG = """
[group]
kind = CyclicZ(12)

[walk]
steps = 60
eval_steps = 20,60

[budget]
radius = 6

[run]
seeds = 1,2,3
"""


def test_cli_ar_estimate(tmp_path):
    cfg = write_config(tmp_path, AR_CFG)
    out = tmp_path / "out"
    assert main(["ar-estimate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "ar_coverage.csv").read_text().splitlines()
    data = [l for l in lines if l and not l.startswith("#")]
    assert data[0] == ("seed,n_used,coverage,present_fraction,"
                       "present_fraction_decided,exhausted")
    assert len(data) == 1 + 3 * 2  # header + seeds x eval steps


def test_cli_closure_dump(tmp_path):
    cfg = write_config(tmp_path, AR_CFG)
    out = tmp_path / "out"
    assert main(["closure", "--config", cfg, "--out", str(out)]) == 0
    dump = (out / "closure_seed1.txt").read_text().splitlines()
    assert dump[0].startswith("# closure group=CyclicZ(12)")


def test_cli_closure_heisenberg_past_radius_12(tmp_path):
    cfg = write_config(tmp_path, AR_CFG.replace("CyclicZ(12)", "Heisenberg")
                       .replace("radius = 6", "radius = 14\nmax_elements = 300"))
    out = tmp_path / "out"
    assert main(["closure", "--config", cfg, "--out", str(out)]) == 0
    dump = (out / "closure_seed1.txt").read_text().splitlines()
    assert dump[0].startswith("# closure group=Heisenberg generators=1..60 "
                              "radius=14 ")


def test_cli_lattice_classify(tmp_path, capsys):
    vecs = tmp_path / "vecs.txt"
    vecs.write_text("1 0\n0 1\n-1 -1\n")
    assert main(["lattice-classify", str(vecs)]) == 0
    out = capsys.readouterr().out
    assert "classification: Full" in out
    assert "hull_certificate_coefficients: 1,1,1" in out

    vecs.write_text("1 0\n0 1\n")
    assert main(["lattice-classify", str(vecs)]) == 0
    assert "InHalfSpace" in capsys.readouterr().out

    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["lattice-classify", str(empty)]) == 2


@pytest.mark.parametrize("text, message", [
    ("1 0\n# comment\n0 x\n", "line 3: 'x' is not an integer"),
    ("1 0\n\n1 0 2\n", "line 3: 3 entries, expected 2"),
], ids=["non-integer", "other-dimension"])
def test_cli_lattice_classify_bad_row_names_file_and_line(tmp_path, capsys,
                                                          text, message):
    vecs = tmp_path / "vecs.txt"
    vecs.write_text(text)
    out = tmp_path / "out"
    assert main(["lattice-classify", str(vecs), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"config error: vectors: {vecs} {message}\n"
    assert not out.exists()


def test_cli_lattice_classify_missing_file(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    assert main(["lattice-classify", str(missing)]) == 2
    assert capsys.readouterr().err == \
        f"config error: vectors: no such file: {missing}\n"


FREE_CFG = """
[group]
kind = Free(5)

[walk]
steps = 400

[budget]
radius = 5

[run]
seeds = 1,2

[free]
trials = 2000
lengths = 16,64
excursions = 5000
"""


def test_cli_free_stats(tmp_path, capsys):
    cfg = write_config(tmp_path, FREE_CFG)
    out = tmp_path / "out"
    assert main(["free-stats", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "10/91" in printed
    for name in ("prefix_vj_seed1.csv", "prefix_vj_seed2.csv",
                 "growth_seed1.csv", "cancellation.csv", "free_summary.csv"):
        assert (out / name).exists()
    summary = (out / "free_summary.csv").read_text()
    assert "return_probability_exact=10/91" in summary


def test_cli_free_stats_deterministic(tmp_path):
    cfg = write_config(tmp_path, FREE_CFG)
    out1, out2 = tmp_path / "m", tmp_path / "n"
    main(["free-stats", "--config", cfg, "--out", str(out1)])
    main(["free-stats", "--config", cfg, "--out", str(out2)])
    for name in ("prefix_vj_seed1.csv", "growth_seed2.csv",
                 "cancellation.csv", "free_summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_free_stats_uses_configured_measure(tmp_path, monkeypatch):
    """V_j and max_depth come from the configured walk, not the uniform one,
    and each seed's walk is sampled once, for its counts and its closure."""
    cfg = write_config(tmp_path, FREE_CFG.replace("Free(5)", "Free(2)").replace(
        "[walk]", "[measure]\nkind = explicit\n"
        "atoms = x1 x2:1/4 | X2 X1:1/4 | x2:1/4 | X2:1/4\n\n[walk]")
        .replace("steps = 400", "steps = 300"))
    stats = walk_prefix_stats(
        generate_walk(build_measure(load_config(cfg)), 300, seed=4))
    sampled = []
    sample = walks.sample_atom_indices

    def spy(measure, n_steps, seed):
        sampled.append(seed)
        return sample(measure, n_steps, seed)

    monkeypatch.setattr(walks, "sample_atom_indices", spy)
    out = tmp_path / "out"
    assert main(["free-stats", "--config", cfg, "--out", str(out),
                 "--seed", "4", "--seed", "5"]) == 0
    assert sampled == [4, 5]
    rows = [l.split(",") for l in (out / "prefix_vj_seed4.csv").read_text()
            .splitlines() if l and not l.startswith("#")][1:]
    assert {int(j): int(v) for j, v, _ in rows} == stats.counts
    summary = (out / "free_summary.csv").read_text().splitlines()
    assert summary[-2].split(",")[:2] == ["4", str(stats.max_depth)]
    assert stats.max_depth == 161


def test_cli_free_stats_requires_free_group(tmp_path):
    cfg = write_config(tmp_path, "[group]\nkind = ZPower(2)\n")
    assert main(["free-stats", "--config", cfg]) == 2


def test_cli_nilpotent_check(tmp_path, capsys):
    cfg = write_config(tmp_path, "[nilpotent]\nk_min = -1\nk_max = 1\n"
                                 "n_max = 2\nm_max = 2\n")
    out = tmp_path / "out"
    assert main(["nilpotent-check", "--config", cfg, "--out", str(out)]) == 0
    assert "all hold: True" in capsys.readouterr().out
    rows = [l for l in (out / "nilpotent_check.csv").read_text().splitlines()
            if l and not l.startswith("#")]
    assert len(rows) == 1 + 81 * 4


def test_cli_witness_check_torsion(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[group]
kind = CyclicZ(6)

[witness]
mode = torsion
x = 2 mod 6
y = 1 mod 6
max_k = 12
""")
    out = tmp_path / "out"
    assert main(["witness-check", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "k: 2" in printed
    assert "witness: 4 mod 6" in printed
    assert "inverse_recovered: True" in printed


def test_cli_witness_check_absent_exits_3(tmp_path):
    cfg = write_config(tmp_path, """
[group]
kind = ZPower(1)

[witness]
mode = torsion
x = (1)
y = (2)
max_k = 20
""")
    assert main(["witness-check", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 3


def test_cli_witness_check_z_integer(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[witness]
mode = z-integer
x = 3
y = -2
""")
    assert main(["witness-check", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 0
    printed = capsys.readouterr().out
    assert "y_copies: 3" in printed
    assert "x_copies: 1" in printed
    assert "combination_value: -3" in printed


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parents[1] / "configs").glob("*.cfg")),
    ids=lambda p: p.name)
def test_experiment_configs_load(path):
    assert load_config(str(path)).seeds


def test_threads_flag(tmp_path):
    """Each walking command accepts --threads, which nothing reads, and its
    manifest times each seed once, as seed<n>, and nothing else."""
    for command, text, threads in [("walk", WALK_CFG, "1"),
                                   ("closure", AR_CFG, "2"),
                                   ("ar-estimate", AR_CFG, "3"),
                                   ("free-stats", FREE_CFG, "1")]:
        out = tmp_path / command
        assert main([command, "--config", write_config(tmp_path, text),
                     "--out", str(out), "--threads", threads,
                     "--seed", "4", "--seed", "5"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["wall_clock_seconds"]) == ["seed4", "seed5"]


HEISENBERG_AR_CFG = (AR_CFG.replace("CyclicZ(12)", "Heisenberg")
                     .replace("radius = 6", "radius = 4"))


@pytest.mark.parametrize("command, text", [
    ("walk", WALK_CFG), ("closure", HEISENBERG_AR_CFG),
    ("ar-estimate", HEISENBERG_AR_CFG), ("ar-estimate", AR_CFG),
    ("free-stats", FREE_CFG),
], ids=["walk", "closure", "ar-estimate-heisenberg", "ar-estimate-z12",
        "free-stats"])
def test_data_files_independent_of_threads(tmp_path, monkeypatch, command,
                                           text):
    """A run that grows its ball-size and closure-store caches from empty,
    and a second that reuses them warm and passes --threads 2, write the
    same bytes into every data file, and their manifests list the files in
    the same order. manifest.json holds times, so it is not compared."""
    cfg = write_config(tmp_path, text)
    G.ball_size.cache_clear()
    monkeypatch.setattr(closure, "_STORES", {})
    runs = []
    for name, extra in [("cold", []), ("warm", ["--threads", "2"])]:
        out = tmp_path / name
        assert main([command, "--config", cfg, "--out", str(out),
                     *extra]) == 0
        listed = json.loads((out / "manifest.json").read_text())["files"]
        runs.append(([Path(f).name for f in listed],
                     {p.name: p.read_bytes() for p in out.iterdir()
                      if p.name != "manifest.json"}))
    assert runs[0] == runs[1]
    assert sorted(runs[0][0]) == sorted(runs[0][1])


def test_worker_failure_fails_the_run(tmp_path, capsys):
    """A seed whose file cannot be written fails the run, after every other
    seed has written its files and before any manifest is; when seeds 2 and
    3 both fail, the error is seed 2's."""
    cfg = write_config(tmp_path, WALK_CFG)
    for failing, seeds in [((2,), (1, 2, 3)), ((2, 3), (1, 2, 3, 4))]:
        out = tmp_path / f"failing{len(failing)}"
        for seed in failing:
            (out / f"trace_seed{seed}.txt").mkdir(parents=True)
        argv = ["walk", "--config", cfg, "--out", str(out)]
        for seed in seeds:
            argv += ["--seed", str(seed)]
        assert main(argv) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: [Errno 21] ")
        assert error.count("\n") == 1
        assert "trace_seed2.txt" in error
        # A failing seed's trace name is the directory that blocks it.
        expected = {f"trace_seed{seed}.txt" for seed in seeds}
        expected |= {f"positions_seed{seed}.csv" for seed in seeds
                     if seed not in failing}
        assert {p.name for p in out.iterdir()} == expected


def test_cli_rejects_repeated_seed(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["walk", "--config", write_config(tmp_path, WALK_CFG),
                 "--out", str(out), "--seed", "1", "--seed", "1"]) == 2
    assert capsys.readouterr().err == \
        "config error: run.seeds: seed 1 repeated\n"
    assert not out.exists()


ASYMMETRIC_Z = "[measure]\nkind = explicit\natoms = (1):2/3 | (-1):1/3\n"
ASYMMETRIC_F2 = ("[group]\nkind = Free(2)\n[measure]\nkind = explicit\n"
                 "atoms = x1:1/2 | X1:1/4 | x2:1/8 | X2:1/8\n")
HEAVY_TAIL_Z2 = "[group]\nkind = ZPower(2)\n[measure]\nkind = heavy-tail\n"
#: Symmetric weights on Z that sum to 1, two of them 2**-70: below the
#: resolution of the 64-bit sampling table.
TINY = Fraction(1, 2 ** 70)
TINY_WEIGHTS_Z = ("[measure]\nkind = explicit\natoms = "
                  f"(1):{Fraction(1, 2) - TINY} | (-1):{Fraction(1, 2) - TINY}"
                  f" | (2):{TINY} | (-2):{TINY}\n")


@pytest.mark.parametrize("command, text, path", [
    ("nilpotent-check", "[nilpotent]\nk_min = 2\nk_max = 1\n",
     "nilpotent.k_min"),
    ("nilpotent-check", "[nilpotent]\nn_max = 0\n", "nilpotent.n_max"),
    ("walk", WALK_CFG.replace("seeds = 1,2", "seeds = 1,-2"), "run.seeds"),
    ("free-stats", FREE_CFG + "pool_size = 0\n", "free.pool_size"),
    ("witness-check", "[witness]\nmax_k = 0\n", "witness.max_k"),
    ("closure", "[walk]\nsteps = 0\n", "walk.steps"),
    ("ar-estimate", "[walk]\nsteps = 0\n", "walk.steps"),
    ("free-stats", FREE_CFG.replace("steps = 400", "steps = 0"), "walk.steps"),
    ("walk", HEAVY_TAIL_Z2 + "alpha = 1\n", "measure.alpha"),
    ("walk", "[measure]\nkind = heavy-tail\n", "measure.kind"),
    ("free-stats", "[group]\nkind = ZPower(2)\n", "group.kind"),
    ("walk", ASYMMETRIC_Z, "measure.atoms"),
    ("closure", ASYMMETRIC_Z, "measure.atoms"),
    ("ar-estimate", ASYMMETRIC_Z, "measure.atoms"),
    ("free-stats", ASYMMETRIC_F2, "measure.atoms"),
    ("witness-check", "[witness]\nmode = torsion\n", "witness.x"),
    ("witness-check", "[witness]\nx = (1)\ny = x1\n", "witness.y"),
    ("witness-check", "[witness]\nmode = z-integer\nx = 1/2\ny = 3\n",
     "witness.x"),
    ("walk", "[measure]\nkind = explicit\natoms = (1):1/2 | (-1):1/4\n",
     "measure.atoms"),
    ("walk", "[measure]\nkind = explicit\natoms = x1:1/2 | X1:1/2\n",
     "measure.atoms"),
    ("walk", HEAVY_TAIL_Z2 + "alpha = 40\n", "measure.alpha"),
    ("walk", TINY_WEIGHTS_Z, "measure.atoms"),
    ("walk", HEAVY_TAIL_Z2 + "minor_weight = 2\n", "measure.minor_weight"),
    ("walk", "[group]\nkind = z(2)\n", "group.kind"),
    ("walk", "[measure]\nkind = explicit\n", "measure.atoms"),
], ids=["k_min-above-k_max", "n_max", "seeds", "pool_size", "max_k",
        "closure-no-steps", "ar-estimate-no-steps", "free-stats-no-steps",
        "heavy-tail-alpha", "heavy-tail-z1", "free-stats-z2",
        "walk-asymmetric", "closure-asymmetric", "ar-estimate-asymmetric",
        "free-stats-asymmetric", "torsion-no-x-y", "torsion-unparsed-y",
        "z-integer-not-integer", "explicit-weights-sum", "explicit-unparsed-atom",
        "heavy-tail-weight-below-table", "explicit-weight-below-table",
        "heavy-tail-minor-weight",
        "group-alias", "explicit-no-atoms"])
def test_cli_invalid_setting_fails_before_writing(tmp_path, capsys, command,
                                                  text, path):
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, text),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")
    assert not out.exists()


def test_heavy_tail_alphas_around_a_tiny_weight_build(tmp_path):
    """At cutoff 4, alpha 45/2 weighs (4, 4) by 4**-22.5 = 2**-45 before
    normalization; rounded to significant bits, not to a fixed quantum, it
    stays positive, so like alpha 22 and 23 the measure builds and samples."""
    for alpha in ("22", "45/2", "23"):
        out = tmp_path / alpha.replace("/", "_")
        cfg = write_config(tmp_path, HEAVY_TAIL_Z2 + f"alpha = {alpha}\n")
        assert main(["walk", "--config", cfg, "--out", str(out),
                     "--seed", "1"]) == 0
        assert (out / "positions_seed1.csv").exists()


def test_cli_walk_runs_with_no_steps(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "[walk]\nsteps = 0\n")
    assert main(["walk", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "trace_seed1.txt").read_text().startswith(
        "# trace group=ZPower(1) seed=1 steps=0")


def test_cli_calls_share_no_parser_state(tmp_path):
    """The parser is built once per process; repeated and refused seeds of
    one call do not reach the next."""
    cfg = write_config(tmp_path, WALK_CFG)

    def seeds(out):
        return json.loads((out / "manifest.json").read_text())["seeds"]

    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "a"),
                 "--seed", "1", "--seed", "2"]) == 0
    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--seed", "3"]) == 0
    assert seeds(tmp_path / "b") == [3]
    with pytest.raises(SystemExit):
        main(["walk", "--seed", "5", "--no-such-flag"])
    assert main(["walk", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    assert seeds(tmp_path / "c") == [1, 2]


def test_cli_seed_override_validated(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["walk", "--config", write_config(tmp_path, WALK_CFG),
                 "--out", str(out), "--seed", "1", "--seed", "-2"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: run.seeds: must be >= 0")
    assert not out.exists()


GOLDEN_CFG = """
[group]
kind = {group}
{measure}
[walk]
steps = {steps}

[budget]
radius = {radius}

[run]
seeds = 1,2,3
"""

GOLDEN_SCENARIOS = {
    "ZPower(2)": (60, 4),
    "Free(2)": (40, 4),
    "Heisenberg": (60, 4),
    "LamplighterZ": (60, 4),
    "CyclicZ(12)": (60, 4),
    # Two-letter atoms pin cancellation across multi-letter increments.
    "Free(3)": (300, 4, "x1 x2:1/6 | X2 X1:1/6 | x3:1/3 | X3:1/3"),
}

#: sha256 prefixes of every data file `walk` and `closure` write for
#: GOLDEN_SCENARIOS. They pin output bytes across refactors; update them only
#: for a change meant to alter what the commands write.
GOLDEN_DIGESTS = {
    "CyclicZ(12)": {
        "closure_seed1.txt": "7cce5d6dee70029b",
        "closure_seed2.txt": "d0919e64aeaaef48",
        "closure_seed3.txt": "7cce5d6dee70029b",
        "positions_seed1.csv": "4a91c29fb73f2bd6",
        "positions_seed2.csv": "d688089b66b868f7",
        "positions_seed3.csv": "cb68160157915d66",
        "trace_seed1.txt": "b2c04b37f94443b1",
        "trace_seed2.txt": "096dd5008830c70a",
        "trace_seed3.txt": "9f90ca9db06f6e3a",
        "witness_seed1.csv": "a07d88e579e21170",
        "witness_seed2.csv": "12c08292607dae3f",
        "witness_seed3.csv": "a96af2642ab21c74",
    },
    "Free(3)": {
        "closure_seed1.txt": "6ddb508b2231f4c8",
        "closure_seed2.txt": "7bfda9484016bc86",
        "closure_seed3.txt": "6ddb508b2231f4c8",
        "positions_seed1.csv": "f77868122c5391bc",
        "positions_seed2.csv": "026e2bbeb4e2bf05",
        "positions_seed3.csv": "01cfe7df7869da42",
        "trace_seed1.txt": "29c9ff77fd605100",
        "trace_seed2.txt": "7a158de9ec2f6ca6",
        "trace_seed3.txt": "a7e2d40aefe61001",
        "witness_seed1.csv": "77fe164a03c7cbe9",
        "witness_seed2.csv": "32b63bc59efdf400",
        "witness_seed3.csv": "58ac251534fed733",
    },
    "Free(2)": {
        "closure_seed1.txt": "2db8cca059ebe01b",
        "closure_seed2.txt": "db052bf94a79a107",
        "closure_seed3.txt": "2db8cca059ebe01b",
        "positions_seed1.csv": "a8a3d5c3ea48338b",
        "positions_seed2.csv": "927d6d31e39b56c6",
        "positions_seed3.csv": "1fd763564b5db7de",
        "trace_seed1.txt": "ffb419da4423d7a9",
        "trace_seed2.txt": "df70a0b55dd1ea6c",
        "trace_seed3.txt": "ff2d849d2abfe60a",
        "witness_seed1.csv": "7339c04c81f65f31",
        "witness_seed2.csv": "7733bda7470ac4de",
        "witness_seed3.csv": "7339c04c81f65f31",
    },
    "Heisenberg": {
        "closure_seed1.txt": "6d43cba204b60fe1",
        "closure_seed2.txt": "64f202a3445d05d5",
        "closure_seed3.txt": "ee547ed99c2d1031",
        "positions_seed1.csv": "c1cffdf756134d99",
        "positions_seed2.csv": "c2788899fa20e967",
        "positions_seed3.csv": "31ae9465d5a286e3",
        "trace_seed1.txt": "4994c99235592dce",
        "trace_seed2.txt": "d9dbece6ca9eb5b4",
        "trace_seed3.txt": "438d314c9542ab4c",
        "witness_seed1.csv": "20f990c5b3a25a77",
        "witness_seed2.csv": "0e53852c948e5d11",
        "witness_seed3.csv": "2811de64c4caaf24",
    },
    "LamplighterZ": {
        "closure_seed1.txt": "53eda446589d8327",
        "closure_seed2.txt": "1651823dbef9e4bd",
        "closure_seed3.txt": "720e8577f3fcef95",
        "positions_seed1.csv": "85f5093614367598",
        "positions_seed2.csv": "e38b1a2a6ea081ef",
        "positions_seed3.csv": "d60fa48c455899f4",
        "trace_seed1.txt": "10e61831eb9d0580",
        "trace_seed2.txt": "69b0438f0ebb955a",
        "trace_seed3.txt": "5a835f000c7f9193",
        "witness_seed1.csv": "a880e2d0c5c47d9f",
        "witness_seed2.csv": "052c5d90b670eac0",
        "witness_seed3.csv": "1c63d496684700e9",
    },
    "ZPower(2)": {
        "closure_seed1.txt": "9950607a8c9d4e98",
        "closure_seed2.txt": "3aebfcb7e3c234f8",
        "closure_seed3.txt": "bf1dd3f33a3f75b7",
        "positions_seed1.csv": "59db31fdb5e1b1a4",
        "positions_seed2.csv": "2c9f7128db4554ea",
        "positions_seed3.csv": "6ef1b381d62f94b9",
        "trace_seed1.txt": "adb284f30b53c7f5",
        "trace_seed2.txt": "7a1341b18b393e12",
        "trace_seed3.txt": "2faaa8e41f2b71fc",
        "witness_seed1.csv": "50108e4ccc2e55b4",
        "witness_seed2.csv": "b42281d849917e2a",
        "witness_seed3.csv": "16683938e714e37c",
    },
}


@pytest.mark.parametrize("group", sorted(GOLDEN_SCENARIOS))
def test_cli_outputs_match_golden_digests(tmp_path, group):
    steps, radius, *atoms = GOLDEN_SCENARIOS[group]
    measure = "".join(f"\n[measure]\nkind = explicit\natoms = {a}\n"
                      for a in atoms)
    cfg = write_config(tmp_path, GOLDEN_CFG.format(
        group=group, measure=measure, steps=steps, radius=radius))
    out = tmp_path / "out"
    for command in ("walk", "closure"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
               for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    assert digests == GOLDEN_DIGESTS[group]


#: sha256 prefixes of every data file `free-stats` writes for FREE_CFG on
#: F_2 and F_5 under the standard measure.
GOLDEN_FREE_STATS = {
    "Free(2)": {
        "cancellation.csv": "9624c041ecbc449b",
        "free_summary.csv": "de95363311b0749e",
        "growth_seed1.csv": "25ab43a52347d750",
        "growth_seed2.csv": "928b1404ffb8d34c",
        "prefix_vj_seed1.csv": "d919f19a0b33738d",
        "prefix_vj_seed2.csv": "f0679d9642174508",
    },
    "Free(5)": {
        "cancellation.csv": "f6306659ac77bb81",
        "free_summary.csv": "a87c59f8d4a4f94a",
        "growth_seed1.csv": "8d5e0e4dab08de85",
        "growth_seed2.csv": "5a342932dc438f23",
        "prefix_vj_seed1.csv": "b3fb7d8a321f88b3",
        "prefix_vj_seed2.csv": "611827caf3431e3f",
    },
}


@pytest.mark.parametrize("group", sorted(GOLDEN_FREE_STATS))
def test_free_stats_outputs_match_golden_digests(tmp_path, group):
    cfg = write_config(tmp_path, FREE_CFG.replace("Free(5)", group))
    out = tmp_path / "out"
    assert main(["free-stats", "--config", cfg, "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
               for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    assert digests == GOLDEN_FREE_STATS[group]


#: Vector files covering every branch of `lattice-classify`, with the sha256
#: prefix of the `lattice_report.txt` each one writes.
GOLDEN_LATTICE = {
    "full_hull": ("1 0\n0 1\n-1 -1\n", "9ae75499b28d70cd"),
    "full_dupes_zero": ("1 0\n1 0\n0 0\n0 1\n-1 -1\n2 -3\n", "9ae75499b28d70cd"),
    "full_cert_6_11_7": ("3 1\n-1 2\n-1 -4\n5 5\n", "e6bdf542181570f2"),
    "z1_cert_3_2": ("2\n-3\n", "44dad99d5069f844"),
    "index4": ("2 0\n0 2\n-2 -2\n", "5a4eff27cb5c518c"),
    "line": ("1 1\n-1 -1\n2 2\n", "4e7c68f04a93033e"),
    "quadrant": ("1 0\n0 1\n", "e79b5e761b8307ca"),
    "upper_half_plane": ("1 0\n-1 0\n0 1\n", "ca614da9e02457a9"),
    "lifted_normal": ("1 2 3\n2 1 0\n", "fdfab910b93a7256"),
    "lifted_normal_three": ("1 2 3\n2 1 0\n-1 1 3\n", "7db4ab6d4a707558"),
    "zeros": ("0 0\n0 0\n", "f94a68c6b3089692"),
    "z3_full": ("1 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n2 -1 0\n", "ee7e9eaea730385d"),
    "z3_plane": ("1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n", "fa757ea2ec08c9aa"),
    "z4_index3": ("2 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 3\n-2 -1 -1 -3\n1 1 -1 0\n",
                  "cbe8300b9329c383"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LATTICE))
def test_lattice_report_matches_golden_digest(tmp_path, name):
    text, digest = GOLDEN_LATTICE[name]
    vecs = tmp_path / "vecs.txt"
    vecs.write_text(text)
    out = tmp_path / "out"
    assert main(["lattice-classify", str(vecs), "--out", str(out)]) == 0
    report = (out / "lattice_report.txt").read_bytes()
    assert hashlib.sha256(report).hexdigest()[:16] == digest


def test_nilpotent_check_matches_golden_digest(tmp_path):
    cfg = write_config(tmp_path, "[nilpotent]\nk_min = -2\nk_max = 2\n"
                                 "n_max = 3\nm_max = 2\n")
    out = tmp_path / "out"
    assert main(["nilpotent-check", "--config", cfg, "--out", str(out)]) == 0
    data = (out / "nilpotent_check.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest()[:16] == "4fa0e73ab3c79b33"
