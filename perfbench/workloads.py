"""The three workloads: which operations one pass runs, with inputs drawn
from the workload seed, and the warm-up that set-up runs once.

A pass is a fixed list of operations; a run repeats the same pass, so the
passes of one run differ only by timing noise. Heisenberg, lamplighter and
F_5 walk seeds and the large lattice sets come from pools pinned in
pins.json, each member with a cost: closure products, or classification
time at pin time. The closure checks need a pinned digest per seed; the
costs let a pass hold every cost class in the same proportion whatever the
seed, which keeps runs with different seeds comparable:

- members costing more than TAIL_FACTOR times the pool's 90th percentile
  are rare and far costlier than the rest (the F_5 short-walk seeds 28 and
  30 need 180k and 640k products against a median of 396), so every pass
  runs all of them and the heavy tail shows in every run, not in a few;
  drawing them would move a run's total by more than the noise;
- the other members are sorted by cost and cut into as many strata as the
  pass has operations of that kind, and one member is drawn per stratum.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from algrec import cli, lattice as algrec_lattice
from algrec.config import parse_config

from checks import (
    abelian_survey_rows,
    closure_content,
    free_stats_ok,
    free_walk_ok,
    lattice_ok,
    survey_digest,
    survey_rows,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
PINS = Path(__file__).resolve().parent / "pins.json"

sys.path.insert(0, str(ROOT / "tests"))
from oracles import GridClosure  # noqa: E402  criterion 3's ball-coverage oracle

TAIL_FACTOR = 1.5


def scenario(group: str, steps: int, radius: int | None = None,
             eval_steps: str = "", extra: str = "") -> str:
    text = f"[group]\nkind = {group}\n[walk]\nsteps = {steps}\n"
    if eval_steps:
        text += f"eval_steps = {eval_steps}\n"
    if radius is not None:
        text += f"[budget]\nradius = {radius}\n"
    return text + extra


#: Criterion-6 settings of the survey families: kind -> (config, warm-up
#: config, ops per pass, whether seeds come from a pinned pool).
SURVEY = {
    "ar.heisenberg": (scenario("Heisenberg", 500, 4, "50,500"),
                      scenario("Heisenberg", 4, 4), 16, True),
    "ar.lamplighter": (scenario("LamplighterZ", 500, 4),
                       scenario("LamplighterZ", 4, 4), 16, True),
    "ar.z": (scenario("ZPower(1)", 200, 5, "20,200"),
             scenario("ZPower(1)", 4, 5), 8, False),
    "ar.z12": (scenario("CyclicZ(12)", 500, 6),
               scenario("CyclicZ(12)", 4, 6), 8, False),
}

#: kind -> (subcommand, config, warm-up config or None).
FREE = {
    "closure.short": ("closure", scenario("Free(5)", 200, 4),
                      scenario("Free(5)", 10, 4)),
    "closure.long": ("closure", scenario("Free(5)", 10_000, 4), None),
    "walk": ("walk", scenario("Free(5)", 4000), scenario("Free(5)", 10)),
    "free-stats": ("free-stats",
                   scenario("Free(5)", 2000, 4,
                            "", "[free]\ntrials = 20000\nexcursions = 20000\n"),
                   scenario("Free(5)", 10, 4,
                            "", "[free]\ntrials = 100\nexcursions = 100\n")),
}
FREE_SHORT_PER_PASS = 80

#: Large lattice inputs: pool -> (dimension, distinct walk positions or box
#: vectors, sets per pass). Each pool holds LATTICE_POOL_FACTOR times as many
#: sets as a pass draws; set i of a pool is large_set(pool, i). Z^4 traces
#: are the steadiest in cost (about 0.13 coefficient of variation, against
#: 0.5 for Z^3 traces and boxes), so they are the most numerous: op_tail_ms
#: falls among them.
LATTICE_LARGE = {"lattice.trace.z2": (2, 200, 4),
                 "lattice.trace.z3": (3, 140, 3),
                 "lattice.trace.z4": (4, 36, 12),
                 "lattice.box.z4": (4, 20, 3)}
LATTICE_POOL_FACTOR = 4
LATTICE_SMALL_PER_PASS = 600


@dataclass
class Op:
    """One operation: run() is timed; prepare() and check() are not."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    prepare: Callable[[], None] = lambda: None
    #: Name of the traced run's span around run(): "cli" for subcommands.
    span: str = "cli"


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op] = field(default_factory=list)
    #: Heisenberg walk seeds for the fan-out probe of the traced run.
    fanout_seeds: list[int] = field(default_factory=list)


def load_pins() -> dict[str, dict[int, tuple[str, int]]]:
    raw = json.loads(PINS.read_text())
    return {kind: {int(s): (d, cost) for s, (d, cost) in pool.items()}
            for kind, pool in raw.items()}


def split_tail(pool: dict[int, tuple[str, int]]) -> tuple[list[int], dict]:
    """(members every pass runs, members a pass samples from)."""
    costs = sorted(cost for _, cost in pool.values())
    limit = TAIL_FACTOR * costs[int(0.9 * (len(costs) - 1))]
    tail = sorted(s for s, (_, cost) in pool.items() if cost > limit)
    return tail, {s: v for s, v in pool.items() if s not in tail}


def draw(pool: dict[int, tuple[str, int]], n: int, rng: random.Random,
         tail: bool = True) -> list[int]:
    """The pool's tail (unless tail is False) plus n stratified members."""
    heavy, rest = split_tail(pool)
    return (heavy if tail else []) + stratified(rest, n, rng)


def stratified(pool: dict[int, tuple[str, int]], n: int,
               rng: random.Random) -> list[int]:
    """One seed from each of n cost strata of the pool."""
    ranked = sorted(pool, key=lambda s: (pool[s][1], s))
    return [rng.choice(ranked[i * len(ranked) // n:(i + 1) * len(ranked) // n])
            for i in range(n)]


def write_config(name: str, text: str) -> Path:
    path = OUT / "configs" / f"{name}.cfg"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def cli_op(kind: str, command: str, config: Path, seed: int,
           check: Callable[[Path, int], bool], *flags: str) -> Op:
    """An algrec subcommand run in-process through cli.main, for one seed."""
    out = OUT / "work" / kind
    argv = [command, "--config", str(config), "--seed", str(seed),
            "--out", str(out), *flags]

    return Op(kind, lambda: run_cli(argv), lambda code: code == 0 and check(out, seed),
              lambda: shutil.rmtree(out, ignore_errors=True))


def pinned_check(pool: dict[int, tuple[str, int]],
                 content: Callable[[Path, int], str]):
    return lambda out, seed: content(out, seed) == pool[seed][0]


def closure_digest(out: Path, seed: int) -> str | None:
    exhausted, dig, _ = closure_content(out, seed)
    return dig if exhausted else None


def ar_survey(rng: random.Random, tiny: bool) -> Workload:
    pins = load_pins()
    ops, warmup = [], []
    for kind, (text, warm_text, count, pinned) in SURVEY.items():
        config = write_config(kind, text)
        warm = write_config(kind + ".warm", warm_text)
        warmup.append(cli_op(kind, "ar-estimate", warm, 1, lambda o, s: True))
        n = 1 if tiny else count
        if pinned:
            seeds = draw(pins[kind], n, rng, tail=not tiny)
            check = pinned_check(pins[kind], lambda o, s: survey_digest(o))
        else:
            seeds = [rng.randrange(1, 1 << 30) for _ in range(n)]
            cfg = parse_config(text)
            check = (lambda cfg: lambda out, seed: survey_rows(out) ==
                     abelian_survey_rows(cfg.group, cfg.steps,
                                         cfg.effective_eval_steps(),
                                         cfg.budget_radius, seed))(cfg)
        ops += [cli_op(kind, "ar-estimate", config, s, check) for s in seeds]
    fanout = stratified(pins["ar.heisenberg"], 2 if tiny else 30, rng)
    rng.shuffle(ops)
    return Workload(ops, warmup, fanout)


def free_group(rng: random.Random, tiny: bool) -> Workload:
    pins = load_pins()
    short = pins["closure.short"]
    light = split_tail(short)[1]
    configs = {kind: write_config(kind, text)
               for kind, (_, text, _) in FREE.items()}
    warmup = [cli_op(kind, command, write_config(kind + ".warm", warm), 1,
                     lambda o, s: True)
              for kind, (command, _, warm) in FREE.items() if warm]

    def closure_op(kind, seed):
        return cli_op(kind, "closure", configs[kind], seed,
                      pinned_check(pins[kind], closure_digest))

    ops = [closure_op("closure.short", s)
           for s in draw(short, 2 if tiny else FREE_SHORT_PER_PASS, rng,
                         tail=not tiny)]
    ops.append(closure_op("closure.long",
                          rng.choice(sorted(pins["closure.long"]))))
    walk_steps = parse_config(FREE["walk"][1]).steps
    ops.append(cli_op("walk", "walk", configs["walk"], rng.randrange(1, 1 << 30),
                      lambda out, seed: free_walk_ok(out, seed, walk_steps)))
    ops.append(cli_op("free-stats", "free-stats", configs["free-stats"],
                      rng.choice(sorted(light)), free_stats_ok))
    rng.shuffle(ops)
    return Workload(ops, warmup)


def lattice_walk(d: int, points: int,
                 rng: random.Random) -> list[tuple[int, ...]]:
    """The first `points` distinct positions of a simple random walk on Z^d.

    Fixing the number of distinct points, rather than of steps, fixes the
    size of the classification problem, whose cost grows like n^(d-1).
    """
    pos = [0] * d
    seen: dict[tuple[int, ...], None] = {}
    while len(seen) < points:
        pos[rng.randrange(d)] += rng.choice((1, -1))
        seen.setdefault(tuple(pos), None)
    return list(seen)


def large_set(pool: str, index: int) -> list[tuple[int, ...]]:
    """Set `index` of a large-set pool: a walk's distinct positions or a box."""
    d, size, _ = LATTICE_LARGE[pool]
    rng = random.Random(f"{pool}/{index}")
    if ".box." in pool:
        return [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(size)]
    return lattice_walk(d, size, rng)


def lattice(rng: random.Random, tiny: bool) -> Workload:
    pins = load_pins()
    grid = GridClosure(23)
    box = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if (x, y) != (0, 0)]
    sizes = (1, 2, 3, 4)
    # Criterion 3 runs every k-subset for k = 1..4, so k is weighted by C(48, k).
    weights = [math.comb(len(box), k) for k in sizes]

    def op(kind, vectors, oracle=None, pinned_kind=None):
        def check(c):
            return (pinned_kind in (None, c.kind)
                    and lattice_ok(vectors, c, oracle))
        return Op(kind, lambda: algrec_lattice.classify_subsemigroup(vectors),
                  check, span="op")

    ops = [op("lattice.small", rng.sample(box, rng.choices(sizes, weights)[0]),
              grid)
           for _ in range(20 if tiny else LATTICE_SMALL_PER_PASS)]
    for pool, (_, _, count) in LATTICE_LARGE.items():
        for i in draw(pins[pool], 1 if tiny else count, rng, tail=not tiny):
            ops.append(op("lattice.large", large_set(pool, i),
                          pinned_kind=pins[pool][i][0]))
    rng.shuffle(ops)
    warmup = [op("lattice.small", [(1, 0), (-1, 1), (0, -1)], grid),
              op("lattice.large", lattice_walk(4, 10, random.Random(0)))]
    return Workload(ops, warmup)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's operations for this seed; the same seed, the same inputs."""
    rng = random.Random(f"{name}/{seed}")
    return {"ar-survey": ar_survey, "free-group": free_group,
            "lattice": lattice}[name](rng, tiny)
