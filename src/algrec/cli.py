"""Command-line scenario runner.

Subcommands: walk, closure, ar-estimate, lattice-classify, free-stats,
nilpotent-check, witness-check. Every command is deterministic in its
config and seeds; data files are byte-identical across re-runs, and wall
clock times live only in the manifest. Every seeded subcommand (walk,
closure, ar-estimate, free-stats) runs one function per seed through
``_run_seeds``, which runs the seeds in seed order in this process and
times each seed in the manifest as ``seed<n>``.

Exit codes: 0 success, 2 configuration error, 3 budget exhausted without a
mandatory result.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import experiments, freestats
from .closure import (
    ClosureBudget,
    inverse_witness_report,
    write_closure_dump,
    write_witness_report_csv,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    build_measure,
    config_hash,
    load_config,
    validate_config,
)
from .groups import Free, format_element, parse_element
from .identities import (
    nilpotent_identity_grid,
    torsion_inverse_witness,
    z_inverse_witness,
)
from .lattice import classify_subsemigroup
from .manifest import RunManifest, write_csv
from .measures import SymmetricMeasure
from .walks import generate_walk, seeded_rng, write_positions_csv, write_trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_RESULT = 3


def _load(args) -> ScenarioConfig:
    """The config file (or the defaults) with the flag overrides applied,
    validated like a file before any output is written."""
    config = load_config(args.config) if args.config else ScenarioConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seeds"] = tuple(args.seed)
    if args.out is not None:
        overrides["out_dir"] = args.out
    config = replace(config, **overrides)
    validate_config(config)
    return config


def _tail_measure(config: ScenarioConfig, command: str) -> SymmetricMeasure:
    """The measure of a command that reads a walk's tail, so needs a step;
    like every walking command's, it is built before any output is written."""
    if config.steps < 1:
        raise ConfigError("walk.steps", f"must be >= 1 for {command}")
    return build_measure(config)


def _open_output(config: ScenarioConfig, command: str, seeds=()
                 ) -> tuple[dict, Path, RunManifest]:
    """The files' metadata, the output directory, created, and a manifest."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {"config": config_hash(config)}
    return meta, out_dir, RunManifest(command, meta["config"], seeds)


def _run_seeds(one, seeds, manifest: RunManifest) -> list:
    """one(seed) -> (files, value) for each seed in order, each timed; files
    and ``seed<n>`` times go to the manifest, values come back in order.
    Every seed runs; the first failure in seed order is then raised."""
    values, failures = [], []
    for seed in seeds:
        start = time.perf_counter()
        try:
            files, value = one(seed)
        except Exception as exc:
            failures.append(exc)
            continue
        manifest.add_file(*files)
        manifest.record_time(f"seed{seed}", time.perf_counter() - start)
        values.append(value)
    if failures:
        raise failures[0]
    return values


def cmd_walk(args) -> int:
    config = _load(args)
    measure = build_measure(config)
    meta, out_dir, manifest = _open_output(config, "walk", config.seeds)

    def one(seed: int):
        trace = generate_walk(measure, config.steps, seed)
        trace_path = out_dir / f"trace_seed{seed}.txt"
        write_trace(trace, trace_path, extra=f"config={meta['config']}")
        csv_path = out_dir / f"positions_seed{seed}.csv"
        write_positions_csv(trace, csv_path, meta=meta)
        return (trace_path, csv_path), None

    _run_seeds(one, config.seeds, manifest)
    manifest.write(out_dir)
    print(f"walk: wrote {len(manifest.files)} files to {out_dir}")
    return EXIT_OK


def _budget(config: ScenarioConfig) -> ClosureBudget:
    return ClosureBudget(config.budget_radius, config.budget_max_elements,
                         config.budget_max_products)


def cmd_closure(args) -> int:
    config = _load(args)
    measure = _tail_measure(config, "closure")
    meta, out_dir, manifest = _open_output(config, "closure", config.seeds)
    budget = _budget(config)

    def one(seed: int):
        trace = generate_walk(measure, config.steps, seed)
        report = inverse_witness_report(trace, config.tail_index, budget)
        dump_path = out_dir / f"closure_seed{seed}.txt"
        write_closure_dump(report.closure_result, dump_path, meta=meta)
        report_path = out_dir / f"witness_seed{seed}.csv"
        write_witness_report_csv(report, report_path, meta=meta)
        return (dump_path, report_path), None

    _run_seeds(one, config.seeds, manifest)
    manifest.write(out_dir)
    print(f"closure: wrote {len(manifest.files)} files to {out_dir}")
    return EXIT_OK


def cmd_ar_estimate(args) -> int:
    config = _load(args)
    measure = _tail_measure(config, "ar-estimate")
    meta, out_dir, manifest = _open_output(config, "ar-estimate", config.seeds)
    budget = _budget(config)
    radius = config.effective_coverage_radius()
    eval_steps = config.effective_eval_steps()

    def one(seed: int):
        return (), experiments.coverage_survey(
            measure, config.steps, eval_steps, config.tail_index, budget,
            radius, seed)

    per_seed = _run_seeds(one, config.seeds, manifest)
    rows = [row for seed_rows in per_seed for row in seed_rows]
    path = out_dir / "ar_coverage.csv"
    write_csv(path, {**meta, "group": config.group, "radius": radius},
              ["seed", "n_used", "coverage", "present_fraction",
               "present_fraction_decided", "exhausted"],
              [[r.seed, r.n_used, str(r.coverage), str(r.present_fraction),
                str(r.present_fraction_decided), r.exhausted] for r in rows])
    manifest.add_file(path)
    manifest.write(out_dir)
    by_n: dict[int, list[Fraction]] = {}
    for r in rows:
        by_n.setdefault(r.n_used, []).append(r.coverage)
    for n_used in sorted(by_n):
        mean = experiments.mean_fraction(by_n[n_used])
        print(f"ar-estimate: N={n_used} mean coverage {float(mean):.4f} "
              f"over {len(by_n[n_used])} seeds")
    return EXIT_OK


def cmd_lattice_classify(args) -> int:
    path = Path(args.vectors)
    if not path.exists():
        raise ConfigError("vectors", f"no such file: {path}")
    vectors = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        where = f"{path} line {number}"
        vector = []
        for token in tokens:
            try:
                vector.append(int(token))
            except ValueError:
                raise ConfigError("vectors", f"{where}: {token!r} is not an "
                                  "integer") from None
        if vectors and len(vector) != len(vectors[0]):
            raise ConfigError("vectors", f"{where}: {len(vector)} entries, "
                              f"expected {len(vectors[0])}")
        vectors.append(tuple(vector))
    if not vectors:
        raise ConfigError("vectors", f"{path} contains no vectors")
    classification = classify_subsemigroup(vectors)
    witness = classification.hull_witness
    lines = [f"classification: {classification}"]
    if classification.report is not None:
        report = classification.report
        lines.append(f"rank: {report.rank}")
        lines.append("smith_diagonal: " + ",".join(str(x) for x in report.smith_diagonal))
        lines.append(f"index: {'Infinite' if report.index is None else report.index}")
    if witness is not None:
        pts = "; ".join("(" + ",".join(str(x) for x in p) + ")" for p in witness.points)
        lines.append(f"hull_certificate_points: {pts}")
        lines.append("hull_certificate_coefficients: "
                     + ",".join(str(t) for t in witness.coefficients))
    text = "\n".join(lines)
    print(text)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "lattice_report.txt"
        report_path.write_text(text + "\n")
        manifest = RunManifest("lattice-classify", "-", ())
        manifest.add_file(report_path)
        manifest.write(out_dir)
    return EXIT_OK


def cmd_free_stats(args) -> int:
    config = _load(args)
    if not isinstance(config.group, Free):
        raise ConfigError("group.kind", "free-stats requires a Free(d) group")
    d = config.group.rank
    measure = _tail_measure(config, "free-stats")
    meta, out_dir, manifest = _open_output(config, "free-stats", config.seeds)
    budget = _budget(config)

    def one(seed: int):
        trace = generate_walk(measure, config.steps, seed)
        stats = freestats.walk_prefix_stats(trace, j0=config.j0)
        vj_path = out_dir / f"prefix_vj_seed{seed}.csv"
        write_csv(vj_path, meta, ["j", "v_j", "log2_j"],
                  [[j, stats.count(j), f"{np.log2(j):.6f}"]
                   for j in sorted(stats.counts)])
        report = inverse_witness_report(trace, config.tail_index, budget)
        profile = freestats.sphere_growth_profile(report.closure_result)
        growth_path = out_dir / f"growth_seed{seed}.csv"
        write_csv(growth_path, {**meta, "slope": f"{profile.slope:.6f}",
                                "ambient_slope": f"{profile.ambient_slope:.6f}"},
                  ["r", "count"],
                  [[r, profile.counts[r]] for r in sorted(profile.counts)])
        check = freestats.log_bound_check(stats)
        summary = [seed, stats.max_depth, freestats.smallest_passing_j0(stats),
                   check.holds, f"{profile.slope:.6f}"]
        return (vj_path, growth_path), summary

    summary_rows = _run_seeds(one, config.seeds, manifest)

    exact_p = freestats.return_probability(d)
    estimate = freestats.return_excursion_estimate(d, config.excursions,
                                                   config.seeds[0])
    pool = freestats.random_reduced_words(d, config.pool_length,
                                          config.pool_size,
                                          seeded_rng([config.seeds[0], 1]))
    sample = freestats.cancellation_experiment(
        d, config.trials, [tuple(int(x) for x in w) for w in pool],
        config.seeds[0], lengths=config.lengths)
    cancel_path = out_dir / "cancellation.csv"
    write_csv(cancel_path, meta,
              ["s", "trials", "exceed_count", "empirical", "bound"],
              [[row.length, row.trials, row.exceed_count,
                f"{row.empirical:.8e}", f"{row.bound(d):.8e}"]
               for row in sample.table])
    manifest.add_file(cancel_path)

    summary_path = out_dir / "free_summary.csv"
    write_csv(summary_path,
              {**meta, "return_probability_exact": exact_p,
               "return_probability_estimate": f"{estimate:.6f}"},
              ["seed", "max_depth", "smallest_passing_j0", "log_bound_holds",
               "growth_slope"],
              summary_rows)
    manifest.add_file(summary_path)
    manifest.write(out_dir)
    print(f"free-stats: return probability exact {exact_p} = {float(exact_p):.6f}, "
          f"Monte Carlo estimate {estimate:.6f}")
    print(f"free-stats: wrote {len(manifest.files)} files to {out_dir}")
    return EXIT_OK


def cmd_nilpotent_check(args) -> int:
    config = _load(args)
    meta, out_dir, manifest = _open_output(config, "nilpotent-check")
    grid = nilpotent_identity_grid(range(config.k_min, config.k_max + 1),
                                   range(1, config.n_max + 1),
                                   range(1, config.m_max + 1))
    path = out_dir / "nilpotent_check.csv"
    write_csv(path, meta,
              ["k1", "k2", "k3", "k4", "n", "m", "exponent_pos",
               "exponent_neg", "holds"], grid.rows)
    manifest.add_file(path)
    manifest.write(out_dir)
    print(f"nilpotent-check: {grid.cases} cases, all hold: {grid.all_hold}")
    return EXIT_OK if grid.all_hold else EXIT_NO_RESULT


def _parse_setting(group, text: str, key: str):
    """parse_element, failing as a ConfigError that names the config key."""
    try:
        return parse_element(group, text)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None


def cmd_witness_check(args) -> int:
    config = _load(args)
    lines = []
    code = EXIT_OK
    if config.witness_mode == "torsion":
        if not config.witness_x or not config.witness_y:
            raise ConfigError("witness.x", "torsion mode needs x and y elements")
        x = _parse_setting(config.group, config.witness_x, "witness.x")
        y = _parse_setting(config.group, config.witness_y, "witness.y")
        found = torsion_inverse_witness(x, y, config.max_k)
        if found is None:
            lines.append(f"no witness: (xy)^k != identity for k <= {config.max_k}")
            code = EXIT_NO_RESULT
        else:
            lines.append(f"k: {found.k}")
            lines.append(f"witness: {format_element(found.witness)}")
            lines.append(f"inverse_recovered: "
                         f"{found.witness == x.inverse()}")
    else:
        try:
            x_int, y_int = int(config.witness_x), int(config.witness_y)
        except ValueError:
            raise ConfigError("witness.x", "z-integer mode needs integer x and y")
        cert = z_inverse_witness(x_int, y_int)
        lines.append(f"y_copies: {cert.y_copies}")
        lines.append(f"x_copies: {cert.x_copies}")
        lines.append(f"combination_value: {cert.combination_value}")
        lines.append(f"holds: {cert.holds}")
    meta, out_dir, manifest = _open_output(config, "witness-check")
    lines.insert(0, f"# config={meta['config']}")
    text = "\n".join(lines)
    print(text)
    path = out_dir / "witness_report.txt"
    path.write_text(text + "\n")
    manifest.add_file(path)
    manifest.write(out_dir)
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state
    between calls, and building costs about twenty times a parse."""
    parser = argparse.ArgumentParser(
        prog="algrec",
        description="Random-walk and semigroup-closure experiments on groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--seed", type=int, action="append",
                       help="override config seeds (repeatable)")
        p.add_argument("--out", help="output directory")
        # Read by nothing: perfbench's fan-out probe still passes it.
        p.add_argument("--threads", type=int, help=argparse.SUPPRESS)

    for name, fn in [("walk", cmd_walk), ("closure", cmd_closure),
                     ("ar-estimate", cmd_ar_estimate),
                     ("free-stats", cmd_free_stats),
                     ("nilpotent-check", cmd_nilpotent_check),
                     ("witness-check", cmd_witness_check)]:
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("lattice-classify")
    p.add_argument("vectors", help="file of whitespace-separated integer rows")
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn=cmd_lattice_classify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
