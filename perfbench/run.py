"""algrec benchmark: one workload, one seed, one process, one client.

    python3 perfbench/run.py --workload ar-survey --seed 1 --seconds 30 --trace 0

A closed loop runs the workload's pass (a fixed list of operations drawn
from the seed) again and again for about --seconds (the run stops where it
ends nearest to that, and makes at least one pass), checks every
operation's output outside the timed interval, and prints a summary and, as
its last line, one JSON object. With --trace 0 it reports the end-to-end
metrics; with --trace 1 it alternates untraced and traced passes and reports
the per-layer metrics, writes the spans and a self-time table under
.bench_out/, and reports the tracing overhead. See README.md.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
TAIL_BEYOND = 10


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("ar-survey", "free-group", "lattice"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one operation per kind, one set-up probe (smoke test)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_algrec() -> None:
    """Put the checkout's src/ first on the path; refuse any other algrec."""
    src = ROOT / "src"
    if not (src / "algrec" / "__init__.py").is_file():
        raise SystemExit(f"error: no algrec source tree under {src}")
    sys.path.insert(0, str(src))
    import algrec
    if Path(algrec.__file__).resolve().parent != (src / "algrec").resolve():
        raise SystemExit(f"error: imported algrec from {algrec.__file__}")


def spec_units(section: str) -> dict[str, str]:
    """Metric name -> unit, for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def set_up(args, tracer=None):
    """Imports, config and input generation, then one warm-up per op kind.

    The warm-up fills the word-length balls and other lazy caches, so that
    work moved into them shows in setup_s rather than in the first pass.
    """
    import workloads
    workload = workloads.build(args.workload, args.seed, args.tiny)
    if tracer is not None:
        import tracing
        tracer.install(tracing.set_up_targets())
    for op in workload.warmup:
        op.prepare()
        op.run()
    if tracer is not None:
        tracer.uninstall()
    return workload


def setup_seconds(args) -> float:
    """Median set-up time over fresh processes, each timed from its start."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


@dataclass
class Pass:
    latencies: list[float]
    failed: int
    ops: range = range(0)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(ops, tracer=None) -> Pass:
    """Run every operation once; only op.run() is inside the timed interval."""
    latencies, failed = [], 0
    first = len(tracer.op_kinds) if tracer else 0
    for op in ops:
        op.prepare()
        result, ok = None, True
        if tracer:
            tracer.begin_op(op.kind)
        start = perf_counter()
        try:
            if tracer:
                result = tracer.call(op.span, op.run)
            else:
                result = op.run()
        except Exception:
            traceback.print_exc()
            ok = False
        latencies.append(perf_counter() - start)
        try:
            ok = ok and op.check(result)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"check failed: {op.kind}", file=sys.stderr)
            failed += 1
    return Pass(latencies, failed,
                range(first, len(tracer.op_kinds)) if tracer else range(0))


def more_time(start: float, rounds: int, seconds: float) -> bool:
    """Whether another round ends nearer to `seconds` than stopping now does."""
    elapsed = perf_counter() - start
    return rounds == 0 or elapsed + elapsed / rounds / 2 < seconds


def typical(passes: list[Pass]) -> list[float]:
    """Each operation's median latency over the passes (same ops, same order)."""
    return [statistics.median(lat) for lat in zip(*(p.latencies for p in passes))]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND beyond it."""
    ranked = sorted(latencies)
    k = len(ranked) - 1 - (TAIL_BEYOND if len(ranked) > TAIL_BEYOND else 0)
    return ranked[k], 100.0 * (k + 1) / len(ranked)


def result_line(passes: list[Pass], metrics: dict) -> str:
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def measure(args) -> None:
    setup_s = setup_seconds(args)
    workload = set_up(args)
    passes = []
    start = perf_counter()
    while more_time(start, len(passes), args.seconds):
        passes.append(run_pass(workload.ops))
    n_ops = len(workload.ops)
    ops = typical(passes)
    tail_ms, percentile = tail(ops)
    metrics = {
        "wall_s": sum(ops),
        "op_p50_ms": 1e3 * statistics.median(ops),
        "op_tail_ms": 1e3 * tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
        "ok_ops": 1 - sum(p.failed for p in passes) / (len(passes) * n_ops),
    }
    units = spec_units("end_to_end")
    failed = sum(p.failed for p in passes)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of {n_ops} "
          f"operations, failed_ops = {failed}/{len(passes) * n_ops}")
    print(f"each operation's latency is its median over the passes; op_tail_ms "
          f"is p{percentile:.1f} of the {n_ops} operations of a pass")
    print("pass wall_s: " + " ".join(f"{p.wall:.3f}" for p in passes))
    for name, value in metrics.items():
        print(f"  {name:<12} {value:12.4f} {units[name]}")
    print(result_line(passes, {k: {"value": v, "unit": units[k]}
                               for k, v in metrics.items()}))


def fanout_speedup(workload) -> float:
    """ar-estimate over the fan-out seeds: time at 1 thread / time at nproc."""
    import workloads
    config = workloads.OUT / "configs" / "ar.heisenberg.cfg"
    seeds = [a for s in workload.fanout_seeds for a in ("--seed", str(s))]
    nproc = len(os.sched_getaffinity(0))
    times = {}
    for threads in (1, nproc):
        argv = ["ar-estimate", "--config", str(config), "--out",
                str(workloads.OUT / "work" / "fanout"), "--threads",
                str(threads), *seeds]
        start = perf_counter()
        code = workloads.run_cli(argv)
        times[threads] = perf_counter() - start
        if code != 0:
            raise SystemExit("fan-out probe failed")
    return times[1] / times[nproc]


def trace(args) -> None:
    import tracing
    import workloads
    tracer = tracing.Tracer()
    workload = set_up(args, tracer)
    plain, traced = [], []
    start = perf_counter()
    while more_time(start, len(traced), args.seconds):
        plain.append(run_pass(workload.ops))
        tracer.install(tracing.library_targets(tracer), tracing.LIBRARY_METHODS)
        try:
            traced.append(run_pass(workload.ops, tracer))
        finally:
            tracer.uninstall()
    untraced_wall = sum(typical(plain))
    overhead = sum(typical(traced)) - untraced_wall
    units = spec_units("per_layer")
    layers = dict.fromkeys(units, 0.0)
    layers.update(tracing.median_layers(
        [tracing.pass_layers(tracer, set(p.ops)) for p in traced]))
    layers.update(tracing.group_rates(tracer.samples,
                                      random.Random(f"groups/{args.seed}")))
    layers["groups.ball_build_s"] = sum(
        end - start for name, start, end, parent, *_ in tracer.spans
        if name == "groups.ball_build" and parent == -1)
    layers["trace.overhead_s"] = overhead
    if workload.fanout_seeds:
        layers["experiments.fanout_speedup"] = fanout_speedup(workload)

    out = workloads.OUT
    stem = f"{args.workload}-seed{args.seed}"
    tracer.write(out / f"trace-{stem}.jsonl", START)
    table = tracing.self_time_table(
        tracer, set().union(*(p.ops for p in traced)), len(traced))
    footer = (f"tracing overhead: {overhead:+.4f} s per pass "
              f"(untraced wall_s {untraced_wall:.4f} s, {len(plain)} untraced "
              f"and {len(traced)} traced passes)")
    (out / f"selftime-{stem}.txt").write_text(table + "\n" + footer + "\n")
    print(table)
    print(footer)
    print(f"spans: {out / f'trace-{stem}.jsonl'}")
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in units.items()}
    print(result_line(plain + traced, metrics))


def main(argv=None) -> None:
    args = parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import_algrec()
    if args.setup_probe:
        set_up(args)
        print(f"{perf_counter() - START:.6f}")
    elif args.trace:
        trace(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
