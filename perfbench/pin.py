"""Rewrite pins.json: for every member of the pinned pools, its output digest
and closure product count (closure pools), or its classification and median
classification time in microseconds (large lattice sets), computed by the
program as it is now.

    python3 perfbench/pin.py [pool ...]

Run it only when a change is meant to alter closure outputs; the benchmark's
output checks compare every Heisenberg, lamplighter and F_5 closure against
these digests, and its stratified sampling ranks pool members by these
costs.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from algrec import lattice  # noqa: E402
from algrec.closure import ClosureBudget, closure  # noqa: E402
from algrec.config import parse_config  # noqa: E402
from algrec.measures import uniform_standard_measure  # noqa: E402
from algrec.walks import generate_walk  # noqa: E402

import workloads as W  # noqa: E402
from checks import closure_content, survey_digest  # noqa: E402

POOLS = {"ar.heisenberg": 128, "ar.lamplighter": 128,
         "closure.short": 240, "closure.long": 16,
         **{pool: W.LATTICE_POOL_FACTOR * per_pass
            for pool, (_, _, per_pass) in W.LATTICE_LARGE.items()}}


def survey_products(text: str, seed: int) -> int:
    """Closure products summed over the survey's evaluation prefixes."""
    cfg = parse_config(text)
    trace = generate_walk(uniform_standard_measure(cfg.group), cfg.steps, seed)
    budget = ClosureBudget(cfg.budget_radius)
    return sum(closure(trace.positions[:n], budget).products_performed
               for n in cfg.effective_eval_steps())


def pin(kind: str, seed: int) -> tuple[str, int]:
    if kind.startswith("lattice."):
        vectors = W.large_set(kind, seed)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            result = lattice.classify_subsemigroup(vectors)
            times.append(time.perf_counter() - start)
        return result.kind, round(1e6 * statistics.median(times))
    if kind.startswith("ar."):
        text = W.SURVEY[kind][0]
        op = W.cli_op(kind, "ar-estimate", W.write_config(kind, text), seed,
                      lambda o, s: True)
        run(op, seed)
        return survey_digest(op_out(kind)), survey_products(text, seed)
    command, text, _ = W.FREE[kind]
    op = W.cli_op(kind, command, W.write_config(kind, text), seed,
                  lambda o, s: True)
    run(op, seed)
    exhausted, digest, products = closure_content(op_out(kind), seed)
    if not exhausted:
        raise SystemExit(f"{kind} seed {seed}: closure truncated, cannot pin")
    return digest, products


def run(op: W.Op, seed: int) -> None:
    op.prepare()
    if op.run() != 0:
        raise SystemExit(f"{op.kind} seed {seed}: command failed, cannot pin")


def op_out(kind: str) -> Path:
    return W.OUT / "work" / kind


def main(pools: list[str]) -> None:
    """Re-pin the named pools (all when none are named), keeping the others."""
    pins = json.loads(W.PINS.read_text()) if W.PINS.exists() else {}
    for kind in pools or POOLS:
        size = POOLS[kind]
        pins[kind] = {str(s): list(pin(kind, s)) for s in range(1, size + 1)}
        print(f"{kind}: pinned 1..{size}", flush=True)
    W.PINS.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    shutil.rmtree(W.OUT / "work", ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
