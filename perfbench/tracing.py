"""Spans around calls into algrec, for the traced run.

The traced run rebinds a few coarse public functions in every algrec module
namespace that holds them, and restores them afterwards; the source is never
touched. Per-product calls such as multiply are not wrapped, because a
wrapper would cost more than the call. Spans stay in memory as
[name, start, end, parent, operation, info] and are written out at the end.
"""

from __future__ import annotations

import functools
import json
import os
import random
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from algrec import closure, config, experiments, freestats, groups, lattice, \
    manifest, walks

FAMILY = {"ZPower": "zpower", "Free": "free", "Heisenberg": "heisenberg",
          "LamplighterZ": "lamplighter", "CyclicZ": "cyclic"}
LATTICE_KIND = {"Full": "full", "InHalfSpace": "half_space",
                "InProperSubgroup": "proper_subgroup"}

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _closure_info(tracer):
    def observe(args, kwargs, result):
        tracer.keep_sample(result)
        return {"products": result.products_performed,
                "kept": len(result.elements), "truncated": not result.exhausted}
    return observe


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_kinds: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        #: Largest closure set seen per group family, with its radius.
        self.samples: dict[str, tuple[frozenset, int]] = {}

    def keep_sample(self, result) -> None:
        family = FAMILY[result.descriptor.kind]
        if len(result.elements) > len(self.samples.get(family, ((),))[0]):
            self.samples[family] = (result.elements, result.radius)

    def call(self, name, fn, args=(), kwargs=None, observe=None):
        """Run fn inside a span; observe(args, kwargs, result) fills its info."""
        kwargs = kwargs or {}
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               len(self.op_kinds) - 1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
        if observe is not None:
            rec[5] = observe(args, kwargs, result)
        return result

    def begin_op(self, kind: str) -> None:
        self.op_kinds.append(kind)

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)
        return traced

    def install(self, targets, methods=()) -> None:
        """Rebind each (function, span name, observer) in every algrec module,
        and each (class, attribute, span name) on its class."""
        by_id = {id(fn): (fn, name, obs) for fn, name, obs in targets}
        for mod in list(sys.modules.values()):
            if mod is None or not (mod.__name__ == "algrec"
                                   or mod.__name__.startswith("algrec.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in by_id:
                    fn, name, obs = by_id[id(value)]
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, self.wrap(name, fn, obs))
        for cls, attr, name in methods:
            self._saved.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path: Path, origin: float) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "op": op,
                    "kind": self.op_kinds[op] if op >= 0 else None,
                    "info": info}) + "\n")


def library_targets(tracer: Tracer):
    """The coarse public functions the traced run wraps."""
    return [
        (walks.generate_walk, "walks.generate",
         lambda a, k, r: {"steps": len(r)}),
        (walks.write_positions_csv, "walks.positions_csv",
         lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
        (walks.write_trace, "walks.trace_write", None),
        (closure.closure, "closure.closure", _closure_info(tracer)),
        (closure.inverse_witness_report, "closure.witness",
         lambda a, k, r: {"rows": len(r.rows), "unknown": r.unknown}),
        (closure.coverage_fraction, "closure.coverage", None),
        (closure.write_closure_dump, "closure.dump_write", None),
        (closure.write_witness_report_csv, "closure.witness_csv", None),
        (lattice.classify_subsemigroup, "lattice.classify",
         lambda a, k, r: {"kind": r.kind}),
        (lattice.zero_in_convex_hull, "lattice.hull", None),
        (lattice.subgroup_index, "lattice.snf", None),
        (freestats.walk_prefix_stats, "freestats.prefix",
         lambda a, k, r: {"steps": r.trace_length}),
        (freestats.return_excursion_estimate, "freestats.excursion", None),
        (freestats.cancellation_experiment, "freestats.cancel",
         lambda a, k, r: {"trials": sum(row.trials for row in r.table)}),
        (freestats.sphere_growth_profile, "freestats.growth", None),
        (experiments.coverage_survey, "experiments.survey", None),
        (config.load_config, "config.load", None),
    ]


LIBRARY_METHODS = [(manifest.RunManifest, "write", "manifest.write")]


def set_up_targets():
    """Wrapped during set-up only: ball_distances runs once per product later."""
    return [(groups.ball_distances, "groups.ball_build", None)]


def self_times(spans, ops: set[int]) -> dict[int, float]:
    """Span index -> its duration minus the durations of its child spans."""
    own = {i: rec[2] - rec[1] for i, rec in enumerate(spans) if rec[4] in ops}
    for i in list(own):
        parent = spans[i][3]
        if parent in own:
            own[parent] -= spans[i][2] - spans[i][1]
    return own


def pass_layers(tracer: Tracer, ops: set[int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (groups and probes excluded)."""
    spans, kinds = tracer.spans, tracer.op_kinds
    selfs = self_times(spans, ops)
    time_by = defaultdict(float)
    info_by = defaultdict(list)
    for i, t in selfs.items():
        name = spans[i][0]
        if name == "lattice.classify":
            name += ".small" if kinds[spans[i][4]] == "lattice.small" else ".large"
        time_by[name] += t
        if spans[i][5] is not None:
            info_by[spans[i][0]].append((spans[i][4], spans[i][5]))
    closures = info_by["closure.closure"]
    per_op = defaultdict(int)
    for op, info in closures:
        per_op[op] += info["products"]
    products = sum(info["products"] for _, info in closures)
    kept = sum(info["kept"] for _, info in closures)
    steps = sum(info["steps"] for _, info in info_by["walks.generate"])
    prefix_steps = sum(info["steps"] for _, info in info_by["freestats.prefix"])
    trials = sum(info["trials"] for _, info in info_by["freestats.cancel"])
    sets = defaultdict(int)
    for _, info in info_by["lattice.classify"]:
        sets[LATTICE_KIND[info["kind"]]] += 1

    def rate(count, name):
        return count / time_by[name] if time_by[name] > 0 else 0.0

    return {
        "walks.generate_s": time_by["walks.generate"],
        "walks.steps_per_s": rate(steps, "walks.generate"),
        "walks.positions_csv_s": time_by["walks.positions_csv"],
        "walks.positions_csv_mb": sum(
            info["bytes"] for _, info in info_by["walks.positions_csv"]) / 1e6,
        "walks.trace_write_s": time_by["walks.trace_write"],
        "closure.closure_s": time_by["closure.closure"],
        "closure.products": products,
        "closure.kept": kept,
        "closure.useful_ratio": kept / products if products else 0.0,
        "closure.truncated": sum(info["truncated"] for _, info in closures),
        "closure.max_op_products": max(per_op.values(), default=0),
        "closure.witness_s": time_by["closure.witness"],
        "closure.witness_rows": sum(
            info["rows"] for _, info in info_by["closure.witness"]),
        "closure.witness_unknown": sum(
            info["unknown"] for _, info in info_by["closure.witness"]),
        "closure.coverage_s": time_by["closure.coverage"],
        "closure.dump_write_s": time_by["closure.dump_write"],
        "closure.witness_csv_s": time_by["closure.witness_csv"],
        "lattice.classify_s.small": time_by["lattice.classify.small"],
        "lattice.classify_s.large": time_by["lattice.classify.large"],
        "lattice.hull_s": time_by["lattice.hull"],
        "lattice.snf_s": time_by["lattice.snf"],
        **{f"lattice.sets.{k}": sets[k] for k in LATTICE_KIND.values()},
        "freestats.prefix_steps_per_s": rate(prefix_steps, "freestats.prefix"),
        "freestats.excursion_s": time_by["freestats.excursion"],
        "freestats.cancel_trials_per_s": rate(trials, "freestats.cancel"),
        "freestats.growth_s": time_by["freestats.growth"],
        "experiments.survey_s": time_by["experiments.survey"],
        "cli.self_s": time_by["cli"],
        "config.load_s": time_by["config.load"],
        "manifest.write_s": time_by["manifest.write"],
    }


def median_layers(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass)
            for key in per_pass[0]}


def self_time_table(tracer: Tracer, ops: set[int], passes: int) -> str:
    """Calls, total and self seconds per span name, averaged per traced pass."""
    spans = tracer.spans
    selfs = self_times(spans, ops)
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for i, t in selfs.items():
        row = rows[spans[i][0]]
        row[0] += 1
        row[1] += spans[i][2] - spans[i][1]
        row[2] += t
    total = sum(r[2] for r in rows.values()) or 1.0
    lines = [f"{'span':<24}{'calls':>8}{'total_s':>11}{'self_s':>11}{'self%':>8}"]
    for name, (calls, tot, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:<24}{calls / passes:>8.0f}{tot / passes:>11.4f}"
                     f"{own / passes:>11.4f}{100 * own / total:>7.1f}%")
    return "\n".join(lines)


GROUP_PAIRS = 2000
RATE_SECONDS = 0.2


def group_rates(samples: dict[str, tuple[frozenset, int]],
                rng: random.Random) -> dict[str, float]:
    """Products and length lookups per second on pairs from closure sets."""
    out = {}
    for family, (elements, radius) in sorted(samples.items()):
        ranked = sorted(elements, key=groups.format_element)
        sample = [(rng.choice(ranked), rng.choice(ranked))
                  for _ in range(GROUP_PAIRS)]
        out[f"groups.mul_per_s.{family}"] = _rate(
            lambda: [a * b for a, b in sample])
        if family in ("heisenberg", "lamplighter"):
            products = [a * b for a, b in sample]
            out[f"groups.length_per_s.{family}"] = _rate(
                lambda: [groups.word_length_within(p, radius) for p in products])
    return out


def _rate(fn) -> float:
    """GROUP_PAIRS calls per fn(), repeated for at least RATE_SECONDS."""
    calls = 0
    start = perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = perf_counter() - start
        if elapsed >= RATE_SECONDS:
            return calls * GROUP_PAIRS / elapsed
