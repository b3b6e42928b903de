"""Plain-text scenario configuration: key = value lines under section headers.

Each ScenarioConfig field declares its ``section.key`` and, where the
program needs one, an integer lower bound (checked on every entry of a
tuple field). Lookup, parsing, canonical text and the bound checks all
derive from that one declaration, with parsing and text chosen by the
field's type. Parsed configs round-trip to an identical canonical text,
whose SHA-256 prefix stamps every output file a run writes.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import groupby
from typing import get_type_hints

from .groups import (
    GroupDescriptor,
    ZPower,
    format_element,
    parse_descriptor,
    parse_element,
)
from .measures import (
    SymmetricMeasure,
    heavy_tail_measure_z2,
    make_measure,
    uniform_standard_measure,
)


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def _key(path: str, default, *, minimum: int | None = None):
    """A field read from ``path`` ("section.key"), at least ``minimum``."""
    return field(default=default, metadata={"key": path, "min": minimum})


@dataclass(frozen=True)
class ScenarioConfig:
    group: GroupDescriptor = _key("group.kind", ZPower(1))
    # standard | heavy-tail | explicit
    measure_kind: str = _key("measure.kind", "standard")
    heavy_alpha: Fraction = _key("measure.alpha", Fraction(2))
    heavy_cutoff: int = _key("measure.cutoff", 4, minimum=1)
    heavy_minor_weight: Fraction = _key("measure.minor_weight", Fraction(1, 5))
    explicit_atoms: tuple[tuple[str, Fraction], ...] = _key("measure.atoms", ())
    steps: int = _key("walk.steps", 100, minimum=0)
    tail_index: int = _key("walk.tail_index", 1, minimum=1)
    # empty means (steps,)
    eval_steps: tuple[int, ...] = _key("walk.eval_steps", ())
    budget_radius: int = _key("budget.radius", 5, minimum=1)
    budget_max_elements: int = _key("budget.max_elements", 100_000, minimum=1)
    budget_max_products: int = _key("budget.max_products", 2_000_000, minimum=1)
    # 0 means budget_radius
    coverage_radius: int = _key("budget.coverage_radius", 0, minimum=0)
    seeds: tuple[int, ...] = _key("run.seeds", (1,), minimum=0)
    out_dir: str = _key("output.out_dir", "out")
    # free-stats extras
    trials: int = _key("free.trials", 10_000, minimum=1)
    lengths: tuple[int, ...] = _key("free.lengths", (16, 64, 256), minimum=1)
    pool_size: int = _key("free.pool_size", 8, minimum=1)
    pool_length: int = _key("free.pool_length", 64, minimum=1)
    excursions: int = _key("free.excursions", 100_000, minimum=1)
    j0: int = _key("free.j0", 64)
    # witness extras; mode is torsion | z-integer
    witness_mode: str = _key("witness.mode", "torsion")
    witness_x: str = _key("witness.x", "")
    witness_y: str = _key("witness.y", "")
    max_k: int = _key("witness.max_k", 64, minimum=1)
    # nilpotent extras
    k_min: int = _key("nilpotent.k_min", -1)
    k_max: int = _key("nilpotent.k_max", 1)
    n_max: int = _key("nilpotent.n_max", 3, minimum=1)
    m_max: int = _key("nilpotent.m_max", 3, minimum=1)

    def effective_eval_steps(self) -> tuple[int, ...]:
        return self.eval_steps if self.eval_steps else (self.steps,)

    def effective_coverage_radius(self) -> int:
        return self.coverage_radius if self.coverage_radius else self.budget_radius


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(t) for t in raw.split(",") if t.strip()) if raw else ()


def _parse_atoms(raw: str) -> tuple[tuple[str, Fraction], ...]:
    atoms = []
    for part in raw.split("|"):
        part = part.strip()
        if part:
            element, _, weight = part.rpartition(":")
            atoms.append((element.strip(), Fraction(weight.strip())))
    return tuple(atoms)


#: Field type -> (parse stripped text, format value as text).
_CODECS = {
    GroupDescriptor: (parse_descriptor, str),
    str: (str, str),
    int: (int, str),
    Fraction: (Fraction, str),
    tuple[int, ...]: (_parse_ints, lambda v: ",".join(str(x) for x in v)),
    tuple[tuple[str, Fraction], ...]: (
        _parse_atoms, lambda v: " | ".join(f"{el}:{w}" for el, w in v)),
}

_TYPES = get_type_hints(ScenarioConfig)

#: "section.key" -> field, in canonical (section, key) order.
_FIELDS = {f.metadata["key"]: f
           for f in sorted(fields(ScenarioConfig),
                           key=lambda f: f.metadata["key"].split("."))}
_SECTIONS = {path.split(".")[0] for path in _FIELDS}


def parse_config(text: str) -> ScenarioConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("<config>", str(exc)) from None
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(section, "unknown section")
        for key, raw in parser.items(section):
            path = f"{section}.{key}"
            f = _FIELDS.get(path)
            if f is None:
                raise ConfigError(path, "unknown key")
            try:
                values[f.name] = _CODECS[_TYPES[f.name]][0](raw.strip())
            except ValueError as exc:
                raise ConfigError(path, str(exc)) from None
    config = ScenarioConfig(**values)
    validate_config(config)
    return config


def load_config(path: str) -> ScenarioConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def canonical_text(config: ScenarioConfig, include_output: bool = True) -> str:
    out = io.StringIO()
    for section, paths in groupby(_FIELDS, key=lambda p: p.split(".")[0]):
        if section == "output" and not include_output:
            continue
        out.write(f"[{section}]\n")
        for path in paths:
            f = _FIELDS[path]
            text = _CODECS[_TYPES[f.name]][1](getattr(config, f.name))
            out.write(f"{path.split('.')[1]} = {text}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(config: ScenarioConfig) -> str:
    """Hash of the canonical text minus the output location, so identical
    scenarios produce identical data bytes wherever they are written."""
    text = canonical_text(config, include_output=False)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def validate_config(config: ScenarioConfig) -> None:
    """Raise ConfigError, naming the field, for a setting no command can run."""
    for path, f in _FIELDS.items():
        low, value = f.metadata["min"], getattr(config, f.name)
        entries = value if isinstance(value, tuple) else (value,)
        if low is not None and any(v < low for v in entries):
            raise ConfigError(path, f"must be >= {low}")
    if config.measure_kind not in ("standard", "heavy-tail", "explicit"):
        raise ConfigError("measure.kind",
                          "expected standard, heavy-tail or explicit")
    if config.coverage_radius > config.budget_radius:
        raise ConfigError("budget.coverage_radius",
                          f"must not exceed budget radius {config.budget_radius}")
    if not config.seeds:
        raise ConfigError("run.seeds", "need at least one seed")
    for i, seed in enumerate(config.seeds):
        if seed in config.seeds[:i]:
            raise ConfigError("run.seeds", f"seed {seed} repeated")
    if config.witness_mode not in ("torsion", "z-integer"):
        raise ConfigError("witness.mode", "expected torsion or z-integer")
    for n in config.effective_eval_steps():
        if config.steps and not 1 <= n <= config.steps:
            raise ConfigError("walk.eval_steps",
                              f"eval step {n} outside 1..{config.steps}")
    smallest = min(config.effective_eval_steps())
    if config.steps and config.tail_index > smallest:
        raise ConfigError("walk.tail_index",
                          f"must not exceed the smallest eval step {smallest}")
    if config.k_min > config.k_max:
        raise ConfigError("nilpotent.k_min",
                          f"must not exceed nilpotent.k_max {config.k_max}")


def build_measure(config: ScenarioConfig) -> SymmetricMeasure:
    """The config's step measure; ConfigError, naming the field, when the
    measure settings do not give a symmetric measure on the group whose
    weights fit the 64-bit sampling table."""
    if config.measure_kind == "standard":
        return uniform_standard_measure(config.group)
    if config.measure_kind == "heavy-tail":
        if config.group != ZPower(2):
            raise ConfigError("measure.kind",
                              "heavy-tail measure requires group ZPower(2)")
        if not 0 < config.heavy_minor_weight < 1:
            raise ConfigError("measure.minor_weight", "must lie strictly "
                              "between 0 and 1 for a heavy-tail measure")
        try:
            measure = heavy_tail_measure_z2(float(config.heavy_alpha),
                                            config.heavy_cutoff,
                                            config.heavy_minor_weight)
            measure.sampling_thresholds  # raises if a weight is too small
        except ValueError as exc:
            raise ConfigError("measure.alpha", str(exc)) from None
        return measure
    if not config.explicit_atoms:
        raise ConfigError("measure.atoms", "explicit measure needs atoms")
    try:
        measure = make_measure(config.group,
                               [(parse_element(config.group, el), w)
                                for el, w in config.explicit_atoms])
        measure.sampling_thresholds  # raises if a weight is too small
    except ValueError as exc:
        raise ConfigError("measure.atoms", str(exc)) from None
    offending = measure.first_asymmetric_atom
    if offending is not None:
        raise ConfigError("measure.atoms",
                          f"not symmetric at atom {format_element(offending)}")
    return measure
