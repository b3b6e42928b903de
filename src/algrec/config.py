"""Plain-text scenario configuration: key = value lines under section headers.

Parsed configs round-trip to an identical canonical text, whose SHA-256
prefix stamps every output file a run writes.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .groups import GroupDescriptor, parse_descriptor, parse_element, zpower
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


@dataclass(frozen=True)
class ScenarioConfig:
    group: GroupDescriptor = field(default_factory=lambda: zpower(1))
    measure_kind: str = "standard"  # standard | heavy-tail | explicit
    heavy_alpha: Fraction = Fraction(2)
    heavy_cutoff: int = 4
    heavy_minor_weight: Fraction = Fraction(1, 5)
    explicit_atoms: tuple[tuple[str, Fraction], ...] = ()
    steps: int = 100
    tail_index: int = 1
    eval_steps: tuple[int, ...] = ()  # empty means (steps,)
    budget_radius: int = 5
    budget_max_elements: int = 100_000
    budget_max_products: int = 2_000_000
    coverage_radius: int = 0  # 0 means budget_radius
    seeds: tuple[int, ...] = (1,)
    out_dir: str = "out"
    # free-stats extras
    trials: int = 10_000
    lengths: tuple[int, ...] = (16, 64, 256)
    pool_size: int = 8
    pool_length: int = 64
    excursions: int = 100_000
    j0: int = 64
    # witness extras
    witness_mode: str = "torsion"  # torsion | z-integer
    witness_x: str = ""
    witness_y: str = ""
    max_k: int = 64
    # nilpotent extras
    k_min: int = -1
    k_max: int = 1
    n_max: int = 3
    m_max: int = 3

    def effective_eval_steps(self) -> tuple[int, ...]:
        return self.eval_steps if self.eval_steps else (self.steps,)

    def effective_coverage_radius(self) -> int:
        return self.coverage_radius if self.coverage_radius else self.budget_radius


_SCHEMA = {
    "group": {"kind": "group"},
    "measure": {"kind": "measure_kind", "alpha": "heavy_alpha",
                "cutoff": "heavy_cutoff", "minor_weight": "heavy_minor_weight",
                "atoms": "explicit_atoms"},
    "walk": {"steps": "steps", "tail_index": "tail_index",
             "eval_steps": "eval_steps"},
    "budget": {"radius": "budget_radius", "max_elements": "budget_max_elements",
               "max_products": "budget_max_products",
               "coverage_radius": "coverage_radius"},
    "run": {"seeds": "seeds"},
    "output": {"out_dir": "out_dir"},
    "free": {"trials": "trials", "lengths": "lengths", "pool_size": "pool_size",
             "pool_length": "pool_length", "excursions": "excursions",
             "j0": "j0"},
    "witness": {"mode": "witness_mode", "x": "witness_x", "y": "witness_y",
                "max_k": "max_k"},
    "nilpotent": {"k_min": "k_min", "k_max": "k_max", "n_max": "n_max",
                  "m_max": "m_max"},
}

_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def _parse_value(path: str, attr: str, raw: str):
    raw = raw.strip()
    try:
        if attr == "group":
            return parse_descriptor(raw)
        if attr in ("eval_steps", "lengths", "seeds"):
            return tuple(int(t) for t in raw.split(",") if t.strip()) if raw else ()
        if attr == "explicit_atoms":
            atoms = []
            for part in raw.split("|"):
                part = part.strip()
                if not part:
                    continue
                element, _, weight = part.rpartition(":")
                atoms.append((element.strip(), Fraction(weight.strip())))
            return tuple(atoms)
        if attr in ("heavy_alpha", "heavy_minor_weight"):
            return Fraction(raw)
        if attr in ("measure_kind", "out_dir", "witness_mode",
                    "witness_x", "witness_y"):
            return raw
        return int(raw)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _format_value(attr: str, value) -> str:
    if attr in ("eval_steps", "lengths", "seeds"):
        return ",".join(str(v) for v in value)
    if attr == "explicit_atoms":
        return " | ".join(f"{el}:{w}" for el, w in value)
    return str(value)


def parse_config(text: str) -> ScenarioConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("<config>", str(exc)) from None
    values = {}
    for section in parser.sections():
        keys = _SCHEMA.get(section)
        if keys is None:
            raise ConfigError(section, "unknown section")
        for key, raw in parser.items(section):
            attr = keys.get(key)
            if attr is None:
                raise ConfigError(f"{section}.{key}", "unknown key")
            values[attr] = _parse_value(f"{section}.{key}", attr, raw)
    try:
        config = ScenarioConfig(**values)
    except ValueError as exc:
        raise ConfigError("group.kind", str(exc)) from None
    validate_config(config)
    return config


def load_config(path: str) -> ScenarioConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def canonical_text(config: ScenarioConfig, include_output: bool = True) -> str:
    out = io.StringIO()
    for section in sorted(_SCHEMA):
        if section == "output" and not include_output:
            continue
        out.write(f"[{section}]\n")
        for key in sorted(_SCHEMA[section]):
            attr = _SCHEMA[section][key]
            out.write(f"{key} = {_format_value(attr, getattr(config, attr))}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(config: ScenarioConfig) -> str:
    """Hash of the canonical text minus the output location, so identical
    scenarios produce identical data bytes wherever they are written."""
    text = canonical_text(config, include_output=False)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def validate_config(config: ScenarioConfig) -> None:
    if config.measure_kind not in ("standard", "heavy-tail", "explicit"):
        raise ConfigError("measure.kind",
                          "expected standard, heavy-tail or explicit")
    if config.steps < 0:
        raise ConfigError("walk.steps", "must be >= 0")
    if config.tail_index < 1:
        raise ConfigError("walk.tail_index", "must be >= 1")
    if config.budget_radius < 1:
        raise ConfigError("budget.radius", "must be >= 1")
    if config.coverage_radius < 0:
        raise ConfigError("budget.coverage_radius", "must be >= 0")
    if config.coverage_radius > config.budget_radius:
        raise ConfigError("budget.coverage_radius",
                          f"must not exceed budget radius {config.budget_radius}")
    if config.budget_max_elements < 1:
        raise ConfigError("budget.max_elements", "must be >= 1")
    if config.budget_max_products < 1:
        raise ConfigError("budget.max_products", "must be >= 1")
    if not config.seeds:
        raise ConfigError("run.seeds", "need at least one seed")
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


def build_measure(config: ScenarioConfig) -> SymmetricMeasure:
    if config.measure_kind == "standard":
        return uniform_standard_measure(config.group)
    if config.measure_kind == "heavy-tail":
        if config.group != zpower(2):
            raise ConfigError("measure.kind",
                              "heavy-tail measure requires group ZPower(2)")
        return heavy_tail_measure_z2(float(config.heavy_alpha),
                                     config.heavy_cutoff,
                                     config.heavy_minor_weight)
    if not config.explicit_atoms:
        raise ConfigError("measure.atoms", "explicit measure needs atoms")
    atoms = [(parse_element(config.group, el), w)
             for el, w in config.explicit_atoms]
    return make_measure(config.group, atoms)
