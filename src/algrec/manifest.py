"""Run manifests: what a command wrote, under which config hash, and the
'#'-metadata CSV writer the commands share."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from . import __version__


@dataclass
class RunManifest:
    command: str
    config_hash: str
    seeds: tuple[int, ...]
    versions: dict = field(default_factory=lambda: {
        "algrec": __version__, "numpy": numpy.__version__})
    files: list[str] = field(default_factory=list)
    wall_clock_seconds: dict = field(default_factory=dict)

    def add_file(self, *paths: str | Path) -> None:
        self.files.extend(map(str, paths))

    def record_time(self, label: str, seconds: float) -> None:
        self.wall_clock_seconds[label] = seconds

    def write(self, out_dir: str | Path) -> Path:
        path = Path(out_dir) / "manifest.json"
        payload = {
            "command": self.command,
            "config_hash": self.config_hash,
            "seeds": list(self.seeds),
            "versions": self.versions,
            "files": self.files,
            "wall_clock_seconds": self.wall_clock_seconds,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


def metadata_lines(meta: dict | None) -> list[str]:
    """One '# key=value' line per metadata entry, sorted by key."""
    return [f"# {key}={meta[key]}" for key in sorted(meta or {})]


def _csv_field(value) -> str:
    """One field: its str(), None as empty, quoted only when it holds a
    comma, a quote, CR or LF, with inner quotes doubled."""
    if value is None:
        return ""
    text = str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(row) -> str:
    """One row, CRLF-terminated; a row whose only field is empty is '""'."""
    fields = [_csv_field(value) for value in row]
    line = '""' if fields == [""] else ",".join(fields)
    return line + "\r\n"


def write_csv(path: str | Path, meta: dict, header: list[str], rows) -> None:
    """CSV with sorted '#'-prefixed metadata lines, then one header row.

    Rows are written as the csv module's default dialect writes them."""
    with open(path, "w", newline="") as fh:
        fh.writelines(line + "\n" for line in metadata_lines(meta))
        fh.write(_csv_line(header))
        fh.writelines(map(_csv_line, rows))
