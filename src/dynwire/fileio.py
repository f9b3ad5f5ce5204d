"""File formats: diagram JSON, model JSON, simulation configs, CSV, and SVG.

Diagram files are the instance itself: ``{"schema": "UWD"|"DWD"|"CPG",
"<Object>": card, ..., "<morphism>": [indices], ...}`` with the built-in
schema names and 0-based indices throughout.  All files are UTF-8; CSV uses
',' separators, '.' decimals, and a leading ``t`` column.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .cset import SCHEMAS_BY_NAME, CSetInstance
from .errors import ConfigError, DynwireError, SchemaError
from .modelspec import ModelSpec, _finite_float, spec_from_json, spec_to_json
from .wiring import _SYNTAX, CPGraph, DWDiagram, UWDiagram

__all__ = [
    "load_json",
    "instance_from_json",
    "instance_to_json",
    "load_instance",
    "wrap_instance",
    "load_diagram",
    "dump_diagram",
    "load_model",
    "dump_model",
    "SimulationConfig",
    "load_config",
    "load_labels",
    "write_csv",
    "read_csv",
    "write_svg_lineplot",
]

Diagram = UWDiagram | DWDiagram | CPGraph


def load_json(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DynwireError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise DynwireError(f"{path}: expected a JSON object")
    return data


def _write_json(path: str | Path, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=False)
        fh.write("\n")


def instance_from_json(data: Mapping) -> CSetInstance:
    """Decode a diagram object into a raw instance (not yet validated).

    Every object and morphism of the schema is a required key; cards are
    integers and columns lists of integers, else ``SchemaError`` names the
    key and row.
    """
    name = data.get("schema")
    if name not in SCHEMAS_BY_NAME:
        raise SchemaError(
            f"unknown or missing schema name {name!r}; expected one of {sorted(SCHEMAS_BY_NAME)}"
        )
    schema = SCHEMAS_BY_NAME[name]
    known = {"schema"} | set(schema.objects) | {m.name for m in schema.morphisms}
    unknown = sorted(set(data) - known)
    if unknown:
        raise SchemaError(f"unknown keys for schema {name}: {', '.join(unknown)}")
    missing = [key for key in known - {"schema"} if key not in data]
    if missing:
        raise SchemaError(f"schema {name} requires keys: {', '.join(sorted(missing))}")
    card = {}
    for ob in schema.objects:
        if type(data[ob]) is not int:
            raise SchemaError(f"{ob!r} must be an integer, got {data[ob]!r}")
        card[ob] = data[ob]
    parts = {m.name: _int_column(m.name, data[m.name]) for m in schema.morphisms}
    return CSetInstance(schema, card, parts)


def _int_column(key: str, col: object) -> tuple[int, ...]:
    # ``type(v) is int`` refuses bools and floats instead of truncating them.
    if not isinstance(col, list):
        raise SchemaError(f"{key!r} must be a list of integers, got {col!r}")
    if set(map(type, col)) - {int}:
        row = next(r for r, v in enumerate(col) if type(v) is not int)
        raise SchemaError(f"{key}[{row}] must be an integer, got {col[row]!r}")
    return tuple(col)


def instance_to_json(inst: CSetInstance) -> dict:
    out: dict = {"schema": inst.schema.name}
    for ob in inst.schema.objects:
        out[ob] = inst.card[ob]
    for m in inst.schema.morphisms:
        out[m.name] = list(inst.parts[m.name])
    return out


def wrap_instance(inst: CSetInstance) -> Diagram:
    """Validate and wrap a raw instance into its diagram type."""
    wrapper = {cls.schema_name: cls for cls in _SYNTAX}[inst.schema.name]
    return wrapper(inst)


def load_instance(path: str | Path) -> CSetInstance:
    return instance_from_json(load_json(path))


def load_diagram(path: str | Path) -> Diagram:
    return wrap_instance(load_instance(path))


def dump_diagram(d: Diagram, path: str | Path) -> None:
    _write_json(path, instance_to_json(d.data))


def load_model(path: str | Path) -> ModelSpec:
    return spec_from_json(load_json(path))


def dump_model(spec: ModelSpec, path: str | Path) -> None:
    _write_json(path, spec_to_json(spec))


def _finite(key: str, value: object) -> float:
    x = _finite_float(value)
    if x is None:
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return x


def _finite_list(key: str, value: object) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    xs = tuple(map(_finite_float, value))
    if None in xs:
        i = xs.index(None)
        raise ConfigError(f"{key}[{i}] must be a finite number, got {value[i]!r}")
    return xs


@dataclass(frozen=True)
class SimulationConfig:
    """Step size, step count, initial state, and external inputs.

    ``init`` is either a full vector or a map from qualified state names
    (unnamed states default to 0.0).  ``inputs`` is either a constant vector
    or a per-step table with one row per step; both apply to directed
    systems only.

    Construction checks every field: ``h`` is a finite positive number,
    ``steps`` a positive integer (bools and floats are refused, not
    truncated), and every entry of ``init``, ``inputs`` and the input table
    a finite number; numbers are stored as floats and vectors as tuples.
    A failure raises ``ConfigError`` naming the field.
    """

    h: float
    steps: int
    init: tuple[float, ...] | dict[str, float]
    inputs: tuple[float, ...] | None = None
    input_table: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        h = _finite("'h'", self.h)
        if isinstance(self.steps, bool) or not isinstance(self.steps, numbers.Integral):
            raise ConfigError(f"'steps' must be an integer, got {self.steps!r}")
        if isinstance(self.init, dict):
            init: tuple[float, ...] | dict[str, float] = {
                k: _finite(f"init[{k!r}]", v) for k, v in self.init.items()
            }
        else:
            init = _finite_list("init", self.init)
        inputs = None if self.inputs is None else _finite_list("inputs", self.inputs)
        table = self.input_table
        if table is not None:
            table = tuple(_finite_list(f"inputs.table[{r}]", row) for r, row in enumerate(table))
        if not h > 0:
            raise ConfigError("step size h must be positive")
        if self.steps < 1:
            raise ConfigError("steps must be a positive integer")
        for name, value in (("h", h), ("init", init), ("inputs", inputs), ("input_table", table)):
            object.__setattr__(self, name, value)


def load_config(path: str | Path) -> SimulationConfig:
    """Decode a simulation config; a missing key or a field that
    ``SimulationConfig`` refuses raises ``ConfigError`` naming the file.

    ``inputs`` is a list (one constant vector) or ``{"table": [rows]}``.
    """
    data = load_json(path)
    for key in ("h", "steps", "init"):
        if key not in data:
            raise ConfigError(f"{path}: config is missing key {key!r}")
    inputs = data.get("inputs")
    input_table = None
    if isinstance(inputs, dict):
        input_table = inputs.get("table")
        if not isinstance(input_table, list):
            raise ConfigError(f"{path}: inputs object must carry a 'table' list")
        inputs = None
    try:
        return SimulationConfig(data["h"], data["steps"], data["init"], inputs, input_table)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_labels(path: str | Path) -> list[str]:
    """Sidecar box labels: ``{"boxes": ["city1", ...]}``."""
    data = load_json(path)
    boxes = data.get("boxes")
    if not isinstance(boxes, list):
        raise ConfigError(f"{path}: labels file must carry a 'boxes' list")
    return [str(b) for b in boxes]


# ---------------------------------------------------------------------------
# CSV trajectories


def _fmt(x: float) -> str:
    return repr(float(x))


def write_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence[float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_csv(path: str | Path) -> tuple[list[str], list[list[float]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise DynwireError(f"{path}: empty CSV")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# SVG line plots

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def write_svg_lineplot(
    path: str | Path,
    t: Sequence[float],
    columns: Mapping[str, Sequence[float]],
    x_label: str = "t",
) -> None:
    """A deterministic single-panel polyline chart with a legend."""
    width, height = 800, 480
    ml, mr, mt, mb = 60, 160, 20, 40
    plot_w, plot_h = width - ml - mr, height - mt - mb

    t_lo, t_hi = (min(t), max(t)) if t else (0.0, 1.0)
    values = [v for col in columns.values() for v in col]
    y_lo, y_hi = (min(values), max(values)) if values else (0.0, 1.0)
    if t_hi == t_lo:
        t_hi = t_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(v: float) -> float:
        return ml + (v - t_lo) / (t_hi - t_lo) * plot_w

    def sy(v: float) -> float:
        return mt + (y_hi - v) / (y_hi - y_lo) * plot_h

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + plot_h}" x2="{ml + plot_w}" y2="{mt + plot_h}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + plot_h}" stroke="black"/>',
        f'<text x="{ml + plot_w / 2:.1f}" y="{height - 8}" text-anchor="middle" '
        f'font-size="13">{x_label}</text>',
        f'<text x="{ml}" y="{height - 8}" text-anchor="middle" font-size="11">{t_lo!r}</text>',
        f'<text x="{ml + plot_w}" y="{height - 8}" text-anchor="middle" font-size="11">{t_hi!r}</text>',
        f'<text x="{ml - 6}" y="{mt + plot_h}" text-anchor="end" font-size="11">{y_lo!r}</text>',
        f'<text x="{ml - 6}" y="{mt + 10}" text-anchor="end" font-size="11">{y_hi!r}</text>',
    ]
    for k, (name, col) in enumerate(columns.items()):
        color = _PALETTE[k % len(_PALETTE)]
        points = " ".join(f"{sx(tv):.2f},{sy(v):.2f}" for tv, v in zip(t, col))
        lines.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = mt + 16 + 16 * k
        lines.append(
            f'<line x1="{ml + plot_w + 10}" y1="{ly - 4}" x2="{ml + plot_w + 30}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        lines.append(
            f'<text x="{ml + plot_w + 36}" y="{ly}" font-size="12">{name}</text>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
