"""File formats: diagram JSON, model JSON, simulation configs, CSV, and SVG.

Diagram files are the instance itself: ``{"schema": "UWD"|"DWD"|"CPG",
"<Object>": card, ..., "<morphism>": [indices], ...}`` with the built-in
schema names and 0-based indices throughout.  All files are UTF-8; CSV uses
',' separators, '.' decimals, and a leading ``t`` column.

Diagram files are read column-wise: the integer lists of a file of at least
``_COLUMNWISE_BYTES`` bytes are parsed in one numpy pass
(``_textcols.parse_lists``) and ``json`` reads only the rest.  A file that
pass cannot read exactly as ``json.loads`` would, and every smaller file or
other kind of file, is read by ``json.loads`` alone, so the same files are
accepted with the same errors either way.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TextIO

import numpy as np

from ._textcols import format_floats, format_rows, parse_lists
from .cset import SCHEMAS_BY_NAME, CSetInstance, _EntryError
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
    return _load(path, False)


# Below this size a file is read by json.loads alone, which is then faster.
_COLUMNWISE_BYTES = 4096


def _load(path: str | Path, columnwise: bool) -> dict:
    """The JSON object in the file; with ``columnwise``, each integer list
    of a large file's top-level object is an ``np.intp`` array."""
    try:
        with open(path, "rb") as fh:
            text = fh.read()
        data = _columnwise(text) if columnwise and len(text) >= _COLUMNWISE_BYTES else None
        if data is None:
            data = json.loads(text.decode("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DynwireError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise DynwireError(f"{path}: expected a JSON object")
    return data


def _columnwise(text: bytes) -> dict | None:
    """``json.loads`` of ``text`` with its plain integer lists as arrays, or
    ``None`` where the result could differ: ``json`` refuses the rest, or a
    list's marker lands anywhere but on a value of the top-level object
    (in a nested value, as a key, or under a duplicate key)."""
    parsed = parse_lists(text)
    if parsed is None:
        return None
    rest, columns = parsed
    try:
        data = json.loads(rest.decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    if type(data) is not dict:
        return None
    placed = 0
    for key, value in data.items():
        if type(value) is str and value[:1] == "\0":
            data[key] = columns[int(value[1:])]
            placed += 1
    return data if placed == len(columns) else None


# O_BINARY (Windows only) keeps the C runtime from turning LF into CRLF.
_OUTPUT_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


@contextmanager
def _output(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text stream with LF line endings that overwrites ``path`` in place.

    This is the only place where dynwire opens a file for writing.  Unlike
    ``open(path, "w")``, it does not truncate the file when it opens it: the
    new bytes are written over the old ones, and when the block ends (also
    by an exception) a regular file is cut at the last byte written.  On
    ext4 this spares freeing and re-allocating every block of a file that
    is rewritten at the same path.  Anything else, such as ``/dev/stdout``,
    ``/dev/null`` or a FIFO, is written as it is.  A new file is created
    with mode ``0o666`` less the umask and an existing one keeps its mode.
    Symlinks are written through, and hard links share the new bytes.

    An ``OSError`` from opening, writing, cutting or closing the file raises
    ``DynwireError`` naming ``path``.  A write that is killed before the
    cut can leave old bytes after the new ones.
    """
    try:
        fd = os.open(path, _OUTPUT_FLAGS, 0o666)
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            try:
                yield fh
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    fh.truncate()
    except OSError as exc:
        raise DynwireError(f"{path}: {exc}") from None


def _write_text(path: str | Path, text: str) -> None:
    """Write ``text`` over ``path`` through ``_output``: UTF-8 with LF line
    endings on every platform, cut to its length, and an ``OSError``
    raised as ``DynwireError`` naming the path."""
    with _output(path) as fh:
        fh.write(text)


def _write_json(path: str | Path, data: dict) -> None:
    """Write ``json.dumps(data, indent=2)`` and a newline, in one call."""
    _write_text(path, _encode(data, "\n") + "\n")


_quoted = json.encoder.encode_basestring_ascii


def _encode(value: object, newline: str) -> str:
    """``json.dumps(value, indent=2)`` nested at the indent that ``newline`` carries.

    Objects with string keys are laid out here.  An integer array (an index
    column, which needs no scan) is formatted in one numpy pass, and a list
    of strings (a sidecar's column names, a model's states) is one join
    through the C string encoder that ``json.dumps`` uses; any other value
    is ``json.dumps`` output, re-indented.
    """
    inner = newline + "  "
    if isinstance(value, dict) and value and all(type(k) is str for k in value):
        items = (f"{json.dumps(k)}: {_encode(v, inner)}" for k, v in value.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, np.ndarray):
        rows = format_rows(("", ""), (value,), "," + inner)
        return "[" + inner + rows + newline + "]" if rows else "[]"
    if isinstance(value, (list, tuple)) and value and set(map(type, value)) == {str}:
        return "[" + inner + ("," + inner).join(map(_quoted, value)) + newline + "]"
    return json.dumps(value, indent=2).replace("\n", newline)


# The keys a diagram object of each schema needs besides "schema".
_KEYS = {
    name: frozenset(schema.objects) | schema.morphism_by_name.keys()
    for name, schema in SCHEMAS_BY_NAME.items()
}


_COLUMN_TYPES = (list, np.ndarray)


def instance_from_json(data: Mapping) -> CSetInstance:
    """Decode a diagram object into a raw instance (not yet validated).

    Every object and morphism of the schema is a required key; cards are
    integers and columns lists (or arrays) of integers, else ``SchemaError``
    names the key and row.  The entries' types are checked once, by
    ``CSetInstance``; an ``np.intp`` array needs no check.
    """
    name = data.get("schema")
    if not isinstance(name, str) or name not in SCHEMAS_BY_NAME:
        raise SchemaError(
            f"unknown or missing schema name {name!r}; expected one of {sorted(SCHEMAS_BY_NAME)}"
        )
    schema, keys = SCHEMAS_BY_NAME[name], _KEYS[name]
    unknown = sorted(data.keys() - keys - {"schema"})
    if unknown:
        raise SchemaError(f"unknown keys for schema {name}: {', '.join(unknown)}")
    missing = sorted(keys - data.keys())
    if missing:
        raise SchemaError(f"schema {name} requires keys: {', '.join(missing)}")
    card = {}
    for ob in schema.objects:
        if type(data[ob]) is not int:
            raise SchemaError(f"{ob!r} must be an integer, got {data[ob]!r}")
        card[ob] = data[ob]
    parts = {}
    for m in schema.morphisms:
        if not isinstance(data[m.name], _COLUMN_TYPES):
            raise SchemaError(f"{m.name!r} must be a list of integers, got {data[m.name]!r}")
        parts[m.name] = data[m.name]
    try:
        return CSetInstance(schema, card, parts)
    except _EntryError as exc:
        where = f"{exc.column}[{exc.row}]"
        raise SchemaError(f"{where} must be an integer, got {exc.value!r}") from None


def _columns(inst: CSetInstance) -> dict:
    """A diagram object with the instance's columns as they are stored."""
    out: dict = {"schema": inst.schema.name}
    out.update(inst.card)
    out.update(inst.parts)
    return out


def instance_to_json(inst: CSetInstance) -> dict:
    out = _columns(inst)
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in out.items()}


_WRAPPERS = {cls.schema.name: cls for cls in _SYNTAX}


def wrap_instance(inst: CSetInstance) -> Diagram:
    """Validate and wrap a raw instance into its diagram type."""
    return _WRAPPERS[inst.schema.name](inst)


def load_instance(path: str | Path) -> CSetInstance:
    return instance_from_json(_load(path, True))


def load_diagram(path: str | Path) -> Diagram:
    return wrap_instance(load_instance(path))


def dump_diagram(d: Diagram, path: str | Path) -> None:
    _write_json(path, _columns(d.data))


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
    # Floats with a finite sum are all finite: accepted in two C-level
    # passes.  Anything else is checked value by value, for the message.
    if set(map(type, value)) <= {float} and math.isfinite(sum(value)):
        return tuple(value)
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


# Characters that would split a CSV cell or line.
_CSV_BREAKS = frozenset(",\n\r")


def load_labels(path: str | Path) -> list[str]:
    """Sidecar box labels: ``{"boxes": ["city1", ...]}``.

    A label becomes part of CSV column names, so one holding ``,``, ``\\n``
    or ``\\r`` is refused with ``ConfigError`` naming ``boxes[i]``.
    """
    data = load_json(path)
    boxes = data.get("boxes")
    if not isinstance(boxes, list):
        raise ConfigError(f"{path}: labels file must carry a 'boxes' list")
    for i, b in enumerate(boxes):
        if not isinstance(b, str):
            raise ConfigError(f"{path}: boxes[{i}] must be a string, got {b!r}")
        if _CSV_BREAKS.intersection(b):
            raise ConfigError(f"{path}: boxes[{i}] must not hold ',', '\\n' or '\\r', got {b!r}")
    return list(boxes)


# ---------------------------------------------------------------------------
# CSV trajectories


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Sequence[Sequence[float]] | np.ndarray,
    *,
    stale: str | Path | None = None,
) -> None:
    """Write the header and one line per row, every value as ``repr(float(v))``.

    ``rows`` is a 2-D float64 array of the header's width, such as the block
    of a trajectory, which is written as it is, or else any sequence of rows
    of numbers.  Before the file is opened, a row whose length differs from
    the header's, or a header cell holding ``,``, ``\\n`` or ``\\r``, raises
    ``DynwireError`` naming it (``read_csv`` would refuse the file), and
    every value of a sequence of rows is converted by ``float``; so a call
    refused for its rows, header or values leaves an existing file as it
    was.  The values are then written by ``_textcols.format_floats``, a
    vectorised shortest round-trip kernel that gives ``repr``'s bytes, in
    chunks of at most ``_textcols._CHUNK_VALUES`` values, streamed to the
    file through ``_output``: it is written over in place and cut to length,
    and an ``OSError`` is raised as ``DynwireError`` naming the path.

    ``stale`` names a file, such as the CSV's sidecar, that describes the
    old content: it is removed after the checks and just before the file is
    opened, so a refused call keeps both and a failed write keeps neither.
    """
    width = len(header)
    block = isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.shape[1:] == (width,)
    if not block and not set(map(len, rows)) <= {width}:
        k, n = next((k, len(row)) for k, row in enumerate(rows) if len(row) != width)
        raise DynwireError(f"{path}: row {k} has {n} values, the header has {width}")
    if _CSV_BREAKS.intersection("".join(header)):
        k, name = next((k, name) for k, name in enumerate(header, 1) if _CSV_BREAKS.intersection(name))
        raise DynwireError(f"{path}: column {k} ({name!r}) holds ',', '\\n' or '\\r'")
    values = rows
    if not block:
        values = np.fromiter(map(float, chain.from_iterable(rows)), np.float64, len(rows) * width)
        values = values.reshape(len(rows), width)
    if stale is not None:
        try:
            os.remove(stale)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise DynwireError(f"{stale}: {exc}") from None
    with _output(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(format_floats(values))


def read_csv(path: str | Path) -> tuple[list[str], list[list[float]]]:
    """Header and numeric rows; blank lines are skipped.

    A row with another cell count than the header, or a cell that is not a
    number, raises ``DynwireError`` naming the file, line and column.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [(n, line.rstrip("\n")) for n, line in enumerate(fh, 1) if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise DynwireError(f"{path}: {exc}") from None
    if not lines:
        raise DynwireError(f"{path}: empty CSV")
    header = lines[0][1].split(",")
    rows = []
    for n, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise DynwireError(
                f"{path}: line {n} has {len(cells)} cells, the header has {len(header)}"
            )
        row = []
        for col, (name, v) in enumerate(zip(header, cells), 1):
            try:
                row.append(float(v))
            except ValueError:
                raise DynwireError(
                    f"{path}: line {n}, column {col} ({name!r}): {v!r} is not a number"
                ) from None
        rows.append(row)
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
    _write_text(path, "\n".join(lines) + "\n")
