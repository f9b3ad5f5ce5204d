"""Any JSON value in any file slot of the CLI ends in exit 0, 1 or 2, never a traceback.

Each case is a command line that succeeds on its base files.  An example
writes one slot's file as an arbitrary JSON value, or as its base object with
one key replaced or removed, and runs ``dynwire.cli.main`` in-process; an
exception escaping ``main`` fails the test with its traceback.  Generated
integers stay small so that a fuzzed step count or size keeps each example
to milliseconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dynwire import grid
from dynwire.cli import main
from dynwire.fileio import instance_to_json

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def _load(rel: str) -> dict:
    return json.loads((CONFIGS / rel).read_text(encoding="utf-8"))


GRID_2X2 = instance_to_json(grid(2, 2).data)

# name -> (argv with {slot} placeholders, base content of each slot)
CASES: dict[str, tuple[list[str], dict[str, object]]] = {
    "validate": (
        ["validate", "{diagram}", "{model}"],
        {"diagram": _load("sir/cyclic.json"), "model": _load("sir/city.json")},
    ),
    "compose": (
        ["compose", "--outer", "{outer}", "--inner", "{land}", "--inner", "{river}", "-o", "{out}"],
        {
            "outer": _load("ecosystem/total_diagram.json"),
            "land": _load("ecosystem/land_diagram.json"),
            "river": _load("ecosystem/river_diagram.json"),
        },
    ),
    "compose-slot": (
        ["compose", "--outer", "{outer}", "--inner", "{inner}", "--slot", "1", "-o", "{out}"],
        {
            "outer": _load("ecosystem/total_diagram.json"),
            "inner": _load("ecosystem/river_diagram.json"),
        },
    ),
    "migrate": (["migrate", "--cpg", "{cpg}", "-o", "{out}"], {"cpg": GRID_2X2}),
    "export-dot": (
        ["export-dot", "--diagram", "{diagram}", "-o", "{out}"],
        {"diagram": _load("sir/cyclic.json")},
    ),
    "simulate-sir": (
        ["simulate", "--diagram", "{diagram}", "--models", "{m0}", "{m1}", "{m1}",
         "--config", "{config}", "--labels", "{labels}", "--out", "{out}", "--scheme", "rk4"],
        {
            "diagram": _load("sir/cyclic.json"),
            "m0": _load("sir/city.json"),
            "m1": _load("sir/city.json"),
            "config": {"h": 0.01, "steps": 5, "init": [990.0, 10.0, 0.0, 1000.0, 0, 0, 500.0, 0, 0]},
            "labels": _load("sir/labels3.json"),
        },
    ),
    "simulate-heat": (
        ["simulate", "--diagram", "{diagram}", "--models", "{node}", "{node}", "{node}", "{node}",
         "--config", "{config}", "--out", "{out}"],
        {
            "diagram": GRID_2X2,
            "node": _load("heat/heat_node.json"),
            "config": {"h": 0.1, "steps": 3, "init": [1.0, 0.0, 0.0, 0.0],
                       "inputs": {"table": [[0.0] * 8] * 3}},
        },
    ),
    "plot": (
        ["plot", "--csv", "{csv}", "--columns", "a", "-o", "{out}"],
        {"csv": "t,a\n0.0,1.0\n0.5,2.0\n"},
    ),
}

scalars = st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=6)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)
# Plausible columns, so that fuzzing also reaches the checks behind decoding.
columns = st.lists(st.integers(-2, 9), max_size=10)
_DELETE = object()


def _contents(base: object) -> st.SearchStrategy:
    if not isinstance(base, dict):
        return json_values
    keys = sorted(base) + ["extra"]
    edits = st.tuples(st.sampled_from(keys), json_values | columns | st.just(_DELETE))
    return json_values | edits.map(lambda edit: _edited(base, *edit))


def _edited(base: dict, key: str, value: object) -> dict:
    out = dict(base)
    if value is _DELETE:
        out.pop(key, None)
    else:
        out[key] = value
    return out


def _run(name: str, files: dict[str, object], tmp: Path) -> tuple[int, str]:
    argv_template, _ = CASES[name]
    paths = {"out": str(tmp / "out")}
    for slot, content in files.items():
        path = tmp / f"{slot}.in"
        text = content if isinstance(content, str) else json.dumps(content)
        path.write_text(text, encoding="utf-8")
        paths[slot] = str(path)
    argv = [arg.format(**paths) for arg in argv_template]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue() + err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_base_files_succeed(name, tmp_path):
    code, output = _run(name, CASES[name][1], tmp_path)
    assert code == 0, output


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_json_in_any_file_slot_exits_cleanly(data):
    name = data.draw(st.sampled_from(sorted(CASES)), label="case")
    files = dict(CASES[name][1])
    slot = data.draw(st.sampled_from(sorted(files)), label="slot")
    content = data.draw(_contents(files[slot]), label="content")
    files[slot] = json.dumps(content)
    with tempfile.TemporaryDirectory() as tmp:
        code, output = _run(name, files, Path(tmp))
    assert code in (0, 1, 2), output
    assert "Traceback" not in output
