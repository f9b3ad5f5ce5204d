"""Any JSON value in any file slot of the CLI ends in exit 0, 1 or 2, never a traceback.

Each case is a command line that succeeds on its base files.  An example
writes one slot's file as an arbitrary JSON value, or as its base object with
one key replaced or removed, and runs ``dynwire.cli.main`` in-process; an
exception escaping ``main`` fails the test with its traceback.  Generated
integers stay small so that a fuzzed step count or size keeps each example
to milliseconds.

A corpus of hostile files (cardinalities no command can build, too few
models) is run through the CLI in a subprocess under a timeout, so that a
hang fails the test instead of stalling the suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dynwire import grid
from dynwire.cli import main
from dynwire.fileio import instance_to_json

try:
    import resource
except ImportError:  # not on Windows
    resource = None

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


# ---------------------------------------------------------------------------
# Hostile sizes: each command line must exit 1 with a located message, fast.


def _uwd(boxes: int, junctions: int = 0) -> dict:
    return {"schema": "UWD", "B": boxes, "J": junctions, "P": 0, "Q": 0,
            "box": [], "junc_in": [], "junc_out": []}


def _cpg(boxes: int) -> dict:
    return {"schema": "CPG", "B": boxes, "P": 0, "W": 0, "Q": 0,
            "box": [], "src": [], "tgt": [], "expose": []}


# 2**60 boxes are a valid card, but numpy refuses an array of that many
# entries by its size alone, before asking the system for memory.
HOSTILE_FILES = {
    "uwd-boxes-1e30": _uwd(10**30),
    "uwd-boxes-2^63": _uwd(2**63),
    "uwd-junctions-1e30": _uwd(1, 10**30),
    "uwd-boxes-2^60": _uwd(2**60),
    "uwd-junctions-2^40": _uwd(1, 2**40),
    "uwd-junctions-2^60": _uwd(1, 2**60),
    "cpg-boxes-2^60": _cpg(2**60),
}

TOO_LARGE = "cardinality {} is not below the index limit 9223372036854775808"
VALIDATE = ["validate", "{file}"]
SIMULATE = ["simulate", "--diagram", "{file}", "--models", "configs/sir/city.json",
            "--config", "configs/sir/sim_single.json", "--out", "{out}"]
EXPORT_DOT = ["export-dot", "--diagram", "{file}", "-o", "{out}"]
COMPOSE = ["compose", "--outer", "{file}", "--inner", "{file}", "-o", "{out}"]

# name -> (hostile file or None, argv with {file} and {out}, expected message)
HOSTILE = {
    **{
        f"{command}-{name}": (name, argv, "B: " + TOO_LARGE.format(boxes))
        for name, boxes in (("uwd-boxes-1e30", 10**30), ("uwd-boxes-2^63", 2**63))
        for command, argv in (("validate", VALIDATE), ("simulate", SIMULATE), ("export-dot", EXPORT_DOT))
    },
    "export-dot-uwd-junctions-1e30": ("uwd-junctions-1e30", EXPORT_DOT, "J: " + TOO_LARGE.format(10**30)),
    **{
        f"export-dot-{name}": (name, EXPORT_DOT, f"cannot write {2**60} lines of text")
        for name in ("uwd-boxes-2^60", "uwd-junctions-2^60", "cpg-boxes-2^60")
    },
    # The file substituted into its own box: the outer and the inner
    # junctions, twice the file's count, are allocated together.
    **{
        f"compose-uwd-junctions-{k}": (
            f"uwd-junctions-{k}", COMPOSE, f"cannot compose diagrams of {2 * n} junctions in all",
        )
        for k, n in (("2^40", 2**40), ("2^60", 2**60))
    },
    "simulate-uwd-boxes-2^60": (
        "uwd-boxes-2^60", SIMULATE, f"diagram has {2**60} boxes but 1 models were given",
    ),
    "simulate-too-few-models": (
        None,
        ["simulate", "--diagram", "configs/sir/cyclic.json", "--models",
         "configs/sir/city.json", "configs/sir/city.json",
         "--config", "configs/sir/sim_cyclic.json", "--out", "{out}"],
        "diagram has 3 boxes but 2 models were given",
    ),
}


def _limit_memory() -> None:
    # A command that loops over the declared boxes instead of refusing them
    # runs into this limit and fails, rather than filling the machine.
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_sizes_exit_1_with_a_located_message(case, tmp_path, repo_root):
    name, argv, message = HOSTILE[case]
    path = tmp_path / "diagram.json"
    if name is not None:
        path.write_text(json.dumps(HOSTILE_FILES[name]), encoding="utf-8")
    args = [a.format(file=path, out=tmp_path / "out") for a in argv]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(repo_root / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "dynwire.cli", *args],
        cwd=repo_root, env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_memory if resource is not None else None,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert message in output
    assert "Traceback" not in output


def _one_port(schema: str, boxes: int) -> dict:
    """``boxes`` boxes, the first with one port, which the one outer port exposes."""
    if schema == "UWD":
        return {"schema": "UWD", "B": boxes, "J": 1, "P": 1, "Q": 1,
                "box": [0], "junc_in": [0], "junc_out": [0]}
    return {"schema": "CPG", "B": boxes, "P": 1, "W": 0, "Q": 1,
            "box": [0], "src": [], "tgt": [], "expose": [0]}


@pytest.mark.parametrize("schema", ["UWD", "CPG"])
def test_compose_of_far_more_boxes_than_ports_is_written(schema, tmp_path, repo_root):
    # Substitution and the canonical form need the ports' order, not an
    # entry per box, so 2**60 boxes with one port compose like one box.
    outer, inner, out = (tmp_path / f"{n}.json" for n in ("outer", "inner", "out"))
    outer.write_text(json.dumps(_one_port(schema, 1)), encoding="utf-8")
    inner.write_text(json.dumps(_one_port(schema, 2**60)), encoding="utf-8")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(repo_root / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "dynwire.cli", "compose", "--outer", str(outer),
         "--inner", str(inner), "-o", str(out)],
        cwd=repo_root, env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_memory if resource is not None else None,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(out.read_text(encoding="utf-8"))["B"] == 2**60
