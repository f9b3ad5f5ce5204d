from __future__ import annotations

import json
import shlex
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from dynwire import (
    canonical,
    euler_directed,
    identity_uwd,
    instantiate,
    oapply_directed,
    spec_from_json,
    spec_to_json,
)
from dynwire import cli, fileio
from dynwire._textcols import format_floats
from dynwire.cli import main
from dynwire.fileio import dump_diagram, load_diagram, read_csv, write_svg_lineplot
from dynwire.wiring import DWDiagram, UWDiagram


def write_json(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


ZERO_FIELD_MODEL = {
    "kind": "machine",
    "flavor": "continuous",
    "states": ["x"],
    "inputs": [],
    "params": {},
    "dynamics": {"x": "0"},
    "readout": [],
}

ONE_BOX_DWD = {
    "schema": "DWD",
    "B": 1, "P_in": 0, "P_out": 0, "W": 0, "W_in": 0, "W_out": 0,
    "Q_in": 0, "Q_out": 0,
    "box_in": [], "box_out": [],
    "src": [], "tgt": [], "src_in": [], "tgt_in": [], "src_out": [], "tgt_out": [],
}


ONE_PORT_UWD = {
    "schema": "UWD", "B": 1, "P": 1, "J": 1, "Q": 0,
    "box": [0], "junc_in": [0], "junc_out": [],
}

SELF_SHARER = {"kind": "sharer", "flavor": "continuous", "states": ["x"],
               "ports": ["x"], "params": {}, "dynamics": {"x": "x"}}

BAD_FILES = {
    "diagram-missing-keys": ({"schema": "UWD", "B": 1}, "junc_in"),
    "diagram-string-card": (dict(ONE_PORT_UWD, B="x"), "'B'"),
    "diagram-float-entry": (dict(ONE_PORT_UWD, box=[0.5]), "box[0]"),
    "diagram-bool-entry": (dict(ONE_PORT_UWD, junc_in=[True]), "junc_in[0]"),
    "diagram-huge-entry": (dict(ONE_PORT_UWD, junc_in=[10**30]), "junc_in[0]"),
    "diagram-scalar-column": (dict(ONE_PORT_UWD, box=0), "'box'"),
    "model-string-states": (dict(ZERO_FIELD_MODEL, states="x"), "'states'"),
    "model-string-inputs": (dict(ZERO_FIELD_MODEL, inputs="u"), "'inputs'"),
    "model-list-dynamics": (dict(ZERO_FIELD_MODEL, dynamics=["x"]), "'dynamics'"),
    "model-string-param": (dict(ZERO_FIELD_MODEL, params={"a": "x"}), "'a'"),
    "model-nan-param": (dict(ZERO_FIELD_MODEL, params={"a": float("nan")}), "'a'"),
    "builtin-string-param": ({"builtin": "heat_node", "params": {"alpha": "x"}}, "'alpha'"),
    "builtin-bool-param": ({"builtin": "heat_node", "params": {"alpha": True}}, "'alpha'"),
    "model-misspelt-readouts": (
        {**{k: v for k, v in ZERO_FIELD_MODEL.items() if k != "readout"}, "readouts": ["x"]},
        "unknown key 'readouts'",
    ),
    "builtin-unknown-keys": (
        {"builtin": "heat_node", "params": {"alpha": 0.1}, "kind": "sharer", "bogus": 1},
        "unknown key 'kind'",
    ),
}


class TestValidate:
    @pytest.mark.parametrize("data, key", BAD_FILES.values(), ids=BAD_FILES.keys())
    def test_malformed_file_is_a_located_error(self, tmp_path, capsys, data, key):
        path = write_json(tmp_path / "f.json", data)
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.out.startswith(f"{path}: ERROR") and key in captured.out

    def test_clean_diagram(self, tmp_path, capsys):
        path = write_json(tmp_path / "d.json", ONE_BOX_DWD)
        assert main(["validate", str(path)]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_out_of_range_junction(self, tmp_path, capsys):
        bad = {"schema": "UWD", "B": 1, "P": 1, "J": 1, "Q": 0,
               "box": [0], "junc_in": [5], "junc_out": []}
        path = write_json(tmp_path / "d.json", bad)
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "junc_in[0]" in out

    def test_unbound_model_name(self, tmp_path, capsys):
        model = dict(ZERO_FIELD_MODEL, dynamics={"x": "delta*x"})
        path = write_json(tmp_path / "m.json", model)
        assert main(["validate", str(path)]) == 1
        assert "delta" in capsys.readouterr().out

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 2

    def test_shipped_files_are_clean(self, repo_root, capsys):
        shipped = sorted((repo_root / "configs").rglob("*.json"))
        checkable = [
            p for p in shipped
            if "sim" not in p.name and p.name != "labels3.json"
        ]
        assert checkable
        assert main(["validate", *map(str, checkable)]) == 0


@pytest.mark.parametrize("command", ["compose", "simulate"])
def test_entry_too_large_for_an_index_is_a_located_error(tmp_path, capsys, command):
    diagram = write_json(tmp_path / "d.json", dict(ONE_PORT_UWD, junc_in=[-(10**30)]))
    model = write_json(tmp_path / "m.json", ZERO_FIELD_MODEL)
    config = write_json(tmp_path / "c.json", {"h": 0.5, "steps": 3, "init": [1.0]})
    argv = {
        "compose": ["--outer", str(diagram), "--inner", str(diagram), "-o", str(tmp_path / "o")],
        "simulate": ["--diagram", str(diagram), "--models", str(model), "--config", str(config),
                     "--out", str(tmp_path / "o")],
    }[command]
    assert main([command, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: junc_in[0]: entry {-(10**30)} outside [0, 1)\n"
    assert not (tmp_path / "o").exists()


def deeply_nested(path: Path) -> Path:
    """A JSON object holding a list nested 100000 deep, past ``json``'s recursion limit."""
    path.write_text('{"a": ' + "[" * 10**5 + "]" * 10**5 + "}", encoding="utf-8")
    return path


def test_deeply_nested_json_is_a_validate_error(tmp_path, capsys):
    path = deeply_nested(tmp_path / "deep.json")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith(f"{path}: ERROR {path}: maximum recursion depth exceeded")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("flag", ["--diagram", "--models", "--config", "--labels"])
def test_deeply_nested_simulate_input_exits_1_naming_it(tmp_path, capsys, flag):
    inputs = {
        "--diagram": write_json(tmp_path / "d.json", ONE_BOX_DWD),
        "--models": write_json(tmp_path / "m.json", ZERO_FIELD_MODEL),
        "--config": write_json(tmp_path / "c.json", {"h": 0.5, "steps": 3, "init": [1.0]}),
        "--labels": write_json(tmp_path / "l.json", {"boxes": ["one"]}),
    }
    inputs[flag] = deeply_nested(tmp_path / "deep.json")
    argv = [arg for pair in inputs.items() for arg in map(str, pair)]
    assert main(["simulate", *argv, "--out", str(tmp_path / "o.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {inputs[flag]}: maximum recursion depth exceeded")
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "o.csv").exists()


class TestCompose:
    def test_identity_inners_give_canonical_outer(self, tmp_path, repo_root):
        outer_path = repo_root / "configs" / "ecosystem" / "total_diagram.json"
        ident = identity_uwd(1)
        ident_path = tmp_path / "ident.json"
        dump_diagram(ident, ident_path)
        out_path = tmp_path / "out.json"
        assert main([
            "compose", "--outer", str(outer_path),
            "--inner", str(ident_path), "--inner", str(ident_path),
            "-o", str(out_path),
        ]) == 0
        outer = load_diagram(outer_path)
        assert load_diagram(out_path) == canonical(outer)

    def test_ecosystem_flattening(self, tmp_path, repo_root, capsys):
        eco = repo_root / "configs" / "ecosystem"
        out_path = tmp_path / "eco.json"
        assert main([
            "compose",
            "--outer", str(eco / "total_diagram.json"),
            "--inner", str(eco / "land_diagram.json"),
            "--inner", str(eco / "river_diagram.json"),
            "-o", str(out_path),
        ]) == 0
        expected = UWDiagram.from_tables(
            5, 3,
            box=[0, 1, 1, 2, 3, 4, 4],
            junc_in=[1, 1, 0, 0, 2, 2, 0],
            junc_out=[0],
        )
        assert load_diagram(out_path) == canonical(expected)

    def test_slot_form_equals_padded_form(self, tmp_path, repo_root):
        eco = repo_root / "configs" / "ecosystem"
        ident = tmp_path / "ident.json"
        dump_diagram(identity_uwd(1), ident)
        slot_out = tmp_path / "slot.json"
        full_out = tmp_path / "full.json"
        assert main([
            "compose", "--outer", str(eco / "total_diagram.json"),
            "--inner", str(eco / "land_diagram.json"), "--slot", "0",
            "-o", str(slot_out),
        ]) == 0
        assert main([
            "compose", "--outer", str(eco / "total_diagram.json"),
            "--inner", str(eco / "land_diagram.json"), "--inner", str(ident),
            "-o", str(full_out),
        ]) == 0
        assert slot_out.read_bytes() == full_out.read_bytes()

    def test_arity_mismatch_is_domain_error(self, tmp_path, repo_root, capsys):
        eco = repo_root / "configs" / "ecosystem"
        ident = tmp_path / "ident.json"
        dump_diagram(identity_uwd(3), ident)
        code = main([
            "compose", "--outer", str(eco / "total_diagram.json"),
            "--inner", str(ident), "--inner", str(ident),
            "-o", str(tmp_path / "x.json"),
        ])
        assert code == 1
        assert "box 0" in capsys.readouterr().err

    def test_repeated_inner_path_is_read_once(self, tmp_path, repo_root, monkeypatch):
        ident = tmp_path / "ident.json"
        dump_diagram(identity_uwd(1), ident)
        loaded = []

        def counting_load(path):
            loaded.append(path)
            return load_diagram(path)

        monkeypatch.setattr("dynwire.cli.load_diagram", counting_load)
        outer = str(repo_root / "configs" / "ecosystem" / "total_diagram.json")
        assert main(["compose", "--outer", outer, "--inner", str(ident), "--inner", str(ident),
                     "-o", str(tmp_path / "out.json")]) == 0
        assert loaded == [outer, str(ident)]

    def test_parser_is_built_once_and_keeps_no_inner_paths(self, tmp_path, repo_root, monkeypatch):
        eco = repo_root / "configs" / "ecosystem"
        total, land, river = (str(eco / f"{n}_diagram.json") for n in ("total", "land", "river"))
        loaded = []

        def recording_load(path):
            loaded.append(path)
            return load_diagram(path)

        monkeypatch.setattr("dynwire.cli.load_diagram", recording_load)
        assert main(["compose", "--outer", total, "--inner", land, "--inner", river,
                     "-o", str(tmp_path / "full.json")]) == 0
        # ``--slot`` takes exactly one ``--inner``: the first call's must not linger.
        assert main(["compose", "--outer", total, "--inner", land, "--slot", "0",
                     "-o", str(tmp_path / "slot.json")]) == 0
        assert loaded == [total, land, river, total, land]
        assert cli._parsers() is cli._parsers()

    def test_first_bad_inner_path_is_reported(self, tmp_path, repo_root, capsys):
        ident = tmp_path / "ident.json"
        dump_diagram(identity_uwd(1), ident)
        bad1, bad2 = tmp_path / "bad1.json", tmp_path / "bad2.json"
        bad1.write_text("[]")
        bad2.write_text("{")
        outer = str(repo_root / "configs" / "ecosystem" / "total_diagram.json")
        code = main(["compose", "--outer", outer, "--inner", str(ident), "--inner", str(bad1),
                     "--inner", str(bad2), "--inner", str(bad1), "-o", str(tmp_path / "out.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad1}: expected a JSON object\n"


def readme_commands(readme: Path, marker: str) -> list[list[str]]:
    """Argument lists of the ``dynwire`` commands in the README code block
    that mentions ``marker``."""
    for block in readme.read_text(encoding="utf-8").split("```")[1::2]:
        if marker in block:
            lines = block.replace("\\\n", " ").splitlines()
            return [shlex.split(line)[1:] for line in lines if line.startswith("dynwire ")]
    raise AssertionError(f"no README code block mentions {marker}")


BAD_CONFIGS = {
    "h-string": ({"h": "abc"}, "'h'"),
    "h-bool": ({"h": True}, "'h'"),
    "h-infinite": ({"h": float("inf")}, "'h'"),
    "steps-float": ({"steps": 2.7}, "'steps'"),
    "steps-bool": ({"steps": True}, "'steps'"),
    "init-nan": ({"init": [float("nan")]}, "init[0]"),
    "init-named-string": ({"init": {"b0.x": "1"}}, "init['b0.x']"),
    "init-scalar": ({"init": 5}, "init"),
    "inputs-infinite": ({"inputs": [float("-inf")]}, "inputs[0]"),
    "table-string": ({"inputs": {"table": [[1.0], ["x"]]}}, "inputs.table[1][0]"),
}


class TestSimulate:
    def test_readme_sir_example(self, tmp_path, repo_root, monkeypatch):
        shutil.copytree(repo_root / "configs", tmp_path / "configs")
        monkeypatch.chdir(tmp_path)
        commands = readme_commands(repo_root / "README.md", "labels3.json")
        assert [argv[0] for argv in commands] == ["validate", "simulate", "plot"]
        for argv in commands:
            assert main(argv) == 0, argv
        header, rows = read_csv(tmp_path / "traj.csv")
        assert header[1:4] == ["city1.S", "city1.I", "city1.R"]
        assert rows[0][1:3] == [990.0, 10.0]

    @pytest.mark.parametrize("change, key", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
    def test_malformed_config_is_a_located_error(self, tmp_path, capsys, change, key):
        diagram = write_json(tmp_path / "d.json", ONE_BOX_DWD)
        model = write_json(tmp_path / "m.json", ZERO_FIELD_MODEL)
        config = write_json(tmp_path / "c.json", {"h": 0.5, "steps": 3, "init": [1.0], **change})
        assert main([
            "simulate", "--diagram", str(diagram), "--models", str(model),
            "--config", str(config), "--out", str(tmp_path / "traj.csv"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert str(config) in err and key in err
        assert not (tmp_path / "traj.csv").exists()

    def test_constant_trajectory(self, tmp_path):
        diagram = write_json(tmp_path / "d.json", ONE_BOX_DWD)
        model = write_json(tmp_path / "m.json", ZERO_FIELD_MODEL)
        config = write_json(tmp_path / "c.json", {"h": 0.5, "steps": 20, "init": [5.0]})
        out = tmp_path / "traj.csv"
        assert main([
            "simulate", "--diagram", str(diagram), "--models", str(model),
            "--config", str(config), "--out", str(out),
        ]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "b0.x"]
        assert len(rows) == 21
        assert all(row[1] == 5.0 for row in rows)
        assert rows[-1][0] == 10.0

    def test_isolated_city_stays_clean(self, tmp_path, repo_root, capsys):
        sir = repo_root / "configs" / "sir"
        out = tmp_path / "traj.csv"
        assert main([
            "simulate", "--diagram", str(sir / "isolation.json"),
            "--models", str(sir / "city.json"), str(sir / "city.json"), str(sir / "city.json"),
            "--config", str(sir / "sim_cities.json"),
            "--out", str(out),
        ]) == 0
        header, rows = read_csv(out)
        col = header.index("b2.I")
        assert all(row[col] == 0.0 for row in rows)

    def test_labels_rename_columns(self, tmp_path, repo_root):
        sir = repo_root / "configs" / "sir"
        config = write_json(
            tmp_path / "c.json",
            {
                "h": 0.01,
                "steps": 5,
                "init": {"city1.S": 990.0, "city1.I": 10.0, "city2.S": 1000.0, "city3.S": 500.0},
            },
        )
        out = tmp_path / "traj.csv"
        assert main([
            "simulate", "--diagram", str(sir / "isolation.json"),
            "--models", str(sir / "city.json"), str(sir / "city.json"), str(sir / "city.json"),
            "--config", str(config), "--labels", str(sir / "labels3.json"),
            "--out", str(out),
        ]) == 0
        header, _ = read_csv(out)
        assert header[1:4] == ["city1.S", "city1.I", "city1.R"]

    @pytest.mark.parametrize("boxes, where", [([1, True, None], "boxes[0]"), (["a", True, "c"], "boxes[1]")])
    def test_labels_must_be_strings(self, tmp_path, repo_root, capsys, boxes, where):
        sir = repo_root / "configs" / "sir"
        labels = write_json(tmp_path / "labels.json", {"boxes": boxes})
        code = main([
            "simulate", "--diagram", str(sir / "isolation.json"),
            "--models", str(sir / "city.json"), str(sir / "city.json"), str(sir / "city.json"),
            "--config", str(sir / "sim_cities_labelled.json"), "--labels", str(labels),
            "--out", str(tmp_path / "traj.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {labels}: {where} must be a string")

    @pytest.mark.parametrize("boxes, where", [
        (["a,b", "c\nd", "e"], "boxes[0]"), (["a", "b\rc", "d"], "boxes[1]"), (["a", "b", "\n"], "boxes[2]"),
    ])
    def test_labels_that_would_split_a_csv_cell_are_refused(self, tmp_path, repo_root, capsys, boxes, where):
        sir = repo_root / "configs" / "sir"
        labels = write_json(tmp_path / "labels.json", {"boxes": boxes})
        out = tmp_path / "traj.csv"
        code = main([
            "simulate", "--diagram", str(sir / "isolation.json"),
            "--models", str(sir / "city.json"), str(sir / "city.json"), str(sir / "city.json"),
            "--config", str(sir / "sim_cities_labelled.json"), "--labels", str(labels),
            "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {labels}: {where} must not hold")
        assert not out.exists()

    def test_repeated_labels_are_refused(self, tmp_path, repo_root, capsys):
        sir = repo_root / "configs" / "sir"
        # Once accepted: "a.S" reached the second box only, and the first box's
        # S + I + R = 0 divided by zero.
        labels = write_json(tmp_path / "labels.json", {"boxes": ["a", "a", "b"]})
        config = write_json(tmp_path / "c.json", {
            "h": 0.01, "steps": 5, "init": {"a.S": 990.0, "a.I": 10.0, "b.S": 500.0},
        })
        out = tmp_path / "traj.csv"
        code = main([
            "simulate", "--diagram", str(sir / "cyclic.json"),
            "--models", str(sir / "city.json"), str(sir / "city.json"), str(sir / "city.json"),
            "--config", str(config), "--labels", str(labels),
            "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: box label 'a' is given twice, at boxes 0 and 1\n", err
        assert not out.exists()

    def test_metadata_flags_rk4_as_non_functorial(self, tmp_path):
        diagram = write_json(tmp_path / "d.json", ONE_BOX_DWD)
        model = write_json(tmp_path / "m.json", ZERO_FIELD_MODEL)
        config = write_json(tmp_path / "c.json", {"h": 0.5, "steps": 3, "init": [1.0]})
        out = tmp_path / "traj.csv"
        main([
            "simulate", "--diagram", str(diagram), "--models", str(model),
            "--config", str(config), "--out", str(out), "--scheme", "rk4",
        ])
        meta = json.loads((tmp_path / "traj.csv.meta.json").read_text())
        assert meta["scheme"] == "rk4"
        assert meta["functorial"] is False
        main([
            "simulate", "--diagram", str(diagram), "--models", str(model),
            "--config", str(config), "--out", str(out),
        ])
        meta = json.loads((tmp_path / "traj.csv.meta.json").read_text())
        assert meta["scheme"] == "euler"
        assert meta["functorial"] is True

    def test_deterministic_output(self, tmp_path, repo_root):
        sir = repo_root / "configs" / "sir"
        config = write_json(
            tmp_path / "c.json", {"h": 0.01, "steps": 50, "init": [990.0, 10.0, 0.0]}
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "simulate", "--diagram", str(sir / "single_city.json"),
            "--models", str(sir / "city.json"), "--config", str(config),
        ]
        main(args + ["--out", str(out1), "--svg", str(tmp_path / "a.svg")])
        main(args + ["--out", str(out2), "--svg", str(tmp_path / "b.svg")])
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_svg_of_simulate_is_the_plot_of_its_csv(self, tmp_path, repo_root):
        # ``--svg`` reads the trajectory's columns as Python floats, so its
        # axis labels are those ``plot`` writes from the CSV.
        sir = repo_root / "configs" / "sir"
        out = tmp_path / "t.csv"
        assert main([
            "simulate", "--diagram", str(sir / "isolation.json"),
            "--models", *[str(sir / "city.json")] * 3,
            "--config", str(sir / "sim_cities_labelled.json"),
            "--labels", str(sir / "labels3.json"), "--out", str(out),
            "--svg", str(tmp_path / "a.svg"),
        ]) == 0
        assert main(["plot", "--csv", str(out), "-o", str(tmp_path / "b.svg")]) == 0
        text = (tmp_path / "a.svg").read_text()
        assert "np." not in text and text.count("<polyline") == 9
        assert text == (tmp_path / "b.svg").read_text()

    def test_per_step_input_table(self, tmp_path):
        # A one-box integrator driven by a table: x' = a with discrete Euler.
        diagram = write_json(tmp_path / "d.json", {
            "schema": "DWD",
            "B": 1, "P_in": 1, "P_out": 0, "W": 0, "W_in": 1, "W_out": 0,
            "Q_in": 1, "Q_out": 0,
            "box_in": [0], "box_out": [],
            "src": [], "tgt": [], "src_in": [0], "tgt_in": [0],
            "src_out": [], "tgt_out": [],
        })
        model = write_json(tmp_path / "m.json", {
            "kind": "machine", "flavor": "continuous",
            "states": ["x"], "inputs": ["a"], "params": {},
            "dynamics": {"x": "a"}, "readout": [],
        })
        config = write_json(tmp_path / "c.json", {
            "h": 1.0, "steps": 3, "init": [0.0],
            "inputs": {"table": [[1.0], [10.0], [100.0]]},
        })
        out = tmp_path / "t.csv"
        assert main([
            "simulate", "--diagram", str(diagram), "--models", str(model),
            "--config", str(config), "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        assert [row[1] for row in rows] == [0.0, 1.0, 11.0, 111.0]

    def test_input_table_rejected_for_undirected(self, tmp_path, repo_root, capsys):
        eco = repo_root / "configs" / "ecosystem"
        # The two single-state models share the one junction, so the
        # composite has a single glued state.
        config = write_json(tmp_path / "c.json", {
            "h": 0.1, "steps": 2, "init": [1.0],
            "inputs": {"table": [[], []]},
        })
        code = main([
            "simulate", "--diagram", str(eco / "total_diagram.json"),
            "--models", str(eco / "rabbit_growth.json"), str(eco / "hawk_decline.json"),
            "--config", str(config), "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 1
        assert "directed" in capsys.readouterr().err

    def test_models_of_the_wrong_kind_exit_1_naming_the_box(self, tmp_path, repo_root, capsys):
        sir, eco = repo_root / "configs" / "sir", repo_root / "configs" / "ecosystem"
        city = str(sir / "city.json")
        code = main([
            "simulate", "--diagram", str(sir / "cyclic.json"),
            "--models", str(eco / "fish_growth.json"), city, city,
            "--config", str(sir / "sim_cyclic.json"), "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: a directed diagram needs machine models: box 0 is a sharer" in err
        # A machine spec of the other flavor, at box 1 of three.
        spec = spec_to_json(fileio.load_model(sir / "city.json"))
        discrete = write_json(tmp_path / "discrete.json", dict(spec, flavor="discrete"))
        code = main([
            "simulate", "--diagram", str(sir / "cyclic.json"), "--models", city, str(discrete), city,
            "--config", str(sir / "sim_cyclic.json"), "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "of machines: box 1 is discrete, box 0 is continuous" in err

    def test_state_length_mismatch(self, tmp_path, capsys):
        diagram = write_json(tmp_path / "d.json", ONE_BOX_DWD)
        model = write_json(tmp_path / "m.json", ZERO_FIELD_MODEL)
        config = write_json(tmp_path / "c.json", {"h": 0.5, "steps": 2, "init": [1.0, 2.0]})
        code = main([
            "simulate", "--diagram", str(diagram), "--models", str(model),
            "--config", str(config), "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 1
        assert "init vector" in capsys.readouterr().err

    # SIR cyclic failing as it steps.  City 0 starting at 1e150 makes S*I
    # overflow after one large step; h = 1e308 overflows the step itself;
    # city 2 starting empty divides by S+I+R = 0.
    @pytest.mark.parametrize("scheme", ["euler", "rk4"])
    @pytest.mark.parametrize("h, init, message", [
        (1000.0, {"b0.S": 1e150, "b0.I": 1e150, "b1.S": 1000.0, "b2.S": 500.0},
         "dynamics of 'S' produced a non-finite value"),
        (1e308, {"b0.S": 990.0, "b0.I": 10.0, "b1.S": 1000.0, "b2.S": 500.0},
         "readout produced a non-finite value"),
        (0.01, {"b0.S": 990.0, "b0.I": 10.0, "b1.S": 1000.0}, "division by zero"),
    ], ids=["overflow", "step-overflow", "empty-city"])
    def test_numeric_failure_exits_1_with_its_message(
        self, tmp_path, repo_root, capsys, scheme, h, init, message
    ):
        sir = repo_root / "configs" / "sir"
        config = write_json(tmp_path / "c.json", {"h": h, "steps": 50, "init": init})
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the error
            code = main([
                "simulate", "--diagram", str(sir / "cyclic.json"),
                "--models", *[str(sir / "city.json")] * 3,
                "--config", str(config), "--out", str(out), "--scheme", scheme,
            ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # Blocks far beyond any address space (28 PiB; more rows than an array
    # may have), so that the allocation fails at once on every machine.
    @pytest.mark.parametrize("steps", [10**15, 10**30], ids=["memory", "dimension"])
    def test_unallocatable_steps_exit_1_naming_steps_and_states(
        self, tmp_path, repo_root, capsys, steps
    ):
        sir = repo_root / "configs" / "sir"
        config = json.loads((sir / "sim_single.json").read_text(encoding="utf-8"))
        out = tmp_path / "t.csv"
        code = main([
            "simulate", "--diagram", str(sir / "single_city.json"),
            "--models", str(sir / "city.json"),
            "--config", str(write_json(tmp_path / "c.json", dict(config, steps=steps))),
            "--out", str(out),
        ])
        assert code == 1
        message = f"'steps': a trajectory of {steps} steps of 3 states is too large to allocate"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        assert not Path(f"{out}.meta.json").exists()

    # x' = x from 2e307 doubles under Euler with h = 1 and overflows at the
    # last step, where no evaluation reads it: the trajectory screen names it,
    # whether the composite is fused or runs box by box (array code).
    @pytest.mark.parametrize("diagram, model, box_by_box", [
        (ONE_BOX_DWD, dict(ZERO_FIELD_MODEL, dynamics={"x": "x"}), False),
        (ONE_PORT_UWD, SELF_SHARER, False),
        (ONE_BOX_DWD, dict(ZERO_FIELD_MODEL, dynamics={"x": "x"}), True),
        (ONE_PORT_UWD, SELF_SHARER, True),
    ], ids=["machine", "sharer", "machine-box-by-box", "sharer-box-by-box"])
    def test_last_step_overflow_exits_1_naming_step_and_state(
        self, tmp_path, capsys, blocks_only, diagram, model, box_by_box
    ):
        out = tmp_path / "t.csv"
        config = {"h": 1.0, "steps": 4, "init": [2e307]}
        argv = [
            "simulate", "--diagram", str(write_json(tmp_path / "d.json", diagram)),
            "--models", str(write_json(tmp_path / "m.json", model)),
            "--config", str(write_json(tmp_path / "c.json", config)), "--out", str(out),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the error
            code = blocks_only(main, argv) if box_by_box else main(argv)
        assert code == 1
        message = "step 4 (t=4.0) left state 'b0.x' non-finite: inf"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        assert not Path(f"{out}.meta.json").exists()


class TestTwoStrategyEquivalence:
    def test_compose_then_simulate_matches_library_nesting(self, tmp_path, repo_root):
        sir = repo_root / "configs" / "sir"
        # Outer: two package boxes in a migration cycle.
        outer = DWDiagram.from_tables(
            2, box_in=[0, 1], box_out=[0, 1], wires=[(0, 1), (1, 0)]
        )
        # Inner package: one city; local I drives its own outflow and is
        # exported as the migration signal.
        inner = DWDiagram.from_tables(
            1, box_in=[0, 0], box_out=[0, 0, 0], n_outer_in=1, n_outer_out=1,
            wires=[(1, 1)], in_wires=[(0, 0)], out_wires=[(1, 0)],
        )
        outer_path, inner_path = tmp_path / "outer.json", tmp_path / "inner.json"
        dump_diagram(outer, outer_path)
        dump_diagram(inner, inner_path)
        flat_path = tmp_path / "flat.json"
        assert main([
            "compose", "--outer", str(outer_path),
            "--inner", str(inner_path), "--inner", str(inner_path),
            "-o", str(flat_path),
        ]) == 0

        h, steps = 0.01, 400
        init = [990.0, 10.0, 0.0, 1000.0, 0.0, 0.0]
        config = write_json(
            tmp_path / "c.json", {"h": h, "steps": steps, "init": init}
        )
        csv_path = tmp_path / "flat.csv"
        assert main([
            "simulate", "--diagram", str(flat_path),
            "--models", str(sir / "city.json"), str(sir / "city.json"),
            "--config", str(config), "--out", str(csv_path),
        ]) == 0
        _, rows = read_csv(csv_path)

        city = instantiate(spec_from_json(json.loads((sir / "city.json").read_text())))
        package = oapply_directed(inner, [city])
        nested = oapply_directed(outer, [package, package])
        stepped = euler_directed(nested, h)
        x = np.asarray(init)
        a = np.zeros(0)
        for row in rows:
            assert np.allclose(row[1:], x, atol=1e-9, rtol=0)
            x = stepped.dynamics(a, x)


class TestHeatPipeline:
    def test_grid_simulate_loses_heat_through_open_boundary(self, tmp_path, repo_root):
        # With exposed boundary ports reading zero the stencil is absorbing,
        # so total heat decreases monotonically toward zero.
        grid_path = tmp_path / "g.json"
        assert main(["grid", "3", "3", "-o", str(grid_path)]) == 0
        heat = repo_root / "configs" / "heat"
        out = tmp_path / "heat.csv"
        assert main([
            "simulate", "--diagram", str(grid_path),
            "--models", *[str(heat / "heat_node.json")] * 9,
            "--config", str(heat / "sim3x3.json"),
            "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        totals = [sum(row[1:]) for row in rows]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
        assert totals[-1] < totals[0]


class TestExports:
    def test_grid_then_migrate_counts(self, tmp_path):
        cpg_path = tmp_path / "g.json"
        dwd_path = tmp_path / "d.json"
        assert main(["grid", "2", "2", "-o", str(cpg_path)]) == 0
        assert main(["migrate", "--cpg", str(cpg_path), "-o", str(dwd_path)]) == 0
        data = json.loads(dwd_path.read_text())
        assert data["B"] == 4 and data["P_in"] == 16 and data["W"] == 8
        assert data["Q_in"] == data["Q_out"] == data["W_in"] == data["W_out"] == 8

    def test_grid_too_large_to_index_exits_1(self, tmp_path, capsys):
        # 10**20 boxes exceed np.intp, so this fails before allocating anything.
        out = tmp_path / "huge.json"
        assert main(["grid", "10000000000", "10000000000", "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot build a 10000000000 x 10000000000 grid: ")
        assert not out.exists()

    def test_export_dot(self, tmp_path):
        d_path = tmp_path / "d.json"
        dump_diagram(identity_uwd(1), d_path)
        dot_path = tmp_path / "d.dot"
        assert main(["export-dot", "--diagram", str(d_path), "-o", str(dot_path)]) == 0
        text = dot_path.read_text()
        assert text.count("shape=box") == 1
        assert text.count(" -- ") == 2

    def test_plot_two_columns(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("t,a,b\n0.0,1.0,2.0\n1.0,2.0,1.0\n2.0,3.0,0.5\n")
        svg_path = tmp_path / "t.svg"
        assert main(["plot", "--csv", str(csv_path), "-o", str(svg_path)]) == 0
        text = svg_path.read_text()
        assert text.count("<polyline") == 2
        assert ">t</text>" in text

    def test_plot_column_selection(self, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("t,a,b\n0.0,1.0,2.0\n1.0,2.0,1.0\n")
        svg_path = tmp_path / "t.svg"
        assert main([
            "plot", "--csv", str(csv_path), "--columns", "b", "-o", str(svg_path)
        ]) == 0
        assert svg_path.read_text().count("<polyline") == 1
        assert main([
            "plot", "--csv", str(csv_path), "--columns", "zz", "-o", str(svg_path)
        ]) == 1
        assert "zz" in capsys.readouterr().err

    def test_wide_csv_plots_to_the_svg_of_its_columns(self, tmp_path):
        # Columns picked by name, a repeated name reading its first column.
        rng = np.random.default_rng(5)
        header = ["t", *(f"c{k}" for k in range(300)), "c7", "t"]
        rows = rng.uniform(-1.0, 1.0, (40, len(header))).tolist()
        csv_path, svg_path, want = tmp_path / "w.csv", tmp_path / "w.svg", tmp_path / "want.svg"
        csv_path.write_text(",".join(header) + "\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in rows))
        for columns in ([], ["--columns", "c7,t,c299,c0"]):
            assert main(["plot", "--csv", str(csv_path), *columns, "-o", str(svg_path)]) == 0
            wanted = columns[1].split(",") if columns else header[1:]
            write_svg_lineplot(want, [row[0] for row in rows], {
                name: [row[header.index(name)] for row in rows] for name in wanted})
            assert svg_path.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize(
        "text, where",
        [
            ("t,a\n0.0,1.0\n\n1.0,x\n", "line 4, column 2 ('a'): 'x' is not a number"),
            ("t,a\n0.0,1.0\n1.0\n", "line 3 has 1 cells, the header has 2"),
            ("t,a\n0.0,1.0,2.0\n", "line 2 has 3 cells, the header has 2"),
        ],
        ids=["not-a-number", "short-row", "long-row"],
    )
    def test_plot_malformed_csv_is_a_located_error(self, tmp_path, capsys, text, where):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(text)
        assert main(["plot", "--csv", str(csv_path), "-o", str(tmp_path / "t.svg")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {csv_path}: {where}\n"


class TestOutputErrors:
    """An output that cannot be opened or written is an error naming its path."""

    SIM = ["--diagram", "configs/sir/single_city.json", "--models", "configs/sir/city.json",
           "--config", "configs/sir/sim_single.json"]

    # (argv of the command with "{out}" for the output under test)
    COMMANDS = {
        "simulate-out": ["simulate", *SIM, "--out", "{out}"],
        "simulate-svg": ["simulate", *SIM, "--out", "{tmp}/t.csv", "--svg", "{out}"],
        "compose": ["compose", "--outer", "configs/ecosystem/total_diagram.json",
                    "--inner", "configs/ecosystem/land_diagram.json",
                    "--inner", "configs/ecosystem/river_diagram.json", "-o", "{out}"],
        "grid": ["grid", "2", "2", "-o", "{out}"],
        "migrate": ["migrate", "--cpg", "{tmp}/g.json", "-o", "{out}"],
        "export-dot": ["export-dot", "--diagram", "configs/sir/cyclic.json", "-o", "{out}"],
        "plot": ["plot", "--csv", "{tmp}/p.csv", "-o", "{out}"],
    }

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_unwritable_output_exits_1_naming_it(self, tmp_path, repo_root, capsys, command, target):
        assert main(["grid", "2", "2", "-o", str(tmp_path / "g.json")]) == 0
        (tmp_path / "p.csv").write_text("t,a\n0.0,1.0\n", encoding="utf-8")
        out = tmp_path / "missing" / "x" if target == "missing-directory" else tmp_path / "dir"
        (tmp_path / "dir").mkdir()
        capsys.readouterr()

        def where(arg: str) -> str:
            arg = arg.format(out=out, tmp=tmp_path)
            return str(repo_root / arg) if arg.startswith("configs/") else arg

        assert main([where(arg) for arg in self.COMMANDS[command]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: [Errno ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "missing").exists()

    def test_sidecar_that_cannot_be_replaced_is_named_before_the_csv_is_written(
        self, tmp_path, repo_root, capsys
    ):
        sir = repo_root / "configs" / "sir"
        out, meta = tmp_path / "t.csv", tmp_path / "t.csv.meta.json"
        meta.mkdir()
        assert main([
            "simulate", "--diagram", str(sir / "single_city.json"), "--models", str(sir / "city.json"),
            "--config", str(sir / "sim_single.json"), "--out", str(out),
        ]) == 1
        assert capsys.readouterr().err.startswith(f"error: {meta}: [Errno ")
        assert not out.exists()

    def test_failed_csv_write_leaves_no_sidecar_and_only_the_bytes_written(
        self, tmp_path, repo_root, capsys, monkeypatch
    ):
        sir = repo_root / "configs" / "sir"
        out, meta = tmp_path / "t.csv", tmp_path / "t.csv.meta.json"
        argv = [
            "simulate", "--diagram", str(sir / "cyclic.json"),
            "--models", *[str(sir / "city.json")] * 3,
            "--config", str(sir / "sim_cyclic.json"), "--out", str(out),
        ]
        assert main(argv) == 0
        old = out.read_bytes()
        assert meta.exists()
        written = []

        def first_chunk_then_no_space(values):
            written.append(next(format_floats(values)))
            yield written[0]
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(fileio, "format_floats", first_chunk_then_no_space)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {out}: [Errno 28] No space left on device\n"
        assert not meta.exists()
        header = old[:old.index(b"\n") + 1]
        assert out.read_bytes() == header + written[0]
        assert len(old) > len(header) + len(written[0])

    @pytest.mark.parametrize("model, config", [
        (dict(ZERO_FIELD_MODEL, dynamics={"x": "x"}), {"h": 1.0, "steps": 4, "init": [2e307]}),
        (dict(ZERO_FIELD_MODEL, states=["a,b"], dynamics={"a,b": "0"}),
         {"h": 1.0, "steps": 4, "init": [1.0]}),
    ], ids=["non-finite", "header"])
    def test_refused_run_keeps_the_old_csv_and_its_sidecar(self, tmp_path, capsys, model, config):
        out, meta = tmp_path / "t.csv", tmp_path / "t.csv.meta.json"
        diagram = write_json(tmp_path / "d.json", ONE_BOX_DWD)

        def simulate(model: dict, config: dict) -> int:
            return main([
                "simulate", "--diagram", str(diagram),
                "--models", str(write_json(tmp_path / "m.json", model)),
                "--config", str(write_json(tmp_path / "c.json", config)), "--out", str(out),
            ])

        assert simulate(ZERO_FIELD_MODEL, {"h": 0.5, "steps": 3, "init": [1.0]}) == 0
        before = out.read_bytes(), meta.read_bytes()
        assert simulate(model, config) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert (out.read_bytes(), meta.read_bytes()) == before


class TestArgv:
    """``main`` hands a known command's arguments straight to its parser;
    that must read them as the top-level parser does."""

    ARGVS = [
        ["validate", "a.json", "b.json"],
        ["compose", "--outer", "o.json", "--inner", "i.json", "--inner", "j.json", "-o", "c.json"],
        ["compose", "--outer", "o.json", "--inner", "i.json", "--slot", "2", "-o", "c.json"],
        ["simulate", "--diagram", "d.json", "--models", "m.json", "m.json", "--config", "c.json",
         "--out", "x.csv", "--scheme", "rk4", "--svg", "x.svg", "--labels", "l.json"],
        ["simulate", "--models", *["m.json"] * 1024, "--diagram", "d.json", "--config", "c.json",
         "--out=x.csv"],
        ["export-dot", "--diagram", "d.json", "-o", "d.dot"],
        ["grid", "3", "4", "-o", "g.json"],
        ["migrate", "--cpg", "g.json", "--out", "d.json"],
        ["plot", "--csv", "x.csv", "--columns", "a,b", "-o", "x.svg"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=[a[0] for a in ARGVS])
    def test_every_command_parses_to_the_top_level_namespace(self, argv):
        args = cli._parse(argv)
        assert args == cli._parsers()[0].parse_args(argv)
        assert args.command == argv[0]

    @pytest.mark.parametrize("argv", [
        ["-h"],
        ["simulate", "-h"],
        [],
        ["bogus", "--out", "x"],
        ["simulate", "--diagram", "d.json", "--models", "m.json", "--out", "x.csv"],
        ["simulate", "--diagram", "d.json", "--models", "m.json", "--config", "c.json",
         "--out", "x.csv", "--scheme", "rk5"],
        ["grid", "3", "x", "-o", "g.json"],
        ["export-dot", "--diagram", "d.json", "-o", "d.dot", "extra", "--more"],
    ], ids=["help", "command-help", "empty", "unknown-command", "missing-option", "bad-scheme",
            "bad-int", "unrecognized"])
    def test_usage_errors_print_and_exit_as_the_top_level_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as want:
            cli._parsers()[0].parse_args(argv)
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert got.value.code == want.value.code == (0 if "-h" in argv else 2)
        assert capsys.readouterr() == expected
