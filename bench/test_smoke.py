"""Smoke test of the benchmark at tiny sizes.

    python3 bench/test_smoke.py        (or: python3 -m pytest bench/test_smoke.py)

Checks that every metric named in BENCHMARK.json is produced with its unit,
that clean runs pass every oracle, that a corrupted output is counted as a
failed operation, and that the benchmark refuses to run without sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SEED = 7


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_run(workload: str, trace: bool, tamper=None) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return worker.run(workload, SEED, 0.0, trace, gen.TINY, Path(tmp), Path(tmp) / "out", tamper)


def test_declared_metrics_match_the_worker():
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(worker.BUILDERS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER


def test_every_metric_is_reported_with_its_unit():
    for workload in worker.BUILDERS:
        for trace, names in ((False, worker.END_TO_END), (True, worker.PER_LAYER)):
            result = tiny_run(workload, trace)
            assert result["correct"], (workload, result["report"]["failures"])
            assert result["failed"] == 0 and result["attempted"] > 0
            assert list(result["metrics"]) == list(names)
            for name, m in result["metrics"].items():
                assert m["unit"] == names[name]
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            if not trace:
                assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def _bump_last_csv_value(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[-1].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-6)
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _drop_a_box(path: Path) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    data["B"] += 1
    path.write_text(json.dumps(data), encoding="utf-8")


CORRUPTIONS = {
    "heat_grid": lambda work: _bump_last_csv_value(work / "heat_dwd.csv"),
    "small_long": lambda work: _bump_last_csv_value(work / "sir_cyclic_rk4.csv"),
    "compose_large": lambda work: _drop_a_box(work / "uwd_composed.json"),
}


def test_a_corrupted_output_counts_as_a_failure():
    for workload, corrupt in CORRUPTIONS.items():
        result = tiny_run(workload, False, corrupt)
        assert not result["correct"], workload
        assert result["failed"] > 0, workload
        assert result["report"]["fail_ratio"] > 0, workload


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(HERE, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "heat_grid", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
