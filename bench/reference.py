"""Reference block: the cases of ROADMAP's baseline table, each the minimum of five.

Not gated.  It records the interpreter, numpy and CPU count with the
numbers so that they can be compared with the table.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import platform
from pathlib import Path
from time import perf_counter

import numpy as np

from dynwire import builtin_model, cpg_to_dwd, instantiate, oapply_cpg, oapply_directed
from dynwire.cli import main as cli_main
from dynwire.fileio import load_diagram

import gen
from workloads import dense_heat_step

REPEATS = 5


def best_ms(fn, repeats: int = REPEATS, inner: int = 1) -> float:
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (perf_counter() - t0) / inner)
    return best * 1e3


def reference(work: Path) -> dict:
    alpha, h = 0.1, 0.01
    cases: dict[str, float] = {}
    node = instantiate(builtin_model("heat_node", {"alpha": alpha}))
    for side in (16, 32):
        g = load_diagram(gen.write_json(work / f"grid{side}.json", gen.grid_cpg(side, side)))
        x = np.random.default_rng(side).uniform(0.0, 1.0, side * side)
        a = np.zeros(g.n_outer)
        routes = {
            "oapply_cpg": oapply_cpg(g, [node] * side * side),
            "oapply_directed(cpg_to_dwd)": oapply_directed(cpg_to_dwd(g), [node] * side * side),
        }
        for route, m in routes.items():
            cases[f"heat {side}x{side} one composite dynamics call, {route} (ms)"] = best_ms(
                lambda m=m: m.dynamics(a, x)
            )
    dense = np.random.default_rng(0).uniform(0.0, 1.0, (32, 32))
    cases["heat 32x32 dense numpy stencil step, the floor (ms)"] = best_ms(
        lambda: dense_heat_step(dense, alpha, h), inner=200
    )
    cases["instantiate 1024 heat_node builtins (ms)"] = best_ms(
        lambda: [instantiate(builtin_model("heat_node", {"alpha": alpha})) for _ in range(1024)]
    )
    inp = gen.heat_inputs(0, work, dataclasses.replace(gen.FULL, heat_side=32, heat_steps=200))
    argv = ["simulate", "--diagram", str(inp.cpg), "--models", *[str(inp.model)] * 1024,
            "--config", str(inp.config), "--out", str(work / "heat.csv")]

    def simulate() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(argv) != 0:
                raise RuntimeError("CLI simulate failed")

    cases["CLI simulate heat 32x32, 200 Euler steps, end to end (ms)"] = best_ms(simulate)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "cases": cases,
    }
