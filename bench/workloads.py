"""The three workloads: their operations and the oracles that check every output.

Oracles are written here from the model equations and the file formats; they
share no code with the project's tests.  Each returns failure messages keyed
by the operation whose output was wrong, so every failed check counts once
against that operation.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

from dynwire import canonical
from dynwire.fileio import load_diagram

import gen
from passes import (
    Workload,
    compose_op,
    export_dot_op,
    migrate_op,
    nested_eco_op,
    pushout_op,
    simulate_op,
    validate_op,
)

Results = dict[str, tuple[int, object]]
Failures = dict[str, list[str]]


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def exit_codes(results: Results, fails: Failures) -> None:
    for op, (code, _) in results.items():
        if code != 0:
            fails[op].append(f"exit code {code}")


def checked(fails: Failures, op: str, fn, *args) -> None:
    """Run one oracle; an exception while reading an output is a failure too."""
    try:
        problem = fn(*args)
    except Exception as exc:  # unreadable or malformed output: count it, go on
        problem = f"check raised {exc!r}"
    if problem:
        fails[op].append(problem)


# ---------------------------------------------------------------------------
# heat_grid: many identical one-state boxes, stepped through both directed routes


def dense_heat_step(x: np.ndarray, alpha: float, h: float) -> np.ndarray:
    """Independent 5-point stencil with a zero boundary, in the model's sum order."""
    p = np.pad(x, 1)
    nb = p[:-2, 1:-1] + p[1:-1, 2:] + p[2:, 1:-1] + p[1:-1, :-2]
    return x + h * (alpha * (nb - 4.0 * x))


def heat_grid(seed: int, root: Path, sizes: gen.Sizes) -> Workload:
    inp = gen.heat_inputs(seed, root, sizes)
    n = inp.side * inp.side
    models = [inp.model] * n
    cpg_csv, dwd_csv = root / "heat_cpg.csv", root / "heat_dwd.csv"
    ops = [
        migrate_op("migrate", inp.cpg, inp.dwd),
        simulate_op("simulate cpg", inp.cpg, models, inp.config, cpg_csv, "euler", inp.steps),
        simulate_op("simulate dwd", inp.dwd, models, inp.config, dwd_csv, "euler", inp.steps),
    ]
    x = np.asarray(inp.init).reshape(inp.side, inp.side)
    ref = [x.ravel()]
    for _ in range(inp.steps):
        x = dense_heat_step(x, inp.alpha, inp.h)
        ref.append(x.ravel())
    reference = np.array(ref)
    header = ["t"] + [f"b{i}.T" for i in range(n)]
    cpg = json.loads(inp.cpg.read_text(encoding="utf-8"))

    def trajectory(path: Path):
        got_header, data = read_csv(path)
        if got_header != header:
            return "header differs from b0.T..bN.T"
        if data.shape != reference.shape[:1] + (n + 1,):
            return f"shape {data.shape}, expected {(inp.steps + 1, n + 1)}"
        if not np.allclose(data[:, 0], np.arange(inp.steps + 1) * inp.h, rtol=0, atol=1e-12):
            return "t column is not k*h"
        err = float(np.max(np.abs(data[:, 1:] - reference)))
        if not err <= 1e-12:
            return f"differs from the dense stencil by {err:.3g} > 1e-12"
        return None

    def routes_agree():
        a, b = read_csv(cpg_csv)[1], read_csv(dwd_csv)[1]
        err = float(np.max(np.abs(a - b))) if a.shape == b.shape else float("inf")
        return None if err <= 1e-12 else f"CPG and DWD routes differ by {err:.3g} > 1e-12"

    def migrated():
        d = json.loads(inp.dwd.read_text(encoding="utf-8"))
        want = {"B": cpg["B"], "P_in": cpg["P"], "P_out": cpg["P"], "W": cpg["W"],
                "W_in": cpg["Q"], "W_out": cpg["Q"], "Q_in": cpg["Q"], "Q_out": cpg["Q"]}
        got = {k: d.get(k) for k in want}
        return None if got == want else f"migrated counts {got}, expected {want}"

    def check(results: Results) -> Failures:
        fails: Failures = defaultdict(list)
        exit_codes(results, fails)
        checked(fails, "migrate", migrated)
        checked(fails, "simulate cpg", trajectory, cpg_csv)
        checked(fails, "simulate dwd", trajectory, dwd_csv)
        checked(fails, "simulate dwd", routes_agree)
        return fails

    return Workload("heat_grid", ops, check)


# ---------------------------------------------------------------------------
# small_long: few boxes, many steps, both schemes


def small_long(seed: int, root: Path, sizes: gen.Sizes) -> Workload:
    inp = gen.long_inputs(seed, root, sizes)
    cities = [inp.city] * 3
    flat = root / "eco_flat.json"
    eco_models = [*inp.land_models, *inp.river_models]
    ops = []
    for scheme in ("euler", "rk4"):
        for tag, diagram in (("cyclic", inp.cyclic), ("isolation", inp.isolation)):
            ops.append(simulate_op(f"sir {tag} {scheme}", diagram, cities, inp.sir_config,
                                   root / f"sir_{tag}_{scheme}.csv", scheme, inp.steps, inp.labels))
    ops.append(compose_op("eco compose", inp.total, [inp.land, inp.river], flat, 0))
    for scheme in ("euler", "rk4"):
        ops.append(simulate_op(f"eco flat {scheme}", flat, eco_models, inp.eco_config,
                               root / f"eco_flat_{scheme}.csv", scheme, inp.steps))
        ops.append(nested_eco_op(f"eco nested {scheme}", inp, scheme, root / f"eco_nested_{scheme}.csv"))

    sir_header = ["t"] + [f"{c}.{s}" for c in gen.CITY_LABELS for s in "SIR"]
    sir_x0 = np.array([inp.sir_init.get(name, 0.0) for name in sir_header[1:]])

    def sir(path: Path, isolated: bool):
        header, data = read_csv(path)
        if header != sir_header or data.shape != (inp.steps + 1, 10):
            return f"header {header[:4]}... shape {data.shape}"
        if not np.all(np.isfinite(data)) or not np.array_equal(data[0, 1:], sir_x0):
            return "first row is not the initial state, or values are not finite"
        totals = data[:, 1:].sum(axis=1)
        drift = float(np.max(np.abs(totals - totals[0])))
        if not drift <= 1e-9:
            return f"total population drifts by {drift:.3g} > 1e-9"
        if isolated:
            s3, i3, r3 = data[:, 7], data[:, 8], data[:, 9]
            if not (np.all(i3 == 0.0) and np.all(r3 == 0.0) and np.all(s3 == s3[0])):
                return "the isolated city3 received an inflow"
        return None

    def composed():
        d = json.loads(flat.read_text(encoding="utf-8"))
        return None if (d.get("schema"), d.get("B")) == ("UWD", 5) else "composed ecosystem is not a 5-box UWD"

    def flat_vs_nested(scheme: str):
        fh, fd = read_csv(root / f"eco_flat_{scheme}.csv")
        nh, nd = read_csv(root / f"eco_nested_{scheme}.csv")
        if sorted(fh) != sorted(nh) or fd.shape != nd.shape or fd.shape[0] != inp.steps + 1:
            return f"columns {fh} vs {nh}, shapes {fd.shape} vs {nd.shape}"
        err = float(np.max(np.abs(fd - nd[:, [nh.index(c) for c in fh]])))
        return None if err <= 1e-9 else f"flattened and nested differ by {err:.3g} > 1e-9"

    def check(results: Results) -> Failures:
        fails: Failures = defaultdict(list)
        exit_codes(results, fails)
        for scheme in ("euler", "rk4"):
            checked(fails, f"sir cyclic {scheme}", sir, root / f"sir_cyclic_{scheme}.csv", False)
            checked(fails, f"sir isolation {scheme}", sir, root / f"sir_isolation_{scheme}.csv", True)
            checked(fails, f"eco nested {scheme}", flat_vs_nested, scheme)
        checked(fails, "eco compose", composed)
        return fails

    return Workload("small_long", ops, check)


# ---------------------------------------------------------------------------
# compose_large: syntax only, tens of thousands of boxes


def classes(size: int, pairs) -> int:
    """Number of classes of the equivalence on range(size) generated by pairs."""
    parent = list(range(size))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in pairs:
        parent[find(a)] = find(b)
    return len({find(i) for i in range(size)})


def compose_large(seed: int, root: Path, sizes: gen.Sizes) -> Workload:
    cases = gen.compose_inputs(seed, root, sizes)
    ops = []
    for c in cases:
        tag = c.schema.lower()
        ops.append(compose_op(f"compose {tag}", c.outer, list(c.inners), c.composed, c.inner_boxes))
    migrated = next(c.migrated for c in cases if c.migrated is not None)
    cpg_composed = next(c.composed for c in cases if c.schema == "CPG")
    uwd_composed = next(c.composed for c in cases if c.schema == "UWD")
    ops.append(migrate_op("migrate cpg", cpg_composed, migrated))
    to_validate = [c.composed for c in cases] + [migrated]
    ops.append(validate_op("validate", to_validate))
    for c in cases:
        ops.append(export_dot_op(f"export-dot {c.schema.lower()}", c.composed, c.dot))
    ops.append(pushout_op("pushout uwd", uwd_composed))

    def composition(c: gen.TwoLevel):
        data = json.loads(c.composed.read_text(encoding="utf-8"))
        if data.get("schema") != c.schema or data.get("B") != c.inner_boxes:
            return f"composed B={data.get('B')}, expected the inner total {c.inner_boxes}"
        d = load_diagram(c.composed)
        return None if canonical(d) == d else "canonical form of the written file differs from it"

    def validated(stdout: str):
        want = [f"{p}: 0 violations" for p in to_validate]
        return None if stdout.splitlines() == want else f"validate printed {stdout[:200]!r}"

    def dot(c: gen.TwoLevel):
        lines = c.dot.read_text(encoding="utf-8").splitlines()
        n_boxes = json.loads(c.composed.read_text(encoding="utf-8"))["B"]
        first = "graph diagram {" if c.schema == "UWD" else "digraph diagram {"
        boxes = sum(1 for line in lines if line.startswith("    b") and "shape=box" in line)
        return None if lines[:1] == [first] and boxes == n_boxes else f"DOT has {boxes} boxes, expected {n_boxes}"

    def migration():
        g = json.loads(cpg_composed.read_text(encoding="utf-8"))
        d = json.loads(migrated.read_text(encoding="utf-8"))
        want = {"B": g["B"], "P_in": g["P"], "P_out": g["P"], "W": g["W"],
                "W_in": g["Q"], "W_out": g["Q"], "Q_in": g["Q"], "Q_out": g["Q"]}
        got = {k: d.get(k) for k in want}
        return None if got == want else f"migrated counts {got}, expected {want}"

    def glued(value):
        f, g, po = value
        b = f.cod_size
        left, right = po.inj_left.map, po.inj_right.map
        if any(left[f.map[a]] != right[g.map[a]] for a in range(f.dom_size)):
            return "pushout square does not commute"
        if set(left) | set(right) != set(range(po.apex_size)):
            return "pushout injections do not cover the apex"
        want = classes(b + g.cod_size, ((f.map[a], b + g.map[a]) for a in range(f.dom_size)))
        return None if po.apex_size == want else f"apex has {po.apex_size} classes, expected {want}"

    def check(results: Results) -> Failures:
        fails: Failures = defaultdict(list)
        exit_codes(results, fails)
        for c in cases:
            checked(fails, f"compose {c.schema.lower()}", composition, c)
            checked(fails, f"export-dot {c.schema.lower()}", dot, c)
        checked(fails, "migrate cpg", migration)
        checked(fails, "validate", validated, results["validate"][1])
        checked(fails, "pushout uwd", glued, results["pushout uwd"][1])
        return fails

    return Workload("compose_large", ops, check)


BUILDERS = {"heat_grid": heat_grid, "small_long": small_long, "compose_large": compose_large}
