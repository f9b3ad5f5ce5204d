"""Seeded input files for the benchmark workloads.

Every generator takes a seed and a directory and writes plain JSON files in
the formats the dynwire CLI reads.  Nothing here imports dynwire: the program
under test receives only these files, and the same seed writes the same bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of all three workloads; ``FULL`` is what the benchmark runs."""

    heat_side: int  # the heat grid is heat_side x heat_side boxes
    heat_steps: int
    long_steps: int  # steps of every small_long simulation
    outer_boxes: int  # compose_large: boxes of each outer diagram
    inner_boxes: int  # compose_large: mean boxes of each inner diagram
    inner_pool: int  # compose_large: distinct inner diagrams per schema


FULL = Sizes(heat_side=32, heat_steps=10, long_steps=400, outer_boxes=100, inner_boxes=80, inner_pool=6)
TINY = Sizes(heat_side=4, heat_steps=3, long_steps=20, outer_boxes=4, inner_boxes=3, inner_pool=2)


def write_json(path: Path, obj: dict) -> Path:
    path.write_text(json.dumps(obj, separators=(",", ":")) + "\n", encoding="utf-8")
    return path


def _builtin(name: str, **params: float) -> dict:
    return {"builtin": name, "params": params}


# ---------------------------------------------------------------------------
# heat_grid


def grid_cpg(width: int, height: int) -> dict:
    """A width x height 5-point stencil as a circular port graph.

    Boxes are row-major with ports North, East, South, West; each interior
    adjacency carries a wire in both directions and every unwired port is
    exposed, so the boundary reads zero.
    """
    n = width * height

    def port(x: int, y: int, d: int) -> int:
        return 4 * (y * width + x) + d

    src: list[int] = []
    tgt: list[int] = []
    for y in range(height):
        for x in range(width):
            if x + 1 < width:
                src += [port(x, y, 1), port(x + 1, y, 3)]
                tgt += [port(x + 1, y, 3), port(x, y, 1)]
            if y + 1 < height:
                src += [port(x, y, 2), port(x, y + 1, 0)]
                tgt += [port(x, y + 1, 0), port(x, y, 2)]
    wired = set(src)
    expose = [p for p in range(4 * n) if p not in wired]
    return {
        "schema": "CPG", "B": n, "P": 4 * n, "W": len(src), "Q": len(expose),
        "src": src, "tgt": tgt, "box": [p // 4 for p in range(4 * n)], "expose": expose,
    }


@dataclass(frozen=True)
class HeatInputs:
    cpg: Path
    dwd: Path  # written by the workload's own `migrate` operation
    model: Path
    config: Path
    side: int
    alpha: float
    h: float
    steps: int
    init: tuple[float, ...]


def heat_inputs(seed: int, root: Path, sizes: Sizes) -> HeatInputs:
    rng = np.random.default_rng(seed)
    side, steps, h = sizes.heat_side, sizes.heat_steps, 0.01
    alpha = float(rng.uniform(0.05, 0.2))
    init = tuple(float(v) for v in rng.uniform(0.0, 1.0, side * side))
    return HeatInputs(
        cpg=write_json(root / "heat_grid.json", grid_cpg(side, side)),
        dwd=root / "heat_grid_dwd.json",
        model=write_json(root / "heat_node.json", _builtin("heat_node", alpha=alpha)),
        config=write_json(root / "heat_sim.json", {"h": h, "steps": steps, "init": list(init)}),
        side=side, alpha=alpha, h=h, steps=steps, init=init,
    )


# ---------------------------------------------------------------------------
# small_long

# The three-city SIR diagrams shipped with the project: box k has in-ports
# (inflow, outflow) and out-ports (S, I, R).  In `cyclic` every city's
# infected stream leaves it and enters the next; in `isolation` cities 1 and
# 2 exchange infected people and city 3 is unwired.
SIR_CYCLIC = {
    "schema": "DWD", "B": 3, "P_in": 6, "P_out": 9, "W": 6, "W_in": 0, "W_out": 0,
    "Q_in": 0, "Q_out": 0, "box_in": [0, 0, 1, 1, 2, 2], "box_out": [0, 0, 0, 1, 1, 1, 2, 2, 2],
    "src": [1, 1, 4, 4, 7, 7], "tgt": [2, 1, 4, 3, 0, 5],
    "src_in": [], "tgt_in": [], "src_out": [], "tgt_out": [],
}
SIR_ISOLATION = {
    "schema": "DWD", "B": 3, "P_in": 6, "P_out": 9, "W": 4, "W_in": 0, "W_out": 0,
    "Q_in": 0, "Q_out": 0, "box_in": [0, 0, 1, 1, 2, 2], "box_out": [0, 0, 0, 1, 1, 1, 2, 2, 2],
    "src": [1, 4, 1, 4], "tgt": [2, 0, 1, 3],
    "src_in": [], "tgt_in": [], "src_out": [], "tgt_out": [],
}
CITY_LABELS = ["city1", "city2", "city3"]

# The two-level ecosystem: land = rabbit + predation + hawk, river = fish +
# predation, glued at the predator (hawk) that both expose.
ECO_TOTAL = {"schema": "UWD", "B": 2, "P": 2, "J": 1, "Q": 1, "box": [0, 1], "junc_in": [0, 0], "junc_out": [0]}
ECO_LAND = {"schema": "UWD", "B": 3, "P": 4, "J": 2, "Q": 1, "box": [0, 1, 1, 2], "junc_in": [0, 0, 1, 1], "junc_out": [1]}
ECO_RIVER = {"schema": "UWD", "B": 2, "P": 3, "J": 2, "Q": 1, "box": [0, 1, 1], "junc_in": [0, 0, 1], "junc_out": [1]}
# Component states of the flattened ecosystem as (box label, state), in box order.
ECO_STATES = (("b0", "pop"), ("b1", "prey"), ("b1", "pred"), ("b2", "pop"), ("b3", "pop"), ("b4", "prey"), ("b4", "pred"))


@dataclass(frozen=True)
class LongInputs:
    city: Path
    cyclic: Path
    isolation: Path
    labels: Path
    sir_config: Path
    sir_init: dict
    total: Path
    land: Path
    river: Path
    land_models: tuple[Path, ...]
    river_models: tuple[Path, ...]
    eco_config: Path
    steps: int


def long_inputs(seed: int, root: Path, sizes: Sizes) -> LongInputs:
    rng = random.Random(seed)
    u = rng.uniform
    steps = sizes.long_steps
    sir_init = {
        "city1.S": u(800.0, 1200.0), "city1.I": u(5.0, 50.0),
        "city2.S": u(800.0, 1200.0), "city3.S": u(300.0, 700.0),
    }
    eco_init = {"b0.pop": u(5.0, 15.0), "b1.pred": u(2.0, 8.0), "b3.pop": u(5.0, 15.0)}
    a, b = u(0.01, 0.03), u(0.005, 0.015)
    return LongInputs(
        city=write_json(root / "city.json", _builtin("sir_city", beta=u(3e-4, 7e-4), gamma=u(0.15, 0.35))),
        cyclic=write_json(root / "cyclic.json", SIR_CYCLIC),
        isolation=write_json(root / "isolation.json", SIR_ISOLATION),
        labels=write_json(root / "labels.json", {"boxes": CITY_LABELS}),
        sir_config=write_json(root / "sir_sim.json", {"h": 0.01, "steps": steps, "init": sir_init}),
        sir_init=sir_init,
        total=write_json(root / "total_diagram.json", ECO_TOTAL),
        land=write_json(root / "land_diagram.json", ECO_LAND),
        river=write_json(root / "river_diagram.json", ECO_RIVER),
        land_models=(
            write_json(root / "rabbit_growth.json", _builtin("lv_growth", r=u(0.2, 0.4))),
            write_json(root / "land_predation.json", _builtin("lv_predation", a=a, b=b)),
            write_json(root / "hawk_decline.json", _builtin("lv_decline", r=u(0.1, 0.3))),
        ),
        river_models=(
            write_json(root / "fish_growth.json", _builtin("lv_growth", r=u(0.2, 0.4))),
            write_json(root / "river_predation.json", _builtin("lv_predation", a=a, b=b)),
        ),
        eco_config=write_json(root / "eco_sim.json", {"h": 0.001, "steps": steps, "init": eco_init}),
        steps=steps,
    )


# ---------------------------------------------------------------------------
# compose_large: random two-level diagrams.  An outer diagram's box k takes
# the interface of the pool diagram chosen for it, so substitution is always
# well-typed.


def _box_column(rng: random.Random, counts: list[int]) -> list[int]:
    col = [b for b, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(col)
    return col


def random_uwd(rng: random.Random, n_boxes: int, port_counts: list[int], n_outer: int) -> dict:
    box = _box_column(rng, port_counts)
    nj = max(1, len(box) // 2)
    junc_in = [rng.randrange(nj) for _ in box]
    junc_out = [rng.randrange(nj) for _ in range(n_outer)]
    return {"schema": "UWD", "B": n_boxes, "P": len(box), "J": nj, "Q": n_outer,
            "box": box, "junc_in": junc_in, "junc_out": junc_out}


def random_dwd(rng: random.Random, n_boxes: int, signature: list[tuple[int, int]], q_in: int, q_out: int) -> dict:
    box_in = _box_column(rng, [m for m, _ in signature])
    box_out = _box_column(rng, [n for _, n in signature])
    wires = [(rng.randrange(len(box_out)), rng.randrange(len(box_in))) for _ in range(len(box_in))]
    in_wires = [(q, rng.randrange(len(box_in))) for q in range(q_in) for _ in range(rng.randint(1, 2))]
    out_wires = [(rng.randrange(len(box_out)), q) for q in range(q_out) for _ in range(rng.randint(1, 2))]
    return {
        "schema": "DWD", "B": n_boxes, "P_in": len(box_in), "P_out": len(box_out),
        "W": len(wires), "W_in": len(in_wires), "W_out": len(out_wires), "Q_in": q_in, "Q_out": q_out,
        "box_in": box_in, "box_out": box_out,
        "src": [s for s, _ in wires], "tgt": [t for _, t in wires],
        "src_in": [s for s, _ in in_wires], "tgt_in": [t for _, t in in_wires],
        "src_out": [s for s, _ in out_wires], "tgt_out": [t for _, t in out_wires],
    }


def random_cpg(rng: random.Random, n_boxes: int, port_counts: list[int], n_outer: int) -> dict:
    box = _box_column(rng, port_counts)
    n_ports = len(box)
    wires = [(rng.randrange(n_ports), rng.randrange(n_ports)) for _ in range(n_ports // 2)]
    expose = [rng.randrange(n_ports) for _ in range(n_outer)]
    return {"schema": "CPG", "B": n_boxes, "P": n_ports, "W": len(wires), "Q": n_outer,
            "src": [s for s, _ in wires], "tgt": [t for _, t in wires], "box": box, "expose": expose}


def _inner(rng: random.Random, schema: str, n_boxes: int) -> dict:
    counts = [rng.randint(1, 3) for _ in range(n_boxes)]
    if schema == "UWD":
        return random_uwd(rng, n_boxes, counts, rng.randint(1, 3))
    if schema == "DWD":
        sig = [(c, rng.randint(1, 3)) for c in counts]
        return random_dwd(rng, n_boxes, sig, rng.randint(1, 2), rng.randint(1, 2))
    return random_cpg(rng, n_boxes, counts, rng.randint(1, 3))


def _outer(rng: random.Random, schema: str, inners: list[dict]) -> dict:
    n = len(inners)
    if schema == "UWD":
        return random_uwd(rng, n, [d["Q"] for d in inners], rng.randint(1, 4))
    if schema == "DWD":
        return random_dwd(rng, n, [(d["Q_in"], d["Q_out"]) for d in inners], rng.randint(1, 3), rng.randint(1, 3))
    return random_cpg(rng, n, [d["Q"] for d in inners], rng.randint(1, 4))


@dataclass(frozen=True)
class TwoLevel:
    schema: str
    outer: Path
    inners: tuple[Path, ...]  # one per outer box, in box order
    inner_boxes: int  # sum of the inner box counts
    composed: Path
    migrated: Path | None
    dot: Path


COMPOSE_SCHEMAS = ("UWD", "DWD", "CPG")


def compose_inputs(seed: int, root: Path, sizes: Sizes) -> list[TwoLevel]:
    rng = random.Random(seed)
    out = []
    for schema in COMPOSE_SCHEMAS:
        tag = schema.lower()
        # Pool sizes spread evenly around inner_boxes and every pool diagram
        # used equally often, so the total work does not depend on the seed.
        k = sizes.inner_pool
        pool = [
            _inner(rng, schema, sizes.inner_boxes * (k + 2 * j) // (2 * k) + 1)
            for j in range(k)
        ]
        pool_paths = [write_json(root / f"{tag}_inner{j}.json", d) for j, d in enumerate(pool)]
        choice = [j % k for j in range(sizes.outer_boxes)]
        rng.shuffle(choice)
        outer = _outer(rng, schema, [pool[k] for k in choice])
        out.append(TwoLevel(
            schema=schema,
            outer=write_json(root / f"{tag}_outer.json", outer),
            inners=tuple(pool_paths[k] for k in choice),
            inner_boxes=sum(pool[k]["B"] for k in choice),
            composed=root / f"{tag}_composed.json",
            migrated=root / "cpg_migrated.json" if schema == "CPG" else None,
            dot=root / f"{tag}_composed.dot",
        ))
    return out
