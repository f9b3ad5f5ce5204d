"""The box-by-box plan of composites too large to fuse, against the scalar path.

A composite's ``BoxPlan`` (``program.plan``) reads the diagram's columns:
one kernel group per shared program, with state and port blocks cut from
the columns, and the ``singles``, the boxes that run alone in its array
code.  The records of every box (``plan.boxes``), which the scalar
fallback of a flagged group walks, are built on the first flag and kept.
The reference is the same composite over ``scalar_only`` models.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from dynwire import (
    DWDiagram,
    Machine,
    builtin_model,
    cpg_to_dwd,
    euler_directed,
    grid,
    instantiate,
    oapply_cpg,
    oapply_directed,
    ocompose_uwd,
    spec_from_json,
)
from dynwire._codegen import kernels
from dynwire._codegen import _FUSE_MAX_STATEMENTS
from dynwire.wiring import _Fibers
from dynwire.fileio import SimulationConfig, load_diagram, load_model
from dynwire.sim import ComposedSystem, build_system, run_trajectory

from helpers import random_cpg, random_dwd, shuffled_box_column
from test_batched import assert_same_error, bits, fused, open_boxes, scalar_only

pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

ROUTES = {"cpg": lambda g: g, "dwd": cpg_to_dwd}
OAPPLY = {"cpg": oapply_cpg, "dwd": oapply_directed}


def cell(alpha: float) -> Machine:
    """A heat-like cell whose dynamics divide by zero at ``T = 5`` and
    overflow from ``T = 1e80``, and whose last readout overflows from
    ``T = 1e110``."""
    return instantiate(spec_from_json({
        "kind": "machine", "flavor": "continuous", "states": ["T"],
        "inputs": ["aN", "aE", "aS", "aW"], "params": {"alpha": alpha},
        "dynamics": {"T": "alpha*(aN+aE+aS+aW-4*T)/(T-5) + T*T*T*T"},
        "readout": ["T", "T", "T", "T*T*T"],
    }))


def hand_written() -> Machine:
    """A 4-port heat cell written as numpy callables: no program."""
    return Machine(
        4, 1, 4,
        lambda a, x: np.array([0.25 * (a[0] + a[1] + a[2] + a[3] - 4.0 * x[0])]),
        lambda x: np.repeat(x, 4),
        "continuous",
    )


def mixed(side: int) -> list[Machine]:
    """A group, a singleton spec at box 5 and a hand-written box at 9."""
    ms = [cell(0.1)] * side**2
    ms[5], ms[9] = cell(0.2), hand_written()
    return ms


def records_built(system) -> bool:
    """Whether the fallback's records of every box of ``system`` were built."""
    return "boxes" in vars(system.program.plan)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_group_singleton_and_hand_written_box_equal_the_scalar_path(route):
    side = 16
    ms = mixed(side)
    assert sum(m.program.statements for m in ms) > _FUSE_MAX_STATEMENTS
    d, oapply = ROUTES[route](grid(side, side)), OAPPLY[route]
    fast, slow = oapply(d, ms), oapply(d, scalar_only(ms))
    assert not fused(fast) and not fused(slow)
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = rng.uniform(-1.0, 1.0, side**2)
        a = rng.uniform(-1.0, 1.0, fast.n_inputs)
        assert bits(fast.dynamics(a, x)) == bits(slow.dynamics(a, x))
        assert bits(fast.readout(x)) == bits(slow.readout(x))


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_group_flagging_after_a_clean_call_raises_the_scalar_error(route):
    side = 16
    ms = mixed(side)
    d, oapply = ROUTES[route](grid(side, side)), OAPPLY[route]
    fast = oapply(d, ms)
    plan = fast.program.plan
    assert len(plan.groups) == 1 and plan.singles == [5, 9]  # the singleton and the hand-written box
    slow = oapply(d, scalar_only(ms))
    assert slow.program.plan.singles == list(range(side**2))  # the reference runs every box alone
    a = np.zeros(fast.n_inputs)
    x = np.full(side**2, 0.5)
    assert bits(fast.dynamics(a, x)) == bits(slow.dynamics(a, x))
    assert not records_built(fast)
    # A failing singleton raises from its own call; no group flags.
    y = x.copy()
    y[5] = 5.0
    assert assert_same_error(fast.dynamics, slow.dynamics, a, y) == "division by zero"
    assert not records_built(fast)
    # A group flags: the first failing box in box order wins, readouts first.
    dynamics = "dynamics of 'T' produced a non-finite value"
    readout = "readout produced a non-finite value"
    cases = [
        ({3: 5.0, 7: 1e80}, "division by zero"),
        ({3: 1e80, 7: 5.0}, dynamics),
        ({3: 1e80, 5: 5.0}, dynamics),
        ({5: 5.0, 7: 1e80}, "division by zero"),
        ({3: 5.0, 40: 1e110}, readout),
    ]
    records = None
    for at, message in cases:
        y = x.copy()
        y[list(at)] = list(at.values())
        assert assert_same_error(fast.dynamics, slow.dynamics, a, y) == message
        # The fallback's records of every box are built once, on the first flag.
        assert records_built(fast)
        records = records or plan.boxes
        assert plan.boxes is records
    assert [r[0] for r in records] == list(range(side**2))
    assert assert_same_error(fast.readout, slow.readout, y) == readout
    assert bits(fast.dynamics(a, x)) == bits(slow.dynamics(a, x))
    assert plan.boxes is records


def test_heat_grid_clean_path_builds_no_box_records():
    heat = [instantiate(builtin_model("heat_node", {"alpha": 0.1}))] * 1024
    g = grid(32, 32)
    x = np.random.default_rng(5).uniform(0.0, 1.0, 1024)
    for d, oapply in ((g, oapply_cpg), (cpg_to_dwd(g), oapply_directed)):
        composite = oapply(d, heat)
        composite.dynamics(np.zeros(composite.n_inputs), x)
        composite.readout(x)
        assert composite.program.plan.singles == [] and not records_built(composite)


def test_a_nested_box_by_box_composite_runs_as_one_function():
    # Two box-by-box grids as the boxes of a box-by-box composite: their code
    # is generated into the outer composite's, so running the outer one never
    # makes (or calls) an inner one's function.
    side = 4
    inner = oapply_cpg(grid(side, side), mixed(side))
    n = inner.n_inputs
    ports = [0] * n + [1] * n
    wires = [(k, n + k) for k in range(n)] + [(n + k, k) for k in range(n)]
    d = DWDiagram.from_tables(2, ports, ports, 0, 0, wires)
    outer = oapply_directed(d, [inner, inner])
    assert not fused(inner) and not fused(outer)
    reference = oapply_directed(d, [oapply_cpg(grid(side, side), scalar_only(mixed(side)))] * 2)
    x = np.random.default_rng(8).uniform(-1.0, 1.0, outer.n_states)
    for scheme in ("euler", "rk4"):
        config = SimulationConfig(h=0.01, steps=5, init=tuple(x))
        composed = [ComposedSystem(s, tuple(map(str, range(len(x)))), s.kind, True)
                    for s in (outer, reference)]
        got, want = (run_trajectory(c, config, scheme)[1] for c in composed)
        assert bits(np.array(got)) == bits(np.array(want))
    assert bits(outer.readout(x)) == bits(reference.readout(x))
    assert not {"array_dynamics", "array_readout"} & set(vars(inner.program))


# ---------------------------------------------------------------------------
# Port blocks come from the argsort of the box columns


def test_fibers_of_box_columns_are_each_box_ports_in_slot_order():
    rng = random.Random(3)
    for _ in range(200):
        d, g = random_dwd(rng, max_boxes=5), random_cpg(rng, max_boxes=5)
        for diagram, column in ((d, "box_in"), (d, "box_out"), (g, "box")):
            box, n = diagram.data.parts[column], diagram.n_boxes
            want = [[p for p, b in enumerate(box) if b == i] for i in range(n)]
            fibers = _Fibers(diagram.column(column), n)
            assert [p.tolist() for p in fibers.split(range(n))] == want
            assert fibers.sizes().tolist() == [len(p) for p in want]
            for i in range(n):
                assert fibers.block(np.array([i]), len(want[i])).tolist() == [want[i]]


def test_group_over_shuffled_port_columns_equals_the_scalar_path():
    # Every box's ports are scattered over the port order; the group reads
    # them through the argsort of the box columns.
    rng = random.Random(4)
    m = instantiate(spec_from_json({
        "kind": "machine", "flavor": "continuous", "states": ["x", "y"], "inputs": ["u", "v"],
        "params": {}, "dynamics": {"x": "u - 2*v*y", "y": "v/(1 + x*x) - u"},
        "readout": ["x - y", "3*x", "y*y"],
    }))
    k = _FUSE_MAX_STATEMENTS // 10 + 1
    box_in, box_out = shuffled_box_column(rng, [2] * k), shuffled_box_column(rng, [3] * k)
    wires = [(rng.randrange(3 * k), rng.randrange(2 * k)) for _ in range(3 * k)]
    d = DWDiagram.from_tables(
        k, box_in, box_out, 2, 2, wires,
        in_wires=[(rng.randrange(2), rng.randrange(2 * k)) for _ in range(4)],
        out_wires=[(rng.randrange(3 * k), rng.randrange(2)) for _ in range(4)],
    )
    assert sorted(box_in) != box_in
    fast, slow = oapply_directed(d, [m] * k), oapply_directed(d, scalar_only([m] * k))
    assert not fused(fast)
    nprng = np.random.default_rng(6)
    for _ in range(3):
        x, a = nprng.uniform(-2.0, 2.0, 2 * k), nprng.uniform(-2.0, 2.0, 2)
        assert bits(fast.dynamics(a, x)) == bits(slow.dynamics(a, x))
        assert bits(fast.readout(x)) == bits(slow.readout(x))


# ---------------------------------------------------------------------------
# Which path each shipped workload shape takes


def test_shipped_workload_shapes_take_their_paths(repo_root):
    heat = builtin_model("heat_node", {"alpha": 0.1})
    g = grid(32, 32)
    for d in (g, cpg_to_dwd(g)):
        system = build_system(d, [heat] * 1024).system
        assert not fused(system)
        plan = system.program.plan
        assert len(plan.groups) == 1 and plan.singles == []

    # Fused composites, nested ones included, have no plan.
    sir = repo_root / "configs" / "sir"
    city = load_model(sir / "city.json")
    system = build_system(load_diagram(sir / "cyclic.json"), [city] * 3).system
    assert fused(system) and system.program.plan is None

    eco = repo_root / "configs" / "ecosystem"
    total, land, river = (
        load_diagram(eco / f"{n}_diagram.json") for n in ("total", "land", "river")
    )
    names = ("rabbit_growth", "land_predation", "hawk_decline", "fish_growth", "river_predation")
    flat = ocompose_uwd(total, [land, river])
    assert flat.n_boxes == 5
    system = build_system(flat, [load_model(eco / f"{n}.json") for n in names]).system
    assert fused(system) and system.program.plan is None


def test_euler_maps_made_one_by_one_share_a_group():
    # Equal Euler maps made separately share one program object, so they
    # group as one map repeated does.
    m, g = cell(0.1), grid(32, 32)
    apart = [euler_directed(m, 0.01) for _ in range(1024)]
    fast, repeated = oapply_cpg(g, apart), oapply_cpg(g, [euler_directed(m, 0.01)] * 1024)
    plan = fast.program.plan
    assert len(plan.groups) == 1 and plan.singles == [] and not records_built(fast)
    rng = np.random.default_rng(21)
    for _ in range(3):
        x, a = rng.uniform(-2.0, 2.0, fast.n_states), rng.uniform(-2.0, 2.0, fast.n_inputs)
        assert bits(fast.dynamics(a, x)) == bits(repeated.dynamics(a, x))
        assert bits(fast.readout(x)) == bits(repeated.readout(x))


# ---------------------------------------------------------------------------
# Any program heads a group: a fused composite, an Euler map


def planted() -> Machine:
    """``x' = u - x`` with readouts ``x`` and ``x*x*x``; the second overflows
    from ``x = 1e110`` and is left unwired below."""
    return instantiate(spec_from_json({
        "kind": "machine", "flavor": "continuous", "states": ["x"], "inputs": ["u"],
        "params": {}, "dynamics": {"x": "u - x"}, "readout": ["x", "x*x*x"],
    }))


@pytest.mark.parametrize("kind", ["composite", "euler"])
def test_groups_of_composites_and_euler_maps_equal_the_scalar_path(kind):
    # A fused composite of two planted boxes in a row hides both overflowing
    # readouts inside; an Euler map shows its one as its second out-port,
    # which the outer diagram leaves unwired.
    if kind == "composite":
        row = DWDiagram.from_tables(2, [0, 1], [0, 0, 1, 1], 1, 1, [(0, 1)], [(0, 0)], [(2, 0)])
        box, outs = oapply_directed(row, [planted()] * 2), 1
    else:
        box, outs = euler_directed(planted(), 0.5), 2
    assert fused(box)
    k = _FUSE_MAX_STATEMENTS // box.program.statements + 1
    d = open_boxes(k, outs)
    fast, slow = oapply_directed(d, [box] * k), oapply_directed(d, scalar_only([box] * k))
    assert not fused(fast)
    assert [len(c.program.plan.groups) for c in (fast, slow)] == [1, 0]  # one group, then the reference
    rng = np.random.default_rng(13)
    for _ in range(3):
        x, a = rng.uniform(-2.0, 2.0, fast.n_states), rng.uniform(-2.0, 2.0, k)
        assert bits(fast.dynamics(a, x)) == bits(slow.dynamics(a, x))
        assert bits(fast.readout(x)) == bits(slow.readout(x))
    x[7] = 1e110
    message = "readout produced a non-finite value"
    assert assert_same_error(fast.dynamics, slow.dynamics, a, x) == message
    assert assert_same_error(fast.readout, slow.readout, x) == message
    # The group's kernel flags the unwired readout itself, not only its outputs.
    _, ok = kernels(box.program, True)[1](x.reshape(k, box.n_states))
    assert not ok
