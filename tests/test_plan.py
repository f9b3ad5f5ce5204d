"""The box-by-box plan of composites too large to fuse, against the scalar path.

``_BoxPlan`` reads the diagram's columns: one kernel group per shared
program, with state and port blocks cut from the columns, and a ``_Box``
record only for a box that runs alone.  The records of every box, which the
scalar fallback of a flagged group walks, are built on the first flag and
kept.  The reference is the same composite over ``scalar_only`` models.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import dynwire.dynam as dynam
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
from dynwire.dynam import _FUSE_MAX_STATEMENTS, _Fibers
from dynwire.fileio import load_diagram, load_model
from dynwire.sim import build_system

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


class Counted:
    """Counts the ``_Box`` records built while patched into ``dynam``."""

    def __init__(self, monkeypatch):
        self.built = 0
        box = dynam._Box

        def counted(*args):
            self.built += 1
            return box(*args)

        monkeypatch.setattr(dynam, "_Box", counted)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_group_singleton_and_hand_written_box_equal_the_scalar_path(route):
    side = 16
    ms = mixed(side)
    assert sum(m.program.statements for m in ms if m.program) > _FUSE_MAX_STATEMENTS
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
def test_group_flagging_after_a_clean_call_raises_the_scalar_error(route, monkeypatch):
    side = 16
    ms = mixed(side)
    d, oapply = ROUTES[route](grid(side, side)), OAPPLY[route]
    counted = Counted(monkeypatch)
    fast = oapply(d, ms)
    assert counted.built == 2  # the singleton and the hand-written box
    slow = oapply(d, scalar_only(ms))
    counted.built = 0  # the reference runs every box alone, each with a record
    a = np.zeros(fast.n_inputs)
    x = np.full(side**2, 0.5)
    assert bits(fast.dynamics(a, x)) == bits(slow.dynamics(a, x))
    assert counted.built == 0
    # A failing singleton raises from its own call; no group flags.
    y = x.copy()
    y[5] = 5.0
    assert assert_same_error(fast.dynamics, slow.dynamics, a, y) == "division by zero"
    assert counted.built == 0
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
    for at, message in cases:
        y = x.copy()
        y[list(at)] = list(at.values())
        assert assert_same_error(fast.dynamics, slow.dynamics, a, y) == message
    # The fallback's records of every box are built once, on the first flag.
    assert counted.built == side**2
    assert assert_same_error(fast.readout, slow.readout, y) == readout
    assert bits(fast.dynamics(a, x)) == bits(slow.dynamics(a, x))
    assert counted.built == side**2


def test_heat_grid_clean_path_builds_no_box_records(monkeypatch):
    counted = Counted(monkeypatch)
    heat = [instantiate(builtin_model("heat_node", {"alpha": 0.1}))] * 1024
    g = grid(32, 32)
    x = np.random.default_rng(5).uniform(0.0, 1.0, 1024)
    for d, oapply in ((g, oapply_cpg), (cpg_to_dwd(g), oapply_directed)):
        composite = oapply(d, heat)
        composite.dynamics(np.zeros(composite.n_inputs), x)
        composite.readout(x)
    assert counted.built == 0


# ---------------------------------------------------------------------------
# Port blocks come from the argsort of the box columns


def test_fibers_of_box_columns_are_each_box_ports_in_slot_order():
    rng = random.Random(3)
    for _ in range(200):
        d, g = random_dwd(rng, max_boxes=5), random_cpg(rng, max_boxes=5)
        for diagram, column in ((d, "box_in"), (d, "box_out"), (g, "box")):
            box, n = diagram.data.parts[column], diagram.n_boxes
            want = [[p for p, b in enumerate(box) if b == i] for i in range(n)]
            fibers = _Fibers.of(diagram.column(column), n)
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


class Plans:
    """Records every ``_BoxPlan`` built while patched into ``dynam``."""

    def __init__(self, monkeypatch):
        self.made: list[dynam._BoxPlan] = []
        plan = dynam._BoxPlan
        made = self.made

        class Recorded(plan):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(dynam, "_BoxPlan", Recorded)


def test_shipped_workload_shapes_take_their_paths(repo_root, monkeypatch):
    plans = Plans(monkeypatch)
    heat = builtin_model("heat_node", {"alpha": 0.1})
    g = grid(32, 32)
    for d in (g, cpg_to_dwd(g)):
        assert not fused(build_system(d, [heat] * 1024).system)
        (plan,) = plans.made
        assert len(plan.groups) == 1 and plan.singles == []
        plans.made.clear()

    sir = repo_root / "configs" / "sir"
    city = load_model(sir / "city.json")
    assert fused(build_system(load_diagram(sir / "cyclic.json"), [city] * 3).system)

    eco = repo_root / "configs" / "ecosystem"
    total, land, river = (
        load_diagram(eco / f"{n}_diagram.json") for n in ("total", "land", "river")
    )
    names = ("rabbit_growth", "land_predation", "hawk_decline", "fish_growth", "river_predation")
    flat = ocompose_uwd(total, [land, river])
    assert flat.n_boxes == 5
    assert fused(build_system(flat, [load_model(eco / f"{n}.json") for n in names]).system)
    assert plans.made == []


def test_euler_maps_made_one_by_one_share_a_group(monkeypatch):
    # Equal Euler maps made separately share one program object, so they
    # group as one map repeated does.
    plans = Plans(monkeypatch)
    m, g = cell(0.1), grid(32, 32)
    apart = [euler_directed(m, 0.01) for _ in range(1024)]
    fast, repeated = oapply_cpg(g, apart), oapply_cpg(g, [euler_directed(m, 0.01)] * 1024)
    plan = plans.made[0]
    assert len(plan.groups) == 1 and plan.singles == [] and "boxes" not in vars(plan)
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
def test_groups_of_composites_and_euler_maps_equal_the_scalar_path(kind, monkeypatch):
    # A fused composite of two planted boxes in a row hides both overflowing
    # readouts inside; an Euler map shows its one as its second out-port,
    # which the outer diagram leaves unwired.
    if kind == "composite":
        row = DWDiagram.from_tables(2, [0, 1], [0, 0, 1, 1], 1, 1, [(0, 1)], [(0, 0)], [(2, 0)])
        box, outs = oapply_directed(row, [planted()] * 2), 1
    else:
        box, outs = euler_directed(planted(), 0.5), 2
    assert box.program is not None
    k = _FUSE_MAX_STATEMENTS // box.program.statements + 1
    d = open_boxes(k, outs)
    plans = Plans(monkeypatch)
    fast, slow = oapply_directed(d, [box] * k), oapply_directed(d, scalar_only([box] * k))
    assert not fused(fast)
    assert [len(p.groups) for p in plans.made] == [1, 0]  # one group, then the reference
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
