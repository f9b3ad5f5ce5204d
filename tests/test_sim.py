"""The one stepper of ``run_trajectory`` on a system with a known solution."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

import dynwire.sim

from dynwire import (
    ArityError,
    ConfigError,
    DWDiagram,
    FinFunction,
    Machine,
    ResourceSharer,
    UWDiagram,
    builtin_model,
    euler_directed,
    grid,
    identity_dwd,
    identity_uwd,
    oapply_directed,
    oapply_undirected,
    spec_from_json,
)
from dynwire.fileio import SimulationConfig
from dynwire.sim import ComposedSystem, build_system, run_trajectory

from helpers import reference_state_names

H, STEPS = 0.01, 100
CONFIG = SimulationConfig(h=H, steps=STEPS, init=(1.0,))


def decay_machine() -> Machine:
    return Machine(0, 1, 0, lambda a, x: -x, lambda x: np.zeros(0), "continuous")


def decay_both_ways() -> tuple[ComposedSystem, ComposedSystem]:
    """``x' = -x`` as one machine over a DWD and as one sharer over a UWD."""
    machine = oapply_directed(identity_dwd(0, 0), [decay_machine()])
    sharer = ResourceSharer(1, 1, FinFunction(1, 1, (0,)), lambda x: -x, "continuous")
    composite = oapply_undirected(identity_uwd(1), [sharer])
    return (
        ComposedSystem(machine, ("b0.x",), "continuous", directed=True),
        ComposedSystem(composite, ("b0.x",), "continuous", directed=False),
    )


def test_rk4_is_one_integrator_for_machines_and_sharers():
    directed, undirected = decay_both_ways()
    _, rows_m, meta = run_trajectory(directed, CONFIG, "rk4")
    _, rows_s, _ = run_trajectory(undirected, CONFIG, "rk4")
    assert meta["scheme"] == "rk4"
    assert rows_m == rows_s
    assert len(rows_m) == STEPS + 1
    for t, x in rows_m:
        assert abs(x - math.exp(-t)) <= 1e-9


def test_euler_is_bitwise_the_euler_map():
    directed, undirected = decay_both_ways()
    stepped = euler_directed(decay_machine(), H)
    x = np.array([1.0])
    expected = [1.0]
    for _ in range(STEPS):
        x = stepped.dynamics(np.zeros(0), x)
        expected.append(float(x[0]))
    for composed in (directed, undirected):
        _, rows, meta = run_trajectory(composed, CONFIG, "euler")
        assert meta["scheme"] == "euler"
        assert [row[1] for row in rows] == expected


@pytest.mark.parametrize(
    "change, key", [({"steps": 2.5}, "'steps'"), ({"init": (math.nan,)}, "init[0]")]
)
def test_config_checks_its_own_fields(change, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        SimulationConfig(**{"h": 0.1, "steps": 2, "init": (1.0,), **change})


def test_constant_and_default_inputs_drive_every_step():
    # x' = u - x with u held constant (or 0.0 when no inputs are given).
    m = Machine(1, 1, 0, lambda a, x: a - x, lambda x: np.zeros(0), "continuous")
    composed = ComposedSystem(m, ("b0.x",), "continuous", directed=True)
    for inputs, u in (((2.0,), 2.0), (None, 0.0)):
        config = SimulationConfig(h=H, steps=STEPS, init=(1.0,), inputs=inputs)
        _, rows, _ = run_trajectory(composed, config, "euler")
        x, expected = 1.0, [1.0]
        for _ in range(STEPS):
            x = x + H * (u - x)
            expected.append(x)
        assert [row[1] for row in rows] == expected
    with pytest.raises(ConfigError, match="inputs vector has 2 entries, need 1"):
        run_trajectory(composed, SimulationConfig(h=H, steps=STEPS, init=(1.0,), inputs=(1.0, 2.0)))


def test_model_count_is_checked_before_labels_are_made(monkeypatch):
    # Labels are one string per box; a file may declare far more boxes than
    # that could be made for, so the count is checked first.
    def no_labels(n, labels):
        raise AssertionError("labels made before the model count was checked")

    monkeypatch.setattr(dynwire.sim, "_labels", no_labels)
    city = builtin_model("sir_city", {"beta": 0.5, "gamma": 0.25})
    three = UWDiagram.from_tables(3, 0, [], [], [])
    with pytest.raises(ArityError, match="diagram has 3 boxes but 2 models were given"):
        build_system(three, [city, city], labels=["a", "b"])


def _default_labels(n: int) -> list[str]:
    return [f"b{i}" for i in range(n)]


def test_state_names_are_label_dot_state_box_by_box():
    heat = builtin_model("heat_node", {"alpha": 0.1})
    g = grid(32, 32)
    specs = [heat] * g.n_boxes
    cells = [f"cell {i}" for i in range(g.n_boxes)]
    want = reference_state_names(_default_labels(g.n_boxes), specs)
    assert build_system(g, specs).state_names == tuple(want)
    assert build_system(g, specs, cells).state_names == tuple(reference_state_names(cells, specs))
    # Runs of boxes with other states, and labels holding the NUL that
    # separates the names of a run while they are made.
    one = spec_from_json({"kind": "machine", "flavor": "continuous", "states": ["x"],
                          "dynamics": {"x": "-x"}})
    two = spec_from_json({"kind": "machine", "flavor": "continuous", "states": ["u", "v"],
                          "dynamics": {"u": "v", "v": "u"}})
    specs = [two, two, one, two, one, one, two]
    d = DWDiagram.from_tables(len(specs), [], [])
    for labels in (None, list("abcdefg"), ["a\0b", "", "c", "\0", "d", "e", "f"]):
        want = reference_state_names(labels or _default_labels(len(specs)), specs)
        assert build_system(d, specs, labels).state_names == tuple(want)
