"""The one stepper of ``run_trajectory`` on a system with a known solution."""

from __future__ import annotations

import math

import numpy as np

from dynwire import (
    FinFunction,
    Machine,
    ResourceSharer,
    euler_directed,
    identity_dwd,
    identity_uwd,
    oapply_directed,
    oapply_undirected,
)
from dynwire.fileio import SimulationConfig
from dynwire.sim import ComposedSystem, run_trajectory

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
