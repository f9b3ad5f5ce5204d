"""Assemble composed systems from diagrams plus model specs and run them.

State columns are qualified as ``<box-label>.<state-name>``; labels default
to ``b0..bn``.  For undirected composites, states glued across boxes take
the name of their smallest contributor, and junctions attached to no port
are named ``j<index>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynam import (
    Machine,
    ResourceSharer,
    oapply_cpg,
    oapply_directed,
    oapply_undirected_with_layout,
)
from .errors import ArityError, ConfigError, KindError
from .fileio import SimulationConfig
from .modelspec import ModelSpec, instantiate
from .wiring import CPGraph, DWDiagram, UWDiagram

__all__ = ["ComposedSystem", "build_system", "run_trajectory", "rk4_step"]


@dataclass(frozen=True)
class ComposedSystem:
    system: Machine | ResourceSharer
    state_names: tuple[str, ...]
    kind: str  # "continuous" | "discrete"
    directed: bool


def _labels(n: int, labels: Sequence[str] | None) -> list[str]:
    if labels is None:
        return [f"b{i}" for i in range(n)]
    if len(labels) != n:
        raise ConfigError(f"labels file names {len(labels)} boxes, diagram has {n}")
    return list(labels)


def build_system(
    diagram: UWDiagram | DWDiagram | CPGraph,
    specs: Sequence[ModelSpec],
    labels: Sequence[str] | None = None,
) -> ComposedSystem:
    """Instantiate the specs and compose them over the diagram.

    Each distinct spec is instantiated once and its model shared by every
    box that uses it, so ``oapply_*`` evaluates those boxes as one group;
    a spec used by a single box runs that box's scalar closures.
    """
    box_labels = _labels(diagram.n_boxes, labels)
    distinct = {id(s): s for s in specs}
    model_of = {i: instantiate(s) for i, s in distinct.items()}
    models = [model_of[id(s)] for s in specs]

    if isinstance(diagram, UWDiagram):
        if not all(isinstance(m, ResourceSharer) for m in models):
            raise ArityError("an undirected diagram needs sharer models")
        sharers = [m for m in models if isinstance(m, ResourceSharer)]
        sharer, layout = oapply_undirected_with_layout(diagram, sharers)
        names = _undirected_names(sharer.n_states, specs, box_labels, layout)
        return ComposedSystem(sharer, names, sharer.kind, directed=False)

    if not all(isinstance(m, Machine) for m in models):
        raise ArityError("a directed diagram needs machine models")
    machines = [m for m in models if isinstance(m, Machine)]
    if isinstance(diagram, DWDiagram):
        machine = oapply_directed(diagram, machines)
    else:
        machine = oapply_cpg(diagram, machines)
    names = tuple(
        f"{box_labels[i]}.{s}" for i, spec in enumerate(specs) for s in spec.states
    )
    return ComposedSystem(machine, names, machine.kind, directed=True)


def _undirected_names(n_states, specs, box_labels, layout) -> tuple[str, ...]:
    flat = [f"{box_labels[i]}.{s}" for i, spec in enumerate(specs) for s in spec.states]
    names: list[str | None] = [None] * n_states
    # Smallest contributing component state names the class; junction-only
    # classes fall back to the smallest junction index.
    for g in reversed(range(layout.state_injection.dom_size)):
        names[layout.state_injection.map[g]] = flat[g]
    for j in reversed(range(layout.junction_injection.dom_size)):
        c = layout.junction_injection.map[j]
        if names[c] is None:
            names[c] = f"j{j}"
    return tuple(n if n is not None else "?" for n in names)


def _initial_state(config: SimulationConfig, names: tuple[str, ...]) -> np.ndarray:
    if isinstance(config.init, dict):
        index = {n: k for k, n in enumerate(names)}
        unknown = sorted(set(config.init) - set(index))
        if unknown:
            raise ConfigError(f"init names unknown states: {', '.join(unknown)}")
        x0 = np.zeros(len(names))
        for name, value in config.init.items():
            x0[index[name]] = value
        return x0
    if len(config.init) != len(names):
        raise ConfigError(
            f"init vector has {len(config.init)} entries, composite has {len(names)} states"
        )
    return np.asarray(config.init, dtype=np.float64)


def _input_for_step(
    config: SimulationConfig, n_inputs: int, step: int
) -> np.ndarray:
    if config.input_table is not None:
        row = config.input_table[step]
        if len(row) != n_inputs:
            raise ConfigError(f"input table row {step} has {len(row)} entries, need {n_inputs}")
        return np.asarray(row, dtype=np.float64)
    if config.inputs is not None:
        if len(config.inputs) != n_inputs:
            raise ConfigError(f"inputs vector has {len(config.inputs)} entries, need {n_inputs}")
        return np.asarray(config.inputs, dtype=np.float64)
    return np.zeros(n_inputs)


def _rk4(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float) -> np.ndarray:
    k1 = np.asarray(f(x), dtype=np.float64)
    k2 = np.asarray(f(x + 0.5 * h * k1), dtype=np.float64)
    k3 = np.asarray(f(x + 0.5 * h * k2), dtype=np.float64)
    k4 = np.asarray(f(x + h * k3), dtype=np.float64)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step(machine: Machine, a: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """Classic fourth-order step with inputs held constant over the step.

    Convenience only: unlike the Euler map this does not commute with
    composition, so it is applied to the composed system.
    """
    return _rk4(lambda y: machine.dynamics(a, y), x, h)


def run_trajectory(
    composed: ComposedSystem, config: SimulationConfig, scheme: str = "euler"
) -> tuple[list[str], list[list[float]], dict]:
    """Iterate the composed system; returns (header, rows, metadata).

    One stepper, chosen once, advances the state along step ``k``'s field
    ``f``: ``system.dynamics`` for a sharer, ``system.dynamics(a_k, .)`` for
    a machine with inputs ``a_k`` fetched once and held over the step.
    Discrete systems step directly (``f(x)``); continuous ones by explicit
    Euler (``x + h * f(x)``) or classic RK4 over ``f``.  Rows include the
    initial state at ``t=0`` and one row per step.
    """
    system = composed.system
    x = _initial_state(config, composed.state_names)
    if not composed.directed and (config.inputs is not None or config.input_table is not None):
        raise ConfigError("external inputs apply to directed systems only")
    if config.input_table is not None and len(config.input_table) < config.steps:
        raise ConfigError(
            f"input table has {len(config.input_table)} rows, need {config.steps}"
        )

    if composed.kind == "discrete" and scheme == "rk4":
        raise KindError("rk4 integrates continuous systems; these models are discrete")
    if composed.kind != "discrete" and scheme not in ("euler", "rk4"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    stepper = "direct" if composed.kind == "discrete" else scheme

    h = config.h
    step = {
        "direct": lambda f, x: np.asarray(f(x), dtype=np.float64),
        "euler": lambda f, x: x + h * np.asarray(f(x), dtype=np.float64),
        "rk4": lambda f, x: _rk4(f, x, h),
    }[stepper]

    def field(k: int) -> Callable[[np.ndarray], np.ndarray]:
        if isinstance(system, ResourceSharer):
            return system.dynamics
        a = _input_for_step(config, system.n_inputs, k)
        return lambda y: system.dynamics(a, y)

    header = ["t", *composed.state_names]
    rows = [[0.0, *x.tolist()]]
    for k in range(config.steps):
        x = step(field(k), x)
        rows.append([(k + 1) * h, *x.tolist()])

    metadata = {
        "scheme": stepper,
        "functorial": stepper in ("euler", "direct"),
        "kind": composed.kind,
        "h": config.h,
        "steps": config.steps,
        "columns": header,
    }
    return header, rows, metadata
