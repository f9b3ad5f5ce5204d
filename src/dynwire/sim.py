"""Assemble composed systems from diagrams plus model specs and run them.

State columns are qualified as ``<box-label>.<state-name>``; labels default
to ``b0..bn``.  For undirected composites, states glued across boxes take
the name of their smallest contributor, and junctions attached to no port
are named ``j<index>``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._codegen import as_vector, runner
from .dynam import (
    Machine,
    ResourceSharer,
    _euler,
    oapply_cpg,
    oapply_directed,
    oapply_undirected_with_layout,
)
from .errors import ArityError, ConfigError, ExprEvalError, KindError
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


def _labels(n: int, labels: Sequence[str] | None) -> list[str] | None:
    """The labels as a list, checked against the box count and for
    repeats; ``None`` stands for the default labels ``b0 .. b<n-1>``."""
    if labels is None:
        return None
    if len(labels) != n:
        raise ConfigError(f"labels file names {len(labels)} boxes, diagram has {n}")
    first: dict[str, int] = {}
    for i, label in enumerate(labels):
        if first.setdefault(label, i) != i:
            raise ConfigError(f"box label {label!r} is given twice, at boxes {first[label]} and {i}")
    return list(labels)


def _qualified(specs: Sequence[ModelSpec], labels: list[str] | None) -> list[str]:
    """``<label>.<state>`` for every state of every box, box by box."""
    head, keys = ("b", list(map(str, range(len(specs))))) if labels is None else ("", labels)
    return [f"{head}{key}.{s}" for key, spec in zip(keys, specs) for s in spec.states]


def build_system(
    diagram: UWDiagram | DWDiagram | CPGraph,
    specs: Sequence[ModelSpec],
    labels: Sequence[str] | None = None,
) -> ComposedSystem:
    """Instantiate the specs and compose them over the diagram.

    Each distinct spec is instantiated once and its model shared by every
    box that uses it.  The composite is fused or evaluated box by box as
    ``dynam``'s module docstring says.  A system's callables are generated
    per system on their first call, and ``_codegen._compile`` compiles equal
    sources once, so rebuilding the same system compiles nothing again.  Box
    labels must be distinct.
    """
    if len(specs) != diagram.n_boxes:
        raise ArityError(f"diagram has {diagram.n_boxes} boxes but {len(specs)} models were given")
    box_labels = _labels(diagram.n_boxes, labels)
    distinct = {id(s): s for s in specs}
    model_of = {i: instantiate(s) for i, s in distinct.items()}
    models = [model_of[id(s)] for s in specs]

    if isinstance(diagram, UWDiagram):
        if not all(isinstance(m, ResourceSharer) for m in model_of.values()):
            raise ArityError("an undirected diagram needs sharer models")
        sharer, layout = oapply_undirected_with_layout(diagram, models)
        names = _undirected_names(sharer.n_states, specs, box_labels, layout)
        return ComposedSystem(sharer, names, sharer.kind, directed=False)

    if not all(isinstance(m, Machine) for m in model_of.values()):
        raise ArityError("a directed diagram needs machine models")
    if isinstance(diagram, DWDiagram):
        machine = oapply_directed(diagram, models)
    else:
        machine = oapply_cpg(diagram, models)
    names = tuple(_qualified(specs, box_labels))
    return ComposedSystem(machine, names, machine.kind, directed=True)


def _undirected_names(n_states, specs, box_labels, layout) -> tuple[str, ...]:
    flat = _qualified(specs, box_labels)
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


def _inputs(config: SimulationConfig, n_inputs: int) -> Iterable[tuple[float, ...]]:
    """Each step's inputs, as the config's float tuples: the rows of the
    input table, or else the constant inputs (or zeros) at every step."""
    if config.input_table is not None:
        for k, row in enumerate(config.input_table[: config.steps]):
            if len(row) != n_inputs:
                raise ConfigError(f"input table row {k} has {len(row)} entries, need {n_inputs}")
        return config.input_table
    a = config.inputs if config.inputs is not None else (0.0,) * n_inputs
    if len(a) != n_inputs:
        raise ConfigError(f"inputs vector has {len(a)} entries, need {n_inputs}")
    return itertools.repeat(a)


def rk4_step(machine: Machine, a: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """Classic fourth-order step with inputs held constant over the step:
    ``run_trajectory``'s ``rk4`` loop run for one step, on size-checked
    arguments.

    Convenience only: unlike the Euler map this does not commute with
    composition, so it is applied to the composed system.
    """
    a = as_vector(a, machine.n_inputs, "input vector")
    rows = np.empty((2, 1 + machine.n_states))
    rows[0, 1:] = as_vector(x, machine.n_states, "state vector")
    runner(machine.program, "rk4", h)((a.tolist(),), 1, rows)
    return rows[1, 1:].copy()


def _raise_non_finite(block: np.ndarray, header: list[str]) -> None:
    """Raise for the first non-finite value of the trajectory ``block``, in
    row order, if any.

    Only the next evaluation reads a step's result, so nothing else checks
    the last state, or a state that no equation reads.
    """
    where = np.isfinite(block).argmin()  # the first False, in row order
    k, j = divmod(int(where), block.shape[1])
    t, value = float(block[k, 0]), float(block[k, j])
    if not math.isfinite(value):
        raise ExprEvalError(f"step {k} (t={t!r}) left state {header[j]!r} non-finite: {value!r}")


def run_trajectory(
    composed: ComposedSystem, config: SimulationConfig, scheme: str = "euler"
) -> tuple[list[str], list[list[float]], dict]:
    """Iterate the composed system; returns (header, rows, metadata).

    ``scheme`` is ``"euler"`` or ``"rk4"``.  A discrete system steps
    directly under ``"euler"`` (the metadata says ``"direct"``); a
    continuous one by explicit Euler, which steps the discrete system
    ``euler_directed(system, h)`` or ``euler_undirected(system, h)``
    directly, or by classic RK4.  One generated loop,
    ``_codegen.runner``, takes every step, with step ``k``'s inputs held
    over the step: over Python floats if the system is fused, else over a
    float64 array.  Rows (lists of Python floats) include the initial state
    at ``t=0`` and one row per step; they are the rows of the float64 block
    that the CLI writes.  A state that is not finite after some step is an
    error naming the first such step and state.
    """
    header, block, metadata = _trajectory(composed, config, scheme)
    return header, block.tolist(), metadata


def _trajectory(
    composed: ComposedSystem, config: SimulationConfig, scheme: str
) -> tuple[list[str], np.ndarray, dict]:
    """``run_trajectory`` with the rows as one float64 block of shape
    ``(steps + 1, 1 + n)``: ``t = k*h`` in column 0, then the states; the
    loop reads the start state from row 0 and writes each step's row."""
    system = composed.system
    x0 = _initial_state(config, composed.state_names)
    if not composed.directed and (config.inputs is not None or config.input_table is not None):
        raise ConfigError("external inputs apply to directed systems only")
    if config.input_table is not None and len(config.input_table) < config.steps:
        raise ConfigError(
            f"input table has {len(config.input_table)} rows, need {config.steps}"
        )
    if scheme not in ("euler", "rk4"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    if composed.kind == "discrete" and scheme == "rk4":
        raise KindError("rk4 integrates continuous systems; these models are discrete")
    method = "direct" if composed.kind == "discrete" else scheme

    h, program = config.h, system.program
    if method == "euler":  # the program of ``euler_directed`` or ``euler_undirected``
        program = _euler(system, h, not isinstance(system, ResourceSharer))
    run = runner(program, "rk4" if method == "rk4" else "direct", h)
    if isinstance(system, ResourceSharer):
        inputs: Iterable[tuple[float, ...]] = itertools.repeat(())
    else:
        inputs = _inputs(config, system.n_inputs)

    header = ["t", *composed.state_names]
    x = as_vector(x0, system.n_states, "state vector")
    try:
        block = np.empty((config.steps + 1, len(header)))
    except (MemoryError, ValueError):  # too large to allocate, or to index
        raise ConfigError(
            f"'steps': a trajectory of {config.steps} steps of {system.n_states} states "
            "is too large to allocate"
        ) from None
    block[0, 1:] = x
    # The screen below names any overflow of array code's steps, so numpy
    # need not warn of it first.
    with np.errstate(over="ignore", invalid="ignore"):
        run(inputs, config.steps, block)
    # ``k*h`` as numpy computes it is Python's ``k * h``, bit for bit.
    block[:, 0] = np.arange(config.steps + 1) * h
    if not np.isfinite(block).all():
        _raise_non_finite(block, header)

    metadata = {
        "scheme": method,
        "functorial": method in ("euler", "direct"),
        "kind": composed.kind,
        "h": config.h,
        "steps": config.steps,
        "columns": header,
    }
    return header, block, metadata
