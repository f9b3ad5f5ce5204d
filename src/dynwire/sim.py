"""Assemble composed systems from diagrams plus model specs and run them.

State columns are qualified as ``<box-label>.<state-name>``; labels default
to ``b0..bn``.  For undirected composites, states glued across boxes take
the name of their smallest contributor, and junctions attached to no port
are named ``j<index>``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ._codegen import as_vector, stepper
from .dynam import (
    Machine,
    ResourceSharer,
    euler_directed,
    euler_undirected,
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
    """The labels as a list, checked against the box count; ``None`` stands
    for the default labels ``b0 .. b<n-1>``."""
    if labels is None:
        return None
    if len(labels) != n:
        raise ConfigError(f"labels file names {len(labels)} boxes, diagram has {n}")
    return list(labels)


_STATES = operator.attrgetter("states")


def _qualified(specs: Sequence[ModelSpec], labels: list[str] | None) -> list[str]:
    """``<label>.<state>`` for every state of every box, box by box.

    When every box has the same states, as in a grid, each state names all
    the boxes by one join of their labels (or of their numbers after a ``b``)
    and one split at the NULs that the join puts between the names, unless
    a label or the state holds a NUL.
    """
    head, keys = ("b", list(map(str, range(len(specs))))) if labels is None else ("", labels)
    states = specs[0].states if specs else ()
    if list(map(_STATES, specs)).count(states) == len(specs):
        columns = [(head + f".{s}\0{head}".join(keys) + f".{s}").split("\0") for s in states]
        # A split never yields fewer names than were joined, and more only at a NUL.
        if sum(map(len, columns)) == len(keys) * len(states):
            return list(itertools.chain.from_iterable(zip(*columns)))
    return [f"{head}{key}.{s}" for key, spec in zip(keys, specs) for s in spec.states]


def build_system(
    diagram: UWDiagram | DWDiagram | CPGraph,
    specs: Sequence[ModelSpec],
    labels: Sequence[str] | None = None,
) -> ComposedSystem:
    """Instantiate the specs and compose them over the diagram.

    Each distinct spec is instantiated once and its model shared by every
    box that uses it.  A small composite (at most
    ``dynam._FUSE_MAX_STATEMENTS`` generated statements) runs as one fused
    function, whose generated code is cached by value, so rebuilding the
    same system does not compile it again.  A larger one evaluates the boxes sharing a
    spec as one numpy group, and a spec used by a single box through that
    box's scalar closures.
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


def _rk4(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float) -> np.ndarray:
    k1 = np.asarray(f(x), dtype=np.float64)
    k2 = np.asarray(f(x + 0.5 * h * k1), dtype=np.float64)
    k3 = np.asarray(f(x + 0.5 * h * k2), dtype=np.float64)
    k4 = np.asarray(f(x + h * k3), dtype=np.float64)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step(system: Machine | ResourceSharer, scheme: str, h: float) -> Callable:
    """The ``direct`` or ``rk4`` step ``(a, x) -> next x`` of ``system`` over
    Python floats, inputs ``a`` held over the step (sharers ignore them).
    A system with a program steps through generated code
    (``_codegen.stepper``); any other through its callables and numpy, with
    the same IEEE operations."""
    if system.program is not None:
        return stepper(system.program, scheme, h)
    f = system.dynamics if isinstance(system, Machine) else lambda a, x: system.dynamics(x)

    def step(a: Sequence[float], x: Sequence[float]) -> list[float]:
        a, x = np.asarray(a, dtype=np.float64), np.asarray(x, dtype=np.float64)
        y = _rk4(lambda v: f(a, v), x, h) if scheme == "rk4" else f(a, x)
        return np.asarray(y, dtype=np.float64).tolist()

    return step


def rk4_step(machine: Machine, a: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """Classic fourth-order step with inputs held constant over the step, in
    numpy.  ``run_trajectory``'s ``rk4`` step performs the same IEEE
    operations over Python floats, so the two agree bitwise.

    Convenience only: unlike the Euler map this does not commute with
    composition, so it is applied to the composed system.
    """
    return _rk4(lambda y: machine.dynamics(a, y), x, h)


def _raise_non_finite(rows: list[list[float]], header: list[str]) -> None:
    """Raise for the first non-finite state of the trajectory ``rows``, if any.

    Only the next evaluation reads a step's result, so nothing else checks
    the last state, or a state that no equation reads.
    """
    for k, row in enumerate(rows):
        for j, value in enumerate(row):
            if not math.isfinite(value):
                raise ExprEvalError(
                    f"step {k} (t={row[0]!r}) left state {header[j]!r} non-finite: {value!r}"
                )


def run_trajectory(
    composed: ComposedSystem, config: SimulationConfig, scheme: str = "euler"
) -> tuple[list[str], list[list[float]], dict]:
    """Iterate the composed system; returns (header, rows, metadata).

    ``scheme`` is ``"euler"`` or ``"rk4"``.  A discrete system steps
    directly under ``"euler"`` (the metadata says ``"direct"``); a
    continuous one by explicit Euler, which steps the discrete system
    ``euler_directed(system, h)`` or ``euler_undirected(system, h)``
    directly, or by classic RK4.  The state is a list of Python floats, and
    one step kind advances it with step ``k``'s inputs held over the step
    (see :func:`_step`): a system with a program, and so the Euler map of
    one, runs its generated code with no numpy work per step.  Rows include
    the initial state at ``t=0`` and one row per step.  A state that is not
    finite after some step is an error naming the first such step and state.
    """
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

    h = config.h
    if method == "euler":
        euler = euler_undirected if isinstance(system, ResourceSharer) else euler_directed
        system = euler(system, h)
    step = _step(system, "rk4" if method == "rk4" else "direct", h)
    if isinstance(system, ResourceSharer):
        inputs: Iterable[tuple[float, ...]] = itertools.repeat(())
    else:
        inputs = _inputs(config, system.n_inputs)

    header = ["t", *composed.state_names]
    x = as_vector(x0, system.n_states, "state vector").tolist()
    rows = [[0.0, *x]]
    for k, a in zip(range(config.steps), inputs):
        x = step(a, x)
        rows.append([(k + 1) * h, *x])
    if not math.isfinite(sum(map(sum, rows))):
        _raise_non_finite(rows, header)

    metadata = {
        "scheme": method,
        "functorial": method in ("euler", "direct"),
        "kind": composed.kind,
        "h": config.h,
        "steps": config.steps,
        "columns": header,
    }
    return header, rows, metadata
