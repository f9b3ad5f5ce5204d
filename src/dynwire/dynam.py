"""Open dynamical systems and the four composition algebras.

A :class:`Machine` is a directed open system (inputs drive dynamics, a
state-only readout feeds other systems); a :class:`ResourceSharer` is an
undirected one (ports expose state variables to be identified).  Both come
in a continuous flavor, where ``dynamics`` is a vector field, and a discrete
one, where it is the next-state map.

Composites are closures over the diagram and the component systems.  Both
directed syntaxes (a CPG read as a DWD through ``DWD_FROM_CPG``) become one
gather/scatter transport: merged wires sum, wireless in-ports read exactly
0.0.  Undirected composition glues states by a pushout.  Boxes that share a
batch kernel (as equal instantiated specs do) are evaluated together, one
call per group, the rest box by box.  Explicit Euler discretization
commutes with both compositions, which the test suite exercises as the
central oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple, Sequence

import numpy as np

from .errors import ArityError, KindError, SizeMismatchError
from .finset import FinFunction, compose, fiber_sum, pullback_vec, pushforward_vec, pushout
from .wiring import CPGraph, DWDiagram, UWDiagram

__all__ = [
    "Kind",
    "BatchKernel",
    "Machine",
    "ResourceSharer",
    "eval_dynamics",
    "eval_readout",
    "oapply_directed",
    "oapply_undirected",
    "oapply_undirected_with_layout",
    "UndirectedLayout",
    "oapply_cpg",
    "euler_directed",
    "euler_undirected",
]

Kind = Literal["continuous", "discrete"]

Dynamics = Callable[[np.ndarray, np.ndarray], np.ndarray]
Readout = Callable[[np.ndarray], np.ndarray]
SharerDynamics = Callable[[np.ndarray], np.ndarray]


def _as_vector(x: Sequence[float] | np.ndarray, n: int, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (n,):
        raise SizeMismatchError(f"{what} has shape {arr.shape}, expected ({n},)")
    return arr


@dataclass(frozen=True, eq=False)
class BatchKernel:
    """One model's equations over a block of boxes, one box per row.

    ``dynamics(inputs, states)`` (machines) or ``dynamics(states)`` (sharers)
    and ``readout(states)`` take ``(k, n)`` blocks and return ``(block, ok)``.
    ``ok`` is false when some row met a case that the scalar closures report
    as an error (a zero denominator, a non-finite function or power value, a
    non-finite result); the caller then re-evaluates with those closures.
    """

    dynamics: Callable[..., tuple[np.ndarray, bool]]
    readout: Callable[[np.ndarray], tuple[np.ndarray, bool]] | None = None


@dataclass(frozen=True)
class Machine:
    """A directed open system with ``n_states`` state variables.

    ``dynamics(inputs, state)`` returns a state-sized vector, read as the
    derivative (continuous) or the next state (discrete); ``readout(state)``
    returns the output vector and may depend on state only.  ``kernel``, if
    given, computes the same over a block of boxes; ``oapply_*`` uses it for
    boxes that share it and the scalar callables otherwise.
    """

    n_inputs: int
    n_states: int
    n_outputs: int
    dynamics: Dynamics
    readout: Readout
    kind: Kind
    kernel: BatchKernel | None = None


@dataclass(frozen=True)
class ResourceSharer:
    """An undirected open system: ports expose state variables via ``portmap``.

    ``kernel`` is as for :class:`Machine`.
    """

    n_ports: int
    n_states: int
    portmap: FinFunction
    dynamics: SharerDynamics
    kind: Kind
    kernel: BatchKernel | None = None

    def __post_init__(self) -> None:
        if self.portmap.dom_size != self.n_ports or self.portmap.cod_size != self.n_states:
            raise SizeMismatchError(
                f"portmap is {self.portmap.dom_size}->{self.portmap.cod_size}, "
                f"expected {self.n_ports}->{self.n_states}"
            )


def eval_dynamics(
    m: Machine, inputs: Sequence[float] | np.ndarray, state: Sequence[float] | np.ndarray
) -> np.ndarray:
    """Evaluate ``m.dynamics`` with size checks on arguments and result."""
    a = _as_vector(inputs, m.n_inputs, "input vector")
    x = _as_vector(state, m.n_states, "state vector")
    return _as_vector(m.dynamics(a, x), m.n_states, "dynamics result")


def eval_readout(m: Machine, state: Sequence[float] | np.ndarray) -> np.ndarray:
    x = _as_vector(state, m.n_states, "state vector")
    return _as_vector(m.readout(x), m.n_outputs, "readout result")


def eval_sharer(s: ResourceSharer, state: Sequence[float] | np.ndarray) -> np.ndarray:
    x = _as_vector(state, s.n_states, "state vector")
    return _as_vector(s.dynamics(x), s.n_states, "dynamics result")


def _common_kind(kinds: list[Kind], what: str) -> Kind:
    distinct = set(kinds)
    if len(distinct) > 1:
        raise KindError(f"cannot compose mixed kinds {sorted(distinct)} of {what}")
    return kinds[0] if kinds else "continuous"


class _Box(NamedTuple):
    """One box of a composite: its system, its state slice, its port indices."""

    system: Machine | ResourceSharer
    states: slice
    ins: np.ndarray | None
    outs: np.ndarray | None
    readout_of: str  # names the box in size errors
    dynamics_of: str


class _BoxPlan:
    """How a composite evaluates its boxes: one block call per shared kernel.

    Boxes that share a ``kernel`` object with another box form a group,
    evaluated by one kernel call on a ``(k, n)`` block gathered by index
    arrays.  The other boxes (singletons and systems without a kernel, such
    as hand-written callables) are called one by one with size checks.
    Groups run first and only flag trouble; if one does, the whole phase is
    redone box by box in box order, so the scalar closures raise exactly the
    error, from exactly the box, that an unbatched composite would.

    ``in_ports[i]`` / ``out_ports[i]`` index box ``i``'s ports in the
    composite's port vectors (directed composites only).
    """

    def __init__(
        self,
        systems: Sequence[Machine] | Sequence[ResourceSharer],
        offs: np.ndarray,
        in_ports: Sequence[Sequence[int]] = (),
        out_ports: Sequence[Sequence[int]] = (),
    ):
        bounds = offs.tolist()
        self.boxes = [
            _Box(
                s,
                slice(bounds[i], bounds[i + 1]),
                np.asarray(in_ports[i], dtype=np.intp) if in_ports else None,
                np.asarray(out_ports[i], dtype=np.intp) if out_ports else None,
                f"readout of box {i}",
                f"dynamics of box {i}",
            )
            for i, s in enumerate(systems)
        ]
        members: dict[BatchKernel, list[int]] = {}
        for i, s in enumerate(systems):
            if s.kernel is not None:
                members.setdefault(s.kernel, []).append(i)
        self.groups = []
        grouped: set[int] = set()
        for kernel, idx in members.items():
            if len(idx) < 2:
                continue
            grouped.update(idx)
            states = offs[idx][:, None] + np.arange(systems[idx[0]].n_states)
            ins = np.array([in_ports[i] for i in idx], dtype=np.intp) if in_ports else None
            outs = np.array([out_ports[i] for i in idx], dtype=np.intp) if out_ports else None
            self.groups.append((kernel, states, ins, outs))
        self.singles = [b for i, b in enumerate(self.boxes) if i not in grouped]

    def readouts(self, x: np.ndarray, o: np.ndarray) -> None:
        """Write every box's readout of ``x`` into the out-port vector ``o``."""
        boxes = self.singles
        for kernel, states, _, outs in self.groups:
            block, ok = kernel.readout(x[states])
            if not ok:
                boxes = self.boxes
                break
            o[outs] = block
        for b in boxes:
            o[b.outs] = _as_vector(b.system.readout(x[b.states]), b.system.n_outputs, b.readout_of)

    def dynamics(self, x: np.ndarray, out: np.ndarray, feed: np.ndarray | None = None) -> None:
        """Write every box's dynamics into ``out``; ``feed`` holds the in-port
        values of machines and is ``None`` for sharers."""
        boxes = self.singles
        for kernel, states, ins, _ in self.groups:
            if feed is None:
                block, ok = kernel.dynamics(x[states])
            else:
                block, ok = kernel.dynamics(feed[ins], x[states])
            if not ok:
                boxes = self.boxes
                break
            out[states] = block
        for b in boxes:
            s = b.system
            v = s.dynamics(x[b.states]) if feed is None else s.dynamics(feed[b.ins], x[b.states])
            out[b.states] = _as_vector(v, s.n_states, b.dynamics_of)


def _oapply_transport(
    machines: Sequence[Machine],
    n_outer_in: int,
    n_outer_out: int,
    in_ports: Sequence[Sequence[int]],
    out_ports: Sequence[Sequence[int]],
    inward: tuple[np.ndarray, np.ndarray],
    outward: tuple[np.ndarray, np.ndarray],
) -> Machine:
    """The directed composite over one (gather, scatter) transport per direction.

    ``inward`` sums ``concat(readouts, inputs)[gather]`` into in-ports
    ``scatter``; ``outward`` sums ``readouts[gather]`` into outer out-ports.
    Each is one fiber sum in index order, so box wires are listed first.
    """
    kind = _common_kind([m.kind for m in machines], "machines")
    n_pin = sum(len(p) for p in in_ports)
    n_pout = sum(len(p) for p in out_ports)
    offs = np.cumsum([0] + [m.n_states for m in machines])
    n_states = int(offs[-1])
    plan = _BoxPlan(machines, offs, in_ports, out_ports)
    feed_from, feed_to = inward
    out_from, out_to = outward

    def all_readouts(x: np.ndarray) -> np.ndarray:
        o = np.empty(n_pout, dtype=np.float64)
        plan.readouts(x, o)
        return o

    def dynamics(a: np.ndarray, x: np.ndarray) -> np.ndarray:
        a = _as_vector(a, n_outer_in, "input vector")
        x = _as_vector(x, n_states, "state vector")
        values = np.concatenate([all_readouts(x), a])
        out = np.empty(n_states, dtype=np.float64)
        plan.dynamics(x, out, fiber_sum(feed_to, values[feed_from], n_pin))
        return out

    def readout(x: np.ndarray) -> np.ndarray:
        x = _as_vector(x, n_states, "state vector")
        return fiber_sum(out_to, all_readouts(x)[out_from], n_outer_out)

    return Machine(n_outer_in, n_states, n_outer_out, dynamics, readout, kind)


def _indices(*columns: Sequence[int]) -> np.ndarray:
    return np.concatenate([np.asarray(c, dtype=np.intp) for c in columns])


def oapply_directed(d: DWDiagram, machines: Sequence[Machine]) -> Machine:
    """Compose machines over a directed wiring diagram.

    Evaluation order per step: all readouts first (they depend on state
    only), then all in-port sums, then all dynamics; feedback loops resolve
    in one pass.  An in-port fed by several wires receives their sum, box
    wires first; one fed by none receives 0.0.  Boxes sharing a ``kernel``
    run as one group, the others through their scalar callables.
    """
    if len(machines) != d.n_boxes:
        raise ArityError(f"diagram has {d.n_boxes} boxes but {len(machines)} machines were given")
    for i, (m, (n_in, n_out)) in enumerate(zip(machines, d.signature)):
        if (m.n_inputs, m.n_outputs) != (n_in, n_out):
            raise ArityError(
                f"box {i} expects (in, out) = ({n_in}, {n_out}), "
                f"machine has ({m.n_inputs}, {m.n_outputs})"
            )
    parts = d.data.parts
    src_in = _indices(parts["src_in"]) + d.data.card["P_out"]
    inward = (_indices(parts["src"], src_in), _indices(parts["tgt"], parts["tgt_in"]))
    outward = (_indices(parts["src_out"]), _indices(parts["tgt_out"]))
    return _oapply_transport(
        machines, d.n_outer_in, d.n_outer_out, d.in_ports, d.out_ports, inward, outward
    )


@dataclass(frozen=True)
class UndirectedLayout:
    """How component states and junctions land in a composite's state space.

    ``state_injection`` maps the concatenated component states into the
    composite states; ``junction_injection`` maps diagram junctions there.
    """

    state_injection: FinFunction
    junction_injection: FinFunction


def oapply_undirected_with_layout(
    d: UWDiagram, sharers: Sequence[ResourceSharer]
) -> tuple[ResourceSharer, UndirectedLayout]:
    """Compose resource sharers over an undirected diagram, with provenance.

    States mapped to a common junction are glued by the pushout of the total
    portmap against the port-junction assignment.  A junction attached to no
    port contributes an inert extra state.  Sharers with a common ``kernel``
    run as one group, the others through their scalar callables.
    """
    if len(sharers) != d.n_boxes:
        raise ArityError(f"diagram has {d.n_boxes} boxes but {len(sharers)} sharers were given")
    for i, (s, want) in enumerate(zip(sharers, d.port_counts)):
        if s.n_ports != want:
            raise ArityError(f"box {i} expects {want} ports, sharer has {s.n_ports}")
    kind = _common_kind([s.kind for s in sharers], "sharers")

    offs = np.cumsum([0] + [s.n_states for s in sharers])
    n_states_total = int(offs[-1])
    # Total portmap over the diagram's global port order.
    total_map = [0] * len(d.data.parts["box"])
    for i, ports in enumerate(d.box_ports):
        s = sharers[i]
        for slot, port in enumerate(ports):
            total_map[port] = int(offs[i]) + s.portmap.map[slot]
    p_total = FinFunction(len(total_map), n_states_total, tuple(total_map))
    q_junc = d.data.part_fn("junc_in")

    po = pushout(p_total, q_junc)
    state_inj, junc_inj = po.inj_left, po.inj_right
    n_states = po.apex_size
    plan = _BoxPlan(sharers, offs)

    def dynamics(x: np.ndarray) -> np.ndarray:
        x = _as_vector(x, n_states, "state vector")
        y = pullback_vec(state_inj, x)
        out = np.empty(n_states_total, dtype=np.float64)
        plan.dynamics(y, out)
        if kind == "continuous":
            return pushforward_vec(state_inj, out)
        # A discrete box returns its next state; glued states add their increments.
        return x + pushforward_vec(state_inj, out - y)

    portmap = compose(d.data.part_fn("junc_out"), junc_inj)
    sharer = ResourceSharer(d.n_outer, n_states, portmap, dynamics, kind)
    return sharer, UndirectedLayout(state_inj, junc_inj)


def oapply_undirected(d: UWDiagram, sharers: Sequence[ResourceSharer]) -> ResourceSharer:
    """Compose resource sharers over an undirected diagram."""
    return oapply_undirected_with_layout(d, sharers)[0]


def oapply_cpg(g: CPGraph, machines: Sequence[Machine]) -> Machine:
    """Compose machines over a circular port graph.

    The composite of ``oapply_directed(cpg_to_dwd(g), machines)``, with the
    transport read from the CPG tables: each port is both an in-port and an
    out-port of its box, and outer port ``q`` feeds and reads ``expose[q]``.
    """
    if len(machines) != g.n_boxes:
        raise ArityError(f"diagram has {g.n_boxes} boxes but {len(machines)} machines were given")
    for i, (m, want) in enumerate(zip(machines, g.port_counts)):
        if (m.n_inputs, m.n_outputs) != (want, want):
            raise ArityError(
                f"box {i} expects {want} inputs and outputs, "
                f"machine has ({m.n_inputs}, {m.n_outputs})"
            )
    parts = g.data.parts
    outer = np.arange(g.n_outer, dtype=np.intp)
    src_in = outer + len(parts["box"])
    inward = (_indices(parts["src"], src_in), _indices(parts["tgt"], parts["expose"]))
    outward = (_indices(parts["expose"]), outer)
    return _oapply_transport(
        machines, g.n_outer, g.n_outer, g.box_ports, g.box_ports, inward, outward
    )


def euler_directed(m: Machine, h: float) -> Machine:
    """Explicit Euler step of a continuous machine: ``x + h * u(a, x)``."""
    if m.kind != "continuous":
        raise KindError("euler_directed requires a continuous machine")
    if not h > 0:
        raise ValueError("step size must be positive")
    u = m.dynamics

    def step(a: np.ndarray, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return x + h * np.asarray(u(a, x), dtype=np.float64)

    return Machine(m.n_inputs, m.n_states, m.n_outputs, step, m.readout, "discrete")


def euler_undirected(s: ResourceSharer, h: float) -> ResourceSharer:
    """Explicit Euler step of a continuous sharer: ``x + h * v(x)``."""
    if s.kind != "continuous":
        raise KindError("euler_undirected requires a continuous sharer")
    if not h > 0:
        raise ValueError("step size must be positive")
    v = s.dynamics

    def step(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return x + h * np.asarray(v(x), dtype=np.float64)

    return ResourceSharer(s.n_ports, s.n_states, s.portmap, step, "discrete")
