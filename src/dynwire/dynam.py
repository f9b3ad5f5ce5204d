"""Open dynamical systems and the four composition algebras.

A :class:`Machine` is a directed open system (inputs drive dynamics, a
state-only readout feeds other systems); a :class:`ResourceSharer` is an
undirected one (ports expose state variables to be identified).  Both come
in a continuous flavor, where ``dynamics`` is a vector field, and a discrete
one, where it is the next-state map.

Both directed syntaxes (a CPG read as a DWD through ``DWD_FROM_CPG``)
become one gather/scatter transport: merged wires sum, wireless in-ports
read exactly 0.0.  Undirected composition glues states by a pushout.
Explicit Euler discretization commutes with both compositions, which the
test suite exercises as the central oracle.

A composite is evaluated one of two ways:

- **Fused**, when every box carries a ``program`` (spec-built models do, and
  so do composites fused from them and their Euler maps) and the
  composite's code, nested composites and wiring included, has at most
  ``_FUSE_MAX_STATEMENTS`` statements.  The composite is then one generated
  function over Python floats: each box's equations inlined with its
  parameters as literals, the transport and the gluing unrolled into sums in
  the order ``finset.fiber_sum`` adds.  It carries its own program, so a
  composite of composites flattens into one function, and so does the Euler
  map of a composite or a composite of Euler maps.  Its ``dynamics`` and
  ``readout`` convert their arrays to floats and back around that function;
  ``sim.run_trajectory`` steps the floats directly.  Values and errors are
  bitwise those of the boxes' closures called in turn.  The generated code
  is cached by the value of the diagram and the boxes.
- **Box by box** otherwise: a closure over the diagram that evaluates the
  boxes sharing a program (as equal instantiated specs and their Euler maps
  do) in one call per group of the batch kernel generated from it, and the
  rest through their own callables.  Its plan is built from the diagram's
  index columns with a few numpy calls per group; per-box records exist
  only for the boxes called alone, and for every box once a group has
  flagged an error and the phase is redone box by box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from operator import attrgetter
from typing import Callable, Iterable, Literal, NamedTuple, Sequence

import numpy as np

from ._codegen import Euler, Gluing, Program, Transport, arrays, compiled, kernels, raw
from ._codegen import as_vector as _as_vector
from .errors import ArityError, KindError, SizeMismatchError
from .finset import FinFunction, compose, fiber_sum, pullback_vec, pushforward_vec, pushout
from .wiring import CPGraph, DWDiagram, UWDiagram

__all__ = [
    "Kind",
    "Machine",
    "ResourceSharer",
    "eval_dynamics",
    "eval_readout",
    "eval_sharer",
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


@dataclass(frozen=True)
class Machine:
    """A directed open system with ``n_states`` state variables.

    ``dynamics(inputs, state)`` returns a state-sized vector, read as the
    derivative (continuous) or the next state (discrete); ``readout(state)``
    returns the output vector and may depend on state only.  ``program``, if
    given, is the same equations in the one form a composite reads: it is
    inlined into a small composite's code, and a larger one evaluates the
    boxes that share it through one batch kernel generated from it.
    """

    n_inputs: int
    n_states: int
    n_outputs: int
    dynamics: Dynamics
    readout: Readout
    kind: Kind
    program: Program | None = None


@dataclass(frozen=True)
class ResourceSharer:
    """An undirected open system: ports expose state variables via ``portmap``.

    ``program`` is as for :class:`Machine`.
    """

    n_ports: int
    n_states: int
    portmap: FinFunction
    dynamics: SharerDynamics
    kind: Kind
    program: Program | None = None

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


# A composite whose boxes all carry a program is fused into one generated
# function if that function has at most this many statements (its
# ``Program.statements``: the boxes' operations and output checks, plus one
# addition per wire); larger ones evaluate their boxes through _BoxPlan.
# Fused code costs per statement, a numpy group call mostly per group, and
# this is where the two cross on heat grids (see CHANGES.md).
_FUSE_MAX_STATEMENTS = 1500


def _programs(
    systems: Sequence[Machine] | Sequence[ResourceSharer], glue: int
) -> list[Program] | None:
    """The boxes' programs, if every box carries one and the fused code,
    with ``glue`` statements of the composite's own, is small enough."""
    programs, statements = [], glue
    for s in systems:
        if s.program is None or statements > _FUSE_MAX_STATEMENTS:
            return None
        programs.append(s.program)
        statements += s.program.statements
    return programs if statements <= _FUSE_MAX_STATEMENTS else None


class _Fibers(NamedTuple):
    """The fibers of a map given as a column of codes: the elements sent to
    code ``c`` are ``order[bounds[c]:bounds[c + 1]]``, ascending.

    ``order`` is the stable argsort of the column and ``bounds`` the running
    sum of the fiber sizes.  Over a box column, a box's fiber is its ports in
    slot order.
    """

    order: np.ndarray
    bounds: np.ndarray

    @classmethod
    def of(cls, column: np.ndarray, n_codes: int) -> "_Fibers":
        bounds = np.zeros(n_codes + 1, dtype=np.intp)
        np.bincount(column, minlength=n_codes).cumsum(out=bounds[1:])
        return cls(column.argsort(kind="stable"), bounds)

    def sizes(self) -> np.ndarray:
        return self.bounds[1:] - self.bounds[:-1]

    def block(self, codes: np.ndarray, k: int) -> np.ndarray:
        """The fibers of ``codes``, ``k`` elements each, one code per row."""
        return self.order[self.bounds[codes][:, None] + np.arange(k)]

    def split(self, codes: Iterable[int]) -> list[np.ndarray]:
        """The fiber of each of ``codes``, as views of ``order``."""
        b = self.bounds.tolist()
        return [self.order[b[c]:b[c + 1]] for c in codes]


class _Box(NamedTuple):
    """One box of a composite: its system, its state slice, its port indices."""

    system: Machine | ResourceSharer
    states: slice
    ins: np.ndarray | None
    outs: np.ndarray | None
    readout_of: str  # names the box in size errors
    dynamics_of: str


class _BoxPlan:
    """How a composite evaluates its boxes: one block call per shared program.

    Boxes that share a ``program`` object with another box form a group,
    evaluated by one call of that program's batch kernel on a ``(k, n)``
    block.  The plan is read off the diagram's columns: one pass over the
    identities of the boxes' programs forms the groups, a group's state block
    is its boxes' state offsets plus ``arange(n)``, and its port blocks come
    from the port order of the box columns (``ins`` and ``outs``, directed
    composites only).  The other boxes (singletons and systems without a
    program, such as hand-written callables) are called one by one with size
    checks, through a :class:`_Box` record each.  Groups run first and only
    flag trouble; if one does, the whole phase is redone box by box in box
    order, so the scalar closures raise exactly the error, from exactly the
    box, that an unbatched composite would.  The records of every box that
    this walks are built the first time a group flags, then kept.
    """

    def __init__(
        self,
        systems: Sequence[Machine] | Sequence[ResourceSharer],
        offs: np.ndarray,
        ins: _Fibers | None = None,
        outs: _Fibers | None = None,
    ):
        # A copy: the fallback's records are built later, from these systems.
        self.systems, self.offs, self.ins, self.outs = tuple(systems), offs, ins, outs
        # By identity: ``id`` is a C call, hashing a program's value a Python one.
        programs = list(map(attrgetter("program"), systems))
        ids = list(map(id, programs))
        heads = dict(zip(ids, programs))  # one program per code, in first-seen order
        code = {k: c for c, k in enumerate(heads)}
        column = np.fromiter(map(code.__getitem__, ids), np.intp, len(ids))
        groups = _Fibers.of(column, len(code)).split(range(len(code)))
        self.groups, alone = [], []
        for program, rows in zip(heads.values(), groups):
            if program is None or len(rows) < 2:
                alone += rows.tolist()
                continue
            s = systems[rows[0]]
            states = offs[rows][:, None] + np.arange(s.n_states)
            block_ins = ins.block(rows, s.n_inputs) if ins is not None else None
            block_outs = outs.block(rows, s.n_outputs) if outs is not None else None
            self.groups.append((*kernels(program, ins is not None), states, block_ins, block_outs))
        self.singles = self._records(sorted(alone))

    def _records(self, boxes: list[int]) -> list[_Box]:
        offs = self.offs.tolist()
        none = [None] * len(boxes)
        ins = self.ins.split(boxes) if self.ins is not None else none
        outs = self.outs.split(boxes) if self.outs is not None else none
        return [
            _Box(
                self.systems[i], slice(offs[i], offs[i + 1]), a, o,
                f"readout of box {i}", f"dynamics of box {i}",
            )
            for i, a, o in zip(boxes, ins, outs)
        ]

    @cached_property
    def boxes(self) -> list[_Box]:
        """Every box in box order: what the scalar fallback walks."""
        return self._records(list(range(len(self.systems))))

    def readouts(self, x: np.ndarray, o: np.ndarray) -> None:
        """Write every box's readout of ``x`` at its out-ports in ``o``."""
        boxes = self.singles
        for _, readout, states, _, outs in self.groups:
            block, ok = readout(x[states])
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
        for dynamics, _, states, ins, _ in self.groups:
            if feed is None:
                block, ok = dynamics(x[states])
            else:
                block, ok = dynamics(feed[ins], x[states])
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
    ins: _Fibers,
    outs: _Fibers,
    inward: tuple[np.ndarray, np.ndarray],
    outward: tuple[np.ndarray, np.ndarray],
) -> Machine:
    """The directed composite over one (gather, scatter) transport per direction.

    ``inward`` sums ``concat(readouts, inputs)[gather]`` into in-ports
    ``scatter``; ``outward`` sums ``readouts[gather]`` into outer out-ports.
    Each is one fiber sum in index order, so box wires are listed first.
    ``ins`` and ``outs`` group the in-ports and out-ports by box.
    """
    kind = _common_kind([m.kind for m in machines], "machines")
    programs = _programs(machines, Transport.glue(inward, outward))
    if programs is not None:
        every = range(len(machines))
        program = Transport(
            programs, n_outer_in, n_outer_out, ins.split(every), outs.split(every), inward, outward
        )
        dynamics, readout = compiled(program, True)
        n_states = program.n_states
        return Machine(n_outer_in, n_states, n_outer_out, dynamics, readout, kind, program)
    n_pin, n_pout = len(ins.order), len(outs.order)
    offs = np.fromiter(accumulate(map(attrgetter("n_states"), machines), initial=0), np.intp)
    n_states = int(offs[-1])
    plan = _BoxPlan(machines, offs, ins, outs)
    feed_from, feed_to = inward
    out_from, out_to = outward

    def dynamics(a: np.ndarray, x: np.ndarray) -> np.ndarray:
        a = _as_vector(a, n_outer_in, "input vector")
        x = _as_vector(x, n_states, "state vector")
        values = np.empty(n_pout + n_outer_in, dtype=np.float64)  # readouts, then inputs
        plan.readouts(x, values)
        values[n_pout:] = a
        out = np.empty(n_states, dtype=np.float64)
        plan.dynamics(x, out, fiber_sum(feed_to, values[feed_from], n_pin))
        return out

    def readout(x: np.ndarray) -> np.ndarray:
        x = _as_vector(x, n_states, "state vector")
        values = np.empty(n_pout, dtype=np.float64)
        plan.readouts(x, values)
        return fiber_sum(out_to, values[out_from], n_outer_out)

    return Machine(n_outer_in, n_states, n_outer_out, dynamics, readout, kind)


def _misfit(machines: Sequence[Machine], ins: _Fibers, outs: _Fibers) -> int | None:
    """The first box whose machine's (inputs, outputs) differ from its port counts."""
    have = list(map(attrgetter("n_inputs", "n_outputs"), machines))
    want = list(zip(ins.sizes().tolist(), outs.sizes().tolist()))
    if have == want:
        return None
    return next(i for i, (h, w) in enumerate(zip(have, want)) if h != w)


def oapply_directed(d: DWDiagram, machines: Sequence[Machine]) -> Machine:
    """Compose machines over a directed wiring diagram.

    Evaluation order per step: all readouts first (they depend on state
    only), then all in-port sums, then all dynamics; feedback loops resolve
    in one pass.  An in-port fed by several wires receives their sum, box
    wires first; one fed by none receives 0.0.  A small composite of boxes
    with programs is fused into one cached generated function (see the
    module docstring); otherwise boxes sharing a ``program`` run as one
    group and the others through their scalar callables.
    """
    if len(machines) != d.n_boxes:
        raise ArityError(f"diagram has {d.n_boxes} boxes but {len(machines)} machines were given")
    ins = _Fibers.of(d.column("box_in"), d.n_boxes)
    outs = _Fibers.of(d.column("box_out"), d.n_boxes)
    i = _misfit(machines, ins, outs)
    if i is not None:
        n_in, n_out = ins.sizes()[i], outs.sizes()[i]
        raise ArityError(
            f"box {i} expects (in, out) = ({n_in}, {n_out}), "
            f"machine has ({machines[i].n_inputs}, {machines[i].n_outputs})"
        )
    src_in = d.column("src_in") + d.data.card["P_out"]
    tgt = np.concatenate((d.column("tgt"), d.column("tgt_in")))
    inward = (np.concatenate((d.column("src"), src_in)), tgt)
    outward = (d.column("src_out"), d.column("tgt_out"))
    return _oapply_transport(machines, d.n_outer_in, d.n_outer_out, ins, outs, inward, outward)


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
    port contributes an inert extra state.  A small composite of sharers
    with programs is fused as in :func:`oapply_directed`; otherwise sharers
    with a common ``program`` run as one group and the others through their
    scalar callables.
    """
    if len(sharers) != d.n_boxes:
        raise ArityError(f"diagram has {d.n_boxes} boxes but {len(sharers)} sharers were given")
    ports = _Fibers.of(d.column("box"), d.n_boxes)
    have, sizes = [s.n_ports for s in sharers], ports.sizes().tolist()
    if have != sizes:
        i = next(i for i, (h, w) in enumerate(zip(have, sizes)) if h != w)
        raise ArityError(f"box {i} expects {sizes[i]} ports, sharer has {have[i]}")
    kind = _common_kind([s.kind for s in sharers], "sharers")

    offs = np.fromiter(accumulate(map(attrgetter("n_states"), sharers), initial=0), np.intp)
    n_states_total = int(offs[-1])
    # Total portmap over the diagram's global port order: the ports of each
    # box, in slot order, map to its portmap shifted by its state offset.
    total_map = np.empty(len(ports.order), dtype=np.intp)
    slots = np.fromiter(chain.from_iterable(s.portmap.map for s in sharers), np.intp)
    total_map[ports.order] = slots + np.repeat(offs[:-1], sizes)
    p_total = FinFunction(len(total_map), n_states_total, total_map)
    q_junc = d.data.part_fn("junc_in")

    po = pushout(p_total, q_junc)
    state_inj, junc_inj = po.inj_left, po.inj_right
    n_states = po.apex_size
    portmap = compose(d.data.part_fn("junc_out"), junc_inj)
    layout = UndirectedLayout(state_inj, junc_inj)
    discrete = kind == "discrete"
    programs = _programs(sharers, Gluing.glue(n_states_total, n_states, discrete))
    if programs is not None:
        program = Gluing(programs, state_inj.map, n_states, discrete)
        dynamics = compiled(program, False)[0]
        return ResourceSharer(d.n_outer, n_states, portmap, dynamics, kind, program), layout
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

    return ResourceSharer(d.n_outer, n_states, portmap, dynamics, kind), layout


def oapply_undirected(d: UWDiagram, sharers: Sequence[ResourceSharer]) -> ResourceSharer:
    """Compose resource sharers over an undirected diagram."""
    return oapply_undirected_with_layout(d, sharers)[0]


def oapply_cpg(g: CPGraph, machines: Sequence[Machine]) -> Machine:
    """Compose machines over a circular port graph.

    The composite of ``oapply_directed(cpg_to_dwd(g), machines)``, with the
    transport read from the CPG tables: each port is both an in-port and an
    out-port of its box, and outer port ``q`` feeds and reads ``expose[q]``.
    Fused or evaluated box by box as in :func:`oapply_directed`.
    """
    if len(machines) != g.n_boxes:
        raise ArityError(f"diagram has {g.n_boxes} boxes but {len(machines)} machines were given")
    ports = _Fibers.of(g.column("box"), g.n_boxes)
    i = _misfit(machines, ports, ports)
    if i is not None:
        raise ArityError(
            f"box {i} expects {ports.sizes()[i]} inputs and outputs, "
            f"machine has ({machines[i].n_inputs}, {machines[i].n_outputs})"
        )
    expose = g.column("expose")
    outer = np.arange(g.n_outer, dtype=np.intp)
    src_in = outer + len(ports.order)
    inward = (np.concatenate((g.column("src"), src_in)), np.concatenate((g.column("tgt"), expose)))
    outward = (expose, outer)
    return _oapply_transport(machines, g.n_outer, g.n_outer, ports, ports, inward, outward)


# Interned like the programs of instantiated specs: Euler maps of equal
# systems, made one by one, then share one program object and so group.
@lru_cache(maxsize=64)
def _euler_program(inner: Program, h: float) -> Euler:
    return Euler(inner, h)


def _euler(
    system: Machine | ResourceSharer, h: float, refusal: str
) -> tuple[Callable, Program | None]:
    """The dynamics and program of the explicit Euler map ``x + h * u`` of
    ``system``.  With a program, the map is the generated function of
    :class:`Euler` over it, one program object per ``(program, h)`` value,
    so Euler-then-compose fuses too."""
    if system.kind != "continuous":
        raise KindError(refusal)
    if not h > 0:
        raise ValueError("step size must be positive")
    if system.program is not None:
        program = _euler_program(system.program, float(h))
        return arrays(program, isinstance(system, Machine), raw(program))[0], program
    u = system.dynamics

    def step(*args: np.ndarray) -> np.ndarray:  # (a, x), or (x) for a sharer
        *a, x = args
        x = np.asarray(x, dtype=np.float64)
        return x + h * np.asarray(u(*a, x), dtype=np.float64)

    return step, None


def euler_directed(m: Machine, h: float) -> Machine:
    """Explicit Euler step of a continuous machine: ``x + h * u(a, x)``."""
    step, program = _euler(m, h, "euler_directed requires a continuous machine")
    return Machine(m.n_inputs, m.n_states, m.n_outputs, step, m.readout, "discrete", program)


def euler_undirected(s: ResourceSharer, h: float) -> ResourceSharer:
    """Explicit Euler step of a continuous sharer: ``x + h * v(x)``."""
    step, program = _euler(s, h, "euler_undirected requires a continuous sharer")
    return ResourceSharer(s.n_ports, s.n_states, s.portmap, step, "discrete", program)
