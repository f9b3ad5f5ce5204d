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

Every system carries a program (``_codegen``): a spec-built model's
equations, a composite over its boxes' programs (one ``Transport`` for both
directed syntaxes, a ``Gluing`` for the undirected one), the Euler map of a
program, or, for a system built from callables alone, an ``Opaque`` leaf
holding them.  Whether a program is **fused** is decided once, when it is
built: a model always is, an opaque leaf never, an Euler map when its
system is, and a composite when all its boxes are and its code, nested
composites and wiring included, has at most
``_codegen._FUSE_MAX_STATEMENTS`` statements.  Either way it runs as one
generated function.  ``_system`` builds every system that a program makes,
with the program's sizes and the callables ``callables_of`` gives: an
opaque leaf's own, else calls of the program's array callables, generated
per system on the first call; ``_codegen._compile`` compiles equal sources
once.

- **Fused:** a function over Python floats (its array callables convert
  each argument with ``as_vector``): each box's equations inlined
  with its parameters as literals, the transport and the gluing unrolled
  into sums in the order ``finset.fiber_sum`` adds, so a composite of
  composites flattens into one function, and so does the Euler map of a
  composite or a composite of Euler maps.
- **Box by box** otherwise: a function over float64 arrays.  Boxes whose
  fused programs are equal (as those of equal
  instantiated specs and of their Euler maps are, however made) run as one
  batch kernel call per group (``_codegen.BoxPlan``); another fused box is
  called, a box-by-box composite or Euler map is inlined, and an opaque
  leaf's callables are called.

Values and errors are bitwise those of the boxes' closures called in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import attrgetter
from typing import Callable, Literal, Sequence

import numpy as np

from ._codegen import Euler, Gluing, Opaque, Program, Transport, callables_of
from ._codegen import as_vector as _as_vector
from .errors import ArityError, KindError, SizeMismatchError
from .finset import FinFunction, compose, pushout
from .wiring import CPGraph, DWDiagram, UWDiagram, _Fibers, cpg_to_dwd

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
    returns the output vector and may depend on state only.  ``program`` is
    the same system in the one form a composite reads (see the module
    docstring); a machine built without one gets an ``Opaque`` leaf of its
    callables, and one of other sizes is refused.  Machines compare by their
    other fields.
    """

    n_inputs: int
    n_states: int
    n_outputs: int
    dynamics: Dynamics
    readout: Readout
    kind: Kind
    program: Program | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        _carry_program(self, self.n_inputs, self.n_outputs, self.readout, True)


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
    program: Program | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.portmap.dom_size != self.n_ports or self.portmap.cod_size != self.n_states:
            raise SizeMismatchError(
                f"portmap is {self.portmap.dom_size}->{self.portmap.cod_size}, "
                f"expected {self.n_ports}->{self.n_states}"
            )
        _carry_program(self, 0, 0, None, False)


def _carry_program(
    system: Machine | ResourceSharer, n_inputs: int, n_outputs: int,
    readout: Readout | None, machine: bool,
) -> None:
    """Give a system built without a program an ``Opaque`` leaf of its
    callables; refuse a program whose sizes are not the system's."""
    sizes, program = (n_inputs, system.n_states, n_outputs), system.program
    if program is None:
        object.__setattr__(system, "program", Opaque(*sizes, system.dynamics, readout, machine))
        return
    have = (program.n_inputs, program.n_states, program.n_outputs)
    if have != sizes:
        raise SizeMismatchError(f"program has (inputs, states, outputs) = {have}, system has {sizes}")


def _system(
    program: Program, kind: Kind, portmap: FinFunction | None = None
) -> Machine | ResourceSharer:
    """The machine, or with ``portmap`` the sharer, that ``program`` is: its
    sizes are the program's, and its callables those ``callables_of`` gives."""
    if portmap is None:
        f, g = callables_of(program, True)
        return Machine(program.n_inputs, program.n_states, program.n_outputs, f, g, kind, program)
    f = callables_of(program, False)[0]
    return ResourceSharer(portmap.dom_size, program.n_states, portmap, f, kind, program)


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


def _misfit(machines: Sequence[Machine], ins: _Fibers, outs: _Fibers) -> int | None:
    """The first box whose machine's (inputs, outputs) differ from its port counts."""
    have = list(map(attrgetter("n_inputs"), machines)), list(map(attrgetter("n_outputs"), machines))
    want = ins.sizes().tolist(), outs.sizes().tolist()
    if have == want:
        return None
    return next(i for i, h, w in zip(range(len(machines)), zip(*have), zip(*want)) if h != w)


def oapply_directed(d: DWDiagram, machines: Sequence[Machine]) -> Machine:
    """Compose machines over a directed wiring diagram.

    Evaluation order per step: all readouts first (they depend on state
    only), then all in-port sums, then all dynamics; feedback loops resolve
    in one pass.  An in-port fed by several wires receives their sum, box
    wires first; one fed by none receives 0.0.  The composite's program is a
    ``Transport`` over the machines' programs, fused or evaluated box by box
    as the module docstring says.
    """
    ins, outs = d.ports("box_in"), d.ports("box_out")
    return _directed(d, machines, ins, outs, "box {i} expects (in, out) = ({n_in}, {n_out})")


def _directed(
    d: DWDiagram, machines: Sequence[Machine], ins: _Fibers, outs: _Fibers, expects: str
) -> Machine:
    """The composite over ``d``, whose ports are grouped by box in ``ins`` and
    ``outs``; a misfit is refused with ``expects`` on ``i``, ``n_in``, ``n_out``."""
    if len(machines) != d.n_boxes:
        raise ArityError(f"diagram has {d.n_boxes} boxes but {len(machines)} machines were given")
    i = _misfit(machines, ins, outs)
    if i is not None:
        n_in, n_out = ins.sizes()[i], outs.sizes()[i]
        raise ArityError(
            f"{expects.format(i=i, n_in=n_in, n_out=n_out)}, "
            f"machine has ({machines[i].n_inputs}, {machines[i].n_outputs})"
        )
    kind = _common_kind([m.kind for m in machines], "machines")
    src_in = d.column("src_in") + d.data.card["P_out"]
    tgt = np.concatenate((d.column("tgt"), d.column("tgt_in")))
    inward = (np.concatenate((d.column("src"), src_in)), tgt)
    outward = (d.column("src_out"), d.column("tgt_out"))
    boxes = list(map(attrgetter("program"), machines))
    return _system(Transport(boxes, d.n_outer_in, d.n_outer_out, ins, outs, inward, outward), kind)


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
    port contributes an inert extra state.  The composite's program is a
    ``Gluing`` over the sharers' programs, fused or evaluated box by box as
    the module docstring says.
    """
    if len(sharers) != d.n_boxes:
        raise ArityError(f"diagram has {d.n_boxes} boxes but {len(sharers)} sharers were given")
    ports = d.ports("box")
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
    portmap = compose(d.data.part_fn("junc_out"), po.inj_right)
    program = Gluing(list(map(attrgetter("program"), sharers)), po.inj_left, kind == "discrete")
    return _system(program, kind, portmap), UndirectedLayout(po.inj_left, po.inj_right)


def oapply_undirected(d: UWDiagram, sharers: Sequence[ResourceSharer]) -> ResourceSharer:
    """Compose resource sharers over an undirected diagram."""
    return oapply_undirected_with_layout(d, sharers)[0]


def oapply_cpg(g: CPGraph, machines: Sequence[Machine]) -> Machine:
    """Compose machines over a circular port graph: the composite over
    ``cpg_to_dwd(g)``, where each port is both an in-port and an out-port
    of its box, and outer port ``q`` feeds and reads ``expose[q]``."""
    ports, expects = g.ports("box"), "box {i} expects {n_in} inputs and outputs"
    return _directed(cpg_to_dwd(g), machines, ports, ports, expects)


def _euler(system: Machine | ResourceSharer, h: float, directed: bool) -> Euler:
    """The program of the explicit Euler map ``x + h * u`` of ``system``.
    Equal systems and steps give equal maps, however made, so they group
    and Euler-then-compose fuses too."""
    if system.kind != "continuous":
        what = "euler_directed requires a continuous machine"
        raise KindError(what if directed else "euler_undirected requires a continuous sharer")
    if not h > 0:
        raise ValueError("step size must be positive")
    return Euler(system.program, h)


def euler_directed(m: Machine, h: float) -> Machine:
    """Explicit Euler step of a continuous machine: ``x + h * u(a, x)``."""
    return _system(_euler(m, h, True), "discrete")


def euler_undirected(s: ResourceSharer, h: float) -> ResourceSharer:
    """Explicit Euler step of a continuous sharer: ``x + h * v(x)``."""
    return _system(_euler(s, h, False), "discrete", s.portmap)
