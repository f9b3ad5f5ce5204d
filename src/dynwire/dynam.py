"""Open dynamical systems and the four composition algebras.

A :class:`Machine` is a directed open system (inputs drive dynamics, a
state-only readout feeds other systems); a :class:`ResourceSharer` is an
undirected one (ports expose state variables to be identified).  Both come
in a continuous flavor, where ``dynamics`` is a vector field, and a discrete
one, where it is the next-state map.

A composite's states, inputs and outputs are the sums (coproducts) of its
boxes', and each wire end is renumbered once to match: box-major, by its
port's rank among the ports of its box column.  Both directed syntaxes (a
CPG read as a DWD through ``DWD_FROM_CPG``) become one transport over those
numbers: merged wires sum, wireless in-ports read exactly 0.0.  Undirected
composition glues states by a pushout.  Explicit Euler discretization
commutes with both, which the test suite exercises as the central oracle.

Every system carries a program (``_codegen``): a spec-built model's
equations, a composite over its boxes' programs (one ``Transport`` for both
directed syntaxes, a ``Gluing`` for the undirected one), the Euler map of a
program, or an ``Opaque`` leaf holding the callables of a system built from
them alone.  A program is **fused**, decided once when it is built, if it
is a model, an Euler map of a fused program, or a composite whose boxes all
are and whose code has at most ``_codegen._FUSE_MAX_STATEMENTS``
statements.  Either way it runs as one generated function.  ``_system``
builds every system that a program makes, its callables those
``callables_of`` gives; ``_codegen._compile`` compiles equal sources once.
The boxes are numbered by distinct system once (``_distinct``), and every
check and plan reads that column.

- **Fused:** a function over Python floats: each box's equations inlined
  with its parameters as literals, the transport and the gluing unrolled
  into sums in the order ``finset.fiber_sum`` adds, so nested composites
  and Euler maps of them flatten into one function.
- **Box by box** otherwise: index maps over float64 arrays.  A composite's
  wiring, composed once with the readouts that are bare states, gathers
  each step's box inputs from one buffer of its states, inputs and
  computed readouts, and sums only where a port has two wires or more;
  boxes whose fused programs are equal run as one batch kernel call on
  views of their box-major blocks (``_codegen.BoxPlan``); other fused
  boxes are called on slices, box-by-box composites and Euler maps are
  inlined, and opaque leaves' callables called.

Values and errors are bitwise those of the boxes' closures called in turn.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Literal, Sequence

import numpy as np

from ._codegen import Euler, Gluing, Opaque, Program, Transport, _offsets, callables_of
from ._codegen import as_vector as _as_vector
from .errors import ArityError, ConfigError, KindError, SizeMismatchError
from .finset import _ARRAY_ENTRIES, FinFunction, compose, pushout
from .wiring import CPGraph, DWDiagram, UWDiagram, cpg_to_dwd

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


def _distinct(boxes: Sequence) -> tuple[list, np.ndarray]:
    """The distinct objects of ``boxes``, in first-seen order, and the index
    among them of each box's: what every later check and plan reads, made
    once and by ``id``, without hashing any system or program."""
    # One object, as in a grid: at 1024 boxes, 21 us against 150 by the dicts.
    if boxes and all(map(operator.is_, boxes, repeat(boxes[0]))):
        return [boxes[0]], np.zeros(len(boxes), np.intp)
    ids = list(map(id, boxes))
    objects = dict(zip(ids, boxes))
    index = dict(zip(objects, range(len(objects))))
    return list(objects.values()), np.fromiter(map(index.__getitem__, ids), np.intp, len(ids))


def _checked(
    d, systems: list, column: np.ndarray, have: list, want: list, misfit: Callable, what: str
) -> Kind:
    """The kind of the boxes ``systems[column[i]]`` of ``d``, checked: their
    count; each box's port counts, of its system in each list of ``have``
    and of the diagram in each array of ``want``, the first misfit refused
    with ``misfit(i)``; and a common kind, refused naming the first box
    whose kind is not box 0's."""
    if column.size != d.n_boxes:
        raise ArityError(f"diagram has {d.n_boxes} boxes but {column.size} {what} were given")
    # As in ``_codegen._offsets``, Python ints below ``_ARRAY_ENTRIES`` boxes: per
    # list 2.0 against 6.7 us for 3 boxes, and 57 against 10 us at 1024.
    if column.size < _ARRAY_ENTRIES:
        fits = all(list(map(h.__getitem__, column.tolist())) == w.tolist() for h, w in zip(have, want))
    else:
        fits = all((np.array(h, np.intp)[column] == w).all() for h, w in zip(have, want))
    if not fits:
        bad = np.logical_or.reduce([np.array(h, np.intp)[column] != w for h, w in zip(have, want)])
        raise ArityError(misfit(int(bad.argmax())))
    kinds = [s.kind for s in systems]
    if len(set(kinds)) > 1:
        i = int(np.argmax(np.array(kinds)[column] != kinds[0]))
        where = f"box {i} is {kinds[column[i]]}, box 0 is {kinds[0]}"
        raise KindError(f"cannot compose mixed kinds {sorted(set(kinds))} of {what}: {where}")
    return kinds[0] if kinds else "continuous"


def oapply_directed(d: DWDiagram, machines: Sequence[Machine]) -> Machine:
    """Compose machines over a directed wiring diagram.

    Evaluation order per step: all readouts first (they depend on state
    only), then all in-port sums, then all dynamics; feedback loops resolve
    in one pass.  An in-port fed by several wires receives their sum, box
    wires first; one fed by none receives 0.0.  The composite's program is a
    ``Transport`` over the machines' programs, fused or evaluated box by box
    as the module docstring says.
    """
    return _directed(d, *_distinct(machines))


def _directed(d: DWDiagram | CPGraph, machines: list[Machine], column: np.ndarray) -> Machine:
    """The composite over ``d`` (a CPG: over ``cpg_to_dwd(d)``, each port
    both an in-port and an out-port) of the boxes ``machines[column[i]]``."""
    if isinstance(d, CPGraph):
        ins = outs = d.ports("box")
        d, expects = cpg_to_dwd(d), "box {i} expects {n_in} inputs and outputs"
    else:
        ins, outs = d.ports("box_in"), d.ports("box_out")
        expects = "box {i} expects (in, out) = ({n_in}, {n_out})"

    def misfit(i: int) -> str:
        m, n_in, n_out = machines[column[i]], ins.sizes()[i], outs.sizes()[i]
        has = f"machine has ({m.n_inputs}, {m.n_outputs})"
        return f"{expects.format(i=i, n_in=n_in, n_out=n_out)}, {has}"

    have = [m.n_inputs for m in machines], [m.n_outputs for m in machines]
    kind = _checked(d, machines, column, have, [ins.sizes(), outs.sizes()], misfit, "machines")
    # Wire ends renumbered box-major: the composite's ports are the sums of its boxes'.
    in_rank = ins.rank()
    out_rank = in_rank if outs is ins else outs.rank()
    src = np.concatenate((out_rank[d.column("src")], d.column("src_in") + out_rank.size))
    inward = (src, in_rank[np.concatenate((d.column("tgt"), d.column("tgt_in")))])
    outward = (out_rank[d.column("src_out")], d.column("tgt_out"))
    programs = [m.program for m in machines]
    return _system(Transport(
        programs, column, d.n_outer_in, d.n_outer_out, ins.bounds, outs.bounds, inward, outward
    ), kind)


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
    return _undirected(d, *_distinct(sharers))


def _undirected(
    d: UWDiagram, sharers: list[ResourceSharer], column: np.ndarray
) -> tuple[ResourceSharer, UndirectedLayout]:
    """``oapply_undirected_with_layout`` of the boxes ``sharers[column[i]]``."""
    ports = d.ports("box")
    sizes = ports.sizes()

    def misfit(i: int) -> str:
        return f"box {i} expects {sizes[i]} ports, sharer has {sharers[column[i]].n_ports}"

    kind = _checked(d, sharers, column, [[s.n_ports for s in sharers]], [sizes], misfit, "sharers")
    offs, maps = _offsets([s.n_states for s in sharers], column), [s.portmap.map for s in sharers]
    # The ports box-major, the sum of the sharers' (the pushout's classes do not
    # depend on that order): each maps by its box's portmap, shifted, and to its junction.
    n = ports.order.size
    slots = np.fromiter(chain.from_iterable(map(maps.__getitem__, column.tolist())), np.intp, n)
    p_total = FinFunction(n, int(offs[-1]), slots + np.repeat(offs[:-1], sizes))
    q_junc = FinFunction(n, d.n_junctions, d.column("junc_in")[ports.order])

    po = pushout(p_total, q_junc)
    portmap = compose(d.data.part_fn("junc_out"), po.inj_right)
    program = Gluing([s.program for s in sharers], column, po.inj_left, kind == "discrete")
    return _system(program, kind, portmap), UndirectedLayout(po.inj_left, po.inj_right)


def oapply_undirected(d: UWDiagram, sharers: Sequence[ResourceSharer]) -> ResourceSharer:
    """Compose resource sharers over an undirected diagram."""
    return oapply_undirected_with_layout(d, sharers)[0]


def oapply_cpg(g: CPGraph, machines: Sequence[Machine]) -> Machine:
    """Compose machines over a circular port graph: the composite over
    ``cpg_to_dwd(g)``, where each port is both an in-port and an out-port
    of its box, and outer port ``q`` feeds and reads ``expose[q]``."""
    return _directed(g, *_distinct(machines))


def _euler(system: Machine | ResourceSharer, h: float, directed: bool) -> Euler:
    """The program of the explicit Euler map ``x + h * u`` of ``system``.
    Equal systems and steps give equal maps, however made, so they group
    and Euler-then-compose fuses too."""
    if system.kind != "continuous":
        what = "euler_directed requires a continuous machine"
        raise KindError(what if directed else "euler_undirected requires a continuous sharer")
    if not h > 0:
        raise ConfigError(f"step size h must be positive, got {h!r}")
    return Euler(system.program, h)


def euler_directed(m: Machine, h: float) -> Machine:
    """Explicit Euler step of a continuous machine: ``x + h * u(a, x)``."""
    return _system(_euler(m, h, True), "discrete")


def euler_undirected(s: ResourceSharer, h: float) -> ResourceSharer:
    """Explicit Euler step of a continuous sharer: ``x + h * v(x)``."""
    return _system(_euler(s, h, False), "discrete", s.portmap)
