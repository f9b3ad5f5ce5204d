"""Wiring diagram types over the three built-in schemas, with substitution.

Diagrams are validated instance wrappers.  Substitution (``ocompose``)
replaces every box of an outer diagram by an inner diagram whose outer
interface matches that box; junctions are identified by a quotient and wires
are spliced by chaining through the identified interface ports.

Each syntax's identity, substitution, canonical form and DOT export sit in
one table keyed by diagram class, behind ``ocompose``, ``ocompose_at``,
``canonical`` and ``to_dot``.

Canonical forms make diagram equality decidable: ports are grouped by box,
junctions are renumbered by first use, and wire tables are sorted.  Two
diagrams represent the same term exactly when their canonical forms are
equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, ClassVar, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ._textcols import format_rows
from .cset import (
    CPG_SCHEMA,
    DWD_FROM_CPG,
    DWD_SCHEMA,
    UWD_SCHEMA,
    CSetInstance,
    Schema,
    migrate,
    validate,
)
from .errors import ArityError, DiagramError, DynwireError
from .finset import _classes, _first_use

__all__ = [
    "UWDiagram",
    "DWDiagram",
    "CPGraph",
    "identity_uwd",
    "identity_dwd",
    "identity_cpg",
    "ocompose",
    "ocompose_at",
    "ocompose_uwd",
    "ocompose_dwd",
    "ocompose_cpg",
    "ocompose_uwd_at",
    "ocompose_dwd_at",
    "ocompose_cpg_at",
    "cpg_to_dwd",
    "grid",
    "canonical",
    "to_dot",
]


class _Fibers:
    """The entries of a column grouped by value: over a box column, box
    ``b``'s ports are ``order[bounds[b]:bounds[b + 1]]``, ascending, which is
    their slot order.

    ``order`` is the stable argsort of the column and ``bounds`` the running
    sum of the boxes' port counts.  A diagram builds one per box column, on
    first use (:meth:`_Diagram.ports`); ``dynam`` also groups boxes by
    program with one.
    """

    def __init__(self, column: np.ndarray, n_boxes: int):
        self.column, self.n_boxes = column, n_boxes
        self.order = column.argsort(kind="stable")
        self._bounds: np.ndarray | None = None

    @property
    def bounds(self) -> np.ndarray:
        # One entry per box, so built only when read: a valid diagram may
        # have far more boxes than ports, and ``rank`` does without.
        if self._bounds is None:
            self._bounds = np.zeros(self.n_boxes + 1, dtype=np.intp)
            np.bincount(self.column, minlength=self.n_boxes).cumsum(out=self._bounds[1:])
        return self._bounds

    def sizes(self) -> np.ndarray:
        return self.bounds[1:] - self.bounds[:-1]

    def rank(self) -> np.ndarray:
        """Each port's position in ``order``: ``rank[order[k]] = k``."""
        rank = np.empty_like(self.order)
        rank[self.order] = np.arange(self.order.size)
        return rank

    def slots(self) -> np.ndarray:
        """Each port's slot: its position among the ports of its box."""
        return self.rank() - self.bounds[self.column]

    def block(self, boxes: np.ndarray, k: int) -> np.ndarray:
        """The ports of ``boxes``, ``k`` each, one box per row."""
        return self.order[self.bounds[boxes][:, None] + np.arange(k)]

    def split(self, boxes: Iterable[int]) -> list[np.ndarray]:
        """The ports of each of ``boxes``, as views of ``order``."""
        b = self.bounds.tolist()
        return [self.order[b[i]:b[i + 1]] for i in boxes]

    def tuples(self) -> tuple[tuple[int, ...], ...]:
        """The ports of every box, as tuples of ints."""
        order, b = self.order.tolist(), self.bounds.tolist()
        return tuple(map(tuple, map(order.__getitem__, map(slice, b, b[1:]))))


def _sorted_pairs(src: np.ndarray, tgt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of ``sorted(zip(src, tgt))``."""
    order = np.lexsort((tgt, src))
    return src[order], tgt[order]


def _unzip(pairs: Sequence[tuple[int, int]]) -> tuple[Sequence[int], Sequence[int]]:
    """The source and target columns of a list of (source, target) pairs."""
    src, tgt = tuple(zip(*pairs, strict=True)) or ((), ())
    return src, tgt


@dataclass(frozen=True)
class _Diagram:
    """A validated instance of the built-in schema ``schema``.

    An inner diagram fits box ``i`` when its ``outer_interface`` is ``interfaces[i]``.
    """

    data: CSetInstance
    schema: ClassVar[Schema]
    _mismatch: ClassVar[str]

    def __post_init__(self) -> None:
        name = self.schema.name
        if self.data.schema.name != name:
            raise DiagramError(f"expected a {name} instance, got {self.data.schema.name}")
        problems = validate(self.data)
        if problems:
            raise DiagramError(f"invalid {name} instance: " + "; ".join(str(v) for v in problems))

    @classmethod
    def _from_columns(cls, card: dict[str, int], columns: Mapping[str, Sequence[int]]):
        """Build from every morphism's column; each domain's card is its first column's length."""
        for m in cls.schema.morphisms:
            card.setdefault(m.dom, len(columns[m.name]))
        return cls(CSetInstance(cls.schema, card, columns))

    @property
    def n_boxes(self) -> int:
        return self.data.card["B"]

    def column(self, name: str) -> np.ndarray:
        """Morphism ``name``'s column: a read-only ``np.intp`` array."""
        return self.data.parts[name]

    def ports(self, column: str) -> _Fibers:
        """The ports of box column ``column`` grouped by box, built once."""
        index = self.__dict__.setdefault("_ports", {})
        if column not in index:
            index[column] = _Fibers(self.column(column), self.n_boxes)
        return index[column]


class _PortDiagram(_Diagram):
    """A diagram whose boxes and outer boundary each carry one list of ports."""

    _mismatch = "box {i} expects {want} ports, inner diagram exposes {got}"

    @property
    def n_outer(self) -> int:
        return self.data.card["Q"]

    @cached_property
    def box_ports(self) -> tuple[tuple[int, ...], ...]:
        """Global ports of each box, ascending; position gives the port slot."""
        return self.ports("box").tuples()

    @cached_property
    def port_counts(self) -> tuple[int, ...]:
        return tuple(self.ports("box").sizes().tolist())

    @property
    def interfaces(self) -> tuple[int, ...]:
        return self.port_counts

    @property
    def outer_interface(self) -> int:
        return self.n_outer


class UWDiagram(_PortDiagram):
    """An undirected wiring diagram: box ports and outer ports meet junctions."""

    schema = UWD_SCHEMA

    @classmethod
    def from_tables(
        cls,
        n_boxes: int,
        n_junctions: int,
        box: tuple[int, ...] | list[int],
        junc_in: tuple[int, ...] | list[int],
        junc_out: tuple[int, ...] | list[int],
    ) -> "UWDiagram":
        columns = {"box": box, "junc_in": junc_in, "junc_out": junc_out}
        return cls._from_columns({"B": n_boxes, "J": n_junctions}, columns)

    @property
    def n_junctions(self) -> int:
        return self.data.card["J"]


class DWDiagram(_Diagram):
    """A directed wiring diagram: wires carry values from out-ports to in-ports."""

    schema = DWD_SCHEMA
    _mismatch = "box {i} expects signature {want}, inner diagram has {got}"

    @classmethod
    def from_tables(
        cls,
        n_boxes: int,
        box_in: tuple[int, ...] | list[int],
        box_out: tuple[int, ...] | list[int],
        n_outer_in: int = 0,
        n_outer_out: int = 0,
        wires: list[tuple[int, int]] | tuple[tuple[int, int], ...] = (),
        in_wires: list[tuple[int, int]] | tuple[tuple[int, int], ...] = (),
        out_wires: list[tuple[int, int]] | tuple[tuple[int, int], ...] = (),
    ) -> "DWDiagram":
        """Build from tables; wires are (src, tgt) pairs of global port indices.

        ``wires`` run out-port to in-port, ``in_wires`` outer-in to in-port,
        ``out_wires`` out-port to outer-out.
        """
        columns = {"box_in": box_in, "box_out": box_out}
        for (s, t), pairs in ((("src", "tgt"), wires), (("src_in", "tgt_in"), in_wires),
                              (("src_out", "tgt_out"), out_wires)):
            columns[s], columns[t] = _unzip(pairs)
        card = {"B": n_boxes, "Q_in": n_outer_in, "Q_out": n_outer_out}
        return cls._from_columns(card, columns)

    @property
    def n_outer_in(self) -> int:
        return self.data.card["Q_in"]

    @property
    def n_outer_out(self) -> int:
        return self.data.card["Q_out"]

    @cached_property
    def in_ports(self) -> tuple[tuple[int, ...], ...]:
        return self.ports("box_in").tuples()

    @cached_property
    def out_ports(self) -> tuple[tuple[int, ...], ...]:
        return self.ports("box_out").tuples()

    @cached_property
    def signature(self) -> tuple[tuple[int, int], ...]:
        """Per-box (in-port count, out-port count)."""
        return tuple(zip(map(len, self.in_ports), map(len, self.out_ports)))

    @property
    def interfaces(self) -> tuple[tuple[int, int], ...]:
        return self.signature

    @property
    def outer_interface(self) -> tuple[int, int]:
        return (self.n_outer_in, self.n_outer_out)


class CPGraph(_PortDiagram):
    """A circular port graph: each port is simultaneously an input and output."""

    schema = CPG_SCHEMA

    @classmethod
    def from_tables(
        cls,
        n_boxes: int,
        box: tuple[int, ...] | list[int],
        wires: list[tuple[int, int]] | tuple[tuple[int, int], ...] = (),
        expose: tuple[int, ...] | list[int] = (),
    ) -> "CPGraph":
        src, tgt = _unzip(wires)
        columns = {"box": box, "src": src, "tgt": tgt, "expose": expose}
        return cls._from_columns({"B": n_boxes}, columns)


def identity_uwd(k: int) -> UWDiagram:
    """One box with k ports, each on its own junction, all exposed in order."""
    ident = tuple(range(k))
    return UWDiagram.from_tables(1, k, (0,) * k, ident, ident)


def identity_dwd(m: int, n: int) -> DWDiagram:
    """One box with m in-ports and n out-ports, boundary wires identity, no inner wires."""
    return DWDiagram.from_tables(
        n_boxes=1,
        box_in=(0,) * m,
        box_out=(0,) * n,
        n_outer_in=m,
        n_outer_out=n,
        in_wires=[(k, k) for k in range(m)],
        out_wires=[(k, k) for k in range(n)],
    )


def identity_cpg(k: int) -> CPGraph:
    """One box with k ports, all exposed in order, no wires."""
    return CPGraph.from_tables(1, (0,) * k, (), tuple(range(k)))


def _offsets(sizes: list[int]) -> list[int]:
    return [0, *accumulate(sizes)][:-1]


def _stack(diagrams: Sequence[_Diagram], name: str, offsets: list[int]) -> np.ndarray:
    """Column ``name`` of every diagram end to end, each shifted by its offset."""
    cols = [d.data.parts[name] for d in diagrams]
    if not cols:
        return np.empty(0, dtype=np.intp)
    return np.concatenate(cols) + np.array(offsets, dtype=np.intp).repeat([c.size for c in cols])


def _check_inners(outer: _Diagram, inners: Sequence[_Diagram]) -> None:
    """One inner diagram per box, of the outer's syntax, exposing that box's interface."""
    if len(inners) != outer.n_boxes:
        raise ArityError(
            f"outer diagram has {outer.n_boxes} boxes but {len(inners)} inner diagrams were given"
        )
    for i, (want, inner) in enumerate(zip(outer.interfaces, inners)):
        if type(inner) is not type(outer):
            raise DiagramError(
                f"box {i}: inner diagram is a {type(inner).__name__}, "
                f"outer diagram is a {type(outer).__name__}"
            )
        got = inner.outer_interface
        if want != got:
            raise ArityError(outer._mismatch.format(i=i, want=want, got=got))


def ocompose_uwd(outer: UWDiagram, inners: list[UWDiagram]) -> UWDiagram:
    """Substitute one inner diagram into every box of the outer diagram.

    Junctions are the quotient of (outer junctions ++ all inner junctions) by
    identifying, for each box and port slot, the outer port's junction with
    the junction of the matching inner outer-port.
    """
    _check_inners(outer, inners)
    j_sizes = [outer.n_junctions] + [d.n_junctions for d in inners]
    j_off = _offsets(j_sizes)[1:]
    o = outer.data.parts
    # The inner outer-ports, end to end, are in the order of the outer ports sorted by box.
    order = outer.ports("box").order
    n_all = sum(j_sizes)
    try:
        n_j, quot = _classes(n_all, o["junc_in"][order], _stack(inners, "junc_out", j_off))
    except (MemoryError, ValueError) as exc:  # numpy cannot allocate n_all entries
        raise DynwireError(f"cannot compose diagrams of {n_all} junctions in all: {exc}") from None
    columns = {
        "box": _stack(inners, "box", _offsets([d.n_boxes for d in inners])),
        "junc_in": quot[_stack(inners, "junc_in", j_off)],
        "junc_out": quot[o["junc_out"]],
    }
    card = {"B": sum(d.n_boxes for d in inners), "J": n_j}
    return UWDiagram._from_columns(card, columns)


def ocompose_dwd(outer: DWDiagram, inners: list[DWDiagram]) -> DWDiagram:
    """Substitute inner diagrams into a directed diagram by splicing wires.

    Wire segments are chained through the identified interface ports (outer
    box ports are matched slot-by-slot with inner outer-ports); every maximal
    chain contributes one composite wire.  Chains have at most three segments
    by the shape of the schema.
    """
    _check_inners(outer, inners)
    pin_off = _offsets([len(d.data.parts["box_in"]) for d in inners])
    pout_off = _offsets([len(d.data.parts["box_out"]) for d in inners])
    # The chains are followed in Python, over the columns as lists.
    oa = outer.data.parts
    od = {name: col.tolist() for name, col in oa.items()}
    in_at = list(zip(od["box_in"], outer.ports("box_in").slots().tolist()))
    out_at = list(zip(od["box_out"], outer.ports("box_out").slots().tolist()))

    # Inner in-ports that a chain entering (box, in-slot) reaches through the
    # inner boundary wires, in wire order.
    pins: dict[tuple[int, int], list[int]] = {}
    for i, inner in enumerate(inners):
        ip = inner.data.parts
        for slot, t in zip(ip["src_in"].tolist(), ip["tgt_in"].tolist()):
            pins.setdefault((i, slot), []).append(t + pin_off[i])
    # Where a chain standing at (box, out-slot) ends: inner in-ports through
    # outer wires, then outer out-ports, each in wire order.
    onward: dict[tuple[int, int], list[int]] = {}
    for s, t in zip(od["src"], od["tgt"]):
        onward.setdefault(out_at[s], []).extend(pins.get(in_at[t], ()))
    exits: dict[tuple[int, int], list[int]] = {}
    for s, q in zip(od["src_out"], od["tgt_out"]):
        exits.setdefault(out_at[s], []).append(q)

    in_wires = [(q, t) for q, p in zip(od["src_in"], od["tgt_in"]) for t in pins.get(in_at[p], ())]
    chained: list[tuple[int, int, int]] = []
    out_wires: list[tuple[int, int]] = []
    for i, inner in enumerate(inners):
        ip = inner.data.parts
        for s, slot in zip(ip["src_out"].tolist(), ip["tgt_out"].tolist()):
            source = s + pout_off[i]
            chained.extend((i, source, t) for t in onward.get((i, slot), ()))
            out_wires.extend((source, q) for q in exits.get((i, slot), ()))

    # Each inner's own wires, then the chains leaving it: a stable sort by inner.
    owner, src, tgt = np.array(chained, dtype=np.intp).reshape(-1, 3).T
    n_wires = [d.data.card["W"] for d in inners]
    own = np.repeat(np.arange(len(inners)), n_wires)
    order = np.argsort(np.concatenate([own, owner]), kind="stable")
    box_off = _offsets([d.n_boxes for d in inners])
    columns = {
        "box_in": _stack(inners, "box_in", box_off),
        "box_out": _stack(inners, "box_out", box_off),
        "src": np.concatenate([_stack(inners, "src", pout_off), src])[order],
        "tgt": np.concatenate([_stack(inners, "tgt", pin_off), tgt])[order],
    }
    columns["src_in"], columns["tgt_in"] = np.array(in_wires, dtype=np.intp).reshape(-1, 2).T
    columns["src_out"], columns["tgt_out"] = np.array(out_wires, dtype=np.intp).reshape(-1, 2).T
    card = {"B": sum(d.n_boxes for d in inners), "Q_in": outer.n_outer_in,
            "Q_out": outer.n_outer_out}
    return DWDiagram._from_columns(card, columns)


def ocompose_cpg(outer: CPGraph, inners: list[CPGraph]) -> CPGraph:
    """Substitute circular port graphs into a circular port graph.

    Outer wire endpoints are box ports, identified slot-by-slot with inner
    outer-ports; each outer wire becomes one wire between the exposed inner
    ports, and inner wires pass through unchanged.
    """
    _check_inners(outer, inners)
    p_off = _offsets([len(d.data.parts["box"]) for d in inners])
    o = outer.data.parts
    # The inner port exposed at each outer port: the inner exposes, end to
    # end, follow the outer ports sorted by box.
    at = _stack(inners, "expose", p_off)[outer.ports("box").rank()]
    columns = {
        "box": _stack(inners, "box", _offsets([d.n_boxes for d in inners])),
        "src": np.concatenate([_stack(inners, "src", p_off), at[o["src"]]]),
        "tgt": np.concatenate([_stack(inners, "tgt", p_off), at[o["tgt"]]]),
        "expose": at[o["expose"]],
    }
    return CPGraph._from_columns({"B": sum(d.n_boxes for d in inners)}, columns)


def ocompose(outer: _Diagram, inners: Sequence[_Diagram]) -> _Diagram:
    """Full substitution in the outer diagram's syntax; another syntax is a ``DiagramError``."""
    return _syntax(outer).compose(outer, inners)


def ocompose_at(outer: _Diagram, i: int, inner: _Diagram) -> _Diagram:
    """Single-slot substitution padded with identities; a bad slot ``i`` is an ``ArityError``."""
    syntax = _syntax(outer)
    if not 0 <= i < outer.n_boxes:
        raise ArityError(f"slot {i} out of range for {outer.n_boxes} boxes")
    inners = [syntax.identity(interface) for interface in outer.interfaces]
    inners[i] = inner
    return syntax.compose(outer, inners)


ocompose_uwd_at = ocompose_dwd_at = ocompose_cpg_at = ocompose_at


def cpg_to_dwd(g: CPGraph) -> DWDiagram:
    """Interpret a circular port graph as a directed diagram by duplicating ports."""
    return DWDiagram(migrate(DWD_FROM_CPG, g.data))


def grid(width: int, height: int) -> CPGraph:
    """A width x height grid of 4-port boxes wired to their neighbors.

    Boxes are row-major; ports are ordered North, East, South, West.  Every
    interior adjacency carries one wire in each direction, and every port
    without a wire is exposed by one outer port, ordered by (box, port).
    """
    if width < 1 or height < 1:
        raise ArityError("grid dimensions must be at least 1x1")
    try:
        return _grid(width, height)
    except (MemoryError, ValueError, OverflowError) as exc:  # too large to allocate or index
        raise DynwireError(f"cannot build a {width} x {height} grid: {exc}") from None


def _grid(width: int, height: int) -> CPGraph:
    box = np.arange(width * height, dtype=np.intp)
    x, y, north = box % width, box // width, 4 * box  # port d of a box is north + d
    east, south = x + 1 < width, y + 1 < height
    # Per box: its East to the West of the box to its right and back, then
    # its South to the North of the box below and back.
    e, w = north + 1, north + 7
    s, n = north + 2, north + 4 * width
    keep = np.repeat(np.stack((east, south), axis=1), 2, axis=1)
    src, tgt = np.stack((e, w, s, n), axis=1)[keep], np.stack((w, e, n, s), axis=1)[keep]
    wired = np.stack((y > 0, east, south, x > 0), axis=1)  # its N, E, S, W
    columns = {"box": np.repeat(box, 4), "src": src, "tgt": tgt, "expose": np.flatnonzero(~wired)}
    return CPGraph._from_columns({"B": box.size}, columns)


# ---------------------------------------------------------------------------
# Canonical forms


def canonical(d: _Diagram) -> _Diagram:
    """Canonical form: ports grouped by box, junctions renumbered, wires sorted.

    Box order and outer-port order are interface data and stay fixed.
    """
    return _syntax(d).canonical(d)


def _canonical_uwd(d: UWDiagram) -> UWDiagram:
    a = d.data.parts
    order = d.ports("box").order
    junc_in = a["junc_in"][order]
    renum = _first_use(d.n_junctions, junc_in, a["junc_out"])
    columns = {"box": a["box"][order], "junc_in": renum[junc_in], "junc_out": renum[a["junc_out"]]}
    return UWDiagram._from_columns({"B": d.n_boxes, "J": d.n_junctions}, columns)


def _canonical_dwd(d: DWDiagram) -> DWDiagram:
    a = d.data.parts
    ins, outs = d.ports("box_in"), d.ports("box_out")
    in_rank, out_rank = ins.rank(), outs.rank()
    columns = {"box_in": a["box_in"][ins.order], "box_out": a["box_out"][outs.order]}
    columns["src"], columns["tgt"] = _sorted_pairs(out_rank[a["src"]], in_rank[a["tgt"]])
    columns["src_in"], columns["tgt_in"] = _sorted_pairs(a["src_in"], in_rank[a["tgt_in"]])
    columns["src_out"], columns["tgt_out"] = _sorted_pairs(out_rank[a["src_out"]], a["tgt_out"])
    card = {"B": d.n_boxes, "Q_in": d.n_outer_in, "Q_out": d.n_outer_out}
    return DWDiagram._from_columns(card, columns)


def _canonical_cpg(d: CPGraph) -> CPGraph:
    a = d.data.parts
    ports = d.ports("box")
    rank = ports.rank()
    columns = {"box": a["box"][ports.order], "expose": rank[a["expose"]]}
    columns["src"], columns["tgt"] = _sorted_pairs(rank[a["src"]], rank[a["tgt"]])
    return CPGraph._from_columns({"B": d.n_boxes}, columns)


# ---------------------------------------------------------------------------
# DOT export


def to_dot(d: _Diagram) -> str:
    """Deterministic Graphviz text for a diagram.

    Boxes are labeled nodes inside an enclosing cluster; junctions are point
    nodes; outer ports sit on the cluster boundary as stub nodes.  Edges are
    undirected for UWD and directed for DWD/CPG.  Each block of like lines
    is one template filled from index columns in one numpy pass.
    """
    return "\n".join([*filter(None, _syntax(d).dot(d)), "}"]) + "\n"


def _lines(template: str, *columns: Sequence[int]) -> str:
    """One line per row: ``template`` with each ``{}`` replaced by the next column's entry."""
    return format_rows(template.split("{}"), columns, "\n")


def _dot_head(graph: str, n_boxes: int, n_junctions: int = 0) -> list[str]:
    boxes = range(n_boxes)
    return [
        f"{graph} diagram {{\n  rankdir=LR;\n  subgraph cluster_body {{\n    style=rounded;",
        _lines('    b{} [label="b{}", shape=box];', boxes, boxes),
        _lines('    j{} [label="", shape=point];', range(n_junctions)),
        "  }",
    ]


def _dot_uwd(d: UWDiagram) -> list[str]:
    a, outer = d.data.parts, range(d.n_outer)
    return _dot_head("graph", d.n_boxes, d.n_junctions) + [
        _lines('  q{} [label="q{}", shape=plaintext];', outer, outer),
        _lines("  b{} -- j{};", a["box"], a["junc_in"]),
        _lines("  q{} -- j{};", outer, a["junc_out"]),
    ]


def _dot_dwd(d: DWDiagram) -> list[str]:
    head = _dot_head("digraph", d.n_boxes)  # first: it refuses a box count it cannot write
    a = d.data.parts
    box_in, slot_in = a["box_in"], d.ports("box_in").slots()
    box_out, slot_out = a["box_out"], d.ports("box_out").slots()
    src, tgt, tgt_in, src_out = a["src"], a["tgt"], a["tgt_in"], a["src_out"]
    outer_in, outer_out = range(d.n_outer_in), range(d.n_outer_out)
    return head + [
        _lines('  qin{} [label="in{}", shape=plaintext];', outer_in, outer_in),
        _lines('  qout{} [label="out{}", shape=plaintext];', outer_out, outer_out),
        _lines(
            '  b{} -> b{} [label="o{}:i{}"];',
            box_out[src], box_in[tgt], slot_out[src], slot_in[tgt],
        ),
        _lines('  qin{} -> b{} [label="i{}"];', a["src_in"], box_in[tgt_in], slot_in[tgt_in]),
        _lines('  b{} -> qout{} [label="o{}"];', box_out[src_out], a["tgt_out"], slot_out[src_out]),
    ]


def _dot_cpg(d: CPGraph) -> list[str]:
    head = _dot_head("digraph", d.n_boxes)  # first: it refuses a box count it cannot write
    a = d.data.parts
    box, slot = a["box"], d.ports("box").slots()
    src, tgt, expose, outer = a["src"], a["tgt"], a["expose"], range(d.n_outer)
    return head + [
        _lines('  q{} [label="q{}", shape=plaintext];', outer, outer),
        _lines('  b{} -> b{} [label="p{}:p{}"];', box[src], box[tgt], slot[src], slot[tgt]),
        _lines('  q{} -> b{} [dir=none, style=dashed, label="p{}"];', outer, box[expose], slot[expose]),
    ]


class _Syntax(NamedTuple):
    identity: Callable[..., _Diagram]  # box interface -> identity diagram
    compose: Callable[..., _Diagram]
    canonical: Callable[..., _Diagram]
    dot: Callable[..., list[str]]


_SYNTAX: dict[type, _Syntax] = {
    UWDiagram: _Syntax(identity_uwd, ocompose_uwd, _canonical_uwd, _dot_uwd),
    DWDiagram: _Syntax(lambda sig: identity_dwd(*sig), ocompose_dwd, _canonical_dwd, _dot_dwd),
    CPGraph: _Syntax(identity_cpg, ocompose_cpg, _canonical_cpg, _dot_cpg),
}


def _syntax(d: object) -> _Syntax:
    try:
        return _SYNTAX[type(d)]
    except KeyError:
        raise TypeError(f"not a diagram: {type(d).__name__}") from None
