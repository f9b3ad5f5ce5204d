"""Wiring diagram types over the three built-in schemas, with substitution.

Diagrams are validated instance wrappers.  Substitution (``ocompose``)
replaces every box of an outer diagram by an inner diagram whose outer
interface matches that box: the inners' sum (:func:`~dynwire.cset.coproduct`),
whose outer ports follow the outer box ports sorted by box, is glued along
the outer diagram.  Junctions are identified by a quotient and wires are
spliced by chaining through the identified interface ports.

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
    _coproduct,
    migrate,
    validate,
)
from .errors import ArityError, DiagramError, DynwireError
from .finset import _INTP_MAX, _classes, _first_use

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
    sum of the boxes' port counts: a port's ``rank`` numbers it box-major.  A
    diagram builds one per box column, on first use (:meth:`_Diagram.ports`);
    ``_codegen`` groups boxes by program with one, ``ocompose_dwd`` joins wires on them.
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

    def split(self, boxes: Iterable[int]) -> list[np.ndarray]:
        """The ports of each of ``boxes``, as views of ``order``."""
        b = self.bounds.tolist()
        return [self.order[b[i]:b[i + 1]] for i in boxes]

    def tuples(self) -> tuple[tuple[int, ...], ...]:
        """The ports of every box, as tuples of ints."""
        order, b = self.order.tolist(), self.bounds.tolist()
        return tuple(map(tuple, map(order.__getitem__, map(slice, b, b[1:]))))


def _sorted_pairs(src: np.ndarray, tgt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of ``sorted(zip(src, tgt))``, for non-negative columns.

    Each pair is sorted as the one key ``src * m + tgt``, with ``m`` one
    more than the largest target, and decoded by division: equal keys are
    equal pairs, so any sort gives the same columns.  The sort is timsort
    (``"stable"``): on the 14,927 wires of a composite fresh from
    ``ocompose_dwd`` this takes 0.41-0.45 ms, where ``np.lexsort`` took
    1.1 ms, and it keeps the code of numpy's default sort, some 0.25 MB
    more, out of resident memory.  Where the key could pass the ``np.intp``
    range (outer port ids may reach the card limit), ``np.lexsort`` sorts
    the pairs instead.
    """
    if src.size == 0:
        return src, tgt
    m = int(tgt.max()) + 1
    if (int(src.max()) + 1) * m > _INTP_MAX:
        order = np.lexsort((tgt, src))
        return src[order], tgt[order]
    key = src * m
    key += tgt
    key.sort(kind="stable")
    src = key // m
    key -= src * m
    return src, key


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


def _summed(outer: _Diagram, inners: Sequence[_Diagram]) -> tuple[dict, dict, np.ndarray]:
    """The coproduct of ``inners`` (as ``cset._coproduct``): one inner diagram
    per box, of the outer's syntax, exposing that box's interface."""
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
    return _coproduct(outer.schema, [d.data for d in inners])


def ocompose_uwd(outer: UWDiagram, inners: list[UWDiagram]) -> UWDiagram:
    """Substitute one inner diagram into every box of the outer diagram.

    Junctions are the quotient of (outer junctions ++ the coproduct's
    junctions) by identifying, for each box and port slot, the outer port's
    junction with the junction of the matching inner outer-port.
    """
    card, p, _ = _summed(outer, inners)
    o, n_outer = outer.data.parts, outer.n_junctions
    # The coproduct's outer ports are in the order of the outer ports sorted by box.
    order = outer.ports("box").order
    n_all = n_outer + card["J"]
    try:
        n_j, quot = _classes(n_all, o["junc_in"][order], p["junc_out"] + n_outer)
    except (MemoryError, ValueError, OverflowError) as exc:  # numpy cannot allocate n_all entries
        raise DynwireError(f"cannot compose diagrams of {n_all} junctions in all: {exc}") from None
    columns = {"box": p["box"], "junc_in": quot[n_outer:][p["junc_in"]], "junc_out": quot[o["junc_out"]]}
    return UWDiagram._from_columns({"B": card["B"], "J": n_j}, columns)


def _join(keys: _Fibers, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``(j, k)`` with ``keys.column[k] == queries[j]``: for each
    query in order, its matches in ascending ``k``."""
    bounds = keys.bounds
    start, fan = bounds[queries], bounds[queries + 1] - bounds[queries]
    row = np.repeat(np.arange(queries.size), fan)
    # Row r of query j is entry start[j] + (r - first row of j) of ``order``.
    at = np.arange(row.size) + np.repeat(start - (fan.cumsum() - fan), fan)
    return row, keys.order[at]


def ocompose_dwd(outer: DWDiagram, inners: list[DWDiagram]) -> DWDiagram:
    """Substitute inner diagrams into a directed diagram by splicing wires.

    Wire segments are chained through the identified interface ports (outer
    box ports are matched slot-by-slot with inner outer-ports); every maximal
    chain contributes one composite wire.  Chains have at most three segments
    by the shape of the schema.

    The inners are summed by :func:`~dynwire.cset.coproduct`, whose outer
    ports follow the outer box ports sorted by box, so an outer port's rank
    is its inner outer-port.  Each step of a chain is a join on those ranks
    (:func:`_join`), and the composite's wires come out in this order: each
    inner's own wires, then the chains leaving it, in its ``W_out`` order,
    then outer-wire order, then its ``W_in`` order; ``W_in`` in the outer
    ``W_in`` order; ``W_out`` per inner in its ``W_out`` order, then in the
    outer ``W_out`` order.
    """
    card, p, starts = _summed(outer, inners)
    o = outer.data.parts
    ins, outs = outer.ports("box_in"), outer.ports("box_out")
    in_rank, out_rank = ins.rank(), outs.rank()
    # Inner in-ports reached from each inner outer-in port through the
    # inner boundary wires.
    entry = _Fibers(p["src_in"], in_rank.size)
    row, k = _join(entry, in_rank[o["tgt_in"]])
    src_in, tgt_in = o["src_in"][row], p["tgt_in"][k]
    # Where a chain standing at an inner outer-out port ends: inner in-ports
    # through outer wires, then outer out-ports.
    row, k = _join(entry, in_rank[o["tgt"]])
    onward, onward_tgt = _Fibers(out_rank[o["src"]][row], out_rank.size), p["tgt_in"][k]
    exits = _Fibers(out_rank[o["src_out"]], out_rank.size)
    row, k = _join(onward, p["tgt_out"])
    # A chain leaves the inner filling the box of the outer out-port it starts
    # at, and follows that inner's own wires and those of the inners before it.
    owner = o["box_out"][outs.order][p["tgt_out"][row]]
    after = starts[owner + 1, DWD_SCHEMA.objects.index("W")]
    chain_src, chain_tgt = p["src_out"][row], onward_tgt[k]
    row, k = _join(exits, p["tgt_out"])
    columns = {
        "box_in": p["box_in"], "box_out": p["box_out"],
        "src": np.insert(p["src"], after, chain_src), "tgt": np.insert(p["tgt"], after, chain_tgt),
        "src_in": src_in, "tgt_in": tgt_in, "src_out": p["src_out"][row], "tgt_out": o["tgt_out"][k],
    }
    card = {"B": card["B"], "Q_in": outer.n_outer_in, "Q_out": outer.n_outer_out}
    return DWDiagram._from_columns(card, columns)


def ocompose_cpg(outer: CPGraph, inners: list[CPGraph]) -> CPGraph:
    """Substitute circular port graphs into a circular port graph.

    Outer wire endpoints are box ports, identified slot-by-slot with inner
    outer-ports; each outer wire becomes one wire between the exposed inner
    ports, and inner wires pass through unchanged.
    """
    card, p, _ = _summed(outer, inners)
    o = outer.data.parts
    # The inner port exposed at each outer port: the coproduct's exposes
    # follow the outer ports sorted by box.
    at = p["expose"][outer.ports("box").rank()]
    columns = {
        "box": p["box"],
        "src": np.concatenate([p["src"], at[o["src"]]]),
        "tgt": np.concatenate([p["tgt"], at[o["tgt"]]]),
        "expose": at[o["expose"]],
    }
    return CPGraph._from_columns({"B": card["B"]}, columns)


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
    return b"".join(_dot(d)).decode("ascii")


def _dot(d: _Diagram) -> list[bytes]:  # to_dot's text in pieces of whole lines
    return [*_syntax(d).dot(d), b"}\n"]


def _lines(template: str, *columns: Sequence[int]) -> bytes:
    """One line per row: ``template`` with each ``{}`` replaced by the next column's entry."""
    return format_rows((template + "\n").split("{}"), columns, "")


def _dot_head(graph: str, n_boxes: int, n_junctions: int = 0) -> list[bytes]:
    boxes = range(n_boxes)
    return [
        f"{graph} diagram {{\n  rankdir=LR;\n  subgraph cluster_body {{\n    style=rounded;\n".encode(),
        _lines('    b{} [label="b{}", shape=box];', boxes, boxes),
        _lines('    j{} [label="", shape=point];', range(n_junctions)),
        b"  }\n",
    ]


def _dot_uwd(d: UWDiagram) -> list[bytes]:
    a, outer = d.data.parts, range(d.n_outer)
    return _dot_head("graph", d.n_boxes, d.n_junctions) + [
        _lines('  q{} [label="q{}", shape=plaintext];', outer, outer),
        _lines("  b{} -- j{};", a["box"], a["junc_in"]),
        _lines("  q{} -- j{};", outer, a["junc_out"]),
    ]


def _dot_dwd(d: DWDiagram) -> list[bytes]:
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


def _dot_cpg(d: CPGraph) -> list[bytes]:
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
    dot: Callable[..., list[bytes]]


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
