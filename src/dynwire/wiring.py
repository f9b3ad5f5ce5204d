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
from itertools import accumulate, islice
from typing import Callable, ClassVar, Mapping, NamedTuple, Sequence

import numpy as np

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
from .errors import ArityError, DiagramError
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


# Columns are handled whole, as index arrays: a stable sort by box groups a
# box's ports together in ascending order, which is their slot order.


def _port_order(box: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ports stably sorted by box: ``order[new] = old`` and ``rank[old] = new``."""
    order = np.argsort(box, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return order, rank


def _ports_by_box(box: np.ndarray, n_boxes: int) -> tuple[tuple[int, ...], ...]:
    ports = iter(np.argsort(box, kind="stable").tolist())
    return tuple(tuple(islice(ports, k)) for k in np.bincount(box, minlength=n_boxes).tolist())


def _slots(box: np.ndarray, n_boxes: int) -> np.ndarray:
    """Each port's slot: its position among the ports of its box."""
    counts = np.bincount(box, minlength=n_boxes)
    return _port_order(box)[1] - (np.cumsum(counts) - counts)[box]


def _sorted_pairs(src: np.ndarray, tgt: np.ndarray) -> tuple[list[int], list[int]]:
    """The columns of ``sorted(zip(src, tgt))``."""
    order = np.lexsort((tgt, src))
    return src[order].tolist(), tgt[order].tolist()


def _unzip(pairs: Sequence[tuple[int, int]]) -> tuple[Sequence[int], Sequence[int]]:
    """The source and target columns of a list of (source, target) pairs."""
    src, tgt = tuple(zip(*pairs, strict=True)) or ((), ())
    return src, tgt


class _Columns(dict):
    """A diagram's columns as index arrays, each made on first use."""

    def __init__(self, parts: Mapping[str, tuple[int, ...]]) -> None:
        super().__init__()
        self.parts = parts

    def __missing__(self, name: str) -> np.ndarray:
        col = self.parts[name]
        self[name] = array = np.fromiter(col, dtype=np.intp, count=len(col))
        return array


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

    @cached_property
    def _arrays(self) -> _Columns:
        return _Columns(self.data.parts)

    @property
    def n_boxes(self) -> int:
        return self.data.card["B"]

    def column(self, name: str) -> np.ndarray:
        """Morphism ``name``'s column as an index array, made once; read only."""
        return self._arrays[name]


class _PortDiagram(_Diagram):
    """A diagram whose boxes and outer boundary each carry one list of ports."""

    _mismatch = "box {i} expects {want} ports, inner diagram exposes {got}"

    @property
    def n_outer(self) -> int:
        return self.data.card["Q"]

    @cached_property
    def box_ports(self) -> tuple[tuple[int, ...], ...]:
        """Global ports of each box, ascending; position gives the port slot."""
        return _ports_by_box(self._arrays["box"], self.n_boxes)

    @cached_property
    def port_counts(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.box_ports)

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
        return _ports_by_box(self._arrays["box_in"], self.n_boxes)

    @cached_property
    def out_ports(self) -> tuple[tuple[int, ...], ...]:
        return _ports_by_box(self._arrays["box_out"], self.n_boxes)

    @cached_property
    def signature(self) -> tuple[tuple[int, int], ...]:
        """Per-box (in-port count, out-port count)."""
        return tuple(
            (len(i), len(o)) for i, o in zip(self.in_ports, self.out_ports)
        )

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
    cols = [d._arrays[name] for d in diagrams]
    if not cols:
        return np.empty(0, dtype=np.intp)
    return np.concatenate(cols) + np.repeat(offsets, [c.size for c in cols])


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
    o = outer._arrays
    # The inner outer-ports, end to end, are in the order of the outer ports sorted by box.
    order = np.argsort(o["box"], kind="stable")
    n_j, quot = _classes(sum(j_sizes), o["junc_in"][order], _stack(inners, "junc_out", j_off))
    columns = {
        "box": _stack(inners, "box", _offsets([d.n_boxes for d in inners])).tolist(),
        "junc_in": quot[_stack(inners, "junc_in", j_off)].tolist(),
        "junc_out": quot[o["junc_out"]].tolist(),
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
    od, oa = outer.data.parts, outer._arrays
    in_at = list(zip(od["box_in"], _slots(oa["box_in"], outer.n_boxes).tolist()))
    out_at = list(zip(od["box_out"], _slots(oa["box_out"], outer.n_boxes).tolist()))

    # Inner in-ports that a chain entering (box, in-slot) reaches through the
    # inner boundary wires, in wire order.
    pins: dict[tuple[int, int], list[int]] = {}
    for i, inner in enumerate(inners):
        ip = inner.data.parts
        for slot, t in zip(ip["src_in"], ip["tgt_in"]):
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
        for s, slot in zip(ip["src_out"], ip["tgt_out"]):
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
        "box_in": _stack(inners, "box_in", box_off).tolist(),
        "box_out": _stack(inners, "box_out", box_off).tolist(),
        "src": np.concatenate([_stack(inners, "src", pout_off), src])[order].tolist(),
        "tgt": np.concatenate([_stack(inners, "tgt", pin_off), tgt])[order].tolist(),
    }
    columns["src_in"], columns["tgt_in"] = _unzip(in_wires)
    columns["src_out"], columns["tgt_out"] = _unzip(out_wires)
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
    o = outer._arrays
    # The inner port exposed at each outer port: the inner exposes, end to
    # end, follow the outer ports sorted by box.
    at = _stack(inners, "expose", p_off)[_port_order(o["box"])[1]]
    columns = {
        "box": _stack(inners, "box", _offsets([d.n_boxes for d in inners])).tolist(),
        "src": np.concatenate([_stack(inners, "src", p_off), at[o["src"]]]).tolist(),
        "tgt": np.concatenate([_stack(inners, "tgt", p_off), at[o["tgt"]]]).tolist(),
        "expose": at[o["expose"]].tolist(),
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
    n = width * height
    NORTH, EAST, SOUTH, WEST = 0, 1, 2, 3

    def port(x: int, y: int, d: int) -> int:
        return 4 * (y * width + x) + d

    wires: list[tuple[int, int]] = []
    for y in range(height):
        for x in range(width):
            if x + 1 < width:
                wires.append((port(x, y, EAST), port(x + 1, y, WEST)))
                wires.append((port(x + 1, y, WEST), port(x, y, EAST)))
            if y + 1 < height:
                wires.append((port(x, y, SOUTH), port(x, y + 1, NORTH)))
                wires.append((port(x, y + 1, NORTH), port(x, y, SOUTH)))

    wired = {p for w in wires for p in w}
    expose = tuple(p for p in range(4 * n) if p not in wired)
    box = tuple(p // 4 for p in range(4 * n))
    return CPGraph.from_tables(n, box, wires, expose)


# ---------------------------------------------------------------------------
# Canonical forms


def canonical(d: _Diagram) -> _Diagram:
    """Canonical form: ports grouped by box, junctions renumbered, wires sorted.

    Box order and outer-port order are interface data and stay fixed.
    """
    return _syntax(d).canonical(d)


def _canonical_uwd(d: UWDiagram) -> UWDiagram:
    a = d._arrays
    order = np.argsort(a["box"], kind="stable")
    junc_in = a["junc_in"][order].tolist()
    junc_out = d.data.parts["junc_out"]
    renum = _first_use(d.n_junctions, junc_in, junc_out)
    columns = {
        "box": a["box"][order].tolist(),
        "junc_in": list(map(renum.__getitem__, junc_in)),
        "junc_out": list(map(renum.__getitem__, junc_out)),
    }
    return UWDiagram._from_columns({"B": d.n_boxes, "J": d.n_junctions}, columns)


def _canonical_dwd(d: DWDiagram) -> DWDiagram:
    a = d._arrays
    in_order, in_rank = _port_order(a["box_in"])
    out_order, out_rank = _port_order(a["box_out"])
    columns = {"box_in": a["box_in"][in_order].tolist(), "box_out": a["box_out"][out_order].tolist()}
    columns["src"], columns["tgt"] = _sorted_pairs(out_rank[a["src"]], in_rank[a["tgt"]])
    columns["src_in"], columns["tgt_in"] = _sorted_pairs(a["src_in"], in_rank[a["tgt_in"]])
    columns["src_out"], columns["tgt_out"] = _sorted_pairs(out_rank[a["src_out"]], a["tgt_out"])
    card = {"B": d.n_boxes, "Q_in": d.n_outer_in, "Q_out": d.n_outer_out}
    return DWDiagram._from_columns(card, columns)


def _canonical_cpg(d: CPGraph) -> CPGraph:
    a = d._arrays
    order, rank = _port_order(a["box"])
    columns = {"box": a["box"][order].tolist(), "expose": rank[a["expose"]].tolist()}
    columns["src"], columns["tgt"] = _sorted_pairs(rank[a["src"]], rank[a["tgt"]])
    return CPGraph._from_columns({"B": d.n_boxes}, columns)


# ---------------------------------------------------------------------------
# DOT export


def to_dot(d: _Diagram) -> str:
    """Deterministic Graphviz text for a diagram.

    Boxes are labeled nodes inside an enclosing cluster; junctions are point
    nodes; outer ports sit on the cluster boundary as stub nodes.  Edges are
    undirected for UWD and directed for DWD/CPG.
    """
    return "\n".join([*_syntax(d).dot(d), "}"]) + "\n"


def _dot_head(graph: str, n_boxes: int, n_junctions: int = 0) -> list[str]:
    lines = [f"{graph} diagram {{", "  rankdir=LR;", "  subgraph cluster_body {", "    style=rounded;"]
    lines += [f'    b{b} [label="b{b}", shape=box];' for b in range(n_boxes)]
    lines += [f'    j{j} [label="", shape=point];' for j in range(n_junctions)]
    lines.append("  }")
    return lines


def _at(box: np.ndarray, slot: np.ndarray, ports: np.ndarray) -> zip:
    """(box, slot) of each of ``ports``."""
    return zip(box[ports].tolist(), slot[ports].tolist())


def _dot_uwd(d: UWDiagram) -> list[str]:
    parts = d.data.parts
    lines = _dot_head("graph", d.n_boxes, d.n_junctions)
    lines += [f'  q{q} [label="q{q}", shape=plaintext];' for q in range(d.n_outer)]
    lines += [f"  b{b} -- j{j};" for b, j in zip(parts["box"], parts["junc_in"])]
    lines += [f"  q{q} -- j{j};" for q, j in enumerate(parts["junc_out"])]
    return lines


def _dot_dwd(d: DWDiagram) -> list[str]:
    parts, a = d.data.parts, d._arrays
    box_in, slot_in = a["box_in"], _slots(a["box_in"], d.n_boxes)
    box_out, slot_out = a["box_out"], _slots(a["box_out"], d.n_boxes)
    lines = _dot_head("digraph", d.n_boxes)
    lines += [f'  qin{q} [label="in{q}", shape=plaintext];' for q in range(d.n_outer_in)]
    lines += [f'  qout{q} [label="out{q}", shape=plaintext];' for q in range(d.n_outer_out)]
    wires = zip(_at(box_out, slot_out, a["src"]), _at(box_in, slot_in, a["tgt"]))
    lines += [f'  b{bs} -> b{bt} [label="o{ss}:i{st}"];' for (bs, ss), (bt, st) in wires]
    lines += [
        f'  qin{q} -> b{bt} [label="i{st}"];'
        for q, (bt, st) in zip(parts["src_in"], _at(box_in, slot_in, a["tgt_in"]))
    ]
    lines += [
        f'  b{bs} -> qout{q} [label="o{ss}"];'
        for (bs, ss), q in zip(_at(box_out, slot_out, a["src_out"]), parts["tgt_out"])
    ]
    return lines


def _dot_cpg(d: CPGraph) -> list[str]:
    a = d._arrays
    box, slot = a["box"], _slots(a["box"], d.n_boxes)
    lines = _dot_head("digraph", d.n_boxes)
    lines += [f'  q{q} [label="q{q}", shape=plaintext];' for q in range(d.n_outer)]
    wires = zip(_at(box, slot, a["src"]), _at(box, slot, a["tgt"]))
    lines += [f'  b{bs} -> b{bt} [label="p{ss}:p{st}"];' for (bs, ss), (bt, st) in wires]
    lines += [
        f'  q{q} -> b{b} [dir=none, style=dashed, label="p{s}"];'
        for q, (b, s) in enumerate(_at(box, slot, a["expose"]))
    ]
    return lines


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
