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
from typing import Callable, ClassVar, NamedTuple, Sequence

from .cset import CPG_SCHEMA, DWD_FROM_CPG, DWD_SCHEMA, UWD_SCHEMA, CSetInstance, migrate, validate
from .errors import ArityError, DiagramError, InternalShapeError
from .finset import merge_classes

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


def _ports_by_box(box_col: tuple[int, ...], n_boxes: int) -> tuple[tuple[int, ...], ...]:
    out: list[list[int]] = [[] for _ in range(n_boxes)]
    for port, b in enumerate(box_col):
        out[b].append(port)
    return tuple(tuple(ports) for ports in out)


def _slots(ports_by_box: tuple[tuple[int, ...], ...]) -> dict[int, tuple[int, int]]:
    """Global port -> (box, slot), for ports grouped by box."""
    return {p: (i, s) for i, ports in enumerate(ports_by_box) for s, p in enumerate(ports)}


@dataclass(frozen=True)
class _Diagram:
    """A validated instance of the built-in schema ``schema_name``.

    An inner diagram fits box ``i`` when its ``outer_interface`` is ``interfaces[i]``.
    """

    data: CSetInstance
    schema_name: ClassVar[str]
    _mismatch: ClassVar[str]

    def __post_init__(self) -> None:
        name = self.schema_name
        if self.data.schema.name != name:
            raise DiagramError(f"expected a {name} instance, got {self.data.schema.name}")
        problems = validate(self.data)
        if problems:
            raise DiagramError(f"invalid {name} instance: " + "; ".join(str(v) for v in problems))

    @property
    def n_boxes(self) -> int:
        return self.data.card["B"]


class _PortDiagram(_Diagram):
    """A diagram whose boxes and outer boundary each carry one list of ports."""

    _mismatch = "box {i} expects {want} ports, inner diagram exposes {got}"

    @property
    def n_outer(self) -> int:
        return self.data.card["Q"]

    @cached_property
    def box_ports(self) -> tuple[tuple[int, ...], ...]:
        """Global ports of each box, ascending; position gives the port slot."""
        return _ports_by_box(self.data.parts["box"], self.n_boxes)

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

    schema_name = "UWD"

    @classmethod
    def from_tables(
        cls,
        n_boxes: int,
        n_junctions: int,
        box: tuple[int, ...] | list[int],
        junc_in: tuple[int, ...] | list[int],
        junc_out: tuple[int, ...] | list[int],
    ) -> "UWDiagram":
        card = {"B": n_boxes, "P": len(box), "J": n_junctions, "Q": len(junc_out)}
        parts = {"box": tuple(box), "junc_in": tuple(junc_in), "junc_out": tuple(junc_out)}
        return cls(CSetInstance(UWD_SCHEMA, card, parts))

    @property
    def n_junctions(self) -> int:
        return self.data.card["J"]


class DWDiagram(_Diagram):
    """A directed wiring diagram: wires carry values from out-ports to in-ports."""

    schema_name = "DWD"
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
        card = {
            "B": n_boxes,
            "P_in": len(box_in),
            "P_out": len(box_out),
            "W": len(wires),
            "W_in": len(in_wires),
            "W_out": len(out_wires),
            "Q_in": n_outer_in,
            "Q_out": n_outer_out,
        }
        parts = {
            "box_in": tuple(box_in),
            "box_out": tuple(box_out),
            "src": tuple(s for s, _ in wires),
            "tgt": tuple(t for _, t in wires),
            "src_in": tuple(s for s, _ in in_wires),
            "tgt_in": tuple(t for _, t in in_wires),
            "src_out": tuple(s for s, _ in out_wires),
            "tgt_out": tuple(t for _, t in out_wires),
        }
        return cls(CSetInstance(DWD_SCHEMA, card, parts))

    @property
    def n_outer_in(self) -> int:
        return self.data.card["Q_in"]

    @property
    def n_outer_out(self) -> int:
        return self.data.card["Q_out"]

    @cached_property
    def in_ports(self) -> tuple[tuple[int, ...], ...]:
        return _ports_by_box(self.data.parts["box_in"], self.n_boxes)

    @cached_property
    def out_ports(self) -> tuple[tuple[int, ...], ...]:
        return _ports_by_box(self.data.parts["box_out"], self.n_boxes)

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

    schema_name = "CPG"

    @classmethod
    def from_tables(
        cls,
        n_boxes: int,
        box: tuple[int, ...] | list[int],
        wires: list[tuple[int, int]] | tuple[tuple[int, int], ...] = (),
        expose: tuple[int, ...] | list[int] = (),
    ) -> "CPGraph":
        card = {"B": n_boxes, "P": len(box), "W": len(wires), "Q": len(expose)}
        parts = {
            "box": tuple(box),
            "src": tuple(s for s, _ in wires),
            "tgt": tuple(t for _, t in wires),
            "expose": tuple(expose),
        }
        return cls(CSetInstance(CPG_SCHEMA, card, parts))


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
    out, acc = [], 0
    for s in sizes:
        out.append(acc)
        acc += s
    return out


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
    j_off = _offsets(j_sizes)
    total_j = sum(j_sizes)

    pairs = []
    junc_in_outer = outer.data.parts["junc_in"]
    for i, inner in enumerate(inners):
        junc_out_inner = inner.data.parts["junc_out"]
        for slot, port in enumerate(outer.box_ports[i]):
            pairs.append((junc_in_outer[port], j_off[i + 1] + junc_out_inner[slot]))
    quot = merge_classes(total_j, pairs)

    box_off = _offsets([d.n_boxes for d in inners])
    box: list[int] = []
    junc_in: list[int] = []
    for i, inner in enumerate(inners):
        box.extend(b + box_off[i] for b in inner.data.parts["box"])
        junc_in.extend(quot.map[j_off[i + 1] + j] for j in inner.data.parts["junc_in"])
    junc_out = [quot.map[j] for j in outer.data.parts["junc_out"]]

    return UWDiagram.from_tables(
        sum(d.n_boxes for d in inners), quot.cod_size, box, junc_in, junc_out
    )


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
    box_off = _offsets([d.n_boxes for d in inners])

    in_slot = _slots(outer.in_ports)
    out_slot = _slots(outer.out_ports)

    od = outer.data.parts
    # Outer wires indexed by the interface port they leave from.
    outer_w_by_src: dict[tuple[int, int], list[int]] = {}
    for w in range(outer.data.card["W"]):
        outer_w_by_src.setdefault(out_slot[od["src"][w]], []).append(w)
    outer_wout_by_src: dict[tuple[int, int], list[int]] = {}
    for w in range(outer.data.card["W_out"]):
        outer_wout_by_src.setdefault(out_slot[od["src_out"][w]], []).append(w)
    # Inner boundary-in wires indexed by the interface slot they enter at.
    inner_win_by_slot: list[dict[int, list[int]]] = []
    for inner in inners:
        by_slot: dict[int, list[int]] = {}
        for w in range(inner.data.card["W_in"]):
            by_slot.setdefault(inner.data.parts["src_in"][w], []).append(w)
        inner_win_by_slot.append(by_slot)

    wires: list[tuple[int, int]] = []
    in_wires: list[tuple[int, int]] = []
    out_wires: list[tuple[int, int]] = []

    def chase_in(i: int, slot: int) -> list[tuple[str, int]]:
        # A chain arriving at box i's in-slot continues through inner i's
        # boundary wires and terminates at inner in-ports.
        inner = inners[i]
        return [
            ("pin", inner.data.parts["tgt_in"][w] + pin_off[i])
            for w in inner_win_by_slot[i].get(slot, ())
        ]

    def chase_out(i: int, slot: int) -> list[tuple[str, int]]:
        # A chain standing at box i's out-slot continues through the outer
        # wires, terminating at inner in-ports or at the composite boundary.
        ends: list[tuple[str, int]] = []
        for w in outer_w_by_src.get((i, slot), ()):
            bi, bslot = in_slot[od["tgt"][w]]
            ends.extend(chase_in(bi, bslot))
        for w in outer_wout_by_src.get((i, slot), ()):
            ends.append(("qout", od["tgt_out"][w]))
        return ends

    # Chains starting at the composite boundary.
    for w in range(outer.data.card["W_in"]):
        i, slot = in_slot[od["tgt_in"][w]]
        for kind, tgt in chase_in(i, slot):
            if kind != "pin":
                raise InternalShapeError(
                    "wire chain runs from an outer in-port to an outer out-port"
                )
            in_wires.append((od["src_in"][w], tgt))
    # Chains starting at an inner out-port.
    for i, inner in enumerate(inners):
        idp = inner.data.parts
        for w in range(inner.data.card["W"]):
            wires.append((idp["src"][w] + pout_off[i], idp["tgt"][w] + pin_off[i]))
        for w in range(inner.data.card["W_out"]):
            source = idp["src_out"][w] + pout_off[i]
            for kind, tgt in chase_out(i, idp["tgt_out"][w]):
                if kind == "pin":
                    wires.append((source, tgt))
                else:
                    out_wires.append((source, tgt))

    box_in: list[int] = []
    box_out: list[int] = []
    for i, inner in enumerate(inners):
        box_in.extend(b + box_off[i] for b in inner.data.parts["box_in"])
        box_out.extend(b + box_off[i] for b in inner.data.parts["box_out"])

    return DWDiagram.from_tables(
        n_boxes=sum(d.n_boxes for d in inners),
        box_in=box_in,
        box_out=box_out,
        n_outer_in=outer.n_outer_in,
        n_outer_out=outer.n_outer_out,
        wires=wires,
        in_wires=in_wires,
        out_wires=out_wires,
    )


def ocompose_cpg(outer: CPGraph, inners: list[CPGraph]) -> CPGraph:
    """Substitute circular port graphs into a circular port graph.

    Outer wire endpoints are box ports, identified slot-by-slot with inner
    outer-ports; each outer wire becomes one wire between the exposed inner
    ports, and inner wires pass through unchanged.
    """
    _check_inners(outer, inners)
    p_off = _offsets([len(d.data.parts["box"]) for d in inners])
    box_off = _offsets([d.n_boxes for d in inners])
    slot_of = _slots(outer.box_ports)

    def resolve(outer_port: int) -> int:
        # The inner port exposed at an outer box port.
        i, slot = slot_of[outer_port]
        return inners[i].data.parts["expose"][slot] + p_off[i]

    wires: list[tuple[int, int]] = []
    for i, inner in enumerate(inners):
        idp = inner.data.parts
        wires.extend(
            (idp["src"][w] + p_off[i], idp["tgt"][w] + p_off[i])
            for w in range(inner.data.card["W"])
        )
    odp = outer.data.parts
    wires.extend(
        (resolve(odp["src"][w]), resolve(odp["tgt"][w])) for w in range(outer.data.card["W"])
    )

    box: list[int] = []
    for i, inner in enumerate(inners):
        box.extend(b + box_off[i] for b in inner.data.parts["box"])
    expose = tuple(resolve(p) for p in odp["expose"])

    return CPGraph.from_tables(sum(d.n_boxes for d in inners), box, wires, expose)


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


def _port_permutation(box_col: tuple[int, ...]) -> list[int]:
    # old -> new index under a stable sort by box; preserves slot order.
    order = sorted(range(len(box_col)), key=lambda p: (box_col[p], p))
    new_of_old = [0] * len(box_col)
    for new, old in enumerate(order):
        new_of_old[old] = new
    return new_of_old


def _permute_column(col: tuple[int, ...], new_of_old: list[int]) -> list[int]:
    # Reorder a column indexed by ports: out[new] = col[old].
    out = [0] * len(col)
    for old, v in enumerate(col):
        out[new_of_old[old]] = v
    return out


def canonical(d: _Diagram) -> _Diagram:
    """Canonical form: ports grouped by box, junctions renumbered, wires sorted.

    Box order and outer-port order are interface data and stay fixed.
    """
    return _syntax(d).canonical(d)


def _canonical_uwd(d: UWDiagram) -> UWDiagram:
    parts = d.data.parts
    sigma = _port_permutation(parts["box"])
    box = _permute_column(parts["box"], sigma)
    junc_in = _permute_column(parts["junc_in"], sigma)
    junc_out = list(parts["junc_out"])

    renum: dict[int, int] = {}
    for j in (*junc_in, *junc_out):
        if j not in renum:
            renum[j] = len(renum)
    for j in range(d.n_junctions):
        if j not in renum:
            renum[j] = len(renum)

    return UWDiagram.from_tables(
        d.n_boxes,
        d.n_junctions,
        box,
        [renum[j] for j in junc_in],
        [renum[j] for j in junc_out],
    )


def _canonical_dwd(d: DWDiagram) -> DWDiagram:
    parts = d.data.parts
    sig_in = _port_permutation(parts["box_in"])
    sig_out = _port_permutation(parts["box_out"])
    box_in = _permute_column(parts["box_in"], sig_in)
    box_out = _permute_column(parts["box_out"], sig_out)

    wires = sorted(
        (sig_out[s], sig_in[t]) for s, t in zip(parts["src"], parts["tgt"])
    )
    in_wires = sorted(
        (s, sig_in[t]) for s, t in zip(parts["src_in"], parts["tgt_in"])
    )
    out_wires = sorted(
        (sig_out[s], t) for s, t in zip(parts["src_out"], parts["tgt_out"])
    )
    return DWDiagram.from_tables(
        d.n_boxes,
        box_in,
        box_out,
        d.n_outer_in,
        d.n_outer_out,
        wires,
        in_wires,
        out_wires,
    )


def _canonical_cpg(d: CPGraph) -> CPGraph:
    parts = d.data.parts
    sigma = _port_permutation(parts["box"])
    box = _permute_column(parts["box"], sigma)
    wires = sorted((sigma[s], sigma[t]) for s, t in zip(parts["src"], parts["tgt"]))
    expose = tuple(sigma[p] for p in parts["expose"])
    return CPGraph.from_tables(d.n_boxes, box, wires, expose)


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
    lines.extend(f'    b{b} [label="b{b}", shape=box];' for b in range(n_boxes))
    lines.extend(f'    j{j} [label="", shape=point];' for j in range(n_junctions))
    lines.append("  }")
    return lines


def _dot_uwd(d: UWDiagram) -> list[str]:
    parts = d.data.parts
    lines = _dot_head("graph", d.n_boxes, d.n_junctions)
    for q in range(d.n_outer):
        lines.append(f'  q{q} [label="q{q}", shape=plaintext];')
    for p in range(len(parts["box"])):
        lines.append(f"  b{parts['box'][p]} -- j{parts['junc_in'][p]};")
    for q, j in enumerate(parts["junc_out"]):
        lines.append(f"  q{q} -- j{j};")
    return lines


def _dot_dwd(d: DWDiagram) -> list[str]:
    parts = d.data.parts
    in_slot = _slots(d.in_ports)
    out_slot = _slots(d.out_ports)
    lines = _dot_head("digraph", d.n_boxes)
    for q in range(d.n_outer_in):
        lines.append(f'  qin{q} [label="in{q}", shape=plaintext];')
    for q in range(d.n_outer_out):
        lines.append(f'  qout{q} [label="out{q}", shape=plaintext];')
    for s, t in zip(parts["src"], parts["tgt"]):
        bs, ss = out_slot[s]
        bt, st = in_slot[t]
        lines.append(f'  b{bs} -> b{bt} [label="o{ss}:i{st}"];')
    for s, t in zip(parts["src_in"], parts["tgt_in"]):
        bt, st = in_slot[t]
        lines.append(f'  qin{s} -> b{bt} [label="i{st}"];')
    for s, t in zip(parts["src_out"], parts["tgt_out"]):
        bs, ss = out_slot[s]
        lines.append(f'  b{bs} -> qout{t} [label="o{ss}"];')
    return lines


def _dot_cpg(d: CPGraph) -> list[str]:
    parts = d.data.parts
    slot = _slots(d.box_ports)
    lines = _dot_head("digraph", d.n_boxes)
    for q in range(d.n_outer):
        lines.append(f'  q{q} [label="q{q}", shape=plaintext];')
    for s, t in zip(parts["src"], parts["tgt"]):
        bs, ss = slot[s]
        bt, st = slot[t]
        lines.append(f'  b{bs} -> b{bt} [label="p{ss}:p{st}"];')
    for q, p in enumerate(parts["expose"]):
        b, s = slot[p]
        lines.append(f'  q{q} -> b{b} [dir=none, style=dashed, label="p{s}"];')
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
