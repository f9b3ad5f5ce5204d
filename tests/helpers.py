"""Shared test machinery: random diagrams/systems, oracles, and alignment."""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import numpy as np

from dynwire import (
    ArityError,
    CPGraph,
    CSetInstance,
    DWDiagram,
    FinFunction,
    Machine,
    PushoutResult,
    ResourceSharer,
    UndirectedLayout,
    UWDiagram,
    Violation,
)
from dynwire.errors import DynwireError
from dynwire.fileio import instance_from_json

# ---------------------------------------------------------------------------
# Random diagrams


def shuffled_box_column(rng: random.Random, counts: list[int]) -> list[int]:
    col = [b for b, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(col)
    return col


def random_uwd(
    rng: random.Random,
    n_outer: int | None = None,
    max_boxes: int = 3,
    max_ports: int = 3,
    max_junctions: int = 4,
) -> UWDiagram:
    nb = rng.randint(1, max_boxes)
    counts = [rng.randint(0, max_ports) for _ in range(nb)]
    nj = rng.randint(1, max_junctions)
    box = shuffled_box_column(rng, counts)
    junc_in = [rng.randrange(nj) for _ in box]
    nq = rng.randint(0, 3) if n_outer is None else n_outer
    junc_out = [rng.randrange(nj) for _ in range(nq)]
    return UWDiagram.from_tables(nb, nj, box, junc_in, junc_out)


def random_dwd(
    rng: random.Random,
    n_outer_in: int | None = None,
    n_outer_out: int | None = None,
    max_boxes: int = 3,
    max_ports: int = 3,
) -> DWDiagram:
    nb = rng.randint(1, max_boxes)
    in_counts = [rng.randint(0, max_ports) for _ in range(nb)]
    out_counts = [rng.randint(0, max_ports) for _ in range(nb)]
    box_in = shuffled_box_column(rng, in_counts)
    box_out = shuffled_box_column(rng, out_counts)
    n_pin, n_pout = len(box_in), len(box_out)
    nqi = rng.randint(0, 2) if n_outer_in is None else n_outer_in
    nqo = rng.randint(0, 2) if n_outer_out is None else n_outer_out
    wires = []
    if n_pin and n_pout:
        wires = [
            (rng.randrange(n_pout), rng.randrange(n_pin))
            for _ in range(rng.randint(0, n_pin + 2))
        ]
    in_wires = []
    if n_pin and nqi:
        in_wires = [
            (rng.randrange(nqi), rng.randrange(n_pin)) for _ in range(rng.randint(0, 3))
        ]
    out_wires = []
    if n_pout and nqo:
        out_wires = [
            (rng.randrange(n_pout), rng.randrange(nqo)) for _ in range(rng.randint(0, 3))
        ]
    return DWDiagram.from_tables(nb, box_in, box_out, nqi, nqo, wires, in_wires, out_wires)


def random_cpg(
    rng: random.Random,
    n_outer: int | None = None,
    max_boxes: int = 4,
    max_ports: int = 4,
) -> CPGraph:
    nb = rng.randint(1, max_boxes)
    counts = [rng.randint(0, max_ports) for _ in range(nb)]
    if n_outer and sum(counts) == 0:
        counts[rng.randrange(nb)] = rng.randint(1, max_ports)
    box = shuffled_box_column(rng, counts)
    n_ports = len(box)
    wires = []
    if n_ports:
        wires = [
            (rng.randrange(n_ports), rng.randrange(n_ports))
            for _ in range(rng.randint(0, n_ports))
        ]
    if n_outer is None:
        nq = rng.randint(0, 3) if n_ports else 0
    else:
        nq = n_outer
    expose = [rng.randrange(n_ports) for _ in range(nq)]
    return CPGraph.from_tables(nb, box, wires, expose)


def nested_uwd_case(rng: random.Random, max_outer_boxes: int = 4):
    outer = random_uwd(rng, max_boxes=max_outer_boxes)
    inners = [random_uwd(rng, n_outer=k) for k in outer.port_counts]
    return outer, inners


def nested_dwd_case(rng: random.Random, max_outer_boxes: int = 4):
    outer = random_dwd(rng, max_boxes=max_outer_boxes)
    inners = [random_dwd(rng, n_outer_in=m, n_outer_out=n) for m, n in outer.signature]
    return outer, inners


def nested_cpg_case(rng: random.Random, max_outer_boxes: int = 4):
    outer = random_cpg(rng, max_boxes=max_outer_boxes)
    inners = [random_cpg(rng, n_outer=k) for k in outer.port_counts]
    return outer, inners


# ---------------------------------------------------------------------------
# Random systems (linear, bounded coefficients so trajectories stay tame)


def random_machine(
    nprng: np.random.Generator,
    n_inputs: int,
    n_outputs: int,
    max_states: int = 3,
    kind: str = "continuous",
) -> Machine:
    n = int(nprng.integers(1, max_states + 1))
    A = nprng.uniform(-0.4, 0.4, (n, n))
    B = nprng.uniform(-0.4, 0.4, (n, n_inputs))
    c = nprng.uniform(-0.2, 0.2, n)
    R = nprng.uniform(-0.8, 0.8, (n_outputs, n))

    def dynamics(a: np.ndarray, x: np.ndarray) -> np.ndarray:
        return A @ x + B @ a + c

    def readout(x: np.ndarray) -> np.ndarray:
        return R @ x

    return Machine(n_inputs, n, n_outputs, dynamics, readout, kind)


def random_sharer(
    nprng: np.random.Generator, n_ports: int, max_states: int = 3, kind: str = "continuous"
) -> ResourceSharer:
    n = int(nprng.integers(1, max_states + 1))
    A = nprng.uniform(-0.4, 0.4, (n, n))
    c = nprng.uniform(-0.2, 0.2, n)
    portmap = FinFunction(n_ports, n, tuple(int(v) for v in nprng.integers(0, n, n_ports)))

    def dynamics(x: np.ndarray) -> np.ndarray:
        return A @ x + c

    return ResourceSharer(n_ports, n, portmap, dynamics, kind)


# ---------------------------------------------------------------------------
# Alignment of undirected composite state spaces.
#
# Composite states are pushout classes, so two equivalent composites may
# number them differently.  Classes containing component states align via
# the state injections; junction-only classes are dynamically inert and are
# paired by their port-attachment pattern.


def compose_state_injections(
    inner_layouts: list[UndirectedLayout], outer_layout: UndirectedLayout
) -> FinFunction:
    """Total state injection of a two-level composite, component states in."""
    offs = [0]
    for layout in inner_layouts:
        offs.append(offs[-1] + layout.state_injection.cod_size)
    entries = []
    for i, layout in enumerate(inner_layouts):
        for local in layout.state_injection.map:
            entries.append(outer_layout.state_injection.map[offs[i] + local])
    return FinFunction(len(entries), outer_layout.state_injection.cod_size, tuple(entries))


def align_undirected_states(
    inj_left: FinFunction,
    portmap_left: FinFunction,
    inj_right: FinFunction,
    portmap_right: FinFunction,
) -> list[int]:
    """Permutation pi with pi[left class] = right class; asserts consistency."""
    assert inj_left.dom_size == inj_right.dom_size
    assert inj_left.cod_size == inj_right.cod_size
    n = inj_left.cod_size
    pi = [-1] * n
    for s in range(inj_left.dom_size):
        l, r = inj_left.map[s], inj_right.map[s]
        assert pi[l] in (-1, r), "state injections are inconsistent"
        pi[l] = r
    left_over = [c for c in range(n) if pi[c] == -1]
    used = {r for r in pi if r != -1}
    right_over = [c for c in range(n) if c not in used]
    assert len(left_over) == len(right_over)

    def pattern(portmap: FinFunction, c: int) -> tuple[int, ...]:
        return tuple(q for q in range(portmap.dom_size) if portmap.map[q] == c)

    left_sorted = sorted(left_over, key=lambda c: (pattern(portmap_left, c), c))
    right_sorted = sorted(right_over, key=lambda c: (pattern(portmap_right, c), c))
    for l, r in zip(left_sorted, right_sorted):
        assert pattern(portmap_left, l) == pattern(portmap_right, r)
        pi[l] = r
    return pi


# ---------------------------------------------------------------------------
# Brute-force pushout oracle: the computed apex mediates every commuting
# cocone exactly once, checked by enumerating all maps as base-D digit rows.


def all_maps(n_from: int, n_to: int) -> np.ndarray:
    """All maps [0,n_from) -> [0,n_to) as rows of digits; row index encodes
    the map in base ``n_to``."""
    count = n_to**n_from
    idx = np.arange(count, dtype=np.int64)
    cols = [(idx // (n_to**k)) % n_to for k in range(n_from)]
    return np.stack(cols, axis=1) if n_from else np.zeros((count, 0), dtype=np.int64)


def satisfies_universal_property(
    f: FinFunction, g: FinFunction, po: PushoutResult, max_cocone: int = 6
) -> bool:
    a_size, b_size, c_size = f.dom_size, f.cod_size, g.cod_size
    apex = po.apex_size
    inj_b = list(po.inj_left.map)
    inj_c = list(po.inj_right.map)
    for a in range(a_size):
        if inj_b[f.map[a]] != inj_c[g.map[a]]:
            return False
    for d in range(0, max_cocone + 1):
        if d == 0:
            # A cocone into the empty set exists only for empty feet, and the
            # unique mediating map needs an empty apex.
            if b_size == 0 and c_size == 0 and apex != 0:
                return False
            continue
        maps_b = all_maps(b_size, d)
        maps_c = all_maps(c_size, d)
        pow_a = d ** np.arange(a_size, dtype=np.int64)
        enc_u = maps_b[:, list(f.map)] @ pow_a if a_size else np.zeros(len(maps_b), dtype=np.int64)
        enc_v = maps_c[:, list(g.map)] @ pow_a if a_size else np.zeros(len(maps_c), dtype=np.int64)
        ii, jj = np.nonzero(enc_u[:, None] == enc_v[None, :])
        cocone_codes = ii * (d**c_size) + jj

        maps_t = all_maps(apex, d)
        pow_b = d ** np.arange(b_size, dtype=np.int64)
        pow_c = d ** np.arange(c_size, dtype=np.int64)
        code_u = maps_t[:, inj_b] @ pow_b if b_size else np.zeros(len(maps_t), dtype=np.int64)
        code_v = maps_t[:, inj_c] @ pow_c if c_size else np.zeros(len(maps_t), dtype=np.int64)
        m_codes = code_u * (d**c_size) + code_v
        # Exactly-one mediating map == the map-to-cocone assignment is a
        # bijection onto the commuting cocones.
        if len(np.unique(m_codes)) != len(m_codes):
            return False
        if not np.array_equal(np.sort(m_codes), np.sort(cocone_codes)):
            return False
    return True


def _all_map_tables(a: int, b: int) -> list[tuple[int, ...]]:
    if a == 0:
        return [()]
    if b == 0:
        return []
    return list(itertools.product(range(b), repeat=a))


def all_spans(max_size: int = 3):
    """Every span B <- A -> C with all three sizes bounded."""
    for a in range(max_size + 1):
        for b in range(max_size + 1):
            for c in range(max_size + 1):
                for fmap in _all_map_tables(a, b):
                    for gmap in _all_map_tables(a, c):
                        yield FinFunction(a, b, fmap), FinFunction(a, c, gmap)


# ---------------------------------------------------------------------------
# Independent dense 5-point stencil stepper (heat oracle)


def dense_heat_step(x2d: np.ndarray, alpha: float, h: float) -> np.ndarray:
    padded = np.pad(x2d, 1, constant_values=0.0)
    neighbors = (
        padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:]
    )
    return x2d + h * alpha * (neighbors - 4.0 * x2d)


def torus(width: int, height: int) -> CPGraph:
    """A fully wired wrap-around grid: no exposed ports, so no boundary flux."""
    NORTH, EAST, SOUTH, WEST = 0, 1, 2, 3

    def port(x: int, y: int, d: int) -> int:
        return 4 * (y * width + x) + d

    wires = []
    for y in range(height):
        for x in range(width):
            xe, ys = (x + 1) % width, (y + 1) % height
            wires.append((port(x, y, EAST), port(xe, y, WEST)))
            wires.append((port(xe, y, WEST), port(x, y, EAST)))
            wires.append((port(x, y, SOUTH), port(x, ys, NORTH)))
            wires.append((port(x, ys, NORTH), port(x, y, SOUTH)))
    n = width * height
    box = tuple(p // 4 for p in range(4 * n))
    return CPGraph.from_tables(n, box, wires, ())


# ---------------------------------------------------------------------------
# Row-by-row references for the whole-column paths of the library: each walks
# one entry at a time, the way those paths were first written.


def reference_json_text(data: object) -> str:
    """What a diagram or model file holds: indent-2 JSON and a newline."""
    return json.dumps(data, indent=2) + "\n"


def reference_load_instance(path) -> CSetInstance:
    """``fileio.load_instance`` as ``json.loads`` alone reads the file, with
    every column a list of Python ints, and its errors worded the same."""
    try:
        data = json.loads(Path(path).read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DynwireError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise DynwireError(f"{path}: expected a JSON object")
    return instance_from_json(data)


def reference_state_names(box_labels, specs) -> list[str]:
    """``sim._qualified``, one f-string per box and state."""
    return [f"{box_labels[i]}.{s}" for i, spec in enumerate(specs) for s in spec.states]


def reference_format_rows(parts, columns, sep: str) -> str:
    """``_textcols.format_rows``, one f-string per line."""
    lines = []
    for i in range(len(columns[0])):
        line = parts[0]
        for col, part in zip(columns, parts[1:]):
            line += f"{col[i]}{part}"
        lines.append(line)
    return sep.join(lines)


def reference_validate(x: CSetInstance) -> list[Violation]:
    out: list[Violation] = []
    for ob in x.schema.objects:
        if x.card[ob] < 0:
            out.append(Violation(ob, None, f"negative cardinality {x.card[ob]}"))
        elif x.card[ob] >= 2**63:
            message = f"cardinality {x.card[ob]} is not below the index limit {2**63}"
            out.append(Violation(ob, None, message))
    for m in x.schema.morphisms:
        col = x.parts[m.name]
        if len(col) != x.card[m.dom]:
            out.append(
                Violation(m.name, None, f"column has {len(col)} rows, card({m.dom}) is {x.card[m.dom]}")
            )
            continue
        bound = x.card[m.cod]
        for row, v in enumerate(col):
            if not 0 <= v < bound:
                out.append(Violation(m.name, row, f"entry {v} outside [0, {bound})"))
    return out


def reference_map_error(dom_size: int, cod_size: int, entries) -> str | None:
    """The message ``FinFunction(dom_size, cod_size, entries)`` raises, or None.

    Floats and bools are refused, never truncated, before any size check.
    """
    for i, v in enumerate(entries):
        if isinstance(v, bool) or not isinstance(v, int):
            return f"map entry {i} is {v!r}, not an integer"
    if dom_size < 0 or cod_size < 0:
        return "set sizes must be nonnegative"
    if len(entries) != dom_size:
        return f"map has {len(entries)} entries but dom_size is {dom_size}"
    for i, v in enumerate(entries):
        if not 0 <= v < cod_size:
            return f"map entry {i} is {v}, outside codomain [0, {cod_size})"
    return None


def reference_merge_classes(size: int, pairs) -> FinFunction:
    """Union-find; classes numbered ascending by smallest member."""
    parent = list(range(size))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in pairs:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    number: dict[int, int] = {}
    out = [number.setdefault(find(i), len(number)) for i in range(size)]
    return FinFunction(size, len(number), tuple(out))


def reference_ports_by_box(box_col, n_boxes: int) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(n_boxes)]
    for port, b in enumerate(box_col):
        out[b].append(port)
    return out


def reference_undirected_layout(d: UWDiagram, sharers: list[ResourceSharer]) -> UndirectedLayout:
    """The layout of ``oapply_undirected_with_layout``, box by box: the ports
    of box ``i``, in slot order, map to its portmap shifted by its state
    offset, and that total portmap is glued to ``junc_in`` by union-find.
    Raises the arity error of the first box whose port count differs."""
    box = d.data.parts["box"]
    total, n_states = [0] * len(box), 0
    for i, (s, ports) in enumerate(zip(sharers, reference_ports_by_box(box, d.n_boxes))):
        if s.n_ports != len(ports):
            raise ArityError(f"box {i} expects {len(ports)} ports, sharer has {s.n_ports}")
        for slot, port in enumerate(ports):
            total[port] = n_states + s.portmap.map[slot]
        n_states += s.n_states
    junc_in = d.data.parts["junc_in"]
    q = reference_merge_classes(
        n_states + d.n_junctions, [(t, n_states + j) for t, j in zip(total, junc_in)]
    )
    return UndirectedLayout(
        FinFunction(n_states, q.cod_size, q.map[:n_states]),
        FinFunction(d.n_junctions, q.cod_size, q.map[n_states:]),
    )


def _reference_slots(box_col, n_boxes: int) -> dict[int, tuple[int, int]]:
    ports = reference_ports_by_box(box_col, n_boxes)
    return {p: (i, s) for i, box in enumerate(ports) for s, p in enumerate(box)}


def _reference_new_of_old(box_col) -> list[int]:
    order = sorted(range(len(box_col)), key=lambda p: (box_col[p], p))
    new_of_old = [0] * len(box_col)
    for new, old in enumerate(order):
        new_of_old[old] = new
    return new_of_old


def _permuted(col, new_of_old: list[int]) -> list[int]:
    out = [0] * len(col)
    for old, v in enumerate(col):
        out[new_of_old[old]] = v
    return out


def reference_canonical(d):
    """Ports grouped by box, UWD junctions renumbered by first use, wires sorted."""
    p = d.data.parts
    if isinstance(d, UWDiagram):
        sigma = _reference_new_of_old(p["box"])
        junc_in = _permuted(p["junc_in"], sigma)
        renum: dict[int, int] = {}
        for j in [*junc_in, *p["junc_out"], *range(d.n_junctions)]:
            renum.setdefault(j, len(renum))
        return UWDiagram.from_tables(
            d.n_boxes, d.n_junctions, _permuted(p["box"], sigma),
            [renum[j] for j in junc_in], [renum[j] for j in p["junc_out"]],
        )
    if isinstance(d, DWDiagram):
        si, so = _reference_new_of_old(p["box_in"]), _reference_new_of_old(p["box_out"])
        return DWDiagram.from_tables(
            d.n_boxes, _permuted(p["box_in"], si), _permuted(p["box_out"], so),
            d.n_outer_in, d.n_outer_out,
            sorted((so[s], si[t]) for s, t in zip(p["src"], p["tgt"])),
            sorted((s, si[t]) for s, t in zip(p["src_in"], p["tgt_in"])),
            sorted((so[s], t) for s, t in zip(p["src_out"], p["tgt_out"])),
        )
    sigma = _reference_new_of_old(p["box"])
    return CPGraph.from_tables(
        d.n_boxes, _permuted(p["box"], sigma),
        sorted((sigma[s], sigma[t]) for s, t in zip(p["src"], p["tgt"])),
        [sigma[q] for q in p["expose"]],
    )


def reference_dot(d) -> str:
    """``to_dot(d)``, one line at a time: header, boxes, junctions, outer
    ports, edges and the closing brace."""
    p = d.data.parts
    graph = "graph" if isinstance(d, UWDiagram) else "digraph"
    lines = [f"{graph} diagram {{", "  rankdir=LR;", "  subgraph cluster_body {", "    style=rounded;"]
    for b in range(d.n_boxes):
        lines.append(f'    b{b} [label="b{b}", shape=box];')
    for j in range(d.n_junctions if isinstance(d, UWDiagram) else 0):
        lines.append(f'    j{j} [label="", shape=point];')
    lines.append("  }")
    if isinstance(d, UWDiagram):
        for q in range(d.n_outer):
            lines.append(f'  q{q} [label="q{q}", shape=plaintext];')
        for b, j in zip(p["box"], p["junc_in"]):
            lines.append(f"  b{b} -- j{j};")
        for q, j in enumerate(p["junc_out"]):
            lines.append(f"  q{q} -- j{j};")
    elif isinstance(d, DWDiagram):
        for q in range(d.n_outer_in):
            lines.append(f'  qin{q} [label="in{q}", shape=plaintext];')
        for q in range(d.n_outer_out):
            lines.append(f'  qout{q} [label="out{q}", shape=plaintext];')
        ins, outs = _reference_slots(p["box_in"], d.n_boxes), _reference_slots(p["box_out"], d.n_boxes)
        for s, t in zip(p["src"], p["tgt"]):
            (bs, ss), (bt, st) = outs[s], ins[t]
            lines.append(f'  b{bs} -> b{bt} [label="o{ss}:i{st}"];')
        for s, t in zip(p["src_in"], p["tgt_in"]):
            bt, st = ins[t]
            lines.append(f'  qin{s} -> b{bt} [label="i{st}"];')
        for s, t in zip(p["src_out"], p["tgt_out"]):
            bs, ss = outs[s]
            lines.append(f'  b{bs} -> qout{t} [label="o{ss}"];')
    else:
        for q in range(d.n_outer):
            lines.append(f'  q{q} [label="q{q}", shape=plaintext];')
        slot = _reference_slots(p["box"], d.n_boxes)
        for s, t in zip(p["src"], p["tgt"]):
            (bs, ss), (bt, st) = slot[s], slot[t]
            lines.append(f'  b{bs} -> b{bt} [label="p{ss}:p{st}"];')
        for q, port in enumerate(p["expose"]):
            b, s = slot[port]
            lines.append(f'  q{q} -> b{b} [dir=none, style=dashed, label="p{s}"];')
    lines.append("}")
    return "".join(line + "\n" for line in lines)


def reference_ocompose_dwd(outer: DWDiagram, inners: list[DWDiagram]) -> DWDiagram:
    """Wire splicing by chasing each chain from its start, one wire at a time."""
    od = outer.data.parts
    in_slot = _reference_slots(od["box_in"], outer.n_boxes)
    out_slot = _reference_slots(od["box_out"], outer.n_boxes)
    pin_off = list(itertools.accumulate([0] + [d.data.card["P_in"] for d in inners]))
    pout_off = list(itertools.accumulate([0] + [d.data.card["P_out"] for d in inners]))
    box_off = list(itertools.accumulate([0] + [d.n_boxes for d in inners]))

    def chase_in(i: int, slot: int) -> list[int]:
        ip = inners[i].data.parts
        return [t + pin_off[i] for s, t in zip(ip["src_in"], ip["tgt_in"]) if s == slot]

    wires, in_wires, out_wires = [], [], []
    for q, p in zip(od["src_in"], od["tgt_in"]):
        in_wires.extend((q, t) for t in chase_in(*in_slot[p]))
    for i, inner in enumerate(inners):
        ip = inner.data.parts
        wires.extend((s + pout_off[i], t + pin_off[i]) for s, t in zip(ip["src"], ip["tgt"]))
        for s, slot in zip(ip["src_out"], ip["tgt_out"]):
            for os_, ot in zip(od["src"], od["tgt"]):
                if out_slot[os_] == (i, slot):
                    wires.extend((s + pout_off[i], t) for t in chase_in(*in_slot[ot]))
            for os_, q in zip(od["src_out"], od["tgt_out"]):
                if out_slot[os_] == (i, slot):
                    out_wires.append((s + pout_off[i], q))
    return DWDiagram.from_tables(
        box_off[-1],
        [b + box_off[i] for i, d in enumerate(inners) for b in d.data.parts["box_in"]],
        [b + box_off[i] for i, d in enumerate(inners) for b in d.data.parts["box_out"]],
        outer.n_outer_in, outer.n_outer_out, wires, in_wires, out_wires,
    )


# ---------------------------------------------------------------------------
# Reference composites and steps: plain loops over the diagram's columns
#
# A reference composite calls each box's own callables, in the order the
# composition defines, on lists of Python floats, and returns lists.  Its
# boxes may be models or other reference composites, so nested diagrams
# compose too.  Sums start from 0.0 and add in wire (or box-state) order, as
# ``finset.fiber_sum`` does, so values agree bitwise with any correct path.


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _state_offsets(systems) -> list[int]:
    return list(itertools.accumulate((s.n_states for s in systems), initial=0))


def reference_oapply_directed(d: DWDiagram, machines) -> Machine:
    """``oapply_directed(d, machines)`` by plain loops: every box's readout
    in box order, then in-port sums (box wires before outer in-wires), then
    every box's dynamics in box order."""
    parts = {k: v.tolist() for k, v in d.data.parts.items()}
    ins = reference_ports_by_box(parts["box_in"], d.n_boxes)
    outs = reference_ports_by_box(parts["box_out"], d.n_boxes)
    offs = _state_offsets(machines)
    wires = [*zip(parts["src"], parts["tgt"])]
    in_wires = [*zip(parts["src_in"], parts["tgt_in"])]

    def readouts(x: list[float]) -> list[float]:
        values = [0.0] * len(parts["box_out"])
        for i, m in enumerate(machines):
            for port, v in zip(outs[i], _floats(m.readout(x[offs[i]:offs[i + 1]]))):
                values[port] = v
        return values

    def dynamics(a, x) -> list[float]:
        a, x = _floats(a), _floats(x)
        values, feed = readouts(x), [0.0] * len(parts["box_in"])
        for s, t in wires:
            feed[t] = feed[t] + values[s]
        for s, t in in_wires:
            feed[t] = feed[t] + a[s]
        out: list[float] = []
        for i, m in enumerate(machines):
            out += _floats(m.dynamics([feed[p] for p in ins[i]], x[offs[i]:offs[i + 1]]))
        return out

    def readout(x) -> list[float]:
        values, out = readouts(_floats(x)), [0.0] * d.n_outer_out
        for s, t in zip(parts["src_out"], parts["tgt_out"]):
            out[t] = out[t] + values[s]
        return out

    kind = machines[0].kind if machines else "continuous"
    return Machine(d.n_outer_in, offs[-1], d.n_outer_out, dynamics, readout, kind)


def reference_oapply_undirected(d: UWDiagram, sharers) -> ResourceSharer:
    """``oapply_undirected(d, sharers)`` by plain loops: box states pulled
    back from the glued states, every box's dynamics in box order, and the
    results (a discrete composite: their increments, added to the glued
    state) summed per glued state in box-state order."""
    layout = reference_undirected_layout(d, sharers)
    glue, n = layout.state_injection.map, layout.state_injection.cod_size
    offs = _state_offsets(sharers)
    kind = sharers[0].kind if sharers else "continuous"

    def dynamics(x) -> list[float]:
        x = _floats(x)
        y = [x[c] for c in glue]
        out: list[float] = []
        for i, s in enumerate(sharers):
            out += _floats(s.dynamics(y[offs[i]:offs[i + 1]]))
        if kind == "discrete":
            out = [o - v for o, v in zip(out, y)]
        sums = [0.0] * n
        for g, c in enumerate(glue):
            sums[c] = sums[c] + out[g]
        return [v + s for v, s in zip(x, sums)] if kind == "discrete" else sums

    junctions = layout.junction_injection.map
    portmap = FinFunction(d.n_outer, n, [junctions[j] for j in d.data.parts["junc_out"].tolist()])
    return ResourceSharer(d.n_outer, n, portmap, dynamics, kind)


def reference_step(system, scheme: str, h: float):
    """One step ``(a, x) -> next x`` of ``system`` over lists of floats: its
    own map (``direct``), ``x_i + h*u_i`` (``euler``) or classic RK4 with
    stages at ``x_i + (0.5*h)*k_i`` and ``x_i + h*k3_i`` (``rk4``)."""
    f = system.dynamics if isinstance(system, Machine) else (lambda a, x: system.dynamics(x))

    def stage(a, x, c, k):
        return _floats(f(a, [v + c * d for v, d in zip(x, k)]))

    def step(a, x) -> list[float]:
        u = _floats(f(a, x))
        if scheme == "direct":
            return u
        if scheme == "euler":
            return [v + h * d for v, d in zip(x, u)]
        k2 = stage(a, x, 0.5 * h, u)
        k3 = stage(a, x, 0.5 * h, k2)
        k4 = stage(a, x, h, k3)
        return [
            v + (h / 6.0) * (((k1 + 2.0 * b) + 2.0 * c) + d)
            for v, k1, b, c, d in zip(x, u, k2, k3, k4)
        ]

    return step
