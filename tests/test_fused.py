"""Fused composites against the per-box scalar closures they stand in for.

A composite whose boxes all carry a program, with at most
``_FUSE_MAX_STATEMENTS`` generated statements, runs as one generated
function over Python floats.  The reference is the same composite over the
same models stripped of their programs, which calls each box's scalar
closure in turn.  Values must be bitwise equal, and an ``ExprEvalError`` must be the
same one: box states are named after their box, so a non-finite output
names the box it came from.  Against the numpy-group path, values agree
bitwise on arithmetic and to ``ULP_TOLERANCE`` where ``sin``/``cos``/``exp``/
``^`` (numpy's there) are the last operation.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dynwire._codegen as codegen
import dynwire.modelspec as modelspec
from dynwire import (
    CPGraph,
    DWDiagram,
    ExprEvalError,
    Machine,
    ModelSpec,
    SizeMismatchError,
    UWDiagram,
    builtin_model,
    euler_directed,
    euler_undirected,
    grid,
    instantiate,
    oapply_cpg,
    oapply_directed,
    oapply_undirected,
    oapply_undirected_with_layout,
    spec_from_json,
)
from dynwire._codegen import _FUSE_MAX_STATEMENTS, Euler, Opaque, Transport
from dynwire.fileio import SimulationConfig, load_diagram, load_model
from dynwire.sim import ComposedSystem, run_trajectory

from helpers import (
    nested_cpg_case,
    nested_dwd_case,
    nested_uwd_case,
    random_cpg,
    random_dwd,
    random_uwd,
)
from test_batched import (
    ULP_TOLERANCE,
    arithmetic,
    bits,
    fused,
    scalar_only,
    transcendental,
)

# The box path's numpy arithmetic warns where the fused floats overflow
# silently; both give the same infinities.
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

# Zeros of both signs reach denominators; 1e300 and -1e308 overflow
# products into non-finite outputs.
VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.0, 1e300, -1e308]), st.floats(-8.0, 8.0))
PARAMS = st.one_of(st.sampled_from([0.0, -0.0, 0.5]), st.floats(-4.0, 4.0))
FLAVORS = st.sampled_from(["continuous", "discrete"])

OAPPLY = {"dwd": oapply_directed, "cpg": oapply_cpg, "uwd": oapply_undirected}
RANDOM = {"dwd": random_dwd, "cpg": random_cpg, "uwd": random_uwd}
NESTED = {"dwd": nested_dwd_case, "cpg": nested_cpg_case, "uwd": nested_uwd_case}


@functools.lru_cache(maxsize=None)
def expressions(kind, names: tuple[str, ...]):
    """One strategy per kind and name set: building strategies anew for every
    draw makes hypothesis validate each one again."""
    return kind(list(names))


@st.composite
def box_specs(draw, box, flavor, signature, dynamics=arithmetic):
    """A model for box ``box``; ``signature`` is ``(inputs, outputs)`` of a
    machine or ``ports`` of a sharer.  States are named after the box."""
    states = [f"b{box}x{k}" for k in range(draw(st.integers(1, 3)))]
    params = {"p0": draw(PARAMS), "p1": draw(PARAMS)}
    if isinstance(signature, int):
        ports = tuple(draw(st.sampled_from(states)) for _ in range(signature))
        fields = dict(kind="sharer", ports=ports)
        inputs = []
    else:
        inputs = [f"u{j}" for j in range(signature[0])]
        readout = expressions(arithmetic, (*states, *params))
        fields = dict(
            kind="machine", inputs=tuple(inputs),
            readout=tuple(draw(readout) for _ in range(signature[1])),
        )
    exprs = expressions(dynamics, (*states, *inputs, *params))
    return ModelSpec(
        flavor=flavor, states=tuple(states), params=params,
        dynamics={s: draw(exprs) for s in states}, **fields,
    )


def signatures(d) -> list:
    if isinstance(d, DWDiagram):
        return list(d.signature)
    if isinstance(d, CPGraph):
        return [(k, k) for k in d.port_counts]
    return list(d.port_counts)


def models(data, d, flavor, first_box=0):
    sigs = enumerate(signatures(d), first_box)
    return [instantiate(data.draw(box_specs(box, flavor, sig))) for box, sig in sigs]


def vector(data, n: int) -> np.ndarray:
    return np.array(data.draw(st.lists(VALUES, min_size=n, max_size=n)), dtype=np.float64)


def same_result(fast, slow, *args, ulps=None):
    """``fast(*args)`` equals ``slow(*args)``: bitwise, or within ``ulps``
    units in the last place, or the same ``ExprEvalError``."""
    try:
        want = slow(*args)
    except ExprEvalError as exc:
        with pytest.raises(ExprEvalError) as got:
            fast(*args)
        assert str(got.value) == str(exc)
        return
    got = fast(*args)
    if ulps is None:
        assert bits(got) == bits(want)
    else:
        assert np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want)))


def compare(fast, slow, data, ulps=None):
    """Dynamics (to ``ulps``) and readouts (bitwise) agree at three random points."""
    assert fused(fast) and not fused(slow)
    assert (fast.n_states, fast.kind) == (slow.n_states, slow.kind)
    for _ in range(3):
        x = vector(data, fast.n_states)
        if isinstance(fast, Machine):
            a = vector(data, fast.n_inputs)
            same_result(fast.dynamics, slow.dynamics, a, x, ulps=ulps)
            same_result(fast.readout, slow.readout, x)
        else:
            same_result(fast.dynamics, slow.dynamics, x, ulps=ulps)


# ---------------------------------------------------------------------------
# Properties


@settings(max_examples=200, deadline=None)
@given(syntax=st.sampled_from(sorted(OAPPLY)), seed=st.integers(0, 2**32 - 1),
       flavor=FLAVORS, data=st.data())
def test_fused_equals_scalar_boxes_bitwise(syntax, seed, flavor, data):
    d = RANDOM[syntax](random.Random(seed), max_boxes=4)
    ms = models(data, d, flavor)
    oapply = OAPPLY[syntax]
    compare(oapply(d, ms), oapply(d, scalar_only(ms)), data)


@settings(max_examples=100, deadline=None)
@given(syntax=st.sampled_from(sorted(OAPPLY)), seed=st.integers(0, 2**32 - 1),
       flavor=FLAVORS, data=st.data())
def test_nested_composites_flatten_bitwise(syntax, seed, flavor, data):
    outer, inners = NESTED[syntax](random.Random(seed), max_outer_boxes=3)
    oapply = OAPPLY[syntax]
    groups, first = [], 0
    for inner in inners:
        groups.append(models(data, inner, flavor, first))
        first += inner.n_boxes
    flat = oapply(outer, [oapply(inner, ms) for inner, ms in zip(inners, groups)])
    nested = oapply(outer, [oapply(inner, scalar_only(ms)) for inner, ms in zip(inners, groups)])
    compare(flat, nested, data)


def uniform_diagram(syntax: str, rng: random.Random, k: int, ports: int):
    """``k`` boxes with ``ports`` in-ports and out-ports each (CPG and UWD:
    ports), random wires or junctions, and outer ports wired at random."""
    box = [b for b in range(k) for _ in range(ports)]
    n = len(box)
    if syntax == "uwd":
        nj = rng.randint(1, n + 1)  # some junctions glue several ports, some none
        junc_out = [rng.randrange(nj) for _ in range(rng.randint(0, 2))]
        return UWDiagram.from_tables(k, nj, box, [rng.randrange(nj) for _ in box], junc_out)

    def pairs(n_src: int, n_tgt: int, most: int) -> list[tuple[int, int]]:
        if not (n_src and n_tgt):
            return []
        return [(rng.randrange(n_src), rng.randrange(n_tgt)) for _ in range(rng.randint(0, most))]

    wires = pairs(n, n, n + 2)
    if syntax == "cpg":
        expose = [rng.randrange(n) for _ in range(rng.randint(0, 2))] if n else []
        return CPGraph.from_tables(k, box, wires, expose)
    n_in, n_out = rng.randint(0, 2), rng.randint(0, 2)
    in_wires, out_wires = pairs(n_in, n, 3), pairs(n, n_out, 3)
    return DWDiagram.from_tables(k, box, box, n_in, n_out, wires, in_wires, out_wires)


@settings(max_examples=100, deadline=None)
@given(syntax=st.sampled_from(sorted(OAPPLY)), seed=st.integers(0, 2**32 - 1),
       k=st.integers(2, 5), ports=st.integers(0, 2), flavor=FLAVORS, data=st.data())
def test_fused_within_ulps_of_numpy_groups(syntax, seed, k, ports, flavor, data, blocks_only):
    # One model for every box, so all boxes form one numpy group.  Directed:
    # readouts are arithmetic (bitwise on both paths) and each state's
    # dynamics has one sin/cos/exp/^ at its root.  Undirected: a glued state
    # sums several boxes' values (or increments), where an ulp in each need
    # not stay an ulp of the sum, so the dynamics are arithmetic and the
    # pullback, pushforward and increments must agree bitwise.
    d = uniform_diagram(syntax, random.Random(seed), k, ports)
    if syntax == "uwd":
        spec, ulps = data.draw(box_specs(0, flavor, ports)), None
    else:
        spec = data.draw(box_specs(0, flavor, (ports, ports), dynamics=transcendental))
        ulps = ULP_TOLERANCE
    ms = [instantiate(spec)] * k
    oapply = OAPPLY[syntax]
    compare(oapply(d, ms), blocks_only(oapply, d, ms), data, ulps=ulps)


# ---------------------------------------------------------------------------
# Which composites fuse, and the cache


def heat_nodes(n: int, alpha: float = 0.1) -> list[Machine]:
    return [instantiate(builtin_model("heat_node", {"alpha": alpha}))] * n


def test_cutoff_decides_between_fused_code_and_blocks():
    # A heat node emits 6 operations and 5 output checks (its dynamics and 4
    # readouts).  A side x side grid adds one addition per wire: 4 * side *
    # (side - 1) between nodes, and its 4 * side boundary ports exposed both ways.
    def statements(side: int) -> int:
        return 11 * side**2 + 4 * side * (side - 1) + 8 * side

    assert heat_nodes(1)[0].program.statements == 11
    fast = oapply_cpg(grid(9, 9), heat_nodes(81))
    assert fused(fast) and fast.program.statements == statements(9) == 1251
    assert statements(9) <= _FUSE_MAX_STATEMENTS < statements(10) == 1540
    assert not fused(oapply_cpg(grid(10, 10), heat_nodes(100)))


def test_wire_heavy_composite_keeps_the_box_path():
    # Fused code adds once per wire, so duplicate wires count toward a cutoff.
    spec = spec_from_json({
        "kind": "machine", "flavor": "continuous", "states": ["x"], "inputs": ["u"],
        "params": {}, "dynamics": {"x": "u - x"}, "readout": ["x"],
    })
    m = instantiate(spec)
    most = _FUSE_MAX_STATEMENTS - m.program.statements
    for n, fuses in ((most, True), (most + 1, False), (10**4, False)):
        d = DWDiagram.from_tables(1, [0], [0], wires=[(0, 0)] * n)
        composite, boxes = oapply_directed(d, [m]), oapply_directed(d, scalar_only([m]))
        assert fused(composite) == fuses
        assert bits(composite.dynamics([], [0.1])) == bits(boxes.dynamics([], [0.1]))


def test_a_box_without_program_keeps_the_box_path():
    ms = heat_nodes(4)
    ms[2] = dataclasses.replace(ms[2], program=None)
    composite = oapply_cpg(grid(2, 2), ms)
    assert not fused(composite)


def test_a_composite_over_the_cutoff_carries_a_program_and_so_does_its_euler_map():
    composite = oapply_cpg(grid(10, 10), heat_nodes(100))
    assert isinstance(composite.program, Transport) and not fused(composite)
    stepped = euler_directed(composite, 0.01)
    assert isinstance(stepped.program, Euler) and not fused(stepped)
    assert stepped.program.inner is composite.program
    rng = np.random.default_rng(3)
    a, x = rng.uniform(-1.0, 1.0, composite.n_inputs), rng.uniform(0.0, 1.0, 100)
    # The map's readout has the composite's source: it compiles no new code.
    want = composite.readout(x)
    misses = codegen._compile.cache_info().misses
    assert bits(stepped.readout(x)) == bits(want)
    assert codegen._compile.cache_info().misses == misses
    assert bits(stepped.dynamics(a, x)) == bits(x + 0.01 * composite.dynamics(a, x))


def test_a_composite_with_a_hand_written_box_carries_an_unfused_program():
    ms = heat_nodes(4)
    ms[2] = Machine(
        4, 1, 4, lambda a, x: np.array([0.1 * (a.sum() - 4.0 * x[0])]), lambda x: np.repeat(x, 4),
        "continuous",
    )
    assert isinstance(ms[2].program, Opaque) and not fused(ms[2])
    composite = oapply_cpg(grid(2, 2), ms)
    assert isinstance(composite.program, Transport) and not fused(composite)
    assert composite.program.boxes[2] is ms[2].program
    stepped = euler_directed(composite, 0.5)
    assert isinstance(stepped.program, Euler) and not fused(stepped)
    x = np.array([0.5, 1.0, 1.5, 2.0])
    a = np.zeros(composite.n_inputs)
    assert bits(stepped.dynamics(a, x)) == bits(x + 0.5 * composite.dynamics(a, x))


def test_fused_code_is_cached_by_value(repo_root):
    path = repo_root / "configs" / "sir" / "cyclic.json"
    spec = builtin_model("sir_city", {"beta": 0.0005, "gamma": 0.25})
    first = oapply_directed(load_diagram(path), [instantiate(spec)] * 3)
    modelspec._build.cache_clear()  # equal, not identical, boxes
    again = oapply_directed(load_diagram(path), [instantiate(dataclasses.replace(spec))] * 3)
    assert again.program.boxes[0] == first.program.boxes[0]
    assert again.program.boxes[0] is not first.program.boxes[0]
    assert first.program == again.program and first.program is not again.program
    # Each system generates its own callables; equal sources compile once.
    codegen._compile.cache_clear()
    a, x = np.zeros(first.n_inputs), np.array([990.0, 10.0, 0.0, 1000.0, 0.0, 0.0, 500.0, 5.0, 0.0])
    got = [(bits(m.dynamics(a, x)), bits(m.readout(x))) for m in (first, again)]
    assert got[0] == got[1]
    assert codegen._compile.cache_info().misses == 2


def _slot_machine(n_in: int, n_out: int) -> Machine:
    """One state, each input and each readout weighted by its slot."""
    terms = [f"{k + 1}*u{k}" for k in range(n_in)] + ["c*x"]
    return instantiate(spec_from_json({
        "kind": "machine", "flavor": "continuous", "states": ["x"],
        "inputs": [f"u{k}" for k in range(n_in)], "params": {"c": -0.5},
        "dynamics": {"x": " + ".join(terms)},
        "readout": [f"{k + 1}*x + {k}" for k in range(n_out)],
    }))


def _relabelled(d: DWDiagram, rng: random.Random) -> DWDiagram:
    """``d`` with its in- and out-ports given other ids, each box's keeping
    their slot order, and every wire table in its order."""
    maps, columns = [], []
    for ports in (d.in_ports, d.out_ports):
        column = [b for b, p in enumerate(ports) for _ in p]
        rng.shuffle(column)
        new = [[p for p, b in enumerate(column) if b == i] for i in range(d.n_boxes)]
        maps.append({old: n for olds, news in zip(ports, new) for old, n in zip(olds, news)})
        columns.append(column)
    (to_in, to_out), a = maps, d.data.parts
    return DWDiagram.from_tables(
        d.n_boxes, *columns, d.n_outer_in, d.n_outer_out,
        [(to_out[s], to_in[t]) for s, t in zip(a["src"].tolist(), a["tgt"].tolist())],
        [(q, to_in[t]) for q, t in zip(a["src_in"].tolist(), a["tgt_in"].tolist())],
        [(to_out[s], q) for s, q in zip(a["src_out"].tolist(), a["tgt_out"].tolist())],
    )


def test_ports_relabelled_within_boxes_give_an_equal_program_and_one_trajectory_loop():
    # A composite numbers its ports box-major, so port ids that keep each
    # box's slot order are the diagram's own business.
    rng = random.Random(25)
    d = random_dwd(rng, 2, 2, max_boxes=6, max_ports=3)
    while sorted(d.column("box_in").tolist()) == d.column("box_in").tolist():
        d = random_dwd(rng, 2, 2, max_boxes=6, max_ports=3)
    e = _relabelled(d, rng)
    assert (e.in_ports, e.out_ports) != (d.in_ports, d.out_ports)
    ms = [_slot_machine(n_in, n_out) for n_in, n_out in d.signature]
    first, again = oapply_directed(d, ms), oapply_directed(e, ms)
    assert fused(first) and first.program == again.program and first.program is not again.program
    codegen._fused_runner.cache_clear()
    codegen._compile.cache_clear()
    config = SimulationConfig(h=0.05, steps=20, init=tuple(range(first.n_states)), inputs=(1.5, -2.0))
    names = tuple(map(str, range(first.n_states)))
    rows = [run_trajectory(ComposedSystem(m, names, m.kind, True), config)[1] for m in (first, again)]
    assert codegen._compile.cache_info().misses == 1
    assert bits(np.array(rows[0])) == bits(np.array(rows[1]))


def test_fused_code_is_folded_into_expressions_with_every_check_kept(repo_root, monkeypatch):
    sources = []
    compile_source = codegen._compile
    monkeypatch.setattr(codegen, "_compile", lambda src: sources.append(src) or compile_source(src))
    sir = repo_root / "configs" / "sir"
    city = instantiate(load_model(sir / "city.json"))
    composite = oapply_directed(load_diagram(sir / "cyclic.json"), [city] * 3)
    euler = Euler(composite.program, 0.01)
    folded = codegen._generate(codegen.Emitter(), euler, ["a", "x"])
    monkeypatch.setattr(codegen, "_FOLD_MAX_DEPTH", 0)  # no temporary folds
    statements = codegen._generate(codegen.Emitter(), euler, ["a", "x"])
    folded_lines, statement_lines = (source.splitlines()[1:] for source in sources[-2:])
    assert len(folded_lines) <= 45 and len(statement_lines) == 114
    # Readouts finite, denominators nonzero, dynamics finite, in the same order.
    checks = [[line for line in lines if "raise" in line] for lines in (folded_lines, statement_lines)]
    assert checks[0] == checks[1] and len(checks[0]) == 9 + 3 + 9
    states = [[990.0, 10.0, 0.0, 1000.0, 0.0, 0.0, 500.0, 0.0, 0.0], [0.0] * 9,
              [1e300, 1e300, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, -0.0], [float("inf")] + [1.0] * 8]
    for x in states:
        results = []
        for f in (folded, statements):
            try:
                results.append(bits(np.array(f((), x))))
            except ExprEvalError as exc:
                results.append(str(exc))
        assert results[0] == results[1]


def test_signed_zero_parameters_do_not_share_code():
    def composite(p: float) -> Machine:
        spec = spec_from_json({
            "kind": "machine", "flavor": "continuous", "states": ["x"], "inputs": [],
            "params": {"p": p}, "dynamics": {"x": "p"}, "readout": [],
        })
        return oapply_directed(DWDiagram.from_tables(1, [], []), [instantiate(spec)])

    negative, positive = composite(-0.0), composite(0.0)
    assert negative.program != positive.program
    assert bits(negative.dynamics([], [1.0])) == bits(np.array([-0.0]))
    assert bits(positive.dynamics([], [1.0])) == bits(np.array([0.0]))


def test_size_checks_match_the_box_path():
    d = grid(2, 2)
    fast, slow = oapply_cpg(d, heat_nodes(4)), oapply_cpg(d, scalar_only(heat_nodes(4)))
    cases = [
        (fast.dynamics, slow.dynamics, (np.zeros(fast.n_inputs + 1), np.zeros(4))),
        (fast.dynamics, slow.dynamics, (np.zeros(fast.n_inputs), np.zeros(3))),
        (fast.readout, slow.readout, (np.zeros(5),)),
    ]
    for got, want, args in cases:
        with pytest.raises(SizeMismatchError) as expected:
            want(*args)
        with pytest.raises(SizeMismatchError, match=f"^{re.escape(str(expected.value))}$"):
            got(*args)
    # Lists and integer vectors convert as on the box path.
    x = [1, 2, 3, 4]
    a = np.zeros(fast.n_inputs)
    assert bits(fast.dynamics([0] * fast.n_inputs, x)) == bits(slow.dynamics(a, x))


def test_first_failing_box_wins_on_both_paths():
    # A ring of four boxes; each overflows when its state is large, and the
    # message names the state, so it names the box.
    specs = [
        spec_from_json({
            "kind": "machine", "flavor": "continuous", "states": [f"b{i}x"], "inputs": ["u"],
            "params": {}, "dynamics": {f"b{i}x": f"b{i}x*b{i}x + u"}, "readout": [f"b{i}x"],
        })
        for i in range(4)
    ]
    ms = [instantiate(s) for s in specs]
    boxes = [0, 1, 2, 3]
    ring = DWDiagram.from_tables(4, boxes, boxes, wires=[(i, (i + 1) % 4) for i in boxes])
    fast, slow = oapply_directed(ring, ms), oapply_directed(ring, scalar_only(ms))
    assert fused(fast)
    big = 1e200
    for x, box in (([1.0, big, 1.0, big], 1), ([1.0, 1.0, 1.0, big], 3), ([big, 1.0, big, 1.0], 0)):
        for f in (slow.dynamics, fast.dynamics):
            with pytest.raises(ExprEvalError, match=f"^dynamics of 'b{box}x' produced"):
                f([], x)


def test_nested_ecosystem_is_one_function_equal_to_nested_closures(repo_root):
    eco = repo_root / "configs" / "ecosystem"
    diagrams = [load_diagram(eco / f"{n}_diagram.json") for n in ("land", "river", "total")]
    names = [
        ("rabbit_growth", "land_predation", "hawk_decline"), ("fish_growth", "river_predation"),
    ]
    groups = [[instantiate(load_model(eco / f"{n}.json")) for n in group] for group in names]

    def nested(strip):
        inner = [oapply_undirected(d, strip(ms)) for d, ms in zip(diagrams, groups)]
        return oapply_undirected_with_layout(diagrams[2], inner)[0]

    flat, closures = nested(list), nested(scalar_only)
    assert fused(flat) and not fused(closures)
    step_flat, step_closures = euler_undirected(flat, 0.001), euler_undirected(closures, 0.001)
    x = y = np.random.default_rng(7).uniform(1.0, 10.0, flat.n_states)
    for _ in range(200):
        x, y = step_flat.dynamics(x), step_closures.dynamics(y)
        assert bits(x) == bits(y)
