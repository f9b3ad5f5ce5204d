"""Every evaluation path against plain-loop reference composites.

``helpers.reference_oapply_directed`` and ``helpers.reference_oapply_undirected``
compose by plain loops over a diagram's columns, calling each box's own
callables, and ``helpers.reference_step`` steps lists of floats.  The same
random composite, one-level or nested, is built three ways: as built (fused
code), with fusing turned off (``blocks_only``: array code, boxes that share
a model in groups), and over boxes without programs (``scalar_only``: array
code calling every box).  Each must step bitwise as the reference does, 20
Euler and 20 RK4 steps, and fail with the same ``ExprEvalError``.  Planted
failures in two boxes (a zero denominator and an overflowing output, whose
messages differ) check that the error comes from the same box.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynwire import (
    BinOp,
    DWDiagram,
    ExprEvalError,
    Machine,
    Num,
    UWDiagram,
    Var,
    cpg_to_dwd,
    instantiate,
    oapply_cpg,
    oapply_directed,
    oapply_undirected,
    spec_from_json,
)
from dynwire._codegen import Euler, runner
from dynwire.fileio import SimulationConfig
from dynwire.sim import ComposedSystem, run_trajectory

from helpers import reference_oapply_directed, reference_oapply_undirected, reference_step
from test_batched import bits, fused, scalar_only
from test_fused import FLAVORS, NESTED, RANDOM, VALUES, box_specs, signatures

# The array paths warn where floats overflow; the reference's Python floats
# do not, and all give the same infinities.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)

SYNTAXES = {
    "dwd": (oapply_directed, reference_oapply_directed),
    "cpg": (oapply_cpg, lambda g, ms: reference_oapply_directed(cpg_to_dwd(g), ms)),
    "uwd": (oapply_undirected, reference_oapply_undirected),
}
STEPS = 20


def planted(spec, failure: str):
    """``spec`` with its first state's dynamics ``1/(x - x)``, a zero
    denominator, or (``overflow``) ``1e300*1e300``, whose message names the
    state and so the box."""
    x = spec.states[0]
    if failure == "overflow":
        expr = BinOp("*", Num(1e300), Num(1e300))
    else:
        expr = BinOp("/", Num(1.0), BinOp("-", Var(x), Var(x)))
    return dataclasses.replace(spec, dynamics={**spec.dynamics, x: expr})


def box_models(data, diagrams, flavor, plant: bool) -> list[list]:
    """The models of the boxes of each diagram, numbered across them.  A box
    may reuse the spec of an earlier box of its signature (so the boxes
    group), and with ``plant`` two boxes fail, in an order drawn."""
    specs, first = [], {}
    for d in diagrams:
        for sig in signatures(d):
            box = len(specs)
            spec = data.draw(box_specs(box, flavor, sig))
            if sig in first and data.draw(st.booleans()):
                spec = specs[first[sig]]
            first.setdefault(sig, box)
            specs.append(spec)
    if plant and specs:
        boxes = data.draw(st.permutations(range(len(specs))))[:2]
        for box, failure in zip(boxes, ("zero", "overflow")):
            specs[box] = planted(specs[box], failure)
    models, it = [], iter(specs)
    for d in diagrams:
        models.append([instantiate(next(it)) for _ in range(d.n_boxes)])
    return models


def screened(rows: list[list[float]], names: tuple[str, ...]):
    """``rows``, or ``run_trajectory``'s message for their first non-finite state."""
    header = ["t", *names]
    for k, row in enumerate(rows):
        for j, value in enumerate(row):
            if not math.isfinite(value):
                return f"step {k} (t={row[0]!r}) left state {header[j]!r} non-finite: {value!r}"
    return rows


def reference_rows(system, x0, a, h: float, scheme: str, names):
    step = reference_step(system, "direct" if system.kind == "discrete" else scheme, h)
    x, rows = list(x0), [[0.0, *x0]]
    try:
        for k in range(STEPS):
            x = step(a, x)
            rows.append([(k + 1) * h, *x])
    except ExprEvalError as exc:
        return str(exc)
    return screened(rows, names)


def library_rows(system, x0, a, h: float, scheme: str, names):
    directed = isinstance(system, Machine)
    composed = ComposedSystem(system, names, system.kind, directed)
    config = SimulationConfig(h=h, steps=STEPS, init=tuple(x0), inputs=tuple(a) if directed else None)
    try:
        return run_trajectory(composed, config, scheme)[1]
    except ExprEvalError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(syntax=st.sampled_from(sorted(SYNTAXES)), nested=st.booleans(),
       seed=st.integers(0, 2**32 - 1), flavor=FLAVORS, plant=st.booleans(), data=st.data())
def test_every_path_steps_bitwise_as_the_reference(
    syntax, nested, seed, flavor, plant, data, blocks_only
):
    rng = random.Random(seed)
    oapply, reference = SYNTAXES[syntax]
    if nested:
        outer, inners = NESTED[syntax](rng, max_outer_boxes=3)
    else:
        outer, inners = None, [RANDOM[syntax](rng, max_boxes=4)]
    models = box_models(data, inners, flavor, plant)

    def build(compose, prepare):
        parts = [compose(d, prepare(ms)) for d, ms in zip(inners, models)]
        return compose(outer, parts) if nested else parts[0]

    want = build(reference, list)
    builds = {
        "fused": build(oapply, list),
        "blocks": blocks_only(build, oapply, list),
        "scalar": build(oapply, scalar_only),
    }
    assert [fused(s) for s in builds.values()] == [True, False, False]
    h = data.draw(st.sampled_from([0.01, 0.5, 1.0 / 3.0]))
    x0 = data.draw(st.lists(VALUES, min_size=want.n_states, max_size=want.n_states))
    n_inputs = want.n_inputs if isinstance(want, Machine) else 0
    a = data.draw(st.lists(VALUES, min_size=n_inputs, max_size=n_inputs))
    names = tuple(f"s{i}" for i in range(want.n_states))
    for scheme in ["euler", "rk4"] if flavor == "continuous" else ["euler"]:
        expected = reference_rows(want, x0, a, h, scheme, names)
        for path, system in builds.items():
            got = library_rows(system, x0, a, h, scheme, names)
            if isinstance(expected, str):
                assert got == expected, (path, scheme)
            else:
                assert not isinstance(got, str), (path, scheme, got)
                assert bits(np.array(got)) == bits(np.array(expected)), (path, scheme)


# ---------------------------------------------------------------------------
# The gather paths of box-by-box composites.  Two groups of alike boxes, in
# a drawn order: one whose readouts are all bare states, which the
# composite gathers straight from its states and the readout phase only
# screens, and one that computes a readout too.  The wiring feeds in-ports
# from no wire, one, and (``multi``) several, and the choice between one
# gather and ``fiber_sum`` is made per composite from that table.  Start
# states and inputs hold -0.0.  From a planted start, one step must fail as
# the reference's does, from the first failing box in box order: ``w``, read
# by nothing but its bare readout, is non-finite, or ``y`` is zero, which
# divides the computed readout ``x/y`` by zero.

ALIKE = {
    "kind": "machine", "flavor": "continuous", "states": ["x", "y", "w"], "inputs": ["u", "v"],
    "params": {"k": 0.5}, "dynamics": {"x": "u - k*x*y", "y": "v + x - y", "w": "k"},
    "readout": ["x", "x/y", "w", "y"],
}
BARE = {**ALIKE, "readout": ["x", "w", "y", "x"]}
SIGNED = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -0.5]), st.floats(-4.0, 4.0))
NONZERO = st.one_of(st.sampled_from([1.5, -0.5]), st.floats(0.25, 4.0))
H = 0.125


def wired(data, ports: int, sources: int, multi: bool) -> list[tuple[int, int]]:
    """Wires into ``ports`` targets from ``sources``, in a drawn order: a
    target's fan-in is 0 or 1, and with ``multi`` up to 3; the first three
    targets take 0, 1 and (``multi``) 2, so that each fan-in occurs."""
    fans = [0, 1, 2 if multi else 1] + [
        data.draw(st.integers(0, 3 if multi else 1)) for _ in range(ports - 3)
    ]
    source = st.integers(0, sources - 1)
    wires = [(data.draw(source), t) for t, fan in enumerate(fans) for _ in range(fan)]
    return data.draw(st.permutations(wires))


def outcome(f, *args):
    """The bits of ``f(*args)``, or the message of the ``ExprEvalError`` it raised."""
    try:
        return bits(np.array(f(*args)))
    except ExprEvalError as exc:
        return str(exc)


def library_step(system, scheme: str, a, x):
    """One step of ``system`` by the loop that ``run_trajectory`` generates,
    from any start, non-finite ones too."""
    program = Euler(system.program, H) if scheme == "euler" else system.program
    rows = np.empty((2, 1 + system.n_states))
    rows[0, 1:] = x
    runner(program, "direct" if scheme == "euler" else "rk4", H)([tuple(a)], 1, rows)
    return rows[1, 1:]


def assert_steps_as_the_reference(fast, want, data, inputs: int):
    """20 steps of ``fast`` from a drawn start, and one from a planted start,
    as ``want`` steps them, under Euler and RK4."""
    # A machine's ``y`` starts away from zero, so that most runs step.
    states = [SIGNED, NONZERO, SIGNED] * (fast.n_states // 3) if inputs else [SIGNED] * fast.n_states
    x0, a = data.draw(st.tuples(*states)), data.draw(st.lists(SIGNED, min_size=inputs, max_size=inputs))
    names = tuple(f"s{i}" for i in range(fast.n_states))
    planted = list(x0)
    if inputs:  # machines: three states a box
        for state, value in (("w", data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))),
                             ("y", data.draw(st.sampled_from([0.0, -0.0])))):
            if data.draw(st.booleans()):
                planted[3 * data.draw(st.integers(0, len(x0) // 3 - 1)) + "xyw".index(state)] = value
    else:  # sharers: a glued state at 1.0 zeroes the denominator of each ``b`` it is
        planted[data.draw(st.integers(0, len(x0) - 1))] = 1.0
    for scheme in ("euler", "rk4"):
        expected = reference_rows(want, x0, a, H, scheme, names)
        got = library_rows(fast, x0, a, H, scheme, names)
        if isinstance(expected, str):
            assert got == expected, scheme
        else:
            assert not isinstance(got, str), (scheme, got)
            assert bits(np.array(got)) == bits(np.array(expected)), scheme
        step = reference_step(want, scheme, H)
        assert outcome(library_step, fast, scheme, a, planted) == outcome(step, a, planted), scheme
    if inputs:
        assert outcome(fast.readout, np.array(planted)) == outcome(want.readout, planted)


@settings(max_examples=40, deadline=None)
@given(bare=st.integers(2, 4), computed=st.integers(2, 4), multi=st.booleans(), data=st.data())
def test_alike_boxes_gather_bitwise_as_the_reference(bare, computed, multi, data, blocks_only):
    boxes = bare + computed
    box_in = data.draw(st.permutations([b for b in range(boxes) for _ in range(2)]))
    box_out = data.draw(st.permutations([b for b in range(boxes) for _ in range(4)]))
    n_out = len(box_out)
    # Sources of in-ports: the out-ports, then the two outer inputs.
    feeds = wired(data, len(box_in), n_out + 2, multi)
    wires = [(s, t) for s, t in feeds if s < n_out]
    in_wires = [(s - n_out, t) for s, t in feeds if s >= n_out]
    out_wires = [(data.draw(st.integers(0, n_out - 1)), t) for t in (0, 1) for _ in range(t + multi)]
    d = DWDiagram.from_tables(boxes, box_in, box_out, 2, 2, wires, in_wires, out_wires)
    specs = data.draw(st.permutations([BARE] * bare + [ALIKE] * computed))
    models = [instantiate(spec_from_json(spec)) for spec in specs]
    fast = blocks_only(oapply_directed, d, models)
    plan = fast.program.plan
    assert len(plan.groups) == 2 and plan.singles == []
    assert sorted(screen is None for *_, screen in plan.groups) == [False, True]
    assert (fast.program.sums[0].gather is None) == multi  # a fan-in of 2 or more: fiber_sum
    assert_steps_as_the_reference(fast, reference_oapply_directed(d, models), data, 2)


SHARER = {
    "kind": "sharer", "flavor": "continuous", "states": ["a", "b"], "ports": ["a", "b"],
    "params": {"k": 0.25}, "dynamics": {"a": "k*(b - a)", "b": "a/(b - 1)"},
}


@settings(max_examples=30, deadline=None)
@given(boxes=st.integers(2, 6), shared=st.booleans(), data=st.data())
def test_alike_sharers_push_forward_bitwise_as_the_reference(boxes, shared, data, blocks_only):
    # Unshared, each glued state is one box state and the pushforward is a
    # gather; shared, junctions take several ports and it stays fiber_sum.
    ports = 2 * boxes
    junctions = data.draw(st.integers(1, ports - 1)) if shared else ports
    junc_in = data.draw(st.permutations(range(ports))) if not shared else [
        data.draw(st.integers(0, junctions - 1)) for _ in range(ports)
    ]
    d = UWDiagram.from_tables(boxes, junctions, [b for b in range(boxes) for _ in range(2)], junc_in, [])
    models = [instantiate(spec_from_json(SHARER))] * boxes
    fast = blocks_only(oapply_undirected, d, models)
    assert not fused(fast) and fast.program.plan.whole
    assert (fast.program.push.gather is None) == shared
    assert_steps_as_the_reference(fast, reference_oapply_undirected(d, models), data, 0)


# A machine with more states than readouts.
NARROW = {
    "kind": "machine", "flavor": "continuous", "states": ["x", "y", "w"], "inputs": ["u"],
    "params": {"k": 0.5}, "dynamics": {"x": "u - k*x", "y": "x/y", "w": "k"}, "readout": ["w", "y"],
}


@pytest.mark.parametrize("readout", [["w", "y"], ["x*w", "y"]])
@pytest.mark.parametrize("state,value", [("y", 0.0), ("w", math.nan), ("x", math.inf)])
def test_one_group_of_every_box_fails_from_the_failing_box(readout, state, value, blocks_only):
    # Five alike boxes in a ring run as one batch group and no singles; a
    # flag redoes the phase box by box, and the error must come from box 3.
    boxes = 5
    ring = [(b, (b + 1) % boxes) for b in range(boxes)]
    box_out = [b for b in range(boxes) for _ in range(2)]
    d = DWDiagram.from_tables(boxes, list(range(boxes)), box_out, 0, 1, ring, [], [(0, 0)])
    models = [instantiate(spec_from_json({**NARROW, "readout": readout}))] * boxes
    fast = blocks_only(oapply_directed, d, models)
    assert fast.program.plan.whole
    x = [0.5] * fast.n_states
    x[3 * 3 + "xyw".index(state)] = value
    want = reference_oapply_directed(d, models)
    for scheme in ("euler", "rk4"):
        expected = outcome(reference_step(want, scheme, H), [], x)
        assert isinstance(expected, str), scheme
        assert outcome(library_step, fast, scheme, [], x) == expected, scheme
