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
    ExprEvalError,
    Machine,
    Num,
    Var,
    cpg_to_dwd,
    instantiate,
    oapply_cpg,
    oapply_directed,
    oapply_undirected,
)
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
