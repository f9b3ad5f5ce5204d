"""Stepping through generated code against stepping through numpy.

``run_trajectory`` steps a system that carries a program through generated
code over Python floats: its own function for a discrete system or an Euler
map, or RK4's stages generated around it.  The reference is the same system
built from boxes without programs, or with fusing turned off, which steps
through array callables and numpy.  Rows must be bitwise equal, and a
failing box must raise the same ``ExprEvalError`` on both paths, whichever
RK4 stage it fails in.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynwire import (
    ConfigError,
    DWDiagram,
    ExprEvalError,
    Machine,
    euler_directed,
    euler_undirected,
    instantiate,
    oapply_directed,
    oapply_undirected,
    ocompose_uwd,
    spec_from_json,
)
import dynwire.sim as sim
from dynwire._codegen import Euler, Gluing
from dynwire.fileio import SimulationConfig, load_config, load_diagram, load_model
from dynwire.sim import ComposedSystem, build_system, run_trajectory

from test_batched import bits, fused, scalar_only
from test_fused import FLAVORS, NESTED, OAPPLY, RANDOM, VALUES, models

# The numpy path warns where the generated floats overflow silently; both
# give the same infinities.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)

def euler(system, h: float):
    return euler_directed(system, h) if isinstance(system, Machine) else euler_undirected(system, h)


def trajectory(system, config: SimulationConfig, scheme: str):
    """The rows of ``system`` stepped under ``scheme``, or the message of the
    ``ExprEvalError`` it raised."""
    names = tuple(f"s{i}" for i in range(system.n_states))
    composed = ComposedSystem(system, names, system.kind, isinstance(system, Machine))
    try:
        return run_trajectory(composed, config, scheme)[1]
    except ExprEvalError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(syntax=st.sampled_from(sorted(OAPPLY)), nested=st.booleans(),
       seed=st.integers(0, 2**32 - 1), flavor=FLAVORS, euler_first=st.booleans(),
       strip=st.sampled_from(["blocks", "scalar"]), data=st.data())
def test_fused_stepping_is_bitwise_the_numpy_path(
    syntax, nested, seed, flavor, euler_first, strip, data, blocks_only
):
    rng = random.Random(seed)
    oapply = OAPPLY[syntax]
    h = data.draw(st.sampled_from([0.01, 0.5, 1.0 / 3.0]))
    # Euler-then-compose: the boxes are Euler maps, the composite discrete.
    euler_first = euler_first and flavor == "continuous"
    boxes = (lambda ms: [euler(m, h) for m in ms]) if euler_first else list
    if nested:
        outer, inners = NESTED[syntax](rng, max_outer_boxes=3)
        groups, first = [], 0
        for inner in inners:
            groups.append(models(data, inner, flavor, first))
            first += inner.n_boxes

        def build(prepare):
            parts = [oapply(d, boxes(prepare(ms))) for d, ms in zip(inners, groups)]
            return oapply(outer, parts)
    else:
        d = RANDOM[syntax](rng, max_boxes=4)
        ms = models(data, d, flavor)

        def build(prepare):
            return oapply(d, boxes(prepare(ms)))

    fast = build(list)
    slow = blocks_only(build, list) if strip == "blocks" else build(scalar_only)
    assert fused(fast) and not fused(slow)
    steps = data.draw(st.integers(1, 6))
    fields = dict(h=h, steps=steps, init=tuple(data.draw(st.lists(
        VALUES, min_size=fast.n_states, max_size=fast.n_states))))
    if isinstance(fast, Machine):
        vectors = st.lists(VALUES, min_size=fast.n_inputs, max_size=fast.n_inputs).map(tuple)
        if data.draw(st.booleans()):
            fields["input_table"] = tuple(data.draw(vectors) for _ in range(steps))
        else:
            fields["inputs"] = data.draw(vectors)
    config = SimulationConfig(**fields)
    schemes = ["euler", "rk4"] if fast.kind == "continuous" else ["euler"]
    for scheme in schemes:
        got, want = trajectory(fast, config, scheme), trajectory(slow, config, scheme)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            assert bits(np.array(got)) == bits(np.array(want))


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_a_composite_built_box_by_box_steps_so_and_bitwise_as_fused(
    scheme, blocks_only, repo_root, monkeypatch
):
    sir = repo_root / "configs" / "sir"
    d, city = load_diagram(sir / "cyclic.json"), instantiate(load_model(sir / "city.json"))
    fast, slow = oapply_directed(d, [city] * 3), blocks_only(oapply_directed, d, [city] * 3)
    assert fused(fast) and not fused(slow)
    assert not euler_directed(slow, 0.01).program.fused
    generated = []  # programs that run_trajectory stepped: all through one stepper
    stepper = sim.stepper
    monkeypatch.setattr(sim, "stepper", lambda p, *args: generated.append(p) or stepper(p, *args))
    config = SimulationConfig(h=0.01, steps=50, init=(990.0, 10.0, 0.0, 1000.0, 0.0, 0.0, 500.0, 0.0, 0.0))
    want = trajectory(fast, config, scheme)
    got = trajectory(slow, config, scheme)
    assert [p.fused for p in generated] == [True, False] and not isinstance(got, str)
    assert bits(np.array(got)) == bits(np.array(want))


def stage_spec(k: float, m: float):
    """``x' = x`` and ``y' = k/(x - m)``: RK4 evaluates ``y'`` at the stage
    points ``x0``, ``x0 + (h/2)*x0``, ``x0 + (h/2)*x2``, in increasing order."""
    return spec_from_json({
        "kind": "machine", "flavor": "continuous", "states": ["x", "y"], "inputs": [],
        "params": {"k": k, "m": m}, "dynamics": {"x": "x", "y": "k/(x - m)"}, "readout": [],
    })


@pytest.mark.parametrize("stage, message", [
    (1, "division by zero"),
    (3, "dynamics of 'y' produced a non-finite value"),
])
def test_rk4_stage_failures_raise_the_same_error_on_both_paths(stage, message):
    x0, h = 1.0, 0.1
    x2 = x0 + (0.5 * h) * x0
    x3 = x0 + (0.5 * h) * x2
    # Stage 1 divides by zero; stage 3 overflows k/(x - m), one ulp from zero,
    # where stages 1 and 2 stay finite.
    k, m = (1.0, x0) if stage == 1 else (1e300, math.nextafter(x3, -math.inf))
    box = [instantiate(stage_spec(k, m))]
    d = DWDiagram.from_tables(1, [], [])
    fast, slow = oapply_directed(d, box), oapply_directed(d, scalar_only(box))
    assert fused(fast) and not fused(slow)
    for x in (x0, x2, x3)[: stage - 1]:
        assert np.isfinite(fast.dynamics([], [x, 0.0])).all()
    with pytest.raises(ExprEvalError, match=f"^{message}$"):
        fast.dynamics([], [(x0, x2, x3)[stage - 1], 0.0])
    config = SimulationConfig(h=h, steps=3, init=(x0, 0.0))
    assert trajectory(fast, config, "rk4") == trajectory(slow, config, "rk4") == message


def test_euler_then_compose_fuses_and_meets_criterion_7(repo_root):
    # Euler naturality on the composed ecosystem, to criterion 7's 1e-9 over
    # its 1e4 steps: Euler maps of the boxes composed into one fused
    # discrete system, against the Euler map of the fused composite.
    eco = repo_root / "configs" / "ecosystem"
    land, river, total = (load_diagram(eco / f"{n}_diagram.json") for n in ("land", "river", "total"))
    names = ("rabbit_growth", "land_predation", "hawk_decline", "fish_growth", "river_predation")
    specs = [load_model(eco / f"{n}.json") for n in names]
    config = load_config(eco / "sim.json")
    composed = build_system(ocompose_uwd(total, [land, river]), specs)
    boxes = [euler_undirected(instantiate(s), config.h) for s in specs]
    stepped = oapply_undirected(ocompose_uwd(total, [land, river]), boxes)
    assert isinstance(stepped.program, Gluing) and stepped.kind == "discrete"
    assert all(isinstance(box, Euler) for box in stepped.program.boxes)
    _, lhs, meta = run_trajectory(composed, config, "euler")
    discrete = ComposedSystem(stepped, composed.state_names, "discrete", directed=False)
    _, rhs, _ = run_trajectory(discrete, config, "euler")
    assert meta["scheme"] == "euler" and len(lhs) == len(rhs) == config.steps + 1
    assert float(np.max(np.abs(np.array(lhs) - np.array(rhs)))) <= 1e-9


@pytest.mark.parametrize("kind", ["machine", "sharer"])
@pytest.mark.parametrize("flavor", ["continuous", "discrete"])
def test_unknown_scheme_is_refused_for_every_kind(kind, flavor):
    fields = {"inputs": [], "readout": []} if kind == "machine" else {"ports": ["x"]}
    system = instantiate(spec_from_json({
        "kind": kind, "flavor": flavor, "states": ["x"], "params": {},
        "dynamics": {"x": "x"}, **fields,
    }))
    composed = ComposedSystem(system, ("b0.x",), flavor, kind == "machine")
    config = SimulationConfig(h=0.1, steps=2, init=(0.5,))
    with pytest.raises(ConfigError, match="^unknown scheme 'bogus'$"):
        run_trajectory(composed, config, "bogus")
    # "euler" on a discrete system, the CLI default, steps it directly.
    _, rows, meta = run_trajectory(composed, config, "euler")
    assert meta["scheme"] == ("euler" if flavor == "continuous" else "direct")
    x1 = 0.5 + 0.1 * 0.5
    expected = [0.5, x1, x1 + 0.1 * x1] if flavor == "continuous" else [0.5] * 3
    assert [row[1] for row in rows] == expected
