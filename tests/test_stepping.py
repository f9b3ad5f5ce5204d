"""Stepping through generated code against stepping through numpy.

``run_trajectory`` steps a system that carries a program through generated
code over Python floats: its own function for a discrete system or an Euler
map, or RK4's four stages of it, all inline in one loop.  The reference is
the same system built from boxes without programs, or with fusing turned
off, which steps through array code and numpy.  Rows must be bitwise equal, and a
failing box must raise the same ``ExprEvalError`` on both paths, whichever
RK4 stage it fails in.
"""

from __future__ import annotations

import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynwire import (
    ConfigError,
    DWDiagram,
    ExprEvalError,
    Machine,
    builtin_model,
    euler_directed,
    euler_undirected,
    grid,
    instantiate,
    oapply_directed,
    oapply_undirected,
    ocompose_uwd,
    spec_from_json,
)
import dynwire._codegen as codegen
import dynwire.modelspec as modelspec
import dynwire.sim as sim
from dynwire._codegen import _FUSE_MAX_STATEMENTS, Euler, Gluing
from dynwire.cli import main as cli_main
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
    generated = []  # programs that run_trajectory stepped: all through one runner
    runner = sim.runner
    monkeypatch.setattr(sim, "runner", lambda p, *args: generated.append(p) or runner(p, *args))
    config = SimulationConfig(h=0.01, steps=50, init=(990.0, 10.0, 0.0, 1000.0, 0.0, 0.0, 500.0, 0.0, 0.0))
    want = trajectory(fast, config, scheme)
    got = trajectory(slow, config, scheme)
    assert [p.fused for p in generated] == [True, False] and not isinstance(got, str)
    assert bits(np.array(got)) == bits(np.array(want))


def stage_spec(k: float, m: float):
    """``x' = x`` and ``y' = k/(x - m)``: RK4 evaluates ``y'`` at the stage
    points ``x0``, ``x2 = x0 + (h/2)*x0``, ``x3 = x0 + (h/2)*x2`` and
    ``x0 + h*x3``, in increasing order."""
    return spec_from_json({
        "kind": "machine", "flavor": "continuous", "states": ["x", "y"], "inputs": [],
        "params": {"k": k, "m": m}, "dynamics": {"x": "x", "y": "k/(x - m)"}, "readout": [],
    })


@pytest.mark.parametrize("stage, message", [
    (1, "division by zero"),
    (2, "division by zero"),
    (3, "dynamics of 'y' produced a non-finite value"),
    (4, "division by zero"),
])
def test_rk4_stage_failures_raise_the_same_error_on_both_paths(stage, message):
    x0, h = 1.0, 0.1
    x2 = x0 + (0.5 * h) * x0
    x3 = x0 + (0.5 * h) * x2
    x4 = x0 + h * x3
    points = (x0, x2, x3, x4)
    # Stages 1, 2 and 4 divide by zero at their own point; stage 3 overflows
    # k/(x - m), one ulp from zero, where stages 1 and 2 stay finite.
    k, m = (1e300, math.nextafter(x3, -math.inf)) if stage == 3 else (1.0, points[stage - 1])
    box = [instantiate(stage_spec(k, m))]
    d = DWDiagram.from_tables(1, [], [])
    fast, slow = oapply_directed(d, box), oapply_directed(d, scalar_only(box))
    assert fused(fast) and not fused(slow)
    for x in points[: stage - 1]:
        assert np.isfinite(fast.dynamics([], [x, 0.0])).all()
    with pytest.raises(ExprEvalError, match=f"^{message}$"):
        fast.dynamics([], [points[stage - 1], 0.0])
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


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_a_port_fed_by_the_most_wires_that_fuse_runs_bitwise(scheme, blocks_only):
    # Fused code sums the wires into one chain of additions; folded into
    # expressions it must still compile, whatever the fan-in.
    m = instantiate(spec_from_json({
        "kind": "machine", "flavor": "continuous", "states": ["x"], "inputs": ["u"],
        "params": {}, "dynamics": {"x": "u - x"}, "readout": ["x"],
    }))
    most = _FUSE_MAX_STATEMENTS - m.program.statements
    d = DWDiagram.from_tables(1, [0], [0], wires=[(0, 0)] * most)
    fast, slow = oapply_directed(d, [m]), blocks_only(oapply_directed, d, [m])
    assert fused(fast) and not fused(slow)
    config = SimulationConfig(h=1e-4, steps=50, init=(0.1,))
    got, want = trajectory(fast, config, scheme), trajectory(slow, config, scheme)
    assert not isinstance(got, str), got
    assert bits(np.array(got)) == bits(np.array(want))


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_a_fused_run_makes_no_python_call_per_step(scheme, repo_root):
    # Euler and discrete maps and every RK4 stage are inline in the loop.
    sir = repo_root / "configs" / "sir"
    composed = build_system(load_diagram(sir / "cyclic.json"), [load_model(sir / "city.json")] * 3)
    assert composed.system.program.fused
    calls: dict[int, list[str]] = {}
    for steps in (400, 800):
        config = load_config(sir / "sim_cyclic.json")
        config = SimulationConfig(h=config.h, steps=steps, init=config.init)
        sim._trajectory(composed, config, scheme)  # generates the loop
        names = calls[steps] = []

        def profile(frame, event, arg):
            if event == "call":
                names.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            sim._trajectory(composed, config, scheme)
        finally:
            sys.setprofile(None)
    assert calls[400] == calls[800] and calls[400].count("_generated") == 1


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_a_fresh_simulate_compiles_its_loop_alone(scheme, repo_root, tmp_path, monkeypatch):
    # A system's own functions are generated on their first call, which a
    # trajectory never makes: it runs the loop that ``runner`` generates.
    for cache in (modelspec._build, codegen._fused_runner):
        cache.cache_clear()
    sources: list[str] = []
    compile_source = codegen._compile
    monkeypatch.setattr(codegen, "_compile", lambda s: sources.append(s) or compile_source(s))
    sir = repo_root / "configs" / "sir"
    assert cli_main([
        "simulate", "--diagram", str(sir / "cyclic.json"), "--models", *[str(sir / "city.json")] * 3,
        "--config", str(sir / "sim_cyclic.json"), "--out", str(tmp_path / "sir.csv"), "--scheme", scheme,
    ]) == 0
    assert len(sources) == 1 and "def _generated(inputs, steps, rows):" in sources[0]


def test_a_box_by_box_trajectory_holds_its_block_and_little_more():
    heat = build_system(grid(32, 32), [builtin_model("heat_node", {"alpha": 0.1})] * 1024)
    assert not heat.system.program.fused
    config = SimulationConfig(h=0.01, steps=200, init=tuple(np.linspace(0.0, 1.0, 1024).tolist()))
    sim._trajectory(heat, config, "euler")  # compiles the array code
    tracemalloc.start()
    try:
        _, block, _ = sim._trajectory(heat, config, "euler")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # No state is kept but in its block row; the allowance covers a step's
    # arrays and the loop's code.
    assert block.nbytes == 201 * 1025 * 8
    assert peak <= 1.3 * block.nbytes + 256 * 1024, peak
