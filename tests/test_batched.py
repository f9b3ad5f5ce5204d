"""Batch kernels against the scalar closures they stand in for.

A model's batch kernels over ``(k, n)`` blocks are generated from its
program (``_codegen.kernels``), and the ``oapply_*`` compositions above the
fusing cutoff evaluate all boxes that share a program in a single call;
smaller composites are fused into one function (``tests/test_fused.py``).
Composites here run both ways: fused, and above the cutoff or with fusing
turned off (the ``blocks_only`` fixture) through groups.
The scalar closures stay the reference: for values (bitwise for
``+ - * /``, within a stated ulp bound for ``sin``/``cos``/``exp``/``^``)
and for errors, which must be the same exception with the same message from
the same box.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dynwire.modelspec as modelspec
import dynwire.sim as sim
from dynwire._codegen import kernels
from dynwire._codegen import _FUSE_MAX_STATEMENTS
from dynwire import (
    BinOp,
    Call,
    CPGraph,
    DWDiagram,
    ExprEvalError,
    ModelSpec,
    Neg,
    Num,
    UWDiagram,
    Var,
    builtin_model,
    cpg_to_dwd,
    grid,
    instantiate,
    oapply_cpg,
    oapply_directed,
    oapply_undirected,
    parse,
    spec_from_json,
)
from dynwire.cli import main
from dynwire.sim import build_system


def scalar_only(systems):
    """The same systems without programs, so every box takes the scalar
    path: the per-box reference."""
    return [dataclasses.replace(s, program=None) for s in systems]


def both_paths(blocks_only, oapply, *args):
    """``oapply(*args)`` as built, then with fusing turned off, each with
    whether it should be fused: as built, these small composites are."""
    return ((oapply(*args), True), (blocks_only(oapply, *args), False))


def fused(system) -> bool:
    """Whether a composite runs as one fused function (else through its boxes)."""
    return system.program.fused


def bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


def machine_spec(dynamics: str, **params: float) -> ModelSpec:
    return spec_from_json({
        "kind": "machine", "flavor": "continuous", "states": ["x"], "inputs": ["u"],
        "params": params, "dynamics": {"x": dynamics}, "readout": ["x"],
    })


def open_boxes(n: int, outs: int = 1) -> DWDiagram:
    """``n`` one-in boxes with ``outs`` out-ports each: each box is fed by its
    own outer input, and its first out-port is an outer output; any others
    are unwired."""
    ports = list(range(n))
    return DWDiagram.from_tables(
        n, ports, [b for b in ports for _ in range(outs)], n_outer_in=n, n_outer_out=n,
        in_wires=list(zip(ports, ports)), out_wires=[(outs * b, b) for b in ports],
    )


# Box counts of ``open_boxes`` composites on each side of the fusing cutoff:
# fused code up to it, numpy groups beyond; error parity is checked on both.
# Each box below has at least two operations, two output checks and two
# wires, so at least six statements.
SIDES = {"fused": 3, "blocks": _FUSE_MAX_STATEMENTS // 6 + 1}


# ---------------------------------------------------------------------------
# Grouping and caching


def test_equal_specs_share_one_system_and_kernel():
    a = instantiate(builtin_model("heat_node", {"alpha": 0.1}))
    b = instantiate(builtin_model("heat_node", {"alpha": 0.1}))
    c = instantiate(builtin_model("heat_node", {"alpha": 0.2}))
    assert a is b and a.program is b.program
    assert c.program != a.program
    # One compiled kernel pair per program value, whichever object holds it.
    fresh = modelspec._build(builtin_model("heat_node", {"alpha": 0.1})).program
    assert fresh is not a.program and kernels(fresh, True) is kernels(a.program, True)
    assert kernels(c.program, True) is not kernels(a.program, True)


def test_1024_heat_nodes_compile_one_kernel_and_instantiate_once(monkeypatch):
    builds, calls = [], []
    build, inst = modelspec._build, sim.instantiate
    monkeypatch.setattr(modelspec, "_build", lambda s: builds.append(s) or build(s))
    monkeypatch.setattr(sim, "instantiate", lambda s: calls.append(s) or inst(s))
    modelspec._build_cached.cache_clear()
    kernels.cache_clear()
    spec = builtin_model("heat_node", {"alpha": 0.1})
    composed = build_system(grid(32, 32), [spec] * 1024)
    assert (len(builds), len(calls)) == (1, 1)
    assert kernels.cache_info().misses == 1  # one group, one kernel pair
    # Equal but distinct spec objects still compile once.
    modelspec._build_cached.cache_clear()
    build_system(grid(32, 32), [builtin_model("heat_node", {"alpha": 0.1}) for _ in range(1024)])
    assert len(builds) == 2 and kernels.cache_info().misses == 1
    system = composed.system
    x = np.random.default_rng(1).uniform(0.0, 1.0, 1024)
    assert system.dynamics(np.zeros(system.n_inputs), x).shape == (1024,)


def test_parse_is_memoised():
    assert parse("alpha*(aN+aE+aS+aW-4*T)") is parse("alpha*(aN+aE+aS+aW-4*T)")


# ---------------------------------------------------------------------------
# Composites with groups equal composites without


@pytest.mark.parametrize("route", ["cpg", "dwd"])
def test_heat_grid_bitwise_equal_to_scalar_path(route):
    for side in (8, 12):  # fused (992 statements), then numpy groups (2208)
        g = grid(side, side)
        ms = [instantiate(builtin_model("heat_node", {"alpha": 0.1}))] * side**2
        oapply = oapply_cpg if route == "cpg" else oapply_directed
        d = g if route == "cpg" else cpg_to_dwd(g)
        fast, slow = oapply(d, ms), oapply(d, scalar_only(ms))
        assert fused(fast) == (side == 8) and not fused(slow)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, side**2)
            a = rng.uniform(-1.0, 1.0, fast.n_inputs)
            assert bits(fast.dynamics(a, x)) == bits(slow.dynamics(a, x))
            assert bits(fast.readout(x)) == bits(slow.readout(x))


def test_sir_cities_bitwise_equal_to_scalar_path(repo_root, blocks_only):
    from dynwire.fileio import load_diagram

    d = load_diagram(repo_root / "configs" / "sir" / "cyclic.json")
    ms = [instantiate(builtin_model("sir_city", {"beta": 0.0005, "gamma": 0.25}))] * d.n_boxes
    slow = oapply_directed(d, scalar_only(ms))
    x = np.random.default_rng(3).uniform(1.0, 900.0, slow.n_states)
    a = np.zeros(slow.n_inputs)
    kernels.cache_clear()
    oapply_directed(d, ms)
    assert kernels.cache_info().misses == 0  # fused: no batch kernel
    composites = both_paths(blocks_only, oapply_directed, d, ms)
    assert kernels.cache_info().misses == 1  # the group's
    for fast, path in composites:  # fused, then one group
        assert fused(fast) == path
        assert bits(fast.dynamics(a, x)) == bits(slow.dynamics(a, x))
        assert bits(fast.readout(x)) == bits(slow.readout(x))


def test_sharer_group_bitwise_equal_to_scalar_path(blocks_only):
    d = UWDiagram.from_tables(4, 2, box=[0, 1, 2, 3], junc_in=[0, 0, 1, 1], junc_out=[1])
    growth = builtin_model("lv_growth", {"r": 0.3})
    specs = [growth, growth, growth, builtin_model("lv_decline", {"r": 0.2})]
    x = np.array([1.5, -0.75])
    for flavor in ("continuous", "discrete"):  # a discrete composite adds increments
        ss = [instantiate(dataclasses.replace(s, flavor=flavor)) for s in specs]
        assert ss[0].program is ss[2].program
        slow = oapply_undirected(d, scalar_only(ss))
        for fast, path in both_paths(blocks_only, oapply_undirected, d, ss):  # fused, then a group
            assert fused(fast) == path
            assert bits(fast.dynamics(x)) == bits(slow.dynamics(x))


# ---------------------------------------------------------------------------
# Transport with no wires: fiber sums must stay float64


@pytest.mark.parametrize("shared", [True, False], ids=["group", "singletons"])
def test_zero_wire_cpg_and_dwd_pass_fractional_inputs(shared, blocks_only):
    specs = [machine_spec("u"), machine_spec("u" if shared else "u+0")]
    ms = [instantiate(s) for s in specs]
    assert (ms[0].program is ms[1].program) == shared
    a = np.array([0.25, -1.5])
    x = np.array([3.0, 4.0])
    g = CPGraph.from_tables(2, box=[0, 1], expose=[0, 1])
    d = DWDiagram.from_tables(
        2, [0, 1], [0, 1], n_outer_in=2, n_outer_out=2,
        in_wires=[(0, 0), (1, 1)], out_wires=[(0, 0), (1, 1)],
    )
    routes = ((oapply_cpg, g), (oapply_directed, d), (oapply_directed, cpg_to_dwd(g)))
    for oapply, diagram in routes:
        # fused, then groups or singles
        for composite, path in both_paths(blocks_only, oapply, diagram, ms):
            assert fused(composite) == path
            assert composite.dynamics(a, x).tolist() == [0.25, -1.5]
            assert composite.readout(x).tolist() == [3.0, 4.0]


def test_cpg_without_wires_or_exposed_ports_reads_float_zeros():
    ms = [instantiate(machine_spec("u - x/2"))] * 2
    g = CPGraph.from_tables(2, box=[0, 1])
    out = oapply_cpg(g, ms).dynamics(np.zeros(0), np.array([1.0, 3.0]))
    assert out.dtype == np.float64 and out.tolist() == [-0.5, -1.5]


# ---------------------------------------------------------------------------
# Error parity: a fused composite raises what its boxes raise, and a flagged
# group is redone box by box


def assert_same_error(fast, slow, *args):
    with pytest.raises(ExprEvalError) as want:
        slow(*args)
    with pytest.raises(ExprEvalError) as got:
        fast(*args)
    assert str(got.value) == str(want.value)
    return str(got.value)


def test_sir_empty_city_is_division_by_zero(repo_root):
    from dynwire.fileio import load_diagram

    d = load_diagram(repo_root / "configs" / "sir" / "isolation.json")
    ms = [instantiate(builtin_model("sir_city", {"beta": 0.0005, "gamma": 0.25}))] * 3
    fast, slow = oapply_directed(d, ms), oapply_directed(d, scalar_only(ms))
    x = np.array([990.0, 10.0, 0.0, 1000.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    message = assert_same_error(fast.dynamics, slow.dynamics, np.zeros(0), x)
    assert message == "division by zero"
    block, ok = kernels(ms[0].program, True)[0](np.zeros((3, 2)), x.reshape(3, 3))
    assert not ok


@pytest.mark.parametrize(
    "dynamics,row,message",
    [
        ("1/exp(x) + u", 1000.0, "exp: math range error"),
        ("x^0.5 + u", -1.0, "power: math domain error"),
        ("sin(x*x*1e300) + u", 1e10, "sin: math domain error"),
        ("u/(x-2)", 2.0, "division by zero"),
        ("1/(1/x) + u", 0.0, "division by zero"),  # finite output: only the denominator flags
        ("x*x*1e300 + u", 1e10, "dynamics of 'x' produced a non-finite value"),
    ],
)
def test_flagged_group_raises_the_scalar_error(dynamics, row, message):
    for path, n in SIDES.items():
        ms = [instantiate(machine_spec(dynamics))] * n
        d = open_boxes(n)
        fast, slow = oapply_directed(d, ms), oapply_directed(d, scalar_only(ms))
        assert fused(fast) == (path == "fused")
        x = np.full(n, 0.25)
        x[1] = row
        assert assert_same_error(fast.dynamics, slow.dynamics, np.ones(n), x) == message
        _, ok = kernels(ms[0].program, True)[0](np.ones((n, 1)), x.reshape(n, 1))
        assert not ok


def test_first_failing_box_in_box_order_wins():
    # One box overflows in exp, another divides by zero: the scalar path
    # reports whichever comes first in box order.
    for path, n in SIDES.items():
        ms = [instantiate(machine_spec("exp(x)/(x-5) + u"))] * n
        d = open_boxes(n)
        fast, slow = oapply_directed(d, ms), oapply_directed(d, scalar_only(ms))
        assert fused(fast) == (path == "fused")
        cases = [
            ([0.0, 1000.0, 5.0], "exp: math range error"),
            ([0.0, 5.0, 1000.0], "division by zero"),
        ]
        for head, message in cases:
            x = np.array(head + [0.0] * (n - 3))
            assert assert_same_error(fast.dynamics, slow.dynamics, np.zeros(n), x) == message


def test_cli_sir_with_empty_cities_exits_1(tmp_path, repo_root, capsys):
    sir = repo_root / "configs" / "sir"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"h": 0.01, "steps": 3, "init": {}}), encoding="utf-8")
    code = main([
        "simulate", "--diagram", str(sir / "isolation.json"),
        "--models", *[str(sir / "city.json")] * 3,
        "--config", str(config), "--out", str(tmp_path / "t.csv"),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: division by zero\n"


# ---------------------------------------------------------------------------
# Property: a kernel over a block equals a loop of the scalar closures
#
# Values are bitwise equal for + - * /.  numpy's sin, cos, exp and power may
# differ from the C library's by an ulp, so specs with those have one such
# node, at the root over arithmetic operands, where nothing amplifies the
# difference, and values may differ by ULP_TOLERANCE units in the last place.

ULP_TOLERANCE = 1
VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.0]), st.floats(-8.0, 8.0))


def arithmetic(names):
    literals = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25]).map(Num)
    leaf = st.one_of(literals, st.sampled_from(names).map(Var))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            inner.map(Neg),
            st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), inner, inner),
        ),
        max_leaves=8,
    )


def transcendental(names):
    inner = arithmetic(names)
    return st.one_of(
        st.builds(Call, st.sampled_from(["sin", "cos", "exp"]), inner),
        st.builds(BinOp, st.just("^"), inner, inner),
    )


@st.composite
def specs(draw, exprs):
    kind = draw(st.sampled_from(["machine", "sharer"]))
    states = ["x0", "x1", "x2"][: draw(st.integers(1, 3))]
    inputs = ["u0", "u1"][: draw(st.integers(0, 2))] if kind == "machine" else []
    params = {p: draw(st.floats(-4.0, 4.0)) for p in ["p0", "p1"]}
    dynamics = exprs(states + inputs + list(params))
    fields = dict(
        kind=kind, flavor="continuous", states=tuple(states),
        dynamics={s: draw(dynamics) for s in states}, params=params,
    )
    if kind == "machine":
        readout = exprs(states + list(params))
        n_out = draw(st.integers(0, 2))
        fields.update(inputs=tuple(inputs), readout=tuple(draw(readout) for _ in range(n_out)))
    else:
        fields.update(ports=tuple(states))
    return ModelSpec(**fields)


def scalar_rows(fn, *blocks):
    """Each row through the scalar closure, or None where it raises."""
    rows = []
    for args in zip(*blocks):
        try:
            rows.append(fn(*args))
        except ExprEvalError:
            rows.append(None)
    return rows


def compare(spec, k, data, exact):
    m = instantiate(spec)

    def block(n):
        return np.array(data.draw(st.lists(VALUES, min_size=k * n, max_size=k * n))).reshape(k, n)

    x, a = block(m.n_states), block(len(spec.inputs))
    machine = spec.kind == "machine"
    dynamics, readout = kernels(m.program, machine)
    cases = [(dynamics, m.dynamics, (a, x) if machine else (x,))]
    if machine:
        cases.append((readout, m.readout, (x,)))
    for kernel, scalar, blocks in cases:
        got, ok = kernel(*blocks)
        rows = scalar_rows(scalar, *blocks)
        failed = any(r is None for r in rows)
        if failed or exact:
            assert ok == (not failed)
        if not ok:
            continue
        want = np.array(rows).reshape(got.shape)
        if exact:
            assert bits(got) == bits(want)
        else:
            assert np.all(np.abs(got - want) <= ULP_TOLERANCE * np.spacing(np.abs(want)))


@settings(max_examples=200, deadline=None)
@given(specs(arithmetic), st.integers(2, 5), st.data())
def test_kernel_matches_scalar_loop_bitwise_for_arithmetic(spec, k, data):
    compare(spec, k, data, exact=True)


@settings(max_examples=200, deadline=None)
@given(specs(transcendental), st.integers(2, 5), st.data())
def test_kernel_matches_scalar_loop_within_ulps_for_functions(spec, k, data):
    compare(spec, k, data, exact=False)

