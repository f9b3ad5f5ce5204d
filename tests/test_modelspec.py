from __future__ import annotations

import copy
import json
import math
import pickle
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dynwire.modelspec as modelspec
from dynwire import (
    BUILTIN_MODELS,
    BinOp,
    Call,
    ExprEvalError,
    ExprSyntaxError,
    ModelSpec,
    ModelSpecError,
    Neg,
    Num,
    Var,
    builtin_model,
    eval_expr,
    format_expr,
    free_variables,
    instantiate,
    parse,
    spec_from_json,
    spec_to_json,
    spec_violations,
)
from dynwire.fileio import SimulationConfig
from dynwire.sim import build_system, run_trajectory
from dynwire.wiring import DWDiagram, grid

# Golden suite: 30 expressions covering precedence, associativity, unary
# minus, and functions; expected values verified by direct evaluation.
GOLDEN = [
    ("2+3*4", {}, 14.0),
    ("(2+3)*4", {}, 20.0),
    ("2^3^2", {}, 512.0),
    ("-3^2", {}, -9.0),
    ("(-3)^2", {}, 9.0),
    ("2-3-4", {}, -5.0),
    ("100/5/2", {}, 10.0),
    ("-beta*S*I", {"beta": 0.5, "S": 10.0, "I": 1.0}, -5.0),
    ("beta*S*I - gamma*I", {"beta": 0.5, "S": 10.0, "I": 1.0, "gamma": 0.25}, 4.75),
    ("exp(0)", {}, 1.0),
    ("sin(0)", {}, 0.0),
    ("cos(0)", {}, 1.0),
    ("2*-3", {}, -6.0),
    ("2--3", {}, 5.0),
    ("2^-1", {}, 0.5),
    ("1+2*3^2", {}, 19.0),
    ("(1+2)*3^2", {}, 27.0),
    ("((1+2))*((3))", {}, 9.0),
    ("2^(1+1)", {}, 4.0),
    ("10/4", {}, 2.5),
    ("0.5*8", {}, 4.0),
    ("1e2+1", {}, 101.0),
    ("2.5e-1*4", {}, 1.0),
    ("x^2+y^2", {"x": 3.0, "y": 4.0}, 25.0),
    ("-(1+2)", {}, -3.0),
    ("-x", {"x": -5.0}, 5.0),
    ("4^0.5", {}, 2.0),
    ("alpha*(aN+aE+aS+aW-4*T)", {"alpha": 0.1, "aN": 1.0, "aE": 1.0, "aS": 1.0, "aW": 1.0, "T": 1.0}, 0.0),
    ("exp(1)", {}, math.e),
    ("sin(1)^2+cos(1)^2", {}, 1.0),
]


@pytest.mark.parametrize("text,env,expected", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_expressions(text, env, expected):
    assert eval_expr(parse(text), env) == expected


def test_bare_literal():
    assert parse("3.5") == Num(3.5)
    assert eval_expr(Num(3.5), {}) == 3.5


class TestParseErrors:
    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("2+")
        assert err.value.offset == 2

    def test_unclosed_paren(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("(2")
        assert ")" in err.value.expected

    def test_bad_character(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("2 @ 3")
        assert err.value.offset == 2

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError, match="tan"):
            parse("tan(1)")

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse("")


def on_a_deeper_stack(frames, f):
    """``f()``, called with ``frames`` more frames on the stack."""
    return on_a_deeper_stack(frames - 1, f) if frames else f()


def run_everywhere(expr):
    """Load, build, step (Euler and RK4) and print a model of ``expr``."""
    spec = spec_from_json({"kind": "machine", "flavor": "continuous", "states": ["x"],
                           "params": {}, "dynamics": {"x": expr}, "readout": [expr]})
    composed = build_system(DWDiagram.from_tables(1, [], [0]), [spec])
    for scheme in ("euler", "rk4"):
        run_trajectory(composed, SimulationConfig(h=0.01, steps=2, init=(0.5,)), scheme)
    assert spec_from_json(spec_to_json(spec)) == spec


DEPTH, NESTING = modelspec._MAX_DEPTH, modelspec._MAX_NESTING
OPERATIONS = f"nests more than {DEPTH} operations"
OPENINGS = f"nests more than {NESTING} parentheses, calls and powers"
# Of each shape: its text with ``k`` operators or parentheses, its bound on
# ``k``, the message past that, and the offset of the token that goes past.
SHAPES = {
    "sum": (lambda k: "+".join(["x"] * (k + 1)), DEPTH, OPERATIONS, 2 * DEPTH + 1),
    "parentheses": (lambda k: "(" * k + "x" + ")" * k, NESTING, OPENINGS, NESTING),
    "powers": (lambda k: "^".join(["x"] * (k + 1)), NESTING, OPENINGS, 2 * NESTING + 1),
}


@pytest.mark.parametrize("text, bound, what, offset", SHAPES.values(), ids=SHAPES.keys())
def test_expressions_run_to_their_bound_and_are_refused_past_it(text, bound, what, offset):
    # 250 frames deep, as from a caller's own stack.
    on_a_deeper_stack(250, lambda: run_everywhere(text(bound)))
    with pytest.raises(ExprSyntaxError, match=f"{what} at offset {offset}$") as err:
        parse(text(bound + 1))
    assert err.value.offset == offset


class TestEvalErrors:
    def test_unbound_variable_named(self):
        with pytest.raises(ExprEvalError, match="delta"):
            eval_expr(parse("delta*2"), {})

    def test_division_by_zero(self):
        with pytest.raises(ExprEvalError, match="division"):
            eval_expr(parse("1/0"), {})

    def test_power_domain_error(self):
        with pytest.raises(ExprEvalError):
            eval_expr(parse("(-8)^0.5"), {})

    def test_exp_overflow(self):
        with pytest.raises(ExprEvalError):
            eval_expr(parse("exp(10000)"), {})

    def test_no_silent_infinity(self):
        with pytest.raises(ExprEvalError):
            eval_expr(parse("1e308*1e308"), {})


_names = st.sampled_from(["a", "b", "x", "y", "beta", "T2"])
_nums = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
).map(Num)
_exprs = st.recursive(
    st.one_of(_nums, _names.map(Var)),
    lambda inner: st.one_of(
        inner.map(Neg),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp"]), inner),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), inner, inner),
    ),
    max_leaves=25,
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_exprs)
    def test_parse_inverts_print(self, e):
        assert parse(format_expr(e)) == e

    @settings(max_examples=100, deadline=None)
    @given(_exprs)
    def test_additive_and_multiplicative_identities(self, e):
        env = {"a": 1.5, "b": -0.25, "x": 2.0, "y": 0.5, "beta": 3.0, "T2": -1.0}
        try:
            base = eval_expr(e, env)
        except ExprEvalError:
            return
        assert eval_expr(BinOp("+", e, Num(0.0)), env) == base
        assert eval_expr(BinOp("*", e, Num(1.0)), env) == base

    def test_known_round_trips(self):
        for text, _, _ in GOLDEN:
            e = parse(text)
            assert parse(format_expr(e)) == e


class TestSpecValidation:
    def base_machine(self, **overrides):
        fields = dict(
            kind="machine",
            flavor="continuous",
            states=("x",),
            dynamics={"x": parse("-k*x")},
            inputs=("drive",),
            params={"k": 0.5},
            readout=(parse("x"),),
        )
        fields.update(overrides)
        return ModelSpec(**fields)

    def test_clean_spec(self):
        assert spec_violations(self.base_machine()) == []

    def test_unbound_name(self):
        spec = self.base_machine(dynamics={"x": parse("-delta*x")})
        problems = spec_violations(spec)
        assert any("delta" in p for p in problems)

    def test_readout_cannot_use_inputs(self):
        spec = self.base_machine(readout=(parse("drive"),))
        problems = spec_violations(spec)
        assert any("drive" in p for p in problems)

    def test_missing_dynamics(self):
        spec = self.base_machine(states=("x", "v"), dynamics={"x": parse("v")})
        assert any("v" in p for p in spec_violations(spec))

    def test_sharer_port_names(self):
        spec = ModelSpec(
            kind="sharer",
            flavor="continuous",
            states=("u",),
            dynamics={"u": parse("0")},
            ports=("w",),
        )
        assert any("'w'" in p for p in spec_violations(spec))

    def test_instantiate_raises_on_problems(self):
        with pytest.raises(ModelSpecError, match="delta"):
            instantiate(self.base_machine(dynamics={"x": parse("delta")}))


class TestBuiltins:
    def test_sir_city_shape(self):
        m = instantiate(builtin_model("sir_city", {"beta": 0.5, "gamma": 0.25}))
        assert (m.n_inputs, m.n_states, m.n_outputs) == (2, 3, 3)
        x = np.array([10.0, 1.0, 0.0])
        assert m.readout(x).tolist() == x.tolist()
        assert m.dynamics(np.zeros(2), x).tolist() == [-5.0, 4.75, 0.25]

    def test_sir_conservation_exact_with_zero_flows(self):
        m = instantiate(builtin_model("sir_city", {"beta": 0.5, "gamma": 0.25}))
        for state in [(10, 1, 0), (100, 5, 2), (990, 10, 0), (3, 7, 11), (250, 125, 625)]:
            d = m.dynamics(np.zeros(2), np.asarray(state, dtype=float))
            assert d[0] + d[1] + d[2] == 0.0

    def test_sir_flow_terms(self):
        m = instantiate(builtin_model("sir_city", {"beta": 0.0, "gamma": 0.0}))
        d = m.dynamics(np.array([4.0, 1.0]), np.array([1.0, 1.0, 2.0]))
        # inflow 4 and outflow 1 route proportionally to shares (.25,.25,.5).
        assert np.allclose(d, [0.75, 0.75, 1.5], atol=1e-15, rtol=0)

    def test_heat_node(self):
        m = instantiate(builtin_model("heat_node", {"alpha": 0.1}))
        assert (m.n_inputs, m.n_states, m.n_outputs) == (4, 1, 4)
        out = m.dynamics(np.array([1.0, 2.0, 3.0, 4.0]), np.array([2.0]))
        assert np.allclose(out, [0.1 * (10.0 - 8.0)], atol=1e-15, rtol=0)
        assert m.readout(np.array([7.0])).tolist() == [7.0] * 4

    def test_lv_predation(self):
        s = instantiate(builtin_model("lv_predation", {"a": 0.5, "b": 0.25}))
        assert s.n_ports == 2 and s.n_states == 2
        out = s.dynamics(np.array([4.0, 2.0]))
        assert out.tolist() == [-4.0, 2.0]

    def test_growth_and_decline(self):
        g = instantiate(builtin_model("lv_growth", {"r": 0.3}))
        d = instantiate(builtin_model("lv_decline", {"r": 0.3}))
        assert g.dynamics(np.array([2.0])).tolist() == [0.6]
        assert d.dynamics(np.array([2.0])).tolist() == [-0.6]

    def test_parameters_are_mandatory(self):
        with pytest.raises(ModelSpecError, match="missing"):
            builtin_model("sir_city", {"beta": 0.5})
        with pytest.raises(ModelSpecError, match="unknown parameters"):
            builtin_model("lv_growth", {"r": 1.0, "q": 2.0})
        with pytest.raises(ModelSpecError, match="unknown builtin"):
            builtin_model("nope", {})

    @pytest.mark.parametrize("value", ["x", 10**400, float("nan"), float("inf"), True, None, [0.1]])
    def test_parameter_values_are_checked_like_json_params(self, value):
        message = re.escape(f"params['alpha'] must be a finite number, got {value!r}")
        with pytest.raises(ModelSpecError, match=message):
            builtin_model("heat_node", {"alpha": value})
        with pytest.raises(ModelSpecError, match=message):
            spec_from_json({"builtin": "heat_node", "params": {"alpha": value}})

    def test_parameter_values_are_kept_as_given(self):
        whole, real = builtin_model("heat_node", {"alpha": 1}), builtin_model("heat_node", {"alpha": 1.0})
        assert whole is not real
        assert type(whole.params["alpha"]) is int and type(real.params["alpha"]) is float
        inputs, state = np.array([1.0, 2.0, 3.0, 4.0]), np.array([2.0])
        assert instantiate(whole).dynamics(inputs, state).tolist() == [2.0]
        assert instantiate(real).dynamics(inputs, state).tolist() == [2.0]


class TestJsonForm:
    def test_round_trip(self):
        spec = builtin_model("sir_city", {"beta": 0.5, "gamma": 0.25})
        assert spec_from_json(spec_to_json(spec)) == spec
        sharer = builtin_model("lv_predation", {"a": 1.0, "b": 2.0})
        assert spec_from_json(spec_to_json(sharer)) == sharer

    def test_builtin_reference(self):
        spec = spec_from_json({"builtin": "heat_node", "params": {"alpha": 0.1}})
        assert spec.states == ("T",)

    def test_missing_key(self):
        with pytest.raises(ModelSpecError, match="states"):
            spec_from_json({"kind": "machine", "flavor": "continuous", "dynamics": {}})


# ---------------------------------------------------------------------------
# Specs as read-only, interned values

_finite = st.floats(allow_nan=False, allow_infinity=False)
_param_values = _finite | st.integers(-(10**6), 10**6)
_texts = _exprs.map(format_expr)


@st.composite
def explicit_json(draw) -> dict:
    """Explicit model objects, in JSON key order, names not checked."""
    machine = draw(st.booleans())
    states = draw(st.lists(st.sampled_from(["x", "y", "T", "S"]), min_size=1, max_size=3, unique=True))
    data = {
        "kind": "machine" if machine else "sharer",
        "flavor": draw(st.sampled_from(["continuous", "discrete"])),
        "states": states,
        "params": draw(st.dictionaries(st.sampled_from(["a", "b", "beta"]), _param_values, max_size=3)),
        "dynamics": {s: draw(_texts) for s in draw(st.permutations(states))},
    }
    if machine:
        data["inputs"] = draw(st.lists(st.sampled_from(["u", "v"]), max_size=2, unique=True))
        data["readout"] = draw(st.lists(_texts, max_size=2))
    else:
        data["ports"] = draw(st.lists(st.sampled_from(states), max_size=3))
    return data


def _reference_explicit(data: dict) -> ModelSpec:
    """The spec of ``data`` built field by field, not through the cache."""
    return ModelSpec(
        kind=data["kind"],
        flavor=data["flavor"],
        states=tuple(data["states"]),
        dynamics={s: parse(e) for s, e in data["dynamics"].items()},
        inputs=tuple(data.get("inputs", ())),
        params={k: float(v) for k, v in data["params"].items()},
        readout=tuple(map(parse, data.get("readout", ()))),
        ports=tuple(data.get("ports", ())),
    )


def _json_text(spec: ModelSpec) -> str:
    return json.dumps(spec_to_json(spec))  # key order included


def _heat(alpha: float) -> ModelSpec:
    """A heat-node spec built by the builtin's builder, not through the cache."""
    return BUILTIN_MODELS["heat_node"][0]({"alpha": alpha})


ZERO_MODEL = {
    "kind": "machine", "flavor": "continuous", "states": ["x"], "inputs": [],
    "params": {}, "dynamics": {"x": "0"}, "readout": [],
}


class TestSpecValues:
    @settings(max_examples=200, deadline=None)
    @given(data=explicit_json())
    def test_equal_explicit_json_gives_one_spec(self, data):
        spec = spec_from_json(data)
        assert spec_from_json(copy.deepcopy(data)) is spec
        reference = _reference_explicit(data)
        assert spec == reference and spec is not reference
        assert _json_text(spec) == _json_text(reference)

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(BUILTIN_MODELS)), values=st.data())
    def test_equal_builtin_json_gives_one_spec(self, name, values):
        builder, required = BUILTIN_MODELS[name]
        order = values.draw(st.permutations(required))
        params = {p: values.draw(_param_values) for p in order}
        spec = spec_from_json({"builtin": name, "params": params})
        assert spec_from_json({"builtin": name, "params": dict(params)}) is spec
        assert _json_text(spec) == _json_text(builder({k: float(v) for k, v in params.items()}))
        direct = builtin_model(name, params)
        assert builtin_model(name, dict(params)) is direct
        assert _json_text(direct) == _json_text(builder(params))

    def test_signed_zero_parameters_give_different_specs_and_programs(self):
        negative = spec_from_json({"builtin": "heat_node", "params": {"alpha": -0.0}})
        positive = spec_from_json({"builtin": "heat_node", "params": {"alpha": 0.0}})
        assert negative is not positive and negative == positive  # == compares floats
        assert instantiate(negative).program != instantiate(positive).program
        explicit = dict(ZERO_MODEL, params={"p": -0.0}, dynamics={"x": "p"})
        a, b = spec_from_json(explicit), spec_from_json(dict(explicit, params={"p": 0.0}))
        assert a is not b and instantiate(a).program != instantiate(b).program

    def test_fields_are_read_only_copies(self):
        params, dynamics = {"k": 0.5}, {"x": parse("-k*x")}
        spec = ModelSpec("machine", "continuous", ("x",), dynamics, params=params)
        params["k"], dynamics["x"] = 9.0, parse("x")
        assert spec.params == {"k": 0.5} and spec.dynamics == {"x": parse("-k*x")}
        for shared in (spec, builtin_model("heat_node", {"alpha": 0.1})):
            with pytest.raises(TypeError):
                shared.params["alpha"] = 1.0
            with pytest.raises(TypeError):
                del shared.dynamics[shared.states[0]]
            with pytest.raises(TypeError):
                shared.dynamics["z"] = parse("z")
        assert builtin_model("heat_node", {"alpha": 0.1}).params == {"alpha": 0.1}

    @pytest.mark.parametrize("copy_of", [
        lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_copies_are_equal_read_only_specs(self, copy_of):
        specs = [
            builtin_model("sir_city", {"beta": 0.5, "gamma": 0.25}),
            spec_from_json({"builtin": "lv_predation", "params": {"a": -0.0, "b": 2.0}}),
            spec_from_json(dict(ZERO_MODEL, params={"p": -0.0})),
        ]
        for spec in specs:
            instantiate(spec)  # the cached key must not travel
            again = copy_of(spec)
            assert again == spec and _json_text(again) == _json_text(spec)
            assert list(map(repr, again.params.values())) == list(map(repr, spec.params.values()))
            assert instantiate(again) is instantiate(spec)
            with pytest.raises(TypeError):
                again.params["p"] = 1.0

    @pytest.mark.parametrize("data", [
        dict(ZERO_MODEL, dynamics={"x": "2+"}),
        dict(ZERO_MODEL, readout=["x", "@"]),
        dict(ZERO_MODEL, params={"a": float("inf")}),
        dict(ZERO_MODEL, states="x"),
        dict(ZERO_MODEL, extra=1),
        {"builtin": "heat_node", "params": {}},
        {"builtin": "heat_node", "params": {"alpha": 0.1, "beta": 0.2}},
        {"builtin": "nope", "params": {}},
        {"builtin": "heat_node", "params": {"alpha": 0.1}, "kind": "sharer"},
    ], ids=["syntax", "readout-syntax", "inf-param", "string-states", "unknown-key",
            "missing-param", "extra-param", "unknown-builtin", "builtin-unknown-key"])
    def test_errors_are_raised_on_every_call(self, data):
        messages = []
        for _ in range(2):
            with pytest.raises((ModelSpecError, ExprSyntaxError)) as err:
                spec_from_json(data)
            messages.append((type(err.value), str(err.value)))
        assert messages[0] == messages[1]

    def test_a_cached_spec_still_refuses_an_unknown_key(self):
        good = {"builtin": "heat_node", "params": {"alpha": 0.3}}
        spec_from_json(good)
        with pytest.raises(ModelSpecError, match="unknown key 'readout'"):
            spec_from_json(dict(good, readout=[]))
        spec_from_json(ZERO_MODEL)
        with pytest.raises(ModelSpecError, match="unknown key 'readouts'"):
            spec_from_json(dict(ZERO_MODEL, readouts=["x"]))

    def test_the_cache_is_bounded_oldest_first(self, monkeypatch):
        monkeypatch.setattr(modelspec, "_SPECS", {})
        monkeypatch.setattr(modelspec, "_SPECS_MAX", 4)
        first = [builtin_model("lv_growth", {"r": float(k)}) for k in range(6)]
        assert len(modelspec._SPECS) == 4
        assert builtin_model("lv_growth", {"r": 5.0}) is first[5]
        again = builtin_model("lv_growth", {"r": 0.0})
        assert again is not first[0] and again == first[0]

    def test_threads_share_one_spec_per_input(self, monkeypatch):
        monkeypatch.setattr(modelspec, "_SPECS", {})
        inputs = [{"builtin": "lv_decline", "params": {"r": k / 8}} for k in range(400)]
        got: dict[int, list] = {}
        start = threading.Barrier(8, timeout=60)

        def load(worker: int) -> None:
            start.wait()
            got[worker] = [spec_from_json(dict(data)) for data in inputs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=load, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(got) == 8
        for specs in got.values():
            assert all(a is b for a, b in zip(specs, got[0]))
        assert len(modelspec._SPECS) == len(inputs)

    def test_instantiate_builds_a_value_key_once_per_spec(self, monkeypatch):
        made = []
        program = modelspec._program
        monkeypatch.setattr(modelspec, "_program", lambda s: made.append(s) or program(s))
        spec = _heat(0.4375)
        systems = {id(instantiate(spec)) for _ in range(1024)}
        assert len(systems) == 1 and made == [spec]

    def test_list_built_and_tuple_built_specs_are_equal_and_one_system(self):
        states = ["u"]
        listed = ModelSpec("sharer", "continuous", states, {"u": parse("0")}, ports=["u"])
        tupled = ModelSpec("sharer", "continuous", ("u",), {"u": parse("0")}, ports=("u",))
        assert listed == tupled and listed.states == ("u",) and listed.ports == ("u",)
        assert instantiate(listed) is instantiate(tupled)
        states.append("v")  # the spec kept its own copy
        assert listed.states == ("u",) and instantiate(listed) is instantiate(tupled)

    def test_1024_loaded_specs_build_one_system_with_the_shared_trajectory(self):
        builds = modelspec._build.cache_info
        data = {"builtin": "heat_node", "params": {"alpha": 0.15625}}
        modelspec._build.cache_clear()
        loaded = build_system(grid(32, 32), [spec_from_json(dict(data)) for _ in range(1024)])
        assert builds().misses == 1
        modelspec._build.cache_clear()
        shared = build_system(grid(32, 32), [_heat(0.15625)] * 1024)
        assert builds().misses == 1 and shared.system is not loaded.system
        init = tuple(np.random.default_rng(5).uniform(0.0, 1.0, 1024).tolist())
        config = SimulationConfig(h=0.01, steps=5, init=init)
        got, want = (run_trajectory(c, config, "euler") for c in (loaded, shared))
        assert got[0] == want[0]
        assert np.array(got[1]).tobytes() == np.array(want[1]).tobytes()


def test_free_variables():
    e = parse("-beta*S*I + inflow*S/(S+I+R)")
    assert free_variables(e) == {"beta", "S", "I", "R", "inflow"}


def test_an_unknown_function_is_refused_when_the_model_is_built():
    # Refused as its code would be generated, where a division emits its
    # denominator first, though that code is generated only on first use.
    x = Var("x")
    dynamics = {"x": BinOp("/", Call("tan", x), Call("cot", x))}
    with pytest.raises(ExprEvalError, match="^unknown function 'cot'$"):
        instantiate(ModelSpec("machine", "continuous", ("x",), dynamics, readout=(Call("sec", x),)))
    with pytest.raises(ExprEvalError, match="^unknown function 'sec'$"):
        instantiate(ModelSpec("machine", "continuous", ("x",), {"x": x}, readout=(Call("sec", x),)))
