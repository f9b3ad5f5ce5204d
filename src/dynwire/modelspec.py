"""A small arithmetic expression language and file-loadable model definitions.

Grammar (standard precedence, ``^`` right-associative, unary minus binds
looser than ``^``)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-'? atom ('^' factor)?
    atom   := number | identifier | call | '(' expr ')'

Evaluation is over 64-bit floats; division by zero and domain errors raise
:class:`~dynwire.errors.ExprEvalError` rather than injecting NaN or
infinity silently.
"""

from __future__ import annotations

import functools
import math
import re
import threading
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

from ._codegen import (
    FUNCTIONS, BinOp, Call, Emitter, Expr, Leaf, Neg, Num, Var, _Value, define,
)
from .errors import ExprEvalError, ExprSyntaxError, ModelSpecError
from .dynam import Machine, ResourceSharer, _system
from .finset import FinFunction

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "parse",
    "format_expr",
    "eval_expr",
    "compile_expr",
    "free_variables",
    "ModelSpec",
    "spec_violations",
    "instantiate",
    "builtin_model",
    "BUILTIN_MODELS",
    "spec_to_json",
    "spec_from_json",
]


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"""
    (?P<NUMBER>\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>[-+*/^()])
  | (?P<WS>\s+)
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExprSyntaxError(
                f"unexpected character {text[pos]!r}",
                pos,
                frozenset({"number", "identifier", "operator"}),
            )
        kind = match.lastgroup or ""
        if kind != "WS":
            tokens.append(_Token(kind if kind != "OP" else match.group(), match.group(), pos))
        pos = match.end()
    tokens.append(_Token("END", "", len(text)))
    return tokens


# An expression is refused past these bounds, so that neither the parser
# nor a walk of its tree (hashing, code generation, printing) nears Python's
# recursion limit, even from a stack already 250 frames deep: parentheses,
# calls and powers open at once, and operations nested in the tree.
_MAX_NESTING = 100
_MAX_DEPTH = 200


class _Parser:
    """Each rule returns its tree and the tree's depth, the operations and
    calls nested in it."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: frozenset[str]):
        tok = self.current
        what = "end of input" if tok.kind == "END" else repr(tok.text)
        raise ExprSyntaxError(f"unexpected {what}", tok.pos, expected)

    def deeper(self, tok: _Token, *depths: int) -> int:
        """The depth of the node that ``tok`` makes over trees of ``depths``."""
        depth = 1 + max(depths)
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests more than {_MAX_DEPTH} operations", tok.pos)
        return depth

    def nested(self, tok: _Token, rule: Callable[[], tuple[Expr, int]]) -> tuple[Expr, int]:
        """``rule()`` parsed inside what ``tok`` opens."""
        if self.nesting == _MAX_NESTING:
            what = f"expression nests more than {_MAX_NESTING} parentheses, calls and powers"
            raise ExprSyntaxError(what, tok.pos)
        self.nesting += 1
        tree = rule()
        self.nesting -= 1
        return tree

    def expr(self) -> tuple[Expr, int]:
        node, depth = self.term()
        while self.current.kind in ("+", "-"):
            tok = self.advance()
            right, d = self.term()
            node, depth = BinOp(tok.kind, node, right), self.deeper(tok, depth, d)
        return node, depth

    def term(self) -> tuple[Expr, int]:
        node, depth = self.factor()
        while self.current.kind in ("*", "/"):
            tok = self.advance()
            right, d = self.factor()
            node, depth = BinOp(tok.kind, node, right), self.deeper(tok, depth, d)
        return node, depth

    def factor(self) -> tuple[Expr, int]:
        minus = self.advance() if self.current.kind == "-" else None
        node, depth = self.atom()
        if self.current.kind == "^":
            tok = self.advance()
            right, d = self.nested(tok, self.factor)
            node, depth = BinOp("^", node, right), self.deeper(tok, depth, d)
        return (Neg(node), self.deeper(minus, depth)) if minus else (node, depth)

    def atom(self) -> tuple[Expr, int]:
        tok = self.current
        if tok.kind == "NUMBER":
            self.advance()
            return Num(float(tok.text)), 0
        if tok.kind == "IDENT":
            self.advance()
            if self.current.kind == "(":
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(
                        f"unknown function {tok.text!r}",
                        tok.pos,
                        frozenset(FUNCTIONS),
                    )
                self.advance()
                arg, depth = self.nested(tok, self.expr)
                if self.current.kind != ")":
                    self.fail(frozenset({")"}))
                self.advance()
                return Call(tok.text, arg), self.deeper(tok, depth)
            return Var(tok.text), 0
        if tok.kind == "(":
            self.advance()
            tree = self.nested(tok, self.expr)
            if self.current.kind != ")":
                self.fail(frozenset({")"}))
            self.advance()
            return tree
        self.fail(frozenset({"number", "identifier", "(", "-"}))
        raise AssertionError("unreachable")


@functools.lru_cache(maxsize=4096)
def parse(text: str) -> Expr:
    """Parse expression text; errors carry the byte offset and expected tokens.

    An expression nested past ``_MAX_NESTING`` parentheses, calls and powers
    open at once, or past ``_MAX_DEPTH`` operations and calls in its tree
    (a sum of 202 terms, say), is refused at the offset of the token that
    goes past.  Memoised: ASTs are immutable, so equal texts share one tree.
    """
    parser = _Parser(text)
    node, _ = parser.expr()
    if parser.current.kind != "END":
        parser.fail(frozenset({"+", "-", "*", "/", "^", "end of input"}))
    return node


# ---------------------------------------------------------------------------
# Printing (inverse of parse on well-formed ASTs)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
_NEG_PREC = 2.5
_ATOM_PREC = 4.0


def _prec(e: Expr) -> float:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _NEG_PREC
    return _ATOM_PREC


def format_expr(e: Expr) -> str:
    """Render an AST to text that parses back to the same AST."""
    if isinstance(e, Num):
        if e.value < 0 or math.isnan(e.value) or math.isinf(e.value):
            raise ModelSpecError(f"literal {e.value!r} is not printable")
        return repr(float(e.value))
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = format_expr(e.operand)
        # Only atoms and powers may follow a unary minus without parens.
        if _prec(e.operand) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.fn}({format_expr(e.arg)})"
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        left = format_expr(e.left)
        right = format_expr(e.right)
        if e.op == "^":
            if _prec(e.left) <= p:
                left = f"({left})"
            if _prec(e.right) < p:
                right = f"({right})"
        else:
            if _prec(e.left) < p:
                left = f"({left})"
            if _prec(e.right) <= p:
                right = f"({right})"
        return f"{left}{e.op}{right}"
    raise TypeError(f"not an expression: {type(e).__name__}")


# ---------------------------------------------------------------------------
# Evaluation (the AST and the code generator live in ``_codegen``)


def compile_expr(e: Expr) -> Callable[[Mapping[str, float]], float]:
    """Compile an AST to a function of a name -> value mapping.

    Division by zero, math domain and range errors, and unbound names raise
    :class:`ExprEvalError`; non-finite values pass through (see eval_expr).
    """
    em = Emitter()
    result = em.emit(e)
    return define("_env", [*em.lines, f"return {result}"], em.constants)


def eval_expr(e: Expr, env: Mapping[str, float]) -> float:
    """Evaluate with every free variable bound; non-finite results are errors."""
    result = compile_expr(e)(env)
    if not math.isfinite(result):
        raise ExprEvalError(f"evaluation produced a non-finite value {result!r}")
    return result


def free_variables(e: Expr) -> set[str]:
    if isinstance(e, Num):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return free_variables(e.operand)
    if isinstance(e, Call):
        return free_variables(e.arg)
    if isinstance(e, BinOp):
        return free_variables(e.left) | free_variables(e.right)
    raise TypeError(f"not an expression: {type(e).__name__}")


# ---------------------------------------------------------------------------
# Model specifications


@dataclass(frozen=True)
class ModelSpec(_Value):
    """A serializable elementary system definition, as a read-only value.

    Machines declare ``inputs`` and a ``readout`` expression per output;
    sharers declare ``ports`` as a list of state names.  Readout expressions
    may reference states and parameters only, since readouts are functions
    of state.

    ``dynamics`` and ``params`` are copied into read-only mappings and
    ``states``, ``inputs``, ``readout`` and ``ports`` into tuples, so
    mutating a dict or list after passing it changes nothing, and assigning
    to a field raises.  Specs compare by value (parameters as floats);
    ``spec_from_json`` and ``builtin_model`` return one shared object for
    equal input; ``pickle`` gives back an equal spec, and ``copy.copy`` and
    ``copy.deepcopy`` the spec itself.
    """

    kind: str  # "machine" | "sharer"
    flavor: str  # "continuous" | "discrete"
    states: tuple[str, ...]
    dynamics: Mapping[str, Expr]
    inputs: tuple[str, ...] = ()
    params: Mapping[str, float] = field(default_factory=dict)
    readout: tuple[Expr, ...] = ()
    ports: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "dynamics", MappingProxyType(dict(self.dynamics)))
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        for name in ("states", "inputs", "readout", "ports"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def __reduce__(self):
        # A mappingproxy does not pickle; the fields rebuild through __init__.
        return ModelSpec, (
            self.kind, self.flavor, self.states, dict(self.dynamics),
            self.inputs, dict(self.params), self.readout, self.ports,
        )


def spec_violations(spec: ModelSpec) -> list[str]:
    """All consistency problems of a spec, as human-readable strings."""
    problems = []
    if spec.kind not in ("machine", "sharer"):
        problems.append(f"unknown kind {spec.kind!r}")
    if spec.flavor not in ("continuous", "discrete"):
        problems.append(f"unknown flavor {spec.flavor!r}")
    names = list(spec.states) + list(spec.inputs) + list(spec.params)
    if len(set(names)) != len(names):
        problems.append("state, input, and parameter names must be distinct")
    missing = [s for s in spec.states if s not in spec.dynamics]
    if missing:
        problems.append(f"states without dynamics: {', '.join(missing)}")
    extra = [s for s in spec.dynamics if s not in spec.states]
    if extra:
        problems.append(f"dynamics for undeclared states: {', '.join(extra)}")
    bound = set(spec.states) | set(spec.inputs) | set(spec.params)
    for state, expr in spec.dynamics.items():
        for name in sorted(free_variables(expr) - bound):
            problems.append(f"dynamics of {state!r} references unbound name {name!r}")
    state_bound = set(spec.states) | set(spec.params)
    for k, expr in enumerate(spec.readout):
        for name in sorted(free_variables(expr) - state_bound):
            problems.append(
                f"readout {k} references {name!r}, which is not a state or parameter"
            )
    if spec.kind == "machine":
        if spec.ports:
            problems.append("machines do not declare ports")
    else:
        if spec.inputs or spec.readout:
            problems.append("sharers do not declare inputs or readout")
        for k, port in enumerate(spec.ports):
            if port not in spec.states:
                problems.append(f"port {k} references unknown state {port!r}")
    return problems


def _program(spec: ModelSpec) -> Leaf:
    """The checked program of ``spec``; a spec with violations is refused."""
    problems = spec_violations(spec)
    if problems:
        raise ModelSpecError("; ".join(problems))
    states = spec.states
    return Leaf(spec.params, spec.inputs, states, [spec.dynamics[s] for s in states], spec.readout)


@functools.lru_cache(maxsize=256)
def _build(program: Leaf, kind: str, flavor: str, ports: tuple[str, ...]) -> Machine | ResourceSharer:
    if kind == "machine":
        return _system(program, flavor)
    index = {s: k for k, s in enumerate(program.states)}
    portmap = FinFunction(len(ports), program.n_states, tuple(index[p] for p in ports))
    return _system(program, flavor, portmap)


def instantiate(spec: ModelSpec) -> Machine | ResourceSharer:
    """Build an evaluatable machine or sharer from a spec.

    The result carries its program, the equations in the form a composite
    reads, and the scalar closures generated from it (one box's vectors,
    size-checked, around one function over Python floats).  The program is
    built and checked once per spec object and kept on it, so calling this
    again with the same object, as for every box of a grid whose spec
    ``spec_from_json`` or ``builtin_model`` returned, costs one cache lookup.
    Results are cached by program value: equal specs give the same system.
    How a composite of these uses the program is in ``dynam``'s module
    docstring.  Only the CLI reads a file once: ``simulate`` loads a
    ``--models`` path given for many boxes a single time, while
    ``fileio.load_json`` reads the file on every call.
    """
    program = spec.__dict__.get("_program")
    if program is None:
        program = _program(spec)
        object.__setattr__(spec, "_program", program)
    return _build(program, spec.kind, spec.flavor, spec.ports)


# ---------------------------------------------------------------------------
# Built-in models.  Parameters are always explicit: defaults belong in config
# files, not here.


def _sir_city(params: Mapping[str, float]) -> ModelSpec:
    # Total in/outflow is routed proportionally to compartment shares, which
    # keeps populations nonnegative and conserves people under permutation
    # wirings.  Readout is the identity on (S, I, R).
    flows = {
        "S": "inflow*S/(S+I+R) - outflow*S/(S+I+R)",
        "I": "inflow*I/(S+I+R) - outflow*I/(S+I+R)",
        "R": "inflow*R/(S+I+R) - outflow*R/(S+I+R)",
    }
    return ModelSpec(
        kind="machine",
        flavor="continuous",
        states=("S", "I", "R"),
        inputs=("inflow", "outflow"),
        params=params,
        dynamics={
            "S": parse("-beta*S*I + " + flows["S"]),
            "I": parse("beta*S*I - gamma*I + " + flows["I"]),
            "R": parse("gamma*I + " + flows["R"]),
        },
        readout=(parse("S"), parse("I"), parse("R")),
    )


def _lv_predation(params: Mapping[str, float]) -> ModelSpec:
    # Bilinear predation coupling: prey loses a*prey*pred, predator gains
    # b*prey*pred.  Both species are shared through ports.
    return ModelSpec(
        kind="sharer",
        flavor="continuous",
        states=("prey", "pred"),
        params=params,
        dynamics={"prey": parse("-a*prey*pred"), "pred": parse("b*prey*pred")},
        ports=("prey", "pred"),
    )


def _lv_growth(params: Mapping[str, float]) -> ModelSpec:
    return ModelSpec(
        kind="sharer",
        flavor="continuous",
        states=("pop",),
        params=params,
        dynamics={"pop": parse("r*pop")},
        ports=("pop",),
    )


def _lv_decline(params: Mapping[str, float]) -> ModelSpec:
    return ModelSpec(
        kind="sharer",
        flavor="continuous",
        states=("pop",),
        params=params,
        dynamics={"pop": parse("-r*pop")},
        ports=("pop",),
    )


def _heat_node(params: Mapping[str, float]) -> ModelSpec:
    # One grid cell of the 5-point stencil: inputs are the four neighbor
    # values (North, East, South, West) and the readout copies the cell
    # value to all four ports.
    return ModelSpec(
        kind="machine",
        flavor="continuous",
        states=("T",),
        inputs=("aN", "aE", "aS", "aW"),
        params=params,
        dynamics={"T": parse("alpha*(aN+aE+aS+aW-4*T)")},
        readout=(parse("T"), parse("T"), parse("T"), parse("T")),
    )


BUILTIN_MODELS: dict[str, tuple[Callable[[Mapping[str, float]], ModelSpec], tuple[str, ...]]] = {
    "sir_city": (_sir_city, ("beta", "gamma")),
    "lv_predation": (_lv_predation, ("a", "b")),
    "lv_growth": (_lv_growth, ("r",)),
    "lv_decline": (_lv_decline, ("r",)),
    "heat_node": (_heat_node, ("alpha",)),
}


def builtin_model(name: str, params: Mapping[str, float]) -> ModelSpec:
    """A named builtin with explicitly supplied parameters.

    Each parameter must be a finite int or float (not a bool), else
    ``ModelSpecError`` names it, as ``spec_from_json`` does; the values are
    kept as given.  Equal input gives the same spec object (see
    ``spec_from_json``): parameters are compared by ``repr``, in their order.
    """
    for key, value in params.items():
        _param(key, value)
    return _builtin(name, params)


def _builtin(name: str, params: Mapping[str, float]) -> ModelSpec:
    """``builtin_model`` of parameter values already checked."""
    try:
        builder, required = BUILTIN_MODELS[name]
    except KeyError:
        raise ModelSpecError(
            f"unknown builtin {name!r}; available: {', '.join(sorted(BUILTIN_MODELS))}"
        ) from None
    if params.keys() != set(required):
        missing = sorted(set(required) - set(params))
        extra = sorted(set(params) - set(required))
        if missing:
            raise ModelSpecError(f"builtin {name!r} is missing parameters: {', '.join(missing)}")
        raise ModelSpecError(f"builtin {name!r} got unknown parameters: {', '.join(extra)}")
    return _interned((name, _params_key(params)), lambda: builder(params))


# Specs by validated input, shared by builtin_model and spec_from_json and
# bounded like parse's cache; the oldest entry goes first.  Lookups need no
# lock; the lock makes storing and evicting one step, so that of two threads
# building one key both return the spec stored first.
_SPECS: dict[tuple, ModelSpec] = {}
_SPECS_MAX = 4096
_SPECS_LOCK = threading.Lock()


def _params_key(params: Mapping[str, float]) -> tuple[tuple[str, str], ...]:
    # By repr, as a program compares them, so -0.0 and 0.0 stay distinct.
    return tuple(zip(params, map(repr, params.values())))


def _interned(key: tuple, build: Callable[[], ModelSpec]) -> ModelSpec:
    """The spec stored under ``key``, else ``build()`` stored under it.

    ``key`` holds only input that has passed every check, so a spec that
    fails one is never stored and raises again on the next call.
    """
    spec = _SPECS.get(key)
    if spec is None:
        built = build()
        with _SPECS_LOCK:
            spec = _SPECS.setdefault(key, built)
            if len(_SPECS) > _SPECS_MAX:
                del _SPECS[next(iter(_SPECS))]
    return spec


# ---------------------------------------------------------------------------
# JSON form


def spec_to_json(spec: ModelSpec) -> dict:
    out: dict = {
        "kind": spec.kind,
        "flavor": spec.flavor,
        "states": list(spec.states),
        "params": dict(spec.params),
        "dynamics": {s: format_expr(e) for s, e in spec.dynamics.items()},
    }
    if spec.kind == "machine":
        out["inputs"] = list(spec.inputs)
        out["readout"] = [format_expr(e) for e in spec.readout]
    else:
        out["ports"] = list(spec.ports)
    return out


def _finite_float(value: object) -> float | None:
    """``value`` as a float if it is a finite int or float (not a bool), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        x = float(value)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _json_strings(key: str, value: object) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ModelSpecError(f"model key {key!r} must be a list of strings, got {value!r}")
    return tuple(value)


def _json_params(data: Mapping) -> dict[str, float]:
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ModelSpecError(f"model key 'params' must be an object, got {params!r}")
    out = {}
    for name, value in params.items():
        out[name] = _param(name, value)
    return out


def _param(name: str, value: object) -> float:
    x = _finite_float(value)
    if x is None:
        raise ModelSpecError(f"params[{name!r}] must be a finite number, got {value!r}")
    return x


# The keys each JSON form may carry.
_BUILTIN_KEYS = frozenset({"builtin", "params"})
_EXPLICIT_KEYS = frozenset(
    {"kind", "flavor", "states", "dynamics", "inputs", "params", "readout", "ports"}
)


def _refuse_unknown_keys(data: Mapping, known: frozenset) -> None:
    if not data.keys() <= known:
        key = next(k for k in data if k not in known)
        raise ModelSpecError(f"model JSON has unknown key {key!r}")


def spec_from_json(data: Mapping) -> ModelSpec:
    """Parse a model JSON object; ``{"builtin": name, "params": {...}}`` is
    also accepted and resolves through the registry.

    ``states``, ``inputs``, ``ports`` and ``readout`` are lists of strings,
    ``dynamics`` an object of strings, and params finite numbers; any other
    value raises ``ModelSpecError`` naming its key, and so does a key the
    form does not read (the explicit form reads ``kind``, ``flavor``,
    ``states``, ``dynamics``, ``inputs``, ``params``, ``readout`` and
    ``ports``; the builtin form ``builtin`` and ``params``).

    Specs are interned: equal input, with parameters compared by ``repr`` in
    their order, gives the same read-only spec object, so a grid of boxes
    that all load one model costs one spec and one ``instantiate``.  The
    cache holds validated input only, so a bad spec raises on every call.
    """
    if "builtin" in data:
        spec = _builtin(str(data["builtin"]), _json_params(data))
        _refuse_unknown_keys(data, _BUILTIN_KEYS)
        return spec
    try:
        kind = str(data["kind"])
        flavor = str(data["flavor"])
        states = _json_strings("states", data["states"])
        dynamics = data["dynamics"]
    except KeyError as exc:
        raise ModelSpecError(f"model JSON is missing key {exc.args[0]!r}") from None
    if not isinstance(dynamics, dict) or not all(isinstance(e, str) for e in dynamics.values()):
        raise ModelSpecError(f"model key 'dynamics' must be an object of strings, got {dynamics!r}")
    equations = {s: parse(e) for s, e in dynamics.items()}
    inputs = _json_strings("inputs", data.get("inputs", []))
    params = _json_params(data)
    readout = _json_strings("readout", data.get("readout", []))
    exprs = tuple(map(parse, readout))
    ports = _json_strings("ports", data.get("ports", []))
    _refuse_unknown_keys(data, _EXPLICIT_KEYS)
    key = (
        kind, flavor, states, tuple(dynamics.items()), inputs, _params_key(params), readout, ports
    )
    return _interned(key, lambda: ModelSpec(
        kind=kind,
        flavor=flavor,
        states=states,
        dynamics=equations,
        inputs=inputs,
        params=params,
        readout=exprs,
        ports=ports,
    ))
