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
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .errors import ExprEvalError, ExprSyntaxError, ModelSpecError
from .dynam import BatchKernel, Machine, ResourceSharer
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
# AST


@dataclass(frozen=True)
class Num:
    value: float  # nonnegative; negative literals parse as Neg(Num(...))


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str  # one of sin cos exp
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]

FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
}


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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

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

    def expr(self) -> Expr:
        node = self.term()
        while self.current.kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.current.kind in ("*", "/"):
            op = self.advance().kind
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        negate = False
        if self.current.kind == "-":
            self.advance()
            negate = True
        node = self.atom()
        if self.current.kind == "^":
            self.advance()
            node = BinOp("^", node, self.factor())
        return Neg(node) if negate else node

    def atom(self) -> Expr:
        tok = self.current
        if tok.kind == "NUMBER":
            self.advance()
            return Num(float(tok.text))
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
                arg = self.expr()
                if self.current.kind != ")":
                    self.fail(frozenset({")"}))
                self.advance()
                return Call(tok.text, arg)
            return Var(tok.text)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            if self.current.kind != ")":
                self.fail(frozenset({")"}))
            self.advance()
            return node
        self.fail(frozenset({"number", "identifier", "(", "-"}))
        raise AssertionError("unreachable")


@functools.lru_cache(maxsize=4096)
def parse(text: str) -> Expr:
    """Parse expression text; errors carry the byte offset and expected tokens.

    Memoised: ASTs are immutable, so equal texts share one tree.
    """
    parser = _Parser(text)
    node = parser.expr()
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
# Evaluation
#
# Every evaluator here is straight-line Python generated from the AST, one
# assignment per node: ``compile_expr`` reads a mapping, the closures of
# ``instantiate`` read one box's vectors as Python floats, and the batch
# kernels read a block of boxes as numpy columns.


class _Emitter:
    """Generated statements for a set of expressions sharing one namespace.

    Operands are evaluated in the reference order: left before right, except
    that a division evaluates and checks its denominator before its
    numerator.  A statement text seen before is not emitted again, so shared
    subexpressions are computed once, which changes no value and no error.

    ``batched`` emits numpy code over columns, in which nothing raises: zero
    denominators and non-finite function or power values land in ``checks``,
    conditions that must all hold for the block to match the scalar path.
    """

    def __init__(self, batched: bool = False):
        self.batched = batched
        self.names: dict[str, str] = {}  # model variable -> operand text
        self.lines: list[str] = []
        self.checks: list[str] = []
        self.constants: dict[str, object] = {}
        self._seen: dict[str, str] = {}  # statement text -> temporary
        self._checked: set[tuple[str, str]] = set()  # (check, operand) pairs emitted

    def constant(self, value: float) -> str:
        value = float(value)
        if not self.batched and math.isfinite(value):
            return f"({value!r})"
        # Batched constants are numpy scalars so that constant subexpressions
        # follow numpy semantics (1/0 is inf, not an exception) like the rest.
        name = f"_c{len(self.constants)}"
        self.constants[name] = np.float64(value) if self.batched else value
        return name

    def statement(self, rhs: str, caught: str = "", message: str = "") -> str:
        """Assign ``rhs`` to a fresh temporary; with ``caught``, turn that
        exception into an ExprEvalError whose message is the source ``message``."""
        name = self._seen.get(rhs)
        if name is None:
            name = self._seen[rhs] = f"_t{len(self._seen)}"
            if caught:
                self.lines += [
                    "try:",
                    f"    {name} = {rhs}",
                    f"except {caught} as _exc:",
                    f"    raise _Err({message}) from None",
                ]
            else:
                self.lines.append(f"{name} = {rhs}")
        return name

    def checked(self, rhs: str) -> str:
        """A batched value that must be finite everywhere."""
        if rhs in self._seen:
            return self._seen[rhs]
        name = self.statement(rhs)
        self.checks.append(f"_np.isfinite({name}).all()")
        return name

    def emit(self, e: Expr) -> str:
        """Emit statements computing ``e``; returns the operand holding it."""
        if isinstance(e, Num):
            return self.constant(e.value)
        if isinstance(e, Var):
            if e.name in self.names:
                return self.names[e.name]
            unbound = f"unbound variable {e.name!r}"
            return self.statement(f"_env[{e.name!r}]", "KeyError", repr(unbound))
        if isinstance(e, Neg):
            return self.statement(f"-{self.emit(e.operand)}")
        if isinstance(e, Call):
            if e.fn not in FUNCTIONS:  # names reach the source text: allow known ones only
                raise ExprEvalError(f"unknown function {e.fn!r}")
            arg = self.emit(e.arg)
            if self.batched:
                return self.checked(f"_np.{e.fn}({arg})")
            return self.statement(f"_{e.fn}({arg})", _MATH_ERRORS, f"{e.fn + ': '!r} + str(_exc)")
        if isinstance(e, BinOp):
            if e.op == "/":
                denom = self.emit(e.right)
                if ("nonzero", denom) not in self._checked:
                    self._checked.add(("nonzero", denom))
                    if self.batched:
                        self.checks.append(f"{denom}.all()")
                    else:
                        self.lines.append(f"if {denom} == 0.0: raise _Err('division by zero')")
                return self.statement(f"{self.emit(e.left)} / {denom}")
            left, right = self.emit(e.left), self.emit(e.right)
            if e.op in ("+", "-", "*"):
                return self.statement(f"{left} {e.op} {right}")
            # Any other operator is a power, as the parser only makes "^".
            if self.batched:
                return self.checked(f"_np.power({left}, {right})")
            return self.statement(f"_pow({left}, {right})", _MATH_ERRORS, "'power: ' + str(_exc)")
        raise TypeError(f"not an expression: {type(e).__name__}")

    def output(self, e: Expr, what: str) -> str:
        """Emit an output; scalar outputs are checked finite as they come."""
        value = self.emit(e)
        # A value that passed its check once needs none again.
        if not self.batched and ("finite", value) not in self._checked:
            self._checked.add(("finite", value))
            message = f"{what} produced a non-finite value"
            self.lines.append(f"if not _isfinite({value}): raise _Err({message!r})")
        return value

    def bind(self, names: Sequence[str], source: str) -> None:
        """Bind model variables to the entries (scalar) or columns (batched) of ``source``."""
        locals_ = [f"_{source}{k}" for k in range(len(names))]
        self.names.update(zip(names, locals_))
        if not names:
            return
        if self.batched:
            self.lines += [f"{v} = {source}[:, {k}]" for k, v in enumerate(locals_)]
        else:
            self.lines.append(f"{', '.join(locals_)}, = {source}.tolist()")

    def function(self, params: Sequence[str], results: Sequence[str]) -> Callable:
        """The generated function of ``params``.  Scalar: the vector of
        ``results``.  Batched: ``(block, ok)``, one column per result and one
        row per row of the last parameter."""
        if not self.batched:
            body = [*self.lines, f"return _np.array([{', '.join(results)}])"]
        else:
            ok = " and ".join([*self.checks, "_np.isfinite(_out).all()"])
            body = [
                *self.lines,
                f"_out = _np.empty(({params[-1]}.shape[0], {len(results)}))",
                *(f"_out[:, {k}] = {r}" for k, r in enumerate(results)),
                f"return _out, bool({ok})",
            ]
            body = ['with _np.errstate(all="ignore"):', *("    " + line for line in body)]
        return _define(", ".join(params), body, self.constants)


_MATH_ERRORS = "(ValueError, OverflowError)"
_NAMESPACE = {
    "_np": np,
    "_Err": ExprEvalError,
    "_isfinite": math.isfinite,
    "_pow": math.pow,
    **{f"_{name}": fn for name, fn in FUNCTIONS.items()},
}


def _define(signature: str, body: Sequence[str], constants: Mapping[str, object]) -> Callable:
    source = "\n".join([f"def _generated({signature}):", *("    " + line for line in body)])
    namespace = {**_NAMESPACE, **constants}
    exec(compile(source, "<dynwire model>", "exec"), namespace)
    return namespace["_generated"]


def compile_expr(e: Expr) -> Callable[[Mapping[str, float]], float]:
    """Compile an AST to a function of a name -> value mapping.

    Division by zero, math domain and range errors, and unbound names raise
    :class:`ExprEvalError`; non-finite values pass through (see eval_expr).
    """
    em = _Emitter()
    result = em.emit(e)
    return _define("_env", [*em.lines, f"return {result}"], em.constants)


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
class ModelSpec:
    """A serializable elementary system definition.

    Machines declare ``inputs`` and a ``readout`` expression per output;
    sharers declare ``ports`` as a list of state names.  Readout expressions
    may reference states and parameters only, since readouts are functions
    of state.
    """

    kind: str  # "machine" | "sharer"
    flavor: str  # "continuous" | "discrete"
    states: tuple[str, ...]
    dynamics: dict[str, Expr]
    inputs: tuple[str, ...] = ()
    params: dict[str, float] = field(default_factory=dict)
    readout: tuple[Expr, ...] = ()
    ports: tuple[str, ...] = ()


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


def _generate(
    spec: ModelSpec, params: Mapping[str, float], batched: bool
) -> tuple[Callable, Callable | None]:
    """The dynamics and, for machines, readout function of a valid spec."""

    def emitter(inputs: Sequence[str]) -> _Emitter:
        em = _Emitter(batched)
        em.names.update({p: em.constant(v) for p, v in params.items()})
        em.bind(inputs, "a")
        em.bind(spec.states, "x")
        return em

    machine = spec.kind == "machine"
    em = emitter(spec.inputs if machine else ())
    results = [em.output(spec.dynamics[s], f"dynamics of {s!r}") for s in spec.states]
    dynamics = em.function(["a", "x"] if machine else ["x"], results)
    if not machine:
        return dynamics, None
    em = emitter(())
    results = [em.output(e, "readout") for e in spec.readout]
    return dynamics, em.function(["x"], results)


def _build(spec: ModelSpec) -> Machine | ResourceSharer:
    problems = spec_violations(spec)
    if problems:
        raise ModelSpecError("; ".join(problems))
    params = {k: float(v) for k, v in spec.params.items()}
    dynamics, readout = _generate(spec, params, batched=False)
    kernel = BatchKernel(*_generate(spec, params, batched=True))
    states = spec.states
    if spec.kind == "machine":
        return Machine(
            len(spec.inputs), len(states), len(spec.readout), dynamics, readout, spec.flavor, kernel
        )
    index = {s: k for k, s in enumerate(states)}
    portmap = FinFunction(len(spec.ports), len(states), tuple(index[p] for p in spec.ports))
    return ResourceSharer(len(spec.ports), len(states), portmap, dynamics, spec.flavor, kernel)


class _SpecValue:
    """A spec that hashes and compares by value, as the instantiate cache key.

    Literals and parameters compare as floats, except that parameters compare
    by ``repr``, which tells ``-0.0`` from ``0.0``.
    """

    __slots__ = ("spec", "key", "hash")

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.key = (
            spec.kind,
            spec.flavor,
            tuple(spec.states),
            tuple(spec.dynamics.items()),
            tuple(spec.inputs),
            tuple((k, repr(v)) for k, v in spec.params.items()),
            tuple(spec.readout),
            tuple(spec.ports),
        )
        self.hash = hash(self.key)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SpecValue) and self.key == other.key


@functools.lru_cache(maxsize=256)
def _build_cached(value: _SpecValue) -> Machine | ResourceSharer:
    return _build(value.spec)


def instantiate(spec: ModelSpec) -> Machine | ResourceSharer:
    """Build an evaluatable machine or sharer from a spec.

    The result carries scalar closures (one box, Python floats) and a batch
    kernel over ``(k, n)`` blocks, both generated from the expressions.
    Results are cached by spec value: equal specs give the same system and
    so the same kernel, and ``oapply_*`` evaluates every group of boxes that
    share a kernel in one call, while a box whose spec no other box shares,
    like a hand-written system without a kernel, runs its scalar closures.
    (CLI ``simulate`` reads a ``--models`` path given for many boxes once.)
    """
    return _build_cached(_SpecValue(spec))


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
        params=dict(params),
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
        params=dict(params),
        dynamics={"prey": parse("-a*prey*pred"), "pred": parse("b*prey*pred")},
        ports=("prey", "pred"),
    )


def _lv_growth(params: Mapping[str, float]) -> ModelSpec:
    return ModelSpec(
        kind="sharer",
        flavor="continuous",
        states=("pop",),
        params=dict(params),
        dynamics={"pop": parse("r*pop")},
        ports=("pop",),
    )


def _lv_decline(params: Mapping[str, float]) -> ModelSpec:
    return ModelSpec(
        kind="sharer",
        flavor="continuous",
        states=("pop",),
        params=dict(params),
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
        params=dict(params),
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
    """A named builtin with explicitly supplied parameters."""
    try:
        builder, required = BUILTIN_MODELS[name]
    except KeyError:
        raise ModelSpecError(
            f"unknown builtin {name!r}; available: {', '.join(sorted(BUILTIN_MODELS))}"
        ) from None
    missing = sorted(set(required) - set(params))
    extra = sorted(set(params) - set(required))
    if missing:
        raise ModelSpecError(f"builtin {name!r} is missing parameters: {', '.join(missing)}")
    if extra:
        raise ModelSpecError(f"builtin {name!r} got unknown parameters: {', '.join(extra)}")
    return builder(params)


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
        x = _finite_float(value)
        if x is None:
            raise ModelSpecError(f"params[{name!r}] must be a finite number, got {value!r}")
        out[name] = x
    return out


def spec_from_json(data: Mapping) -> ModelSpec:
    """Parse a model JSON object; ``{"builtin": name, "params": {...}}`` is
    also accepted and resolves through the registry.

    ``states``, ``inputs``, ``ports`` and ``readout`` are lists of strings,
    ``dynamics`` an object of strings, and params finite numbers; any other
    value raises ``ModelSpecError`` naming its key.
    """
    if "builtin" in data:
        return builtin_model(str(data["builtin"]), _json_params(data))
    try:
        kind = str(data["kind"])
        flavor = str(data["flavor"])
        states = _json_strings("states", data["states"])
        dynamics = data["dynamics"]
    except KeyError as exc:
        raise ModelSpecError(f"model JSON is missing key {exc.args[0]!r}") from None
    if not isinstance(dynamics, dict) or not all(isinstance(e, str) for e in dynamics.values()):
        raise ModelSpecError(f"model key 'dynamics' must be an object of strings, got {dynamics!r}")
    return ModelSpec(
        kind=kind,
        flavor=flavor,
        states=states,
        dynamics={s: parse(e) for s, e in dynamics.items()},
        inputs=_json_strings("inputs", data.get("inputs", [])),
        params=_json_params(data),
        readout=tuple(parse(e) for e in _json_strings("readout", data.get("readout", []))),
        ports=_json_strings("ports", data.get("ports", [])),
    )
