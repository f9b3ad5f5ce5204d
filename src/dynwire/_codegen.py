"""Expression trees and the straight-line Python generated from them.

``modelspec`` parses model equations into the AST defined here and gives
each model a :class:`Program`, from which all its code is generated: a
function over Python floats, and batch kernels over ``(k, n)`` blocks for
the boxes of a larger composite that share it.  ``dynam`` gives every
composite a program over its boxes' programs: fused (by the rule in its
module docstring), one function over floats with every box's equations
inlined and the wiring as plain sums; else one function over float64
arrays (array code, see :class:`BoxPlan`).  :func:`runner` generates the
whole trajectory loop of either, with its Euler or discrete step, or each of
its four RK4 stages, emitted inline from the program.  All go through one
:class:`Emitter`, so generated code performs the same floating-point
operations, and meets the same errors in the same order, as the boxes'
closures called in turn; float code is then folded into expressions.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import struct
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .errors import ExprEvalError, SizeMismatchError
from .finset import FinFunction, fiber_sum
from .wiring import _Fibers

# ---------------------------------------------------------------------------
# AST


class _Value:
    """A read-only value: its copies, shallow or deep, are itself.

    ``copy.deepcopy`` would otherwise walk an expression tree a few frames
    per level, and run out of stack on trees the parser accepts."""

    def __copy__(self):
        return self

    def __deepcopy__(self, memo: dict):
        return self


@dataclass(frozen=True)
class Num(_Value):
    value: float  # nonnegative; negative literals parse as Neg(Num(...))


@dataclass(frozen=True)
class Var(_Value):
    name: str


@dataclass(frozen=True)
class Neg(_Value):
    operand: "Expr"


@dataclass(frozen=True)
class BinOp(_Value):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call(_Value):
    fn: str  # one of sin cos exp
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]

FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
}


# ---------------------------------------------------------------------------
# Code generation
#
# Every evaluator is straight-line Python generated from the AST, one
# assignment per node: ``compile_expr`` reads a mapping, the functions of
# models and fused composites and the trajectory loops around them read
# Python floats, the batch kernels read a block of boxes as numpy columns,
# and the array code of box-by-box composites reads float64 arrays.  Float
# code is then folded into expressions (``Emitter.folded``).

_TEMPORARY = re.compile(r"\b(_t\d+)\b")

# Folding nests a temporary's expression in its one use, up to this depth;
# a deeper one stays a statement, so that no chain of sums, however many
# wires feed it, comes near the compiler's limits on nesting.
_FOLD_MAX_DEPTH = 32


class Emitter:
    """Generated statements for a set of expressions sharing one namespace.

    Operands are evaluated in the reference order: left before right, except
    that a division evaluates and checks its denominator before its
    numerator.  A statement text seen before is not emitted again, so shared
    subexpressions are computed once, which changes no value and no error.

    ``batched`` emits numpy code over columns, in which nothing raises: zero
    denominators, non-finite function or power values and non-finite
    outputs land in ``checks``, conditions that must all hold for the block
    to match the scalar path.

    ``arrays`` emits array code: an operand is one float64 array of all of
    a system's inputs (none for a sharer) or states.  Its statements are
    never shared: two equal buffers made by ``_np.empty`` must stay apart.
    Only a nested composite's readouts are, between the phases of its
    parent (``readouts``): its states are a slice of the parent's, which
    nothing writes into.
    """

    def __init__(self, batched: bool = False, arrays: bool = False):
        self.batched, self.arrays = batched, arrays
        self.names: dict[str, str] = {}  # model variable -> operand text
        self.lines: list[str] = []
        self.checks: list[str] = []
        self.constants: dict[str, object] = {}
        self._seen: dict[str, str] = {}  # statement text -> temporary
        self.readouts: dict[tuple[Program, str], str] = {}  # (program, states) -> readouts
        self._temporaries = 0
        self._checked: set[tuple[str, str]] = set()  # (check, operand) pairs emitted
        self._plain: set[str] = set()  # temporaries assigned outside a ``try``

    def constant(self, value: float) -> str:
        value = float(value)
        if not self.batched and math.isfinite(value):
            return f"({value!r})"
        # Batched constants are numpy scalars so that constant subexpressions
        # follow numpy semantics (1/0 is inf, not an exception) like the rest.
        name = f"_c{len(self.constants)}"
        self.constants[name] = np.float64(value) if self.batched else value
        return name

    def name(self, obj: object) -> str:
        """A name for ``obj`` (an index array, a callable) in the generated code."""
        name = f"_c{len(self.constants)}"
        self.constants[name] = obj
        return name

    def statement(self, rhs: str, caught: str = "", message: str = "") -> str:
        """Assign ``rhs`` to a fresh temporary; with ``caught``, turn that
        exception into an ExprEvalError whose message is the source ``message``."""
        name = self._seen.get(rhs)
        if name is None or self.arrays:
            name = self._seen[rhs] = f"_t{self._temporaries}"
            self._temporaries += 1
            if caught:
                self.lines += [
                    "try:",
                    f"    {name} = {rhs}",
                    f"except {caught} as _exc:",
                    f"    raise _Err({message}) from None",
                ]
            else:
                self.lines.append(f"{name} = {rhs}")
                self._plain.add(name)
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
                return self.finite(self.statement(f"_np.{e.fn}({arg})"))
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
                return self.finite(self.statement(f"_np.power({left}, {right})"))
            return self.statement(f"_pow({left}, {right})", _MATH_ERRORS, "'power: ' + str(_exc)")
        raise TypeError(f"not an expression: {type(e).__name__}")

    def finite(self, value: str, what: str = "") -> str:
        """``value``, checked finite: batched, by a check; scalar, by raising
        that ``what`` produced a non-finite value."""
        # A value that passed its check once needs none again.
        if ("finite", value) not in self._checked:
            self._checked.add(("finite", value))
            if self.batched:
                self.checks.append(f"_np.isfinite({value}).all()")
            else:
                message = f"{what} produced a non-finite value"
                self.lines.append(f"if not _isfinite({value}): raise _Err({message!r})")
        return value

    def output(self, e: Expr, what: str) -> str:
        """Emit an output, checked finite as it comes."""
        return self.finite(self.emit(e), what)

    def bind(self, n: int, source: str) -> list[str]:
        """Operands for the ``n`` entries (scalar: a sequence of Python
        floats) or columns (batched) of ``source``; for array code, the
        argument itself, size-checked as ``as_vector`` does."""
        if self.arrays:
            what = "input vector" if source == "a" else "state vector"
            self.lines.append(f"{source} = _vec({source}, {n}, {what!r})")
            return [source]
        operands = [f"_{source}{k}" for k in range(n)]
        if self.batched:
            self.lines += [f"{v} = {source}[:, {k}]" for k, v in enumerate(operands)]
        elif n:
            self.lines.append(f"{', '.join(operands)}, = {source}")
        return operands

    def sums(
        self, src: Sequence[int], dst: Sequence[int], values: Sequence[str], n: int
    ) -> list[str]:
        """``out[j]`` = the sum of ``values[src[w]]`` over ``dst[w] == j``.

        Each sum starts from 0.0 and adds in the order of ``w``, as
        ``finset.fiber_sum`` does, so a lone ``-0.0`` sums to ``0.0`` and an
        empty fiber reads exactly ``0.0``.  Array code calls ``fiber_sum``.
        """
        if self.arrays:
            gather = f"{values[0]}[{self.name(src)}]"
            return [self.statement(f"_fiber_sum({self.name(dst)}, {gather}, {n})")]
        out = ["(0.0)"] * n
        for s, d in zip(src, dst):
            out[d] = self.statement(f"{out[d]} + {values[s]}")
        return out

    def pack(self, operands: Sequence[str]) -> str:
        """Source of the value (or assignment target) of all of ``operands``:
        a tuple display, or in array code the one array."""
        return operands[0] if self.arrays else _tuple(operands)

    def folded(self, tail: Sequence[str]) -> list[str]:
        """The lines of float code, then ``tail`` (lines of operands only),
        in expression form.

        A temporary assigned outside a ``try`` holds one ``+ - * /`` or a
        negation (every other float operation is caught).  One used exactly
        once, by such an assignment or a line of ``tail`` with no ``try`` in
        between, is written into that use in parentheses, up to a nesting of
        ``_FOLD_MAX_DEPTH``.  Its operations then run later, on the same
        values and in the same order, and cannot raise: a denominator is
        checked first.  Checked values, denominators among them, are used
        by their checks too, so they and every check stay where they are.
        """
        lines = [*self.lines, *tail]
        pieces = [_TEMPORARY.split(line) for line in lines]  # temporaries at odd places
        targets = [line.partition(" = ")[0] for line in self.lines]
        into = [t in self._plain for t in targets] + [True] * len(tail)
        uses: dict[str, list[int]] = {}  # temporary -> the lines naming it, its own first
        for i, p in enumerate(pieces):
            for name in p[1::2]:
                uses.setdefault(name, []).append(i)
        tries = list(itertools.accumulate(line == "try:" for line in lines))
        once = set()  # defined, then used by one line that folds, with no ``try`` between
        for name in self._plain:
            if len(uses[name]) == 2:
                defined, used = uses[name]
                if into[used] and tries[defined] == tries[used]:
                    once.add(name)
        nested: dict[str, tuple[str, int]] = {}  # folded temporary -> (expression, depth)
        out = []
        for i, p in enumerate(pieces):
            depth = 0
            for k in range(1, len(p), 2) if into[i] else ():
                if p[k] in nested:
                    p[k], inner = nested.pop(p[k])
                    depth = max(depth, inner)
            text = "".join(p)
            target = targets[i] if i < len(targets) else None
            if target in once and depth < _FOLD_MAX_DEPTH:
                nested[target] = f"({text.partition(' = ')[2]})", depth + 1
            else:
                out.append(text)
        return out

    def function(self, params: Sequence[str], results: Sequence[str]) -> Callable:
        """The generated function of ``params``.  Scalar: the tuple of
        ``results``, in expression form; array code: the array.  Batched:
        ``(block, ok)``, one column per result and one row per row of the
        last parameter."""
        if self.arrays:
            body = [*self.lines, f"return {self.pack(results)}"]
        elif not self.batched:
            body = self.folded([f"return {self.pack(results)}"])
        else:
            ok = " and ".join(self.checks) or "True"
            body = [
                *self.lines,
                f"_out = _np.empty(({params[-1]}.shape[0], {len(results)}))",
                *(f"_out[:, {k}] = {r}" for k, r in enumerate(results)),
                f"return _out, bool({ok})",
            ]
            body = ['with _np.errstate(all="ignore"):', *("    " + line for line in body)]
        return define(", ".join(params), body, self.constants)


def as_vector(x: Sequence[float] | np.ndarray, n: int, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (n,):
        raise SizeMismatchError(f"{what} has shape {arr.shape}, expected ({n},)")
    return arr


_MATH_ERRORS = "(ValueError, OverflowError)"
_NAMESPACE = {
    "_np": np,
    "_vec": as_vector,
    "_fiber_sum": fiber_sum,
    "_Err": ExprEvalError,
    "_isfinite": math.isfinite,
    "_pow": math.pow,
    **{f"_{name}": fn for name, fn in FUNCTIONS.items()},
}


def define(signature: str, body: Sequence[str], constants: Mapping[str, object]) -> Callable:
    source = "\n".join([f"def _generated({signature}):", *("    " + line for line in body)])
    namespace = {**_NAMESPACE, **constants}
    exec(_compile(source), namespace)
    return namespace.pop("_generated")  # kept in its own globals, it would be a cycle


# Cached by source: array code names its data rather than spelling it out,
# so composites of one shape share their code, and an Euler map's readout
# its system's.
@functools.lru_cache(maxsize=64)
def _compile(source: str):
    return compile(source, "<dynwire model>", "exec")


# ---------------------------------------------------------------------------
# Programs: systems in a form that a composite can inline


# A composite is fused only if its code has at most this many statements
# (its ``Program.statements``: the boxes' operations and output checks, plus
# one addition per wire).  Fused code costs per statement, a numpy group
# call mostly per group, and this is where the two cross on heat grids (see
# CHANGES.md).
_FUSE_MAX_STATEMENTS = 1500


class Program:
    """The equations of a system, in a form a composite inlines into its code.

    ``readout(em, x)`` (machines) and ``dynamics(em, a, x)`` emit the
    system's statements into ``em`` over the operands ``a`` of its inputs and
    ``x`` of its states, and return the operands of its results.
    ``statements`` counts what they emit into fused code, one statement per
    operation, per output check and per addition of the wiring: what the
    size and the run time of fused code grow with.  A program is fused, by
    the rule in ``dynam``'s module docstring, exactly when it has a ``key``;
    only then does it emit float code, and compare and hash by value, so the
    code generated for a composite is cached by the values of its diagram
    and its boxes.  Any other program is only equal to itself.

    ``array_dynamics(a, x)`` (``a`` empty for a sharer) and
    ``array_readout(x)`` are its array callables, made on first use and
    kept on it: array code, or, for a fused program, its function over
    Python floats between ``as_vector`` on each argument and ``np.array``.
    """

    def __init__(self, key: tuple | None, n_inputs: int, n_states: int, n_outputs: int, statements: int):
        self.key, self.fused = key, key is not None
        self.n_inputs, self.n_states, self.n_outputs = n_inputs, n_states, n_outputs
        self.statements = statements
        self._hash = id(self) if key is None else hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            self.key is not None and type(other) is type(self)
            and self._hash == other._hash and self.key == other.key
        )

    def readout(self, em: Emitter, x: Sequence[str]) -> list[str]:
        raise NotImplementedError

    def dynamics(self, em: Emitter, a: Sequence[str], x: Sequence[str]) -> list[str]:
        raise NotImplementedError

    @functools.cached_property
    def array_dynamics(self) -> Callable:
        if not self.fused:
            return _generate(Emitter(arrays=True), self, ["a", "x"])
        f, n_in, n = _generate(Emitter(), self, ["a", "x"]), self.n_inputs, self.n_states
        return lambda a, x: np.array(
            f(as_vector(a, n_in, "input vector").tolist(), as_vector(x, n, "state vector").tolist())
        )

    @functools.cached_property
    def array_readout(self) -> Callable:
        if not self.fused:
            return _generate(Emitter(arrays=True), self, ["x"], readout=True)
        f, n = _generate(Emitter(), self, ["x"], readout=True), self.n_states
        return lambda x: np.array(f(as_vector(x, n, "state vector").tolist()))


def _operations(e: Expr) -> int:
    """The operations of ``e``: one generated statement each.  The first
    unknown function in emission order is refused, as emitting ``e`` would."""
    if isinstance(e, Neg):
        return 1 + _operations(e.operand)
    if isinstance(e, Call):
        if e.fn not in FUNCTIONS:
            raise ExprEvalError(f"unknown function {e.fn!r}")
        return 1 + _operations(e.arg)
    if isinstance(e, BinOp):
        first, second = (e.right, e.left) if e.op == "/" else (e.left, e.right)
        return 1 + _operations(first) + _operations(second)
    return 0


class Leaf(Program):
    """One model: parameters inlined as literals, variables bound to operands."""

    def __init__(
        self,
        params: Mapping[str, float],
        inputs: Sequence[str],
        states: Sequence[str],
        equations: Sequence[Expr],
        readouts: Sequence[Expr],
    ):
        self.params = tuple((p, float(v)) for p, v in params.items())
        self.inputs, self.states = tuple(inputs), tuple(states)
        self.equations, self.readouts = tuple(equations), tuple(readouts)
        # Parameters compare by repr, which tells -0.0 from 0.0.
        params_key = tuple((p, repr(v)) for p, v in self.params)
        key = (params_key, self.inputs, self.states, self.equations, self.readouts)
        # One statement per operation, and a finiteness check per output.
        outputs = (*self.equations, *self.readouts)
        statements = sum(map(_operations, outputs)) + len(outputs)
        super().__init__(key, len(inputs), len(states), len(readouts), statements)

    def _scope(self, em: Emitter, a: Sequence[str], x: Sequence[str]) -> None:
        em.names = {p: em.constant(v) for p, v in self.params}
        em.names.update(zip(self.inputs, a))
        em.names.update(zip(self.states, x))

    def readout(self, em: Emitter, x: Sequence[str]) -> list[str]:
        self._scope(em, (), x)
        return [em.output(e, "readout") for e in self.readouts]

    def dynamics(self, em: Emitter, a: Sequence[str], x: Sequence[str]) -> list[str]:
        self._scope(em, a, x)
        return [em.output(e, f"dynamics of {s!r}") for s, e in zip(self.states, self.equations)]


class Opaque(Program):
    """A system given by its callables alone: they are its only code, so it
    is never fused or grouped, and array code calls them.  ``machine`` says
    whether ``dynamics`` takes ``(a, x)`` or, for a sharer, ``(x)``."""

    def __init__(
        self, n_inputs: int, n_states: int, n_outputs: int,
        dynamics: Callable, readout: Callable | None, machine: bool,
    ):
        super().__init__(None, n_inputs, n_states, n_outputs, 0)
        self.callables, self.machine = (dynamics, readout), machine

    def readout(self, em: Emitter, x: Sequence[str]) -> list[str]:
        f = em.name(self.callables[1])
        return [em.statement(f"_np.asarray({f}({x[0]}), dtype=_np.float64)")]

    def dynamics(self, em: Emitter, a: Sequence[str], x: Sequence[str]) -> list[str]:
        f, args = em.name(self.callables[0]), ", ".join([*a, *x] if self.machine else x)
        return [em.statement(f"_np.asarray({f}({args}), dtype=_np.float64)")]


def _composite(boxes: Sequence[Program], glue: int) -> tuple[np.ndarray, int, bool]:
    """Of a composite whose wiring adds ``glue`` statements to its boxes':
    where each box's states start among the box states, and their count
    last (box ``i``'s are ``offs[i]:offs[i + 1]``); its statements; and
    whether it is fused: its boxes are and those fit the cutoff."""
    n = map(attrgetter("n_states"), boxes)
    offs = np.fromiter(itertools.accumulate(n, initial=0), np.intp, len(boxes) + 1)
    statements = sum(map(attrgetter("statements"), boxes)) + glue
    fused = statements <= _FUSE_MAX_STATEMENTS and all(map(attrgetter("fused"), boxes))
    return offs, statements, fused


class Transport(Program):
    """A directed composite: readouts and outer inputs summed into in-ports.

    A composite's states, in-ports and out-ports are the sums of its boxes':
    box ``i``'s are ``offs[i]:offs[i + 1]``, ``ins[i]:ins[i + 1]`` and
    ``outs[i]:outs[i + 1]``.  The tables are index arrays over those sums:
    ``inward`` gathers from ``concat(readouts, inputs)`` and scatters into
    in-ports, ``outward`` gathers from readouts into outer out-ports.  Only a
    fused transport turns them into tuples, for its key and its code; any
    other makes its :class:`BoxPlan` with itself.
    """

    def __init__(
        self, boxes: Sequence[Program], n_inputs: int, n_outputs: int, ins: np.ndarray,
        outs: np.ndarray, inward: tuple[np.ndarray, np.ndarray], outward: tuple[np.ndarray, np.ndarray],
    ):
        self.boxes = tuple(boxes)
        self.ins, self.outs, self.inward, self.outward = ins, outs, inward, outward
        # An addition per wire.
        self.offs, statements, fused = _composite(self.boxes, len(inward[0]) + len(outward[0]))
        wires = (tuple(c.tolist()) for c in (*inward, *outward))
        key = (self.boxes, n_inputs, n_outputs, *wires) if fused else None
        super().__init__(key, n_inputs, int(self.offs[-1]), n_outputs, statements)
        self.plan = None if fused else BoxPlan(self.boxes, (self.offs, ins, outs), True)

    def _readouts(self, em: Emitter, x: Sequence[str], a: Sequence[str] = ()) -> list[str]:
        """Every box's readout in box order, then ``a``."""
        if em.arrays:
            n = int(self.outs[-1])
            # A nested composite's readouts, made for its parent's readout
            # phase, serve its own dynamics in the phase after.
            values = em.readouts.get((self, x[0]))
            if values is None:
                values = em.statement(f"_np.empty({n + self.n_inputs if a else n})")
                self.plan.emit(em, x[0], values, readout=True)
                if a:
                    em.lines.append(f"{values}[{n}:] = {a[0]}")
                else:
                    em.readouts[self, x[0]] = values
            elif a:
                values = em.statement(f"_np.concatenate(({values}, {a[0]}))")
            return [values]
        r = []
        for box, states in zip(self.boxes, _slices(self.offs)):
            r += box.readout(em, x[states])
        return [*r, *a]

    def readout(self, em: Emitter, x: Sequence[str]) -> list[str]:
        return em.sums(*self.outward, self._readouts(em, x), self.n_outputs)

    def dynamics(self, em: Emitter, a: Sequence[str], x: Sequence[str]) -> list[str]:
        feed = em.sums(*self.inward, self._readouts(em, x, a), int(self.ins[-1]))
        if em.arrays:
            out = em.statement(f"_np.empty({self.n_states})")
            self.plan.emit(em, x[0], out, feed[0])
            return [out]
        out: list[str] = []
        for box, states, ports in zip(self.boxes, _slices(self.offs), _slices(self.ins)):
            out += box.dynamics(em, feed[ports], x[states])
        return out


class Gluing(Program):
    """An undirected composite: box states are pulled back from the glued
    states along ``injection`` and their dynamics pushed forward, summed per
    glued state.  A discrete composite adds the summed increments to the
    glued state instead.  ``offs`` and ``plan`` are as for :class:`Transport`."""

    def __init__(self, boxes: Sequence[Program], injection: FinFunction, discrete: bool):
        self.boxes = tuple(boxes)
        self.injection, self.discrete = injection, discrete
        n_states = injection.cod_size
        # An addition per box state; a discrete composite also takes an
        # increment per box state and adds one sum per glued state.
        glue = 2 * injection.dom_size + n_states if discrete else injection.dom_size
        self.offs, statements, fused = _composite(self.boxes, glue)
        key = (self.boxes, injection.map, n_states, discrete) if fused else None
        super().__init__(key, 0, n_states, 0, statements)
        none = np.zeros_like(self.offs)  # a sharer has no in- or out-ports
        self.plan = None if fused else BoxPlan(self.boxes, (self.offs, none, none), False)

    def dynamics(self, em: Emitter, a: Sequence[str], x: Sequence[str]) -> list[str]:
        if em.arrays:
            glue, n = em.name(self.injection._indices), self.n_states
            y = em.statement(f"{x[0]}[{glue}]")
            out = em.statement(f"_np.empty({self.injection.dom_size})")
            self.plan.emit(em, y, out)
            if not self.discrete:
                return [em.statement(f"_fiber_sum({glue}, {out}, {n})")]
            return [em.statement(f"{x[0]} + _fiber_sum({glue}, {out} - {y}, {n})")]
        injection = self.injection.map
        y = [x[c] for c in injection]
        out: list[str] = []
        for box, states in zip(self.boxes, _slices(self.offs)):
            out += box.dynamics(em, (), y[states])
        every = range(len(y))
        if not self.discrete:
            return em.sums(every, injection, out, self.n_states)
        steps = [em.statement(f"{o} - {v}") for o, v in zip(out, y)]
        sums = em.sums(every, injection, steps, self.n_states)
        return [em.statement(f"{v} + {s}") for v, s in zip(x, sums)]


class Euler(Program):
    """The explicit Euler map of a continuous system: its dynamics ``u``,
    then ``x_i + h*u_i`` per state (array code: ``x + h*u``), the operations
    of numpy's ``x + h * u``.  Its readout is the system's own.  Fused when
    the system's program is."""

    def __init__(self, inner: Program, h: float):
        self.inner, self.h = inner, float(h)
        n = inner.n_states  # and one statement per state, its step
        key = (inner, self.h) if inner.fused else None
        super().__init__(key, inner.n_inputs, n, inner.n_outputs, inner.statements + n)

    def readout(self, em: Emitter, x: Sequence[str]) -> list[str]:
        return self.inner.readout(em, x)

    def dynamics(self, em: Emitter, a: Sequence[str], x: Sequence[str]) -> list[str]:
        u = self.inner.dynamics(em, a, x)
        h = em.constant(self.h)
        return [em.statement(f"{v} + {h} * {d}") for v, d in zip(x, u)]


class BoxPlan:
    """How the array code of a box-by-box composite runs its boxes.

    Boxes whose fused programs are equal form a group, evaluated by one call
    of that program's batch kernel on a ``(k, n)`` block.  One pass over the
    boxes' programs forms the groups, hashing each distinct object once.
    ``offs`` holds where each box's states, in-ports and out-ports start in
    the composite's, and their counts last, as the sums of the boxes' they
    are: a group's blocks are its boxes' offsets plus ``arange(n)``, and a
    box's own are slices.  ``machine`` says whether the boxes are machines.
    The other boxes, the ``singles``, run one by one.  Groups run first and
    only flag trouble; if one does, :meth:`walk` redoes the phase through
    every box's array callables in box order, so it raises exactly the
    error, from exactly the box, that unbatched code would; if it raises
    none, the singles run as usual after it, to the same values.  Its
    records, :attr:`boxes`, are built on the first flag, then kept.
    """

    def __init__(self, programs: Sequence[Program], offs: Sequence[np.ndarray], machine: bool):
        self.programs, self.machine, self.bounds = programs, machine, [o.tolist() for o in offs]
        # By value, each distinct object hashed once: ``id`` is a C call,
        # hashing a program's value a Python one.
        ids = list(map(id, programs))
        objects = dict(zip(ids, programs))
        heads: dict[Program, int] = {}  # one program per value, in first-seen order
        code = {k: heads.setdefault(p, len(heads)) for k, p in objects.items()}
        column = np.fromiter(map(code.__getitem__, ids), np.intp, len(ids))
        groups = _Fibers(column, len(heads)).split(range(len(heads)))
        self.groups, alone = [], []
        for program, rows in zip(heads, groups):
            if not program.fused or len(rows) < 2:
                alone += rows.tolist()
                continue
            sizes = (program.n_states, program.n_inputs, program.n_outputs)
            blocks = [o[rows][:, None] + np.arange(n) for o, n in zip(offs, sizes)]
            self.groups.append((*kernels(program, machine), *blocks))
        self.singles = sorted(alone)
        # Singles in box order: a box-by-box composite or Euler map inlined,
        # or a run of other boxes (fused or opaque) walked by their callables.
        self.runs: list[tuple | list[tuple]] = []
        for record in self._records(self.singles):
            if not (record[1].fused or isinstance(record[1], Opaque)):
                self.runs.append(record)
            elif self.runs and isinstance(self.runs[-1], list):
                self.runs[-1].append(record)
            else:
                self.runs.append([record])

    def emit(self, em: Emitter, x: str, out: str, feed: str | None = None, readout: bool = False):
        """Emit one phase of array code over the states ``x`` into ``out``:
        every box's readout at its out-ports (``readout``), or its dynamics
        at its states, a machine reading its inputs from ``feed``."""
        oks = []
        for dynamics, readouts, states, ins, outs in self.groups:
            s = em.name(states)
            args = ([] if feed is None else [f"{feed}[{em.name(ins)}]"]) + [f"{x}[{s}]"]
            block = em.statement(f"{em.name(readouts if readout else dynamics)}({', '.join(args)})")
            em.lines.append(f"{out}[{em.name(outs) if readout else s}] = {block}[0]")
            oks.append(f"{block}[1]")
        walk = em.name(self.walk)
        if oks:  # a flag redoes the phase box by box; the singles then run again alike
            em.lines.append(f"if not ({' and '.join(oks)}): {walk}({x}, {out}, {feed}, {readout})")
        for run in self.runs:
            if isinstance(run, list):
                em.lines.append(f"{walk}({x}, {out}, {feed}, {readout}, {em.name(run)})")
                continue
            i, box, _, _, *blocks = run
            states, ins, outs = (f"{b.start}:{b.stop}" for b in blocks)
            xs = [f"{x}[{states}]"]  # one operand text in both phases
            a = [] if feed is None else [em.statement(f"{feed}[{ins}]")]
            value = (box.readout(em, xs) if readout else box.dynamics(em, a, xs))[0]
            n, target = (box.n_outputs, outs) if readout else (box.n_states, states)
            what = f"{'readout' if readout else 'dynamics'} of box {i}"
            em.lines.append(f"{out}[{target}] = _vec({value}, {n}, {what!r})")

    def _records(self, boxes: list[int]) -> list[tuple]:
        """Of each of ``boxes``: index, program, array callables, state and port slices."""
        return [
            (i, self.programs[i], *callables_of(self.programs[i], self.machine),
             *(slice(b[i], b[i + 1]) for b in self.bounds))
            for i in boxes
        ]

    @functools.cached_property
    def boxes(self) -> list[tuple]:
        """The records of every box, in box order: what the fallback walks."""
        return self._records(list(range(len(self.programs))))

    def walk(self, x: np.ndarray, out: np.ndarray, feed: np.ndarray | None, readout: bool,
             records: list[tuple] | None = None) -> None:
        """The phase that :meth:`emit` emits, through the callables of
        ``records`` (by default, every box) in turn."""
        for i, p, dynamics, read, states, ins, outs in self.boxes if records is None else records:
            if readout:
                out[outs] = as_vector(read(x[states]), p.n_outputs, f"readout of box {i}")
            else:
                v = dynamics(x[states]) if feed is None else dynamics(feed[ins], x[states])
                out[states] = as_vector(v, p.n_states, f"dynamics of box {i}")


def _slices(offs: np.ndarray) -> list[slice]:
    bounds = offs.tolist()
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _tuple(operands: Sequence[str]) -> str:
    """Source of a tuple display (or assignment target) of ``operands``."""
    return f"({''.join(v + ', ' for v in operands)})"


# ---------------------------------------------------------------------------
# Generated functions


def _generate(em: Emitter, program: Program, params: Sequence[str], readout: bool = False):
    """The generated dynamics, or with ``readout`` readout, of ``program``."""
    a = [] if readout else em.bind(program.n_inputs, "a")
    x = em.bind(program.n_states, "x")
    return em.function(params, program.readout(em, x) if readout else program.dynamics(em, a, x))


# A fused 9x9 heat grid holds about 130 KB of code and program, so the
# caches are kept small.
@functools.lru_cache(maxsize=64)
def kernels(program: Program, machine: bool) -> tuple[Callable, Callable | None]:
    """The batch kernels of ``program``, cached by its value: ``dynamics(a, x)``
    (machines) or ``dynamics(x)`` (sharers), and a machine's ``readout(x)``,
    over ``(k, n)`` blocks of one box per row, each returning ``(block, ok)``.
    ``ok`` is false when some row met what the scalar code raises for (see
    :class:`Emitter`); the caller then redoes the boxes with that code."""
    dynamics = _generate(Emitter(True), program, ["a", "x"] if machine else ["x"])
    return dynamics, _generate(Emitter(True), program, ["x"], readout=True) if machine else None


def callables_of(program: Program, machine: bool) -> tuple[Callable, Callable | None]:
    """The dynamics ``(a, x)`` of a machine or ``(x)`` of a sharer, and a
    machine's readout ``(x)``: an opaque leaf's own callables, else calls of
    the program's array callables, which the first call makes.  An Euler
    map's readout has its system's source, so it compiles no new code."""
    if isinstance(program, Opaque):
        return program.callables
    if not machine:
        return (lambda x: program.array_dynamics((), x)), None
    return (lambda a, x: program.array_dynamics(a, x)), (lambda x: program.array_readout(x))


def runner(program: Program, scheme: str, h: float) -> Callable:
    """``run(inputs, steps, rows)``: the trajectory loop of a system with
    ``program``, generated once per ``(program, scheme, h)`` value if the
    program is fused.

    From the start state in the columns ``1:`` of row 0 of ``rows``, a
    C-contiguous float64 block ``(steps + 1, 1 + n)``, it takes ``steps``
    steps, step ``k`` holding the inputs of the ``k``-th entry of ``inputs``
    over it, and writes the state after step ``k`` into the columns ``1:``
    of row ``k``.  Fused, the state lives in local floats and each row is
    packed into the block's bytes; else it is one float64 array,
    size-checked as it is written.  ``direct`` runs
    the program's own dynamics, the next-state map of a discrete system (an
    :class:`Euler` map among them), inline.  ``rk4`` is classic RK4 of a
    continuous system, its four stages the program's dynamics emitted inline
    the same way, at ``x`` and at the stage points ``x_i + (0.5*h)*k_i``
    and ``x_i + h*k3_i`` (in array code, size-checked), then
    ``x_i + (h/6.0)*(((k1_i + 2.0*k2_i) + 2.0*k3_i) + k4_i)``.
    """
    return (_fused_runner if program.fused else _runner)(program, scheme, h)


def _runner(program: Program, scheme: str, h: float) -> Callable:
    fused, n = program.fused, program.n_states
    em = Emitter(arrays=not fused)
    x = em.bind(n, "x")
    head, em.lines = [f"x = rows[0, 1:]{'.tolist()' * fused}", *em.lines], []
    a = em.bind(program.n_inputs, "a")
    if scheme == "direct":
        new = program.dynamics(em, a, x)
    else:
        ks = [program.dynamics(em, a, x)]
        for c in map(em.constant, (0.5 * h, 0.5 * h, h)):
            point = [em.statement(f"{v} + {c} * {d}") for v, d in zip(x, ks[-1])]
            # In array code each stage point is size-checked, as array functions check x.
            ks.append(program.dynamics(em, a, em.bind(n, point[0]) if em.arrays else point))
        sixth = em.constant(h / 6.0)
        new = [
            f"{v} + {sixth} * ((({p} + 2.0 * {q}) + 2.0 * {r}) + {s})"
            for v, p, q, r, s in zip(x, *ks)
        ]
    if not fused:
        loop = "for _k, a in zip(range(1, steps + 1), inputs):"
        body = [*em.lines, f"x = _vec({new[0]}, {n}, 'state vector')", "rows[_k, 1:] = x"]
    else:
        # Row ``k``'s states start 8 bytes into its ``8 * (1 + n)``.
        stride, first = 8 * (1 + n), 8 * (2 + n)
        loop = f"for _at, a in zip(range({first}, {first} + {stride} * steps, {stride}), inputs):"
        head.append("_bytes = memoryview(rows).cast('B')")
        em.constants["_pack"] = struct.Struct(f"{n}d").pack_into
        body = em.folded([f"{em.pack(x)} = {em.pack(new)}", f"_pack(_bytes, _at, {', '.join(x)})"])
    body = [*head, loop, *("    " + line for line in body)]
    return define("inputs, steps, rows", body, em.constants)


_fused_runner = functools.lru_cache(maxsize=64)(_runner)
