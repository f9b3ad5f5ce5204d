"""Finitely presented schemas and tabular copresheaf instances.

A schema is a finite graph of objects and typed arrows (no path equations);
an instance assigns a cardinality to each object and a total index column to
each arrow.  Columns are read-only 1-D ``np.intp`` arrays, views of one
buffer per instance, and each is checked once: its type when the instance
is built (an integer array proves it by its dtype, a Python sequence by one
scan), its bounds by :func:`validate`, one vectorised comparison for all
columns.  Instances can hold out-of-range entries so they can be loaded
from files and *then* validated; :func:`validate` reports violations
instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import GluingError, NaturalityError, SchemaError
from .finset import FinFunction, int_entries, pushout

__all__ = [
    "SchemaMorphism",
    "Schema",
    "CSetInstance",
    "SchemaFunctor",
    "Violation",
    "validate",
    "coproduct",
    "migrate",
    "identity_functor",
    "compose_functors",
    "InstancePushout",
    "instance_pushout",
    "UWD_SCHEMA",
    "DWD_SCHEMA",
    "CPG_SCHEMA",
    "DWD_FROM_CPG",
]


@dataclass(frozen=True)
class SchemaMorphism:
    name: str
    dom: str
    cod: str


@dataclass(frozen=True)
class Schema:
    """A finitely presented category: named objects and arrows, no equations."""

    name: str
    objects: tuple[str, ...]
    morphisms: tuple[SchemaMorphism, ...]

    def __post_init__(self) -> None:
        if len(set(self.objects)) != len(self.objects):
            raise SchemaError(f"schema {self.name}: duplicate object names")
        names = [m.name for m in self.morphisms]
        if len(set(names)) != len(names):
            raise SchemaError(f"schema {self.name}: duplicate morphism names")
        for m in self.morphisms:
            if m.dom not in self.objects or m.cod not in self.objects:
                raise SchemaError(
                    f"schema {self.name}: morphism {m.name} references undeclared objects"
                )

    @cached_property
    def morphism_by_name(self) -> dict[str, SchemaMorphism]:
        return {m.name: m for m in self.morphisms}

    def morphism(self, name: str) -> SchemaMorphism:
        try:
            return self.morphism_by_name[name]
        except KeyError:
            raise SchemaError(f"schema {self.name} has no morphism {name!r}") from None


def _mor(name: str, dom: str, cod: str) -> SchemaMorphism:
    return SchemaMorphism(name, dom, cod)


UWD_SCHEMA = Schema(
    "UWD",
    objects=("B", "P", "J", "Q"),
    morphisms=(
        _mor("box", "P", "B"),
        _mor("junc_in", "P", "J"),
        _mor("junc_out", "Q", "J"),
    ),
)

DWD_SCHEMA = Schema(
    "DWD",
    objects=("B", "P_in", "P_out", "W", "W_in", "W_out", "Q_in", "Q_out"),
    morphisms=(
        _mor("box_in", "P_in", "B"),
        _mor("box_out", "P_out", "B"),
        _mor("src", "W", "P_out"),
        _mor("tgt", "W", "P_in"),
        _mor("src_in", "W_in", "Q_in"),
        _mor("tgt_in", "W_in", "P_in"),
        _mor("src_out", "W_out", "P_out"),
        _mor("tgt_out", "W_out", "Q_out"),
    ),
)

CPG_SCHEMA = Schema(
    "CPG",
    objects=("B", "P", "W", "Q"),
    morphisms=(
        _mor("src", "W", "P"),
        _mor("tgt", "W", "P"),
        _mor("box", "P", "B"),
        _mor("expose", "Q", "P"),
    ),
)

SCHEMAS_BY_NAME = {s.name: s for s in (UWD_SCHEMA, DWD_SCHEMA, CPG_SCHEMA)}


# Entries are stored as np.intp; a Python int outside [-_INDEX_LIMIT,
# _INDEX_LIMIT) cannot be, and no valid index reaches _INDEX_LIMIT.
_INTP = np.dtype(np.intp)
_INDEX_LIMIT = 2 ** (8 * _INTP.itemsize - 1)
_ZERO = np.zeros(1, _INTP)
_EMPTY = np.zeros(0, _INTP)  # every empty column, read only
_EMPTY.setflags(write=False)


class _EntryError(SchemaError):
    """A column entry that is not an integer, located by column and row."""

    def __init__(self, column: str, row: int, value: object):
        super().__init__(f"column {column!r} row {row} is {value!r}, not an integer")
        self.column, self.row, self.value = column, row, value


@dataclass(frozen=True, eq=False)
class CSetInstance:
    """A tabular instance of a schema.

    ``card`` gives the size of each object's part; ``parts`` gives each
    morphism's index column as a read-only 1-D ``np.intp`` array.  The
    columns are views of one buffer that construction fills, in schema
    order, from integer arrays or Python sequences of integers.  Cards and
    entries must be integers: a float or bool raises ``SchemaError`` naming
    the object or the column and row, rather than being truncated, and so
    does an entry too large for an index.  Only types are checked here, so
    an invalid file can be represented and reported on; use
    :func:`validate` for the bounds.  Instances compare by schema, cards and
    column values.
    """

    schema: Schema
    card: Mapping[str, int]
    parts: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        objects = self.schema.objects
        cards = [self.card[ob] for ob in objects]
        if not set(map(type, cards)) <= {int}:
            cards = int_entries(
                cards,
                lambda i, v: SchemaError(f"card of {objects[i]!r} must be an integer, got {v!r}"),
            )
        card = dict(zip(objects, cards))
        if len(self.card) > len(card):
            raise SchemaError("instance has cards for undeclared objects")
        names = self.schema.morphism_by_name
        columns = [self.parts.get(name, ()) for name in names]
        arrays = [type(c) is np.ndarray and c.dtype == _INTP and c.ndim == 1 for c in columns]
        if not all(arrays):
            columns = _int_lists(names, columns, arrays)
        if not self.parts.keys() <= names.keys():
            raise SchemaError("instance has columns for undeclared morphisms")
        ends = list(accumulate(map(len, columns)))
        try:
            entries = _buffer(columns, arrays, ends[-1])
        except OverflowError:
            raise _overflow(self.schema, card, columns) from None
        entries.setflags(write=False)
        parts = {
            name: entries[end - len(c):end] if len(c) else _EMPTY
            for name, c, end in zip(names, columns, ends)
        }
        object.__setattr__(self, "card", card)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_entries", entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSetInstance):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.card == other.card
            and list(map(len, self.parts.values())) == list(map(len, other.parts.values()))
            and np.array_equal(self._entries, other._entries)
        )

    def part_fn(self, name: str) -> FinFunction:
        """The column of a morphism as a total map; raises if out of range."""
        m = self.schema.morphism(name)
        return FinFunction(self.card[m.dom], self.card[m.cod], self.parts[name])


def _int_lists(names: Iterable[str], columns: list, arrays: list[bool]) -> list:
    """``columns`` with every one but the ``np.intp`` arrays (``arrays``) as
    a list of Python ints, checked by one type scan of them all.  Only when
    it finds an entry that is not a Python int are they walked column by
    column, so that a float or bool is refused where it sits and other
    integer types (numpy ints) become Python ints."""
    columns = [
        c if ok or isinstance(c, (list, tuple))
        else c.tolist() if isinstance(c, np.ndarray)
        else list(c)
        for c, ok in zip(columns, arrays)
    ]
    if set(map(type, chain(*[c for c, ok in zip(columns, arrays) if not ok]))) <= {int}:
        return columns
    return [
        c if ok else int_entries(c, lambda i, v, name=name: _EntryError(name, i, v))
        for name, c, ok in zip(names, columns, arrays)
    ]


def _buffer(columns: list, arrays: list[bool], size: int) -> np.ndarray:
    """The columns end to end in one new ``np.intp`` array of ``size``
    entries and a trailing 0 (see :func:`validate`): Python ints through one
    iterator, ``np.intp`` arrays copied whole."""
    if not any(arrays):
        return np.fromiter(chain(*columns, (0,)), _INTP, size + 1)
    columns = [
        c if ok else np.fromiter(c, _INTP, len(c)) for c, ok in zip(columns, arrays) if len(c)
    ]
    return np.concatenate(columns + [_ZERO])


def _overflow(schema: Schema, card: Mapping[str, int], columns: list) -> SchemaError:
    """The error for the first entry too large for an index, worded as the
    violation :func:`validate` reports for an entry out of range."""
    m, row, v = next(
        (m, row, v)
        for m, col in zip(schema.morphisms, columns)
        if not isinstance(col, np.ndarray)
        for row, v in enumerate(col)
        if not -_INDEX_LIMIT <= v < _INDEX_LIMIT
    )
    return SchemaError(str(_outside(m, row, v, card)))


@dataclass(frozen=True)
class Violation:
    """One totality failure in an instance, located by morphism and row."""

    morphism: str
    row: int | None
    message: str

    def __str__(self) -> str:
        where = f"{self.morphism}" if self.row is None else f"{self.morphism}[{self.row}]"
        return f"{where}: {self.message}"


def _outside(m: SchemaMorphism, row: int, v: int, card: Mapping[str, int]) -> Violation:
    return Violation(m.name, row, f"entry {v} outside [0, {card[m.cod]})")


def validate(x: CSetInstance) -> list[Violation]:
    """Check totality of every column; returns violations instead of raising.

    A cardinality must be at least 0 and below ``_INDEX_LIMIT``: no part
    larger than that can be indexed, stored or written out.

    One ``maximum.reduceat`` over all entries, read as unsigned integers,
    gives each column's largest entry; a negative entry reads as at least
    ``_INDEX_LIMIT``, above every valid index.  The buffer's trailing 0 makes
    every column's start an index into it, and adds 0 to the last column's
    maximum.  Only a column whose largest entry reaches its bound is
    searched for the rows to report.
    """
    card = x.card
    out = []
    for ob in x.schema.objects:
        if card[ob] < 0:
            out.append(Violation(ob, None, f"negative cardinality {card[ob]}"))
        elif card[ob] >= _INDEX_LIMIT:
            message = f"cardinality {card[ob]} is not below the index limit {_INDEX_LIMIT}"
            out.append(Violation(ob, None, message))
    sizes = list(map(len, x.parts.values()))
    starts = [0, *accumulate(sizes)][:-1]
    tops = np.maximum.reduceat(x._entries.view(np.uintp), starts).tolist()
    for m, n, top in zip(x.schema.morphisms, sizes, tops):
        if n != card[m.dom]:
            message = f"column has {n} rows, card({m.dom}) is {card[m.dom]}"
            out.append(Violation(m.name, None, message))
        elif n and (top >= card[m.cod] or top >= _INDEX_LIMIT):
            col = x.parts[m.name]
            rows = np.flatnonzero(col.view(np.uintp) >= min(max(card[m.cod], 0), _INDEX_LIMIT))
            out.extend(_outside(m, row, int(col[row]), card) for row in rows.tolist())
    return out


def coproduct(instances: Sequence[CSetInstance]) -> CSetInstance:
    """The sum of instances of one schema: their disjoint union.  Cards
    add, and each column holds the summands' rows in turn, each shifted by
    the codomain's cards in the summands before it.  The sum of valid
    instances is valid."""
    if not instances:
        raise SchemaError("the coproduct of no instances has no schema")
    card, parts, _ = _coproduct(instances[0].schema, instances)
    return CSetInstance(instances[0].schema, card, parts)


def _coproduct(schema: Schema, instances: Sequence[CSetInstance]) -> tuple[dict, dict, np.ndarray]:
    """The coproduct's cards and columns, and where its injections start: row
    ``j``, per object, holds the cards of the summands before ``j``; the last, the sum's."""
    if any(x.schema is not schema and x.schema != schema for x in instances):
        raise SchemaError("coproduct requires a common schema")
    objects = schema.objects
    starts = np.zeros((len(instances) + 1, len(objects)), _INTP)
    after = starts[1:]
    try:
        cards = np.fromiter(chain.from_iterable(x.card.values() for x in instances), _INTP, after.size)
        np.cumsum(cards.reshape(after.shape), axis=0, out=after)
    except OverflowError:  # a card too large for an index, refused below
        after[:] = -1
    # A start falls at a negative card, and at a sum past the index limit, which wraps.
    if (after < starts[:-1]).any():
        raise SchemaError(f"a coproduct's cards and their sums must lie in [0, {_INDEX_LIMIT})")
    parts = {}
    for m in schema.morphisms:
        columns = [x.parts[m.name] for x in instances]
        shifts = np.repeat(starts[:-1, objects.index(m.cod)], list(map(len, columns)))
        parts[m.name] = np.concatenate(columns) + shifts if columns else _EMPTY
    return dict(zip(objects, starts[-1].tolist())), parts, starts


@dataclass(frozen=True)
class SchemaFunctor:
    """A functor between schemas, given on objects and morphisms.

    ``morphism_map[f] is None`` designates the identity on the image object,
    which requires ``object_map[dom(f)] == object_map[cod(f)]``.
    """

    source: Schema
    target: Schema
    object_map: Mapping[str, str]
    morphism_map: Mapping[str, str | None]

    def __post_init__(self) -> None:
        object.__setattr__(self, "object_map", dict(self.object_map))
        object.__setattr__(self, "morphism_map", dict(self.morphism_map))
        for ob in self.source.objects:
            img = self.object_map.get(ob)
            if img not in self.target.objects:
                raise SchemaError(f"functor does not map object {ob!r} into the target schema")
        for m in self.source.morphisms:
            if m.name not in self.morphism_map:
                raise SchemaError(f"functor does not map morphism {m.name!r}")
            img = self.morphism_map[m.name]
            a, b = self.object_map[m.dom], self.object_map[m.cod]
            if img is None:
                if a != b:
                    raise SchemaError(
                        f"morphism {m.name!r} maps to an identity but {a!r} != {b!r}"
                    )
            else:
                tm = self.target.morphism(img)
                if tm.dom != a or tm.cod != b:
                    raise SchemaError(
                        f"morphism {m.name!r} maps to {img!r}: {tm.dom}->{tm.cod}, expected {a}->{b}"
                    )


def identity_functor(schema: Schema) -> SchemaFunctor:
    return SchemaFunctor(
        schema,
        schema,
        {ob: ob for ob in schema.objects},
        {m.name: m.name for m in schema.morphisms},
    )


def compose_functors(f: SchemaFunctor, g: SchemaFunctor) -> SchemaFunctor:
    """Composite functor applying ``f`` then ``g``."""
    if f.target != g.source:
        raise SchemaError("functors are not composable")
    obj = {ob: g.object_map[f.object_map[ob]] for ob in f.source.objects}
    mors: dict[str, str | None] = {}
    for m in f.source.morphisms:
        mid = f.morphism_map[m.name]
        mors[m.name] = None if mid is None else g.morphism_map[mid]
    return SchemaFunctor(f.source, g.target, obj, mors)


def migrate(functor: SchemaFunctor, x: CSetInstance) -> CSetInstance:
    """Pullback data migration: reindex an instance along a schema functor.

    ``x`` lives over the functor's target; the result lives over its source
    with ``card[A] = x.card[F(A)]`` and columns copied (or identity columns
    where the functor designates identities).
    """
    if x.schema != functor.target:
        raise SchemaError(
            f"instance is over schema {x.schema.name!r}, functor expects {functor.target.name!r}"
        )
    card = {ob: x.card[functor.object_map[ob]] for ob in functor.source.objects}
    parts: dict[str, np.ndarray] = {}
    for m in functor.source.morphisms:
        img = functor.morphism_map[m.name]
        if img is None:
            parts[m.name] = np.arange(card[m.dom], dtype=np.intp)
        else:
            parts[m.name] = x.parts[img]
    return CSetInstance(functor.source, card, parts)


# The built-in interpretation of circular port graphs as directed wiring
# diagrams: every port is duplicated into an in-copy and an out-copy, and the
# exposed ports become matched boundary wires on both sides.
DWD_FROM_CPG = SchemaFunctor(
    source=DWD_SCHEMA,
    target=CPG_SCHEMA,
    object_map={
        "B": "B",
        "P_in": "P",
        "P_out": "P",
        "W": "W",
        "W_in": "Q",
        "W_out": "Q",
        "Q_in": "Q",
        "Q_out": "Q",
    },
    morphism_map={
        "box_in": "box",
        "box_out": "box",
        "src": "src",
        "tgt": "tgt",
        "src_in": None,
        "tgt_in": "expose",
        "src_out": "expose",
        "tgt_out": None,
    },
)


@dataclass(frozen=True)
class InstancePushout:
    instance: CSetInstance
    inj_left: dict[str, FinFunction]
    inj_right: dict[str, FinFunction]


def _check_leg(
    apex: CSetInstance, target: CSetInstance, leg: Mapping[str, FinFunction], side: str
) -> None:
    for ob in apex.schema.objects:
        f = leg[ob]
        if f.dom_size != apex.card[ob] or f.cod_size != target.card[ob]:
            raise SchemaError(f"{side} leg component at {ob!r} has the wrong sizes")
        if len(set(f.map)) != f.dom_size:
            raise SchemaError(f"{side} leg component at {ob!r} is not injective")
    for m in apex.schema.morphisms:
        af = apex.part_fn(m.name)
        tf = target.part_fn(m.name)
        for row in range(af.dom_size):
            if leg[m.cod].map[af.map[row]] != tf.map[leg[m.dom].map[row]]:
                raise NaturalityError(
                    f"{side} leg does not commute with {m.name!r} at row {row}"
                )


def instance_pushout(
    apex: CSetInstance,
    x: CSetInstance,
    y: CSetInstance,
    leg_x: Mapping[str, FinFunction],
    leg_y: Mapping[str, FinFunction],
) -> InstancePushout:
    """Glue two instances along a shared sub-instance, componentwise.

    Both legs must be natural and componentwise injective.  The result is
    computed object-by-object with :func:`dynwire.finset.pushout`: each
    object's quotient of the coproduct ``x + y``.  The induced columns are
    the coproduct's, sent through the quotients, and are verified to be well
    defined.
    """
    if not (apex.schema == x.schema == y.schema):
        raise SchemaError("instance pushout requires a common schema")
    _check_leg(apex, x, leg_x, "left")
    _check_leg(apex, y, leg_y, "right")

    inj_x: dict[str, FinFunction] = {}
    inj_y: dict[str, FinFunction] = {}
    card: dict[str, int] = {}
    quotient: dict[str, np.ndarray] = {}  # each object's class of each row of x + y
    for ob in apex.schema.objects:
        po = pushout(leg_x[ob], leg_y[ob])
        inj_x[ob], inj_y[ob], card[ob] = po.inj_left, po.inj_right, po.apex_size
        quotient[ob] = np.concatenate((po.inj_left._indices, po.inj_right._indices))
    sums = _coproduct(apex.schema, [x, y])[1]
    parts: dict[str, np.ndarray] = {}
    for m in apex.schema.morphisms:
        # The legs are jointly onto, so every row of the column is written;
        # written in reverse, a row keeps the first value sent to it.
        rows, values = quotient[m.dom], quotient[m.cod][sums[m.name]]
        parts[m.name] = col = np.empty(card[m.dom], _INTP)
        col[rows[::-1]] = values[::-1]
        bad = np.flatnonzero(col[rows] != values)
        if bad.size:
            raise GluingError(f"induced column {m.name!r} is ill-defined at row {rows[bad[0]]}")
    return InstancePushout(CSetInstance(apex.schema, card, parts), inj_x, inj_y)
