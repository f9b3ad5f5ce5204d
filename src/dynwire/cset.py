"""Finitely presented schemas and tabular copresheaf instances.

A schema is a finite graph of objects and typed arrows (no path equations);
an instance assigns a cardinality to each object and a total index column to
each arrow.  Instances can hold invalid data so they can be loaded from
files and *then* validated; :func:`validate` reports violations instead of
raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .errors import GluingError, NaturalityError, SchemaError
from .finset import FinFunction, pushout

__all__ = [
    "SchemaMorphism",
    "Schema",
    "CSetInstance",
    "SchemaFunctor",
    "Violation",
    "validate",
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


@dataclass(frozen=True)
class CSetInstance:
    """A tabular instance of a schema.

    ``card`` gives the size of each object's part; ``parts`` gives each
    morphism's index column.  The columns are stored raw so an invalid file
    can be represented and reported on; use :func:`validate`.
    """

    schema: Schema
    card: Mapping[str, int]
    parts: Mapping[str, tuple[int, ...]]

    def __post_init__(self) -> None:
        card = {ob: int(self.card[ob]) for ob in self.schema.objects}
        if set(self.card) - set(self.schema.objects):
            raise SchemaError("instance has cards for undeclared objects")
        parts = {}
        for m in self.schema.morphisms:
            parts[m.name] = tuple(map(int, self.parts.get(m.name, ())))
        if set(self.parts) - set(parts):
            raise SchemaError("instance has columns for undeclared morphisms")
        object.__setattr__(self, "card", card)
        object.__setattr__(self, "parts", parts)

    def part_fn(self, name: str) -> FinFunction:
        """The column of a morphism as a total map; raises if out of range."""
        m = self.schema.morphism(name)
        return FinFunction(self.card[m.dom], self.card[m.cod], self.parts[name])


@dataclass(frozen=True)
class Violation:
    """One totality failure in an instance, located by morphism and row."""

    morphism: str
    row: int | None
    message: str

    def __str__(self) -> str:
        where = f"{self.morphism}" if self.row is None else f"{self.morphism}[{self.row}]"
        return f"{where}: {self.message}"


def validate(x: CSetInstance) -> list[Violation]:
    """Check totality of every column; returns violations instead of raising."""
    out: list[Violation] = []
    for ob in x.schema.objects:
        if x.card[ob] < 0:
            out.append(Violation(ob, None, f"negative cardinality {x.card[ob]}"))
    for m in x.schema.morphisms:
        col = x.parts[m.name]
        if len(col) != x.card[m.dom]:
            out.append(
                Violation(m.name, None, f"column has {len(col)} rows, card({m.dom}) is {x.card[m.dom]}")
            )
            continue
        bound = x.card[m.cod]
        if col and not (min(col) >= 0 and max(col) < bound):
            out.extend(
                Violation(m.name, row, f"entry {v} outside [0, {bound})")
                for row, v in enumerate(col)
                if not 0 <= v < bound
            )
    return out


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
    parts: dict[str, tuple[int, ...]] = {}
    for m in functor.source.morphisms:
        img = functor.morphism_map[m.name]
        if img is None:
            parts[m.name] = tuple(range(card[m.dom]))
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
    computed object-by-object with :func:`dynwire.finset.pushout`; induced
    columns are verified to be well defined.
    """
    if not (apex.schema == x.schema == y.schema):
        raise SchemaError("instance pushout requires a common schema")
    _check_leg(apex, x, leg_x, "left")
    _check_leg(apex, y, leg_y, "right")

    inj_x: dict[str, FinFunction] = {}
    inj_y: dict[str, FinFunction] = {}
    card: dict[str, int] = {}
    for ob in apex.schema.objects:
        po = pushout(leg_x[ob], leg_y[ob])
        inj_x[ob], inj_y[ob] = po.inj_left, po.inj_right
        card[ob] = po.apex_size

    parts: dict[str, tuple[int, ...]] = {}
    for m in apex.schema.morphisms:
        col: list[int | None] = [None] * card[m.dom]
        for inst, inj in ((x, inj_x), (y, inj_y)):
            src = inst.part_fn(m.name)
            for row in range(src.dom_size):
                t = inj[m.dom].map[row]
                v = inj[m.cod].map[src.map[row]]
                if col[t] is None:
                    col[t] = v
                elif col[t] != v:
                    raise GluingError(
                        f"induced column {m.name!r} is ill-defined at row {t}"
                    )
        if any(v is None for v in col):
            raise GluingError(f"induced column {m.name!r} has an unreached row")
        parts[m.name] = tuple(int(v) for v in col)  # type: ignore[arg-type]

    return InstancePushout(CSetInstance(apex.schema, card, parts), inj_x, inj_y)
