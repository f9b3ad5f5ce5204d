"""Skeletal finite sets, total maps, cospans, pushouts, and vector transport.

The finite set of size ``n`` is the interval ``[0, n)``, so sets compare by
size and maps by their entry tables.  All values are immutable after
construction and every operation is a pure function, which makes the layer
safe to share between threads without synchronization.

Vector transport (``pullback_vec`` / ``pushforward_vec``) realizes the
evaluation of a map span on real vectors: precomposition duplicates and
reorders entries, while the fiberwise sum merges them and fills empty
fibers with exactly ``0.0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import SizeMismatchError

__all__ = [
    "FinFunction",
    "Cospan",
    "PushoutResult",
    "identity",
    "compose",
    "merge_classes",
    "pushout",
    "pullback_vec",
    "pushforward_vec",
    "cospan_compose",
    "canonical_cospan",
]


@dataclass(frozen=True)
class FinFunction:
    """A total function ``[0, dom_size) -> [0, cod_size)``."""

    dom_size: int
    cod_size: int
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "map", tuple(int(v) for v in self.map))
        if self.dom_size < 0 or self.cod_size < 0:
            raise SizeMismatchError("set sizes must be nonnegative")
        if len(self.map) != self.dom_size:
            raise SizeMismatchError(
                f"map has {len(self.map)} entries but dom_size is {self.dom_size}"
            )
        for i, v in enumerate(self.map):
            if not 0 <= v < self.cod_size:
                raise SizeMismatchError(
                    f"map entry {i} is {v}, outside codomain [0, {self.cod_size})"
                )

    @classmethod
    def from_entries(cls, entries: Sequence[int], cod_size: int) -> "FinFunction":
        return cls(len(entries), cod_size, tuple(entries))

    def __call__(self, i: int) -> int:
        return self.map[i]

    def is_bijection(self) -> bool:
        return self.dom_size == self.cod_size and len(set(self.map)) == self.dom_size

    @cached_property
    def _indices(self) -> np.ndarray:
        # Cached index view for vector transport; frozen dataclasses still
        # allow cached_property because it writes to __dict__ directly.
        return np.asarray(self.map, dtype=np.intp)


def identity(n: int) -> FinFunction:
    """The identity map on the set of size ``n``."""
    return FinFunction(n, n, tuple(range(n)))


def compose(f: FinFunction, g: FinFunction) -> FinFunction:
    """Compose in diagrammatic order: ``compose(f, g)[i] == g(f(i))``."""
    if f.cod_size != g.dom_size:
        raise SizeMismatchError(
            f"cannot compose: first codomain is {f.cod_size}, second domain is {g.dom_size}"
        )
    return FinFunction(f.dom_size, g.cod_size, tuple(g.map[v] for v in f.map))


@dataclass(frozen=True)
class Cospan:
    """A pair of maps into a shared apex."""

    left: FinFunction
    right: FinFunction

    def __post_init__(self) -> None:
        if self.left.cod_size != self.right.cod_size:
            raise SizeMismatchError(
                f"cospan legs land in different apexes: {self.left.cod_size} vs {self.right.cod_size}"
            )

    @property
    def apex_size(self) -> int:
        return self.left.cod_size

    @classmethod
    def identity(cls, n: int) -> "Cospan":
        return cls(identity(n), identity(n))


@dataclass(frozen=True)
class PushoutResult:
    """Apex and injections of a pushout, numbered canonically.

    Classes of the quotient are ordered by their smallest representative in
    the concatenation (left-codomain block first, then right-codomain block).
    """

    apex_size: int
    inj_left: FinFunction
    inj_right: FinFunction

    def __post_init__(self) -> None:
        if self.inj_left.cod_size != self.apex_size or self.inj_right.cod_size != self.apex_size:
            raise SizeMismatchError("pushout injections must land in the apex")


def merge_classes(size: int, pairs: Iterable[tuple[int, int]]) -> FinFunction:
    """Quotient ``[0, size)`` by the equivalence generated by ``pairs``.

    Returns the projection onto classes, numbered ascending by smallest
    member.  Union-find with path compression and union by rank.
    """
    parent = list(range(size))
    rank = [0] * size

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        if rank[ra] < rank[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        if rank[ra] == rank[rb]:
            rank[ra] += 1

    number: dict[int, int] = {}
    out = []
    for i in range(size):
        root = find(i)
        if root not in number:
            number[root] = len(number)
        out.append(number[root])
    return FinFunction(size, len(number), tuple(out))


def pushout(f: FinFunction, g: FinFunction) -> PushoutResult:
    """Pushout of the span ``B <-f- A -g-> C``.

    The apex is ``B + C`` quotiented by ``f(a) ~ g(a)``; see
    :class:`PushoutResult` for the numbering convention.
    """
    if f.dom_size != g.dom_size:
        raise SizeMismatchError(
            f"span legs have different domains: {f.dom_size} vs {g.dom_size}"
        )
    b, c = f.cod_size, g.cod_size
    q = merge_classes(b + c, ((f.map[a], b + g.map[a]) for a in range(f.dom_size)))
    return PushoutResult(
        apex_size=q.cod_size,
        inj_left=FinFunction(b, q.cod_size, q.map[:b]),
        inj_right=FinFunction(c, q.cod_size, q.map[b:]),
    )


def pullback_vec(f: FinFunction, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Precompose a vector with ``f``: ``result[i] = x[f(i)]``."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (f.cod_size,):
        raise SizeMismatchError(
            f"vector has length {arr.shape}, expected ({f.cod_size},)"
        )
    return arr[f._indices]


def pushforward_vec(f: FinFunction, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Sum a vector over the fibers of ``f``; empty fibers read exactly 0.0."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (f.dom_size,):
        raise SizeMismatchError(
            f"vector has length {arr.shape}, expected ({f.dom_size},)"
        )
    return fiber_sum(f._indices, arr, f.cod_size)


def fiber_sum(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """``out[j]`` = sum of ``weights[i]`` over ``index[i] == j``, in index order.

    ``np.bincount`` adds in the same order as ``np.add.at`` into zeros, so the
    sums are bitwise the same.  The cast matters when ``index`` is empty:
    then ``bincount`` returns int64 zeros even with float weights.
    """
    return np.bincount(index, weights=weights, minlength=n).astype(np.float64, copy=False)


def cospan_compose(a: Cospan, b: Cospan) -> Cospan:
    """Glue two cospans along their shared foot by a pushout of the middle legs."""
    if a.right.dom_size != b.left.dom_size:
        raise SizeMismatchError(
            f"cospan feet do not match: {a.right.dom_size} vs {b.left.dom_size}"
        )
    po = pushout(a.right, b.left)
    return Cospan(compose(a.left, po.inj_left), compose(b.right, po.inj_right))


def canonical_cospan(c: Cospan) -> Cospan:
    """Renumber the apex by first occurrence along the left then right leg.

    Apex elements not hit by either leg keep their relative order at the end.
    Isomorphic cospans have equal canonical forms.
    """
    order: dict[int, int] = {}
    for v in (*c.left.map, *c.right.map):
        if v not in order:
            order[v] = len(order)
    for v in range(c.apex_size):
        if v not in order:
            order[v] = len(order)
    n = c.apex_size
    return Cospan(
        FinFunction(c.left.dom_size, n, tuple(order[v] for v in c.left.map)),
        FinFunction(c.right.dom_size, n, tuple(order[v] for v in c.right.map)),
    )
