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

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Sequence

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
    """A total function ``[0, dom_size) -> [0, cod_size)``.

    Entries are stored as Python ints; a float or bool entry raises
    ``SizeMismatchError`` rather than being truncated.
    """

    dom_size: int
    cod_size: int
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = int_entries(
            self.map, lambda i, v: SizeMismatchError(f"map entry {i} is {v!r}, not an integer")
        )
        object.__setattr__(self, "map", entries)
        if self.dom_size < 0 or self.cod_size < 0:
            raise SizeMismatchError("set sizes must be nonnegative")
        if len(entries) != self.dom_size:
            raise SizeMismatchError(
                f"map has {len(entries)} entries but dom_size is {self.dom_size}"
            )
        if entries and not (min(entries) >= 0 and max(entries) < self.cod_size):
            i, v = next((i, v) for i, v in enumerate(entries) if not 0 <= v < self.cod_size)
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


def int_entries(values: Iterable[int], fail: Callable[[int, object], Exception]) -> tuple[int, ...]:
    """``values`` as a tuple of Python ints.

    Integer numpy arrays convert in one call and lists of plain ints after
    one type scan.  Floats, bools and anything else without ``__index__``
    are refused rather than truncated: ``fail(i, v)`` is raised for the
    first such entry ``v``, at index ``i``.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu":
        return tuple(values.tolist())
    values = tuple(values)
    if set(map(type, values)) <= {int}:
        return values
    for i, v in enumerate(values):
        if isinstance(v, bool) or not hasattr(v, "__index__"):
            raise fail(i, v)
    return tuple(map(operator.index, values))


def identity(n: int) -> FinFunction:
    """The identity map on the set of size ``n``."""
    return FinFunction(n, n, tuple(range(n)))


def compose(f: FinFunction, g: FinFunction) -> FinFunction:
    """Compose in diagrammatic order: ``compose(f, g)[i] == g(f(i))``."""
    if f.cod_size != g.dom_size:
        raise SizeMismatchError(
            f"cannot compose: first codomain is {f.cod_size}, second domain is {g.dom_size}"
        )
    return FinFunction(f.dom_size, g.cod_size, tuple(map(g.map.__getitem__, f.map)))


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
    member.  Every pair entry must lie in ``[0, size)``.
    """
    ends = np.array(list(pairs), dtype=np.intp)
    if ends.size == 0:
        ends = ends.reshape(0, 2)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise SizeMismatchError(f"pairs must have two entries each, got shape {ends.shape}")
    if ends.size and not (ends.min() >= 0 and ends.max() < size):
        raise SizeMismatchError(f"pair entries must lie in [0, {size})")
    n_classes, classes = _classes(size, ends[:, 0], ends[:, 1])
    return FinFunction(size, n_classes, classes.tolist())


def _classes(size: int, a: np.ndarray, b: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the graph on ``[0, size)`` with edges ``a[k] -- b[k]``.

    Returns the number of components and the component of each element,
    numbered ascending by smallest member.

    Hook and pointer-jump: every element points at a smaller member of its
    class (``label[i] <= i``).  Each round points the root of each edge's
    endpoint at the smaller of the two roots, then jumps pointers until every
    element points at a root.  When every edge joins equal roots, each class
    has one root, its smallest member, so numbering the roots in order
    numbers the classes ascending by smallest member.
    """
    ids = np.arange(size, dtype=np.intp)
    label, la, lb = ids.copy(), a, b
    while np.count_nonzero(la != lb):
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)
        np.minimum.at(label, lb, low)
        jumped = label[label]
        while np.count_nonzero(jumped != label):
            label, jumped = jumped, jumped[jumped]
        la, lb = label[a], label[b]
    number = np.cumsum(label == ids) - 1
    return (int(number[-1]) + 1 if size else 0), number[label]


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
    n, classes = _classes(b + c, f._indices, g._indices + b)
    return PushoutResult(
        apex_size=n,
        inj_left=FinFunction(b, n, classes[:b].tolist()),
        inj_right=FinFunction(c, n, classes[b:].tolist()),
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
    n = c.apex_size
    renum = _first_use(n, c.left.map, c.right.map)
    return Cospan(
        FinFunction(c.left.dom_size, n, list(map(renum.__getitem__, c.left.map))),
        FinFunction(c.right.dom_size, n, list(map(renum.__getitem__, c.right.map))),
    )


def _first_use(n: int, *columns: Sequence[int]) -> dict[int, int]:
    """Renumbering of ``[0, n)`` by first occurrence along ``columns``, in order.

    Elements that occur in no column keep their relative order after all
    that do.
    """
    return dict(zip(dict.fromkeys(chain(*columns, range(n))), range(n)))
