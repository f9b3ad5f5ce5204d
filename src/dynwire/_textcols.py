"""Integer columns as decimal text, one numpy pass per column.

``format_rows(parts, columns, sep)`` is the text of
``sep.join(parts[0] + str(c0[i]) + parts[1] + ... + parts[m] for i in range(n))``
for non-negative integer columns ``c0 .. c(m-1)`` of one length ``n``.  It
is built as one ``uint8`` matrix with a row per line: the literal bytes are
broadcast into their cells, each column's digits are written right-aligned
in that column's widest number of cells, and a boolean mask keeps each
line's literal cells and the cells its numbers use.  Digits come from floor
division by the scalar 10, one digit position at a time, which numpy does
without a hardware divide.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DynwireError

__all__ = ["format_rows"]

_ZERO = ord("0")


def _array(col: Sequence[int] | np.ndarray) -> np.ndarray:
    if isinstance(col, range):
        return np.arange(col.start, col.stop, col.step)
    return np.asarray(col)


def _too_many(n: int, exc: Exception) -> DynwireError:
    return DynwireError(f"cannot write {n} lines of text: {exc}")


def format_rows(parts: Sequence[str], columns: Sequence[Sequence[int]], sep: str) -> str:
    """The lines ``parts[0] + str(c0[i]) + ... + parts[-1]`` joined by ``sep``.

    ``parts`` has one more entry than ``columns`` and, with ``sep``, is
    ASCII; a column is an array or sequence of non-negative integers, or a
    ``range``.  Columns of zero rows give ``""``.  When numpy cannot
    allocate the text, ``DynwireError`` names the row count.
    """
    if len(parts) != len(columns) + 1:
        raise ValueError(f"{len(columns)} columns need {len(columns) + 1} parts, got {len(parts)}")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("columns differ in length")
    if n == 0:
        return ""
    try:
        arrays = [_array(c) for c in columns]
    except (MemoryError, ValueError) as exc:
        raise _too_many(n, exc) from None
    if any(a.dtype.kind not in "iu" or a.min() < 0 for a in arrays):
        raise TypeError("format_rows takes columns of non-negative integers")
    # A line is its literal cells and, for each column, as many cells as
    # that column's largest number has digits.
    widths = [len(str(int(a.max()))) for a in arrays]
    literals = [p.encode("ascii") for p in parts]
    row = bytearray(sep.encode("ascii") + literals[0])
    ends = []
    for width, lit in zip(widths, literals[1:]):
        row += bytes(width)
        ends.append(len(row))
        row += lit
    try:
        text = np.empty((n, len(row)), np.uint8)
        keep = np.ones((n, len(row)), bool)
    except (MemoryError, ValueError) as exc:
        raise _too_many(n, exc) from None
    text[:] = np.frombuffer(row, np.uint8)
    keep[0, :len(sep)] = False
    # Three buffers serve every digit position, and the matrices are freed
    # before the text is copied out: this bounds the memory held at once.
    q, r, digit = (np.empty(n, np.uint64) for _ in range(3))
    for col, width, end in zip(arrays, widths, ends):
        q[:] = col
        for cell in range(end - 1, end - 1 - width, -1):
            if cell < end - 1:
                np.not_equal(q, 0, out=keep[:, cell])
            np.floor_divide(q, 10, out=r)
            np.subtract(q, np.multiply(r, 10, out=digit), out=digit)
            np.add(digit, _ZERO, out=text[:, cell], casting="unsafe")
            q, r = r, q
    del q, r, digit
    kept = text[keep]
    del text, keep
    return str(kept, "ascii")
