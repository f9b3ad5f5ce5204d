"""Integer columns as decimal text and back, one numpy pass each way.

``format_rows(parts, columns, sep)`` is the text of
``sep.join(parts[0] + str(c0[i]) + parts[1] + ... + parts[m] for i in range(n))``
for non-negative integer columns ``c0 .. c(m-1)`` of one length ``n``.  It
is built as one ``uint8`` matrix with a row per line: the literal bytes are
broadcast into their cells, each column's digits are written right-aligned
in that column's widest number of cells, and a boolean mask keeps each
line's literal cells and the cells its numbers use.  Digits come from floor
division by the scalar 10, one digit position at a time, which numpy does
without a hardware divide.

``parse_lists(data)`` reads the other way: every plain integer list of a
JSON text (``[`` digits, commas and whitespace ``]``, outside any string),
all of them in one ``np.fromstring`` pass, with the text left once they are
cut out.  It returns lists only when they provably equal what ``json.loads``
returns, and otherwise ``None``, so that the caller reads the text with
``json`` instead.
"""

from __future__ import annotations

import warnings
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import DynwireError

__all__ = ["format_rows", "parse_lists"]

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


# What a plain list holds besides digits: commas and JSON whitespace.
_SEPARATORS = b",\t\n\r "
# Entries below 10**_MAX_DIGITS are stored exactly; np.fromstring clamps a
# larger number to the np.intp maximum, which is at or above that bound.
_MAX_DIGITS = len(str(np.iinfo(np.intp).max)) - 1


def parse_lists(data: bytes) -> tuple[bytes, list[np.ndarray]] | None:
    """The plain integer lists of the JSON text ``data``, as ``np.intp`` arrays.

    A plain list lies outside any string and holds at least one digit and
    otherwise only commas and JSON whitespace.  Returns ``data`` with the
    k-th plain list replaced by the JSON string ``"\\u0000k"``, and the
    lists in order.  Returns ``None`` when ``data`` has a backslash (so a
    string may hide a quote or the marker), has no plain list, or has one
    that ``json.loads`` would not read as the same integers: a stray
    comma, a leading zero, digits split by whitespace, an entry of more
    than ``_MAX_DIGITS`` digits.  Such a text is left to ``json``.
    """
    if b"\\" in data:
        return None
    view = memoryview(data)
    kept: list = []  # the text outside plain lists, with their markers
    bodies: list = []
    counts: list[int] = []
    digits = done = pos = 0
    # Without escapes, each quote opens or closes a string: text outside
    # strings runs from a closing quote (or the start) to the next quote.
    while True:
        quote = data.find(b'"', pos)
        end = len(data) if quote < 0 else quote
        close = data.find(b"]", pos, end)
        while close >= 0:
            open_ = data.rfind(b"[", pos, close)
            if open_ >= 0:
                body = data[open_ + 1:close]
                numerals = body.translate(None, _SEPARATORS)
                if numerals.isdigit():
                    kept += (view[done:open_], b'"\\u0000%d"' % len(bodies))
                    bodies.append(view[open_ + 1:close])
                    counts.append(body.count(b",") + 1)
                    digits += len(numerals)
                    done = close + 1
            pos = close + 1
            close = data.find(b"]", pos, end)
        if quote < 0:
            break
        pos = data.find(b'"', quote + 1) + 1
        if not pos:  # an unclosed string runs to the end
            break
    if not bodies:
        return None
    kept.append(view[done:])
    total = sum(counts)
    with warnings.catch_warnings():
        # Older numpy warns, rather than raises, on text it cannot read to
        # its end, and returns the entries before it; the count refuses them.
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            values = np.fromstring(b",".join(bodies), np.intp, sep=",")
        except ValueError:
            return None
    if len(values) != total:
        return None
    top = int(values.max())
    if top >= 10**_MAX_DIGITS:
        return None
    # Each entry must use exactly its value's digits: no leading zero, and
    # no digits left unread or split into two entries.  An entry has one
    # digit, and one more for each of 10, 100, ... at or below it.
    more = sum(np.count_nonzero(values >= 10**k) for k in range(1, len(str(top))))
    if total + more != digits:
        return None
    ends = accumulate(counts)
    return b"".join(kept), [values[e - n:e] for n, e in zip(counts, ends)]
