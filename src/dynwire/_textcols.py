"""Numbers as decimal ASCII text, and integer lists back, in numpy passes.

``format_rows(parts, columns, sep)`` is the text of
``sep.join(parts[0] + str(c0[i]) + parts[1] + ... + parts[m] for i in range(n))``
for non-negative integer columns ``c0 .. c(m-1)`` of one length ``n``.  It
is one ``uint8`` matrix with a row per character position and a column per
line, read line by line less its zeros (one transpose and ``translate``):
the literal bytes fill their rows, and each column's digits go right-aligned
in as many rows as its largest number has, with 0 left of a number's first
digit.  Digits come from floor division by the scalar 10, one position at
a time, which numpy does without a hardware divide, in ``uint32`` when the
entries fit.

``format_floats(values)`` is the text of the rows of a float64 array with
each value as ``repr`` writes it: the shortest digits that read back as
the value, from a vectorised Ryū kernel, laid out like ``format_rows``'
lines (see "Floats as repr text" below).  Both return ASCII ``bytes``.

``parse_lists(data)`` reads the other way: every plain integer list of a
JSON text (``[`` digits, commas and whitespace ``]``, outside any string),
all of them in one ``np.fromstring`` pass, with the text left once they are
cut out.  Each candidate list is classified by numpy counts over its bytes:
it is plain when it has a digit and its digits, commas and JSON blanks add
up to its length, and its commas count its entries.  It returns lists only
when they provably equal what ``json.loads`` returns, and otherwise
``None``, so that the caller reads the text with ``json`` instead.
"""

from __future__ import annotations

import functools
import math
import warnings
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .errors import DynwireError

__all__ = ["format_floats", "format_rows", "parse_lists"]

_ZERO = ord("0")


def _array(col: Sequence[int] | np.ndarray) -> np.ndarray:
    if isinstance(col, range):
        return np.arange(col.start, col.stop, col.step)
    return np.asarray(col)


def _too_many(n: int, exc: Exception) -> DynwireError:
    return DynwireError(f"cannot write {n} lines of text: {exc}")


def format_rows(parts: Sequence[str], columns: Sequence[Sequence[int]], sep: str) -> bytes:
    """The lines ``parts[0] + str(c0[i]) + ... + parts[-1]`` joined by ``sep``.

    ``parts`` has one more entry than ``columns`` and, with ``sep``, is
    ASCII without NUL; a column is an array or sequence of non-negative
    integers, or a ``range``.  Columns of zero rows give ``b""``.  When
    numpy cannot allocate the text, ``DynwireError`` names the row count.
    """
    if len(parts) != len(columns) + 1:
        raise ValueError(f"{len(columns)} columns need {len(columns) + 1} parts, got {len(parts)}")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("columns differ in length")
    if n == 0:
        return b""
    try:
        arrays = [_array(c) for c in columns]
    except (MemoryError, ValueError) as exc:
        raise _too_many(n, exc) from None
    if any(a.dtype.kind not in "iu" or a.min() < 0 for a in arrays):
        raise TypeError("format_rows takes columns of non-negative integers")
    # A line is its literal cells and, for each column, as many cells as
    # that column's largest number has digits.
    widths = [len(str(int(a.max()))) for a in arrays]
    layout = bytearray(sep.encode("ascii") + parts[0].encode("ascii"))
    ends = []
    for width, part in zip(widths, parts[1:]):
        layout += bytes(width)
        ends.append(len(layout))
        layout += part.encode("ascii")
    try:
        text = np.empty((len(layout), n), np.uint8)
    except (MemoryError, ValueError) as exc:
        raise _too_many(n, exc) from None
    text[:] = np.frombuffer(layout, np.uint8)[:, None]
    text[:len(sep), 0] = 0
    # Three buffers serve every digit position, from the last: a cell left
    # of a number's first digit, where the quotient so far is 0, is cleared.
    q, r, digit = (np.empty(n, np.uint32 if max(widths) < 10 else np.uint64) for _ in range(3))
    for col, width, end in zip(arrays, widths, ends):
        q[:] = col
        for cell in range(end - 1, end - 1 - width, -1):
            np.floor_divide(q, 10, out=r)
            np.subtract(q, np.multiply(r, 10, out=digit), out=digit)
            np.add(digit, _ZERO, out=text[cell], casting="unsafe")
            if cell < end - 1:
                text[cell] *= q != 0
            q, r = r, q
    del q, r, digit
    return text.T.tobytes().translate(None, b"\0")


# Byte values: what a plain list holds besides digits is commas and the
# four JSON blanks.
_ZERO_BYTE, _TEN_BYTE = np.uint8(_ZERO), np.uint8(10)
_COMMA = np.uint8(ord(","))
_BLANKS = [np.uint8(ord(c)) for c in " \n\t\r"]
# Entries below 10**_MAX_DIGITS are stored exactly; np.fromstring clamps a
# larger number to the np.intp maximum, which is at or above that bound.
_MAX_DIGITS = len(str(np.iinfo(np.intp).max)) - 1


def _plain(body: np.ndarray) -> tuple[int, int] | None:
    """The digit and comma counts of the bytes ``body`` of a list, if it
    holds at least one digit and otherwise only commas and JSON blanks.

    The four kinds of byte are disjoint, so the body holds nothing else
    exactly when their counts sum to its length; the blanks are counted
    only while bytes are left over.  A digit is a byte ``b`` with
    ``b - 48 < 10`` in ``uint8``, where every byte below ``"0"`` wraps
    around to 208 or more.
    """
    digits = np.count_nonzero(body - _ZERO_BYTE < _TEN_BYTE)
    if not digits:
        return None
    commas = np.count_nonzero(body == _COMMA)
    rest = body.size - digits - commas
    for blank in _BLANKS:
        if not rest:
            break
        rest -= np.count_nonzero(body == blank)
    return None if rest else (digits, commas)


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
            plain = open_ >= 0 and _plain(np.frombuffer(view[open_ + 1:close], np.uint8))
            if plain:
                kept += (view[done:open_], b'"\\u0000%d"' % len(bodies))
                bodies.append(view[open_ + 1:close])
                counts.append(plain[1] + 1)
                digits += plain[0]
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


# ---------------------------------------------------------------------------
# Floats as repr text

# Ryū (Adams, PLDI 2018) writes a double x = m2 * 2**e2 (m2 with its hidden
# bit) as the shortest decimal d * 10**e10 that reads back as x.  Its
# branch for e2 < 0 takes three 64-bit windows of products of 4*m2 (and of
# 4*m2 + 2 and 4*m2 - 1 - mm_shift) with a 125-bit power of five: vr (the
# value), vp and vm (the bounds of the interval that rounds to x), all at
# one decimal scale.  It then removes decimal digits while vp and vm still
# differ, and rounds vr at that digit.  The kernel here runs that branch on
# arrays, with one product taken in 32-bit limbs and the bounds derived
# from it (see _shortest), for biased exponents 1 .. _TOP_BIASED, i.e.
# 2**-1022 <= |x| < 2**50.  Above 2**50 the bounds may be exact decimals,
# which Ryū treats apart; those values, subnormals, inf and nan are left to
# ``repr``.  Every operand is np.uint64 (or an index array), since numpy 1.x
# turns uint64 mixed with a signed integer into float64.
_TOP_BIASED = 1072
_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S52 = np.uint64(52)
_ONE = np.uint64(1)
_TEN = np.uint64(10)
_HIDDEN = np.uint64(1 << 52)
_POW10 = np.array([10**k for k in range(20)], np.uint64)
# Half of 10**r: the weight at which r removed digits round up.  For r = 0
# nothing was removed and nothing rounds, so the entry exceeds any remainder.
_HALF = np.array([1] + [5 * 10**k for k in range(19)], np.uint64)
# The bit patterns of 2**-1022 and 2**50, which bound the kernel's range.
_LOWEST, _BEYOND = np.array([2.0**-1022, 2.0**50]).view(np.uint64)


# Built on first use, so that a process that writes no CSV does not run the
# numpy loops its construction needs (about 0.5 MB of library pages).
@functools.cache
def _exponent_table() -> tuple[np.ndarray, np.ndarray]:
    """Ryū's constants per biased exponent, one column each, and e10.

    The rows: the four 32-bit limbs, low first, of the 125-bit power of
    five ``mul``; with j its shift, ``j - 96`` and ``128 - j``, which place
    bits j .. j+63 of a product, and the mask of limb 3's bits below j;
    the mask of the bits of m2 that are zero when vr is exact; and for the
    bounds ``(2*mul) >> j`` and ``mul >> j``, then bits 96 .. j-1 of
    ``2**j - (2*mul) % 2**j``, of ``mul % 2**j`` and of ``(2*mul) % 2**j``.
    The columns run from biased exponent 0, whose column is that of 1, to
    ``_TOP_BIASED``; a gather clipped to them gives any exponent outside the
    kernel's range the column of the nearest one inside it, which computes
    harmlessly.
    """
    e2 = np.maximum(np.arange(_TOP_BIASED + 1), 1) - 1077
    q = ((-e2 * 732923) >> 20) - 1  # floor(log10(5**-e2)) - 1
    i = -e2 - q
    j = q - ((i * 1217359) >> 19) - 1 + 125  # q - (bit length of 5**i) + 125
    limbs, p = [], 1
    for _ in range(i.max() + 1):
        n = p.bit_length()
        mul = p >> (n - 125) if n > 125 else p << (125 - n)
        limbs.append([(mul >> (32 * k)) & 0xFFFFFFFF for k in range(4)])
        p *= 5
    table = np.empty((13, len(e2)), np.uint64)
    table[:4] = np.array(limbs, np.uint64).T[:, i]
    top, low, high, below = table[3], table[4], table[5], table[6]
    low[:] = j - 96
    np.subtract(_S32, low, out=high)
    np.subtract(_ONE << low, _ONE, out=below)
    # vr is exact when 4*m2 is a multiple of 2**q.
    np.subtract(_ONE << np.minimum(q - 2, 63).astype(np.uint64), _ONE, out=table[7])
    np.right_shift(top, low - _ONE, out=table[8])
    np.right_shift(top, low, out=table[9])
    twice = ((top << _ONE) | (table[2] >> np.uint64(31))) & below
    inexact = ((table[2] << _ONE) & _M32) | table[1] | table[0] != 0
    np.subtract(below + _ONE - twice, inexact, out=table[10])
    np.bitwise_and(top, below, out=table[11])
    table[12] = twice
    return table, (q + e2).astype(np.intp)


_POW10_32 = _POW10[:10].astype(np.uint32)
# Values per chunk: large enough that numpy's cost per call is small against
# the work, small enough that the work buffers (the arena, ~200 bytes per
# value of the first chunk: ~0.8 MB here) stay in cache.  At 4096, a small
# trajectory such as 401 rows of 10 values is one chunk: per call, against
# 2048, 401x10 took 1.14 ms for 1.34 and 11x1025 3.20 ms for 3.68, while
# 8192 took 4.23 ms on 11x1025 (medians, Python 3.11, 2-vCPU Xeon VM).
_CHUNK_VALUES = 4096


class _Arena:
    """Work buffers by name, grown as needed and reused, each viewed with
    whatever shape and type its current use needs.  ``format_floats`` makes
    one per call (some 200 bytes per value of its first chunk), which its
    chunks share and which is freed with it."""

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape: tuple[int, ...], dtype: type = np.uint64) -> np.ndarray:
        size = math.prod(shape) * np.dtype(dtype).itemsize
        buffer = self._buffers.get(name)
        if buffer is None or len(buffer) < size:
            buffer = self._buffers[name] = np.empty(size, np.uint8)
        return buffer[:size].view(dtype).reshape(shape)


def _shortest(mag: np.ndarray, arena: _Arena) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ryū's shortest digits ``d`` and exponent ``e10`` with ``x = d * 10**e10``
    for the bit patterns ``mag`` of non-negative doubles, and the mask of
    the values it leaves to ``repr``: those outside the kernel's range and
    those it is unsure of (see below).  Where that mask is set, ``d`` and
    ``e10`` are arbitrary."""
    n = len(mag)
    inside = (mag - _LOWEST) < (_BEYOND - _LOWEST)
    biased = (mag >> _S52).astype(np.intp)
    mant = mag & (_HIDDEN - _ONE)
    m2 = mant | _HIDDEN
    constants, e10 = _exponent_table()
    table = arena("table", (len(constants), n))
    for row, out in zip(constants, table):
        row.take(biased, out=out, mode="clip")
    mul, (low_bits, high_bits, below, exact, add, sub, up_edge, down, down_2) = table[:4], table[4:]
    # The 32-bit columns of P = 4*m2 * mul, before carries: the low limb of
    # 4*m2 times mul[k] splits between columns k and k+1, and the high limb
    # (below 2**23) times mul[k] goes into column k+1 whole; no column sum
    # reaches 2**57.
    low, high = (m2 << np.uint64(2)) & _M32, m2 >> np.uint64(30)
    part, cols = arena("part", (4, n)), arena("cols", (5, n))
    np.multiply(low, mul, out=part)
    np.bitwise_and(part[0], _M32, out=cols[0])
    np.right_shift(part, _S32, out=cols[1:])
    part[1:] &= _M32
    cols[1:4] += part[1:]
    cols[1:] += np.multiply(high, mul, out=part)
    for k in range(4):
        cols[k + 1] += cols[k] >> _S32
    # vr = P >> j, from limb 3 and the 64 bits above it.  With R = P % 2**j,
    # Ryū's vp = (P + 2*mul) >> j is vr + add, plus 1 when R reaches
    # up_edge, and vm = (P - (1 + mm_shift)*mul) >> j is vr - sub, less 1
    # when R is below down.  R is known here only to its bits above 96,
    # which decide both unless they equal those of up_edge or down: such a
    # value is unsure, and left to repr.
    limb_3 = cols[3] & _M32
    vr = (limb_3 >> low_bits) | (cols[4] << high_bits)
    rest = limb_3 & below
    two = (mant != 0) | (biased <= 1)  # mm_shift
    np.copyto(sub, add, where=two)
    np.copyto(down, down_2, where=two)
    unsure = (rest == up_edge) | (rest == down)
    vp = vr + add + (rest > up_edge)
    vm = vr - sub - (rest < down)
    # Ryū removes digits while vp and vm differ above them.  As 10**q is a
    # tenth to a hundredth of 5**-e2, vp - vm lies in [29, 401], so they
    # differ above floor(log10(vp - vm)) digits, 1 or 2.  Above one more
    # only where a multiple M of its power of ten lies in (vm, vp], and then
    # exactly as far as M has trailing zeros, which few have.
    removed = (vp - vm >= np.uint64(100)).astype(np.intp) + 1
    p = _POW10[removed + 1]
    top = vp // p
    more = np.flatnonzero((top != vm // p) & inside)
    removed[more] += 1
    top = top[more]
    tenth = top // _TEN
    zero = tenth * _TEN == top
    more, top = more[zero], tenth[zero]
    if more.size:
        removed[more] += 1
        for k in (16, 8, 4, 2, 1):
            tenth = top // _POW10[k]
            whole = tenth * _POW10[k] == top
            removed[more] += k * whole
            np.copyto(top, tenth, where=whole)
    p = _POW10[removed]
    d = vr // p
    rest = vr - d * p
    half = _HALF[removed]
    # Round half up, but half to even when vr is exact.
    tie_down = ((m2 & exact) == 0) & ((d & _ONE) == 0)
    up = (rest > half) | ((rest == half) & ~tie_down)
    # vm itself lies outside the interval: take the next digits above it.
    d += up | (d == vm // p)
    return d, e10.take(biased, mode="clip") + removed, unsure | ~inside


def _digit_rows(values: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The decimal digits of ``values`` (uint64, each below ``10**k``), most
    significant first, as the rows of ``out``, a ``(k, n)`` uint32 array;
    ``scratch`` is another.  Each row is one division of a 32-bit half by a
    scalar power of ten, which numpy vectorises without a hardware divide."""
    count = len(out)
    if count == 0:  # a chunk of one-digit values in exponent form has no fraction
        return out
    if count > 9:
        high = values // _POW10[9]
        _digit_rows(high, out[:-9], scratch)
        _digit_rows(values - high * _POW10[9], out[-9:], scratch)
        return out
    values = values.astype(np.uint32)
    for row, power in zip(out, _POW10_32[count - 1::-1]):
        np.floor_divide(values, power, out=row)
    out[1:] -= np.multiply(out[:-1], np.uint32(10), out=scratch[:count - 1])
    return out


def _format_chunk(x: np.ndarray, width: int, start: int, arena: _Arena) -> bytes:
    """The text of ``x``, the values from ``start`` on of a row-major array
    of ``width`` columns, each followed by ``,`` or, at a row's end, by a
    line break."""
    n = len(x)
    bits = x.view(np.uint64)
    mag = bits & ~(_ONE << np.uint64(63))
    d, e10, outside = _shortest(mag, arena)
    special = outside & (mag != 0)
    if not special.any():
        special = None
    # Zeros, and the values left to repr, get the digits of 0.0.
    d[outside] = 0
    e10[outside] = 0
    digits = np.searchsorted(_POW10, d, "right")
    np.maximum(digits, 1, out=digits)
    # repr writes the digits with the point after digit `point`, padded
    # with zeros on either side; below 1e-4 it writes d.ddde-XX instead (at
    # 1e16 and above, too, but that is out of range).
    point = digits + e10
    sci = point < -3
    fixed = ~sci
    # The digits after the point, and the integer part, padded with zeros
    # to `point` digits; fixed values write at least one digit after the
    # point, and a 0 before it.
    after = np.where(fixed, np.minimum(np.maximum(digits - point, 0), digits), digits - 1)
    split = _POW10[after]
    whole = d // split
    fraction = (d - whole * split) * _POW10[17 - after]  # left-aligned in 17 digits
    whole *= _POW10[np.maximum(point - digits, 0)]
    whole_width = np.where(fixed & (point > 1), point, 1)
    zeros = np.where(fixed & (point < 0), -point, 0)
    np.maximum(after, fixed, out=after)
    # One row of cells per character position and one column per value,
    # each cell the character or 0 where the value does not use it; the
    # rows are only as many as the chunk's values need.
    iw, zw, fw = int(whole_width.max()), int(zeros.max()), int(after.max())
    powers = bool(sci.any())
    rows = 1 + iw + 1 + zw + fw + 5 * powers + 1
    text = arena("text", (rows, n), np.uint8)
    np.multiply(bits != mag, np.uint8(ord("-")), out=text[0])
    # The kernel's buffers are free again: the digits use them.
    block = arena("table", (max(iw, fw), n), np.uint32)
    scratch = arena("cols", (8, n), np.uint32)
    cells = text[1:1 + iw]
    cells[:] = _digit_rows(whole, block[:iw], scratch)
    cells += np.uint8(_ZERO)
    cells *= np.arange(iw, 0, -1, dtype=np.uint8)[:, None] <= whole_width.astype(np.uint8)
    np.multiply(fixed | (after > 0), np.uint8(ord(".")), out=text[1 + iw])
    at = 2 + iw
    if zw:
        np.multiply(np.arange(zw)[:, None] < zeros, np.uint8(_ZERO), out=text[at:at + zw])
        at += zw
    cells = text[at:at + fw]
    cells[:] = _digit_rows(fraction // _POW10[17 - fw], block[:fw], scratch)
    cells += np.uint8(_ZERO)
    cells *= np.arange(fw, dtype=np.uint8)[:, None] < after.astype(np.uint8)
    at += fw
    if powers:
        # e-XX or e-XXX: few values need it, so only theirs are computed.
        text[at:at + 5] = 0
        small = np.flatnonzero(sci)
        e = 1 - point[small]
        text[at, small] = ord("e")
        text[at + 1, small] = ord("-")
        text[at + 2, small] = (_ZERO + e // 100) * (e >= 100)
        text[at + 3, small] = _ZERO + e // 10 % 10
        text[at + 4, small] = _ZERO + e % 10
        at += 5
    text[at] = ord(",")
    text[at, (width - 1 - start) % width::width] = ord("\n")
    if special is not None:
        text[:at, special] = 0
    # Read value by value, the cells other than 0 are the text.
    out = text.T.tobytes().translate(None, b"\0")
    if special is None:
        return out
    # Each value ends at its separator: put repr's text just before it.
    ends = np.cumsum(np.count_nonzero(text, axis=0)) - 1
    pieces, done = [], 0
    for k in np.flatnonzero(special):
        pieces += [out[done:ends[k]], repr(float(x[k])).encode("ascii")]
        done = ends[k]
    pieces.append(out[done:])
    return b"".join(pieces)


def format_floats(values: np.ndarray) -> Iterator[bytes]:
    """The ASCII text of the rows of the 2-D float64 array ``values``: each
    value as ``repr`` writes it, joined by ``,``, and each row ended by ``"\\n"``.

    It comes in pieces of ``_CHUNK_VALUES`` values (the last one shorter),
    each built in one pass of the Ryū kernel and the layout below; values
    out of the kernel's range are written by ``repr``.
    """
    width = values.shape[1]
    if width == 0:
        yield b"\n" * len(values)
        return
    flat = np.ascontiguousarray(values).ravel()
    arena = _Arena()
    for start in range(0, len(flat), _CHUNK_VALUES):
        yield _format_chunk(flat[start:start + _CHUNK_VALUES], width, start, arena)
