"""Whole-column paths against the row-by-row references in ``helpers``."""

from __future__ import annotations

import json
import random
import re
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynwire._textcols
import dynwire.cset
import dynwire.fileio
from dynwire import (
    CPG_SCHEMA,
    CPGraph,
    DWDiagram,
    UWDiagram,
    ArityError,
    DWD_SCHEMA,
    UWD_SCHEMA,
    CSetInstance,
    FinFunction,
    SizeMismatchError,
    canonical,
    cpg_to_dwd,
    grid,
    merge_classes,
    oapply_undirected_with_layout,
    ocompose_dwd,
    pushout,
    spec_to_json,
    to_dot,
    validate,
)
from dynwire._textcols import format_floats, format_rows, parse_lists
from dynwire.cli import main
from dynwire.errors import DynwireError
from dynwire.fileio import (
    _encode,
    _write_json,
    dump_diagram,
    read_csv,
    instance_to_json,
    load_diagram,
    load_instance,
    write_csv,
    write_svg_lineplot,
)
from dynwire.wiring import _SYNTAX, _Fibers, ocompose
from dynwire.modelspec import builtin_model

from helpers import (
    nested_dwd_case,
    random_cpg,
    random_dwd,
    random_sharer,
    random_uwd,
    reference_canonical,
    reference_dot,
    reference_format_rows,
    reference_json_text,
    reference_load_instance,
    reference_map_error,
    reference_merge_classes,
    reference_ocompose_dwd,
    reference_ports_by_box,
    reference_undirected_layout,
    reference_validate,
    shuffled_box_column,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SCHEMAS = (UWD_SCHEMA, DWD_SCHEMA, CPG_SCHEMA)
RANDOM_DIAGRAM = (random_uwd, random_dwd, random_cpg)


INDEX = np.iinfo(np.intp)


@st.composite
def raw_instances(draw) -> CSetInstance:
    """Cards in [-1, 5], or too large for an index, and columns of any
    length, as lists or index arrays, with entries that may fall outside
    the cards, down to the ends of the index range."""
    schema = draw(st.sampled_from(SCHEMAS))
    card = {ob: draw(st.integers(-1, 5) | st.just(10**30)) for ob in schema.objects}
    entries = st.integers(-3, 7) | st.sampled_from((INDEX.min, INDEX.max))
    parts = {}
    for m in schema.morphisms:
        n = max(min(card[m.dom], 5), 0) + draw(st.sampled_from((0, 0, 0, -1, 1)))
        col = draw(st.lists(entries, min_size=max(n, 0), max_size=max(n, 0)))
        parts[m.name] = np.array(col, dtype=np.intp) if draw(st.booleans()) else col
    return CSetInstance(schema, card, parts)


# ---------------------------------------------------------------------------
# Integer columns as text

# Entries at every digit-width boundary, and the top of the index range.
WIDTH_EDGES = sorted({0, 9, 10, 99, 100, INDEX.max} | {10**k + d for k in range(1, 19) for d in (-1, 1)})
entries = st.sampled_from(WIDTH_EDGES) | st.integers(0, INDEX.max) | st.integers(0, 12)
literals = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=4)


@st.composite
def text_columns(draw) -> tuple[list[str], list[np.ndarray], str]:
    n = draw(st.sampled_from((0, 1, 1, 2, 3, 7)))
    k = draw(st.integers(1, 4))
    columns = [np.array(draw(st.lists(entries, min_size=n, max_size=n)), dtype=np.intp)
               for _ in range(k)]
    parts = draw(st.lists(literals, min_size=k + 1, max_size=k + 1))
    sep = draw(st.sampled_from(("\n", ",\n    ", "", ", ")) | literals)
    return parts, columns, sep


@settings(max_examples=300, deadline=None)
@given(case=text_columns())
def test_format_rows_matches_f_string_join(case):
    parts, columns, sep = case
    assert format_rows(parts, columns, sep) == reference_format_rows(parts, columns, sep)


def test_format_rows_takes_ranges_and_unsigned_columns_and_refuses_negatives():
    wide = np.array([0, 7, 2**64 - 1], dtype=np.uint64)
    expected = reference_format_rows(["<", ":", ">"], [range(5, 8), wide.tolist()], ";")
    assert format_rows(["<", ":", ">"], [range(5, 8), wide], ";") == expected
    assert format_rows(["x", ""], [range(0)], "\n") == ""
    with pytest.raises(TypeError, match="non-negative integers"):
        format_rows(["", ""], [np.array([3, -1])], ",")
    with pytest.raises(TypeError, match="non-negative integers"):
        format_rows(["", ""], [np.array([0.5])], ",")


def test_format_rows_names_the_row_count_it_cannot_allocate():
    # numpy refuses an array of 2**60 entries by its size alone.
    with pytest.raises(DynwireError, match=f"cannot write {2**60} lines of text"):
        format_rows(["b", ""], [range(2**60)], "\n")


# ---------------------------------------------------------------------------
# The JSON writer


@st.composite
def diagram_objects(draw) -> dict:
    """Diagram-shaped objects: schema, cards, then int columns (often empty)."""
    schema = draw(st.sampled_from(SCHEMAS))
    out: dict = {"schema": schema.name}
    for ob in schema.objects:
        out[ob] = draw(st.integers(-5, 10**12))
    for m in schema.morphisms:
        out[m.name] = draw(st.lists(st.integers(-(10**12), 10**12), max_size=6))
    return out


names = st.text(max_size=5)
model_objects = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(("machine", "sharer")),
        "flavor": names,
        "states": st.lists(names, max_size=3),
        "params": st.dictionaries(names, st.floats() | st.integers(), max_size=3),
        "dynamics": st.dictionaries(names, names, max_size=3),
    },
    optional={"inputs": st.lists(names, max_size=3), "readout": st.lists(names, max_size=3)},
)


@settings(max_examples=150, deadline=None)
@given(obj=diagram_objects() | model_objects)
def test_writer_is_json_dumps_indent_2(obj, tmp_path_factory):
    path = tmp_path_factory.mktemp("json") / "out.json"
    _write_json(path, obj)
    assert path.read_bytes() == reference_json_text(obj).encode("utf-8")


# Any code point: quotes, backslashes, control characters, non-ASCII,
# astral and lone surrogates.
any_text = st.text(st.characters(exclude_categories=()), max_size=8)


@settings(max_examples=300, deadline=None)
@given(strings=st.lists(any_text, max_size=6), depth=st.integers(0, 3))
def test_string_lists_encode_as_json_dumps_indent_2(strings, depth, tmp_path_factory):
    value: object = strings
    for k in range(depth):
        value = {f"k{k}": value, "n": [k, k + 1]}
    assert _encode(value, "\n") == json.dumps(value, indent=2)
    path = tmp_path_factory.mktemp("json") / "out.json"
    _write_json(path, {"columns": value})
    assert path.read_bytes() == reference_json_text({"columns": value}).encode("utf-8")


def test_write_csv_refuses_a_ragged_row_before_opening_the_file(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["t", "x"], [[0.0, 1.0], [0.1, 2.0]])
    before = path.read_bytes()
    for rows, message in (
        ([[0.0, 1.0, 2.0], [0.1]], "row 0 has 3 values, the header has 2"),
        ([[0.0, 1.0], [0.1]], "row 1 has 1 values, the header has 2"),
    ):
        with pytest.raises(DynwireError, match=message):
            write_csv(path, ["t", "x"], rows)
        assert path.read_bytes() == before
    with pytest.raises(DynwireError, match="row 0"):
        write_csv(tmp_path / "new.csv", ["t", "x"], [[0.0]])
    assert not (tmp_path / "new.csv").exists()
    assert read_csv(path) == (["t", "x"], [[0.0, 1.0], [0.1, 2.0]])


def reference_csv_lines(rows) -> str:
    """The lines ``write_csv`` writes for ``rows``, one ``repr(float(v))`` a value."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def kernel_text(rows) -> str:
    """``format_floats`` of ``rows`` as one string: the vectorised path at any size."""
    values = np.array(rows, np.float64) if rows else np.empty((0, 1))
    return "".join(format_floats(values))


# Values on every branch of repr's layout and of the kernel's range: zeros,
# subnormals, the ends of the normal range and of 2**50, 2**53 and above,
# inf and nan, the switches to and from the exponent form at 1e-4 and 1e16,
# and values whose shortest digits tie or run to 17.
FLOAT_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, float("inf"), float("-inf"), float("nan"),
    2.0**50, np.nextafter(2.0**50, 0), 2.0**53, 2.0**53 + 2, 2.0**60, 1e16, 1e22, 1e-4, 1e-5,
    *(np.nextafter(1e16, d) for d in (0, np.inf)), *(np.nextafter(1e-4, d) for d in (0, np.inf)),
    0.1, 0.3, 1.0, 2.5, 100.0, 123456789012345.6, 0.30000000000000004, 1.2345678901234567e-4,
    9007199254740991.0, 4503599627370497.0,
]
float_values = (
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from(FLOAT_EDGES)
    | st.builds(lambda b: float(np.uint64(b).view(np.float64)), st.integers(0, 2**64 - 1))
)


@st.composite
def float_rows(draw) -> list[list[float]]:
    width = draw(st.integers(1, 7))
    rows = draw(st.integers(0, 6))
    return [draw(st.lists(float_values, min_size=width, max_size=width)) for _ in range(rows)]


@settings(max_examples=400, deadline=None)
@given(rows=float_rows())
def test_format_floats_matches_repr(rows):
    assert kernel_text(rows) == reference_csv_lines(rows)


def test_format_floats_matches_repr_on_signed_blocks():
    # 16 values and more per array, negatives among them, as numpy vectorises
    # sign handling only from some block length on.
    rng = np.random.default_rng(16)
    for n in (15, 16, 17, 31, 64, 257):
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 12, n)
        values[rng.random(n) < 0.2] *= -1
        assert kernel_text(values[:, None].tolist()) == reference_csv_lines(values[:, None].tolist())


def test_format_floats_matches_repr_on_a_million_bit_patterns():
    bits = np.random.default_rng(20261019).integers(0, 2**64, 2**20, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64).reshape(-1, 8)
    assert "".join(format_floats(values)) == reference_csv_lines(values.tolist())


def test_format_floats_matches_repr_on_structured_values():
    powers = 2.0 ** np.arange(-1074, 1024)
    k = np.arange(1, 20001)
    columns = [
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        np.array([float(f"1e{e}") for e in range(-323, 309)]),
        k * 0.01, k * 0.001, k / 3.0, 2.0**53 - k, 2.0**53 + 2 * k, 2.0**50 - k,
        # 17 digits from 1e-4 up to 1e-3 take 20 cells after the point.
        np.random.default_rng(17).uniform(1e-4, 1e-3, 20000),
        # Short mantissas at every exponent, where the shortest digits tie.
        (np.arange(1, 2047, dtype=np.uint64)[:, None] << np.uint64(52)
         | np.random.default_rng(18).integers(0, 2**8, (2046, 8), dtype=np.uint64) << np.uint64(44)).view(np.float64).ravel(),
    ]
    values = np.concatenate(columns)
    values = np.concatenate([values, -values])[:, None]
    assert "".join(format_floats(values)) == reference_csv_lines(values.tolist())


# Values whose bounds the kernel cannot decide from the top bits of their
# products (found by a search over 64M random doubles): it leaves them to repr.
UNSURE = [5.243573649187457, 2.8000123213933278e-05, 18729.46530922053, 152530.43316340545,
          7.341702107958658e-257]


def test_format_floats_writes_values_it_is_unsure_of_by_repr():
    values = np.array(UNSURE + [-v for v in UNSURE] + [0.5, 1.25])
    assert dynwire._textcols._shortest(values.view(np.uint64) & np.uint64(2**63 - 1),
                                       dynwire._textcols._Arena())[2].tolist() == [True] * 10 + [False] * 2
    for width in (1, 3, 4):
        block = np.resize(values, (len(values) * 2 // width, width))
        assert "".join(format_floats(block)) == reference_csv_lines(block.tolist())


def test_format_floats_leaves_unsure_values_to_repr(monkeypatch):
    # The kernel leaves a value to repr where the top bits of a product do
    # not decide its bounds; mark every third value so, and the splice of
    # repr's text must give the same lines.
    shortest = dynwire._textcols._shortest

    def unsure(mag, arena):
        d, e10, outside = shortest(mag, arena)
        outside[::3] = True
        return d, e10, outside

    monkeypatch.setattr(dynwire._textcols, "_shortest", unsure)
    values = np.random.default_rng(3).standard_normal((400, 7)) * 1e3
    values[5, 2], values[9, 0], values[11, 6] = 0.0, float("inf"), 5e-324
    assert "".join(format_floats(values)) == reference_csv_lines(values.tolist())


def test_format_floats_splits_rows_across_chunks():
    chunk = dynwire._textcols._CHUNK_VALUES
    values = np.random.default_rng(5).random((3 * chunk // 7 + 2, 7))
    pieces = list(format_floats(values))
    assert len(pieces) == -(-values.size // chunk)
    assert "".join(pieces) == reference_csv_lines(values.tolist())
    assert list(format_floats(np.empty((3, 0)))) == ["\n\n\n"]


def test_format_floats_in_threads_at_once():
    # Each call has its own work buffers; with a short switch interval,
    # threads that shared them would write each other's digits.
    values = [np.random.default_rng(k).random((300, 11)) * 10.0**k for k in range(6)]
    expected = [reference_csv_lines(v.tolist()) for v in values]
    results: dict[int, list[str]] = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(k):
            results[k] = ["".join(format_floats(values[k])) for _ in range(5)]

        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {k: [expected[k]] * 5 for k in range(6)}


def test_format_floats_of_chunks_without_fraction_cells():
    # One-digit values below 1e-4 are written d e-XX, with no digit after
    # the point: a chunk of only such values has no fraction cells at all.
    chunk = dynwire._textcols._CHUNK_VALUES
    one_digit = np.array([1e-05, 3e-07, -9e-100, 5e-300, 2e-308])
    for values in ([[1e-05]], np.resize(one_digit, (chunk, 1)), np.resize(one_digit, (chunk // 4, 4))):
        values = np.asarray(values)
        assert "".join(format_floats(values)) == reference_csv_lines(values.tolist())


def test_write_csv_of_chunks_without_fraction_cells(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[1e-05]] * 1024
    write_csv(path, ["x"], rows)
    assert path.read_text() == "x\n" + reference_csv_lines(rows)
    # The last chunk of this trajectory holds only 3e-07.
    rows = (np.random.default_rng(7).random((2 * dynwire._textcols._CHUNK_VALUES, 1)) * 100).tolist() + [[3e-07]]
    write_csv(path, ["x"], rows)
    assert path.read_text() == "x\n" + reference_csv_lines(rows)


@pytest.mark.parametrize("size", [3, 2000])
def test_write_csv_converts_values_as_float_does(tmp_path, size):
    objects = [3, True, False, 2**70, 2**53 + 1, -(2**63), np.float32(0.1), np.int64(2**62 + 1),
               np.float64(-0.0), 7.25]
    rows = [[objects[(r + c) % len(objects)] for c in range(4)] for r in range(size)]
    write_csv(tmp_path / "t.csv", ["a", "b", "c", "d"], rows)
    assert (tmp_path / "t.csv").read_text() == "a,b,c,d\n" + reference_csv_lines(rows)


def test_write_csv_then_read_csv_gives_the_same_floats(tmp_path):
    bits = np.random.default_rng(9).integers(0, 2**64, 6000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = values[~np.isnan(values)][:5000].reshape(-1, 5)
    path = tmp_path / "t.csv"
    write_csv(path, list("abcde"), values.tolist())
    header, rows = read_csv(path)
    assert header == list("abcde")
    assert np.array(rows).view(np.uint64).tolist() == values.view(np.uint64).tolist()


@pytest.mark.parametrize("name", ["a,b", "c\nd", "e\rf"])
def test_write_csv_refuses_a_header_cell_that_would_split(tmp_path, name):
    path = tmp_path / "t.csv"
    path.write_text("kept\n", encoding="utf-8")
    with pytest.raises(DynwireError, match=re.escape(f"column 2 ({name!r}) holds")):
        write_csv(path, ["t", name, "x"], [[0.0, 1.0, 2.0]])
    assert path.read_text(encoding="utf-8") == "kept\n"
    with pytest.raises(DynwireError):
        write_csv(tmp_path / "new.csv", ["t", name], [[0.0, 1.0]])
    assert not (tmp_path / "new.csv").exists()


def test_write_csv_converts_every_value_before_opening_the_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("kept\n", encoding="utf-8")
    rows = [[float(k), 1.0] for k in range(3000)]
    for bad, error in (("x", ValueError), (object(), TypeError), (10**400, OverflowError)):
        rows[2999][1] = bad
        with pytest.raises(error):
            write_csv(path, ["t", "x"], rows)
        assert path.read_text(encoding="utf-8") == "kept\n"


def test_writer_on_library_diagrams_and_specs(tmp_path):
    rng = random.Random(3)
    path = tmp_path / "out.json"
    for k in range(60):
        d = RANDOM_DIAGRAM[k % 3](rng)
        dump_diagram(d, path)
        assert path.read_text(encoding="utf-8") == reference_json_text(instance_to_json(d.data))
    for name, params in (("sir_city", {"beta": 0.5, "gamma": 0.25}), ("heat_node", {"alpha": 0.1})):
        spec = spec_to_json(builtin_model(name, params))
        _write_json(path, spec)
        assert path.read_text(encoding="utf-8") == reference_json_text(spec)


def test_every_text_writer_writes_utf8_with_lf_newlines(tmp_path, monkeypatch):
    opened = []

    def spy(path, mode="r", **kwargs):
        opened.append((mode, kwargs.get("encoding"), kwargs.get("newline")))
        return open(path, mode, **kwargs)

    monkeypatch.setattr(dynwire.fileio, "open", spy, raising=False)
    dump_diagram(grid(2, 2), tmp_path / "grid.json")
    _write_json(tmp_path / "spec.json", {"a": [1, 2]})
    write_csv(tmp_path / "t.csv", ["t", "x"], [[0.0, 1.0]])
    write_svg_lineplot(tmp_path / "t.svg", [0.0, 1.0], {"x": [1.0, 2.0]})
    out = tmp_path / "grid.dot"
    assert main(["export-dot", "--diagram", str(tmp_path / "grid.json"), "-o", str(out)]) == 0
    writes = [call for call in opened if "w" in call[0]]
    assert writes == [("w", "utf-8", "\n")] * 5
    assert b"\r" not in out.read_bytes()


def test_load_then_dump_is_byte_identical(tmp_path):
    rng = random.Random(4)
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    for k in range(60):
        text = reference_json_text(instance_to_json(RANDOM_DIAGRAM[k % 3](rng).data))
        path.write_text(text, encoding="utf-8")
        dump_diagram(load_diagram(path), out)
        assert out.read_text(encoding="utf-8") == text


# ---------------------------------------------------------------------------
# The diagram reader: integer lists column-wise, the rest through json

# Texts that replace one entry of a list, one whole column, or one string
# value: integers json reads, tokens it reads as other values or refuses,
# and lists that np.fromstring would read differently from json.
ENTRY_TEXTS = (
    "0", "7", "00", "01", "-1", "-0", "+1", "1.0", "1e3", "true", "null", '"1"', "1 2", "",
    " ", "0x1", str(10**18 - 1), str(10**18), "9" * 19, "9" * 20, str(2**63 - 1), str(2**63),
    str(2**64), "[1, 2]", "[]", "[ ]", "{}",
)
COLUMN_TEXTS = (
    "[]", "[ \n  ]", "[\t]", "[[1, 2], [3]]", "[[]]", "[1,]", "[,1]", "[1,,2]", "[1 2]",
    "[ 1 , 2 ]", "[1,\r\n2]", "[0]", "[,]", "[ , ]", "[1.0]", "[-1]", '"[1]"', "{}",
    '{"a": [1, 2]}', "[", "]",
)
# Strings with brackets, quotes and other characters, written as UTF-8; a
# quote, a backslash or a control character is escaped by json.dumps.
STRING_TEXTS = ("[1]", "]", "[", "[0, 1", '"', "\\", '"[1]"', "\u0000", "\u00001", "é")
MARK = "\u0001mark"  # stands for the edited value until the text is laid out


@st.composite
def diagram_texts(draw) -> bytes:
    """A diagram file, valid or edited: every schema, both layouts."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        make = draw(st.sampled_from(RANDOM_DIAGRAM))
        obj = instance_to_json(make(rng, max_boxes=draw(st.integers(1, 30))).data)
    else:
        obj = draw(diagram_objects())
    columns = [k for k, v in obj.items() if isinstance(v, list)]
    edit = draw(st.sampled_from(
        ("none", "none", "entry", "column", "string", "key", "duplicate", "trailing comma",
         "bom", "truncate", "bad utf-8", "array")
    ))
    replacement = None
    if edit == "entry" and any(obj[k] for k in columns):
        key = draw(st.sampled_from([k for k in columns if obj[k]]))
        row = draw(st.integers(0, len(obj[key]) - 1))
        obj[key] = obj[key][:row] + [MARK] + obj[key][row + 1:]
        replacement = draw(st.sampled_from(ENTRY_TEXTS))
    elif edit == "column":
        obj[draw(st.sampled_from(columns))] = MARK
        replacement = draw(st.sampled_from(COLUMN_TEXTS))
    elif edit == "string":
        obj["schema"] = obj["schema"] + draw(st.sampled_from(STRING_TEXTS))
    elif edit == "key":
        obj[draw(st.sampled_from(STRING_TEXTS))] = draw(st.sampled_from(([1, 2], "[3]", 0)))
    if draw(st.booleans()):
        text = json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
    else:
        text = json.dumps(obj, separators=(",", ":"), ensure_ascii=False)
    if replacement is not None:
        text = text.replace(json.dumps(MARK), replacement)
    end = text.rindex("}")
    if edit == "duplicate":
        key = draw(st.sampled_from(columns))
        text = text[:end] + f', "{key}": [0, 1]' + text[end:]
    elif edit == "trailing comma":
        text = text[:end] + "," + text[end:]
    elif edit == "array":
        text = json.dumps([obj[k] for k in columns])
    data = text.encode("utf-8")
    if edit == "bom":
        data = b"\xef\xbb\xbf" + data
    elif edit == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif edit == "bad utf-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _outcome(load, path):
    try:
        return load(path)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(data=diagram_texts())
def test_reader_matches_json_loads(data, tmp_path_factory):
    # Every text reads to the instance, or fails with the error, that
    # json.loads and instance_from_json give, through the column-wise
    # reader (the size cutoff lowered to 0) and at the shipped cutoff.
    path = tmp_path_factory.getbasetemp() / "reader.json"
    path.write_bytes(data)
    want = _outcome(reference_load_instance, path)
    assert _outcome(load_instance, path) == want
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynwire.fileio, "_COLUMNWISE_BYTES", 0)
        assert _outcome(load_instance, path) == want


BASE = {"schema": "UWD", "B": 2, "P": 3, "J": 2, "Q": 1,
        "box": [0, 1, 1], "junc_in": [0, 1, 1], "junc_out": [1]}


def _corpus(indent: int | None) -> dict[str, str]:
    """Named texts of one layout: each entry, column and string edit on
    ``BASE``, and whole-text edits."""

    def text(replacement: str | None = None, **edits) -> str:
        out = json.dumps(dict(BASE, **edits), indent=indent, ensure_ascii=False)
        return out if replacement is None else out.replace(json.dumps(MARK), replacement)

    valid = text()
    return {
        **{f"entry {t!r}": text(t, box=[0, MARK, 1]) for t in ENTRY_TEXTS},
        **{f"last entry {t!r}": text(t, junc_out=[MARK]) for t in ENTRY_TEXTS},
        **{f"column {t!r}": text(t, junc_in=MARK) for t in COLUMN_TEXTS},
        **{f"schema {t!r}": text(schema="UWD" + t) for t in STRING_TEXTS},
        **{f"key {t!r}": text(**{t: [1, 2]}) for t in STRING_TEXTS},
        "valid": valid,
        "duplicate key": valid[:-1] + ', "box": [1, 0, 0]}',
        "trailing comma": valid[:-1] + ",}",
        "list as a key": valid[:-1] + ", [1]: 0}",
        "top-level array": json.dumps([BASE["box"], BASE["junc_in"]], indent=indent),
        # A string spelling a marker, while the list it names is nested.
        "forged marker": text(box="\x000", junc_in=[[0, 1, 1]]),
        "forged marker, no list": text(box="\x000"),
        **{f"truncated to {k}/8": valid[: len(valid) * k // 8] for k in range(8)},
    }


CORPUS = {f"{name}, {layout}": t
          for layout, indent in (("compact", None), ("indent 2", 2))
          for name, t in _corpus(indent).items()}


@pytest.mark.parametrize("text", CORPUS.values(), ids=CORPUS.keys())
def test_reader_matches_json_loads_on_a_corpus(text, tmp_path, monkeypatch):
    path = tmp_path / "diagram.json"
    monkeypatch.setattr(dynwire.fileio, "_COLUMNWISE_BYTES", 0)
    for data in (text.encode("utf-8"), b"\xef\xbb\xbf" + text.encode("utf-8")):
        path.write_bytes(data)
        assert _outcome(load_instance, path) == _outcome(reference_load_instance, path)


def test_reader_parses_plain_lists_as_index_arrays(tmp_path):
    # Both layouts of a file are read column-wise, with no type scan, and
    # a list json must read (a negative entry) is left to it.
    d = grid(30, 30)
    obj = instance_to_json(d.data)

    def refuse(*args):
        raise AssertionError("a column parsed column-wise was type-scanned")

    path = tmp_path / "grid.json"
    for text in (json.dumps(obj, indent=2) + "\n", json.dumps(obj, separators=(",", ":"))):
        assert len(text) >= dynwire.fileio._COLUMNWISE_BYTES
        data = dynwire.fileio._columnwise(text.encode("ascii"))
        assert data.keys() == obj.keys()
        assert all(type(data[m]) is np.ndarray for m in ("src", "tgt", "box", "expose"))
        path.write_text(text, encoding="utf-8")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynwire.cset, "_int_lists", refuse)
            assert load_instance(path) == d.data
    obj["src"][0] = -1
    data = dynwire.fileio._columnwise(json.dumps(obj).encode("ascii"))
    assert data["src"][:2] == [-1, obj["src"][1]] and type(data["tgt"]) is np.ndarray


def test_reader_refuses_a_partial_fromstring_result(monkeypatch, tmp_path):
    # Older numpy warns on text it cannot read to its end and returns the
    # entries before it: the entry count refuses such a result, and the
    # file is read by json instead, with no DeprecationWarning let out.
    real = np.fromstring

    def partial(text, dtype, sep):
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return real(text, dtype, sep=sep)[:-1]

    monkeypatch.setattr(np, "fromstring", partial)
    # The entry left out is one digit, so the digit count alone would pass.
    n = 2000
    obj = {"schema": "UWD", "B": n, "P": n, "J": 1, "Q": 1,
           "box": list(range(n)), "junc_in": [0] * n, "junc_out": [0]}
    text = (json.dumps(obj, indent=2) + "\n").encode("ascii")
    path = tmp_path / "uwd.json"
    path.write_bytes(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert parse_lists(text) is None
        assert load_instance(path) == reference_load_instance(path)
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]


def test_reader_on_shipped_and_large_diagrams(tmp_path):
    paths = [p for p in sorted(CONFIGS.glob("*/*.json")) if b'"schema"' in p.read_bytes()]
    rng = random.Random(5)
    large = (random_uwd(rng, max_boxes=500, max_junctions=400), cpg_to_dwd(grid(20, 20)), grid(20, 20))
    for k, d in enumerate(large):
        paths.append(tmp_path / f"large{k}.json")
        dump_diagram(d, paths[-1])
    for path in paths:
        assert load_instance(path) == reference_load_instance(path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynwire.fileio, "_COLUMNWISE_BYTES", 0)
            assert load_instance(path) == reference_load_instance(path)


def test_validate_reads_model_specs_with_plain_lists(tmp_path, capsys):
    # A model file above the cutoff with an integer list: validate reports
    # the list as json reads it, not as an array.
    path = tmp_path / "model.json"
    spec = {"kind": "machine", "flavor": "continuous", "states": [1, 2], "dynamics": {}}
    path.write_text(json.dumps(spec) + " " * dynwire.fileio._COLUMNWISE_BYTES, encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "must be a list of strings, got [1, 2]" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Index columns


@pytest.mark.parametrize("make", RANDOM_DIAGRAM, ids=["uwd", "dwd", "cpg"])
def test_library_built_columns_are_not_type_scanned(make, monkeypatch):
    # A diagram built from index arrays proves its entries are integers by
    # their dtype; only Python sequences (files, from_tables) are scanned.
    rng = random.Random(9)
    cases = []
    for _ in range(40):
        d = make(rng)
        cases.append((d, [_SYNTAX[type(d)].identity(i) for i in d.interfaces]))
    grids = [grid(3, 2), random_cpg(rng)]
    nested = nested_dwd_case(rng)

    def refuse(*args):
        raise AssertionError("a library-built column was type-scanned")

    monkeypatch.setattr(dynwire.cset, "_int_lists", refuse)
    for outer, inners in cases:
        for built in (ocompose(outer, inners), canonical(outer)):
            assert all(not col.flags.writeable for col in built.data.parts.values())
    for g in grids:
        cpg_to_dwd(g)
    ocompose_dwd(*nested)


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(0, 4), max_size=12), seed=st.integers(0, 2**32))
def test_ports_by_box_and_port_counts_match_port_by_port(counts, seed):
    # Boxes with no ports, and diagrams with no boxes, included.
    box = shuffled_box_column(random.Random(seed), counts)
    want = tuple(map(tuple, reference_ports_by_box(box, len(counts))))
    ports = _Fibers(np.array(box, dtype=np.intp), len(counts))
    assert tuple(ports.sizes().tolist()) == tuple(counts)
    assert ports.tuples() == want
    d = UWDiagram.from_tables(len(counts), 1, box, [0] * len(box), [])
    assert (d.box_ports, d.port_counts) == (want, tuple(counts))
    d = DWDiagram.from_tables(len(counts), box, box)
    assert d.in_ports == d.out_ports == want


# ---------------------------------------------------------------------------
# Range checks


@settings(max_examples=150, deadline=None)
@given(x=raw_instances())
def test_validate_matches_row_by_row(x):
    assert validate(x) == reference_validate(x)


@settings(max_examples=150, deadline=None)
@given(
    dom=st.integers(-1, 6),
    cod=st.integers(-1, 6),
    entries=st.lists(st.integers(-3, 8) | st.booleans() | st.floats(-3, 8), max_size=7),
)
def test_finfunction_raises_the_first_bad_entry(dom, cod, entries):
    want = reference_map_error(dom, cod, entries)
    if want is None:
        assert FinFunction(dom, cod, entries).map == tuple(entries)
    else:
        with pytest.raises(SizeMismatchError) as info:
            FinFunction(dom, cod, entries)
        assert str(info.value) == want


# ---------------------------------------------------------------------------
# Quotients


@st.composite
def pair_lists(draw) -> tuple[int, list[tuple[int, int]]]:
    size = draw(st.integers(0, 30))
    if size == 0:
        return 0, []
    element = st.integers(0, size - 1)
    pairs = draw(st.lists(st.tuples(element, element) | element.map(lambda i: (i, i)), max_size=40))
    return size, pairs


@settings(max_examples=150, deadline=None)
@given(case=pair_lists())
def test_merge_classes_matches_union_find(case):
    size, pairs = case
    assert merge_classes(size, pairs) == reference_merge_classes(size, pairs)


@pytest.mark.parametrize(
    "size, pairs",
    [
        (0, []),
        (5, []),
        (2000, [(i, i + 1) for i in range(1999)]),
        (2000, [(i + 1, i) for i in reversed(range(1999))]),
        (2001, [(i, 2000 - i) for i in range(1000)] + [(i, i + 1) for i in range(0, 1998, 2)]),
        (1000, [(999, i) for i in range(999)]),
    ],
    ids=["empty", "no-pairs", "chain", "reversed-chain", "zigzag", "star"],
)
def test_merge_classes_long_chains(size, pairs):
    assert merge_classes(size, pairs) == reference_merge_classes(size, pairs)


@pytest.mark.parametrize("pairs", [[(0, 3)], [(-1, 0)], [(0, 1, 2)]])
def test_merge_classes_refuses_bad_pairs(pairs):
    with pytest.raises(SizeMismatchError):
        merge_classes(3, pairs)


@settings(max_examples=150, deadline=None)
@given(case=pair_lists(), seed=st.integers(0, 2**16))
def test_pushout_numbers_classes_like_union_find(case, seed):
    size, _ = case
    rng = random.Random(seed)
    b = rng.randint(0, size)
    c = size - b
    a = rng.randint(0, 8) if b and c else 0
    f = FinFunction(a, b, [rng.randrange(b) for _ in range(a)])
    g = FinFunction(a, c, [rng.randrange(c) for _ in range(a)])
    q = reference_merge_classes(b + c, [(f.map[k], b + g.map[k]) for k in range(a)])
    po = pushout(f, g)
    assert (po.apex_size, po.inj_left.map, po.inj_right.map) == (q.cod_size, q.map[:b], q.map[b:])


# ---------------------------------------------------------------------------
# Canonical forms, DOT export and wire splicing


@pytest.mark.parametrize("make", RANDOM_DIAGRAM, ids=["uwd", "dwd", "cpg"])
def test_canonical_and_dot_match_row_by_row(make):
    rng = random.Random(11)
    for _ in range(150):
        d = make(rng)
        assert canonical(d) == reference_canonical(d)
        assert to_dot(d) == reference_dot(d)


def test_dot_of_empty_and_wide_diagrams_matches_row_by_row():
    rng = random.Random(13)
    diagrams = [
        UWDiagram.from_tables(0, 0, [], [], []),
        UWDiagram.from_tables(0, 3, [], [], [2, 0]),
        DWDiagram.from_tables(0, [], [], 0, 0, [], [], []),
        DWDiagram.from_tables(0, [], [], 2, 1, [], [], []),
        CPGraph.from_tables(0, [], [], []),
        grid(12, 11),
        cpg_to_dwd(grid(12, 11)),
        random_uwd(rng, max_boxes=150, max_ports=4, max_junctions=1200),
        random_dwd(rng, max_boxes=150, max_ports=4),
        random_cpg(rng, max_boxes=150, max_ports=4),
    ]
    for d in diagrams:
        assert to_dot(d) == reference_dot(d)


def test_ocompose_dwd_matches_chain_chasing():
    rng = random.Random(5)
    for _ in range(150):
        outer, inners = nested_dwd_case(rng)
        assert ocompose_dwd(outer, inners) == reference_ocompose_dwd(outer, inners)



# ---------------------------------------------------------------------------
# The total portmap of an undirected composite


def test_undirected_layout_matches_box_by_box():
    # ``random_uwd`` shuffles the box column, so a box's ports are scattered
    # over the port order; the composite reads them off the column.
    rng, nprng = random.Random(12), np.random.default_rng(12)
    for _ in range(200):
        d = random_uwd(rng, max_boxes=5, max_ports=4)
        counts = [d.data.parts["box"].tolist().count(i) for i in range(d.n_boxes)]
        sharers = [random_sharer(nprng, n) for n in counts]
        composite, layout = oapply_undirected_with_layout(d, sharers)
        assert layout == reference_undirected_layout(d, sharers)
        assert composite.portmap.map == tuple(
            layout.junction_injection.map[j] for j in d.data.parts["junc_out"]
        )
        # One box with a port too many or too few: the first misfit is named.
        i = rng.randrange(d.n_boxes)
        sharers[i] = random_sharer(nprng, counts[i] + rng.choice((-1, 1)) if counts[i] else 1)
        with pytest.raises(ArityError) as want:
            reference_undirected_layout(d, sharers)
        with pytest.raises(ArityError) as got:
            oapply_undirected_with_layout(d, sharers)
        assert str(got.value) == str(want.value)
