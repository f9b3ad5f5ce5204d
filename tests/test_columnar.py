"""Whole-column paths against the row-by-row references in ``helpers``."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynwire import (
    CPG_SCHEMA,
    ArityError,
    DWD_SCHEMA,
    UWD_SCHEMA,
    CSetInstance,
    FinFunction,
    SizeMismatchError,
    canonical,
    merge_classes,
    oapply_undirected_with_layout,
    ocompose_dwd,
    pushout,
    spec_to_json,
    to_dot,
    validate,
)
from dynwire.fileio import _write_json, dump_diagram, instance_to_json
from dynwire.modelspec import builtin_model

from helpers import (
    nested_dwd_case,
    random_cpg,
    random_dwd,
    random_sharer,
    random_uwd,
    reference_canonical,
    reference_dot_edges,
    reference_json_text,
    reference_map_error,
    reference_merge_classes,
    reference_ocompose_dwd,
    reference_undirected_layout,
    reference_validate,
)

SCHEMAS = (UWD_SCHEMA, DWD_SCHEMA, CPG_SCHEMA)
RANDOM_DIAGRAM = (random_uwd, random_dwd, random_cpg)


@st.composite
def raw_instances(draw) -> CSetInstance:
    """Cards in [-1, 5] and columns of any length with entries that may fall outside them."""
    schema = draw(st.sampled_from(SCHEMAS))
    card = {ob: draw(st.integers(-1, 5)) for ob in schema.objects}
    parts = {}
    for m in schema.morphisms:
        n = max(card[m.dom], 0) + draw(st.sampled_from((0, 0, 0, -1, 1)))
        parts[m.name] = draw(st.lists(st.integers(-3, 7), min_size=max(n, 0), max_size=max(n, 0)))
    return CSetInstance(schema, card, parts)


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
        edges = reference_dot_edges(d)
        lines = to_dot(d).splitlines()
        assert lines[len(lines) - 1 - len(edges):-1] == edges


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
        counts = [d.data.parts["box"].count(i) for i in range(d.n_boxes)]
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
