from __future__ import annotations

import random
from collections import Counter

import pytest

from dynwire import (
    ArityError,
    CPGraph,
    DiagramError,
    DWDiagram,
    DynwireError,
    SizeMismatchError,
    UWDiagram,
    canonical,
    cpg_to_dwd,
    grid,
    identity_cpg,
    identity_dwd,
    identity_uwd,
    ocompose_cpg,
    ocompose_cpg_at,
    ocompose_dwd,
    ocompose_dwd_at,
    ocompose_uwd,
    ocompose_uwd_at,
    to_dot,
)
from dynwire.wiring import ocompose, ocompose_at
from helpers import (
    nested_cpg_case,
    nested_dwd_case,
    nested_uwd_case,
    random_cpg,
    random_dwd,
    random_uwd,
)


class TestDiagramTypes:
    def test_invalid_instance_rejected(self):
        with pytest.raises(DiagramError, match="junc_in"):
            UWDiagram.from_tables(1, 1, box=[0], junc_in=[5], junc_out=[])

    def test_port_slots_follow_global_order(self):
        d = UWDiagram.from_tables(2, 1, box=[1, 0, 1], junc_in=[0, 0, 0], junc_out=[])
        assert d.box_ports == ((1,), (0, 2))
        assert d.port_counts == (1, 2)


class TestIdentities:
    def test_identity_uwd_zero(self):
        d = identity_uwd(0)
        assert d.data.card == {"B": 1, "P": 0, "J": 0, "Q": 0}

    def test_identity_uwd_three(self):
        d = identity_uwd(3)
        assert d.data.card == {"B": 1, "P": 3, "J": 3, "Q": 3}
        assert d.data.parts["junc_in"].tolist() == d.data.parts["junc_out"].tolist() == [0, 1, 2]

    def test_identity_dwd(self):
        d = identity_dwd(2, 3)
        assert d.data.card["W"] == 0
        assert d.data.parts["src_in"].tolist() == d.data.parts["tgt_in"].tolist() == [0, 1]
        assert d.data.parts["src_out"].tolist() == d.data.parts["tgt_out"].tolist() == [0, 1, 2]

    def test_identity_cpg(self):
        d = identity_cpg(4)
        assert d.data.card == {"B": 1, "P": 4, "W": 0, "Q": 4}
        assert d.data.parts["expose"].tolist() == [0, 1, 2, 3]


class TestOcomposeUWD:
    def test_unit_law_inner(self):
        rng = random.Random(2)
        for _ in range(25):
            d = random_uwd(rng)
            identities = [identity_uwd(k) for k in d.port_counts]
            assert canonical(ocompose_uwd(d, identities)) == canonical(d)

    def test_unit_law_outer(self):
        rng = random.Random(3)
        for _ in range(25):
            d = random_uwd(rng)
            assert canonical(ocompose_uwd(identity_uwd(d.n_outer), [d])) == canonical(d)

    def test_shared_junction_quotient(self):
        outer = UWDiagram.from_tables(1, 1, box=[0], junc_in=[0], junc_out=[0])
        inner = UWDiagram.from_tables(2, 1, box=[0, 1], junc_in=[0, 0], junc_out=[0])
        out = ocompose_uwd(outer, [inner])
        assert out.data.card == {"B": 2, "P": 2, "J": 1, "Q": 1}

    def test_arity_error_names_box(self):
        outer = UWDiagram.from_tables(1, 1, box=[0, 0], junc_in=[0, 0], junc_out=[])
        with pytest.raises(ArityError, match="box 0 expects 2 ports.*exposes 1"):
            ocompose_uwd(outer, [identity_uwd(1)])

    def test_boxes_and_ports_accumulate(self):
        rng = random.Random(4)
        for _ in range(25):
            outer, inners = nested_uwd_case(rng)
            out = ocompose_uwd(outer, inners)
            assert out.n_boxes == sum(d.n_boxes for d in inners)
            assert len(out.data.parts["box"]) == sum(len(d.data.parts["box"]) for d in inners)
            assert Counter(out.port_counts) == Counter(
                c for d in inners for c in d.port_counts
            )

    def test_associativity(self):
        rng = random.Random(5)
        for _ in range(25):
            outer, mids = nested_uwd_case(rng, max_outer_boxes=3)
            deep = [[random_uwd(rng, n_outer=k) for k in mid.port_counts] for mid in mids]
            flat_first = ocompose_uwd(ocompose_uwd(outer, mids), [d for ds in deep for d in ds])
            nested_first = ocompose_uwd(
                outer, [ocompose_uwd(mid, ds) for mid, ds in zip(mids, deep)]
            )
            assert canonical(flat_first) == canonical(nested_first)

    def test_slot_form_pads_identities(self):
        rng = random.Random(6)
        for _ in range(10):
            outer = random_uwd(rng, max_boxes=3)
            i = rng.randrange(outer.n_boxes)
            inner = random_uwd(rng, n_outer=outer.port_counts[i])
            full = [identity_uwd(k) for k in outer.port_counts]
            full[i] = inner
            assert canonical(ocompose_uwd_at(outer, i, inner)) == canonical(
                ocompose_uwd(outer, full)
            )

    def test_ecosystem_nesting_flattens_as_expected(self):
        # Land: growth(rabbit), predation(rabbit, hawk), decline(hawk); the
        # hawk junction is exposed.  River: growth(fish), predation(fish,
        # hawk); hawk exposed.  The total diagram shares the hawk junction.
        land = UWDiagram.from_tables(3, 2, box=[0, 1, 1, 2], junc_in=[0, 0, 1, 1], junc_out=[1])
        river = UWDiagram.from_tables(2, 2, box=[0, 1, 1], junc_in=[0, 0, 1], junc_out=[1])
        total = UWDiagram.from_tables(2, 1, box=[0, 1], junc_in=[0, 0], junc_out=[0])
        flattened = ocompose_uwd(total, [land, river])
        expected = UWDiagram.from_tables(
            5, 3,
            box=[0, 1, 1, 2, 3, 4, 4],
            junc_in=[1, 1, 0, 0, 2, 2, 0],
            junc_out=[0],
        )
        assert canonical(flattened) == canonical(expected)

    def test_junctions_past_np_intp_are_a_size_error_naming_their_count(self):
        # 2**62 junctions twice over: np.arange(2**63) would come back empty.
        d = UWDiagram.from_tables(1, 2**62, (0,), (0,), (0,))
        with pytest.raises(SizeMismatchError, match=f"^set size {2**63} is not an integer"):
            ocompose_uwd(d, [d])


class TestOcomposeDWD:
    def test_unit_law_inner(self):
        rng = random.Random(7)
        for _ in range(25):
            d = random_dwd(rng)
            identities = [identity_dwd(m, n) for m, n in d.signature]
            assert canonical(ocompose_dwd(d, identities)) == canonical(d)

    def test_unit_law_outer(self):
        rng = random.Random(8)
        for _ in range(25):
            d = random_dwd(rng)
            out = ocompose_dwd(identity_dwd(d.n_outer_in, d.n_outer_out), [d])
            assert canonical(out) == canonical(d)

    def test_single_splice(self):
        outer = DWDiagram.from_tables(2, box_in=[0, 1], box_out=[0, 1], wires=[(0, 1)])
        inner_src = DWDiagram.from_tables(
            1, box_in=[0], box_out=[0], n_outer_in=1, n_outer_out=1, out_wires=[(0, 0)]
        )
        inner_tgt = DWDiagram.from_tables(
            1, box_in=[0], box_out=[0], n_outer_in=1, n_outer_out=1, in_wires=[(0, 0)]
        )
        out = ocompose_dwd(outer, [inner_src, inner_tgt])
        assert out.data.card["W"] == 1
        # inner_src's out-port feeds inner_tgt's in-port (global index 1).
        assert out.data.parts["src"].tolist() == [0]
        assert out.data.parts["tgt"].tolist() == [1]
        assert out.data.card["W_in"] == out.data.card["W_out"] == 0

    def test_fanning_splice_multiplies(self):
        # One outer wire, two inner out-legs at the source, two in-legs at
        # the target: relational join gives four composite wires.
        outer = DWDiagram.from_tables(2, box_in=[1], box_out=[0], wires=[(0, 0)])
        inner_src = DWDiagram.from_tables(
            1, box_in=[], box_out=[0, 0], n_outer_out=1, out_wires=[(0, 0), (1, 0)]
        )
        inner_tgt = DWDiagram.from_tables(
            1, box_in=[0, 0], box_out=[], n_outer_in=1, in_wires=[(0, 0), (0, 1)]
        )
        out = ocompose_dwd(outer, [inner_src, inner_tgt])
        assert out.data.card["W"] == 4

    def test_associativity(self):
        rng = random.Random(9)
        for _ in range(25):
            outer, mids = nested_dwd_case(rng, max_outer_boxes=3)
            deep = [
                [random_dwd(rng, n_outer_in=m, n_outer_out=n) for m, n in mid.signature]
                for mid in mids
            ]
            flat_first = ocompose_dwd(ocompose_dwd(outer, mids), [d for ds in deep for d in ds])
            nested_first = ocompose_dwd(
                outer, [ocompose_dwd(mid, ds) for mid, ds in zip(mids, deep)]
            )
            assert canonical(flat_first) == canonical(nested_first)

    def test_slot_form(self):
        rng = random.Random(10)
        for _ in range(10):
            outer = random_dwd(rng, max_boxes=3)
            i = rng.randrange(outer.n_boxes)
            m, n = outer.signature[i]
            inner = random_dwd(rng, n_outer_in=m, n_outer_out=n)
            full = [identity_dwd(*sig) for sig in outer.signature]
            full[i] = inner
            assert canonical(ocompose_dwd_at(outer, i, inner)) == canonical(
                ocompose_dwd(outer, full)
            )

    def test_arity_error(self):
        outer = DWDiagram.from_tables(1, box_in=[0], box_out=[0])
        with pytest.raises(ArityError, match=r"box 0 expects signature \(1, 1\)"):
            ocompose_dwd(outer, [identity_dwd(2, 1)])


class TestOcomposeCPG:
    def test_unit_laws(self):
        rng = random.Random(11)
        for _ in range(25):
            d = random_cpg(rng)
            identities = [identity_cpg(k) for k in d.port_counts]
            assert canonical(ocompose_cpg(d, identities)) == canonical(d)
            assert canonical(ocompose_cpg(identity_cpg(d.n_outer), [d])) == canonical(d)

    def test_associativity(self):
        rng = random.Random(12)
        for _ in range(25):
            outer, mids = nested_cpg_case(rng, max_outer_boxes=3)
            deep = [[random_cpg(rng, n_outer=k) for k in mid.port_counts] for mid in mids]
            flat_first = ocompose_cpg(ocompose_cpg(outer, mids), [d for ds in deep for d in ds])
            nested_first = ocompose_cpg(
                outer, [ocompose_cpg(mid, ds) for mid, ds in zip(mids, deep)]
            )
            assert canonical(flat_first) == canonical(nested_first)


# A two-box outer diagram of each syntax, an inner diagram that fits either
# box, and the per-syntax full and single-slot substitutions.
TWO_BOX_CASES = {
    "uwd": (
        UWDiagram.from_tables(2, 1, box=[0, 1], junc_in=[0, 0], junc_out=[0]),
        UWDiagram.from_tables(2, 1, box=[0, 1], junc_in=[0, 0], junc_out=[0]),
        ocompose_uwd,
        ocompose_uwd_at,
    ),
    "dwd": (
        DWDiagram.from_tables(2, [0, 1], [0, 1], 1, 1, [(0, 1)], [(0, 0)], [(1, 0)]),
        DWDiagram.from_tables(2, [0, 1], [0, 1], 1, 1, [(1, 0)], [(0, 1)], [(0, 0)]),
        ocompose_dwd,
        ocompose_dwd_at,
    ),
    "cpg": (
        CPGraph.from_tables(2, [0, 1], [(0, 1), (1, 0)], [0]),
        CPGraph.from_tables(2, [0, 1], [(1, 0)], [1]),
        ocompose_cpg,
        ocompose_cpg_at,
    ),
}
two_box_cases = pytest.mark.parametrize(
    "outer, inner, full, at", TWO_BOX_CASES.values(), ids=TWO_BOX_CASES.keys()
)


class TestSyntaxGeneric:
    @two_box_cases
    def test_generic_forms_dispatch_on_the_outer_syntax(self, outer, inner, full, at):
        assert ocompose(outer, [inner, inner]) == full(outer, [inner, inner])
        for i in range(outer.n_boxes):
            assert ocompose_at(outer, i, inner) == at(outer, i, inner)

    @pytest.mark.parametrize("i", [-1, 2])
    @two_box_cases
    def test_slot_out_of_range_is_arity_error(self, outer, inner, full, at, i):
        with pytest.raises(ArityError, match=f"slot {i} out of range for 2 boxes"):
            at(outer, i, inner)

    def test_an_outer_without_boxes_keeps_its_outer_ports_and_junctions(self):
        # The coproduct of no inners is the empty diagram.
        uwd = UWDiagram.from_tables(0, 2, [], [], [1, 0, 1])
        dwd = DWDiagram.from_tables(0, [], [], n_outer_in=2, n_outer_out=1)
        for outer in (uwd, dwd, CPGraph.from_tables(0, [], [], [])):
            assert ocompose(outer, []) == outer

    def test_mixed_syntax_is_diagram_error(self):
        with pytest.raises(DiagramError, match="box 0: inner diagram is a CPGraph"):
            ocompose(identity_uwd(1), [identity_cpg(1)])
        with pytest.raises(DiagramError, match="box 0: inner diagram is a UWDiagram"):
            ocompose_at(identity_dwd(1, 1), 0, identity_uwd(2))


class TestGrid:
    def test_1x1(self):
        g = grid(1, 1)
        assert g.data.card == {"B": 1, "P": 4, "W": 0, "Q": 4}

    def test_2x1(self):
        g = grid(2, 1)
        assert g.data.card == {"B": 2, "P": 8, "W": 2, "Q": 6}
        # East of box 0 pairs with West of box 1, both directions.
        assert set(zip(g.data.parts["src"], g.data.parts["tgt"])) == {(1, 7), (7, 1)}

    def test_2x2(self):
        g = grid(2, 2)
        assert g.data.card == {"B": 4, "P": 16, "W": 8, "Q": 8}

    def test_outer_ports_ordered(self):
        g = grid(2, 1)
        assert g.data.parts["expose"].tolist() == [0, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("width, height", [(1, 1), (2, 1), (1, 3), (3, 3), (7, 5), (4, 9)])
    def test_columns_are_those_of_the_box_by_box_loop(self, width, height):
        def port(x, y, d):  # d: North, East, South, West
            return 4 * (y * width + x) + d

        wires = []
        for y in range(height):
            for x in range(width):
                if x + 1 < width:
                    wires += [(port(x, y, 1), port(x + 1, y, 3)), (port(x + 1, y, 3), port(x, y, 1))]
                if y + 1 < height:
                    wires += [(port(x, y, 2), port(x, y + 1, 0)), (port(x, y + 1, 0), port(x, y, 2))]
        wired = {p for w in wires for p in w}
        n = 4 * width * height
        want = CPGraph.from_tables(
            width * height, [p // 4 for p in range(n)], wires, [p for p in range(n) if p not in wired]
        )
        assert grid(width, height).data == want.data

    def test_too_large_to_index_is_a_domain_error(self):
        # 10**20 boxes exceed np.intp, so this fails before allocating anything.
        with pytest.raises(DynwireError, match="cannot build a 10000000000 x 10000000000 grid: "):
            grid(10**10, 10**10)


class TestCpgToDwd:
    def test_empty(self):
        g = CPGraph.from_tables(0, [], [], [])
        d = cpg_to_dwd(g)
        assert all(v == 0 for v in d.data.card.values())

    def test_unexposed_box(self):
        g = CPGraph.from_tables(1, [0, 0, 0, 0], [], [])
        d = cpg_to_dwd(g)
        assert d.data.card["P_in"] == d.data.card["P_out"] == 4
        assert d.data.card["Q_in"] == d.data.card["Q_out"] == 0
        assert d.data.card["W"] == d.data.card["W_in"] == d.data.card["W_out"] == 0

    def test_grid_counts(self):
        d = cpg_to_dwd(grid(2, 2))
        assert d.data.card["B"] == 4
        assert d.data.card["P_in"] == d.data.card["P_out"] == 16
        assert d.data.card["W"] == 8
        assert (
            d.data.card["Q_in"] == d.data.card["Q_out"]
            == d.data.card["W_in"] == d.data.card["W_out"] == 8
        )

    def test_port_pairing_invariant(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_cpg(rng)
            d = cpg_to_dwd(g)
            assert d.data.card["P_in"] == d.data.card["P_out"]
            assert (
                d.data.card["Q_in"] == d.data.card["Q_out"]
                == d.data.card["W_in"] == d.data.card["W_out"]
            )


class TestCanonicalForm:
    def test_idempotent(self):
        rng = random.Random(15)
        for _ in range(20):
            for d in (random_uwd(rng), random_dwd(rng), random_cpg(rng)):
                once = canonical(d)
                assert canonical(once) == once

    def test_preserves_interfaces(self):
        rng = random.Random(16)
        for _ in range(20):
            d = random_dwd(rng)
            c = canonical(d)
            assert c.signature == d.signature
            assert (c.n_outer_in, c.n_outer_out) == (d.n_outer_in, d.n_outer_out)

    def test_rejects_non_diagrams(self):
        with pytest.raises(TypeError):
            canonical("not a diagram")


class TestDot:
    def test_empty_uwd(self):
        text = to_dot(UWDiagram.from_tables(0, 0, [], [], []))
        assert "cluster_body" in text
        assert "b0" not in text

    def test_identity_uwd_counts(self):
        text = to_dot(identity_uwd(1))
        assert text.count("shape=box") == 1
        assert text.count("shape=point") == 1
        assert text.count(" -- ") == 2

    def test_grid_counts(self):
        text = to_dot(grid(2, 2))
        assert text.count("shape=box") == 4
        wire_edges = [l for l in text.splitlines() if l.startswith("  b") and "->" in l]
        assert len(wire_edges) == 8
        assert text.count("style=dashed") == 8

    def test_deterministic(self):
        rng1, rng2 = random.Random(14), random.Random(14)
        assert to_dot(random_dwd(rng1)) == to_dot(random_dwd(rng2))
