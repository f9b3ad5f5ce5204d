from __future__ import annotations

import pytest

from dynwire import (
    CPG_SCHEMA,
    DWD_FROM_CPG,
    DWD_SCHEMA,
    UWD_SCHEMA,
    CSetInstance,
    FinFunction,
    NaturalityError,
    SchemaError,
    SchemaFunctor,
    compose_functors,
    identity_functor,
    instance_pushout,
    migrate,
    validate,
)


def uwd_instance(n_boxes, n_junctions, box, junc_in, junc_out) -> CSetInstance:
    return CSetInstance(
        UWD_SCHEMA,
        {"B": n_boxes, "P": len(box), "J": n_junctions, "Q": len(junc_out)},
        {"box": tuple(box), "junc_in": tuple(junc_in), "junc_out": tuple(junc_out)},
    )


def empty_instance(schema) -> CSetInstance:
    return CSetInstance(schema, {ob: 0 for ob in schema.objects}, {})


class TestSchemas:
    def test_builtin_shapes(self):
        assert UWD_SCHEMA.objects == ("B", "P", "J", "Q")
        assert {m.name for m in UWD_SCHEMA.morphisms} == {"box", "junc_in", "junc_out"}
        assert {m.name for m in DWD_SCHEMA.morphisms} == {
            "box_in", "box_out", "src", "tgt", "src_in", "tgt_in", "src_out", "tgt_out",
        }
        assert {m.name for m in CPG_SCHEMA.morphisms} == {"src", "tgt", "box", "expose"}
        assert CPG_SCHEMA.morphism("expose").dom == "Q"
        assert CPG_SCHEMA.morphism("expose").cod == "P"

    def test_morphism_endpoint_declarations(self):
        assert DWD_SCHEMA.morphism("src").dom == "W"
        assert DWD_SCHEMA.morphism("src").cod == "P_out"
        assert DWD_SCHEMA.morphism("tgt").cod == "P_in"
        assert DWD_SCHEMA.morphism("src_in").cod == "Q_in"
        assert DWD_SCHEMA.morphism("tgt_out").cod == "Q_out"


class TestValidate:
    def test_empty_instance_is_clean(self):
        assert validate(empty_instance(UWD_SCHEMA)) == []

    @pytest.mark.parametrize("column", [[0.5], [True], [1.0]])
    def test_float_and_bool_entries_are_refused(self, column):
        message = rf"column 'box' row 0 is {column[0]!r}, not an integer"
        with pytest.raises(SchemaError, match=message):
            uwd_instance(1, 1, box=column, junc_in=[0], junc_out=[])

    @pytest.mark.parametrize("card", [1.0, True])
    def test_float_and_bool_cards_are_refused(self, card):
        with pytest.raises(SchemaError, match=rf"card of 'B' must be an integer, got {card!r}"):
            uwd_instance(card, 1, box=[0], junc_in=[0], junc_out=[])

    def test_out_of_range_entry_is_located(self):
        bad = uwd_instance(1, 1, box=[0, 0], junc_in=[0, 3], junc_out=[])
        problems = validate(bad)
        assert len(problems) == 1
        assert problems[0].morphism == "junc_in"
        assert problems[0].row == 1

    def test_two_box_term_shape(self):
        # The 2+3 -> 6 <- 5 term: two boxes with 2 and 3 ports on six
        # junctions, five outer ports.
        inst = uwd_instance(
            2, 6,
            box=[0, 0, 1, 1, 1],
            junc_in=[1, 0, 1, 3, 4],
            junc_out=[1, 2, 2, 5, 4],
        )
        assert validate(inst) == []

    def test_column_length_mismatch(self):
        inst = CSetInstance(
            UWD_SCHEMA,
            {"B": 1, "P": 2, "J": 1, "Q": 0},
            {"box": (0,), "junc_in": (0, 0), "junc_out": ()},
        )
        problems = validate(inst)
        assert any(v.morphism == "box" and v.row is None for v in problems)


def cpg_instance(n_boxes, box, wires, expose, n_ports=None) -> CSetInstance:
    n_ports = len(box) if n_ports is None else n_ports
    return CSetInstance(
        CPG_SCHEMA,
        {"B": n_boxes, "P": n_ports, "W": len(wires), "Q": len(expose)},
        {
            "box": tuple(box),
            "src": tuple(s for s, _ in wires),
            "tgt": tuple(t for _, t in wires),
            "expose": tuple(expose),
        },
    )


class TestMigrate:
    def test_identity_functor_is_noop(self):
        inst = uwd_instance(2, 2, box=[0, 1], junc_in=[0, 1], junc_out=[1])
        assert migrate(identity_functor(UWD_SCHEMA), inst) == inst

    def test_cpg_functor_duplicates_ports(self):
        # One box, two ports, no wires, no exposure.
        g = cpg_instance(1, box=[0, 0], wires=[], expose=[])
        d = migrate(DWD_FROM_CPG, g)
        assert d.card == {
            "B": 1, "P_in": 2, "P_out": 2, "W": 0,
            "W_in": 0, "W_out": 0, "Q_in": 0, "Q_out": 0,
        }
        assert d.parts["box_in"] == d.parts["box_out"] == (0, 0)

    def test_cpg_functor_on_exposed_ports(self):
        g = cpg_instance(1, box=[0, 0], wires=[], expose=[1, 0])
        d = migrate(DWD_FROM_CPG, g)
        assert d.card["Q_in"] == d.card["Q_out"] == d.card["W_in"] == d.card["W_out"] == 2
        # Boundary wires: identity on the outer side, exposure on the inner side.
        assert d.parts["src_in"] == (0, 1)
        assert d.parts["tgt_in"] == (1, 0)
        assert d.parts["src_out"] == (1, 0)
        assert d.parts["tgt_out"] == (0, 1)

    def test_collapsing_functor_copies_card(self):
        target = CSetInstance(UWD_SCHEMA, {"B": 0, "P": 0, "J": 3, "Q": 0}, {})
        collapse = SchemaFunctor(
            UWD_SCHEMA,
            UWD_SCHEMA,
            {"B": "J", "P": "J", "J": "J", "Q": "J"},
            {"box": None, "junc_in": None, "junc_out": None},
        )
        out = migrate(collapse, target)
        assert out.card["B"] == out.card["P"] == 3
        assert out.parts["box"] == (0, 1, 2)

    def test_functoriality_with_identities(self):
        g = cpg_instance(2, box=[0, 0, 1], wires=[(0, 2)], expose=[1])
        f_then_id = compose_functors(DWD_FROM_CPG, identity_functor(CPG_SCHEMA))
        id_then_f = compose_functors(identity_functor(DWD_SCHEMA), DWD_FROM_CPG)
        direct = migrate(DWD_FROM_CPG, g)
        assert migrate(f_then_id, g) == direct
        assert migrate(id_then_f, g) == direct
        # Delta of a composite is the composite of Deltas, applied outermost-first.
        assert migrate(DWD_FROM_CPG, migrate(identity_functor(CPG_SCHEMA), g)) == direct

    def test_schema_mismatch(self):
        inst = uwd_instance(1, 1, box=[], junc_in=[], junc_out=[])
        with pytest.raises(SchemaError):
            migrate(DWD_FROM_CPG, inst)

    def test_ill_typed_functor_rejected(self):
        with pytest.raises(SchemaError):
            SchemaFunctor(
                UWD_SCHEMA,
                UWD_SCHEMA,
                {"B": "B", "P": "P", "J": "J", "Q": "Q"},
                {"box": "junc_in", "junc_in": "junc_in", "junc_out": "junc_out"},
            )


def leg(sizes_from: CSetInstance, sizes_to: CSetInstance, **columns) -> dict[str, FinFunction]:
    out = {}
    for ob in sizes_from.schema.objects:
        entries = columns.get(ob, ())
        out[ob] = FinFunction(sizes_from.card[ob], sizes_to.card[ob], tuple(entries))
    return out


class TestInstancePushout:
    def test_empty_apex_gives_coproduct(self):
        x = uwd_instance(1, 2, box=[0], junc_in=[1], junc_out=[0])
        y = uwd_instance(1, 1, box=[0], junc_in=[0], junc_out=[])
        a = empty_instance(UWD_SCHEMA)
        result = instance_pushout(a, x, y, leg(a, x), leg(a, y))
        assert result.instance.card == {"B": 2, "P": 2, "J": 3, "Q": 1}
        assert validate(result.instance) == []

    def test_pushout_along_identity_is_identity(self):
        x = uwd_instance(2, 2, box=[0, 1], junc_in=[0, 1], junc_out=[1])
        legs = {
            ob: FinFunction(x.card[ob], x.card[ob], tuple(range(x.card[ob])))
            for ob in UWD_SCHEMA.objects
        }
        result = instance_pushout(x, x, x, legs, legs)
        assert result.instance == x

    def test_glue_on_shared_junction(self):
        x = uwd_instance(1, 2, box=[0, 0], junc_in=[0, 1], junc_out=[1])
        y = uwd_instance(1, 2, box=[0], junc_in=[0], junc_out=[0, 1])
        a = CSetInstance(UWD_SCHEMA, {"B": 0, "P": 0, "J": 1, "Q": 0}, {})
        result = instance_pushout(
            a, x, y, leg(a, x, J=(1,)), leg(a, y, J=(0,))
        )
        inst = result.instance
        assert inst.card["B"] == 2
        assert inst.card["J"] == x.card["J"] + y.card["J"] - 1
        assert validate(inst) == []
        # The shared junction is one class reachable from both sides.
        assert result.inj_left["J"].map[1] == result.inj_right["J"].map[0]

    def test_non_natural_leg_is_reported(self):
        x = uwd_instance(1, 2, box=[0], junc_in=[0], junc_out=[])
        a = uwd_instance(1, 2, box=[0], junc_in=[0], junc_out=[])
        bad = leg(a, x, B=(0,), P=(0,), J=(1, 0), Q=())
        good = leg(a, x, B=(0,), P=(0,), J=(0, 1), Q=())
        with pytest.raises(NaturalityError, match="junc_in"):
            instance_pushout(a, x, x, bad, good)

    def test_non_injective_leg_rejected(self):
        x = uwd_instance(1, 1, box=[], junc_in=[], junc_out=[])
        a = uwd_instance(2, 1, box=[], junc_in=[], junc_out=[])
        squash = leg(a, x, B=(0, 0), J=(0,))
        with pytest.raises(SchemaError, match="injective"):
            instance_pushout(a, x, x, squash, squash)

    def test_cards_match_componentwise_pushout(self):
        x = uwd_instance(2, 3, box=[0, 1], junc_in=[0, 2], junc_out=[1])
        y = uwd_instance(1, 2, box=[0], junc_in=[1], junc_out=[])
        a = CSetInstance(UWD_SCHEMA, {"B": 0, "P": 0, "J": 2, "Q": 0}, {})
        result = instance_pushout(
            a, x, y, leg(a, x, J=(0, 2)), leg(a, y, J=(0, 1))
        )
        from dynwire import pushout

        po = pushout(
            FinFunction(2, 3, (0, 2)), FinFunction(2, 2, (0, 1))
        )
        assert result.instance.card["J"] == po.apex_size
