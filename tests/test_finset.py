from __future__ import annotations

import random
import re

import numpy as np
import pytest

from dynwire import (
    Cospan,
    FinFunction,
    SizeMismatchError,
    canonical_cospan,
    compose,
    cospan_compose,
    identity,
    merge_classes,
    pullback_vec,
    pushforward_vec,
    pushout,
)
from helpers import all_spans, satisfies_universal_property


def ff(entries, cod):
    return FinFunction.from_entries(entries, cod)


class TestFinFunction:
    def test_totality_enforced(self):
        with pytest.raises(SizeMismatchError):
            FinFunction(2, 2, (0, 2))

    def test_length_enforced(self):
        with pytest.raises(SizeMismatchError):
            FinFunction(3, 2, (0, 1))

    def test_empty_into_anything(self):
        f = FinFunction(0, 3, ())
        assert f.map == ()

    @pytest.mark.parametrize(
        "entries, shown",
        [([0.7], "0.7"), ([True], "True"), ([0, 1.0], "1.0"), (np.array([0.0]), "np.float64(0.0)"),
         (np.array([False]), "np.False_")],
    )
    def test_floats_and_bools_are_refused_not_truncated(self, entries, shown):
        with pytest.raises(SizeMismatchError, match=re.escape(f"is {shown}, not an integer")):
            FinFunction(len(entries), 2, entries)

    def test_integer_arrays_and_numpy_ints_are_accepted(self):
        for entries in (np.array([1, 0], dtype=np.int64), np.array([1, 0], dtype=np.uint8),
                        [np.int64(1), 0], iter([1, 0])):
            f = FinFunction(2, 2, entries)
            assert f.map == (1, 0) and all(type(v) is int for v in f.map)


class TestCompose:
    def test_swap_after_identity(self):
        f = ff([0, 1], 2)
        g = ff([1, 0], 2)
        assert compose(f, g).map == (1, 0)

    def test_empty_domain(self):
        f = FinFunction(0, 3, ())
        g = ff([5, 5, 0], 6)
        out = compose(f, g)
        assert out.map == () and out.cod_size == 6

    def test_pointwise(self):
        f = ff([2, 2], 3)
        g = ff([5, 5, 0], 6)
        assert compose(f, g).map == (0, 0)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError, match="3.*2|2.*3"):
            compose(ff([0], 3), ff([0, 1], 2))


class TestPushout:
    def test_single_identification(self):
        po = pushout(ff([0], 2), ff([0], 2))
        assert po.apex_size == 3
        assert po.inj_left.map == (0, 1)
        assert po.inj_right.map == (0, 2)

    def test_empty_span_is_coproduct(self):
        po = pushout(FinFunction(0, 2, ()), FinFunction(0, 3, ()))
        assert po.apex_size == 5
        assert po.inj_left.map == (0, 1)
        assert po.inj_right.map == (2, 3, 4)

    def test_identity_span(self):
        po = pushout(identity(3), identity(3))
        assert po.apex_size == 3
        assert po.inj_left.map == po.inj_right.map == (0, 1, 2)

    def test_universal_property_sample(self):
        # Full exhaustive sweep lives in the acceptance suite; spot-check a
        # handful of shapes here.
        cases = [
            (ff([0, 0], 1), ff([0, 1], 2)),
            (ff([0, 1, 1], 3), ff([2, 2, 0], 3)),
            (FinFunction(0, 3, ()), FinFunction(0, 2, ())),
        ]
        for f, g in cases:
            assert satisfies_universal_property(f, g, pushout(f, g), max_cocone=4)

    def test_joint_surjectivity_and_commutes(self):
        rng = random.Random(7)
        for _ in range(50):
            a, b, c = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
            if a > 0 and (b == 0 or c == 0):
                continue
            f = FinFunction(a, b, tuple(rng.randrange(b) for _ in range(a)))
            g = FinFunction(a, c, tuple(rng.randrange(c) for _ in range(a)))
            po = pushout(f, g)
            hit = set(po.inj_left.map) | set(po.inj_right.map)
            assert hit == set(range(po.apex_size))
            assert po.apex_size <= b + c
            assert compose(f, po.inj_left).map == compose(g, po.inj_right).map

    def test_merge_classes_of_a_negative_size_is_a_size_error_naming_it(self):
        with pytest.raises(SizeMismatchError, match=r"^set size -1 is not an integer in \[0, "):
            merge_classes(-1, [])


class TestVectorTransport:
    def test_pullback_duplicates(self):
        assert pullback_vec(ff([0, 0], 1), [7.5]).tolist() == [7.5, 7.5]

    def test_pullback_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pullback_vec(identity(3), x).tolist() == x.tolist()

    def test_pullback_lookup(self):
        assert pullback_vec(ff([2, 0], 3), [1.0, 2.0, 3.0]).tolist() == [3.0, 1.0]

    def test_pushforward_sums_fiber(self):
        assert pushforward_vec(ff([0, 0], 1), [2.0, 3.0]).tolist() == [5.0]

    def test_pushforward_empty_fibers(self):
        assert pushforward_vec(FinFunction(0, 2, ()), []).tolist() == [0.0, 0.0]

    def test_pushforward_fiberwise(self):
        assert pushforward_vec(ff([1, 1, 0], 2), [1.0, 10.0, 100.0]).tolist() == [100.0, 11.0]

    def test_length_mismatch(self):
        with pytest.raises(SizeMismatchError):
            pullback_vec(ff([0], 2), [1.0])
        with pytest.raises(SizeMismatchError):
            pushforward_vec(ff([0], 2), [1.0, 2.0])

    def test_bijection_round_trips_exactly(self):
        rng = random.Random(3)
        nprng = np.random.default_rng(3)
        for _ in range(25):
            n = rng.randint(0, 6)
            perm = list(range(n))
            rng.shuffle(perm)
            f = FinFunction(n, n, tuple(perm))
            x = nprng.standard_normal(n)
            assert pushforward_vec(f, pullback_vec(f, x)).tolist() == x.tolist()
            assert pullback_vec(f, pushforward_vec(f, x)).tolist() == x.tolist()

    def test_linearity(self):
        rng = random.Random(11)
        nprng = np.random.default_rng(11)
        for _ in range(25):
            dom, cod = rng.randint(0, 5), rng.randint(1, 5)
            f = FinFunction(dom, cod, tuple(rng.randrange(cod) for _ in range(dom)))
            x = nprng.standard_normal(cod)
            y = nprng.standard_normal(cod)
            s = float(nprng.uniform(-2, 2))
            lhs = pullback_vec(f, s * x + y)
            rhs = s * pullback_vec(f, x) + pullback_vec(f, y)
            assert np.allclose(lhs, rhs, atol=1e-12, rtol=0)
            u = nprng.standard_normal(dom)
            v = nprng.standard_normal(dom)
            lhs2 = pushforward_vec(f, s * u + v)
            rhs2 = s * pushforward_vec(f, u) + pushforward_vec(f, v)
            assert np.allclose(lhs2, rhs2, atol=1e-12, rtol=0)


def random_cospan(rng: random.Random, left_foot: int, right_foot: int) -> Cospan:
    apex = rng.randint(1, 4)
    return Cospan(
        FinFunction(left_foot, apex, tuple(rng.randrange(apex) for _ in range(left_foot))),
        FinFunction(right_foot, apex, tuple(rng.randrange(apex) for _ in range(right_foot))),
    )


class TestCospans:
    def test_legs_share_apex(self):
        with pytest.raises(SizeMismatchError):
            Cospan(ff([0], 1), ff([0], 2))

    def test_identity_is_unit(self):
        rng = random.Random(5)
        for _ in range(30):
            c = random_cospan(rng, rng.randint(0, 4), rng.randint(0, 4))
            left_unit = cospan_compose(Cospan.identity(c.left.dom_size), c)
            right_unit = cospan_compose(c, Cospan.identity(c.right.dom_size))
            assert canonical_cospan(left_unit) == canonical_cospan(c)
            assert canonical_cospan(right_unit) == canonical_cospan(c)

    def test_absorbing_empty_foot(self):
        a = Cospan.identity(1)
        b = Cospan(identity(1), FinFunction(0, 1, ()))
        out = cospan_compose(a, b)
        assert out.left.map == (0,) and out.right.map == () and out.apex_size == 1

    def test_two_singletons_glued(self):
        a = Cospan(ff([0, 0], 1), ff([0], 1))
        b = Cospan.identity(1)
        out = cospan_compose(a, b)
        assert out.apex_size == 1
        assert out.left.map == (0, 0) and out.right.map == (0,)

    def test_associativity_up_to_canonical_form(self):
        rng = random.Random(17)
        for _ in range(60):
            feet = [rng.randint(0, 4) for _ in range(4)]
            a = random_cospan(rng, feet[0], feet[1])
            b = random_cospan(rng, feet[1], feet[2])
            c = random_cospan(rng, feet[2], feet[3])
            lhs = cospan_compose(cospan_compose(a, b), c)
            rhs = cospan_compose(a, cospan_compose(b, c))
            assert canonical_cospan(lhs) == canonical_cospan(rhs)

    def test_foot_mismatch(self):
        with pytest.raises(SizeMismatchError):
            cospan_compose(Cospan.identity(2), Cospan.identity(3))


def test_small_exhaustive_universal_property():
    # Sizes <= 2 exhaustively here; the <= 3 sweep is acceptance criterion 1.
    for f, g in all_spans(2):
        assert satisfies_universal_property(f, g, pushout(f, g), max_cocone=4)
