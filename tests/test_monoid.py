"""Monoid table construction and validation."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moncoh.monoid import (
    FinMonoid,
    cyclic_group,
    power_set_monoid,
    trivial_monoid,
    union_monoid,
    validate,
)


def brute_validate(m: FinMonoid) -> bool:
    """Straight re-statement of the laws, kept separate from validate()."""
    e = m.identity_index
    ok = all(m.table[e][a] == a and m.table[a][e] == a for a in range(m.size))
    for a, b, c in itertools.product(range(m.size), repeat=3):
        if m.table[m.table[a][b]][c] != m.table[a][m.table[b][c]]:
            ok = False
    return ok


def idempotents(m: FinMonoid) -> list[int]:
    return [i for i in range(m.size) if m.mul(i, i) == i]


class TestValidate:
    def test_cyclic_ok(self):
        assert validate(cyclic_group(4)) == []

    def test_left_zero_with_identity(self):
        # x*y = x on {a, b}, identity adjoined; associative but not commutative
        m = FinMonoid("LZ+1", ("e", "a", "b"), 0,
                      ((0, 1, 2), (1, 1, 1), (2, 2, 2)))
        assert validate(m) == []
        assert brute_validate(m)

    def test_broken_identity_reported(self):
        m = FinMonoid("bad", ("e", "a"), 0, ((0, 0), (1, 0)))
        problems = validate(m)
        assert any("identity law" in p for p in problems)

    def test_broken_associativity_reported(self):
        # e is a genuine identity but (a,a,a) breaks associativity
        m = FinMonoid("bad2", ("e", "a", "b"), 0,
                      ((0, 1, 2), (1, 2, 0), (2, 1, 1)))
        assert not brute_validate(m)
        problems = validate(m)
        assert any("associativity" in p for p in problems)

    def test_shape_rejected_at_construction(self):
        with pytest.raises(ValueError):
            FinMonoid("x", ("e", "a"), 0, ((0,),))
        with pytest.raises(ValueError):
            FinMonoid("x", ("e", "e"), 0, ((0, 1), (1, 0)))
        with pytest.raises(ValueError):
            FinMonoid("x", ("e",), 3, ((0,),))

    @pytest.mark.parametrize("entry", [1.0, True, "1"])
    def test_non_integer_table_entry_rejected(self, entry):
        # 1.0 and True used to pass the range check and break validate()
        # and the cochain groups later
        with pytest.raises(ValueError,
                           match=f"table entry {entry!r} is not an integer"):
            FinMonoid("x", ("e", "a"), 0, ((0, 1), (1, entry)))

    @pytest.mark.parametrize("index", [True, 0.0])
    def test_non_integer_identity_index_rejected(self, index):
        with pytest.raises(ValueError,
                           match=f"identity index {index!r} is not an integer"):
            FinMonoid("x", ("e", "a"), index, ((0, 1), (1, 1)))


class TestBuilders:
    def test_cyclic_group_structure(self):
        m = cyclic_group(5)
        assert m.size == 5
        assert m.is_group()
        assert idempotents(m) == [0]
        assert validate(m) == []

    def test_trivial(self):
        assert trivial_monoid().size == 1
        assert cyclic_group(1).size == 1

    def test_union_monoid_single_empty_set(self):
        with pytest.raises(ValueError):
            union_monoid([])
        m = union_monoid([set()])
        assert m.size == 1

    def test_union_monoid_two_singletons(self):
        m = union_monoid([{"1"}, {"2"}])
        assert m.size == 4
        assert m.element_names[0] == "{}"
        assert validate(m) == []

    def test_union_monoid_three_pairs(self):
        # enumerated by hand: {}, three pair sets, and {1,2,3}; 5 elements
        m = union_monoid([{"1", "2"}, {"2", "3"}, {"1", "3"}])
        assert m.size == 5
        assert validate(m) == []

    def test_union_monoid_idempotent(self):
        m = union_monoid([{"a"}, {"a", "b"}, {"c"}])
        for i in range(m.size):
            assert m.mul(i, i) == i

    def test_power_set_monoid(self):
        m = power_set_monoid(3)
        assert m.size == 8
        assert validate(m) == []
        assert m.element_names[0] == "{}"
        assert m.element_names[-1] == "{0,1,2}"

    def test_power_set_matches_union_monoid(self):
        p = power_set_monoid(2)
        u = union_monoid([{"0"}, {"1"}])
        assert p.table == u.table
        assert p.element_names == u.element_names

    def test_element_order_cardinality_then_lex(self):
        m = power_set_monoid(2)
        assert m.element_names == ("{}", "{0}", "{1}", "{0,1}")

    def test_power_set_names_points_in_numeric_order(self):
        # from ten points on, string order would put "10" before "2"
        m = power_set_monoid(11)
        assert m.element_names[1:12] == tuple(f"{{{i}}}" for i in range(11))
        assert "{2,10}" in m.element_names
        assert "{10,2}" not in m.element_names
        assert m.element_names.index("{2,9}") < m.element_names.index("{2,10}")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sets(st.sampled_from("abcd")), min_size=1, max_size=4))
    def test_union_monoid_always_valid_and_idempotent(self, family):
        m = union_monoid(family)
        assert validate(m) == []
        assert all(m.mul(i, i) == i for i in range(m.size))
        assert m.identity_index == 0

    def test_groups_have_single_idempotent(self):
        for n in (1, 2, 3, 4, 6):
            assert idempotents(cyclic_group(n)) == [0]


class TestHelpers:
    def test_product_folds_in_order(self):
        m = cyclic_group(4)
        assert m.product([1, 1, 1]) == 3
        assert m.product([]) == 0

    def test_same_table(self):
        assert power_set_monoid(2).same_table(union_monoid([{"x"}, {"y"}]))
        assert not cyclic_group(2).same_table(cyclic_group(3))
