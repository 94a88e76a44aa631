"""Tests for the exact abelian-group engine.

Frozen expected values were produced by the brute-force oracles in
oracles.py (element enumeration) or by hand where the computation is one
line; each case says which.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moncoh import abelian
from moncoh import intmat as im
from moncoh.abelian import (
    AbHom,
    CochainComplex,
    CompositionNonzero,
    DirectSum,
    FgAbGroup,
    ShapeMismatch,
    TRIVIAL_GROUP,
    Z,
    Zmod,
    _composite_quotient,
    _free_row_rank,
    _sparse_diagonal,
    add_block,
    assemble_hom,
    cohomology_at,
    direct_sum_ngens,
    parse_group,
    presentation_to_canonical,
    smith_normal_form,
)
from moncoh.coeff import constant_system
from moncoh.leech import LeechComplex
from moncoh.monoid import cyclic_group, power_set_monoid

import oracles
from catalog import small_monoids, systems_for


def unfreeze(m):
    return [list(r) for r in m]


def check_snf_contract(a, dec):
    rows, cols = len(dec.u), len(dec.v)
    left = im.matmul(unfreeze(dec.u), [list(r) for r in a], cols_b=cols)
    prod = im.matmul(left, unfreeze(dec.v), cols_b=cols)
    assert prod == unfreeze(dec.d)
    assert abs(oracles.determinant(unfreeze(dec.u))) == 1
    assert abs(oracles.determinant(unfreeze(dec.v))) == 1
    assert im.matmul(unfreeze(dec.u), unfreeze(dec.u_inv), cols_b=rows) == im.identity(rows)
    diag = dec.diagonal
    for i, row in enumerate(dec.d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    assert all(x >= 0 for x in diag)
    seen_zero = False
    for x in diag:
        if x == 0:
            seen_zero = True
        else:
            assert not seen_zero, "zero diagonal entries must sit at the tail"
    nz = [x for x in diag if x]
    for a_, b_ in zip(nz, nz[1:]):
        assert b_ % a_ == 0


class TestSmithNormalForm:
    def test_zero_matrix(self):
        dec = smith_normal_form([[0, 0, 0], [0, 0, 0]])
        assert dec.d == ((0, 0, 0), (0, 0, 0))
        check_snf_contract([[0, 0, 0], [0, 0, 0]], dec)

    def test_identity(self):
        dec = smith_normal_form(im.identity(3))
        assert dec.diagonal == (1, 1, 1)

    def test_known_2x2(self):
        # oracle: d1 = gcd of entries = 2, d1*d2 = |det| = |2*8 - 4*6| = 8
        a = [[2, 4], [6, 8]]
        dec = smith_normal_form(a)
        assert dec.diagonal == (2, 4)
        check_snf_contract(a, dec)

    def test_rectangular(self):
        a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        dec = smith_normal_form(a)
        check_snf_contract(a, dec)

    def test_empty_shapes(self):
        dec = smith_normal_form([], shape=(0, 3))
        assert dec.v == im.freeze(im.identity(3))
        assert dec.d == ()
        dec2 = smith_normal_form([[], []], shape=(2, 0))
        assert dec2.u == im.freeze(im.identity(2))
        dec3 = smith_normal_form([], shape=(0, 0))
        assert dec3.d == ()

    @pytest.mark.parametrize("matrix, shape, message", [
        ([[1]], (2, 1), "expected 2 rows, got 1"),
        ([[1, 2], [3]], None, "ragged matrix")], ids=["short", "ragged"])
    def test_malformed_matrix_rejected(self, matrix, shape, message):
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            smith_normal_form(matrix, shape=shape)

    def test_divisibility_merge(self):
        # diag(2, 3) has invariant factors (1, 6)
        dec = smith_normal_form([[2, 0], [0, 3]])
        assert dec.diagonal == (1, 6)
        check_snf_contract([[2, 0], [0, 3]], dec)

    def test_deterministic(self):
        a = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
        assert smith_normal_form(a) == smith_normal_form(a)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5), st.data())
    def test_random_contract(self, rows, cols, data):
        a = [[data.draw(st.integers(-9, 9)) for _ in range(cols)]
             for _ in range(rows)]
        dec = smith_normal_form(a, shape=(rows, cols))
        check_snf_contract(a, dec)


class TestFgAbGroup:
    def test_render(self):
        assert TRIVIAL_GROUP.render() == "0"
        assert Z.render() == "Z"
        assert FgAbGroup(2, (2, 4)).render() == "Z^2 x Z/2 x Z/4"
        assert Zmod(6).render() == "Z/6"

    def test_parse_round_trip(self):
        for text in ["0", "Z", "Z^3", "Z/2", "Z x Z/5", "Z^2 x Z/2 x Z/4"]:
            assert parse_group(text).render() == text

    def test_parse_rejects(self):
        with pytest.raises(ValueError):
            parse_group("Z/2 x Z")
        with pytest.raises(ValueError):
            parse_group("Z/2 x Z/3")
        with pytest.raises(ValueError):
            parse_group("Q")

    @pytest.mark.parametrize("text", [
        "Z^1", "Z^0", "Z^02", "Z/04", "Z/2 x  Z/4", "Z x Z", "Z x Z^2"],
        ids=["rank_one", "rank_zero", "rank_leading_zero",
             "order_leading_zero", "double_space", "free_twice",
             "free_twice_ranked"])
    def test_parse_rejects_non_canonical_spellings(self, text):
        with pytest.raises(ValueError, match="canonical"):
            parse_group(text)

    def test_canonical_validation(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (1,))
        with pytest.raises(ValueError):
            FgAbGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FgAbGroup(-1, ())

    def test_from_invariants_merges(self):
        assert FgAbGroup.from_invariants([2, 3]) == Zmod(6)
        assert FgAbGroup.from_invariants([0, 2, 0, 4]) == FgAbGroup(2, (2, 4))
        assert FgAbGroup.from_invariants([1, 1, 0]) == Z
        assert FgAbGroup.from_invariants([6, 4]) == FgAbGroup(0, (2, 12))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0, 1, -1, 2, 4, 8, 16, 36,
                                               72, 210, 1024, 3 ** 7]),
                              st.integers(-60, 60)), max_size=9))
    def test_from_invariants_is_the_smith_diagonal(self, factors):
        # the cokernel of diag(factors), read off the dense Smith form
        n = len(factors)
        diag = [[factors[i] if i == j else 0 for j in range(n)]
                for i in range(n)]
        diagonal = smith_normal_form(diag, shape=(n, n)).diagonal
        assert FgAbGroup.from_invariants(factors) == FgAbGroup(
            diagonal.count(0), tuple(x for x in diagonal if x > 1))

    def test_from_invariants_needs_no_matrix(self, monkeypatch):
        monkeypatch.setattr(abelian, "smith_normal_form", None)
        assert FgAbGroup.from_invariants([2, 3] * 128) == \
            FgAbGroup(0, (6,) * 128)
        assert FgAbGroup.from_invariants([12, 0, 18, 8, 1, 27]) == \
            FgAbGroup(1, (6, 36, 216))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([0, 2, 3, 4, 5, 6, 8, 9, 12]), max_size=6))
    def test_canonicalization_idempotent(self, factors):
        g = FgAbGroup.from_invariants(factors)
        assert FgAbGroup.from_invariants(g.orders) == g

    def test_direct_sum(self):
        assert DirectSum.of([Zmod(2), Zmod(3)]).total == Zmod(6)
        assert DirectSum.of([Zmod(2), Zmod(4)]).total == FgAbGroup(0, (2, 4))
        assert DirectSum.of([Z, TRIVIAL_GROUP, Z]).total == FgAbGroup(2)


class TestAbHom:
    def test_well_definedness(self):
        with pytest.raises(ValueError):
            AbHom(Zmod(2), Z, ((1,),))
        with pytest.raises(ValueError):
            AbHom(Zmod(2), Zmod(4), ((1,),))
        AbHom(Zmod(2), Zmod(4), ((2,),))
        AbHom(Zmod(4), Zmod(2), ((1,),))
        # the first offending generator is named, whichever row shows it
        with pytest.raises(ValueError, match="generator 1 has order 2"):
            AbHom(FgAbGroup(1, (2, 2)), FgAbGroup(1, (4,)),
                  ((5, 0, 1), (0, 1, 2)))

    def test_shape_checks(self):
        with pytest.raises(ShapeMismatch):
            AbHom(Z, Z, ((1, 2),))
        with pytest.raises(ShapeMismatch):
            AbHom(Z, Z, ())

    def test_compose_and_identity(self):
        double = AbHom(Z, Z, ((2,),))
        triple = AbHom(Z, Z, ((3,),))
        assert double.compose(triple).matrix == ((6,),)
        assert AbHom.identity(Zmod(4)).compose(AbHom.identity(Zmod(4))).is_zero() is False
        with pytest.raises(ShapeMismatch):
            double.compose(AbHom.zero(Z, Zmod(2)))

    def test_zero_modulo_relations(self):
        h = AbHom(Z, Zmod(2), ((2,),))
        assert h.is_zero()
        assert h.equals(AbHom.zero(Z, Zmod(2)))
        assert not AbHom(Z, Zmod(2), ((1,),)).is_zero()
        # maps between different groups are never equal
        assert not AbHom.identity(Z).equals(AbHom.identity(Zmod(2)))

    def test_sparse_columns(self):
        h = AbHom(FgAbGroup(3), FgAbGroup(2), ((0, 2, 0), (0, -1, 0)))
        assert h.columns == ({}, {0: 2, 1: -1}, {})
        assert h.columns is h.columns  # computed once
        assert AbHom.zero(TRIVIAL_GROUP, Z).columns == ()
        # shared with cohomology_at, which must not consume them
        cohomology_at(AbHom.zero(TRIVIAL_GROUP, h.domain), h)
        cohomology_at(h, AbHom.zero(h.codomain, TRIVIAL_GROUP))
        assert h.columns == ({}, {0: 2, 1: -1}, {})


small_groups = st.lists(st.sampled_from([0, 2, 3, 4, 6]), max_size=3).map(
    FgAbGroup.from_invariants)


@st.composite
def homs(draw, dom, cod):
    """Well-defined dense rows dom -> cod, about half the entries zero."""
    rows = []
    for cord in cod.orders:
        row = []
        for dord in dom.orders:
            k = draw(st.sampled_from([0, 0, 1, -1, 2, -3]))
            if dord == 0:
                row.append(k)
            elif cord == 0:
                row.append(0)
            else:
                row.append(k * cord // math.gcd(dord, cord))
        rows.append(row)
    return rows


def error_of(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


class TestSparseRepresentation:
    @settings(max_examples=150, deadline=None)
    @given(small_groups, small_groups, st.data())
    def test_constructors_agree(self, dom, cod, data):
        rows = data.draw(homs(dom, cod))
        dense = AbHom(dom, cod, rows)
        # zeros included on purpose: from_columns must drop them
        sparse = AbHom.from_columns(
            dom, cod, [{i: rows[i][j] for i in range(cod.ngens)}
                       for j in range(dom.ngens)])
        assert dense == sparse and hash(dense) == hash(sparse)
        assert dense.columns == sparse.columns
        assert dense.matrix == sparse.matrix == im.freeze(rows)
        for h in (dense, sparse):
            assert all(x for col in h.columns for x in col.values())

    @settings(max_examples=150, deadline=None)
    @given(small_groups, small_groups, st.data())
    def test_adopted_columns_match_copied(self, dom, cod, data):
        # the private path assemble_hom uses keeps fresh maps instead of
        # copying them, and must build the same hom
        rows = data.draw(homs(dom, cod))
        given_cols = [{i: rows[i][j] for i in range(cod.ngens)}
                      for j in range(dom.ngens)]
        copied = AbHom.from_columns(dom, cod, given_cols)
        fresh = [dict(col) for col in given_cols]
        adopted = AbHom._adopt(dom, cod, fresh)
        assert copied == adopted and hash(copied) == hash(adopted)
        assert copied.columns == adopted.columns
        assert copied.matrix == adopted.matrix == im.freeze(rows)
        for h in (copied, adopted):
            assert all(x for col in h.columns for x in col.values())
        assert not any(a is b for a, b in zip(copied.columns, given_cols))
        assert all((a is b) is (0 not in b.values())
                   for a, b in zip(adopted.columns, fresh))

    @settings(max_examples=150, deadline=None)
    @given(small_groups, small_groups, st.data())
    def test_adopted_columns_checked_alike(self, dom, cod, data):
        entry = st.sampled_from([0, 0, 1, -1, 2, 3])
        cols = [{i: data.draw(entry) for i in range(cod.ngens + 1)}
                for _ in range(dom.ngens)]
        if data.draw(st.booleans()):
            for col in cols:
                col.pop(cod.ngens)
        copied = error_of(lambda: AbHom.from_columns(dom, cod, cols))
        adopted = error_of(lambda: AbHom._adopt(dom, cod, [dict(c) for c in cols]))
        assert copied == adopted

    @settings(max_examples=150, deadline=None)
    @given(small_groups, small_groups, small_groups, st.data())
    def test_operations_match_dense_references(self, a, b, c, data):
        inner = AbHom(a, b, data.draw(homs(a, b)))
        outer = AbHom(b, c, data.draw(homs(b, c)))
        other = AbHom(a, c, data.draw(homs(a, c)))
        prod = outer.compose(inner)
        assert prod.matrix == oracles.dense_compose(outer, inner).matrix
        # the product shifted by relations is equal to it as a hom
        shifted = AbHom(a, c, [
            [x + order * data.draw(st.integers(-2, 2)) for x in row]
            for order, row in zip(c.orders, prod.matrix)])
        for h in (inner, outer, other, prod, shifted):
            assert h.is_zero() is oracles.dense_is_zero(h)
        for x, y in ((prod, other), (prod, shifted), (other, prod)):
            assert x.equals(y) is oracles.dense_equals(x, y)
        assert prod.equals(shifted)

    @settings(max_examples=150, deadline=None)
    @given(small_groups, small_groups, st.data())
    def test_not_a_homomorphism_named_alike(self, dom, cod, data):
        entry = st.sampled_from([0, 0, 1, -1, 2, 3])
        rows = [[data.draw(entry) for _ in range(dom.ngens)]
                for _ in range(cod.ngens)]
        from_rows = error_of(lambda: AbHom(dom, cod, rows))
        from_cols = error_of(lambda: AbHom.from_columns(
            dom, cod, [{i: rows[i][j] for i in range(cod.ngens)}
                       for j in range(dom.ngens)]))
        assert from_rows == from_cols
        if from_rows is not None:
            assert from_rows.startswith("matrix does not define a homomorphism")

    def test_from_columns_shape_checks(self):
        with pytest.raises(ShapeMismatch):
            AbHom.from_columns(FgAbGroup(2), Z, [{0: 1}])
        with pytest.raises(ShapeMismatch):
            AbHom.from_columns(Z, Z, [{1: 1}])
        with pytest.raises(ShapeMismatch):
            AbHom.from_columns(Z, Z, [{-1: 1}])


class TestComposesToZero:
    """``_composite_quotient`` is the one proof that a composite is zero."""

    def test_zero_only_modulo_relations(self):
        # 6 into Z/6 is zero as a homomorphism, 3 is not; 6 = 6 * 1 puts -1
        # at row 1, after the middle group's one generator
        assert _composite_quotient(AbHom(Z, Zmod(6), ((6,),)),
                                   AbHom.identity(Z)) == [{1: -1}]
        assert _composite_quotient(AbHom(Z, Zmod(6), ((3,),)),
                                   AbHom.identity(Z)) is None
        with pytest.raises(ShapeMismatch):
            _composite_quotient(AbHom.identity(Z), AbHom.identity(Zmod(2)))

    def test_agrees_with_dense_product_randomized(self):
        rng = random.Random(11)
        pool = [TRIVIAL_GROUP, Z, FgAbGroup(2), Zmod(2), Zmod(4), Zmod(6),
                FgAbGroup(1, (2,)), FgAbGroup(0, (2, 4)), FgAbGroup(1, (3, 6))]
        seen = {True: 0, False: 0}
        for _ in range(300):
            a, b, c = (rng.choice(pool) for _ in range(3))
            inner = oracles.random_hom(rng, a, b, span=2)
            outer = oracles.random_hom(rng, b, c, span=2)
            if rng.random() < 0.3:
                inner = AbHom.zero(a, b)
            product = oracles.dense_compose(outer, inner)
            want = oracles.dense_is_zero(product)
            quotients = _composite_quotient(outer, inner)
            assert (quotients is not None) is want
            seen[want] += 1
            if quotients is None:
                continue
            # the product is R_N times minus the quotients, row m + k
            # holding the entry of torsion generator k of N
            m = b.ngens
            for j, y in enumerate(quotients):
                assert all(m <= r < m + len(c.torsion) for r in y)
                column = [product.matrix[i][j] for i in range(c.ngens)]
                assert column == [0] * c.free_rank + [
                    -order * y.get(m + k, 0) for k, order in enumerate(c.torsion)]
        assert min(seen.values()) >= 30


class TestAssembleHom:
    @staticmethod
    def assert_matches_reference(rng, dom, cod):
        src, tgt = DirectSum.of(dom), DirectSum.of(cod)
        columns = [{} for _ in range(src.presentation_size)]
        blocks = {}
        for ci, cg in enumerate(cod):
            for di, dg in enumerate(dom):
                if rng.random() < 0.6:
                    block = oracles.random_hom(rng, dg, cg)
                    blocks[(ci, di)] = block.matrix
                    add_block(columns, tgt.offsets[ci], src.offsets[di],
                              block.columns)
        got = assemble_hom(src, tgt, columns)
        want = oracles.dense_assemble_hom(dom, cod, blocks)
        assert (got.domain, got.codomain, got.matrix) == (
            want.domain, want.codomain, want.matrix)
        # the stored columns are the ones the dense view gives
        assert got.columns == AbHom(got.domain, got.codomain, got.matrix).columns

    def test_matches_dense_reference_on_merging_sums(self):
        # random blocks between direct sums whose orders merge (Z/2 + Z/3)
        # or already chain, against the dense change of basis
        rng = random.Random(5)
        pool = [Z, Zmod(2), Zmod(3), Zmod(4), Zmod(6), FgAbGroup(1, (2,)),
                FgAbGroup(0, (2, 2))]
        for _ in range(60):
            dom = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            cod = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            self.assert_matches_reference(rng, dom, cod)

    SUMS = [
        # the presentation generators already are the canonical ones
        [Z] * 3, [Zmod(6)] * 4, [FgAbGroup(2)], [Z, Zmod(2), Zmod(4)], [],
        # orders that chain out of order: a permutation
        [FgAbGroup(1, (2,))] * 3, [Zmod(2), Z], [Zmod(4), Zmod(2)],
        # orders that merge
        [Zmod(2), Zmod(3)], [FgAbGroup(1, (2,)), Zmod(3)], [Zmod(4), Zmod(6)],
    ]

    def test_identity_permuted_and_merging_sums_match_dense_reference(self):
        kinds = ["identity" if ds.is_canonical
                 else "merge" if ds.permutation is None else "permutation"
                 for ds in map(DirectSum.of, self.SUMS)]
        assert kinds == ["identity"] * 5 + ["permutation"] * 3 + ["merge"] * 3
        rng = random.Random(7)
        for dom in self.SUMS:
            for cod in self.SUMS:
                for _ in range(3):
                    self.assert_matches_reference(rng, dom, cod)

    def test_column_count_checked(self):
        ds = DirectSum.of([Z, Zmod(2)])
        with pytest.raises(ShapeMismatch):
            assemble_hom(ds, ds, [{}])


class TestCohomologyAt:
    def test_free_complex(self):
        d_in = AbHom.zero(TRIVIAL_GROUP, Z)
        d_out = AbHom(Z, Z, ((2,),))
        assert cohomology_at(d_in, d_out) == TRIVIAL_GROUP
        d_in2 = AbHom(Z, Z, ((2,),))
        d_out2 = AbHom.zero(Z, TRIVIAL_GROUP)
        assert cohomology_at(d_in2, d_out2) == Zmod(2)

    def test_torsion_middle(self):
        # oracle: ker(x2 on Z/4) = {0,2}; H = {0,2}/{0} = Z/2
        d_in = AbHom.zero(TRIVIAL_GROUP, Zmod(4))
        d_out = AbHom(Zmod(4), Zmod(4), ((2,),))
        assert cohomology_at(d_in, d_out) == Zmod(2)
        # oracle: {0,2}/{0,2} = 0, the middle relations must be in the image lattice
        d_in2 = AbHom(Z, Zmod(4), ((2,),))
        assert cohomology_at(d_in2, d_out) == TRIVIAL_GROUP

    @pytest.mark.parametrize("h, want", [
        # by hand: {x in Z/4 : 2x = 0} = {0, 2}
        (AbHom(Zmod(4), Zmod(4), ((2,),)), Zmod(2)),
        (AbHom(Z, Z, ((3,),)), TRIVIAL_GROUP),
        (AbHom(FgAbGroup(2), Z, ((1, 1),)), Z),
        (AbHom.zero(Zmod(4), Z), Zmod(4)),
        # Z -> Z/4 by 1 has kernel 4Z = Z
        (AbHom(Z, Zmod(4), ((1,),)), Z),
    ], ids=["mult_two_on_z4", "mult_three_on_z", "sum_z2_to_z",
            "zero_z4_to_z", "projection_z_to_z4"])
    def test_kernel_with_nothing_coming_in(self, h, want):
        assert cohomology_at(AbHom.zero(TRIVIAL_GROUP, h.domain), h) == want

    def test_errors(self):
        with pytest.raises(ShapeMismatch):
            cohomology_at(AbHom.zero(Z, Z), AbHom.zero(Zmod(2), Z))
        with pytest.raises(CompositionNonzero):
            cohomology_at(AbHom.identity(Z), AbHom.identity(Z))

    def test_composition_zero_modulo_relations_allowed(self):
        # d_out o d_in has matrix (2) into Z/2, which is the zero hom
        d_in = AbHom(Z, Z, ((2,),))
        d_out = AbHom(Z, Zmod(2), ((1,),))
        assert cohomology_at(d_in, d_out) == TRIVIAL_GROUP

    def test_enumeration_agreement_randomized(self):
        # module invariant: agreement with element-wise enumeration on
        # finite groups of order <= 200
        rng = random.Random(20260814)
        pool = [
            Zmod(2), Zmod(3), Zmod(4), Zmod(6), Zmod(8),
            FgAbGroup(0, (2, 2)), FgAbGroup(0, (2, 4)), FgAbGroup(0, (2, 6)),
            FgAbGroup(0, (3, 3)), FgAbGroup(0, (2, 2, 4)), FgAbGroup(0, (5, 5)),
            FgAbGroup(0, (2, 2, 2, 2)), Zmod(9), Zmod(12), FgAbGroup(0, (4, 4)),
        ]
        checked = 0
        for _ in range(60):
            mid = rng.choice(pool)
            cod = rng.choice(pool)
            assert oracles.group_order(mid) <= 200
            d_out = oracles.random_hom(rng, mid, cod)
            ker_elems, _ = oracles.brute_kernel_and_image(
                d_out.matrix, mid.orders, cod.orders)
            # d_in: free domain hitting random kernel elements
            n_cols = rng.randint(0, 3)
            cols = [rng.choice(ker_elems) for _ in range(n_cols)]
            dom = FgAbGroup(n_cols)
            mat = [[cols[c][r] for c in range(n_cols)] for r in range(mid.ngens)]
            d_in = AbHom(dom, mid, tuple(map(tuple, mat)))

            h = cohomology_at(d_in, d_out)
            exp = oracles.group_exponent(mid)
            if n_cols:
                # the subgroup generated by the columns: coefficients mod
                # the exponent of the ambient group are enough
                _, img_in = oracles.brute_kernel_and_image(
                    mat, (exp,) * n_cols, mid.orders)
            else:
                img_in = {tuple(0 for _ in mid.orders)}
            order, exponent = oracles.brute_quotient_order_and_exponent(
                mid.orders, ker_elems, img_in)
            assert oracles.group_order(h) == order
            assert oracles.group_exponent(h) == exponent
            checked += 1
        assert checked == 60


    def test_composite_nonzero_only_modulo_a_torsion_row(self):
        # d_out o d_in = (0, 2) in Z x Z/4: zero on the free row, but 2 is
        # not a multiple of 4 on the torsion row
        d_in = AbHom(Z, Z, ((1,),))
        d_out = AbHom(Z, FgAbGroup(1, (4,)), ((0,), (2,)))
        with pytest.raises(CompositionNonzero):
            cohomology_at(d_in, d_out)
        with pytest.raises(CompositionNonzero):
            oracles.lattice_cohomology_at(d_in, d_out)
        # doubling d_in makes the composite (0, 4), zero modulo the order;
        # ker(d_out) = 2Z = im(d_in2)
        d_in2 = AbHom(Z, Z, ((2,),))
        assert cohomology_at(d_in2, d_out) == TRIVIAL_GROUP
        assert oracles.lattice_cohomology_at(d_in2, d_out) == TRIVIAL_GROUP

    def test_lattice_oracle_agreement_randomized(self):
        # M = A + B through DirectSum (which merges Z/2 + Z/3 and the like),
        # d_in = emb_A o phi and d_out = psi o proj_B, then both conjugated
        # by random elementary automorphisms of M so the coordinates mix
        rng = random.Random(20261018)
        pool = [TRIVIAL_GROUP, Z, FgAbGroup(2), Zmod(2), Zmod(3), Zmod(4),
                FgAbGroup(1, (2,)), FgAbGroup(0, (2, 2)), Zmod(6),
                FgAbGroup(1, (3,)), FgAbGroup(0, (2, 4))]
        seen_free_mid = seen_torsion_mid = seen_torsion_dom = 0
        for _ in range(150):
            a, b, dom, cod = (rng.choice(pool) for _ in range(4))
            ds = DirectSum.of([a, b])
            d_in = ds.embedding(0).compose(oracles.random_hom(rng, dom, a))
            d_out = oracles.random_hom(rng, b, cod).compose(ds.projection(1))
            mid = ds.total
            for _ in range(4 if mid.ngens > 1 else 0):
                i, j = rng.sample(range(mid.ngens), 2)
                c = rng.choice([-2, -1, 1, 2, 3])
                fwd, back = im.identity(mid.ngens), im.identity(mid.ngens)
                fwd[i][j], back[i][j] = c, -c
                try:
                    t = AbHom(mid, mid, im.freeze(fwd))
                    t_inv = AbHom(mid, mid, im.freeze(back))
                except ValueError:
                    continue
                d_in, d_out = t.compose(d_in), d_out.compose(t_inv)
            assert cohomology_at(d_in, d_out) == oracles.lattice_cohomology_at(d_in, d_out)
            nothing_in = AbHom.zero(TRIVIAL_GROUP, mid)
            assert cohomology_at(nothing_in, d_out) == oracles.lattice_cohomology_at(
                nothing_in, d_out)
            seen_free_mid += mid.free_rank > 0
            seen_torsion_mid += bool(mid.torsion)
            seen_torsion_dom += bool(dom.torsion) and not d_in.is_zero()
        assert min(seen_free_mid, seen_torsion_mid, seen_torsion_dom) >= 20

    def test_lattice_oracle_agreement_on_kernel_lattices(self):
        # d_in's columns are random multiples of combinations of the lifted
        # kernel of a random d_out, so H has torsion from non-unit entries
        rng = random.Random(7)
        pool = [Z, FgAbGroup(2), FgAbGroup(3), FgAbGroup(1, (2,)),
                FgAbGroup(2, (4,)), FgAbGroup(1, (2, 6)), Zmod(4), Zmod(12)]
        for _ in range(80):
            mid, cod = rng.choice(pool), rng.choice(pool)
            d_out = oracles.random_hom(rng, mid, cod)
            span = oracles.kernel_membership_columns(
                d_out.matrix, mid.ngens, cod)
            n_cols = rng.randint(0, 4)
            cols = []
            for _ in range(n_cols):
                col = [0] * mid.ngens
                for k in range(im.num_cols(span)):
                    coef = rng.choice([0, 0, 1, -1, 2, 3, 6])
                    for r in range(mid.ngens):
                        col[r] += coef * span[r][k]
                cols.append(col)
            d_in = AbHom(FgAbGroup(n_cols), mid, im.freeze(
                [[cols[c][r] for c in range(n_cols)] for r in range(mid.ngens)]))
            assert cohomology_at(d_in, d_out) == oracles.lattice_cohomology_at(d_in, d_out)


@st.composite
def torsion_pairs(draw):
    """d_in, d_out with d_out after d_in zero: d_out is random from a group
    with torsion to one with a free summand, and d_in's columns are random
    combinations of the lifted kernel of d_out."""
    groups = st.lists(st.sampled_from([0, 2, 3, 4, 6]), min_size=1,
                      max_size=4).map(FgAbGroup.from_invariants)
    mid = draw(groups.filter(lambda g: bool(g.torsion)))
    cod = draw(groups.filter(lambda g: g.free_rank > 0))
    d_out = AbHom(mid, cod, draw(homs(mid, cod)))
    span = oracles.kernel_membership_columns(d_out.matrix, mid.ngens, cod)
    n_cols = draw(st.integers(0, 4))
    coef = st.sampled_from([0, 0, 1, -1, 2, 3])
    cols = []
    for _ in range(n_cols):
        col = [0] * mid.ngens
        for k in range(im.num_cols(span)):
            c = draw(coef)
            for r in range(mid.ngens):
                col[r] += c * span[r][k]
        cols.append(col)
    d_in = AbHom(FgAbGroup(n_cols), mid, im.freeze(
        [[cols[c][r] for c in range(n_cols)] for r in range(mid.ngens)]))
    return d_in, d_out


class TestComplexCohomology:
    def test_first_nonzero_pair_named(self):
        # d^1 d^0 = 8 is zero in Z/4 but d^2 d^1 = 2 is not; H^1 = 2Z / 4Z
        d = [AbHom(Z, Z, ((4,),)), AbHom(Z, Zmod(4), ((2,),)),
             AbHom(Zmod(4), Zmod(4), ((1,),))]
        with pytest.raises(KeyError) as caught:
            CochainComplex(Z, d, lambda k: KeyError(f"pair {k} to {k + 2}"))
        assert caught.value.args == ("pair 1 to 3",)
        engine = CochainComplex(Z, d[:2], lambda k: AssertionError("unused"))
        assert [engine.cohomology(n) for n in (1, 0)] == [Zmod(2), TRIVIAL_GROUP]


def dense_free_row_rank(d_out):
    """Rank of the free rows of d_out, by the dense Smith form."""
    free = [list(row) for row in d_out.matrix[:d_out.codomain.free_rank]]
    return smith_normal_form(free, shape=(len(free), d_out.domain.ngens)).rank


class TestTopRankBound:
    @settings(max_examples=200, deadline=None)
    @given(torsion_pairs())
    def test_cone_bounds_the_free_row_rank(self, pair):
        # the engine's bound m - rank B_1 is at least rank F(d_out), and
        # meets it exactly when H^1 has no free part
        d_in, d_out = pair
        engine = CochainComplex(d_in.domain, (d_in, d_out), AssertionError)
        group = engine.cohomology(1)
        bound = d_out.domain.ngens - len(engine._cone_diagonal(1))
        rank = dense_free_row_rank(d_out)
        assert bound >= rank
        assert (bound == rank) == (group.free_rank == 0)
        assert cohomology_at(d_in, d_out) == oracles.lattice_cohomology_at(d_in, d_out)


ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 1, 2, -2, 3, -3, 4, 5, 6, -6, 9])


@st.composite
def integer_matrices(draw, max_rows=7, max_cols=7):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    return [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]


def sparse_columns_of(matrix):
    cols = len(matrix[0]) if matrix else 0
    return [{i: row[j] for i, row in enumerate(matrix) if row[j]}
            for j in range(cols)]


class TestFieldRank:
    def test_bit_sliced_sum_and_difference_on_all_nine_pairs(self):
        # rows (a, 1) and (b, +-1) share their leading column, so the second
        # is reduced to (b - a, 0) or (b + a, 0) by the bit-sliced F_3 sum
        for a, b in itertools.product(range(3), repeat=2):
            for sign, reduced in ((1, b - a), (-1, b + a)):
                cols = [{0: a, 1: b}, {0: 1, 1: sign}]
                assert abelian._field_rank(cols, (3,), 2) == (
                    2 if reduced % 3 else 1), (a, b, sign)

    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_rank_over_each_field_matches_the_oracle(self, matrix):
        cols = sparse_columns_of(matrix)
        n = len(cols)
        two, three = oracles.fp_rank(matrix, 2), oracles.fp_rank(matrix, 3)
        assert abelian._field_rank(cols, (2,), n) == two
        assert abelian._field_rank(cols, (3,), n) == three
        assert abelian._field_rank(cols, (2, 3), n) == max(two, three)

    @settings(max_examples=200, deadline=None)
    @given(integer_matrices(), st.integers(1, 7))
    def test_stops_at_the_bound(self, matrix, bound):
        cols = sparse_columns_of(matrix)
        best = max(oracles.fp_rank(matrix, 2), oracles.fp_rank(matrix, 3))
        assert abelian._field_rank(cols, (2, 3), bound) == min(best, bound)


def exact_free_row_rank(d_out):
    free = d_out.codomain.free_rank
    return len(_sparse_diagonal(
        [{i: v for i, v in col.items() if i < free} for col in d_out.columns]))


@st.composite
def catalog_top_maps(draw):
    """A differential of a catalog complex."""
    m = draw(st.sampled_from(small_monoids()))
    system = draw(st.sampled_from(systems_for(
        m, [Z, Zmod(2), Zmod(3), Zmod(6), FgAbGroup(1, (2,)), FgAbGroup(2)])))
    n = draw(st.integers(0, 3 if m.size <= 3 else 2))
    return LeechComplex(m, system, n + 1).differential(n)


def random_map(matrix):
    cols = len(matrix[0]) if matrix else 0
    return AbHom(FgAbGroup(cols), FgAbGroup(len(matrix)), matrix)


class TestCertifiedTopRank:
    """``_free_row_rank`` reports an F_p rank only when it meets the bound,
    and otherwise eliminates exactly."""

    @settings(max_examples=150, deadline=None)
    @given(catalog_top_maps())
    def test_certified_and_exact_agree_on_catalog_maps(self, d_out):
        assert _free_row_rank(d_out, d_out.domain.ngens) == (
            exact_free_row_rank(d_out))

    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_certified_and_exact_agree_on_random_maps(self, matrix):
        d_out = random_map(matrix)
        got = _free_row_rank(d_out, d_out.domain.ngens)
        assert got == exact_free_row_rank(d_out) == dense_free_row_rank(d_out)

    @staticmethod
    def every_bound_gives_the_rank(d_out):
        rank = dense_free_row_rank(d_out)
        return all(_free_row_rank(d_out, b) == rank
                   for b in range(rank, d_out.domain.ngens + 3))

    @settings(max_examples=150, deadline=None)
    @given(catalog_top_maps())
    def test_every_bound_from_the_rank_up_on_catalog_maps(self, d_out):
        assert self.every_bound_gives_the_rank(d_out)

    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_every_bound_from_the_rank_up_on_random_maps(self, matrix):
        assert self.every_bound_gives_the_rank(random_map(matrix))

    @staticmethod
    def count_eliminations(monkeypatch):
        """One entry per elimination, True when it ranks a top map."""
        calls, top = [], []
        real_diagonal = abelian._sparse_diagonal
        real_rank = abelian._free_row_rank

        def counted(columns):
            calls.append(bool(top))
            return real_diagonal(columns)

        def ranked(d_out, bound):
            top.append(d_out)
            rank = real_rank(d_out, bound)
            top.pop()
            return rank

        monkeypatch.setattr(abelian, "_sparse_diagonal", counted)
        monkeypatch.setattr(abelian, "_free_row_rank", ranked)
        return calls

    def test_bound_counts_only_columns_with_a_free_row(self, monkeypatch):
        # over Z x Z/2 the top d^4 of Z/4 has 162 columns, and only its 81
        # free ones reach a free row; the cone B_4 has rank 102, so the
        # bound is 162 - 102 = 60, which a field rank reaches, and no
        # elimination runs for the top
        m = cyclic_group(4)
        cx = LeechComplex(m, constant_system(m, FgAbGroup(1, (2,))), 5)
        assert [cx.cohomology(n).render() for n in range(4)] == [
            "Z x Z/2", "Z/2", "Z/2 x Z/4", "Z/2"]
        calls = self.count_eliminations(monkeypatch)
        assert cx.cohomology(4).render() == "Z/2 x Z/4"
        assert calls == []

    def test_free_cohomology_falls_back(self, monkeypatch):
        # d_out = (1, 1) on Z^2 has a kernel over Q, so H^1 = Z and no field
        # rank reaches the bound 2 - rank B_1 = 2
        calls = self.count_eliminations(monkeypatch)
        d_out = AbHom(FgAbGroup(2), Z, ((1, 1),))
        assert cohomology_at(AbHom.zero(TRIVIAL_GROUP, FgAbGroup(2)), d_out) == Z
        assert calls.count(True) == 1

    def test_invariant_factor_six_falls_back(self, monkeypatch):
        # H^4(Z/6; Z) = Z/6 is the torsion of the top d^3's cokernel, so its
        # F_2 and F_3 ranks both come one short of the bound m - rank B_3
        m = cyclic_group(6)
        cx = LeechComplex(m, constant_system(m, Z), 4)
        assert [cx.cohomology(n).render() for n in range(3)] == [
            "Z", "0", "Z/6"]
        top = cx.differential(3)
        bound = top.domain.ngens - len(cx._cone_diagonal(3))
        kept = [c for c in top.columns if c]
        for p in (2, 3):
            assert abelian._field_rank(kept, (p,), bound) == bound - 1
        calls = self.count_eliminations(monkeypatch)
        assert cx.cohomology(3) == TRIVIAL_GROUP
        assert calls == [True]

    def test_field_rank_one_short_falls_back(self, monkeypatch):
        systems = [(m, c) for m in small_monoids()
                   for c in systems_for(m, [Z, Zmod(6), FgAbGroup(1, (2,))])]
        tables = [[LeechComplex(m, c, 4).cohomology(n) for n in range(4)]
                  for m, c in systems]
        calls = self.count_eliminations(monkeypatch)
        monkeypatch.setattr(abelian, "_field_rank",
                            lambda columns, primes, bound: bound - 1)
        for (m, c), table in zip(systems, tables):
            cx = LeechComplex(m, c, 4)
            assert [cx.cohomology(n) for n in range(4)] == table, m.name
        assert True in calls

    def test_top_map_with_no_free_row_runs_no_elimination(self, monkeypatch):
        # H^*(P(1); Z) = Z, 0, 0: the top d^2 is zero, so its rank is 0 with
        # nothing to eliminate, and B_2 was eliminated once, for H^1
        m = power_set_monoid(1)
        cx = LeechComplex(m, constant_system(m, Z), 3)
        assert [cx.cohomology(n) for n in range(2)] == [Z, TRIVIAL_GROUP]
        calls = self.count_eliminations(monkeypatch)
        assert cx.cohomology(2) == TRIVIAL_GROUP
        assert calls == []


UNIT_FREE = st.sampled_from([0, 0, 0, 2, -2, 3, -3, 4, 6, 9, 10, 15])


@st.composite
def unit_free_matrices(draw):
    """A tall (up to 40 x 4) or wide (up to 4 x 40) matrix with no unit
    entry, and its number of columns."""
    short, long = draw(st.integers(0, 4)), draw(st.integers(0, 40))
    rows, cols = (long, short) if draw(st.booleans()) else (short, long)
    row = st.lists(UNIT_FREE, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows)), cols


@contextlib.contextmanager
def no_dense_matrices():
    """Make the dense Smith form and every intmat builder raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a dense matrix was built")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(abelian, "smith_normal_form", refuse)
        for name in ("zeros", "identity", "freeze", "matmul"):
            patch.setattr(im, name, refuse)
        yield


class TestSparseDiagonal:
    @staticmethod
    def canonical(diag):
        nonzero = [x for x in diag if x]
        return len(nonzero), FgAbGroup.from_invariants(nonzero)

    def sparse_columns(self, a, cols):
        return [{i: row[j] for i, row in enumerate(a) if row[j]}
                for j in range(cols)]

    def test_empty_and_zero_shapes(self):
        assert _sparse_diagonal([]) == []  # n x 0
        assert _sparse_diagonal([{}, {}, {}]) == []  # 0 x n and all-zero

    def test_divisor_pivots_and_residual(self):
        # [[2, 4], [6, 8]]: 2 divides its row and column, the Schur
        # complement is 8 - 6 * 4 / 2 = -4
        assert self.canonical(_sparse_diagonal([{0: 2, 1: 6}, {0: 4, 1: 8}])) == (
            2, FgAbGroup(0, (2, 4)))
        # 2 at row 0 is a divisor pivot; no entry of [[2, 3], [3, 2]]
        # divides its row, so that block takes Euclid steps: (1, 5)
        cols = [{0: 2}, {1: 2, 2: 3}, {1: 3, 2: 2}]
        assert self.canonical(_sparse_diagonal(cols)) == (3, Zmod(10))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 7), st.integers(0, 7), st.data())
    def test_matches_smith_normal_form(self, rows, cols, data):
        entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, 4, 6, -9])
        a = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
        want = smith_normal_form(a, shape=(rows, cols)).diagonal
        got = _sparse_diagonal(self.sparse_columns(a, cols))
        assert self.canonical(got) == self.canonical(want)

    @settings(max_examples=200, deadline=None)
    @given(unit_free_matrices())
    def test_unit_free_matches_smith_normal_form(self, case):
        a, cols = case
        want = smith_normal_form(a, shape=(len(a), cols)).diagonal
        with no_dense_matrices():
            got = _sparse_diagonal(self.sparse_columns(a, cols))
        assert self.canonical(got) == self.canonical(want)

    def test_tall_residual_builds_no_dense_matrix(self):
        # twenty copies of [[2, 3], [3, 2]] and of twice it, stacked: no
        # entry divides its row or column
        block = [[2, 3], [3, 2]] * 20 + [[4, 6], [6, 4]] * 20
        d_in = AbHom(FgAbGroup(2), FgAbGroup(80), block)
        d_out = AbHom.zero(FgAbGroup(80), Zmod(4))
        want = oracles.lattice_cohomology_at(d_in, d_out)
        with no_dense_matrices():
            assert cohomology_at(d_in, d_out) == want == FgAbGroup(78, (5,))

    def test_torsion_cones_build_no_dense_matrix(self):
        # H^*(Z/8; Z/6) = Z/6, then Z/2 in each degree; no unit or divisor
        # pivot finishes these cones, so each takes Euclid steps
        m = cyclic_group(8)
        cx = LeechComplex(m, constant_system(m, Zmod(6)), 4)
        with no_dense_matrices():
            table = [cx.cohomology(n).render() for n in range(4)]
        assert table == ["Z/6", "Z/2", "Z/2", "Z/2"]


class TestPresentationAndDirectSum:
    @staticmethod
    def dense(group, to_can, from_can):
        """The sparse change of basis as dense matrices: to_canonical is
        canonical x presentation, from_canonical presentation x canonical."""
        n = len(to_can)
        to_mat = im.zeros(group.ngens, n)
        from_mat = im.zeros(n, group.ngens)
        for p in range(n):
            for k, v in to_can[p].items():
                to_mat[k][p] = v
            for k, v in from_can[p].items():
                from_mat[p][k] = v
        return to_mat, from_mat

    def test_permutation_fast_path(self):
        group, to_can, from_can = presentation_to_canonical([0, 2, 0, 2])
        assert group == FgAbGroup(2, (2, 2))
        to_mat, from_mat = self.dense(group, to_can, from_can)
        assert im.matmul(to_mat, from_mat) == im.identity(4)
        # one entry per generator, the same maps in both directions
        assert to_can is from_can
        assert to_can == ({0: 1}, {2: 1}, {1: 1}, {3: 1})

    def test_merge_path(self):
        group, to_can, from_can = presentation_to_canonical([2, 3])
        assert group == Zmod(6)
        to_mat, from_mat = self.dense(group, to_can, from_can)
        prod = im.matmul(to_mat, from_mat)
        assert prod == [[1]] or (prod[0][0] - 1) % 6 == 0

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([0, 1, 2, 3, 4, 6]), max_size=5))
    def test_round_trip_identities(self, orders):
        group, to_can, from_can = presentation_to_canonical(orders)
        n = len(orders)
        assert len(to_can) == len(from_can) == n
        to_mat, from_mat = self.dense(group, to_can, from_can)
        # the same change of basis as the dense reference
        assert (group, to_mat, from_mat) == oracles.dense_presentation_to_canonical(orders)
        # to o from == identity modulo the canonical relations
        tf = im.matmul(to_mat, from_mat, cols_b=group.ngens)
        for j, o in enumerate(group.orders):
            for i in range(group.ngens):
                want = 1 if i == j else 0
                got = tf[i][j]
                assert got == want if o == 0 else (got - want) % o == 0
        # from o to == identity modulo the presentation relations
        ft = im.matmul(from_mat, to_mat, cols_b=n)
        for j, o in enumerate(orders):
            for i in range(n):
                want = 1 if i == j else 0
                got = ft[i][j]
                assert got == want if orders[i] == 0 else (got - want) % orders[i] == 0
        # no stored zeros
        assert all(all(m.values()) for m in to_can + from_can)

    NGENS_POOL = [Z, Zmod(2), Zmod(5), Zmod(12), Zmod(18), FgAbGroup(1, (2, 6)),
                  FgAbGroup(0, (3, 9)), Zmod(2 ** 61 - 1),
                  Zmod((2 ** 61 - 1) * (2 ** 31 - 1) * 6)]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(NGENS_POOL), st.integers(1, 3)),
                    max_size=4))
    def test_generator_count_matches_direct_sum(self, pairs):
        multiplicity = {}
        for g, k in pairs:
            multiplicity[g] = multiplicity.get(g, 0) + k
        groups = [g for g, k in multiplicity.items() for _ in range(k)]
        assert direct_sum_ngens(multiplicity) == \
            DirectSum.of(groups).total.ngens

    def test_generator_count_of_huge_sums(self):
        # counted, never built, and no order is factored
        big = 2 ** 127 - 1
        assert direct_sum_ngens({Zmod(6): 10 ** 12, Zmod(big): 3, Z: 5}) == 5 + 10 ** 12
        assert direct_sum_ngens({Zmod(big * 3): 2, Zmod(big ** 2): 4}) == 6
        assert direct_sum_ngens({}) == 0

    def test_direct_sum_embeddings(self):
        ds = DirectSum.of([Z, Zmod(2), Zmod(6)])
        assert ds.total == FgAbGroup(1, (2, 6))
        n = len(ds.components)
        for i in range(n):
            for j in range(n):
                comp = ds.projection(i).compose(ds.embedding(j))
                if i == j:
                    assert comp.equals(AbHom.identity(ds.components[i]))
                else:
                    assert comp.is_zero()
        total = im.zeros(ds.total.ngens, ds.total.ngens)
        for i in range(n):
            total = oracles.madd(
                total, ds.embedding(i).compose(ds.projection(i)).matrix)
        assert AbHom(ds.total, ds.total, total).equals(AbHom.identity(ds.total))

    def test_direct_sum_merging_components(self):
        ds = DirectSum.of([Zmod(2), Zmod(3)])
        assert ds.total == Zmod(6)
        comp = ds.projection(0).compose(ds.embedding(0))
        assert comp.equals(AbHom.identity(Zmod(2)))


def raised(exc_type, build):
    """The text of the ``exc_type`` that ``build()`` raises."""
    with pytest.raises(exc_type) as info:
        build()
    assert type(info.value) is exc_type
    return str(info.value)


class TestPinnedErrors:
    """Exact messages of the group and homomorphism checks, including
    which offender each one names."""

    @pytest.mark.parametrize("torsion, message", [
        ((2, 1, 0), "torsion invariant 1 < 2 is not canonical"),
        ((0, 1), "torsion invariant 0 < 2 is not canonical"),
        ((2, -4, 4), "torsion invariant -4 < 2 is not canonical"),
        # units are reported before a broken chain, wherever they sit
        ((4, 2, 1), "torsion invariant 1 < 2 is not canonical"),
        ((2, 4, 6, 12, 8), "torsion chain broken: 4 does not divide 6"),
        ((6, 4), "torsion chain broken: 6 does not divide 4"),
        # equal first and last entries do not make a chain
        ((2, 3, 2), "torsion chain broken: 2 does not divide 3"),
        ((6, 4, 6), "torsion chain broken: 6 does not divide 4"),
    ])
    def test_group_invariants(self, torsion, message):
        assert raised(ValueError, lambda: FgAbGroup(0, torsion)) == message

    def test_group_fields(self):
        assert raised(ValueError, lambda: FgAbGroup(-1, (1,))) == \
            "free rank must be nonnegative"
        g = FgAbGroup(1, [2, 4, 4])
        assert g.torsion == (2, 4, 4) and type(g.torsion) is tuple
        assert g.orders == (0, 2, 4, 4) and g.ngens == 4
        assert FgAbGroup(0, (3,) * 5).torsion == (3,) * 5

    # domain Z x Z/2 x Z/2 x Z/4 into Z x Z/2 x Z/4 x Z/8: row 0 is free,
    # row 1 has an order dividing both 2 and 4, row 2 divides 4 but not 2,
    # row 3 divides neither
    DOM, COD = FgAbGroup(1, (2, 2, 4)), FgAbGroup(1, (2, 4, 8))
    GOOD = [{0: 3, 3: 5}, {1: 1, 3: 4}, {2: 2, 3: -4}, {1: 1, 2: 3, 3: 2}]

    @pytest.mark.parametrize("changes, generator", [
        ({1: {0: 1}}, 1),          # a free row
        ({1: {2: 1}}, 1),          # order 4 does not divide 2
        ({2: {3: 2}}, 2),          # order 8 does not divide 2 * 2
        ({3: {3: 1}}, 3),          # order 8 does not divide 4 * 1
        ({3: {0: -2}}, 3),
        ({2: {3: 2}, 3: {0: 1}}, 2),   # the first offender is named
        ({1: {3: -4}, 3: {3: 1}}, 3),  # row 3 allows 2 * -4
    ])
    def test_hom_names_first_generator_not_annihilated(self, changes, generator):
        cols = [dict(col) for col in self.GOOD]
        for j, entries in changes.items():
            cols[j].update(entries)
        order = self.DOM.orders[generator]
        message = (f"matrix does not define a homomorphism: generator "
                   f"{generator} has order {order} but column {generator} "
                   f"is not annihilated")
        rows = [[cols[j].get(i, 0) for j in range(self.DOM.ngens)]
                for i in range(self.COD.ngens)]
        assert raised(ValueError, lambda: AbHom(self.DOM, self.COD, rows)) == message
        assert raised(ValueError, lambda: AbHom.from_columns(
            self.DOM, self.COD, cols)) == message
        assert raised(ValueError, lambda: AbHom._adopt(
            self.DOM, self.COD, [dict(c) for c in cols])) == message

    def test_well_defined_homs_accepted(self):
        h = AbHom.from_columns(self.DOM, self.COD, self.GOOD)
        assert h.columns == tuple(self.GOOD)
        # every row of the codomain divides the domain order: nothing fails
        AbHom.from_columns(FgAbGroup(0, (2,) * 4), FgAbGroup(0, (2,) * 3),
                           [{0: 1, 2: 3}, {}, {1: -1}, {0: 1, 1: 1, 2: 1}])
        # free domain generators may go anywhere
        AbHom.from_columns(FgAbGroup(2), FgAbGroup(1, (3,)), [{0: 7, 1: 2}, {1: 1}])

    def test_adopt_messages(self):
        assert raised(ShapeMismatch, lambda: AbHom._adopt(
            FgAbGroup(2), Z, [{0: 1}])) == "1 columns, domain has 2 generators"
        for cols in ([{1: 1}], [{-1: 1}], [{0: 1, 2: 0, 1: 3}]):
            assert raised(ShapeMismatch, lambda: AbHom._adopt(
                Z, Z, [dict(c) for c in cols])) == \
                "column entry outside the 1 codomain generators"
        assert raised(ShapeMismatch, lambda: AbHom._adopt(
            FgAbGroup(3), Zmod(2), [{}, {0: 1}, {5: 2}])) == \
            "column entry outside the 1 codomain generators"
        # the row range is checked before well-definedness
        assert raised(ShapeMismatch, lambda: AbHom._adopt(
            FgAbGroup(0, (2, 2)), Z, [{0: 1}, {4: 1}])) == \
            "column entry outside the 1 codomain generators"

    def test_out_of_range_zero_entries_dropped(self):
        for build in (AbHom.from_columns, AbHom._adopt):
            h = build(FgAbGroup(3), FgAbGroup(2),
                      [{0: 1, 5: 0}, {-1: 0}, {1: 2, 0: 0, 2: 0}])
            assert h.columns == ({0: 1}, {}, {1: 2})
            assert h.matrix == ((1, 0, 0), (0, 0, 2))
        fresh = [{0: 1}, {1: 0, 0: 2}]
        adopted = AbHom._adopt(FgAbGroup(2), FgAbGroup(2), fresh)
        assert adopted.columns[0] is fresh[0]
        assert adopted.columns[1] == {0: 2} and fresh[1] == {1: 0, 0: 2}


_SUM_POOL = [TRIVIAL_GROUP, Z, Zmod(2), Zmod(3), Zmod(4), Zmod(6),
             FgAbGroup(1, (2,)), FgAbGroup(0, (2, 4)), FgAbGroup(2, (6,))]
_CHAIN_POOL = [TRIVIAL_GROUP, Z, Zmod(2), Zmod(4), FgAbGroup(1, (2,)),
               FgAbGroup(0, (2, 4)), FgAbGroup(1, (4, 8))]

direct_sum_components = st.one_of(
    # copies of one group, as in every cochain group of a constant system
    st.tuples(st.sampled_from(_SUM_POOL), st.integers(0, 7)).map(
        lambda gk: [gk[0]] * gk[1]),
    # orders that chain, in any order
    st.lists(st.sampled_from(_CHAIN_POOL), max_size=6),
    # anything, merging sums included
    st.lists(st.sampled_from(_SUM_POOL), max_size=6))


class TestDirectSumAgainstDenseReference:
    @settings(max_examples=300, deadline=None)
    @given(direct_sum_components)
    def test_matches_dense_presentation_to_canonical(self, components):
        ds = DirectSum.of(components)
        orders = [o for g in components for o in g.orders]
        group, to_mat, from_mat = oracles.dense_presentation_to_canonical(orders)
        assert ds.total == group
        assert ds.components == tuple(components)
        assert list(ds.offsets) == [0] + list(itertools.accumulate(
            g.ngens for g in components))
        assert TestPresentationAndDirectSum.dense(
            group, ds.to_total, ds.from_total) == (to_mat, from_mat)
        assert all(all(m.values()) for m in ds.to_total + ds.from_total)
        tors = sorted(o for o in orders if o)
        if all(b % a == 0 for a, b in zip(tors, tors[1:])):
            # the orders chain: each generator goes to one canonical index
            assert ds.to_total is ds.from_total
            assert ds.permutation == tuple(
                [row[p] for row in to_mat].index(1) for p in range(len(orders)))
        else:
            assert ds.permutation is None
        assert ds.is_canonical == (tuple(orders) == group.orders)
        assert ds.is_canonical == (ds.permutation == tuple(range(len(orders))))


def _first_not_annihilated(domain, codomain, columns):
    """The well-definedness message by the plain per-entry scan, or None."""
    orders = codomain.orders
    for j, d in enumerate(domain.orders):
        if d and any(orders[r] == 0 or d * x % orders[r]
                     for r, x in columns[j].items() if x):
            return (f"matrix does not define a homomorphism: generator {j} "
                    f"has order {d} but column {j} is not annihilated")
    return None


mixed_groups = st.lists(st.sampled_from([0, 2, 3, 4, 6, 8, 12]),
                        max_size=4).map(FgAbGroup.from_invariants)


@settings(max_examples=300, deadline=None)
@given(mixed_groups, mixed_groups, st.data())
def test_well_definedness_matches_per_entry_scan(dom, cod, data):
    entry = st.sampled_from([0, 1, -1, 2, 3, 4, 6, 8, 12])
    cols = [{i: data.draw(entry) for i in range(cod.ngens)
             if data.draw(st.booleans())} for _ in range(dom.ngens)]
    assert error_of(lambda: AbHom.from_columns(dom, cod, cols)) == \
        _first_not_annihilated(dom, cod, cols)


def test_direct_sum_change_of_basis_built_on_first_read(monkeypatch):
    calls = []
    real = abelian.smith_normal_form
    monkeypatch.setattr(abelian, "smith_normal_form",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    merged = DirectSum.of([Zmod(2), Zmod(3)] * 4)
    assert merged.total == FgAbGroup(0, (6,) * 4)
    assert merged.permutation is None and not merged.is_canonical
    assert not calls
    to_total = merged.to_total
    assert len(calls) == 1
    assert merged.to_total is to_total and merged.from_total is not to_total
    assert len(calls) == 1
    chained = DirectSum.of([FgAbGroup(1, (2,))] * 3)
    assert chained.permutation == (0, 3, 1, 4, 2, 5)
    assert "_basis_change" not in vars(chained)
    assert chained.to_total is chained.from_total
    assert chained.to_total == ({0: 1}, {3: 1}, {1: 1}, {4: 1}, {2: 1}, {5: 1})
    assert len(calls) == 1


def test_compose_after_a_zero_map_reads_no_column(monkeypatch):
    # every product column is the fresh empty map, whatever the inner map
    monkeypatch.setattr(abelian, "_apply_sparse", None)
    inner = AbHom(FgAbGroup(2), FgAbGroup(1, (4,)), ((1, 2), (3, 0)))
    prod = AbHom.zero(inner.codomain, Zmod(2)).compose(inner)
    assert prod == AbHom.zero(FgAbGroup(2), Zmod(2))
    assert prod.columns == ({}, {}) and prod.columns[0] is not prod.columns[1]


class TestIntegerEntriesOnly:
    """The public AbHom constructors take int entries and no bool, the rule
    of document matrices; Zmod takes n >= 1."""

    @pytest.mark.parametrize("entry", [0.5, 1.0, 0.0, True, False])
    def test_dense_constructors_reject(self, entry):
        for build in (AbHom, AbHom.from_rows):
            with pytest.raises(ValueError, match=f"entry {entry!r} is not"):
                build(Zmod(4), Zmod(4), [[entry]])

    @pytest.mark.parametrize("entry", [1.5, 2.0, True])
    def test_from_columns_rejects(self, entry):
        with pytest.raises(ValueError, match=f"entry {entry!r} is not"):
            AbHom.from_columns(FgAbGroup(2), Z, [{0: 1}, {0: entry}])

    def test_first_offender_is_named(self):
        with pytest.raises(ValueError, match="entry 2.5 is not"):
            AbHom(FgAbGroup(2), FgAbGroup(2), [[1, 2.5], [True, 3]])

    def test_float_no_longer_reaches_the_engine(self):
        with pytest.raises(ValueError, match="entry 1.5 is not"):
            cohomology_at(AbHom(Z, Z, [[1.5]]), AbHom.zero(Z, Z))

    def test_int_subclasses_other_than_bool_are_integers(self):
        class Count(int):
            pass

        assert AbHom(Z, Z, [[Count(3)]]) == AbHom(Z, Z, [[3]])
        assert AbHom.from_columns(Z, Z, [{0: Count(3)}]) == AbHom(Z, Z, [[3]])
        assert AbHom.from_columns(Z, FgAbGroup(2), [{Count(1): 2}]) == AbHom(
            Z, FgAbGroup(2), [[0], [2]])
        assert FgAbGroup(Count(1), (Count(2),)) == FgAbGroup(1, (2,))

    @pytest.mark.parametrize("key", [0.5, 1.0, True, False, "0"])
    def test_from_columns_rejects_row_keys(self, key):
        # a float key once passed the range test and then read as zero
        with pytest.raises(ValueError, match=f"^row key {key!r} is not an integer$"):
            AbHom.from_columns(Z, FgAbGroup(2), [{key: 1}])

    def test_non_integer_row_key_no_longer_reaches_the_engine(self):
        with pytest.raises(ValueError, match="^row key 0.5 is not an integer$"):
            cohomology_at(AbHom.zero(TRIVIAL_GROUP, Z),
                          AbHom.from_columns(Z, FgAbGroup(2), [{0.5: 1}]))

    @pytest.mark.parametrize("free, torsion, bad", [
        (0, (2.5,), "2.5"), (True, (2,), "True"), (0, (2, 4.0), "4.0"),
        (1.0, (), "1.0"), (0, (False,), "False")])
    def test_groups_reject_non_integer_invariants(self, free, torsion, bad):
        # (0, (2.5,)) rendered Z/2 and (True, (2,)) Z x Z/2 before
        with pytest.raises(ValueError,
                           match=f"^group invariant {bad} is not an integer$"):
            FgAbGroup(free, torsion)

    @pytest.mark.parametrize("n", [0, -1, -4])
    def test_zmod_rejects_nonpositive(self, n):
        with pytest.raises(ValueError, match=f"Z/{n} needs n >= 1"):
            Zmod(n)

    def test_zmod_one_is_trivial(self):
        assert Zmod(1) == TRIVIAL_GROUP
        assert Zmod(6) == FgAbGroup(0, (6,))

    @pytest.mark.parametrize("factors, bad", [
        ([2.5, 3], "2.5"), ([True, 4], "True"), ([0, 6.0], "6.0"),
        ((2, -1.5), "-1.5")])
    def test_from_invariants_rejects_non_integers(self, factors, bad):
        # int() would read [2.5, 3] as Z/6 and [True, 4] as Z/4
        with pytest.raises(ValueError,
                           match=f"^group invariant {bad} is not an integer$"):
            FgAbGroup.from_invariants(factors)

    @pytest.mark.parametrize("n, bad", [(True, "True"), (2.5, "2.5"),
                                        (6.0, "6.0")])
    def test_zmod_rejects_non_integers(self, n, bad):
        # True passes n >= 1 and would give the trivial group
        with pytest.raises(ValueError,
                           match=f"^group invariant {bad} is not an integer$"):
            Zmod(n)
