"""Cochain complex and cohomology of finite monoids.

Fixed small cases are checked against hand-computed differentials and
tables; group cases are checked against an unnormalized bar complex with
mod p linear algebra, which shares no code with the package.
"""

from __future__ import annotations

import itertools

import pytest

from moncoh import leech
from moncoh.abelian import AbHom, FgAbGroup, TRIVIAL_GROUP, Z, Zmod
from moncoh.coeff import (
    constant_system,
    explicit_system,
    group_action_system,
    validate_relations,
)
from moncoh.leech import (
    LeechComplex,
    cochain_group,
    cochain_ngens,
    coboundary,
    leech_cohomology,
    leech_cohomology_table,
)
from moncoh.monoid import cyclic_group, power_set_monoid, trivial_monoid, union_monoid

from catalog import (
    left_zero_adjoined,
    monogenic_three,
    negation_on_integers,
    small_monoids,
    swap_action_system,
    systems_for,
)
from oracles import bar_cohomology_dims_mod_p, dense_coboundary, lattice_cohomology_at


def table_renders(groups):
    return [g.render() for g in groups]


class TestCochainGroups:
    def test_degree_zero_is_group_at_identity(self):
        m = union_monoid([{"x"}])
        c = explicit_system(
            m,
            [Z, Zmod(2)],
            {(0, 0): AbHom.identity(Z), (0, 1): AbHom.identity(Zmod(2)),
             (1, 0): AbHom(Z, Zmod(2), ((1,),)), (1, 1): AbHom.identity(Zmod(2))},
            {(0, 0): AbHom.identity(Z), (0, 1): AbHom.identity(Zmod(2)),
             (1, 0): AbHom(Z, Zmod(2), ((1,),)), (1, 1): AbHom.identity(Zmod(2))},
        )
        assert cochain_group(m, c, 0).total == Z
        assert cochain_group(m, c, 1).total == Zmod(2)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_tuple_count_excludes_identity(self, n):
        m = power_set_monoid(2)
        c = constant_system(m, Zmod(2))
        cg = cochain_group(m, c, n)
        tuples = list(itertools.product(m.non_identity(), repeat=n))
        assert len(cg.products) == len(cg.dsum.components) == (m.size - 1) ** n
        assert cg.products == tuple(m.product(t) for t in tuples)

    def test_tuples_are_lexicographic(self):
        m = cyclic_group(3)
        c = constant_system(m, Z)
        cg = cochain_group(m, c, 2)
        # (1, 1), (1, 2), (2, 1), (2, 2) in Z/3, by hand
        assert cg.products == (2, 0, 0, 1)
        assert cg.products == tuple(
            m.product(t) for t in itertools.product(m.non_identity(), repeat=2))

    def test_tuple_order_and_products(self):
        # the tuple order fixes the coordinates of vertical maps in documents
        for m in small_monoids():
            c = constant_system(m, Z)
            for n in range(5):
                cg = cochain_group(m, c, n)
                tuples = itertools.product(m.non_identity(), repeat=n)
                assert cg.products == tuple(m.product(t) for t in tuples)

    def test_generator_count_without_building(self):
        for m in small_monoids():
            systems = systems_for(m)
            if m == cyclic_group(2):
                systems.append(swap_action_system())
            for c in systems:
                for n in range(5):
                    assert cochain_ngens(m, c, n) == cochain_group(m, c, n).total.ngens
        c = mixed_two_three_system()
        for n in range(5):
            assert cochain_ngens(c.monoid, c, n) == cochain_group(c.monoid, c, n).total.ngens
        # degree 40 of Z/3 has 2^40 summands; counting them allocates none
        m = cyclic_group(3)
        assert cochain_ngens(m, constant_system(m, Zmod(2)), 40) == 2 ** 40

    def test_negative_degree_rejected(self):
        m = cyclic_group(2)
        with pytest.raises(ValueError):
            cochain_group(m, constant_system(m, Z), -1)
        with pytest.raises(ValueError):
            cochain_ngens(m, constant_system(m, Z), -1)


class TestFrozenDifferentials:
    def test_order_two_constant_integers(self):
        m = cyclic_group(2)
        c = constant_system(m, Z)
        assert coboundary(m, c, 0).matrix == ((0,),)
        assert coboundary(m, c, 1).matrix == ((2,),)
        assert coboundary(m, c, 2).matrix == ((0,),)
        assert coboundary(m, c, 3).matrix == ((2,),)

    def test_two_element_semilattice_degree_one(self):
        # merged middle entry stays non-identity, so the three terms give
        # 1 - 1 + 1 = 1
        m = union_monoid([{"x"}])
        c = constant_system(m, Zmod(2))
        assert coboundary(m, c, 0).matrix == ((0,),)
        assert coboundary(m, c, 1).matrix == ((1,),)

    def test_composition_vanishes_across_catalog(self):
        for m in small_monoids():
            for c in systems_for(m, [Zmod(6), FgAbGroup(1, (2,))]):
                LeechComplex(m, c, 3)  # raises if d o d != 0

    def test_broken_relations_caught_at_construction(self):
        m = cyclic_group(2)
        lstar = {(0, 0): AbHom.identity(Z), (0, 1): AbHom.identity(Z),
                 (1, 0): AbHom(Z, Z, ((-1,),)), (1, 1): AbHom.identity(Z)}
        rstar = {k: AbHom.identity(Z) for k in lstar}
        c = explicit_system(m, [Z, Z], lstar, rstar)
        with pytest.raises(AssertionError, match="translation relations"):
            LeechComplex(m, c, 2)


class TestFrozenTables:
    def test_order_two_constant_integers(self):
        m = cyclic_group(2)
        table = leech_cohomology_table(m, constant_system(m, Z), 4)
        assert table_renders(table) == ["Z", "0", "Z/2", "0", "Z/2"]

    def test_order_three_constant_integers(self):
        m = cyclic_group(3)
        table = leech_cohomology_table(m, constant_system(m, Z), 4)
        assert table_renders(table) == ["Z", "0", "Z/3", "0", "Z/3"]

    def test_order_two_sign_action_on_integers(self):
        table = leech_cohomology_table(cyclic_group(2),
                                       negation_on_integers(2), 4)
        assert table_renders(table) == ["0", "Z/2", "0", "Z/2", "0"]

    def test_trivial_monoid_concentrated_in_degree_zero(self):
        m = trivial_monoid()
        g = FgAbGroup(2, (4,))
        table = leech_cohomology_table(m, constant_system(m, g), 4)
        assert table[0] == g
        assert all(h == TRIVIAL_GROUP for h in table[1:])

    def test_semilattice_explicit_projection_system(self):
        m = union_monoid([{"x"}])
        ident_z = AbHom.identity(Z)
        ident_2 = AbHom.identity(Zmod(2))
        reduce_mod2 = AbHom(Z, Zmod(2), ((1,),))
        stars = {(0, 0): ident_z, (0, 1): ident_2,
                 (1, 0): reduce_mod2, (1, 1): ident_2}
        c = explicit_system(m, [Z, Zmod(2)], stars, dict(stars))
        table = leech_cohomology_table(m, c, 2)
        assert table_renders(table) == ["Z", "0", "0"]

    def test_semilattice_constant_mod_two(self):
        m = union_monoid([{"x"}])
        table = leech_cohomology_table(m, constant_system(m, Zmod(2)), 2)
        assert table_renders(table) == ["Z/2", "0", "0"]

    def test_single_degree_matches_table(self):
        m = cyclic_group(3)
        c = constant_system(m, Z)
        table = leech_cohomology_table(m, c, 3)
        for n, h in enumerate(table):
            assert leech_cohomology(m, c, n) == h


class TestBarComplexOracle:
    """For a group, translation cohomology with a one-sided action system
    is group cohomology; the oracle computes the latter from scratch."""

    def check(self, m, system, rank, p, n_max, action_mats):
        dims = bar_cohomology_dims_mod_p(m.table, action_mats, rank, p, n_max)
        table = leech_cohomology_table(m, system, n_max)
        expected = [FgAbGroup.from_invariants([p] * d) for d in dims]
        assert table == expected, (table_renders(table), dims)

    def test_order_two_constant_mod_two(self):
        m = cyclic_group(2)
        ident = [[1]]
        self.check(m, constant_system(m, Zmod(2)), 1, 2, 4, [ident, ident])

    def test_order_three_constant_mod_three(self):
        m = cyclic_group(3)
        ident = [[1]]
        self.check(m, constant_system(m, Zmod(3)), 1, 3, 4, [ident] * 3)

    def test_order_four_constant_mod_two(self):
        m = cyclic_group(4)
        ident = [[1]]
        self.check(m, constant_system(m, Zmod(2)), 1, 2, 3, [ident] * 4)

    def test_order_two_swap_action(self):
        m = cyclic_group(2)
        ident = [[1, 0], [0, 1]]
        swap = [[0, 1], [1, 0]]
        self.check(m, swap_action_system(), 2, 2, 4, [ident, swap])


class TestLatticeOracle:
    def test_tables_agree_with_lattice_route_across_catalog(self):
        # every degree of every catalog complex, including torsion and
        # merging coefficient groups, against the dense lattice reference
        for m in small_monoids():
            for c in systems_for(m, [Z, Zmod(2), Zmod(6), FgAbGroup(1, (2,))]):
                cx = LeechComplex(m, c, 3)
                for n in range(3):
                    want = lattice_cohomology_at(cx.differential(n - 1),
                                                 cx.differential(n))
                    assert cx.cohomology(n) == want, (m.name, c.groups, n)


def mixed_two_three_system():
    """Left zeros x, y with an identity adjoined, A(e) = Z, A(x) = Z/2 and
    A(y) = Z/3: left translations by x, y are zero, right translations
    reduce Z modulo 2 or 3 and fix Z/2 and Z/3.  A tuple's group is that of
    its first entry, so every cochain group of degree >= 1 mixes Z/2 and Z/3
    and its change of basis comes from the Smith form."""
    m = left_zero_adjoined()
    groups = [Z, Zmod(2), Zmod(3)]
    lstar, rstar = {}, {}
    for a in range(3):
        for x in range(3):
            src, dst = groups[x], groups[m.mul(a, x)]
            lstar[(a, x)] = (AbHom.identity(src) if a == 0
                             else AbHom.zero(src, dst))
            rstar[(a, x)] = (AbHom.identity(src) if x != 0 or a == 0
                             else AbHom(Z, dst, ((1,),)))
    return explicit_system(m, groups, lstar, rstar)


class TestSparseConstruction:
    @staticmethod
    def assert_matches_reference(m, c, n):
        got = coboundary(m, c, n)
        want = dense_coboundary(m, c, n)
        assert (got.domain, got.codomain, got.columns) == (
            want.domain, want.codomain, want.columns), (m.name, c.groups, n)

    def test_coboundaries_match_dense_reference_across_catalog(self):
        coeffs = [Z, Zmod(2), Zmod(6), FgAbGroup(1, (2,))]
        for m in small_monoids():
            assert m.size <= 4
            systems = systems_for(m, coeffs)
            if m.size % 2 == 0 and m.table == cyclic_group(m.size).table:
                # the sign of the exponent acting on the other coefficient
                # groups too; systems_for has it on Z
                systems += [group_action_system(
                    m, g, [AbHom.from_columns(g, g, [{i: (-1) ** k}
                                                     for i in range(g.ngens)])
                           for k in range(m.size)]) for g in coeffs[1:]]
            for c in systems:
                for n in range(5):
                    self.assert_matches_reference(m, c, n)

    def test_merging_coefficient_groups(self):
        m = left_zero_adjoined()
        c = mixed_two_three_system()
        assert validate_relations(c) == []
        assert cochain_group(m, c, 1).total == Zmod(6)
        assert cochain_group(m, c, 2).total == FgAbGroup(0, (6, 6))
        assert any(len(image) > 1 for image in cochain_group(m, c, 2).dsum.to_total)
        for n in range(5):
            self.assert_matches_reference(m, c, n)
        cx = LeechComplex(m, c, 4)
        for n in range(4):
            want = lattice_cohomology_at(cx.differential(n - 1), cx.differential(n))
            assert cx.cohomology(n) == want

    def test_chain_orders_keep_one_entry_per_generator(self):
        m = power_set_monoid(2)
        for g in (Z, Zmod(6), FgAbGroup(1, (2,))):
            dsum = cochain_group(m, constant_system(m, g), 3).dsum
            assert dsum.to_total is dsum.from_total
            assert all(len(image) == 1 and 1 in image.values()
                       for image in dsum.to_total)

    def test_table_builds_no_dense_matrix(self, monkeypatch):
        # the differentials stay sparse columns; a dense view is built only
        # when something reads .matrix, and nothing on this path does
        built = []
        assemble = leech.assemble_hom

        def recording(*args):
            built.append(assemble(*args))
            return built[-1]

        monkeypatch.setattr(leech, "assemble_hom", recording)
        m = power_set_monoid(3)
        table = leech_cohomology_table(m, constant_system(m, Z), 3)
        assert table_renders(table) == ["Z", "0", "0", "0"]
        assert len(built) == 4
        assert not any("matrix" in vars(d) for d in built)
        assert len(built[-1].matrix) == 2401
        assert "matrix" in vars(built[-1])


class TestComplexApi:
    def test_mismatched_monoid_rejected(self):
        c = constant_system(cyclic_group(2), Z)
        with pytest.raises(ValueError, match="different monoid"):
            LeechComplex(cyclic_group(3), c, 2)

    def test_cohomology_needs_one_more_degree(self):
        m = cyclic_group(2)
        cx = LeechComplex(m, constant_system(m, Z), 2)
        assert cx.cohomology(1).render() == "0"
        with pytest.raises(ValueError):
            cx.cohomology(2)

    def test_monogenic_catalog_entry_has_collapsing_table(self):
        m = monogenic_three()
        assert m.mul(1, 1) == 2 and m.mul(1, 2) == 2 and m.mul(2, 2) == 2
