"""Cochain complex and cohomology of finite monoids.

Fixed small cases are checked against hand-computed differentials and
tables; group cases are checked against an unnormalized bar complex with
mod p linear algebra, which shares no code with the package.
"""

from __future__ import annotations

import itertools
import random

import pytest

from moncoh import abelian, leech
from moncoh.abelian import (
    AbHom, FgAbGroup, TRIVIAL_GROUP, Z, Zmod, cohomology_at)
from moncoh.coeff import (
    constant_system,
    explicit_system,
    group_action_system,
    validate_relations,
)
from moncoh.leech import (
    LeechComplex,
    MorseLeechComplex,
    cochain_group,
    cochain_ngens,
    cochain_totals,
    coboundary,
    leech_cohomology_table,
    one_level_matching,
    relations_hold,
)
from moncoh.monoid import cyclic_group, power_set_monoid, trivial_monoid, union_monoid

from catalog import (
    chain_semilattice,
    left_zero_adjoined,
    mixed_two_three_system,
    monogenic_three,
    monoids_up_to_order,
    negation_on_integers,
    small_monoids,
    swap_action_system,
    systems_for,
)
from oracles import (
    bar_cohomology_dims_mod_p,
    dense_coboundary,
    lattice_cohomology_at,
    reference_validate_relations,
    uct_cohomology_table,
)


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

    def test_canonical_total_without_building(self):
        systems = [c for m in small_monoids() for c in systems_for(
            m, [Z, Zmod(2), Zmod(6), FgAbGroup(1, (2,))])]
        systems += [swap_action_system(), mixed_two_three_system()]
        for c in systems:
            assert cochain_totals(c.monoid, c, 4) == [
                cochain_group(c.monoid, c, n).total for n in range(5)], \
                c.monoid.name

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
        for max_degree in (2, 4):
            with pytest.raises(AssertionError) as caught:
                LeechComplex(m, c, max_degree)
            assert str(caught.value) == (
                "coboundary squared is nonzero between degrees 0 and 2; the "
                "coefficient system does not satisfy the translation relations")


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
            assert LeechComplex(m, c, n + 1).cohomology(n) == h


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


class TestUniversalCoefficientsOracle:
    """Constant-coefficient tables against universal coefficients over the
    integral complex, which shares no elimination route with the engine."""

    @pytest.mark.parametrize("m", small_monoids(), ids=lambda m: m.name)
    def test_catalog_tables_to_degree_four(self, m):
        for group in (Z, Zmod(2), Zmod(4), Zmod(6), FgAbGroup(1, (2,))):
            table = leech_cohomology_table(m, constant_system(m, group), 4)
            assert table == uct_cohomology_table(m, group, 4), \
                (m.name, group.render(), table_renders(table))


class TestCohomologyEngine:
    COEFFS = [Z, Zmod(2), Zmod(6), FgAbGroup(1, (2,))]

    def test_order_of_requests_does_not_matter(self):
        # every catalog monoid over Z, Z/2, Z/6 and Z x Z/2, with the sign
        # actions, to degree 3: degrees asked ascending, descending,
        # shuffled or one per complex give cohomology_at's group and the
        # lattice reference's
        rng = random.Random(5)
        for m in small_monoids():
            for c in systems_for(m, self.COEFFS):
                ref = LeechComplex(m, c, 4)
                pairs = [(ref.differential(n - 1), ref.differential(n))
                         for n in range(4)]
                want = [cohomology_at(*pair) for pair in pairs]
                assert want == [lattice_cohomology_at(*pair) for pair in pairs]
                for order in (range(4), range(3, -1, -1), rng.sample(range(4), 4)):
                    cx = LeechComplex(m, c, 4)
                    got = {n: cx.cohomology(n) for n in order}
                    assert [got[n] for n in range(4)] == want, (
                        m.name, c.groups, list(order))
                for n in range(4):
                    assert LeechComplex(m, c, 4).cohomology(n) == want[n]

    def test_cohomology_forms_no_product(self, monkeypatch):
        # the proofs at construction keep their quotients, so no H^n
        # multiplies a pair of differentials again
        built = [LeechComplex(m, c, 4) for m in (cyclic_group(2), power_set_monoid(2))
                 for c in systems_for(m, self.COEFFS)]
        products = []
        real_apply = abelian._apply_sparse

        def counted_apply(cols, vector):
            products.append(1)
            return real_apply(cols, vector)

        monkeypatch.setattr(abelian, "_apply_sparse", counted_apply)
        for cx in built:
            for n in range(4):
                cx.cohomology(n)
        assert products == []

    def test_each_pair_proven_once_at_construction(self, monkeypatch):
        # every consecutive pair, including those whose H^n is never asked
        # for; asking for all of them proves nothing again
        proofs = []
        real_quotient = abelian._composite_quotient

        def counted_quotient(outer, inner):
            proofs.append((outer, inner))
            return real_quotient(outer, inner)

        monkeypatch.setattr(abelian, "_composite_quotient", counted_quotient)
        m = cyclic_group(3)
        cx = LeechComplex(m, constant_system(m, Zmod(3)), 5)
        d = cx.differentials
        assert proofs == [(d[k + 1], d[k]) for k in range(4)]
        assert table_renders(cx.cohomology(n) for n in range(5)) == [
            "Z/3"] * 5
        assert len(proofs) == 4


def negation_mod_three(order: int):
    """The cyclic group of even order acting on Z/3 through the sign of the
    exponent, a module on which the F_3 differentials have entries 2."""
    m = cyclic_group(order)
    sign = {g: AbHom(Zmod(3), Zmod(3), ((1,),) if g % 2 == 0 else ((-1,),))
            for g in range(order)}
    return m, group_action_system(m, Zmod(3), sign)


def elementary_systems():
    """Catalog monoids over Z/2 and Z/3, the sign actions on Z/3 and the swap
    action on (Z/2)^2, each with its degree bound."""
    out = [(m, c, 4 if m.size <= 3 else 3) for m in small_monoids()
           for c in systems_for(m, [Zmod(2), Zmod(3)])]
    out += [(*negation_mod_three(order), 4) for order in (2, 4)]
    out.append((cyclic_group(2), swap_action_system(), 4))
    return out


class TestElementaryRoute:
    """Complexes of (Z/p)^k for p = 2 or 3 take F_p ranks of their
    differentials instead of cones."""

    def test_tables_match_the_cone_engine(self, monkeypatch):
        systems = elementary_systems()
        tables = [leech_cohomology_table(m, c, p) for m, c, p in systems]
        monkeypatch.setattr(abelian, "_elementary_prime", lambda groups: None)
        for (m, c, p), table in zip(systems, tables):
            assert leech_cohomology_table(m, c, p) == table, (m.name, c.groups)

    @pytest.mark.parametrize("order, p, action", [
        (2, 2, "constant"), (4, 2, "constant"), (3, 3, "constant"),
        (2, 3, "sign"), (4, 3, "sign"), (2, 2, "swap")])
    def test_groups_match_the_bar_complex(self, order, p, action):
        if action == "sign":
            m, system = negation_mod_three(order)
            mats = [[[1]] if g % 2 == 0 else [[-1]] for g in range(order)]
        elif action == "swap":
            m, system = cyclic_group(2), swap_action_system()
            mats = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
        else:
            m = cyclic_group(order)
            system = constant_system(m, Zmod(p))
            mats = [[[1]]] * order
        dims = bar_cohomology_dims_mod_p(m.table, mats, len(mats[0]), p, 3)
        assert leech_cohomology_table(m, system, 3) == [
            FgAbGroup(0, (p,) * d) for d in dims]

    def test_no_cone_and_one_field_rank_per_differential(self, monkeypatch):
        calls = []
        real_rank = abelian._field_rank

        def counted_rank(columns, primes, bound):
            calls.append(primes)
            return real_rank(columns, primes, bound)

        monkeypatch.setattr(abelian, "_sparse_diagonal",
                            lambda *args: calls.append("elimination"))
        monkeypatch.setattr(abelian, "_field_rank", counted_rank)
        m = cyclic_group(4)
        cx = LeechComplex(m, constant_system(m, Zmod(2)), 5)
        assert table_renders(cx.cohomology(n) for n in (4, 0, 2, 1, 3)) == [
            "Z/2"] * 5
        assert calls == [(2,)] * 5
        assert not any(cx._quotients)  # no -Y kept


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

    def test_trivial_coefficient_group_has_no_columns(self):
        # A(y) = 0, so every tuple with product y has an empty component
        m = left_zero_adjoined()
        groups = [Z, Zmod(2), TRIVIAL_GROUP]
        lstar, rstar = {}, {}
        for a in range(3):
            for x in range(3):
                src, dst = groups[x], groups[m.mul(a, x)]
                lstar[(a, x)] = (AbHom.identity(src) if a == 0
                                 else AbHom.zero(src, dst))
                rstar[(a, x)] = (AbHom.identity(src) if x != 0 or a == 0
                                 else AbHom(Z, dst, ((1,),) * dst.ngens))
        c = explicit_system(m, groups, lstar, rstar)
        assert validate_relations(c) == []
        assert cochain_group(m, c, 1).total == Zmod(2)
        for n in range(4):
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

    @staticmethod
    def record_assembly(monkeypatch) -> list[AbHom]:
        built = []
        assemble = leech.assemble_hom

        def recording(*args):
            built.append(assemble(*args))
            return built[-1]

        monkeypatch.setattr(leech, "assemble_hom", recording)
        return built

    def test_table_builds_no_dense_matrix(self, monkeypatch):
        # the differentials stay sparse columns; a dense view is built only
        # when something reads .matrix, and nothing on this path does
        built = self.record_assembly(monkeypatch)
        m = power_set_monoid(3)
        cx = LeechComplex(m, constant_system(m, Z), 4)
        table = [cx.cohomology(n) for n in range(4)]
        assert table_renders(table) == ["Z", "0", "0", "0"]
        assert len(built) == 4
        assert not any("matrix" in vars(d) for d in built)
        assert len(built[-1].matrix) == 2401
        assert "matrix" in vars(built[-1])

    def test_reduced_table_builds_no_dense_matrix(self, monkeypatch):
        # the same for the Morse-reduced complex behind the table, whose
        # d^3 has one row per critical cell of degree 4: 17 * 7^2 of 7^4
        built = self.record_assembly(monkeypatch)
        m = power_set_monoid(3)
        table = leech_cohomology_table(m, constant_system(m, Z), 3)
        assert table_renders(table) == ["Z", "0", "0", "0"]
        assert len(built) == 4
        assert not any("matrix" in vars(d) for d in built)
        assert len(built[-1].matrix) == 833
        assert "matrix" in vars(built[-1])


class TestNegativeBounds:
    @pytest.mark.parametrize("bound", [-1, -2, -10])
    def test_every_negative_bound_gives_the_empty_table(self, bound):
        for m in (cyclic_group(3), power_set_monoid(2)):
            assert leech_cohomology_table(m, constant_system(m, Z), bound) == []

    def test_a_mismatched_monoid_still_raises(self):
        c = constant_system(cyclic_group(3), Z)
        with pytest.raises(ValueError, match="different monoid"):
            leech_cohomology_table(cyclic_group(4), c, -2)


class TestComplexApi:
    def test_mismatched_monoid_rejected(self):
        c = constant_system(cyclic_group(2), Z)
        with pytest.raises(ValueError, match="different monoid"):
            LeechComplex(cyclic_group(3), c, 2)

    @pytest.mark.parametrize("m", [power_set_monoid(1), cyclic_group(3)],
                             ids=["same size", "other size"])
    def test_builders_reject_a_system_of_another_monoid(self, m):
        # P(1) has the size of Z/2, so every index of a Z/2 system is in
        # range for it; the two monoids' d^1 differ, (1) against (0)
        c = group_action_system(cyclic_group(2), Z, {
            0: AbHom.identity(Z), 1: AbHom(Z, Z, ((-1,),))})
        for build in (cochain_group, cochain_ngens, coboundary):
            with pytest.raises(ValueError, match="different monoid"):
                build(m, c, 1)
        assert coboundary(cyclic_group(2), c, 1).matrix == ((0,),)
        assert coboundary(power_set_monoid(1),
                          constant_system(power_set_monoid(1), Z),
                          1).matrix == ((1,),)

    def test_coboundary_rejects_groups_of_other_degrees(self):
        m = cyclic_group(3)
        c = constant_system(m, Z)
        c2, c3 = cochain_group(m, c, 2), cochain_group(m, c, 3)
        for source, target in ((c2, c3), (c2, None), (None, c3)):
            with pytest.raises(ValueError, match="degrees 1 and 2"):
                coboundary(m, c, 1, source, target)
        assert coboundary(m, c, 2, c2, c3) == coboundary(m, c, 2)

    def test_cohomology_needs_one_more_degree(self):
        m = cyclic_group(2)
        cx = LeechComplex(m, constant_system(m, Z), 2)
        assert cx.cohomology(1).render() == "0"
        with pytest.raises(ValueError):
            cx.cohomology(2)

    def test_monogenic_catalog_entry_has_collapsing_table(self):
        m = monogenic_three()
        assert m.mul(1, 1) == 2 and m.mul(1, 2) == 2 and m.mul(2, 2) == 2


def z4_sign_on_one_generator():
    """Z/4 over Z with left translation by 1 negating and by 2, 3 fixing: not
    multiplicative, so the translation relations break."""
    m = cyclic_group(4)
    minus = AbHom(Z, Z, ((-1,),))
    lstar = {(a, x): minus if a == 1 else AbHom.identity(Z)
             for a in range(4) for x in range(4)}
    rstar = {(a, x): AbHom.identity(Z) for a in range(4) for x in range(4)}
    return m, explicit_system(m, [Z] * 4, lstar, rstar)


class TestMorseReduction:
    """Leech tables come from the complex reduced along the one-level
    matching; the full complex is the reference."""

    def test_tables_match_the_full_complex_across_catalog(self):
        systems = [(m, c, 4) for m in small_monoids() for c in systems_for(m)]
        systems.append((cyclic_group(2), swap_action_system(), 4))
        # every monoid of order 2 to 4, so that the matched block is seen
        # to be minus the identity on every small table, not only the
        # catalog's
        every = monoids_up_to_order(4)
        assert len(every) == 44
        assert sum(bool(one_level_matching(m)[1]) for m in every) == 8
        systems += [(m, constant_system(m, g), 3) for m in every
                    for g in (Z, Zmod(2), FgAbGroup(1, (2,)), Zmod(6))]
        reduced = 0
        for m, c, p in systems:
            full = LeechComplex(m, c, p + 1)
            assert leech_cohomology_table(m, c, p) == [
                full.cohomology(n) for n in range(p + 1)], (m.name, c.groups)
            reduced += bool(one_level_matching(m)[1])
        assert reduced >= 20

    def test_every_element_a_generator_gives_the_full_complex(self):
        # the reduced and the full complex read d from one face rule: with
        # S every element and no pair, they are the same complex
        for m in small_monoids():
            for c in systems_for(m, [Z, Zmod(2), FgAbGroup(1, (2,))]):
                matching = (m.non_identity(), {}, [0] * m.size)
                assert MorseLeechComplex(m, c, 3, matching).differentials == \
                    LeechComplex(m, c, 3).differentials, (m.name, c.groups)

    def test_critical_cells_are_indices_of_the_full_cochains(self):
        for m in small_monoids():
            k = m.size - 1
            for c in systems_for(m, [Z, FgAbGroup(1, (2,))]):
                cx = MorseLeechComplex(m, c, 4, one_level_matching(m))
                for n, cells in enumerate(cx.cells):
                    full = cochain_group(m, c, n)
                    assert all(type(i) is int and 0 <= i < k ** n
                               for i in cells)
                    assert cells == sorted(set(cells))
                    assert cx.groups[n].components == tuple(
                        c.groups[full.products[i]] for i in cells)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_cyclic_critical_cells(self, k):
        m = cyclic_group(k)
        gens, pairs, length = one_level_matching(m)
        assert gens == [1]
        assert pairs == {(1, a - 1): a for a in range(2, k)}
        assert length == list(range(k))
        cx = MorseLeechComplex(m, constant_system(m, Z), 5,
                               (gens, pairs, length))
        assert [len(cells) for cells in cx.cells] == [
            1, 1, 1, k - 1, (k - 1) ** 2, (k - 1) ** 3]

    def test_power_set_critical_cells(self):
        m = power_set_monoid(2)
        cx = MorseLeechComplex(m, constant_system(m, Z), 4,
                               one_level_matching(m))
        assert [len(cells) for cells in cx.cells] == [1, 2, 5, 15, 45]

    def test_chain_semilattice_has_no_matched_pair(self, monkeypatch):
        # every element is its own generator, so the full complex runs and
        # the relations are not checked for it
        checked = []
        monkeypatch.setattr(leech, "validate_relations",
                            lambda c: checked.append(c) or [])
        for n in (1, 2, 3):
            m = chain_semilattice(n)
            assert one_level_matching(m)[:2] == (m.non_identity(), {})
            c = constant_system(m, Z)
            assert leech_cohomology_table(m, c, 3) == [
                LeechComplex(m, c, 4).cohomology(k) for k in range(4)]
        assert checked == []

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_cyclic_group_integral_cohomology_to_degree_eight(self, k):
        m = cyclic_group(k)
        table = table_renders(leech_cohomology_table(m, constant_system(m, Z), 8))
        odd, even = "0", (f"Z/{k}" if k > 1 else "0")
        assert table == ["Z"] + [odd if n % 2 else even for n in range(1, 9)]

    def test_z8_over_z6_to_degree_five(self):
        # the full complex runs out of memory here; the table is the sum of
        # the Z/2 and Z/3 tables
        m = cyclic_group(8)
        assert table_renders(leech_cohomology_table(
            m, constant_system(m, Zmod(6)), 5)) == ["Z/6"] + ["Z/2"] * 5

    def test_one_relations_certificate(self, monkeypatch):
        # a constant system is certified without walking the triples; any
        # other system is validated
        walked = []
        monkeypatch.setattr(
            leech, "validate_relations",
            lambda c: walked.append(c) or validate_relations(c))
        m, broken = z4_sign_on_one_generator()
        for c in [c for m in small_monoids() for c in systems_for(m)] + [
                swap_action_system(), mixed_two_three_system(), broken]:
            walked.clear()
            assert relations_hold(c) == (not validate_relations(c))
            constant = all(h.columns == tuple(
                {j: 1} for j in range(c.groups[0].ngens))
                for h in (*c.lstar.values(), *c.rstar.values())) and len(
                set(c.groups)) == 1
            assert walked == ([] if constant else [c]), c.monoid.name
        walked.clear()
        m = power_set_monoid(3)
        leech_cohomology_table(m, constant_system(m, Z), 2)
        assert walked == []

    def test_broken_relations_raise_as_the_full_complex_does(self):
        m, c = z4_sign_on_one_generator()
        assert one_level_matching(m)[1] and validate_relations(c)
        with pytest.raises(AssertionError) as full:
            LeechComplex(m, c, 5)
        with pytest.raises(AssertionError) as table:
            leech_cohomology_table(m, c, 4)
        assert str(table.value) == str(full.value)
        assert "does not satisfy the translation relations" in str(full.value)

    def test_deduplicated_relations_match_the_reference(self):
        m, broken = z4_sign_on_one_generator()
        systems = [c for m in small_monoids() for c in systems_for(m)]
        systems += [swap_action_system(), broken]
        for c in systems:
            want = reference_validate_relations(c)
            assert validate_relations(c) == want, (c.monoid.name, c.groups)
        assert validate_relations(broken)

    def test_full_complex_never_built(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("full complex built")

        monkeypatch.setattr(LeechComplex, "__init__", refuse)
        m = cyclic_group(4)
        assert table_renders(leech_cohomology_table(
            m, constant_system(m, Z), 4)) == ["Z", "0", "Z/4", "0", "Z/4"]

    @pytest.mark.parametrize("max_degree", [0, 3])
    def test_zero_map_into_degree_zero(self, max_degree):
        m = cyclic_group(4)
        cx = MorseLeechComplex(m, constant_system(m, Zmod(4)), max_degree,
                               one_level_matching(m))
        assert cx.differential(-1) == AbHom.zero(TRIVIAL_GROUP, Zmod(4))

    def test_rejects_what_the_full_complex_rejects(self):
        c = constant_system(cyclic_group(3), Z)
        with pytest.raises(ValueError, match="different monoid"):
            MorseLeechComplex(cyclic_group(4), c, 2,
                              one_level_matching(c.monoid))
        with pytest.raises(ValueError, match="different monoid"):
            leech_cohomology_table(cyclic_group(4), c, 2)
        with pytest.raises(ValueError, match="max degree must be nonnegative"):
            MorseLeechComplex(cyclic_group(3), c, -1,
                              one_level_matching(c.monoid))
        assert leech_cohomology_table(cyclic_group(3), c, -1) == []
