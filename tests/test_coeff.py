"""Coefficient system construction and relation validation."""

from __future__ import annotations

import pytest

from moncoh.abelian import AbHom, FgAbGroup, Z, Zmod
from moncoh.coeff import (
    ActionNotHomomorphic,
    CoeffSystem,
    NotAGroup,
    constant_system,
    explicit_system,
    group_action_system,
    validate_relations,
)
from moncoh.monoid import FinMonoid, cyclic_group, power_set_monoid, union_monoid

from catalog import small_groups, small_monoids, swap_action_system, systems_for
from oracles import reference_validate_relations


def semilattice2() -> FinMonoid:
    # {e, a} with a*a = a
    return FinMonoid("S2", ("e", "a"), 0, ((0, 1), (1, 1)))


class TestConstantSystem:
    @pytest.mark.parametrize("m", [
        cyclic_group(1), cyclic_group(3), power_set_monoid(2),
        union_monoid([{"x"}, {"x", "y"}]),
    ])
    @pytest.mark.parametrize("g", [Z, Zmod(2), FgAbGroup(1, (2,))])
    def test_relations_hold(self, m, g):
        assert validate_relations(constant_system(m, g)) == []

    def test_stored_per_pair(self):
        c = constant_system(cyclic_group(2), Z)
        assert set(c.lstar.keys()) == {(a, x) for a in range(2) for x in range(2)}


class TestGroupActionSystem:
    def test_negation_on_z2(self):
        m = cyclic_group(2)
        action = {0: AbHom.identity(Z), 1: AbHom(Z, Z, ((-1,),))}
        c = group_action_system(m, Z, action)
        assert validate_relations(c) == []
        assert c.lstar[(1, 0)].matrix == ((-1,),)
        assert c.rstar[(1, 0)].matrix == ((1,),)

    def test_negation_on_z3_rejected(self):
        # (-1)^3 = -1 but the identity must act trivially
        m = cyclic_group(3)
        action = {0: AbHom.identity(Z), 1: AbHom(Z, Z, ((-1,),)),
                  2: AbHom.identity(Z)}
        with pytest.raises(ActionNotHomomorphic):
            group_action_system(m, Z, action)

    def test_non_group_rejected(self):
        with pytest.raises(NotAGroup):
            group_action_system(semilattice2(), Z, {0: AbHom.identity(Z),
                                                    1: AbHom.identity(Z)})

    def test_identity_must_act_trivially(self):
        m = cyclic_group(2)
        action = {0: AbHom(Z, Z, ((-1,),)), 1: AbHom.identity(Z)}
        with pytest.raises(ActionNotHomomorphic):
            group_action_system(m, Z, action)

    def test_wrong_carrier_rejected(self):
        m = cyclic_group(2)
        action = {0: AbHom.identity(Z), 1: AbHom.identity(Zmod(2))}
        with pytest.raises(ActionNotHomomorphic):
            group_action_system(m, Z, action)

    def test_z4_automorphism_action(self):
        m = cyclic_group(4)
        minus = AbHom(Zmod(4), Zmod(4), ((3,),))
        ident = AbHom.identity(Zmod(4))
        c = group_action_system(m, Zmod(4), {0: ident, 1: minus, 2: ident, 3: minus})
        assert validate_relations(c) == []


class TestExplicitSystem:
    def test_projection_coefficients_on_semilattice(self):
        # A(e) = Z, A(a) = Z/2, both translations by a are the projection
        m = semilattice2()
        groups = (Z, Zmod(2))
        ident_e = AbHom.identity(Z)
        ident_a = AbHom.identity(Zmod(2))
        proj = AbHom(Z, Zmod(2), ((1,),))
        stars = {(0, 0): ident_e, (0, 1): ident_a, (1, 0): proj, (1, 1): ident_a}
        c = explicit_system(m, groups, stars, dict(stars))
        assert validate_relations(c) == []

    def test_broken_relations_reported_with_names(self):
        # left translation by g is -1 at the identity but +1 at g, which
        # cannot assemble to translations along g*g = e
        m = cyclic_group(2)
        groups = (Z, Z)
        ident = AbHom.identity(Z)
        neg = AbHom(Z, Z, ((-1,),))
        lstar = {(0, 0): ident, (0, 1): ident, (1, 0): neg, (1, 1): ident}
        rstar = {(0, 0): ident, (0, 1): ident, (1, 0): ident, (1, 1): ident}
        c = explicit_system(m, groups, lstar, rstar)
        problems = validate_relations(c)
        kinds = {p.relation for p in problems}
        assert "left translation composition" in kinds
        assert "mixed translation commutation" in kinds

    def test_missing_pair_rejected(self):
        m = cyclic_group(2)
        ident = AbHom.identity(Z)
        stars = {(0, 0): ident, (0, 1): ident, (1, 0): ident}
        with pytest.raises(ValueError, match="missing pair"):
            CoeffSystem(m, (Z, Z), stars, {(a, x): ident for a in range(2)
                                           for x in range(2)})

    def test_wrong_codomain_rejected(self):
        m = semilattice2()
        ident_e = AbHom.identity(Z)
        bad = {(0, 0): ident_e, (0, 1): ident_e, (1, 0): ident_e, (1, 1): ident_e}
        with pytest.raises(ValueError, match="domain or codomain"):
            CoeffSystem(m, (Z, Zmod(2)), bad, dict(bad))

    def test_first_wrong_domain_or_codomain_named(self):
        m = cyclic_group(3)
        ident = AbHom.identity(Zmod(2))
        good = {(a, x): ident for a in range(3) for x in range(3)}
        # equal groups that are not the maps' own objects are accepted
        CoeffSystem(m, (FgAbGroup(0, (2,)),) * 3, good, dict(good))
        names = m.element_names
        for family, pair, h in (
                ("lstar", (1, 2), AbHom(Zmod(2), Zmod(4), ((2,),))),  # codomain
                ("rstar", (2, 0), AbHom(Z, Zmod(2), ((1,),))),        # domain
                ("rstar", (0, 1), AbHom.identity(FgAbGroup(0, (2, 2))))):
            stars = {"lstar": dict(good), "rstar": dict(good)}
            stars[family][pair] = h
            # a later offender in the same family does not change the name
            stars[family][(2, 2)] = AbHom.identity(Z)
            with pytest.raises(ValueError) as info:
                CoeffSystem(m, (Zmod(2),) * 3, stars["lstar"], stars["rstar"])
            assert str(info.value) == (
                f"{family}[{names[pair[0]]}, {names[pair[1]]}] has wrong "
                f"domain or codomain")


def z4_automorphism_system() -> CoeffSystem:
    m = cyclic_group(4)
    minus = AbHom(Zmod(4), Zmod(4), ((3,),))
    ident = AbHom.identity(Zmod(4))
    return group_action_system(m, Zmod(4), {0: ident, 1: minus, 2: ident,
                                            3: minus})


def perturbed(c: CoeffSystem, family: str, pair: tuple[int, int],
              replace) -> CoeffSystem:
    """c with the ``family`` map at ``pair`` replaced by ``replace`` of it;
    every other map is a fresh copy, so no two pairs share an object."""
    fresh = {name: {k: AbHom.from_columns(h.domain, h.codomain, h.columns)
                    for k, h in getattr(c, name).items()}
             for name in ("lstar", "rstar")}
    fresh[family][pair] = replace(fresh[family][pair])
    return explicit_system(c.monoid, c.groups, fresh["lstar"], fresh["rstar"])


class TestRelationsAgainstReference:
    """validate_relations shares compositions between element triples;
    the reference composes afresh for each, so the violation lists must
    be equal, entry for entry and in the same order."""

    @pytest.mark.parametrize("m", small_monoids(), ids=lambda m: m.name)
    def test_catalog_constant_and_sign_systems(self, m):
        for c in systems_for(m):
            assert validate_relations(c) == reference_validate_relations(c)

    @pytest.mark.parametrize("c", [swap_action_system(), z4_automorphism_system()],
                             ids=["swap", "z4-minus"])
    def test_group_actions(self, c):
        assert validate_relations(c) == reference_validate_relations(c) == []

    @pytest.mark.parametrize("m", [m for m in small_monoids() if m.size > 1],
                             ids=lambda m: m.name)
    def test_one_perturbed_translation(self, m):
        bases = [constant_system(m, g)
                 for g in ((Z, Zmod(2)) if m.size <= 3 else (Z,))]
        if m.is_group() and m.size == 2:
            bases.append(swap_action_system())
        replacements = (
            lambda h: AbHom.zero(h.domain, h.codomain),
            lambda h: AbHom.from_columns(h.domain, h.codomain, [
                {i: -x for i, x in col.items()} for col in h.columns]))
        broken = 0
        for c in bases:
            for family in ("lstar", "rstar"):
                for pair, h in sorted(getattr(c, family).items()):
                    for replace in replacements:
                        if replace(h).equals(h):
                            continue
                        p = perturbed(c, family, pair, replace)
                        got = validate_relations(p)
                        assert got == reference_validate_relations(p), (
                            family, pair)
                        broken += bool(got)
        assert broken

    def test_unshared_copies_match_shared(self):
        m = power_set_monoid(2)
        for g in small_groups():
            c = constant_system(m, g)
            copy = explicit_system(
                m, c.groups,
                {k: AbHom.identity(g) for k in c.lstar},
                {k: AbHom.identity(g) for k in c.rstar})
            assert validate_relations(copy) == validate_relations(c) == []
