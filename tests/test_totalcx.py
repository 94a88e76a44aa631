"""Double-complex detection and total cohomology."""

from __future__ import annotations

import itertools

import pytest

from moncoh.abelian import AbHom, FgAbGroup, Z, Zmod, cohomology_at, direct_sum
from moncoh.coeff import constant_system
from moncoh.grid import GridSpec, VerticalFamily
from moncoh.leech import leech_cohomology_table
from moncoh.monoid import cyclic_group, trivial_monoid, union_monoid
from moncoh.totalcx import (
    NotADoubleComplex,
    TotalComplex,
    is_double_complex,
    total_cohomology,
)

from catalog import small_monoids


def const_grid(*pairs, finite=True):
    return GridSpec(tuple((m, constant_system(m, g)) for m, g in pairs),
                    finite=finite)


def pullback(upper, lower, phi, order, n):
    """Degree n pullback C^n(lower) -> C^n(upper) along the element map
    phi from upper to lower, for constant Z (order 0) or Z/order
    coefficients, whose generators are the identity-free tuples in
    lexicographic order."""
    src = list(itertools.product(lower.non_identity(), repeat=n))
    dst = list(itertools.product(upper.non_identity(), repeat=n))
    index = {t: i for i, t in enumerate(src)}
    cols = [{} for _ in src]
    for i, t in enumerate(dst):
        image = tuple(phi[a] for a in t)
        if lower.identity_index not in image:
            cols[index[image]][i] = 1

    def group(k):
        return FgAbGroup(k) if order == 0 else FgAbGroup(0, (order,) * k)
    return AbHom.from_columns(group(len(src)), group(len(dst)), cols)


def pullback_stack(*orders, coeff_order, n_max):
    """Cyclic floors of the given orders, bottom up, with the pullback
    along reduction from floor 1 to floor 0 as the only vertical maps."""
    floors = [cyclic_group(k) for k in orders]
    grid = const_grid(*((m, Zmod(coeff_order) if coeff_order else Z)
                        for m in floors))
    phi = [g % orders[0] for g in range(orders[1])]
    family = VerticalFamily.explicit({
        (0, n): pullback(floors[1], floors[0], phi, coeff_order, n)
        for n in range(n_max + 2)})
    return grid, family


class TestDetection:
    def test_zero_family_always_double(self):
        grid = const_grid((cyclic_group(2), Z), (cyclic_group(3), Z))
        view = is_double_complex(grid, VerticalFamily.zero(), 3)
        assert view.ok and view.first_failure is None
        assert all(all(row) for row in view.commutes)

    def test_single_floor_vacuous(self):
        grid = const_grid((cyclic_group(2), Z))
        view = is_double_complex(grid, VerticalFamily.zero(), 3)
        assert view.ok
        assert view.commutes == ()

    def test_non_commuting_square_located(self):
        grid = const_grid((cyclic_group(2), Z), (union_monoid([{"x"}]), Z))
        # downstairs coboundary at degree 1 is the identity, upstairs it is
        # multiplication by 2, so an identity vertical map cannot commute
        family = VerticalFamily.explicit({(0, 1): AbHom(Z, Z, ((1,),))})
        view = is_double_complex(grid, family, 3)
        assert not view.ok
        assert view.first_failure == (0, 1)
        with pytest.raises(NotADoubleComplex, match="floor 0, degree 1"):
            TotalComplex(grid, family, 3)

    def test_column_violation_blocks_construction(self):
        grid = const_grid((trivial_monoid(), Z), (cyclic_group(2), Z),
                          (union_monoid([{"x"}]), Z))
        one = AbHom(Z, Z, ((1,),))
        family = VerticalFamily.explicit({(0, 0): one, (1, 0): one})
        with pytest.raises(NotADoubleComplex, match="columns"):
            TotalComplex(grid, family, 2)


class TestTotalCohomology:
    def test_single_floor_equals_floor_cohomology(self):
        m = cyclic_group(2)
        grid = const_grid((m, Z))
        tot = total_cohomology(grid, VerticalFamily.zero(), 3)
        assert tot == leech_cohomology_table(m, constant_system(m, Z), 3)

    def test_two_floor_zero_family_shifted_sum(self):
        grid = const_grid((cyclic_group(2), Z), (cyclic_group(3), Z))
        tot = total_cohomology(grid, VerticalFamily.zero(), 3)
        h0 = leech_cohomology_table(cyclic_group(2),
                                    constant_system(cyclic_group(2), Z), 3)
        h1 = leech_cohomology_table(cyclic_group(3),
                                    constant_system(cyclic_group(3), Z), 3)
        for n in range(4):
            parts = [h0[n]]
            if n >= 1:
                parts.append(h1[n - 1])
            assert tot[n] == direct_sum(parts)

    def test_zero_family_shifted_sum_on_catalog_pairs(self):
        pool = [m for m in small_monoids() if m.size <= 3]
        pairs = [(pool[i], pool[j]) for i in range(len(pool))
                 for j in range(len(pool)) if i != j][:6]
        for m0, m1 in pairs:
            grid = const_grid((m0, Zmod(4)), (m1, Zmod(4)))
            tot = total_cohomology(grid, VerticalFamily.zero(), 2)
            t0 = leech_cohomology_table(m0, constant_system(m0, Zmod(4)), 2)
            t1 = leech_cohomology_table(m1, constant_system(m1, Zmod(4)), 2)
            for n in range(3):
                parts = [t0[n]] + ([t1[n - 1]] if n >= 1 else [])
                assert tot[n] == direct_sum(parts), (m0.name, m1.name, n)

    def test_commuting_nonzero_family(self):
        # identity vertical at degree 0 between two copies of Z; the only
        # square commutes because the upper floor has no degree 1 group
        grid = const_grid((trivial_monoid(), Z), (cyclic_group(2), Z))
        family = VerticalFamily.explicit({(0, 0): AbHom(Z, Z, ((1,),))})
        view = is_double_complex(grid, family, 3)
        assert view.ok
        tot = total_cohomology(grid, family, 3)
        assert [g.render() for g in tot] == ["0", "0", "0", "Z/2"]

    @pytest.mark.parametrize("orders", [(2, 4), (3, 6), (2, 4, 3)])
    @pytest.mark.parametrize("coeff_order", [0, 2])
    def test_each_degree_matches_cohomology_at_on_pullback_stacks(
            self, orders, coeff_order):
        grid, family = pullback_stack(*orders, coeff_order=coeff_order, n_max=3)
        for degrees in (range(4), range(3, -1, -1)):
            cx = TotalComplex(grid, family, 3)
            got = {n: cx.cohomology(n) for n in degrees}
            assert [got[n] for n in range(4)] == [
                cohomology_at(cx.differential(n - 1), cx.differential(n))
                for n in range(4)]
        assert got[0].render() == "0"  # the degree 0 pullback is injective

    def test_empty_range(self):
        grid = const_grid((cyclic_group(2), Z))
        assert total_cohomology(grid, VerticalFamily.zero(), -1) == []

    def test_summand_layout(self):
        grid = const_grid((cyclic_group(2), Z), (cyclic_group(3), Z))
        cx = TotalComplex(grid, VerticalFamily.zero(), 2)
        assert cx.group(0).summands == ((0, 0),)
        assert cx.group(1).summands == ((0, 1), (1, 0))
        assert cx.group(2).summands == ((0, 2), (1, 1))
        assert cx.group(3).summands == ((0, 3), (1, 2))
