"""Double-complex detection and total cohomology."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from moncoh import abelian
from moncoh.abelian import (
    AbHom, CochainComplex, DirectSum, FgAbGroup, Z, Zmod, cohomology_at)
from moncoh.coeff import constant_system, explicit_system
from moncoh.grid import GridSpec, PathSpec, VerticalFamily, square_cohomology
from moncoh.leech import LeechComplex, leech_cohomology_table
from moncoh.monoid import cyclic_group, trivial_monoid, union_monoid
from moncoh.totalcx import (
    NotADoubleComplex,
    TotalComplex,
    is_double_complex,
    total_cohomology,
)

from catalog import small_monoids
from oracles import lattice_cohomology_at


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
        with pytest.raises(NotADoubleComplex,
                           match=r"zero at \(floor 0, degree 0\)"):
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
            assert tot[n] == DirectSum.of(parts).total

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
                assert tot[n] == DirectSum.of(parts).total, \
                    (m0.name, m1.name, n)

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

    @pytest.mark.parametrize("orders, coeff_order", [
        ((2, 4), 2), ((2, 6), 2), ((2, 4, 3), 2), ((3, 6), 3), ((3, 6, 2), 3)])
    def test_elementary_route_matches_the_cone_engine(
            self, monkeypatch, orders, coeff_order):
        # floors, totals and paths over Z/2 and Z/3 with pullback verticals:
        # F_p ranks against the cones they replace
        grid, family = pullback_stack(*orders, coeff_order=coeff_order,
                                      n_max=3)
        path = PathSpec("DR" * (len(orders) - 1))

        def tables():
            return (total_cohomology(grid, family, 3),
                    square_cohomology(grid, family, path, 3).groups(),
                    [leech_cohomology_table(m, c, 3) for m, c in grid.floors])

        fast = tables()
        monkeypatch.setattr(abelian, "_elementary_prime", lambda groups: None)
        assert fast == tables()

    def test_empty_range(self):
        grid = const_grid((cyclic_group(2), Z))
        assert total_cohomology(grid, VerticalFamily.zero(), -1) == []
        with pytest.raises(ValueError, match="must be nonnegative"):
            TotalComplex(grid, VerticalFamily.zero(), -1)

    def test_summand_layout(self):
        grid = const_grid((cyclic_group(2), Z), (cyclic_group(3), Z))
        cx = TotalComplex(grid, VerticalFamily.zero(), 2)
        assert cx.levels[0].summands == ((0, 0),)
        assert cx.levels[1].summands == ((0, 1), (1, 0))
        assert cx.levels[2].summands == ((0, 2), (1, 1))
        assert cx.levels[3].summands == ((0, 3), (1, 2))


def broken_floor():
    """Z/2 with Z coefficients whose left translation by the generator on
    the generator's group is -1: d^1 after d^0 is nonzero."""
    m = cyclic_group(2)
    lstar = {(0, 0): AbHom.identity(Z), (0, 1): AbHom.identity(Z),
             (1, 0): AbHom(Z, Z, ((-1,),)), (1, 1): AbHom.identity(Z)}
    rstar = {k: AbHom.identity(Z) for k in lstar}
    return m, explicit_system(m, [Z, Z], lstar, rstar)


def late_square_grid():
    """d^1 is 2 on Z/2 and 1 on the semilattice, so the identity vertical
    map at degree 1 breaks the square at (floor 0, degree 1) and no other."""
    grid = const_grid((cyclic_group(2), Z), (union_monoid([{"x"}]), Z))
    return grid, VerticalFamily.explicit({(0, 1): AbHom(Z, Z, ((1,),))})


TRANSLATION_FAILURE = (
    "coboundary squared is nonzero between degrees 0 and 2; the "
    "coefficient system does not satisfy the translation relations")


class TestWorkDoneOnce:
    @staticmethod
    def count_work(monkeypatch):
        """Count proofs, engines, floor complexes, composes and vertical
        fetches; fetched maps are kept by (floor, degree)."""
        calls: Counter[str] = Counter()
        composed: list[tuple[AbHom, AbHom]] = []
        fetched: dict[tuple[int, int], AbHom] = {}
        fetches: Counter[tuple[int, int]] = Counter()
        real_quotient = abelian._composite_quotient
        real_engine = CochainComplex.__init__
        real_leech = LeechComplex.__init__
        real_compose = AbHom.compose
        real_hom = VerticalFamily.hom

        def counted_quotient(outer, inner):
            calls["proof"] += 1
            return real_quotient(outer, inner)

        def counted_engine(self, start, differentials, failure):
            calls["engine"] += 1
            real_engine(self, start, differentials, failure)

        def counted_leech(self, *args):
            calls["floor complex"] += 1
            real_leech(self, *args)

        def counted_compose(outer, inner):
            composed.append((outer, inner))
            return real_compose(outer, inner)

        def counted_hom(family, floor, source, target):
            fetches[floor, source.degree] += 1
            hom = real_hom(family, floor, source, target)
            fetched[floor, source.degree] = hom
            return hom

        monkeypatch.setattr(abelian, "_composite_quotient", counted_quotient)
        monkeypatch.setattr(CochainComplex, "__init__", counted_engine)
        monkeypatch.setattr(LeechComplex, "__init__", counted_leech)
        monkeypatch.setattr(AbHom, "compose", counted_compose)
        monkeypatch.setattr(VerticalFamily, "hom", counted_hom)
        return calls, composed, fetched, fetches

    @staticmethod
    def square_composes(floors, fetched, squares):
        """The two compositions of each square (f, d), by identity."""
        return Counter(
            pair for f, d in squares for pair in (
                (id(floors[f + 1][1][d]), id(fetched[f, d])),
                (id(fetched[f, d + 1]), id(floors[f][1][d]))))

    @pytest.mark.parametrize("orders", [(2, 4), (3, 6), (2, 4, 3)])
    @pytest.mark.parametrize("n_max", [1, 2, 3])
    def test_passing_total_proves_once_and_composes_beyond_reach(
            self, monkeypatch, orders, n_max):
        grid, family = pullback_stack(*orders, coeff_order=0, n_max=n_max)
        calls, composed, fetched, fetches = self.count_work(monkeypatch)
        cx = TotalComplex(grid, family, n_max)
        # one engine, n_max proofs (D^0..D^n_max), no floor complex
        assert calls == Counter({"engine": 1, "proof": n_max})
        # family.hom once per floor pair and degree 0..n_max + 1
        pairs = len(orders) - 1
        assert fetches == Counter({(f, d): 1 for f in range(pairs)
                                   for d in range(n_max + 2)})
        # only the squares beyond the proof's reach are composed; no
        # stacked stored maps, so the column check composes nothing
        beyond = [(f, d) for f in range(pairs) for d in range(n_max + 1)
                  if f + d >= n_max]
        assert Counter((id(a), id(b)) for a, b in composed) == \
            self.square_composes(cx.complexes, fetched, beyond)
        assert [cx.cohomology(n) for n in range(n_max + 1)] == [
            cohomology_at(cx.differential(n - 1), cx.differential(n))
            for n in range(n_max + 1)]

    @pytest.mark.parametrize("orders", [(2, 4), (2, 4, 3)])
    def test_is_double_complex_proves_nothing(self, monkeypatch, orders):
        grid, family = pullback_stack(*orders, coeff_order=2, n_max=2)
        floors = tuple(LeechComplex(m, c, 3) for m, c in grid.floors)
        calls, composed, fetched, fetches = self.count_work(monkeypatch)
        assert is_double_complex(grid, family, 2).ok
        assert calls == Counter()
        pairs = len(orders) - 1
        assert set(fetches.values()) == {1} and len(fetches) == pairs * 4
        every = [(f, d) for f in range(pairs) for d in range(3)]
        assert len(composed) == 2 * len(every)
        assert [(a.domain, a.codomain, b.domain) for a, b in composed] == [
            (x.domain, x.codomain, y.domain) for f, d in every for x, y in (
                (floors[f + 1].differential(d), fetched[f, d]),
                (fetched[f, d + 1], floors[f].differential(d)))]


class TestFailingInputs:
    def test_square_beyond_reach_still_raises(self):
        grid, family = late_square_grid()
        TotalComplex(grid, family, 0)  # square (0, 1) is beyond degree 0
        with pytest.raises(NotADoubleComplex) as caught:
            TotalComplex(grid, family, 1)
        assert str(caught.value) == "square at (floor 0, degree 1) does not commute"
        assert caught.value.view == is_double_complex(grid, family, 1)
        assert caught.value.view.first_failure == (0, 1)

    @pytest.mark.parametrize("n_max", [1, 2, 3])
    def test_square_at_the_top_of_a_pullback_stack(self, n_max):
        # perturb the degree n_max + 1 pullback on a generator that d^n_max
        # of floor 0 hits: D never reads that map, and only the square
        # (0, n_max) does
        grid, family = pullback_stack(3, 6, coeff_order=0, n_max=n_max)
        d_top = LeechComplex(*grid.floors[0], n_max + 1).differential(n_max)
        hit = min(i for col in d_top.columns for i in col)
        maps = dict(family.maps)
        top = maps[0, n_max + 1]
        columns = [dict(col) for col in top.columns]
        columns[hit][0] = columns[hit].get(0, 0) + 1
        maps[0, n_max + 1] = AbHom.from_columns(top.domain, top.codomain,
                                                columns)
        family = VerticalFamily.explicit(maps)
        with pytest.raises(NotADoubleComplex,
                           match=f"floor 0, degree {n_max}") as caught:
            TotalComplex(grid, family, n_max)
        assert caught.value.view == is_double_complex(grid, family, n_max)

    @pytest.mark.parametrize("broken_at", [0, 1])
    def test_broken_floor_raises_the_floor_failure(self, broken_at):
        good = (cyclic_group(3), constant_system(cyclic_group(3), Z))
        floors = [good, good]
        floors[broken_at] = broken_floor()
        grid = GridSpec(tuple(floors))
        with pytest.raises(AssertionError) as caught:
            TotalComplex(grid, VerticalFamily.zero(), 2)
        assert str(caught.value) == TRANSLATION_FAILURE

    def test_broken_floor_pair_beyond_reach_is_not_proven(self):
        # floor 1's d^1 o d^0 is a block of D^2 o D^1, which degree 1 does
        # not build; is_double_complex proves no floor at all
        grid = GridSpec(((cyclic_group(3), constant_system(cyclic_group(3), Z)),
                         broken_floor()))
        assert is_double_complex(grid, VerticalFamily.zero(), 3).ok
        cx = TotalComplex(grid, VerticalFamily.zero(), 1)
        assert [cx.cohomology(n) for n in range(2)] == [
            lattice_cohomology_at(cx.differential(n - 1), cx.differential(n))
            for n in range(2)]

    @pytest.mark.parametrize("n_max", [0, 1, 2])
    def test_column_violation_wins_over_a_failing_square(self, n_max):
        # floor 1 is Z/2 and floor 2 the semilattice, so the identity at
        # (1, 1) breaks the square (1, 1) as well
        grid = const_grid((trivial_monoid(), Z), (cyclic_group(2), Z),
                          (union_monoid([{"x"}]), Z))
        one = AbHom(Z, Z, ((1,),))
        family = VerticalFamily.explicit({(0, 0): one, (1, 0): one,
                                          (1, 1): one})
        view = is_double_complex(grid, family, n_max)
        assert not view.column_ok
        assert view.first_failure == ((1, 1) if n_max >= 1 else None)
        with pytest.raises(NotADoubleComplex,
                           match=r"zero at \(floor 0, degree 0\)") as caught:
            TotalComplex(grid, family, n_max)
        assert caught.value.view == view


PULLBACK_SHAPES = [((2, 4), 0), ((2, 4), 2), ((3, 6), 2), ((2, 4, 3), 0),
                   ((2, 4, 3), 2)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PULLBACK_SHAPES), st.integers(0, 2), st.data())
def test_perturbed_families_match_the_view_or_the_reference(shape, n_max, data):
    """Pullbacks plus small integer perturbations, and on three floors
    random maps from floor 1 to floor 2: either TotalComplex refuses with
    the view is_double_complex gives, or that view is ok and each H^n is
    the lattice reference on the two total differentials around it."""
    orders, coeff_order = shape
    grid, family = pullback_stack(*orders, coeff_order=coeff_order,
                                  n_max=n_max)
    floors = [LeechComplex(m, c, n_max + 1) for m, c in grid.floors]
    maps = dict(family.maps)
    keys = [(0, d) for d in range(n_max + 2)]
    if len(orders) == 3:
        keys += [(1, d) for d in range(n_max + 2)]
    for f, d in data.draw(st.lists(st.sampled_from(keys), max_size=3)):
        dom, cod = floors[f].groups[d].total, floors[f + 1].groups[d].total
        if not dom.ngens or not cod.ngens:
            continue
        base = maps.get((f, d), AbHom.zero(dom, cod))
        columns = [dict(col) for col in base.columns]
        j = data.draw(st.integers(0, dom.ngens - 1))
        i = data.draw(st.integers(0, cod.ngens - 1))
        columns[j][i] = columns[j].get(i, 0) + data.draw(
            st.sampled_from([-2, -1, 1, 2]))
        maps[f, d] = AbHom.from_columns(dom, cod, columns)
    family = VerticalFamily.explicit(maps)
    view = is_double_complex(grid, family, n_max)
    try:
        cx = TotalComplex(grid, family, n_max)
    except NotADoubleComplex as exc:
        assert exc.view == view and not view.ok
        return
    assert view.ok
    assert [cx.cohomology(n) for n in range(n_max + 1)] == [
        lattice_cohomology_at(cx.differential(n - 1), cx.differential(n))
        for n in range(n_max + 1)]
