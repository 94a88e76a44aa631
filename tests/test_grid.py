"""Lattice-path cohomology over stacked floors.

Fixed examples are hand-derived; the identification invariants are also
exercised randomly in the acceptance suite.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from moncoh import abelian
from moncoh import grid as grid_module
from moncoh.abelian import AbHom, FgAbGroup, TRIVIAL_GROUP, Z, Zmod, cohomology_at
from moncoh.coeff import constant_system, explicit_system
from moncoh.grid import (
    ColumnConditionError,
    DescentBelowBottomFloor,
    GridSpec,
    MixedCompositionError,
    PathCochain,
    PathSpec,
    TooManyDescents,
    VerticalFamily,
    classify_trivial,
    local_exactness_report,
    square_cohomology,
    validate_mixed_compositions,
    validate_path,
)
from moncoh.leech import LeechComplex, cochain_group, leech_cohomology_table
from moncoh.monoid import cyclic_group, trivial_monoid, union_monoid

import oracles
from oracles import random_hom


def const_floor(m, group):
    return (m, constant_system(m, group))


def grid_of(*floors, finite=True):
    return GridSpec(tuple(floors), finite=finite)


def renders(groups):
    return [g.render() for g in groups]


class TestPathSpec:
    def test_walk_staircase(self):
        walked = PathSpec("DRDR").walk(4)
        assert walked == [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2),
                          (2, 3), (2, 4), (2, 5)]

    def test_staircase_descends_to_the_bottom_floor(self):
        assert PathSpec.staircase(3) == PathSpec("DRDR")
        assert PathSpec.staircase(1) == PathSpec("")

    def test_walk_empty_prefix(self):
        assert PathSpec("").walk(2) == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_walk_descent_after_bound_is_cut(self):
        # the declared D at degree 3 is past the bound and never taken
        walked = PathSpec("RRRD").walk(2)
        assert walked == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_bad_move_characters(self):
        with pytest.raises(ValueError, match="moves must be R or D"):
            PathSpec("DXR")

    @pytest.mark.parametrize("moves", [["D", "D"], ("R",), b"RD"])
    def test_moves_must_be_a_string(self, moves):
        # a list of letters used to pass the letter check
        with pytest.raises(ValueError, match="moves must be a string, got"):
            PathSpec(moves)

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            PathSpec("").walk(-1)


class TestValidatePath:
    def two_floor(self, finite=True):
        return grid_of(const_floor(cyclic_group(2), Z),
                       const_floor(cyclic_group(3), Z), finite=finite)

    def test_ok_paths(self):
        grid = self.two_floor()
        for moves in ("", "D", "RD", "RRRD", "DRRRR"):
            validate_path(PathSpec(moves), grid)

    def test_descent_below_bottom_finite(self):
        with pytest.raises(DescentBelowBottomFloor):
            validate_path(PathSpec("DD"), self.two_floor())

    def test_descent_past_truncated_stack(self):
        with pytest.raises(TooManyDescents):
            validate_path(PathSpec("DD"), self.two_floor(finite=False))

    def test_whole_prefix_checked_despite_bound(self):
        # the bad descent sits past degree 2 but is still declared, and
        # PathCochain refuses it at that bound
        with pytest.raises(DescentBelowBottomFloor):
            validate_path(PathSpec("RRRRRRDD"), self.two_floor())
        with pytest.raises(DescentBelowBottomFloor):
            PathCochain(self.two_floor(), VerticalFamily.zero(),
                        PathSpec("RRRRRRDD"), 2)

    def test_long_prefix_names_the_move_and_floor(self):
        path = PathSpec("R" * 10**6 + "DD")
        with pytest.raises(DescentBelowBottomFloor) as caught:
            validate_path(path, self.two_floor())
        assert str(caught.value) == (
            "move 1000001 descends below floor 1, the bottom of a finite grid")
        with pytest.raises(TooManyDescents) as caught:
            validate_path(path, self.two_floor(finite=False))
        assert str(caught.value) == (
            "move 1000001 needs floor 2 but only 2 floors were supplied")

    @staticmethod
    def walked_verdict(moves, grid):
        """The error a walk over every move raises, or None: the reference
        for the counting check."""
        floor = 0
        for k, move in enumerate(moves):
            if move == "D":
                if floor == grid.floor_count - 1:
                    return (DescentBelowBottomFloor if grid.finite
                            else TooManyDescents), k
                floor += 1
        return None

    @settings(max_examples=200, deadline=None)
    @given(st.text("RD", max_size=12), st.integers(1, 4), st.booleans())
    def test_matches_a_walk_over_every_move(self, moves, floors, finite):
        grid = grid_of(*(const_floor(cyclic_group(k), Z)
                         for k in range(2, 2 + floors)), finite=finite)
        expected = self.walked_verdict(moves, grid)
        if expected is None:
            validate_path(PathSpec(moves), grid)
            return
        with pytest.raises(expected[0], match=f"^move {expected[1]} "):
            validate_path(PathSpec(moves), grid)


class TestPathFromRule:
    """PathSpec.descending_at, the path a document's descend_at names."""

    def test_prime_columns(self):
        # any order, repeats ignored, 11 dropped: five floors, four descents
        path = PathSpec.descending_at([7, 2, 11, 5, 3, 2], 5)
        assert path.prefix_moves == "RRDRDRRDRRD"

    def test_late_first_descent(self):
        path = PathSpec.descending_at([31, 37], 3)
        assert path.prefix_moves == "R" * 31 + "D" + "R" * 6 + "D"

    def test_never_fires(self):
        assert PathSpec.descending_at([], 5).prefix_moves == ""

    def test_clamped_at_bottom(self):
        grid = grid_of(const_floor(cyclic_group(2), Z),
                       const_floor(cyclic_group(3), Z))
        path = PathSpec.descending_at([0, 1, 2, 3], grid.floor_count)
        assert path.prefix_moves == "D"
        validate_path(path, grid)

    def test_rejects_negative_column(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PathSpec.descending_at([-1, 3], 3)

    @pytest.mark.parametrize("column", [True, 1.5, 2.0, "2"])
    def test_rejects_non_integer_column(self, column):
        # True used to descend at column 1, and 1.5 to raise TypeError
        with pytest.raises(ValueError,
                           match=f"descent column {column!r} is not an integer"):
            PathSpec.descending_at([0, column], 3)

    def test_seeded_corpus_digest(self):
        # 500 column lists (duplicates and any order) over grids of 1-5
        # floors; the digest pins every move string
        rng = random.Random(19)
        moves = []
        for _ in range(500):
            cols = [rng.randint(0, 40) for _ in range(rng.randint(0, 8))]
            moves.append(PathSpec.descending_at(
                cols, rng.randint(1, 5)).prefix_moves)
        digest = hashlib.sha256("\n".join(moves).encode()).hexdigest()
        assert digest == ("77b51f727d54049c3fcd440240f5352c"
                          "f8fefaf9d7e595e144819dbe75b687ba")


class TestGridSpec:
    def test_rejects_duplicate_tables(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            grid_of(const_floor(cyclic_group(2), Z),
                    const_floor(cyclic_group(2), Zmod(2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one floor"):
            GridSpec(())

    @pytest.mark.parametrize("finite", ["no", 0, None])
    def test_finite_must_be_a_bool(self, finite):
        # "no" used to be taken as a finite grid
        with pytest.raises(ValueError, match="finite must be a bool, got"):
            grid_of(const_floor(cyclic_group(2), Z), finite=finite)

    def test_rejects_mismatched_coefficients(self):
        c = constant_system(cyclic_group(3), Z)
        with pytest.raises(ValueError, match="different monoid"):
            GridSpec(((cyclic_group(2), c),))


class TestSquareCohomology:
    def test_single_floor_reproduces_floor_cohomology(self):
        m = cyclic_group(3)
        grid = grid_of(const_floor(m, Z))
        report = square_cohomology(grid, VerticalFamily.zero(), PathSpec(""), 4)
        expected = leech_cohomology_table(m, constant_system(m, Z), 4)
        assert report.groups() == expected
        assert report.tags() == ["floor_leech"] * 5
        assert [(e.floor, e.degree) for e in report.entries] == \
            [(0, d) for d in range(5)]

    def test_two_floor_single_descent(self):
        grid = grid_of(const_floor(cyclic_group(2), Z),
                       const_floor(cyclic_group(3), Z))
        report = square_cohomology(grid, VerticalFamily.zero(), PathSpec("D"), 4)
        assert renders(report.groups()) == ["Z", "Z", "0", "Z/3", "0", "Z/3"]
        assert report.tags() == [
            "full_cochain_group", "kernel_group", "floor_leech",
            "floor_leech", "floor_leech", "floor_leech"]

    def test_double_descent_tags(self):
        grid = grid_of(const_floor(cyclic_group(2), Zmod(4)),
                       const_floor(cyclic_group(3), Zmod(4)),
                       const_floor(cyclic_group(4), Zmod(4)))
        report = square_cohomology(grid, VerticalFamily.zero(), PathSpec("DD"), 3)
        assert report.tags()[:3] == [
            "full_cochain_group", "full_cochain_group", "kernel_group"]
        assert all(t == "floor_leech" for t in report.tags()[3:])
        # the in-between full groups are the floors' degree 0 groups
        assert report.entries[0].group == Zmod(4)
        assert report.entries[1].group == Zmod(4)

    def test_staircase_positions_and_entries(self):
        grid = grid_of(const_floor(cyclic_group(2), Z),
                       const_floor(cyclic_group(3), Z),
                       const_floor(cyclic_group(4), Z))
        report = square_cohomology(grid, VerticalFamily.zero(),
                                   PathSpec("DRDR"), 4)
        couples = [(e.floor, e.degree) for e in report.entries]
        assert couples[:5] == [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]
        assert report.tags() == [
            "full_cochain_group", "kernel_group", "extremal",
            "kernel_group", "floor_leech", "floor_leech", "floor_leech"]
        for entry, (floor, degree) in zip(report.entries[4:], [(2, 2), (2, 3), (2, 4)]):
            floor_value = leech_cohomology_table(
                *grid.floors[floor], p_max=degree)[degree]
            assert entry.group == floor_value


class TestMixedCompositionValidation:
    def witness_setup(self):
        f0 = const_floor(cyclic_group(3), Zmod(2))
        f1 = const_floor(union_monoid([{"x"}]), Zmod(2))
        grid = grid_of(f0, f1)
        # degree 1 groups: (Z/2)^2 upstairs, Z/2 downstairs
        vert = AbHom(FgAbGroup(0, (2, 2)), Zmod(2), ((1, 0),))
        family = VerticalFamily.explicit({(0, 1): vert})
        return grid, family

    def test_zero_family_passes(self):
        grid, _ = self.witness_setup()
        assert validate_mixed_compositions(
            grid, VerticalFamily.zero(), PathSpec("RD"), 3) is None

    def test_witness_reported_not_raised(self):
        grid, family = self.witness_setup()
        violation = validate_mixed_compositions(grid, family, PathSpec("RD"), 3)
        assert violation is not None
        assert violation.position == (1, 1)
        assert violation.moves == ("vertical", "horizontal")
        assert violation.product.matrix == ((1, 0),)

    def test_square_cohomology_refuses_witness(self):
        grid, family = self.witness_setup()
        with pytest.raises(MixedCompositionError, match="floor 1, degree 1"):
            square_cohomology(grid, family, PathSpec("RD"), 3)

    def test_column_condition(self):
        grid = grid_of(const_floor(trivial_monoid(), Z),
                       const_floor(cyclic_group(2), Z),
                       const_floor(union_monoid([{"x"}]), Z))
        one = AbHom(Z, Z, ((1,),))
        family = VerticalFamily.explicit({(0, 0): one, (1, 0): one})
        assert len(family.column_violations()) == 1
        with pytest.raises(ColumnConditionError, match="floor 0, degree 0"):
            square_cohomology(grid, family, PathSpec("DD"), 2)

    def test_explicit_map_with_wrong_groups(self):
        grid, _ = self.witness_setup()
        bad = AbHom(Z, Z, ((1,),))
        family = VerticalFamily.explicit({(0, 1): bad})
        with pytest.raises(ValueError, match="vertical map at"):
            validate_mixed_compositions(grid, family, PathSpec("RD"), 3)


class TestClassification:
    def test_nonzero_vertical_flanks_are_extremal(self):
        grid = grid_of(const_floor(trivial_monoid(), Z),
                       const_floor(cyclic_group(2), Z))
        # identity between the two degree 0 groups, both Z
        family = VerticalFamily.explicit({(0, 0): AbHom(Z, Z, ((1,),))})
        pc = PathCochain(grid, family, PathSpec("D"), 2)
        tags = classify_trivial(pc)
        assert tags[0] == "extremal"  # start then nonzero vertical
        assert tags[1] == "extremal"  # nonzero vertical then horizontal

    def test_explicit_zero_blocks_classify_like_zero_family(self):
        grid = grid_of(const_floor(cyclic_group(2), Z),
                       const_floor(cyclic_group(3), Z))
        family = VerticalFamily.explicit(
            {(0, 0): AbHom.zero(Z, Z)})
        pc = PathCochain(grid, family, PathSpec("D"), 2)
        assert classify_trivial(pc)[:2] == ["full_cochain_group", "kernel_group"]


def exactness(grid, family, path, p_max):
    """local_exactness_report on a square report computed for it."""
    return local_exactness_report(
        grid, family, path, p_max,
        square_report=square_cohomology(grid, family, path, p_max))


class TestLocalExactness:
    def test_single_floor_single_tail_run(self):
        m = cyclic_group(2)
        grid = grid_of(const_floor(m, Z))
        report = exactness(grid, VerticalFamily.zero(), PathSpec(""), 4)
        assert len(report.runs) == 1
        run = report.runs[0]
        assert (run.floor, run.start_degree, run.end_degree) == (0, 0, 4)
        assert run.tail and not run.short
        assert report.all_identified
        assert report.extremal_positions == ()

    def test_staircase_runs(self):
        grid = grid_of(const_floor(cyclic_group(2), Z),
                       const_floor(cyclic_group(3), Z),
                       const_floor(cyclic_group(4), Z))
        report = exactness(grid, VerticalFamily.zero(), PathSpec("DRDR"), 4)
        assert len(report.runs) == 2
        first, last = report.runs
        assert (first.floor, first.start_degree, first.end_degree) == (1, 0, 1)
        assert first.short and not first.tail
        assert first.length == 1
        assert (last.floor, last.start_degree, last.end_degree) == (2, 1, 4)
        assert last.tail and not last.short
        assert report.extremal_positions == ((1, 1),)
        assert report.all_identified
        degrees = [(i.floor, i.degree) for i in report.identifications]
        assert degrees == [(2, 2), (2, 3), (2, 4)]

    def test_identification_values(self):
        grid = grid_of(const_floor(cyclic_group(4), Z))
        report = exactness(grid, VerticalFamily.zero(), PathSpec(""), 4)
        assert renders([i.floor_group for i in report.identifications]) == \
            ["Z", "0", "Z/4", "0", "Z/4"]
        assert all(i.matches for i in report.identifications)

    def test_report_for_other_arguments_refused(self):
        grid = grid_of(const_floor(cyclic_group(2), Z),
                       const_floor(cyclic_group(3), Z))
        zero = VerticalFamily.zero()
        square = square_cohomology(grid, zero, PathSpec("D"), 3)
        with pytest.raises(ValueError, match="different path, p_max"):
            local_exactness_report(grid, zero, PathSpec(""), 1,
                                   square_report=square)
        other_grid = grid_of(const_floor(cyclic_group(2), Z),
                             const_floor(cyclic_group(4), Z))
        with pytest.raises(ValueError, match="different grid$"):
            local_exactness_report(other_grid, zero, PathSpec("D"), 3,
                                   square_report=square)
        explicit = VerticalFamily.explicit({(0, 0): AbHom.zero(Z, Z)})
        with pytest.raises(ValueError, match="different family$"):
            local_exactness_report(grid, explicit, PathSpec("D"), 3,
                                   square_report=square)
        # equal arguments in fresh objects are the same request
        same = local_exactness_report(grid, VerticalFamily.zero(),
                                      PathSpec("D"), 3, square_report=square)
        assert same.runs == exactness(grid, zero, PathSpec("D"), 3).runs


def random_family(rng, grid, moves, span=3):
    """One random vertical map at each descent of the path, between the
    cochain groups of the shared degree, entries up to span."""
    maps = {}
    floor = degree = 0
    for move in moves:
        if move == "R":
            degree += 1
            continue
        maps[floor, degree] = random_hom(
            rng, cochain_group(*grid.floors[floor], degree).total,
            cochain_group(*grid.floors[floor + 1], degree).total, span)
        floor += 1
    return VerticalFamily.explicit(maps)


def reference_maps(grid, family, moves, p_max):
    """The path's maps and move tags, read off floor complexes built to
    p_max + 1."""
    full = [LeechComplex(m, c, p_max + 1) for m, c in grid.floors]
    walked = PathSpec(moves).walk(p_max)
    steps = list(zip(walked, walked[1:]))
    maps = [full[f0].differential(d0) if f1 == f0
            else family.hom(f0, full[f0].groups[d0], full[f1].groups[d0])
            for (f0, d0), (f1, _) in steps]
    tags = ["horizontal" if f1 == f0 else "vertical"
            for (f0, _), (f1, _) in steps]
    return maps, tags


WITNESS_GRID = grid_of(const_floor(cyclic_group(3), Zmod(2)),
                       const_floor(union_monoid([{"x"}]), Zmod(2)))
THREE_FLOORS = grid_of(const_floor(cyclic_group(2), Zmod(2)),
                       const_floor(cyclic_group(3), Zmod(2)),
                       const_floor(union_monoid([{"x"}]), Zmod(2)))
# free and torsion cochain groups side by side
MIXED_FLOORS = grid_of(const_floor(cyclic_group(2), Z),
                       const_floor(cyclic_group(3), Zmod(2)),
                       const_floor(union_monoid([{"x"}]), Z))


class TestFailureWitness:
    def test_square_cohomology_raises_the_validate_witness(self):
        # one random vertical map per family, at the degree where the path
        # descends; the first failing pair may be horizontal-then-vertical
        # or vertical-then-horizontal, and is never the first pair
        rng = random.Random(8080)
        seen = set()
        for _ in range(30):
            moves = rng.choice(["RD", "RRD", "RRRD"])
            family = random_family(rng, WITNESS_GRID, moves)
            path = PathSpec(moves)
            expected = validate_mixed_compositions(WITNESS_GRID, family, path, 3)
            if expected is None:
                square_cohomology(WITNESS_GRID, family, path, 3)
                continue
            with pytest.raises(MixedCompositionError) as info:
                square_cohomology(WITNESS_GRID, family, path, 3)
            got = info.value.violation
            assert (got.index, got.position, got.moves) == \
                (expected.index, expected.position, expected.moves)
            assert (got.product.domain, got.product.codomain,
                    got.product.columns) == \
                (expected.product.domain, expected.product.codomain,
                 expected.product.columns)
            seen.add((got.index, got.moves))
        assert min(index for index, _ in seen) > 1
        assert {moves for _, moves in seen} == {
            ("horizontal", "vertical"), ("vertical", "horizontal")}


class TestPathAgainstReference:
    """Random explicit families against maps taken from independently
    built floor complexes: each group against ``cohomology_at`` and the
    lattice reference, each failure against the first nonzero composite."""

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False),
           st.sampled_from([(WITNESS_GRID, "RD"), (WITNESS_GRID, "RRD"),
                            (THREE_FLOORS, "RD"), (THREE_FLOORS, "RRD"),
                            (THREE_FLOORS, "DRDR"), (MIXED_FLOORS, "RD"),
                            (MIXED_FLOORS, "DRDR")]),
           st.integers(2, 3), st.sampled_from([0, 1, 3]))
    def test_groups_and_witness(self, rng, case, p_max, span):
        grid, moves = case
        family = random_family(rng, grid, moves, span)
        path = PathSpec(moves)
        maps, tags = reference_maps(grid, family, moves, p_max)
        failing = [k for k in range(1, len(maps))
                   if not maps[k].compose(maps[k - 1]).is_zero()]
        violation = validate_mixed_compositions(grid, family, path, p_max)
        if failing:
            k = failing[0]
            assert (violation.index, violation.position, violation.moves) == \
                (k, path.walk(p_max)[k], (tags[k - 1], tags[k]))
            assert violation.product.columns == \
                maps[k].compose(maps[k - 1]).columns
            with pytest.raises(MixedCompositionError) as info:
                square_cohomology(grid, family, path, p_max)
            assert info.value.violation.index == k
            return
        assert violation is None
        report = square_cohomology(grid, family, path, p_max)
        start = AbHom.zero(TRIVIAL_GROUP, maps[0].domain)
        ins = [start] + maps[:-1]
        assert report.groups() == [cohomology_at(i, o)
                                   for i, o in zip(ins, maps)]
        assert report.groups() == [oracles.lattice_cohomology_at(i, o)
                                   for i, o in zip(ins, maps)]


def path_of(case):
    if case == "explicit D":
        grid = grid_of(const_floor(trivial_monoid(), Z),
                       const_floor(cyclic_group(2), Z))
        return grid, VerticalFamily.explicit({(0, 0): AbHom(Z, Z, ((1,),))}), \
            PathSpec("D")
    grid = grid_of(const_floor(cyclic_group(2), Zmod(2)),
                   const_floor(cyclic_group(3), Zmod(2)))
    return grid, VerticalFamily.zero(), PathSpec("RDR")


class TestWorkDoneOnce:
    @staticmethod
    def count_work(monkeypatch):
        """Count proofs per pair, eliminations, top ranks, F_p ranks and
        composes."""
        proofs: Counter[tuple[int, int]] = Counter()
        calls: Counter[str] = Counter()
        real_quotient = abelian._composite_quotient
        real_diagonal = abelian._sparse_diagonal
        real_free_rank = abelian._free_row_rank
        real_field_rank = abelian._field_rank
        real_compose = AbHom.compose

        def counted_quotient(outer, inner):
            proofs[id(outer), id(inner)] += 1
            return real_quotient(outer, inner)

        def counted_diagonal(columns):
            calls["elimination"] += 1
            return real_diagonal(columns)

        def counted_free_rank(d_out, bound):
            calls["top rank"] += 1
            return real_free_rank(d_out, bound)

        def counted_field_rank(columns, primes, bound):
            calls["field rank"] += 1
            return real_field_rank(columns, primes, bound)

        def counted_compose(outer, inner):
            calls["compose"] += 1
            return real_compose(outer, inner)

        monkeypatch.setattr(abelian, "_composite_quotient", counted_quotient)
        monkeypatch.setattr(abelian, "_sparse_diagonal", counted_diagonal)
        monkeypatch.setattr(abelian, "_free_row_rank", counted_free_rank)
        monkeypatch.setattr(abelian, "_field_rank", counted_field_rank)
        monkeypatch.setattr(AbHom, "compose", counted_compose)
        return proofs, calls

    @pytest.mark.parametrize("case", ["explicit D", "zero RDR"])
    def test_one_cohomology_per_position_and_no_compose(self, monkeypatch,
                                                        case):
        grid, family, path = path_of(case)
        proofs, calls = self.count_work(monkeypatch)
        square = square_cohomology(grid, family, path, 3)
        exact = local_exactness_report(grid, family, path, 3,
                                       square_report=square)
        assert exact.identifications and exact.all_identified
        # each path pair proven once and no compose.  Over Z: one
        # elimination per cone B_k, one per position, and the free rows of
        # the top map certified by one F_2/F_3 rank, so not eliminated.
        # Over Z/2 every group is elementary: no cone and no top rank, one
        # F_2 rank per differential
        maps = square.cochain.differentials
        assert proofs == Counter(
            {(id(maps[k + 1]), id(maps[k])): 1 for k in range(len(maps) - 1)})
        positions = len(square.entries)
        assert calls == (
            Counter({"elimination": positions, "top rank": 1, "field rank": 1})
            if case == "explicit D" else Counter({"field rank": positions}))

    @pytest.mark.parametrize("case", ["explicit D", "zero RDR"])
    def test_passing_validation_proves_each_pair_once(self, monkeypatch,
                                                      case):
        grid, family, path = path_of(case)
        proofs, calls = self.count_work(monkeypatch)
        assert validate_mixed_compositions(grid, family, path, 3) is None
        assert len(proofs) == len(path.walk(3)) - 2
        assert set(proofs.values()) == {1}
        assert calls == Counter()


class TestFloorDepth:
    def grid_and_family(self):
        grid = grid_of(const_floor(trivial_monoid(), Z),
                       const_floor(cyclic_group(2), Z),
                       const_floor(cyclic_group(3), Z))
        return grid, VerticalFamily.explicit({(0, 0): AbHom(Z, Z, ((1,),))})

    @pytest.mark.parametrize("moves", ["", "D", "DR", "RD", "DRDR"])
    def test_floors_built_to_the_walk(self, monkeypatch, moves):
        # one cochain group per walked position, one coboundary per
        # horizontal move and no floor complex
        grid, family = self.grid_and_family()
        p_max = 3
        walked = PathSpec(moves).walk(p_max)
        built: Counter[str] = Counter()

        def counting(name, real):
            def wrapper(*args):
                built[name] += 1
                return real(*args)
            return wrapper

        for name in ("cochain_group", "coboundary"):
            monkeypatch.setattr(grid_module, name,
                                counting(name, getattr(grid_module, name)))
        monkeypatch.setattr(LeechComplex, "__init__", counting(
            "LeechComplex", LeechComplex.__init__))
        report = square_cohomology(grid, family, PathSpec(moves), p_max)
        monkeypatch.undo()
        maps, tags = reference_maps(grid, family, moves, p_max)
        assert built == Counter({"cochain_group": len(walked),
                                 "coboundary": tags.count("horizontal")})
        start = AbHom.zero(TRIVIAL_GROUP, maps[0].domain)
        expected = [cohomology_at(maps[k - 1] if k else start, maps[k])
                    for k in range(len(maps))]
        assert report.groups() == expected

    @pytest.mark.parametrize("moves, degrees", [("D", "0 and 2"),
                                                ("RD", "1 and 3")],
                             ids=["D", "RD"])
    def test_broken_system_on_a_read_floor_still_raises(self, moves, degrees):
        # the message names the first failing pair the walk reads
        m = cyclic_group(2)
        lstar = {(0, 0): AbHom.identity(Z), (0, 1): AbHom.identity(Z),
                 (1, 0): AbHom(Z, Z, ((-1,),)), (1, 1): AbHom.identity(Z)}
        rstar = {k: AbHom.identity(Z) for k in lstar}
        broken = (m, explicit_system(m, [Z, Z], lstar, rstar))
        grid = grid_of(const_floor(cyclic_group(3), Z), broken)
        message = (f"between degrees {degrees}; the coefficient system does "
                   f"not satisfy the translation relations")
        with pytest.raises(AssertionError, match=message):
            PathCochain(grid, VerticalFamily.zero(), PathSpec(moves), 2)
        with pytest.raises(AssertionError, match=message):
            square_cohomology(grid, VerticalFamily.zero(), PathSpec(moves), 2)
        with pytest.raises(AssertionError, match=message):
            validate_mixed_compositions(grid, VerticalFamily.zero(),
                                        PathSpec(moves), 2)
