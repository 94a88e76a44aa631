import itertools

import pytest

from moncoh.abelian import Zmod
from moncoh.leech import leech_cohomology_table
from moncoh.monoid import power_set_monoid, validate
from moncoh.structured import (
    ChainPlan,
    NoNewClass,
    NotSurjective,
    SetSystem,
    StructureDescriptor,
    build_gr,
    build_Kn,
    check_h_surjective,
    distinct_classes,
    fs_pipeline,
    h_map,
    h_pipeline,
    reorder_chain,
)

from catalog import disjoint_pair_system, seven_point_system

GROUP = StructureDescriptor.make(
    [(2, ["associative", "unital", "invertible"])])
MAGMA = StructureDescriptor.make([(2, [])])
POSPACE = StructureDescriptor.make([], ["partial-order", "topology"])


class TestDescriptors:
    def test_canonical_sorting(self):
        messy = StructureDescriptor.make(
            [(2, ["b", "a", "a"]), (1, ["z"]), (2, ["a", "b"])],
            ["t2", "t1", "t2"])
        assert messy.operations == (
            (1, ("z",)), (2, ("a", "b")), (2, ("a", "b")))
        assert messy.nonalg_tags == ("t1", "t2")
        assert not messy.is_empty

    def test_equiv_ignores_presentation(self):
        other = StructureDescriptor.make(
            [(2, ["invertible", "associative", "unital", "unital"])])
        assert GROUP == other
        assert GROUP != MAGMA
        assert MAGMA != POSPACE

    def test_bare_set_is_the_empty_structure(self):
        assert StructureDescriptor.make([]).is_empty
        assert StructureDescriptor.make([], []) == StructureDescriptor.make([])
        assert not POSPACE.is_empty

    def test_rejects_bad_arity(self):
        with pytest.raises(ValueError, match="arity"):
            StructureDescriptor.make([(0, [])])

    @pytest.mark.parametrize("arity", [2.0, "2", True])
    def test_rejects_non_integer_arity(self, arity):
        # make used to coerce these to 2, 2 and 1, and the dataclass took True
        message = f"arity must be a positive integer, got {arity!r}"
        with pytest.raises(ValueError, match=message):
            StructureDescriptor.make([(arity, ["assoc"])])
        with pytest.raises(ValueError, match=message):
            StructureDescriptor(((arity, ("assoc",)),), ())

    def test_rejects_noncanonical_fields(self):
        with pytest.raises(ValueError, match="canonical"):
            StructureDescriptor(((2, ("b", "a")),), ())
        with pytest.raises(ValueError, match="canonical"):
            StructureDescriptor((), ("t", "t"))
        with pytest.raises(ValueError, match="canonical order"):
            StructureDescriptor(((2, ()), (1, ())), ())

    def test_rejects_a_bare_string_of_tags(self):
        # make used to read "assoc" as the tags a, c, o, s
        with pytest.raises(ValueError, match="got 'assoc'"):
            StructureDescriptor.make([(2, "assoc")])
        with pytest.raises(ValueError, match="got 'top'"):
            StructureDescriptor.make([], "top")


def class_set(m, element: int) -> frozenset[int]:
    """The class indices an element of a K_n monoid stands for."""
    body = m.element_names[element].strip("{}")
    return frozenset(int(i) for i in body.split(",") if body)


class TestClassSets:
    """The structure product, read off build_Kn's Cayley table."""

    K3 = build_Kn([GROUP, MAGMA, POSPACE])

    def test_empty_product_is_identity(self):
        m = self.K3
        assert class_set(m, m.identity_index) == frozenset()
        for a in range(m.size):
            assert m.mul(a, m.identity_index) == a
            assert m.mul(m.identity_index, a) == a

    def test_product_laws_exhaustive(self):
        m = self.K3
        for a, b in itertools.product(range(m.size), repeat=2):
            assert m.mul(a, b) == m.mul(b, a)
            assert m.mul(a, a) == a
        for a, b, c in itertools.product(range(m.size), repeat=3):
            assert m.mul(m.mul(a, b), c) == m.mul(a, m.mul(b, c))

    def test_product_is_index_union(self):
        m = self.K3
        a = m.element_names.index("{0,2}")
        b = m.element_names.index("{1,2}")
        assert class_set(m, m.mul(a, b)) == frozenset({0, 1, 2})


class TestBuildKn:
    def test_single_class(self):
        m = build_Kn([GROUP])
        assert m.size == 2
        assert m.element_names == ("{}", "{0}")
        assert m.same_table(power_set_monoid(1))

    def test_duplicates_collapse(self):
        shuffled_group = StructureDescriptor.make(
            [(2, ["unital", "invertible", "associative"])])
        m = build_Kn([GROUP, MAGMA, shuffled_group])
        assert m.size == 4
        assert m.name == "K2"
        assert distinct_classes([GROUP, MAGMA, shuffled_group]) == [GROUP, MAGMA]

    def test_matches_power_set_monoid(self):
        descs = [GROUP, MAGMA, POSPACE]
        for n in (1, 2, 3):
            m = build_Kn(descs[:n])
            ps = power_set_monoid(n)
            assert m.element_names == ps.element_names
            assert m.same_table(ps)

    def test_table_realizes_class_union(self):
        m = build_Kn([GROUP, MAGMA, POSPACE])

        for a in range(m.size):
            for b in range(m.size):
                assert class_set(m, m.mul(a, b)) == (class_set(m, a)
                                                     | class_set(m, b))

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            build_Kn([])


class TestSetSystem:
    def test_from_names(self):
        s = seven_point_system()
        assert s.set_count == 3
        assert s.members_of(0) == frozenset({0, 3, 4, 6})
        assert s.set_name(2) == "U2"

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError, match="distinct"):
            SetSystem.from_names(["p", "p"], [("U", ["p"])])

    def test_rejects_duplicate_set_names(self):
        with pytest.raises(ValueError, match="distinct"):
            SetSystem.from_names(["p", "q"], [("U", ["p"]), ("U", ["q"])])

    def test_rejects_equal_sets(self):
        with pytest.raises(ValueError, match="same members"):
            SetSystem.from_names(["p"], [("U0", ["p"]), ("U1", ["p"])])

    def test_rejects_unknown_point(self):
        with pytest.raises(ValueError, match="unknown point"):
            SetSystem.from_names(["p"], [("U0", ["q"])])

    def test_rejects_no_sets(self):
        with pytest.raises(ValueError, match="at least one"):
            SetSystem.from_names(["p"], [])

    def test_rejects_out_of_range_member(self):
        with pytest.raises(ValueError, match="set U0 has an out-of-range member"):
            SetSystem(("p",), (("U0", frozenset({1})),))


class TestSurjectivity:
    def test_seven_point_passes(self):
        report = check_h_surjective(seven_point_system())
        assert report.ok
        assert report.missing == ()
        assert report.hmap["a"] == frozenset({0})
        assert report.hmap["g"] == frozenset({0, 1, 2})

    def test_disjoint_pair_names_the_missing_subcollection(self):
        report = check_h_surjective(disjoint_pair_system())
        assert not report.ok
        assert report.missing == ((0, 1),)
        assert report.missing_names == ("{U0,U1}",)

    def test_nested_pair_misses_the_small_set(self):
        s = SetSystem.from_names(["p", "q"],
                                 [("U0", ["p"]), ("U1", ["p", "q"])])
        report = check_h_surjective(s)
        assert report.missing_names == ("{U0}",)

    def test_h_map_entries_cover_all_points(self):
        s = seven_point_system()
        assert list(h_map(s)) == list(s.points)


class TestReorderChain:
    def test_identity_permutation_with_witnesses(self):
        plan = reorder_chain(seven_point_system())
        assert plan == ChainPlan((0, 1, 2), ("a", "d", "g"))

    def test_raises_with_names(self):
        with pytest.raises(NotSurjective, match=r"\{U0,U1\}"):
            reorder_chain(disjoint_pair_system())
        try:
            reorder_chain(disjoint_pair_system())
        except NotSurjective as exc:
            assert exc.missing == ("{U0,U1}",)


class TestBuildGr:
    def test_floor_sizes_double(self):
        s = seven_point_system()
        assert [build_gr(s, r).size for r in range(3)] == [2, 4, 8]

    def test_top_floor_is_a_power_set(self):
        m = build_gr(seven_point_system(), 2)
        assert m.same_table(power_set_monoid(3))

    def test_every_floor_is_valid_and_idempotent(self):
        s = seven_point_system()
        for r in range(3):
            m = build_gr(s, r)
            assert validate(m) == []
            assert all(m.mul(x, x) == x for x in range(m.size))

    def test_floors_embed_by_element_name(self):
        s = seven_point_system()
        small, big = build_gr(s, 1), build_gr(s, 2)
        lift = {small.element_names[i]: big.element_names.index(n)
                for i, n in enumerate(small.element_names)}
        for a in range(small.size):
            for b in range(small.size):
                expected = lift[small.element_names[small.mul(a, b)]]
                got = big.mul(lift[small.element_names[a]],
                              lift[small.element_names[b]])
                assert got == expected

    def test_nested_sets_give_a_chain(self):
        s = SetSystem.from_names(["p", "q"],
                                 [("U0", ["p"]), ("U1", ["p", "q"])])
        assert build_gr(s, 1).size == 3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            build_gr(seven_point_system(), 3)


def renders(groups) -> list[str]:
    return [g.render() for g in groups]


class TestFsPipeline:
    def test_single_class_all_r_matches_floor_table(self):
        report = fs_pipeline([GROUP], coeff_group=Zmod(2), p_max=2)
        floor, coeff = report.grid.floors[0]
        expected = leech_cohomology_table(floor, coeff, 2)
        assert renders(report.square.groups()) == renders(expected)
        assert renders(report.square.groups()) == ["Z/2", "0", "0"]

    def test_default_staircase_two_classes(self):
        report = fs_pipeline([GROUP, MAGMA], coeff_group=Zmod(2), p_max=2)
        assert [m.size for m in report.floors] == [2, 4]
        assert report.path.prefix_moves == "DR"
        assert report.square.tags() == [
            "full_cochain_group", "kernel_group", "floor_leech", "floor_leech"]
        assert any("staircase" in n for n in report.notes)
        assert any("constant coefficient" in n for n in report.notes)
        assert all(ident.matches for ident in report.exactness.identifications)

    def test_repeated_class_is_rejected(self):
        dup = StructureDescriptor.make(
            [(2, ["invertible", "unital", "associative"])])
        with pytest.raises(NoNewClass, match="descriptor 1"):
            fs_pipeline([GROUP, dup, MAGMA])

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            fs_pipeline([])


class TestHPipeline:
    def test_seven_point_report(self):
        report = h_pipeline(seven_point_system(), coeff_group=Zmod(2),
                            p_max=1)
        assert [m.size for m in report.floors] == [2, 4, 8]
        assert report.chain == ChainPlan((0, 1, 2), ("a", "d", "g"))
        assert report.path.prefix_moves == "DRDR"
        assert report.square.tags()[0] == "full_cochain_group"
        assert renders(report.square.groups())[0] == "Z/2"
        assert any("floor sizes 2, 4, 8" in n for n in report.notes)

    def test_disjoint_system_is_rejected(self):
        with pytest.raises(NotSurjective, match=r"\{U0,U1\}"):
            h_pipeline(disjoint_pair_system())
