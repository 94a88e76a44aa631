"""Acceptance checks, one test per criterion.

Each test prints a single line "[criterion NN] PASS/FAIL ..." (visible
with -s; the -v listing mirrors it) and asserts that no configuration
failed, so a red test pinpoints its criterion.
"""

import itertools
import random

import pytest

from moncoh.abelian import (
    AbHom,
    DirectSum,
    FgAbGroup,
    TRIVIAL_GROUP,
    Z,
    Zmod,
    cohomology_at,
    smith_normal_form,
)
from moncoh.coeff import CoeffSystem, constant_system, group_action_system
from moncoh.grid import GridSpec, PathSpec, VerticalFamily, square_cohomology
from moncoh.intmat import matmul
from moncoh.leech import LeechComplex, cochain_group, leech_cohomology_table
from moncoh.monoid import FinMonoid, cyclic_group, power_set_monoid
from moncoh.structured import (
    NotSurjective,
    StructureDescriptor,
    build_Kn,
    build_gr,
    check_h_surjective,
    h_pipeline,
)
from moncoh.totalcx import TotalComplex, total_cohomology

from catalog import disjoint_pair_system, seven_point_system, small_monoids
from oracles import bar_differential, determinant, lattice_cohomology_at

COEFF_GROUPS = [Z, Zmod(2), Zmod(4), FgAbGroup(1, (2,))]


def report(num: int, description: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {num:02d}] {status} {description}")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])


# corpus builders --------------------------------------------------------


def random_transformation_monoid(rng: random.Random,
                                 max_size: int = 4) -> FinMonoid | None:
    """Monoid of self-maps of a small point set under composition, closed
    from random generators; associativity holds by construction."""
    points = rng.choice((2, 2, 3, 3, 3, 4))
    n_gens = rng.choice((1, 2))
    gens = [tuple(rng.randrange(points) for _ in range(points))
            for _ in range(n_gens)]
    ident = tuple(range(points))
    elems = {ident}
    queue = [ident]
    while queue:
        f = queue.pop()
        for g in gens:
            h = tuple(f[g[i]] for i in range(points))
            if h not in elems:
                if len(elems) >= max_size:
                    return None
                elems.add(h)
                queue.append(h)
    ordered = sorted(elems)
    index = {f: i for i, f in enumerate(ordered)}
    table = tuple(
        tuple(index[tuple(a[b[i]] for i in range(points))] for b in ordered)
        for a in ordered)
    names = tuple("f" + "".join(map(str, f)) for f in ordered)
    return FinMonoid(f"T{points}-sub", names, index[ident], table)


def klein_four() -> FinMonoid:
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    index = {p: i for i, p in enumerate(pairs)}
    table = tuple(
        tuple(index[((a + c) % 2, (b + d) % 2)] for c, d in pairs)
        for a, b in pairs)
    return FinMonoid("V4", ("e", "x", "y", "xy"), 0, table)


def parity_action(m: FinMonoid, group: FgAbGroup,
                  parity: list[int]) -> CoeffSystem:
    """Action through a sign character; parity must be a homomorphism to
    the two-element group."""
    ident = AbHom.identity(group)
    neg = AbHom(group, group, [[-1 if i == j else 0 for j in range(group.ngens)]
                               for i in range(group.ngens)])
    return group_action_system(
        m, group, {i: (neg if parity[i] else ident) for i in range(m.size)})


def random_path(rng: random.Random, floors: int, p_max: int) -> PathSpec:
    moves = []
    floor = 0
    for _ in range(rng.randrange(0, p_max + floors + 2)):
        if floor < floors - 1 and rng.random() < 0.4:
            moves.append("D")
            floor += 1
        else:
            moves.append("R")
    return PathSpec("".join(moves))


@pytest.fixture(scope="module")
def grid_corpus():
    """Shared randomized grids for criteria 3 and 4: 2 or 3 floors with
    pairwise distinct monoids of order <= 3, constant systems, zero
    family, random valid paths, p_max = 4."""
    rng = random.Random(987654)
    pool = [m for m in small_monoids() if m.size <= 3]
    entries = []
    for _ in range(50):
        floors = rng.sample(pool, rng.choice((2, 3)))
        grid = GridSpec(tuple(
            (m, constant_system(m, rng.choice(COEFF_GROUPS)))
            for m in floors))
        path = random_path(rng, len(floors), 4)
        square = square_cohomology(grid, VerticalFamily.zero(), path, 4)
        entries.append((grid, path, square))
    return entries


# criteria ---------------------------------------------------------------


def test_criterion_01_coboundary_squares_to_zero():
    rng = random.Random(20260814)
    group_monoids = [cyclic_group(2), cyclic_group(3), cyclic_group(4),
                     klein_four()]
    monoids = list(group_monoids)
    seen = {(m.identity_index, m.table) for m in monoids}
    attempts = 0
    while len(monoids) < 50 and attempts < 4000:
        attempts += 1
        m = random_transformation_monoid(rng)
        if m is None:
            continue
        key = (m.identity_index, m.table)
        if key not in seen:
            seen.add(key)
            monoids.append(m)

    configs: list[tuple[FinMonoid, CoeffSystem, str]] = []
    for m in monoids:
        for g in COEFF_GROUPS:
            configs.append((m, constant_system(m, g), f"constant {g}"))
    parities = {2: [0, 1], 4: [0, 1, 0, 1]}
    for m in group_monoids:
        for g in COEFF_GROUPS:
            if m.size in parities and m.table == cyclic_group(m.size).table:
                par = parities[m.size]
            elif m.name == "V4":
                par = [0, 1, 0, 1]
            else:
                par = [0] * m.size
            configs.append((m, parity_action(m, g, par), f"action {g}"))

    failures = []
    if len(configs) < 100:
        failures.append(f"only {len(configs)} configurations generated")
    for m, c, label in configs:
        try:
            LeechComplex(m, c, 5)
        except AssertionError:
            failures.append(f"d o d != 0 for {m.name} with {label}")
    report(1, f"coboundary squares to zero for n <= 3 on "
              f"{len(configs)} monoid/system configurations", failures)


def test_criterion_02_group_cohomology_oracle():
    cases = [
        (cyclic_group(2), ["Z", "0", "Z/2", "0", "Z/2"]),
        (cyclic_group(3), ["Z", "0", "Z/3", "0", "Z/3"]),
    ]
    failures = []
    for m, expected in cases:
        ours = [g.render()
                for g in leech_cohomology_table(m, constant_system(m, Z), 4)]
        trivial = [[[1]] for _ in range(m.size)]
        free = [FgAbGroup(m.size ** n) for n in range(6)]
        homs = [AbHom.from_rows(free[n], free[n + 1],
                                bar_differential(m.table, n, trivial, 1))
                for n in range(5)]
        bar = []
        for n in range(5):
            d_in = homs[n - 1] if n else AbHom.zero(TRIVIAL_GROUP, free[0])
            bar.append(cohomology_at(d_in, homs[n]).render())
        if ours != expected:
            failures.append(f"{m.name}: engine gave {ours}")
        if bar != expected:
            failures.append(f"{m.name}: bar complex gave {bar}")
        if ours != bar:
            failures.append(f"{m.name}: engine {ours} != bar {bar}")
    report(2, "constant integer cohomology of Z/2 and Z/3 matches the "
              "unnormalized bar complex in degrees 0..4", failures)


def test_criterion_03_trivial_position_equivalence(grid_corpus):
    failures = []
    checked = 0
    for gi, (grid, path, square) in enumerate(grid_corpus):
        pc = square.cochain
        for k, entry in enumerate(square.entries):
            if entry.tag == "full_cochain_group":
                checked += 1
                if entry.group != pc.groups[k].total:
                    failures.append(
                        f"grid {gi} position {k}: H = {entry.group} but the "
                        f"cochain group is {pc.groups[k].total}")
            elif entry.tag == "kernel_group":
                checked += 1
                h = pc.differentials[k]
                # the lattice reference shares no code with cohomology_at,
                # which computed the entry
                ker = lattice_cohomology_at(AbHom.zero(TRIVIAL_GROUP, h.domain), h)
                if entry.group != ker:
                    failures.append(
                        f"grid {gi} position {k}: H = {entry.group} but the "
                        f"kernel is {ker}")
    if len(grid_corpus) < 50:
        failures.append("fewer than 50 grids in the corpus")
    report(3, f"full-cochain and kernel tags verified against direct "
              f"computation at {checked} positions over "
              f"{len(grid_corpus)} random grids", failures)


def test_criterion_04_floor_identification(grid_corpus):
    failures = []
    checked = 0
    for gi, (grid, path, square) in enumerate(grid_corpus):
        tables: dict[int, list[FgAbGroup]] = {}
        for k, entry in enumerate(square.entries):
            if entry.tag != "floor_leech":
                continue
            checked += 1
            if entry.floor not in tables:
                m, c = grid.floors[entry.floor]
                tables[entry.floor] = leech_cohomology_table(m, c, 4)
            floor_value = tables[entry.floor][entry.degree]
            if entry.group != floor_value:
                failures.append(
                    f"grid {gi} position {k} (floor {entry.floor}, degree "
                    f"{entry.degree}): path H = {entry.group}, floor H = "
                    f"{floor_value}")
    report(4, f"path cohomology equals floor cohomology at {checked} "
              f"non-extremal positions over the same corpus", failures)


def test_criterion_05_single_floor_degeneration():
    failures = []
    cases = 0
    for m in small_monoids():
        for g in (Z, Zmod(2)):
            cases += 1
            c = constant_system(m, g)
            grid = GridSpec(((m, c),))
            square = square_cohomology(grid, VerticalFamily.zero(),
                                       PathSpec(""), 4)
            table = leech_cohomology_table(m, c, 4)
            got = [e.group for e in square.entries]
            if got != table:
                failures.append(f"{m.name} over {g}: {got} != {table}")
            if [e.degree for e in square.entries] != [0, 1, 2, 3, 4]:
                failures.append(f"{m.name} over {g}: wrong degrees")
    report(5, f"one-floor all-R paths reproduce the Leech tables in "
              f"degrees 0..4 on {cases} cases", failures)


def test_criterion_06_staircase_path_example():
    pool = [m for m in small_monoids() if m.size <= 3][:3]
    grid = GridSpec(tuple((m, constant_system(m, Z)) for m in pool))
    path = PathSpec("DRDR")
    square = square_cohomology(grid, VerticalFamily.zero(), path, 4)
    expected = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]
    failures = []
    couples = [(e.floor, e.degree) for e in square.entries]
    if couples[:5] != expected:
        failures.append(f"visited couples {couples[:5]} != {expected}")
    if couples[5:] != [(2, 3), (2, 4)]:
        failures.append(f"tail couples {couples[5:]} wrong")
    pc = square.cochain
    for k, (floor, degree) in enumerate(pc.positions):
        m, c = grid.floors[floor]
        want = cochain_group(m, c, degree).total
        if pc.groups[k].total != want:
            failures.append(
                f"position {k} carries {pc.groups[k].total}, expected the "
                f"degree {degree} cochain group of floor {floor}")
    report(6, "moves DRDR visit (0,0),(1,0),(1,1),(2,1),(2,2) carrying "
              "the floor cochain groups", failures)


def test_criterion_07_total_complex_shifted_sum():
    pool = [m for m in small_monoids() if m.size <= 3]
    groups = [Z, Zmod(2), Zmod(4)]
    rng = random.Random(13579)
    failures = []
    cases = 0
    for _ in range(12):
        m0, m1 = rng.sample(pool, 2)
        g0, g1 = rng.choice(groups), rng.choice(groups)
        c0, c1 = constant_system(m0, g0), constant_system(m1, g1)
        grid = GridSpec(((m0, c0), (m1, c1)))
        cases += 1
        tc = TotalComplex(grid, VerticalFamily.zero(), 3)
        for n in range(3):
            comp = tc.differential(n + 1).compose(tc.differential(n))
            if not comp.is_zero():
                failures.append(f"{m0.name}/{m1.name}: D o D != 0 at {n}")
        t0 = leech_cohomology_table(m0, c0, 3)
        t1 = leech_cohomology_table(m1, c1, 3)
        for n in range(4):
            parts = [t0[n]] + ([t1[n - 1]] if n >= 1 else [])
            want = DirectSum.of(parts).total
            got = tc.cohomology(n)
            if got != want:
                failures.append(
                    f"{m0.name}/{m1.name} degree {n}: Tot gives {got}, "
                    f"shifted sum is {want}")
    report(7, f"zero-family total cohomology equals the degree-shifted "
              f"floor sum on {cases} two-floor grids, degrees <= 3",
           failures)


def test_criterion_08_smith_normal_form_properties():
    rng = random.Random(24680)
    failures = []
    for case in range(500):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        mat = [[rng.randrange(-9, 10) for _ in range(cols)]
               for _ in range(rows)]
        dec = smith_normal_form(mat)
        prod = matmul(dec.u, matmul(mat, dec.v, cols_b=cols), cols_b=cols)
        if [list(r) for r in prod] != [list(r) for r in dec.d]:
            failures.append(f"case {case}: U*A*V != D")
            continue
        if abs(determinant(dec.u)) != 1 or abs(determinant(dec.v)) != 1:
            failures.append(f"case {case}: U or V not unimodular")
        diag = list(dec.diagonal)
        for i in range(min(rows, cols)):
            for j in range(min(rows, cols)):
                if i != j and dec.d[i][j] != 0:
                    failures.append(f"case {case}: D not diagonal")
        for a, b in zip(diag, diag[1:]):
            if a == 0 and b != 0:
                failures.append(f"case {case}: zero before nonzero in D")
            if a != 0 and b % a != 0:
                failures.append(f"case {case}: {a} does not divide {b}")
        if any(x < 0 for x in diag):
            failures.append(f"case {case}: negative diagonal entry")
    report(8, "U*A*V = D with unimodular U, V and a divisibility chain "
              "on 500 random matrices", failures)


def test_criterion_09_set_system_pipeline():
    failures = []
    system = seven_point_system()
    if not check_h_surjective(system).ok:
        failures.append("seven-point system flagged as non-surjective")
    sizes = [build_gr(system, r).size for r in range(3)]
    if sizes != [2, 4, 8]:
        failures.append(f"floor sizes {sizes} != [2, 4, 8]")
    try:
        pipeline = h_pipeline(system, coeff_group=Zmod(2), p_max=2)
    except ValueError as exc:
        failures.append(f"pipeline failed: {exc}")
    else:
        if [m.size for m in pipeline.floors] != [2, 4, 8]:
            failures.append("pipeline floors have the wrong sizes")
        if not pipeline.square.entries:
            failures.append("pipeline produced no positions")
        if not pipeline.exactness.all_identified:
            failures.append("floor identifications failed along the path")
    try:
        h_pipeline(disjoint_pair_system(), coeff_group=Zmod(2), p_max=1)
        failures.append("disjoint system was not rejected")
    except NotSurjective as exc:
        if exc.missing != ("{U0,U1}",):
            failures.append(f"missing subcollections reported as {exc.missing}")
    report(9, "seven-point system yields floors 2, 4, 8 with a clean "
              "pipeline run; the disjoint system is rejected by name",
           failures)


def test_criterion_10_structure_class_pipeline():
    failures = []
    descriptors = [
        StructureDescriptor.make([(2, ["associative", "unital",
                                       "invertible"])]),
        StructureDescriptor.make([(2, [])]),
        StructureDescriptor.make([], ["partial-order", "topology"]),
        StructureDescriptor.make([(1, ["involutive"]), (2, ["associative"])]),
    ]
    for n in range(1, 5):
        m = build_Kn(descriptors[:n])
        ps = power_set_monoid(n)
        if not m.same_table(ps) or m.element_names != ps.element_names:
            failures.append(f"K on {n} classes differs from the power set "
                            f"monoid")
    m = build_Kn(descriptors)
    name, e = m.element_names, m.identity_index
    if name[e] != "{}":
        failures.append(f"identity of K4 is {name[e]}, not the empty class set")
    for a, b in itertools.product(range(m.size), repeat=2):
        if m.mul(a, b) != m.mul(b, a):
            failures.append(f"product not commutative at {name[a]}, {name[b]}")
        if m.mul(a, a) != a:
            failures.append(f"product not idempotent at {name[a]}")
        if m.mul(a, e) != a:
            failures.append(f"empty class set not neutral at {name[a]}")
    for a, b, c in itertools.product(range(m.size), repeat=3):
        if m.mul(m.mul(a, b), c) != m.mul(a, m.mul(b, c)):
            failures.append(f"product not associative at {name[a]}, "
                            f"{name[b]}, {name[c]}")
            break
    report(10, "class-subset monoids match power sets for n <= 4 and the "
               "structure product laws hold exhaustively", failures)
