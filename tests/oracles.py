"""Independent brute-force references the test suite checks against.

Everything here is deliberately naive: element enumeration for finite
abelian groups, an unnormalized bar-style cochain complex for group
cohomology, the lattice route to ``ker / im`` that tracks full Smith
transforms, dense coboundaries assembled through dense change-of-basis
matrices, dense composition and zero tests of homomorphisms, the
translation-relation check with one composition per relation instance,
universal coefficients read off integral Smith diagonals, and a Bareiss
determinant.  None of it shares code with the
package's cochain construction or its sparse elimination, so agreement is
meaningful.  The one exception is ``eager_double_complex_view``, the route
``is_double_complex`` replaced, kept as the reference for which floor
coboundaries and squares the lazy route skips.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

from moncoh import intmat as im
from moncoh.abelian import (
    AbHom,
    CompositionNonzero,
    FgAbGroup,
    ShapeMismatch,
    smith_normal_form,
)
from moncoh.coeff import CoeffSystem, RelationViolation, constant_system
from moncoh.leech import floor_cochains
from moncoh.totalcx import DoubleComplexView


def elements(orders: Sequence[int]) -> list[tuple[int, ...]]:
    """All coordinate tuples of a finite group given by generator orders."""
    assert all(d > 0 for d in orders), "enumeration needs a finite group"
    return list(itertools.product(*[range(d) for d in orders]))


def reduce_coords(coords: Iterable[int], orders: Sequence[int]) -> tuple[int, ...]:
    return tuple(c % d for c, d in zip(coords, orders))


def apply_matrix(matrix: Sequence[Sequence[int]], x: Sequence[int],
                 cod_orders: Sequence[int]) -> tuple[int, ...]:
    out = [sum(r * xi for r, xi in zip(row, x)) for row in matrix]
    return reduce_coords(out, cod_orders)


def brute_kernel_and_image(matrix, dom_orders, cod_orders):
    """Kernel elements (domain coords) and image elements (codomain coords)."""
    kernel = []
    img = set()
    zero = tuple(0 for _ in cod_orders)
    for x in elements(dom_orders):
        y = apply_matrix(matrix, x, cod_orders)
        img.add(y)
        if y == zero:
            kernel.append(x)
    return kernel, img


def scalar_mult(k: int, x: Sequence[int], orders: Sequence[int]) -> tuple[int, ...]:
    return tuple((k * xi) % d for xi, d in zip(x, orders))


def brute_quotient_order_and_exponent(ambient_orders, numerator, denominator):
    """Order and exponent of numerator/denominator inside a finite group.

    The exponent is found per coset: the least k >= 1 with k*x in the
    denominator.
    """
    num = set(map(tuple, numerator))
    den = set(map(tuple, denominator))
    assert den <= num
    order = len(num) // len(den)
    exponent = 1
    cap = math.lcm(*ambient_orders) if ambient_orders else 1
    for x in num:
        k = 1
        while k <= cap:
            if scalar_mult(k, x, ambient_orders) in den:
                break
            k += 1
        exponent = math.lcm(exponent, k)
    return order, exponent


def group_order(g: FgAbGroup) -> int:
    assert g.free_rank == 0
    return math.prod(g.torsion) if g.torsion else 1


def group_exponent(g: FgAbGroup) -> int:
    assert g.free_rank == 0
    return g.torsion[-1] if g.torsion else 1


def madd(a, b) -> list[list[int]]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_compose(outer: AbHom, inner: AbHom) -> AbHom:
    """outer after inner by a dense matrix product."""
    if inner.codomain != outer.domain:
        raise ShapeMismatch("cannot compose: descriptors differ")
    prod = im.matmul(outer.matrix, inner.matrix, cols_b=inner.domain.ngens)
    return AbHom(inner.domain, outer.codomain, im.freeze(prod))


def dense_is_zero(h: AbHom) -> bool:
    """Every row of the dense matrix in the codomain relation lattice."""
    for order, row in zip(h.codomain.orders, h.matrix):
        if order == 0:
            if any(row):
                return False
        elif any(x % order for x in row):
            return False
    return True


def dense_equals(a: AbHom, b: AbHom) -> bool:
    """Equality as homomorphisms from the dense matrices."""
    if (a.domain, a.codomain) != (b.domain, b.codomain):
        return False
    diff = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.matrix, b.matrix)]
    return dense_is_zero(AbHom(a.domain, a.codomain, diff))


def eager_double_complex_view(grid, family, p_max: int) -> DoubleComplexView:
    """Every floor built to degree p_max + 1 by ``floor_cochains`` and every
    square (f, d) composed both ways, densely."""
    floors = [floor_cochains(m, c, p_max + 1) for m, c in grid.floors]
    rows = []
    for f, ((source, lower), (target, upper)) in enumerate(
            zip(floors, floors[1:])):
        vert = [family.hom(f, s, t) for s, t in zip(source, target)]
        rows.append(tuple(
            dense_equals(dense_compose(upper[d], vert[d]),
                         dense_compose(vert[d + 1], lower[d]))
            for d in range(p_max + 1)))
    return DoubleComplexView(len(floors), p_max, tuple(rows),
                             not family.column_violations())


def random_hom(rng, dom: FgAbGroup, cod: FgAbGroup, span: int = 3) -> AbHom:
    """A uniformly messy but well-defined homomorphism."""
    rows = []
    for cord in cod.orders:
        row = []
        for dord in dom.orders:
            if dord == 0:
                row.append(rng.randint(-span, span))
            elif cord == 0:
                row.append(0)
            else:
                step = cord // math.gcd(dord, cord)
                row.append(step * rng.randint(-span, span))
        rows.append(row)
    return AbHom(dom, cod, tuple(map(tuple, rows)))


def bar_differential(table: Sequence[Sequence[int]], n: int,
                     action: Sequence[Sequence[Sequence[int]]],
                     rank: int) -> list[list[int]]:
    """Unnormalized bar-complex differential C^n -> C^(n+1) for a group.

    C^n is one copy of the module per n-tuple over ALL group elements,
    identity included, tuples in lexicographic order.  ``action[g]`` is the
    rank x rank integer matrix by which g acts on the module.

        (df)(g_1..g_(n+1)) = g_1 . f(g_2..g_(n+1))
                           + sum_j (-1)^j f(.., g_j g_(j+1), ..)
                           + (-1)^(n+1) f(g_1..g_n)
    """
    m = len(table)
    src = list(itertools.product(range(m), repeat=n))
    tgt = list(itertools.product(range(m), repeat=n + 1))
    src_index = {t: i for i, t in enumerate(src)}
    mat = [[0] * (len(src) * rank) for _ in range(len(tgt) * rank)]

    def bump(out_i: int, in_i: int, block, sign: int) -> None:
        for r in range(rank):
            row = mat[out_i * rank + r]
            for c in range(rank):
                row[in_i * rank + c] += sign * block[r][c]

    ident = [[1 if r == c else 0 for c in range(rank)] for r in range(rank)]
    for out_i, t in enumerate(tgt):
        bump(out_i, src_index[t[1:]], action[t[0]], 1)
        for j in range(1, n + 1):
            inner = t[:j - 1] + (table[t[j - 1]][t[j]],) + t[j + 1:]
            bump(out_i, src_index[inner], ident, -1 if j % 2 else 1)
        bump(out_i, src_index[t[:-1]], ident, -1 if (n + 1) % 2 else 1)
    return mat


def fp_rank(matrix: Sequence[Sequence[int]], p: int) -> int:
    """Rank over the field with p elements, by Gaussian elimination."""
    rows = [[x % p for x in row] for row in matrix if any(x % p for x in row)]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(inv * x) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def bar_cohomology_dims_mod_p(table: Sequence[Sequence[int]],
                              action: Sequence[Sequence[Sequence[int]]],
                              rank: int, p: int, n_max: int) -> list[int]:
    """dim_(F_p) H^n(G, module) for n = 0..n_max via the unnormalized bar
    complex, for a module that is a vector space over F_p."""
    m = len(table)
    ranks = [fp_rank(bar_differential(table, n, action, rank), p)
             for n in range(n_max + 1)]
    dims = []
    for n in range(n_max + 1):
        dim_cn = rank * m ** n
        prev = ranks[n - 1] if n > 0 else 0
        dims.append(dim_cn - ranks[n] - prev)
    return dims


def hstack(a, b) -> list[list[int]]:
    return [list(ra) + list(rb) for ra, rb in zip(a, b)]


def relation_matrix(group: FgAbGroup) -> list[list[int]]:
    """Diagonal relation lattice generators, one column per torsion generator."""
    rel = im.zeros(group.ngens, len(group.torsion))
    for k, dord in enumerate(group.torsion):
        rel[group.free_rank + k][k] = dord
    return rel


def kernel_membership_columns(matrix, dom_ngens: int,
                              codomain: FgAbGroup) -> list[list[int]]:
    """Columns spanning {x : matrix @ x lies in the codomain relation lattice},
    the projection of the kernel of the matrix augmented with the relations."""
    aug = hstack(matrix, relation_matrix(codomain))
    total_cols = dom_ngens + len(codomain.torsion)
    dec = smith_normal_form(aug, shape=(codomain.ngens, total_cols))
    keep = range(dec.rank, total_cols)
    return [[dec.v[i][j] for j in keep] for i in range(dom_ngens)]


def column_basis(columns, nrows: int) -> list[list[int]]:
    """Basis of the lattice spanned by the columns: with u @ m @ v = d it is
    d_j * u_inv[:, j] over the nonzero diagonal entries."""
    dec = smith_normal_form(columns, shape=(nrows, im.num_cols(columns)))
    diag = dec.diagonal
    return [[diag[j] * dec.u_inv[i][j] for j in range(dec.rank)]
            for i in range(nrows)]


def solve_in_basis(basis, nrows: int, targets) -> list[list[int]]:
    """Solve basis @ y = target for each target column in the span."""
    rank = im.num_cols(basis)
    dec = smith_normal_form(basis, shape=(nrows, rank))
    assert dec.rank == rank, "basis columns are not independent"
    ntargets = im.num_cols(targets)
    w = im.matmul(dec.u, targets, cols_b=ntargets)
    diag = dec.diagonal
    assert all(x % diag[j] == 0 for j in range(rank) for x in w[j])
    assert not any(any(w[j]) for j in range(rank, nrows))
    reduced = [[w[j][c] // diag[j] for c in range(ntargets)] for j in range(rank)]
    return im.matmul(dec.v, reduced, cols_b=ntargets)


def subquotient(basis, nrows: int, inner_columns) -> FgAbGroup:
    """(span of basis) / (span of inner columns), the inner span inside."""
    rank = im.num_cols(basis)
    y = solve_in_basis(basis, nrows, inner_columns)
    dec = smith_normal_form(y, shape=(rank, im.num_cols(inner_columns)))
    invariants = list(dec.diagonal) + [0] * (rank - len(dec.diagonal))
    return FgAbGroup.from_invariants(invariants)


def lattice_cohomology_at(d_in: AbHom, d_out: AbHom) -> FgAbGroup:
    """ker(d_out) / im(d_in) by lattices in the middle generator space.

    The kernel lattice contains the middle relations, and they are folded
    into the image lattice, which makes the subquotient torsion-correct.
    Four dense Smith forms with transforms per call: the reference, not a
    fast path.
    """
    if d_in.codomain != d_out.domain:
        raise ShapeMismatch("middle groups differ")
    if not dense_is_zero(dense_compose(d_out, d_in)):
        raise CompositionNonzero("d_out after d_in is not the zero homomorphism")
    mid = d_in.codomain
    span = kernel_membership_columns(d_out.matrix, mid.ngens, d_out.codomain)
    basis = column_basis(span, mid.ngens)
    inner = hstack(d_in.matrix, relation_matrix(mid))
    return subquotient(basis, mid.ngens, inner)


def dense_presentation_to_canonical(orders: Sequence[int]):
    """(group, to_canonical, from_canonical) with dense change-of-basis
    matrices: to_canonical is canonical x presentation, from_canonical
    presentation x canonical, inverse to each other modulo relations.  A
    permutation when the orders form an invariant chain, otherwise read off
    the Smith form of the diagonal relation matrix."""
    n = len(orders)
    free_pos = [i for i, o in enumerate(orders) if o == 0]
    tors_pos = sorted((i for i, o in enumerate(orders) if o != 0),
                      key=lambda i: (orders[i], i))
    chain_ok = all(orders[i] >= 2 for i in tors_pos) and all(
        orders[b] % orders[a] == 0 for a, b in zip(tors_pos, tors_pos[1:]))
    if chain_ok:
        perm = free_pos + tors_pos
        to_can = im.zeros(n, n)
        from_can = im.zeros(n, n)
        for k, p in enumerate(perm):
            to_can[k][p] = 1
            from_can[p][k] = 1
        group = FgAbGroup(len(free_pos), tuple(orders[i] for i in tors_pos))
        return group, to_can, from_can
    rel = im.zeros(n, len(tors_pos))
    for k, p in enumerate(sorted(tors_pos)):
        rel[p][k] = orders[p]
    dec = smith_normal_form(rel, shape=(n, len(tors_pos)))
    diag = dec.diagonal
    rank = dec.rank
    tors_sel = [j for j in range(rank) if diag[j] >= 2]
    selected = list(range(rank, n)) + tors_sel
    group = FgAbGroup(n - rank, tuple(diag[j] for j in tors_sel))
    to_can = [list(dec.u[j]) for j in selected]
    from_can = [[dec.u_inv[i][j] for j in selected] for i in range(n)]
    return group, to_can, from_can


def dense_assemble_hom(dom_components, cod_components, blocks) -> AbHom:
    """The hom between direct sums given by dense (codomain index, domain
    index) blocks on the presentation generators, converted to canonical
    bases by one dense multiplication per side."""
    def presentation(components):
        orders, offsets = [], [0]
        for g in components:
            orders.extend(g.orders)
            offsets.append(offsets[-1] + g.ngens)
        return orders, offsets

    dom_orders, dom_off = presentation(dom_components)
    cod_orders, cod_off = presentation(cod_components)
    dom_total, _, from_dom = dense_presentation_to_canonical(dom_orders)
    cod_total, to_cod, _ = dense_presentation_to_canonical(cod_orders)
    big = im.zeros(len(cod_orders), len(dom_orders))
    for (ci, di), block in blocks.items():
        for r, row in enumerate(block):
            for c, val in enumerate(row):
                big[cod_off[ci] + r][dom_off[di] + c] += val
    lifted = im.matmul(to_cod, big, cols_b=len(dom_orders))
    mat = im.matmul(lifted, from_dom, cols_b=dom_total.ngens)
    return AbHom(dom_total, cod_total, im.freeze(mat))


def dense_coboundary(m, c, n: int) -> AbHom:
    """The normalized degree n coboundary of a monoid with coefficients,
    one dense block per term, assembled by ``dense_assemble_hom``."""
    e = m.identity_index
    non_id = [a for a in range(m.size) if a != e]

    def product(t):
        x = e
        for a in t:
            x = m.mul(x, a)
        return x

    src = list(itertools.product(non_id, repeat=n))
    tgt = list(itertools.product(non_id, repeat=n + 1))
    index_of = {t: i for i, t in enumerate(src)}
    blocks = {}

    def add(out_i, in_i, block, sign):
        scaled = [[sign * x for x in row] for row in block]
        cur = blocks.get((out_i, in_i))
        blocks[(out_i, in_i)] = scaled if cur is None else madd(cur, scaled)

    for out_i, t in enumerate(tgt):
        add(out_i, index_of[t[1:]], c.lstar[(t[0], product(t[1:]))].matrix, 1)
        for j in range(1, n + 1):
            merged = m.mul(t[j - 1], t[j])
            if merged == e:
                continue
            inner = t[:j - 1] + (merged,) + t[j + 1:]
            add(out_i, index_of[inner],
                im.identity(c.groups[product(inner)].ngens), -1 if j % 2 else 1)
        add(out_i, index_of[t[:-1]], c.rstar[(t[n], product(t[:-1]))].matrix,
            -1 if (n + 1) % 2 else 1)
    return dense_assemble_hom([c.groups[product(t)] for t in src],
                              [c.groups[product(t)] for t in tgt], blocks)


def uct_cohomology_table(m, group: FgAbGroup, p: int) -> list[FgAbGroup]:
    """H^0 .. H^p of a monoid with constant coefficients A = group, by
    universal coefficients.

    The integral normalized complex splits into pieces Z and Z --e--> Z,
    one e for each entry of E_n, the nonzero Smith diagonal of the
    integral d^n.  So H^n(M; A) = A^(f_n) + sum over E_n of A[e] + sum
    over E_(n-1) of A/eA, with f_n = c_n - |E_n| - |E_(n-1)|.  Only dense
    Smith forms of integer matrices are used: no cone and no field rank.
    """
    integral = constant_system(m, FgAbGroup(1))
    ngens, diagonals = [], []
    for n in range(p + 1):
        d = dense_coboundary(m, integral, n)
        snf = smith_normal_form(d.matrix, (d.codomain.ngens, d.domain.ngens))
        ngens.append(d.domain.ngens)
        diagonals.append([e for e in snf.diagonal if e])
    a_factors = [0] * group.free_rank + list(group.torsion)
    table = []
    for n in range(p + 1):
        below = diagonals[n - 1] if n else []
        free = ngens[n] - len(diagonals[n]) - len(below)
        assert free >= 0
        factors = a_factors * free
        # A[e]: only torsion summands have elements killed by e
        factors += [math.gcd(e, t) for e in diagonals[n] for t in group.torsion]
        # A/eA: Z/e per free summand, Z/gcd(e, t) per torsion summand
        factors += [f for e in below
                    for f in [e] * group.free_rank
                    + [math.gcd(e, t) for t in group.torsion]]
        table.append(FgAbGroup.from_invariants(factors))
    return table


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def reference_validate_relations(c: CoeffSystem) -> list[RelationViolation]:
    """The four translation-relation families, composing and comparing the
    maps afresh for every element triple, with nothing shared between
    triples."""
    m = c.monoid
    names = m.element_names
    e = m.identity_index
    out: list[RelationViolation] = []

    for x in range(m.size):
        if not c.lstar[(e, x)].equals(AbHom.identity(c.groups[x])):
            out.append(RelationViolation(
                "identity translation", (names[x],),
                "left translation by the identity is not the identity map"))
        if not c.rstar[(e, x)].equals(AbHom.identity(c.groups[x])):
            out.append(RelationViolation(
                "identity translation", (names[x],),
                "right translation by the identity is not the identity map"))

    for a in range(m.size):
        for b in range(m.size):
            for x in range(m.size):
                lhs = c.lstar[(m.mul(a, b), x)]
                rhs = c.lstar[(a, m.mul(b, x))].compose(c.lstar[(b, x)])
                if not lhs.equals(rhs):
                    out.append(RelationViolation(
                        "left translation composition", (names[a], names[b], names[x]),
                        "translation by a*b differs from translating by b then a"))

                lhs = c.rstar[(m.mul(a, b), x)]
                rhs = c.rstar[(b, m.mul(x, a))].compose(c.rstar[(a, x)])
                if not lhs.equals(rhs):
                    out.append(RelationViolation(
                        "right translation composition", (names[a], names[b], names[x]),
                        "translation by a*b differs from translating by a then b"))

                lhs = c.rstar[(b, m.mul(a, x))].compose(c.lstar[(a, x)])
                rhs = c.lstar[(a, m.mul(x, b))].compose(c.rstar[(b, x)])
                if not lhs.equals(rhs):
                    out.append(RelationViolation(
                        "mixed translation commutation", (names[a], names[b], names[x]),
                        "left translation by a and right translation by b do not commute"))
    return out
