"""Normalized cochain complexes of a finite monoid with coefficients.

Degree n cochains are functions on n-tuples of non-identity elements,
the value on (a_1, ..., a_n) living in the group attached to the product
a_1 * ... * a_n.  Normalization is realized by omitting every tuple that
contains the identity, so the degree n group is a direct sum over
(m - 1)^n tuples, listed lexicographically by element index.  Degree 0 is
the single group attached to the identity.

The coboundary sends a degree n cochain f to the degree n + 1 cochain

    (a_1, ..., a_(n+1)) |->
        lstar(a_1)(f(a_2, ..., a_(n+1)))
      + sum_j (-1)^j f(a_1, ..., a_j * a_(j+1), ..., a_(n+1))
      + (-1)^(n+1) rstar(a_(n+1))(f(a_1, ..., a_n))

where a middle term vanishes whenever the merged entry is the identity.
Merged tuples multiply to the same element as the output tuple, so the
middle blocks are plain signed identity matrices.

Leech tables are read off a smaller complex with the same cohomology,
reduced along a one-level algebraic Morse matching (``MorseLeechComplex``).

Cohomology indexing: H^n = ker(d^n) / im(d^(n-1)) with d^(-1) = 0, so H^0
is the kernel of the degree 0 coboundary.  Reports carry this convention
explicitly because the shifted labelling H^n = ker(d^(n+1)) / im(d^n) also
appears in the literature; under that reading every table in this package
shifts down by one degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Container, Iterable

from .abelian import (
    AbHom,
    CochainComplex,
    DirectSum,
    FgAbGroup,
    SparseColumn,
    _apply_sparse,
    _integers_only,
    assemble_hom,
    direct_sum_ngens,
)
from .coeff import CoeffSystem, validate_relations
from .monoid import FinMonoid

INDEXING_CONVENTION = "H^n = ker(d^n) / im(d^(n-1)) with d^(-1) = 0"
ALTERNATE_INDEXING_NOTE = (
    "under the shifted labelling H^n = ker(d^(n+1)) / im(d^n) every degree "
    "in these tables moves down by one")


@dataclass(frozen=True)
class CochainGroup:
    """Degree n cochain group of a monoid with a coefficient system.

    Its components are the (m.size - 1)^n tuples of non-identity elements
    in lexicographic order, the order of
    ``itertools.product(m.non_identity(), repeat=n)``; that order fixes
    the coordinates of the group, including those of vertical maps given
    in documents.  The tuples are not stored: with k = m.size - 1, entry q
    of tuple i is ``non_identity()[i // k^(n-1-q) % k]``.
    ``products[i]`` is the product of tuple i.
    """

    degree: int
    products: tuple[int, ...]
    dsum: DirectSum

    @property
    def total(self) -> FgAbGroup:
        return self.dsum.total


def _check(m: FinMonoid, c: CoeffSystem, n: int,
           what: str = "cochain degree") -> None:
    if c.monoid is not m and c.monoid != m:
        raise ValueError("coefficient system belongs to a different monoid")
    _integers_only([[n]], what)
    if n < 0:
        raise ValueError(f"{what} must be nonnegative")


def cochain_group(m: FinMonoid, c: CoeffSystem, n: int) -> CochainGroup:
    """Build the degree n cochain group; (m.size - 1)^n components."""
    _check(m, c, n)
    non_id = m.non_identity()
    # tuple t + (a,) follows t + (b,) for b < a, so each degree's products
    # extend the previous degree's in order
    products = [m.identity_index]
    for _ in range(n):
        products = [m.table[p][a] for p in products for a in non_id]
    return CochainGroup(n, tuple(products),
                        DirectSum.of([c.groups[p] for p in products]))


def cochain_ngens(m: FinMonoid, c: CoeffSystem, n: int) -> int:
    """Canonical generators of the degree n cochain group, counted without
    building it: how many tuples have each product, then
    ``direct_sum_ngens``."""
    _check(m, c, n)
    non_id = m.non_identity()
    counts = [0] * m.size
    counts[m.identity_index] = 1
    for _ in range(n):
        step = [0] * m.size
        for p, k in enumerate(counts):
            if k:
                row = m.table[p]
                for a in non_id:
                    step[row[a]] += k
        counts = step
    multiplicity: dict[FgAbGroup, int] = {}
    for p, k in enumerate(counts):
        if k:
            g = c.groups[p]
            multiplicity[g] = multiplicity.get(g, 0) + k
    return direct_sum_ngens(multiplicity)


def _face_rule(m: FinMonoid, c: CoeffSystem, n: int,
               heads: Container[int] | None, present: Iterable[int]
               ) -> Callable[[int, int], list[tuple]]:
    """faces(i, p) lists the terms of d^n that read f(s), for the degree n
    tuple s with lexicographic index i and product p, as (target index,
    translation block or None for a signed identity, sign): lstar, then
    middle by q, then rstar, kept when the target starts with an element
    of heads (every element for None).  With k = m.size - 1, (a, s) is
    pos(a) * k^n + i (lstar), (s, a) is i * k + pos(a) (rstar), and
    splitting s_q into each x * y = s_q gives the middle terms.  Blocks
    are built for the products in present."""
    non_id = m.non_identity()
    k = len(non_id)
    width = k ** n
    splits = m.factor_pairs
    head = [True] * k if heads is None else [a in heads for a in non_id]
    # x * y = s_0 with x a head
    first = splits if heads is None else [
        tuple(xy for xy in fs if head[xy // k]) for fs in splits]
    left = {p: [(pa * width, c.lstar[a, p].columns)
                for pa, a in enumerate(non_id) if head[pa]] for p in present}
    right = {p: [(pa, c.rstar[a, p].columns) for pa, a in enumerate(non_id)
                 if n or head[pa]] for p in present}
    right_sign = -1 if (n + 1) % 2 else 1

    def faces(i: int, p: int) -> list[tuple]:
        terms = [(t + i, block, 1) for t, block in left[p]]
        w = width
        for q in range(n):
            # entry q of s is the digit of weight w = k^(n-1-q) in i
            w //= k
            base = i // (w * k) * (w * k * k) + i % w
            sign = -1 if q % 2 == 0 else 1
            terms += [(base + xy * w, None, sign) for xy in
                      (splits if q else first)[non_id[i // w % k]]]
            if q == 0 and not head[i // w]:
                return terms  # every later target starts with s_0
        terms += [(i * k + pa, block, right_sign) for pa, block in right[p]]
        return terms

    return faces


def coboundary(m: FinMonoid, c: CoeffSystem, n: int,
               source: CochainGroup | None = None,
               target: CochainGroup | None = None) -> AbHom:
    """The degree n coboundary d^n : C^n -> C^(n+1), its sparse columns
    filled one source tuple at a time from ``_face_rule`` with every
    element as a head, then converted by ``assemble_hom``."""
    _check(m, c, n)
    src = source if source is not None else cochain_group(m, c, n)
    tgt = target if target is not None else cochain_group(m, c, n + 1)
    if (src.degree, tgt.degree) != (n, n + 1):
        raise ValueError(f"d^{n} needs groups of degrees {n} and {n + 1}")
    faces = _face_rule(m, c, n, None, set(src.products))
    src_off, tgt_off = src.dsum.offsets, tgt.dsum.offsets
    # one int per target row, shared as a key by every column that has the
    # row; a fresh sum row0 + r per entry would cost 32 bytes per nonzero
    rows = tuple(range(tgt_off[-1]))
    columns: list[SparseColumn] = [{}] * src_off[-1]
    for i, p in enumerate(src.products):
        lo, hi = src_off[i], src_off[i + 1]
        if lo == hi:
            continue
        terms = faces(i, p)
        # rows in ascending target order, the order a row-by-row build
        # inserts them: elimination breaks ties between pivots by the order
        # of a column's entries, so this keeps its pivots and fill-in
        terms.sort(key=itemgetter(0))
        for g in range(hi - lo):
            col: SparseColumn = {}
            for t, block, sign in terms:
                row0 = tgt_off[t]
                if block is None:
                    row = rows[row0 + g]
                    col[row] = col.get(row, 0) + sign
                else:
                    for r, x in block[g].items():
                        row = rows[row0 + r]
                        col[row] = col.get(row, 0) + sign * x
            columns[lo + g] = col
    return assemble_hom(src.dsum, tgt.dsum, columns)


def translation_failure(n: int) -> AssertionError:
    """The error for d^(n+1) after d^n nonzero, in a floor complex or
    along a path."""
    return AssertionError(
        f"coboundary squared is nonzero between degrees {n} and {n + 2}; "
        f"the coefficient system does not satisfy the translation relations")


def floor_cochains(monoid: FinMonoid, coeffs: CoeffSystem, max_degree: int
                   ) -> tuple[list[CochainGroup], list[AbHom]]:
    """C^0..C^P and d^0..d^(P-1), built once and not proven: the groups
    and maps of a ``LeechComplex`` or of one floor of a total complex."""
    _check(monoid, coeffs, max_degree, "max degree")
    groups = [cochain_group(monoid, coeffs, k) for k in range(max_degree + 1)]
    return groups, [coboundary(monoid, coeffs, k, groups[k], groups[k + 1])
                    for k in range(max_degree)]


class LeechComplex(CochainComplex):
    """Cochain groups C^0..C^P and coboundaries d^0..d^(P-1), with
    d o d = 0 verified once per pair at construction; each H^n is computed
    on first request and kept."""

    def __init__(self, monoid: FinMonoid, coeffs: CoeffSystem, max_degree: int):
        self.groups, differentials = floor_cochains(monoid, coeffs, max_degree)
        super().__init__(self.groups[0].total, differentials,
                         translation_failure)


# generators S, the chosen pairs {(s(a), r(a)): a}, word lengths
Matching = tuple[list[int], dict[tuple[int, int], int], list[int]]


def one_level_matching(m: FinMonoid) -> Matching:
    """Generators S, picked greedily in ``non_identity()`` order, and for
    every a outside S and the identity a split a = s(a) * r(a), found by
    breadth-first search from the identity under left multiplication by S,
    so that r(a) is one letter shorter than a.  Returns S, the chosen
    pairs as {(s(a), r(a)): a}, and the word length of each element."""
    table, e = m.table, m.identity_index

    def search(gens: list[int]) -> tuple[list[int], dict[tuple[int, int], int]]:
        length = [-1] * m.size
        length[e] = 0
        pairs: dict[tuple[int, int], int] = {}
        frontier = [e]
        while frontier:
            reached = []
            for b in frontier:
                for s in gens:
                    a = table[s][b]
                    if length[a] < 0:
                        length[a] = length[b] + 1
                        reached.append(a)
                        if b != e:  # S itself is reached from e first
                            pairs[s, b] = a
            frontier = reached
        return length, pairs

    gens: list[int] = []
    length, pairs = search(gens)
    for t in m.non_identity():
        if length[t] < 0:
            gens.append(t)
            length, pairs = search(gens)
    return gens, pairs, length


class MorseLeechComplex(CochainComplex):
    """The Leech complex reduced along ``matching``, the one-level Morse
    matching ``one_level_matching(monoid)`` (Skoeldberg, Trans. AMS 2006;
    Brown 1992).

    The cell x = (a, t_2, ...), a outside S and the identity, is matched
    with y = (s(a), r(a), t_2, ...).  Only the first middle face of y
    reaches x, so their block is minus the identity, invertible with any
    coefficients; besides y, the column of x meets only matched cells
    (s', a, ...) one letter longer, so the matching is acyclic.  The
    critical cells are (), each (s) and each (s, t_2, ...) whose first two
    entries are not a chosen pair.  ``cells[n]`` lists their indices in
    ``cochain_group(monoid, coeffs, n)``; ``groups[n]`` is their sum.

    Column c of the reduced d^n is d(c) with its matched cells cleared
    level by level, each by adding its value times its partner's column,
    then projected onto the critical cells: Gaussian elimination along
    the matched blocks, reading d from ``_face_rule`` with the heads S:
    only cells whose first entry lies in S survive the projection.  It
    keeps cohomology when the full complex squares to zero, which
    ``leech_cohomology_table`` first certifies by ``validate_relations``;
    the engine proves each reduced pair.
    """

    def __init__(self, monoid: FinMonoid, coeffs: CoeffSystem, max_degree: int,
                 matching: Matching):
        _check(monoid, coeffs, max_degree, "max degree")
        gens, pairs, length = matching
        table, non_id = monoid.table, monoid.non_identity()
        k = len(non_id)
        pos = {a: pa for pa, a in enumerate(non_id)}
        # a by the two-digit code pos(s(a)) * k + pos(r(a)) of its split
        chosen = {pos[s] * k + pos[r]: a for (s, r), a in pairs.items()}

        cells, products = [[0]], [[monoid.identity_index]]
        for n in range(1, max_degree + 1):
            step = [(i * k + pos[t], table[p][t])
                    for i, p in zip(cells[-1], products[-1])
                    for t in (gens if n == 1 else non_id)
                    if n != 2 or i * k + pos[t] not in chosen]
            cells.append([i for i, _ in step])
            products.append([p for _, p in step])
        self.cells = cells
        self.groups = [DirectSum.of([coeffs.groups[p] for p in prods])
                       for prods in products]

        top = max(length)
        differentials = []
        tails = [monoid.identity_index]  # the products of C^(n-1), by index
        for n in range(max_degree):
            if n > 1:
                tails = [table[p][t] for p in tails for t in non_id]
            faces = _face_rule(monoid, coeffs, n, gens, range(monoid.size))
            # a degree n + 1 target t, n > 0, starts with the code t // w
            w, codes = k ** max(n - 1, 0), chosen if n else {}

            def add(v: dict, queue: list, i: int, p: int,
                    vec: SparseColumn) -> None:
                """v += d(vec at cell i of product p); a matched cell met
                for the first time joins the queue of its level."""
                negated = {j: -x for j, x in vec.items()}
                for t, block, sign in faces(i, p):
                    vt = vec if sign > 0 else negated
                    vt = vt if block is None else _apply_sparse(block, vt)
                    cur = v.get(t)
                    if cur is None:
                        v[t] = dict(vt)
                        a = codes.get(t // w)
                        if a is not None:
                            queue[length[a]].append(t)
                    else:
                        for j, x in vt.items():
                            cur[j] = cur.get(j, 0) + x

            src, tgt = self.groups[n], self.groups[n + 1]
            where = dict(zip(cells[n + 1], tgt.offsets))
            columns: list[SparseColumn] = []
            for i, p in zip(cells[n], products[n]):
                for g in range(coeffs.groups[p].ngens):
                    v: dict[int, SparseColumn] = {}
                    queue: list[list[int]] = [[] for _ in range(top + 1)]
                    add(v, queue, i, p, {g: 1})
                    for level in queue:
                        for y in level:
                            vy = v[y]
                            if any(vy.values()):
                                a, rest = codes[y // w], y % w
                                add(v, queue, pos[a] * w + rest,
                                    table[a][tails[rest]], dict(vy))
                                if any(v[y].values()):
                                    raise AssertionError(
                                        f"matched cell {y} was not cleared")
                            del v[y]
                    col: SparseColumn = {}
                    for z, vz in v.items():
                        off = where.get(z)
                        if off is not None:
                            for j, x in vz.items():
                                if x:
                                    col[off + j] = x
                    columns.append(col)
            differentials.append(assemble_hom(src, tgt, columns))
        super().__init__(self.groups[0].total, differentials,
                         translation_failure)


def leech_cohomology_table(m: FinMonoid, c: CoeffSystem,
                           p_max: int) -> list[FgAbGroup]:
    """H^0 .. H^p_max computed from a single complex.

    The complex is the ``MorseLeechComplex`` when the one-level matching
    pairs some cells and ``validate_relations`` certifies that the full
    complex squares to zero, and otherwise the ``LeechComplex``; a
    mismatched monoid or a negative degree raises the same error either
    way."""
    _integers_only([[p_max]], "degree bound")
    matching = one_level_matching(m)
    if matching[1] and not validate_relations(c):
        cx: CochainComplex = MorseLeechComplex(m, c, p_max + 1, matching)
    else:
        cx = LeechComplex(m, c, p_max + 1)
    return [cx.cohomology(k) for k in range(p_max + 1)]
