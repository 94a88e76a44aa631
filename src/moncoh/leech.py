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
from typing import Sequence

from .abelian import (
    AbHom,
    CochainComplex,
    DirectSum,
    FgAbGroup,
    SparseColumn,
    _apply_sparse,
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


def cochain_group(m: FinMonoid, c: CoeffSystem, n: int) -> CochainGroup:
    """Build the degree n cochain group; (m.size - 1)^n components."""
    if n < 0:
        raise ValueError("cochain degree must be nonnegative")
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
    if n < 0:
        raise ValueError("cochain degree must be nonnegative")
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


def coboundary(m: FinMonoid, c: CoeffSystem, n: int,
               source: CochainGroup | None = None,
               target: CochainGroup | None = None) -> AbHom:
    """The degree n coboundary d^n : C^n -> C^(n+1).

    The sparse presentation columns are filled one source tuple s at a
    time, each with every term that reads f(s).  With k = m.size - 1 and
    tuples numbered lexicographically, the targets are found by index
    arithmetic: (a, s) is row block pos(a) * k^n + idx(s) (lstar), (s, a)
    is idx(s) * k + pos(a) (rstar), and splitting the entry s_j into each
    pair x * y = s_j gives the middle terms.  ``assemble_hom`` converts
    the columns to the canonical bases.
    """
    src = source if source is not None else cochain_group(m, c, n)
    tgt = target if target is not None else cochain_group(m, c, n + 1)
    non_id = m.non_identity()
    k = len(non_id)
    width = k ** n
    splits = m.factor_pairs
    # the translation blocks by the product they act on, in pos(a) order
    present = set(src.products)
    left = {p: [c.lstar[(a, p)].columns for a in non_id] for p in present}
    right = {p: [c.rstar[(a, p)].columns for a in non_id] for p in present}
    right_sign = -1 if (n + 1) % 2 else 1
    src_off, tgt_off = src.dsum.offsets, tgt.dsum.offsets
    # one int per target row, shared as a key by every column that has the
    # row; a fresh sum row0 + r per entry would cost 32 bytes per nonzero
    rows = tuple(range(tgt_off[-1]))
    columns: list[SparseColumn] = [{}] * src_off[-1]
    for i, p in enumerate(src.products):
        lo, hi = src_off[i], src_off[i + 1]
        if lo == hi:
            continue
        # (target tuple index, block or None for the identity, sign)
        terms: list[tuple[int, Sequence[SparseColumn] | None, int]] = [
            (pa * width + i, block, 1) for pa, block in enumerate(left[p])]
        w = width
        for q in range(n):
            # entry q of s is the digit of weight w = k^(n-1-q) in idx(s)
            w //= k
            base = i // (w * k) * (w * k * k) + i % w
            sign = -1 if q % 2 == 0 else 1
            terms += [(base + xy * w, None, sign)
                      for xy in splits[non_id[i // w % k]]]
        terms += [(i * k + pa, block, right_sign)
                  for pa, block in enumerate(right[p])]
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


def _check_floor(monoid: FinMonoid, coeffs: CoeffSystem,
                 max_degree: int) -> None:
    if coeffs.monoid != monoid:
        raise ValueError("coefficient system belongs to a different monoid")
    if max_degree < 0:
        raise ValueError("max degree must be nonnegative")


def floor_cochains(monoid: FinMonoid, coeffs: CoeffSystem, max_degree: int
                   ) -> tuple[list[CochainGroup], list[AbHom]]:
    """C^0..C^P and d^0..d^(P-1), built once and not proven: the groups
    and maps of a ``LeechComplex`` or of one floor of a total complex."""
    _check_floor(monoid, coeffs, max_degree)
    groups = [cochain_group(monoid, coeffs, k) for k in range(max_degree + 1)]
    return groups, [coboundary(monoid, coeffs, k, groups[k], groups[k + 1])
                    for k in range(max_degree)]


class LeechComplex(CochainComplex):
    """Cochain groups C^0..C^P and coboundaries d^0..d^(P-1), with
    d o d = 0 verified once per pair at construction; each H^n is computed
    on first request and kept."""

    def __init__(self, monoid: FinMonoid, coeffs: CoeffSystem, max_degree: int):
        self.groups, differentials = floor_cochains(monoid, coeffs, max_degree)
        super().__init__(differentials, translation_failure)

    def _start(self) -> FgAbGroup:
        return self.groups[0].total


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
    critical cells ``cells[n]``, listed lexicographically, are (), each
    (s) and each (s, t_2, ...) whose first two entries are not a chosen
    pair; ``groups[n]`` is the direct sum of their groups.

    Column c of the reduced d^n is d(c) with its matched cells cleared
    level by level, each by adding its value times its partner's column,
    then projected onto the critical cells: Gaussian elimination along
    the matched blocks.  It keeps cohomology when the full complex
    squares to zero, which ``leech_cohomology_table`` first certifies by
    ``validate_relations``; the engine proves each reduced pair.
    """

    def __init__(self, monoid: FinMonoid, coeffs: CoeffSystem, max_degree: int,
                 matching: Matching):
        _check_floor(monoid, coeffs, max_degree)
        gens, pairs, length = matching
        table, non_id = monoid.table, monoid.non_identity()
        k = len(non_id)
        in_s = [t in gens for t in range(monoid.size)]
        splits = [[(non_id[f // k], non_id[f % k]) for f in fs]
                  for fs in monoid.factor_pairs]
        # x * y = z with x in S: only cells whose first entry lies in S
        # survive the projection
        heads = [[pair for pair in pairs_z if in_s[pair[0]]] for pairs_z in splits]
        lstar = [[coeffs.lstar[b, p].columns for p in range(monoid.size)]
                 for b in range(monoid.size)]
        rstar = [[coeffs.rstar[b, p].columns for p in range(monoid.size)]
                 for b in range(monoid.size)]

        cells: list[list[tuple[int, ...]]] = [[()]]
        products = [[monoid.identity_index]]
        for n in range(1, max_degree + 1):
            step = [(cell + (t,), table[p][t])
                    for cell, p in zip(cells[-1], products[-1])
                    for t in (gens if n == 1 else non_id)
                    if n != 2 or (cell[0], t) not in pairs]
            cells.append([cell for cell, _ in step])
            products.append([p for _, p in step])
        self.cells = cells
        self.groups = [DirectSum.of([coeffs.groups[p] for p in prods])
                       for prods in products]

        def add(v: dict, queue: list, cell: tuple[int, ...], p: int,
                vec: SparseColumn) -> None:
            """v += d(vec at cell) on the cells whose first entry lies in
            S; a matched cell met for the first time joins the queue of
            its level with its product."""
            n = len(cell)
            negated = {i: -x for i, x in vec.items()}
            terms = [((b,) + cell, table[b][p], _apply_sparse(lstar[b][p], vec))
                     for b in gens]
            if n:
                tail = cell[1:]
                terms += [(pair + tail, p, negated) for pair in heads[cell[0]]]
            if not n or in_s[cell[0]]:
                for q in range(1, n):
                    head, tail = cell[:q], cell[q + 1:]
                    w = vec if q % 2 else negated
                    terms += [(head + pair + tail, p, w) for pair in splits[cell[q]]]
                w = vec if n % 2 else negated
                terms += [(cell + (b,), table[p][b], _apply_sparse(rstar[b][p], w))
                          for b in (non_id if n else gens)]
            for z, pz, w in terms:
                cur = v.get(z)
                if cur is None:
                    v[z] = dict(w)
                    a = pairs.get(z[:2])
                    if a is not None:
                        queue[length[a]].append((z, pz))
                else:
                    for i, x in w.items():
                        cur[i] = cur.get(i, 0) + x

        top = max(length)
        differentials = []
        for n in range(max_degree):
            src, tgt = self.groups[n], self.groups[n + 1]
            where = dict(zip(cells[n + 1], tgt.offsets))
            columns: list[SparseColumn] = []
            for cell, p in zip(cells[n], products[n]):
                for g in range(coeffs.groups[p].ngens):
                    v: dict[tuple[int, ...], SparseColumn] = {}
                    queue: list[list[tuple[tuple[int, ...], int]]] = [
                        [] for _ in range(top + 1)]
                    add(v, queue, cell, p, {g: 1})
                    for level in queue:
                        for y, py in level:
                            vy = v[y]
                            if any(vy.values()):
                                add(v, queue, (pairs[y[:2]],) + y[2:], py, dict(vy))
                                if any(v[y].values()):
                                    raise AssertionError(
                                        f"matched cell {y} was not cleared")
                            del v[y]
                    col: SparseColumn = {}
                    for z, w in v.items():
                        off = where.get(z)
                        if off is not None:
                            for i, x in w.items():
                                if x:
                                    col[off + i] = x
                    columns.append(col)
            differentials.append(assemble_hom(src, tgt, columns))
        super().__init__(differentials, translation_failure)

    def _start(self) -> FgAbGroup:
        return self.groups[0].total


def leech_cohomology_table(m: FinMonoid, c: CoeffSystem,
                           p_max: int) -> list[FgAbGroup]:
    """H^0 .. H^p_max computed from a single complex.

    The complex is the ``MorseLeechComplex`` when the one-level matching
    pairs some cells and ``validate_relations`` certifies that the full
    complex squares to zero, and otherwise the ``LeechComplex``; a
    mismatched monoid or a negative degree raises the same error either
    way."""
    matching = one_level_matching(m)
    if matching[1] and not validate_relations(c):
        cx: CochainComplex = MorseLeechComplex(m, c, p_max + 1, matching)
    else:
        cx = LeechComplex(m, c, p_max + 1)
    return [cx.cohomology(k) for k in range(p_max + 1)]
