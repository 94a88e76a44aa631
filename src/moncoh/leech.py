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
    DirectSum,
    FgAbGroup,
    SparseColumn,
    TRIVIAL_GROUP,
    _ComplexCohomology,
    assemble_hom,
    direct_sum_ngens,
)
from .coeff import CoeffSystem
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


def floor_cochains(monoid: FinMonoid, coeffs: CoeffSystem, max_degree: int
                   ) -> tuple[list[CochainGroup], list[AbHom]]:
    """C^0..C^P and d^0..d^(P-1), built once and not proven: the groups
    and maps of a ``LeechComplex`` or of one floor of a total complex."""
    if coeffs.monoid != monoid:
        raise ValueError("coefficient system belongs to a different monoid")
    if max_degree < 0:
        raise ValueError("max degree must be nonnegative")
    groups = [cochain_group(monoid, coeffs, k) for k in range(max_degree + 1)]
    return groups, [coboundary(monoid, coeffs, k, groups[k], groups[k + 1])
                    for k in range(max_degree)]


class LeechComplex:
    """Cochain groups C^0..C^P and coboundaries d^0..d^(P-1), with
    d o d = 0 verified once per pair at construction; each H^n is computed
    on first request and kept."""

    def __init__(self, monoid: FinMonoid, coeffs: CoeffSystem, max_degree: int):
        self.groups, self.differentials = floor_cochains(monoid, coeffs, max_degree)
        self.monoid, self.coeffs, self.max_degree = monoid, coeffs, max_degree
        self._engine = _ComplexCohomology(self.differentials,
                                          translation_failure)

    def group(self, n: int) -> CochainGroup:
        return self.groups[n]

    def differential(self, n: int) -> AbHom:
        """d^n for 0 <= n < max_degree; d^(-1) is the zero map into C^0."""
        if n == -1:
            return AbHom.zero(TRIVIAL_GROUP, self.groups[0].total)
        return self.differentials[n]

    def cohomology(self, n: int) -> FgAbGroup:
        """H^n = ker(d^n) / im(d^(n-1)); needs n < max_degree.

        Computed once per complex: later calls return the stored group.
        """
        if not 0 <= n < self.max_degree:
            raise ValueError(f"H^{n} needs the complex built to degree {n + 1}")
        return self._engine.cohomology(n)


def leech_cohomology(m: FinMonoid, c: CoeffSystem, n: int) -> FgAbGroup:
    """H^n of the monoid with the given coefficients."""
    return LeechComplex(m, c, n + 1).cohomology(n)


def leech_cohomology_table(m: FinMonoid, c: CoeffSystem,
                           p_max: int) -> list[FgAbGroup]:
    """H^0 .. H^p_max computed from a single complex."""
    cx = LeechComplex(m, c, p_max + 1)
    return [cx.cohomology(k) for k in range(p_max + 1)]
