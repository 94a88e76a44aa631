"""Finitely generated abelian groups and exact integer homomorphism calculus.

Everything downstream (cochain groups, differentials, cohomology) reduces
to the operations in this module, so they are exact by construction:
unbounded integers, Smith normal form with tracked unimodular transforms,
and sparse elimination that computes invariant factors only.  Floating
point never appears.

Conventions
-----------
* ``FgAbGroup`` is the canonical invariant-factor form ``Z^r x Z/d_1 x
  ... x Z/d_t`` with every ``d_i >= 2`` and ``d_i | d_(i+1)``.  Two groups
  are isomorphic iff their fields are equal.
* Generators are ordered free part first, then torsion in chain order.
  ``orders`` lists one value per generator, ``0`` meaning infinite order.
* A homomorphism matrix has one column per domain generator and one row
  per codomain generator; column ``i`` is the image of generator ``i``.
* A direct sum of groups is presented by the concatenation of their
  generators.  When its orders form a chain in some order, its change of
  basis to the canonical form is a permutation, kept as the canonical
  index of each generator; only when they merge is it read off a Smith
  form.  Its sparse maps, one per presentation generator, are built when
  first read.  Homomorphisms between direct sums are assembled from
  sparse columns straight into canonical coordinates.
* An ``AbHom`` is stored as sparse columns only, one {row: nonzero
  entry} map per domain generator, and composes and compares in that
  form.  Its dense ``matrix`` is a view built on demand, for
  serialisation.
* Cohomology ``ker(d_out) / im(d_in)`` is read off two free integer
  matrices, the cone of the diagonal relations (see ``CochainComplex``):
  the rank of one and the invariant factors of the other.  Both come from
  a sparse elimination with unit and divisor pivots that never builds a
  transform; only a residual it cannot pivot goes to dense Smith form.
  The rank of the top differential is first taken over F_2 and F_3 on
  bit-packed rows, and is certified when it reaches its upper bound; a
  complex of groups (Z/p)^k, p = 2 or 3, is a complex of F_p vector
  spaces and takes F_p ranks only, with no cone.
"""

from __future__ import annotations

import functools
import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, repeat
from operator import attrgetter, contains
from typing import Callable, Iterable, Mapping, Sequence

from . import intmat as im
from .intmat import FrozenMatrix

SparseColumn = dict[int, int]
# one {canonical index: coefficient} map per presentation generator
SparseBasisChange = tuple[SparseColumn, ...]


class ShapeMismatch(ValueError):
    """Matrix dimensions or group descriptors do not line up."""


class CompositionNonzero(ValueError):
    """The two maps handed to ``cohomology_at`` do not compose to zero."""


@dataclass(frozen=True)
class FgAbGroup:
    """Finitely generated abelian group in invariant-factor form.

    ``orders`` and ``ngens`` are derived from the two fields once, at
    construction."""

    free_rank: int = 0
    torsion: tuple[int, ...] = ()
    orders: tuple[int, ...] = field(init=False, repr=False, compare=False)
    ngens: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        torsion = tuple(map(int, self.torsion))
        if torsion:
            low = min(torsion)
            if low < 2:
                bad = next(d for d in torsion if d < 2)
                raise ValueError(f"torsion invariant {bad} < 2 is not canonical")
            if low != max(torsion):
                for a, b in zip(torsion, torsion[1:]):
                    if b % a:
                        raise ValueError(
                            f"torsion chain broken: {a} does not divide {b}")
        orders = (0,) * self.free_rank + torsion
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "ngens", len(orders))

    @classmethod
    def from_invariants(cls, factors: Iterable[int]) -> "FgAbGroup":
        """Canonicalize an arbitrary multiset of cyclic orders.

        ``0`` contributes a free summand, units are dropped, and a
        non-chain multiset such as (2, 3) is merged over a coprime base
        of its orders: each order is a product of powers of the base
        elements, and the k-th invariant factor from the top multiplies
        the k-th largest exponent of each base element.
        """
        facs = [abs(int(f)) for f in factors]
        free = sum(1 for f in facs if f == 0)
        tors = sorted(f for f in facs if f > 1)
        if all(b % a == 0 for a, b in zip(tors, tors[1:])):
            return cls(free, tuple(tors))
        powers = []
        for b in _coprime_base(tors):
            exponents = []
            for d in tors:
                e = 0
                while d % b == 0:
                    d //= b
                    e += 1
                exponents.append(e)
            powers.append((b, sorted(exponents, reverse=True)))
        merged = [math.prod(b ** exps[k] for b, exps in powers)
                  for k in range(len(tors))]
        return cls(free, tuple(x for x in reversed(merged) if x > 1))

    def render(self) -> str:
        parts: list[str] = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.render()


TRIVIAL_GROUP = FgAbGroup()
Z = FgAbGroup(1)


def Zmod(n: int) -> FgAbGroup:
    if n < 1:
        raise ValueError(f"Z/{n} needs n >= 1; Z/0 is Z")
    return FgAbGroup(0, (n,)) if n > 1 else TRIVIAL_GROUP


_GROUP_TERM = re.compile(r"^(Z(\^(\d+))?|Z/(\d+))$")


def parse_group(text: str) -> FgAbGroup:
    """Parse the rendering grammar: "0", "Z", "Z^r", "Z/d" joined by " x ".

    Only the canonical spelling is accepted (free part first, torsion in
    divisibility order, no leading zeros, ``Z`` for ``Z^1``, single
    spaces), so parse and render are mutually inverse.
    """
    s = text.strip()
    if s == "0":
        return TRIVIAL_GROUP
    free = 0
    torsion: list[int] = []
    for term in s.split(" x "):
        m = _GROUP_TERM.match(term.strip())
        if not m:
            raise ValueError(f"unrecognized group term {term!r} in {text!r}")
        if m.group(4) is not None:
            torsion.append(int(m.group(4)))
        else:
            free = int(m.group(3)) if m.group(3) else 1
    result = FgAbGroup(free, tuple(torsion))
    if result.render() != s:
        raise ValueError(f"{text!r} is not the canonical spelling "
                         f"{result.render()!r}")
    return result


@dataclass(frozen=True)
class SmithDecomposition:
    """u @ a @ v == d with u, v unimodular and d in Smith normal form.

    ``u_inv`` is tracked during elimination: ``presentation_to_canonical``
    reads a change of basis from ``u`` and its inverse from ``u_inv``, and
    inverting afterwards would only repeat the work.
    """

    u: FrozenMatrix
    d: FrozenMatrix
    v: FrozenMatrix
    u_inv: FrozenMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(len(self.d), len(self.d[0]) if self.d else 0)
        return tuple(self.d[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x)


def _bezout(a: int, b: int) -> tuple[int, int]:
    """x, y with x*a + y*b == gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def smith_normal_form(matrix: Sequence[Sequence[int]],
                      shape: tuple[int, int] | None = None) -> SmithDecomposition:
    """Smith normal form with both transforms and the row transform's inverse.

    Pivoting is deterministic: smallest absolute nonzero entry, ties
    broken row-major.  The diagonal comes out nonnegative and satisfies
    the divisibility chain, zeros last.
    """
    if shape is None:
        rows = len(matrix)
        cols = len(matrix[0]) if rows else 0
    else:
        rows, cols = shape
        if len(matrix) != rows:
            raise ShapeMismatch(f"expected {rows} rows, got {len(matrix)}")
    d = [list(row) for row in matrix]
    for row in d:
        if len(row) != cols:
            raise ShapeMismatch("ragged matrix")
    u = im.identity(rows)
    uinv = im.identity(rows)
    v = im.identity(cols)

    def swap_rows(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i: int, j: int) -> None:
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(i: int, j: int, q: int) -> None:
        # row i += q * row j
        di, dj = d[i], d[j]
        for k in range(cols):
            di[k] += q * dj[k]
        ui, uj = u[i], u[j]
        for k in range(rows):
            ui[k] += q * uj[k]
        for r in uinv:
            r[j] -= q * r[i]

    def add_col(i: int, j: int, q: int) -> None:
        # col i += q * col j
        for r in d:
            r[i] += q * r[j]
        for r in v:
            r[i] += q * r[j]

    def negate_row(i: int) -> None:
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    def row_mix(i: int, j: int, x: int, y: int, z: int, w: int) -> None:
        # rows (i, j) <- (x*ri + y*rj, z*ri + w*rj); requires det = 1
        for target in (d, u):
            ri, rj = target[i], target[j]
            for k in range(len(ri)):
                a, b = ri[k], rj[k]
                ri[k] = x * a + y * b
                rj[k] = z * a + w * b
        for r in uinv:
            a, b = r[i], r[j]
            r[i] = w * a - z * b
            r[j] = x * b - y * a

    limit = min(rows, cols)
    t = 0
    while t < limit:
        best = None
        bi = bj = -1
        for i in range(t, rows):
            for j in range(t, cols):
                e = d[i][j]
                if e and (best is None or abs(e) < best):
                    best = abs(e)
                    bi, bj = i, j
        if best is None:
            break
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        while True:
            for i in range(t + 1, rows):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    if q:
                        add_row(i, t, -q)
            stray = [i for i in range(t + 1, rows) if d[i][t]]
            if stray:
                i = min(stray, key=lambda r: (abs(d[r][t]), r))
                swap_rows(t, i)
                continue
            for j in range(t + 1, cols):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    if q:
                        add_col(j, t, -q)
            strayc = [j for j in range(t + 1, cols) if d[t][j]]
            if strayc:
                j = min(strayc, key=lambda c: (abs(d[t][c]), c))
                swap_cols(t, j)
                continue
            break
        if d[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce the divisibility chain; zeros already sit at the tail
    diag_len = 0
    while diag_len < limit and d[diag_len][diag_len]:
        diag_len += 1
    changed = True
    while changed:
        changed = False
        for k in range(diag_len - 1):
            a, b = d[k][k], d[k + 1][k + 1]
            if b % a:
                changed = True
                add_col(k, k + 1, 1)
                g = math.gcd(a, b)
                x, y = _bezout(a, b)
                row_mix(k, k + 1, x, y, -(b // g), a // g)
                add_col(k + 1, k, -(y * (b // g)))

    return SmithDecomposition(im.freeze(u), im.freeze(d), im.freeze(v),
                              im.freeze(uinv))


def check_shape(matrix: Sequence[Sequence[int]], nrows: int, ncols: int) -> None:
    """Raise ``ShapeMismatch`` unless the dense matrix is nrows x ncols,
    i.e. fits a hom from a group with ncols generators to one with nrows."""
    if len(matrix) != nrows:
        raise ShapeMismatch(
            f"matrix has {len(matrix)} rows, codomain has {nrows} generators")
    for row in matrix:
        if len(row) != ncols:
            raise ShapeMismatch(
                f"matrix row has {len(row)} entries, domain has "
                f"{ncols} generators")


def _integers_only(lines: Sequence[Iterable[object]]) -> None:
    """Raise ValueError at the first entry that is not an int or is a bool."""
    if set(map(type, chain.from_iterable(lines))) - {int}:
        for x in chain.from_iterable(lines):
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"matrix entry {x!r} is not an integer")


@dataclass(frozen=True, init=False)
class AbHom:
    """Homomorphism of finitely generated abelian groups.

    Stored as sparse columns, one per domain generator: ``columns[j]`` is
    the image of generator j as a {codomain generator: nonzero entry} map
    with no stored zeros.  ``AbHom(domain, codomain, matrix)`` converts a
    dense matrix once; ``from_columns`` takes the columns directly and
    never builds one.  ``matrix`` is a dense view built on first read.

    Well-definedness is checked at construction: for a domain generator
    of order d, d times its image column must fall in the codomain
    relation lattice.  Two homs are equal, and hash equally, when their
    domains, codomains and entries agree.
    """

    domain: FgAbGroup
    codomain: FgAbGroup
    columns: tuple[SparseColumn, ...]

    def __init__(self, domain: FgAbGroup, codomain: FgAbGroup,
                 matrix: Sequence[Sequence[int]]) -> None:
        ncols = domain.ngens
        check_shape(matrix, codomain.ngens, ncols)
        _integers_only(matrix)
        cols: list[SparseColumn] = [{} for _ in range(ncols)]
        for i, row in enumerate(matrix):
            for j in compress(range(ncols), row):
                cols[j][i] = row[j]
        self._init_columns(domain, codomain, tuple(cols))

    @classmethod
    def from_columns(cls, domain: FgAbGroup, codomain: FgAbGroup,
                     columns: Sequence[SparseColumn]) -> "AbHom":
        """The hom whose column j is the {row: entry} map ``columns[j]``;
        zero entries are dropped and the maps are copied, not kept."""
        _integers_only([col.values() for col in columns])
        return cls._adopt(domain, codomain,
                          [{i: x for i, x in col.items() if x} for col in columns])

    @classmethod
    def _adopt(cls, domain: FgAbGroup, codomain: FgAbGroup,
               columns: Sequence[SparseColumn]) -> "AbHom":
        """``from_columns`` for fresh maps that nothing else holds: each map
        becomes a column as it is, copied only to drop zero entries."""
        if len(columns) != domain.ngens:
            raise ShapeMismatch(
                f"{len(columns)} columns, domain has {domain.ngens} generators")
        nrows = codomain.ngens
        cols = list(columns)
        if 0 in chain.from_iterable(map(dict.values, cols)):
            zeros = map(contains, map(dict.values, cols), repeat(0))
            for j in compress(range(len(cols)), zeros):
                cols[j] = {i: x for i, x in cols[j].items() if x}
        filled = list(filter(None, cols))
        if filled and not (0 <= min(map(min, filled))
                           and max(map(max, filled)) < nrows):
            raise ShapeMismatch(
                f"column entry outside the {nrows} codomain generators")
        hom = cls.__new__(cls)
        hom._init_columns(domain, codomain, tuple(cols))
        return hom

    def _init_columns(self, domain: FgAbGroup, codomain: FgAbGroup,
             cols: tuple[SparseColumn, ...]) -> None:
        cod_orders, free = codomain.orders, codomain.free_rank
        stop = domain.free_rank
        for d in dict.fromkeys(domain.torsion):
            # d * x vanishes in every row whose order divides d: in the
            # codomain's torsion chain, the rows from `free` up to `end`
            start, stop = stop, domain.free_rank + bisect_right(domain.torsion, d)
            end = free + bisect_right(codomain.torsion, max(
                (o for o in dict.fromkeys(codomain.torsion) if d % o == 0),
                default=0))
            if free == 0 and end == len(cod_orders):
                continue
            for j in range(start, stop):
                col = cols[j]
                if (col and (min(col) < free or max(col) >= end)
                        and any(cod_orders[r] == 0 or d * x % cod_orders[r]
                                for r, x in col.items())):
                    raise ValueError(
                        f"matrix does not define a homomorphism: generator {j} "
                        f"has order {d} but column {j} is not annihilated")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "columns", cols)

    @classmethod
    def from_rows(cls, domain: FgAbGroup, codomain: FgAbGroup,
                  rows: Sequence[Sequence[int]]) -> "AbHom":
        return cls(domain, codomain, rows)

    @classmethod
    def identity(cls, group: FgAbGroup) -> "AbHom":
        return cls._adopt(group, group, [{j: 1} for j in range(group.ngens)])

    @classmethod
    def zero(cls, domain: FgAbGroup, codomain: FgAbGroup) -> "AbHom":
        # one empty map for every column: no code writes into a hom's columns
        return cls._adopt(domain, codomain, [{}] * domain.ngens)

    @functools.cached_property
    def matrix(self) -> FrozenMatrix:
        """Dense view, one row per codomain generator; built on first read."""
        rows = im.zeros(self.codomain.ngens, self.domain.ngens)
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                rows[i][j] = x
        return im.freeze(rows)

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain,
                     tuple(frozenset(col.items()) for col in self.columns)))

    def compose(self, inner: "AbHom") -> "AbHom":
        """self after inner; defined only when descriptors agree exactly."""
        if inner.codomain != self.domain:
            raise ShapeMismatch(
                f"cannot compose: inner codomain {inner.codomain} != domain {self.domain}")
        # a zero outer map sends each column to zero without reading it
        live = any(self.columns)
        return AbHom._adopt(inner.domain, self.codomain,
                            [_apply_sparse(self.columns, col) if live else {}
                             for col in inner.columns])

    def is_zero(self) -> bool:
        """Zero as a homomorphism, i.e. every column in the relation lattice."""
        orders = self.codomain.orders
        return all(orders[i] and x % orders[i] == 0
                   for col in self.columns for i, x in col.items())

    def equals(self, other: "AbHom") -> bool:
        """Equality as homomorphisms, i.e. matrices agree modulo relations."""
        if other.domain != self.domain or other.codomain != self.codomain:
            return False
        orders = self.codomain.orders
        for a, b in zip(self.columns, other.columns):
            if a != b:
                for i in a.keys() | b.keys():
                    x = a.get(i, 0) - b.get(i, 0)
                    if x and (not orders[i] or x % orders[i]):
                        return False
        return True


def _apply_sparse(cols: Sequence[SparseColumn], vector: SparseColumn) -> SparseColumn:
    """The matrix with the given columns times a sparse vector."""
    if not vector:
        return {}
    terms = iter(vector.items())
    k, a = next(terms)  # the first column starts the sum as a copy
    out = dict(cols[k]) if a == 1 else {i: a * x for i, x in cols[k].items()}
    get = out.get
    for k, a in terms:
        for i, x in cols[k].items():
            out[i] = get(i, 0) + a * x
    return out


def _negated_relation_quotient(column: SparseColumn, group: FgAbGroup,
                               offset: int) -> SparseColumn | None:
    """-q with column == R q for the relation columns R of the group, the
    entry for torsion generator k placed at row offset + k; None when the
    column is not in the relation lattice."""
    out: SparseColumn = {}
    for i, x in column.items():
        if not x:
            continue
        if i < group.free_rank:
            return None
        q, rem = divmod(x, group.torsion[i - group.free_rank])
        if rem:
            return None
        out[offset + i - group.free_rank] = -q
    return out


def _sparse_diagonal(columns: Iterable[SparseColumn],
                     pivot_rows: list[int] | None = None) -> list[int]:
    """Nonzero diagonal of a diagonal matrix equivalent to the given one.

    The columns are consumed.  A pivot p is taken only when it divides
    every entry of its row and its column; its row and column are then
    deleted through the Schur update a_ij -= a_ic * a_rj / p, which is an
    equivalence, and |p| is recorded.  Unit pivots come first, in sweeps
    over the columns shortest first, each column pivoting on the unit
    whose row is shortest, which keeps the Markowitz cost
    (|column| - 1)(|row| - 1) and with it the fill-in low.  When a sweep
    finds no unit, one looks for divisor pivots instead.  What is left
    goes to ``smith_normal_form``.  The multiset is a diagonal, not
    necessarily a divisibility chain; ``FgAbGroup.from_invariants``
    canonicalizes it.

    When ``pivot_rows`` is given, the row of every unit and divisor pivot
    is appended to it.  Those rows, with the pivot columns, index a
    nonsingular minor of the given matrix, the product of the pivots up to
    sign; the residual's pivots are not recorded.
    """
    cols = {j: c for j, c in enumerate(columns) if c}
    rows: dict[int, set[int]] = {}
    for j, c in cols.items():
        for i in c:
            rows.setdefault(i, set()).add(j)
    diag: list[int] = []

    def eliminate(r: int, c: int) -> None:
        col_c = cols.pop(c)
        p = col_c.pop(r)
        for i in col_c:
            rows[i].discard(c)
        row_r = rows.pop(r)
        row_r.discard(c)
        for j in row_r:
            col_j = cols[j]
            f = col_j.pop(r) // p
            for i, v in col_c.items():
                x = col_j.get(i)
                if x is None:
                    col_j[i] = -f * v
                    rows[i].add(j)
                elif x == f * v:
                    del col_j[i]
                    rows[i].discard(j)
                else:
                    col_j[i] = x - f * v
            if not col_j:
                del cols[j]
        diag.append(abs(p))
        if pivot_rows is not None:
            pivot_rows.append(r)

    def unit_sweep() -> bool:
        found = False
        for c in sorted(cols, key=lambda j: len(cols[j])):
            best = None
            for r, v in cols.get(c, {}).items():
                if (v == 1 or v == -1) and (best is None or len(rows[r]) < shortest):
                    best, shortest = r, len(rows[r])
                    if shortest == 1:
                        break
            if best is not None:
                eliminate(best, c)
                found = True
        return found

    def divisor_sweep() -> bool:
        found = False
        for c in sorted(cols, key=lambda j: len(cols[j])):
            for r, p in sorted(cols.get(c, {}).items(), key=lambda e: abs(e[1])):
                if (all(v % p == 0 for v in cols[c].values())
                        and all(cols[j][r] % p == 0 for j in rows[r])):
                    eliminate(r, c)
                    found = True
                    break
        return found

    while cols and (unit_sweep() or divisor_sweep()):
        pass

    if cols:
        keep = sorted({i for c in cols.values() for i in c})
        pos = {i: k for k, i in enumerate(keep)}
        residual = im.zeros(len(keep), len(cols))
        for k, c in enumerate(cols.values()):
            for i, v in c.items():
                residual[pos[i]][k] = v
        dec = smith_normal_form(residual, shape=(len(keep), len(cols)))
        diag.extend(x for x in dec.diagonal if x)
    return diag


def _composite_quotient(outer: AbHom, inner: AbHom) -> list[SparseColumn] | None:
    """The proof that outer after inner is the zero homomorphism.

    With R_N the diagonal relation columns of the codomain N, the product
    D_out D_in is zero as a homomorphism exactly when D_out D_in = R_N Y
    for an integer Y.  Each column of the product is formed sparsely and
    divided by R_N.  Returns the columns of -Y, the entry for torsion
    generator k of N at row m + k, m the generators of the middle group,
    which is where the cone of ``CochainComplex`` puts it; None when
    some column is not in the relation lattice.
    """
    if inner.codomain != outer.domain:
        raise ShapeMismatch(
            f"cannot compose: inner codomain {inner.codomain} != domain {outer.domain}")
    cod, m, out_cols = outer.codomain, outer.domain.ngens, outer.columns
    quotients = []
    for col in inner.columns:
        y = _negated_relation_quotient(_apply_sparse(out_cols, col), cod, m)
        if y is None:
            return None
        quotients.append(y)
    return quotients


def _field_rank(columns: Iterable[SparseColumn], primes: Sequence[int],
                bound: int) -> int:
    """The largest rank over F_p, p in ``primes`` (each 2 or 3), of the
    matrix with the given sparse integer columns, or ``bound`` as soon as
    one of them reaches it.

    A row is packed as an int whose bit k stands for column k; over F_3 it
    is two such bit planes, for the entries 1 and 2, in which a + b is
    t = (a1 | b2) ^ (a2 | b1), ((a2 | b2) ^ t, (a1 | b1) ^ t).  Each row is
    reduced by the pivot row stored under its leading bit until it is zero
    or leads with a new bit, and then becomes that bit's pivot.  The
    fields take each row in turn, so they advance together.
    """
    by_row: dict[int, list[int]] = {}
    for k, col in enumerate(columns):
        k <<= 3
        for i, x in col.items():
            # the column, then the entry mod 6
            if i in by_row:
                by_row[i].append(k | x % 6)
            else:
                by_row[i] = [k | x % 6]
    two, three = 2 in primes, 3 in primes
    lead2: dict[int, int] = {}
    lead3: dict[int, tuple[int, int]] = {}  # leading digit 1
    # in index order the rows of a Leech top map reach full rank after far
    # fewer rows than in the order the columns first meet them
    for i in sorted(by_row):
        r = a1 = a2 = 0
        for e in by_row.pop(i):
            bit = 1 << (e >> 3)
            if e & 1:
                r |= bit
            if three:
                e = (e & 7) % 3
                if e == 1:
                    a1 |= bit
                elif e:
                    a2 |= bit
        while two and r:
            top = r.bit_length()
            lead = lead2.get(top)
            if lead is None:
                lead2[top] = r
                if len(lead2) == bound:
                    return bound
                break
            r ^= lead
        u = a1 | a2
        while u:
            top = u.bit_length()
            lead = lead3.get(top)
            if lead is None:
                lead3[top] = (a1, a2) if a1.bit_length() == top else (a2, a1)
                if len(lead3) == bound:
                    return bound
                break
            if a1.bit_length() == top:  # subtract: add the negative
                b2, b1 = lead
            else:
                b1, b2 = lead
            t = (a1 | b2) ^ (a2 | b1)
            a1, a2 = (a2 | b2) ^ t, (a1 | b1) ^ t
            u = a1 | a2
    return max(len(lead2), len(lead3))


def _free_row_rank(d_out: AbHom, skip: Iterable[int]) -> int:
    """Rank of the free rows F of D_out, the columns in ``skip`` left out.

    Leaving out the rows of the cone B's unit and divisor pivots that
    index the middle group keeps the rank over Q: those rows index a
    nonsingular minor of im D_in + im R_M, on which F D_out vanishes
    because D_out D_in = R_N Y and D_out R_M = R_N X while F R_N = 0, so
    each skipped column of F D_out is a combination of the others.

    The rank over Q is at most the number of kept columns and at least
    their rank over any F_p, so an F_2 or F_3 rank that reaches that
    number is the rank; otherwise ``_sparse_diagonal`` computes it.
    """
    free, torsion = d_out.codomain.free_rank, d_out.codomain.torsion
    skipped = set(skip)
    kept = [c for c in ({i: v for i, v in col.items() if i < free}
                        if torsion else col
                        for j, col in enumerate(d_out.columns)
                        if j not in skipped) if c]
    if kept and _field_rank(kept, (2, 3), len(kept)) == len(kept):
        return len(kept)
    return len(_sparse_diagonal(map(dict, kept)))  # it consumes its columns


def _elementary_prime(groups: Iterable[FgAbGroup]) -> int | None:
    """p when every group is (Z/p)^k for one p in {2, 3}, else None."""
    orders: set[int] = set()
    for g in groups:
        if g.free_rank:
            return None
        orders.update(g.torsion)
    return orders.pop() if orders in ({2}, {3}) else None


class CochainComplex:
    """H^n = ker(d^n) / im(d^(n-1)) of a complex d^0, ..., d^(P-1), with
    d^(-1) = 0, for 0 <= n < P; the base class of ``LeechComplex``,
    ``TotalComplex`` and ``PathCochain`` and the engine of ``cohomology_at``.
    It takes one of three routes: the cone, with the top rank certified over
    a small field when it can be, or, for elementary p-groups, F_p ranks alone.

    The cone.  At degree n write L -> M -> N for the three groups, l, m, n
    for their numbers of generators, t_M, t_N for the torsion generators
    of M and N, R_M, R_N for their diagonal relation columns and D_in,
    D_out for the matrices of d^(n-1) and d^n.  Then D_out R_M = R_N X and
    D_out D_in = R_N Y for integer X and Y, and

        Z^(l + t_M) --B_n--> Z^(m + t_N) --A--> Z^n,
        A = [D_out | R_N],   B_n = [[D_in, R_M], [-Y, -X]]

    is a complex of free groups, the cone of the relations, with the same
    middle cohomology: ker A projects isomorphically onto the lifts of
    ker(d_out), and im B_n onto im(D_in) + im(R_M).  Since ker A is a
    direct summand of rank m + t_N - rank A that contains im B_n,

        H^n = Z^(m + t_N - rank A - rank B_n) x (Z/e over the invariant
              factors e of B_n),

    so only the rank of A and the invariant factors of B_n are needed,
    and ``_sparse_diagonal`` computes nothing else.  Over Q the columns of
    R_N span the torsion rows, so rank A = t_N + rank F for the free rows
    F of D_out.

    Building Y is the proof that a pair composes to zero: it exists
    exactly when d^n after d^(n-1) is the zero homomorphism.  Every
    consecutive pair is proven once, at construction, whether or not any
    H^n is asked for; the columns -Y are kept until B_n is built, so no
    product is formed again.  Each B_n is eliminated at most once and its
    diagonal kept.  Below the top, rank F(d^n) is read off the next cone,
    as over Q

        rank B_(n+1) = t(C^(n+1)) + rank F(d^n),

    since the t(C^(n+1)) relation columns [R_M; -X] of B_(n+1) are
    independent, and clearing the torsion rows of a column of [D_in; -Y]
    with them leaves its free rows, a column of F(d^n), over rows that are
    a linear function of them: R_N, of full column rank, times their
    negative is D_out of the cleared column.  Which cones and ranks H^n
    uses does not depend on the order in which degrees are asked for.

    The certified top rank.  Only the top d^(P-1) is ranked as free rows,
    without the columns that were pivot rows of B_(P-1) (see
    ``_free_row_rank``).  Its rank over Q is at most the number of
    columns kept and at least its rank over any field F_p, since a minor
    that is nonzero mod p is nonzero.  So an F_2 or F_3 rank that reaches
    the number of kept columns is the rank over Q, and the two fields stop
    as soon as one does.  One that falls short says nothing: an invariant
    factor of d^(P-1) divisible by p, or a free part of H^(P-1), and then
    the free rows are eliminated exactly.

    Elementary p-groups.  When every group of the complex is (Z/p)^k for
    one p in {2, 3}, it is a complex of F_p vector spaces, and

        H^n = (Z/p)^(c_n - r_n - r_(n-1))

    with c_n the generators of C^n and r_n the F_p rank of all of d^n,
    each computed once and kept: no cone, no relation column and no skip.
    Each pair is still proven by forming Y, whose columns are then
    dropped.
    """

    def __init__(self, differentials: Sequence[AbHom],
                 failure: Callable[[int], Exception]) -> None:
        """``failure(k)`` is raised for the first pair (d^k, d^(k+1)) that
        does not compose to zero."""
        self.differentials = ds = tuple(differentials)
        self._prime = _elementary_prime(
            [d.domain for d in ds] + [d.codomain for d in ds[-1:]])
        # quotients[n] holds -Y of (d^(n-1), d^n) until B_n is built; the
        # elementary route builds no B_n and drops it at once
        self._quotients: list[list[SparseColumn] | None] = [[]]
        for k in range(len(ds) - 1):
            quotients = _composite_quotient(ds[k + 1], ds[k])
            if quotients is None:
                raise failure(k)
            self._quotients.append(None if self._prime else quotients)
        self._ranks: dict[int, int] = {}
        self._diagonals: dict[int, list[int]] = {}
        self._top_skip: set[int] = set()
        self._groups: dict[int, FgAbGroup] = {}

    def _rank(self, n: int) -> int:
        """The F_p rank of d^n, for a complex of elementary p-groups."""
        rank = self._ranks.get(n)
        if rank is None:
            d = self.differentials[n]
            rank = self._ranks[n] = _field_rank(d.columns, (self._prime,),
                                                d.domain.ngens)
        return rank

    def _cone_diagonal(self, n: int) -> list[int]:
        diag = self._diagonals.get(n)
        if diag is None:
            d_out = self.differentials[n]
            mid, cod = d_out.domain, d_out.codomain
            in_columns = self.differentials[n - 1].columns if n else ()
            cone = [{**col, **y}
                    for col, y in zip(in_columns, self._quotients[n])]
            for k, order in enumerate(mid.torsion):
                g = mid.free_rank + k
                # exact because d_out is well defined on the generator of order `order`
                x = _negated_relation_quotient(
                    {i: order * v for i, v in d_out.columns[g].items()},
                    cod, mid.ngens)
                cone.append({g: order, **x})
            pivots: list[int] = []
            diag = self._diagonals[n] = _sparse_diagonal(cone, pivots)
            self._quotients[n] = None
            if n == len(self.differentials) - 1:
                self._top_skip = {r for r in pivots if r < mid.ngens}
        return diag

    def _start(self) -> FgAbGroup:
        """C^0, the codomain of d^(-1)."""
        return self.differentials[0].domain

    def _check(self, n: int, low: int) -> None:
        if not low <= n < len(self.differentials):
            raise ValueError(f"index {n} needs {low} <= n < {len(self.differentials)}")

    def differential(self, n: int) -> AbHom:
        """d^n for -1 <= n < P; d^(-1) is the zero map into C^0."""
        self._check(n, -1)
        return (self.differentials[n] if n >= 0
                else AbHom.zero(TRIVIAL_GROUP, self._start()))

    def cohomology(self, n: int) -> FgAbGroup:
        """H^n for 0 <= n < P, computed on first request and kept."""
        self._check(n, 0)
        group = self._groups.get(n)
        if group is None and self._prime:
            dim = self.differentials[n].domain.ngens - self._rank(n)
            group = self._groups[n] = FgAbGroup(0, (self._prime,) * (
                dim - (self._rank(n - 1) if n else 0)))
        elif group is None:
            d_out = self.differentials[n]
            diag_b = self._cone_diagonal(n)
            if n + 1 < len(self.differentials):
                rank_f = (len(self._cone_diagonal(n + 1))
                          - len(d_out.codomain.torsion))
            else:
                rank_f = _free_row_rank(d_out, self._top_skip)
            free = d_out.domain.ngens - rank_f - len(diag_b)
            group = self._groups[n] = FgAbGroup.from_invariants(
                [0] * free + diag_b)
        return group


def cohomology_at(d_in: AbHom, d_out: AbHom) -> FgAbGroup:
    """ker(d_out) / im(d_in) at the shared middle group: H^1 of the
    complex d_in, d_out (see ``CochainComplex``); ShapeMismatch when the
    middle groups differ."""
    return CochainComplex((d_in, d_out), lambda _: CompositionNonzero(
        "d_out after d_in is not the zero homomorphism")).cohomology(1)


def presentation_to_canonical(
        orders: Sequence[int]) -> tuple[FgAbGroup, SparseBasisChange, SparseBasisChange]:
    """Canonical form of a direct sum of cyclic groups given by orders.

    Returns (group, to_canonical, from_canonical), each holding one
    {canonical index: coefficient} map per presentation generator p:
    ``to_canonical[p]`` is the image of generator p in canonical
    coordinates (column p of the change of basis), and
    ``from_canonical[p]`` is row p of its inverse, the coefficients with
    which the canonical generators' coordinates contribute to coordinate
    p.  The two are inverse to each other modulo relations.

    When the multiset of orders already forms an invariant chain the
    change of basis is a plain permutation (see ``_chain_index``), one
    entry per generator, and one tuple of maps is returned for both
    directions; otherwise the Smith form of the diagonal relation matrix
    supplies it.
    """
    chained = _chain_index(orders)
    if chained is not None:
        perm = tuple({k: 1} for k in chained[1])
        return chained[0], perm, perm

    n = len(orders)
    tors_pos = [i for i, o in enumerate(orders) if o != 0]
    rel = im.zeros(n, len(tors_pos))
    for k, p in enumerate(tors_pos):
        rel[p][k] = orders[p]
    dec = smith_normal_form(rel, shape=(n, len(tors_pos)))
    diag = dec.diagonal
    rank = dec.rank
    free_sel = list(range(rank, n))
    tors_sel = [j for j in range(rank) if diag[j] >= 2]
    selected = free_sel + tors_sel
    group = FgAbGroup(n - rank, tuple(diag[j] for j in tors_sel))
    to_can = tuple({k: dec.u[j][p] for k, j in enumerate(selected) if dec.u[j][p]}
                   for p in range(n))
    from_can = tuple({k: dec.u_inv[p][j] for k, j in enumerate(selected)
                      if dec.u_inv[p][j]}
                     for p in range(n))
    return group, to_can, from_can


def _chain_index(orders: Sequence[int]) -> tuple[FgAbGroup, tuple[int, ...]] | None:
    """The canonical group and the canonical index of each generator when
    the orders form an invariant chain in some order; None when they merge.

    The canonical generators are the presentation generators stably
    sorted by order: free ones (order 0) first, then torsion ascending,
    ties in presentation order.  Only the distinct orders are tested.
    """
    distinct = sorted(set(orders))
    tors = distinct[1:] if distinct and distinct[0] == 0 else distinct
    if tors and (tors[0] < 2 or any(b % a for a, b in zip(tors, tors[1:]))):
        return None
    ranked = sorted(orders)
    free = bisect_right(ranked, 0)
    group = FgAbGroup(free, tuple(ranked[free:]))
    if ranked == list(orders):
        return group, tuple(range(len(ranked)))
    # sorting the positions gives canonical -> presentation; sorting again
    # by that inverts it
    order = sorted(range(len(ranked)), key=orders.__getitem__)
    return group, tuple(sorted(range(len(ranked)), key=order.__getitem__))


@dataclass(frozen=True)
class DirectSum:
    """Direct sum of groups with the canonicalizing change of basis.

    ``offsets`` gives each component's generator range inside the
    concatenated presentation.  ``permutation`` is the canonical index of
    each presentation generator when the orders chain, so that the change
    of basis is a permutation, and None when orders merge.
    ``is_canonical`` says that change is the identity, i.e. the
    presentation orders already are the canonical ones, as for every sum
    of copies of one cyclic group.  ``to_total`` and ``from_total`` hold
    the change of basis between the presentation and the canonical
    generators of ``total`` as one sparse map per presentation generator,
    in the layout of ``presentation_to_canonical``; they are built on
    first read, and are one object when ``permutation`` is not None.
    """

    components: tuple[FgAbGroup, ...]
    total: FgAbGroup
    offsets: tuple[int, ...]
    permutation: tuple[int, ...] | None
    is_canonical: bool

    @classmethod
    def of(cls, components: Sequence[FgAbGroup]) -> "DirectSum":
        comps = tuple(components)
        each = list(map(attrgetter("orders"), comps))
        orders = tuple(chain.from_iterable(each))
        offsets = tuple(accumulate(map(len, each), initial=0))
        chained = _chain_index(orders)
        if chained is None:
            return cls(comps, FgAbGroup.from_invariants(orders), offsets,
                       None, False)
        total, index = chained
        return cls(comps, total, offsets, index, orders == total.orders)

    @property
    def presentation_size(self) -> int:
        return self.offsets[-1]

    @functools.cached_property
    def _basis_change(self) -> tuple[SparseBasisChange, SparseBasisChange]:
        return presentation_to_canonical(
            tuple(chain.from_iterable(g.orders for g in self.components)))[1:]

    @property
    def to_total(self) -> SparseBasisChange:
        return self._basis_change[0]

    @property
    def from_total(self) -> SparseBasisChange:
        return self._basis_change[1]

    def embedding(self, i: int) -> AbHom:
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return AbHom.from_columns(self.components[i], self.total,
                                  self.to_total[lo:hi])

    def projection(self, i: int) -> AbHom:
        lo, hi = self.offsets[i], self.offsets[i + 1]
        cols: list[SparseColumn] = [{} for _ in range(self.total.ngens)]
        for r in range(lo, hi):
            for k, v in self.from_total[r].items():
                cols[k][r - lo] = v
        return AbHom.from_columns(self.total, self.components[i], cols)


def _coprime_base(numbers: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1 such that every given number > 1 is a
    product of powers of them; found by gcd splitting, never factoring."""
    base: list[int] = []
    todo = [x for x in numbers if x > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:
                # x * b shrinks to x * b / g, so the splitting terminates
                del base[i]
                todo.extend(y for y in (g, b // g, x // g) if y > 1)
                break
        else:
            base.append(x)
    return base


def direct_sum_ngens(multiplicity: Mapping[FgAbGroup, int]) -> int:
    """Number of canonical generators of the direct sum holding each group
    ``multiplicity[group]`` times, computed without building it.

    It is the free rank plus the largest p-rank, the number of torsion
    orders a prime p divides, maximized over p.  The primes are grouped by
    a coprime base of the orders: for a base element b, every prime of b
    divides exactly the orders d with gcd(d, b) > 1.
    """
    free = 0
    torsion: dict[int, int] = {}
    for g, k in multiplicity.items():
        free += k * g.free_rank
        for d in g.torsion:
            torsion[d] = torsion.get(d, 0) + k
    return free + max(
        (sum(k for d, k in torsion.items() if math.gcd(d, b) > 1)
         for b in _coprime_base(torsion)), default=0)


def add_block(columns: Sequence[SparseColumn], row0: int, col0: int,
              block: Sequence[SparseColumn], sign: int = 1) -> None:
    """Add sign * block, given by its sparse columns, into sparse columns,
    its top left entry at (row0, col0)."""
    for c, bcol in enumerate(block):
        col = columns[col0 + c]
        for r, x in bcol.items():
            col[row0 + r] = col.get(row0 + r, 0) + sign * x


def assemble_hom(domain: DirectSum, codomain: DirectSum,
                 columns: Sequence[SparseColumn]) -> AbHom:
    """Build a hom between direct sums from its presentation columns.

    ``columns[c]`` is the image of domain presentation generator c as a
    {codomain presentation generator: entry} map (see ``add_block``).
    Each column goes through the codomain's sparse change of basis and is
    then placed by the domain's, straight into the canonical sparse
    columns of the result; no dense matrix is built.  When both changes of
    basis are permutations the columns are only renumbered, and when both
    are the identity they are taken as they are.  The maps in ``columns``
    are consumed: the result may keep them as its own columns.
    """
    if len(columns) != domain.presentation_size:
        raise ShapeMismatch(
            f"{len(columns)} columns for {domain.presentation_size} "
            f"presentation generators")
    if domain.is_canonical and codomain.is_canonical:
        return AbHom._adopt(domain.total, codomain.total, columns)
    dom_perm, cod_perm = domain.permutation, codomain.permutation
    if dom_perm is not None and cod_perm is not None:
        perm_cols: list[SparseColumn] = [{}] * len(columns)
        for col, j in zip(columns, dom_perm):
            perm_cols[j] = {cod_perm[r]: v for r, v in col.items()}
        return AbHom._adopt(domain.total, codomain.total, perm_cols)
    to_cod = codomain.to_total
    can_cols: list[SparseColumn] = [{} for _ in range(domain.total.ngens)]
    for col, placement in zip(columns, domain.from_total):
        image_col = _apply_sparse(to_cod, col)
        for j, b in placement.items():
            target = can_cols[j]
            for i, x in image_col.items():
                target[i] = target.get(i, 0) + b * x
    return AbHom._adopt(domain.total, codomain.total, can_cols)

