"""Cohomology values known in closed form, computed without moncoh.

These are the benchmark's independent correctness checks.  For a
constant coefficient group A = Z^r x Z/a_1 x ... :

* a cyclic group Z/n gives H^0 = A, H^odd = A[n] (the n-torsion of A)
  and H^even = A/nA for even degrees above 0;
* a monoid with a zero element (power-set monoids, union monoids, chain
  semilattices) gives H^0 = A and 0 in every positive degree;
* a stack of floors joined by zero vertical maps has total cohomology
  H^n(Tot) = sum over floors p <= n of H^(n-p)(floor p).

Groups are handled as (free rank, tuple of cyclic orders) and rendered in
the invariant-factor spelling that moncoh prints ("0", "Z^2", "Z/2 x Z/4").
"""

from __future__ import annotations

import math

Group = tuple[int, tuple[int, ...]]


def parse(text: str) -> Group:
    """Read a group spelled with " x "-joined terms Z, Z^r and Z/d."""
    if text == "0":
        return (0, ())
    free, orders = 0, []
    for term in text.split(" x "):
        if term.startswith("Z/"):
            orders.append(int(term[2:]))
        elif term.startswith("Z^"):
            free += int(term[2:])
        elif term == "Z":
            free += 1
        else:
            raise ValueError(f"cannot read group term {term!r}")
    return (free, tuple(orders))


def _prime_powers(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 1) * p
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 1) * n
    return out


def render(group: Group) -> str:
    """Invariant-factor spelling of an arbitrary multiset of cyclic orders."""
    free, orders = group
    by_prime: dict[int, list[int]] = {}
    for d in orders:
        for p, q in _prime_powers(d).items():
            by_prime.setdefault(p, []).append(q)
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * width
    for powers in by_prime.values():
        for k, q in enumerate(sorted(powers, reverse=True)):
            factors[k] *= q
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{d}" for d in sorted(factors))
    return " x ".join(parts) if parts else "0"


def direct_sum(groups: list[Group]) -> Group:
    return (sum(g[0] for g in groups),
            tuple(d for g in groups for d in g[1]))


def torsion_of(group: Group, n: int) -> Group:
    """A[n], the elements of A killed by n."""
    return (0, tuple(g for g in (math.gcd(n, d) for d in group[1]) if g > 1))


def quotient_by(group: Group, n: int) -> Group:
    """A/nA."""
    tors = [n] * group[0] if n > 1 else []
    tors += [g for g in (math.gcd(n, d) for d in group[1]) if g > 1]
    return (0, tuple(tors))


def cyclic_table(n: int, coeffs: Group, p_max: int) -> list[str]:
    """H^0..H^p_max of the cyclic group of order n over constant coeffs."""
    out = [render(coeffs)]
    for k in range(1, p_max + 1):
        out.append(render(torsion_of(coeffs, n) if k % 2 else quotient_by(coeffs, n)))
    return out


def zero_element_table(coeffs: Group, p_max: int) -> list[str]:
    """H^0..H^p_max of a monoid with a zero element over constant coeffs."""
    return [render(coeffs)] + ["0"] * p_max


def stacked_total(floor_tables: list[list[str]], p_max: int) -> list[str]:
    """Total cohomology of floors joined by zero vertical maps."""
    out = []
    for n in range(p_max + 1):
        parts = [parse(table[n - p]) for p, table in enumerate(floor_tables)
                 if n - p >= 0]
        out.append(render(direct_sum(parts)))
    return out
