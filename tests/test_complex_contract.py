"""One index contract for every cochain complex.

``LeechComplex``, ``MorseLeechComplex``, ``TotalComplex``,
``PathCochain`` and the two-map complex behind ``cohomology_at`` are all
``CochainComplex``es with differentials d^0..d^(P-1), each given C^0 when
it is built: ``cohomology(n)`` takes 0 <= n < P, ``differential(n)``
takes -1 <= n < P, d^(-1) is the zero map into C^0, and every other
index raises ValueError.
"""

from __future__ import annotations

import pytest

from moncoh.abelian import (
    TRIVIAL_GROUP,
    AbHom,
    CochainComplex,
    CompositionNonzero,
    Z,
    Zmod,
)
from moncoh.coeff import constant_system
from moncoh.grid import GridSpec, PathCochain, PathSpec, VerticalFamily
from moncoh.leech import (
    LeechComplex,
    MorseLeechComplex,
    cochain_group,
    one_level_matching,
)
from moncoh.monoid import cyclic_group
from moncoh.totalcx import TotalComplex


def two_floors(coeffs):
    return GridSpec(tuple((cyclic_group(k), constant_system(cyclic_group(k),
                                                            coeffs))
                          for k in (2, 3)))


def leech(coeffs):
    m = cyclic_group(3)
    cx = LeechComplex(m, constant_system(m, coeffs), 3)
    return cx, cx.groups[0].total


def morse(coeffs):
    m = cyclic_group(3)
    cx = MorseLeechComplex(m, constant_system(m, coeffs), 3,
                           one_level_matching(m))
    return cx, cx.groups[0].total


def total():
    cx = TotalComplex(two_floors(Z), VerticalFamily.zero(), 2)
    return cx, cx.levels[0].total


def path(coeffs):
    pc = PathCochain(two_floors(coeffs), VerticalFamily.zero(),
                     PathSpec("DR"), 3)
    return pc, pc.groups[0].total


def two_maps():
    # the complex cohomology_at builds: Z --2--> Z --1--> Z/2
    d_in, d_out = AbHom(Z, Z, ((2,),)), AbHom(Z, Zmod(2), ((1,),))
    cx = CochainComplex(d_in.domain, (d_in, d_out),
                        lambda _: CompositionNonzero("unused"))
    return cx, d_in.domain


COMPLEXES = {
    "leech over Z": lambda: leech(Z),
    "leech over Z/2": lambda: leech(Zmod(2)),
    "morse over Z": lambda: morse(Z),
    "morse over Z/2": lambda: morse(Zmod(2)),
    "total": total,
    "path over Z": lambda: path(Z),
    "path over Z/2": lambda: path(Zmod(2)),
    "cohomology_at": two_maps,
}


@pytest.fixture(params=list(COMPLEXES), ids=list(COMPLEXES))
def complex_and_start(request):
    return COMPLEXES[request.param]()


def test_is_a_cochain_complex(complex_and_start):
    cx, _ = complex_and_start
    assert isinstance(cx, CochainComplex)


@pytest.mark.parametrize("call, index", [
    ("cohomology", -1), ("cohomology", "P"),
    ("differential", -2), ("differential", "P")])
def test_indices_outside_the_complex_raise(complex_and_start, call, index):
    cx, _ = complex_and_start
    n = len(cx.differentials) if index == "P" else index
    with pytest.raises(ValueError, match=r"needs -?[01] <= n < \d+"):
        getattr(cx, call)(n)


def test_every_index_inside_the_complex_answers(complex_and_start):
    cx, _ = complex_and_start
    top = len(cx.differentials)
    assert [cx.differential(n) for n in range(top)] == list(cx.differentials)
    assert len([cx.cohomology(n) for n in range(top)]) == top


def test_differential_minus_one_is_zero_into_c0(complex_and_start):
    cx, start = complex_and_start
    assert cx.differential(-1) == AbHom.zero(TRIVIAL_GROUP, start)


@pytest.mark.parametrize("coeffs", [Z, Zmod(2), Zmod(6)])
def test_complex_built_to_degree_zero(coeffs):
    # no differential to read C^0 from: it comes from the cochain groups
    m = cyclic_group(3)
    system = constant_system(m, coeffs)
    cx = LeechComplex(m, system, 0)
    assert cx.differentials == ()
    assert cx.differential(-1) == AbHom.zero(
        TRIVIAL_GROUP, cochain_group(m, system, 0).total)
    for call, n in (("cohomology", 0), ("differential", 0),
                    ("differential", -2)):
        with pytest.raises(ValueError):
            getattr(cx, call)(n)


def test_complex_with_no_differential_has_no_c0():
    # C^0 is given at construction, so an engine with no differential
    # still answers d^(-1)
    cx = CochainComplex(Zmod(6), [], lambda _: CompositionNonzero("unused"))
    assert cx.differential(-1) == AbHom.zero(TRIVIAL_GROUP, Zmod(6))
