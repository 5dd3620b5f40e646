"""Invariants that every algebra the oracle builds must satisfy, on random
Kupisch series and on small replicated algebras: dim P_x is its Cartan row
sum, codomdim DA = domdim A (Tachikawa), gldim A = gldim A^op, d o d = 0
on the dual complex of every complete walk kept on either side, and the
K_0 class of every kept walk and of every walk read off the transposed
tails is that of its simple."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algolab.dynkin import orientations, parse_graph
from algolab.errors import InvalidParams
from algolab.oracle import (
    build_replicated,
    compile_bound_quiver,
    homological_report,
    kronecker_presentation,
    kupisch_presentation,
    projective_module,
    quiver_presentation_from_dynkin,
)
from algolab.oracle.homology import (
    Resolution,
    _transposed_tails,
    codomdim_of_dual_regular,
    nu_inverse_complex,
    simple_resolution,
)

BASES = tuple(
    [(name, i) for name in ("A2", "A3", "A4") for i in range(2 ** (int(name[1]) - 1))]
    + [("kronecker", 0)]
)


@functools.lru_cache(maxsize=None)
def _base(name, i):
    if name == "kronecker":
        return compile_bound_quiver(kronecker_presentation())
    quiver = list(orientations(parse_graph(name)))[i]
    return compile_bound_quiver(quiver_presentation_from_dynkin(quiver))


@st.composite
def _kupisch_series(draw):
    """A connected linear Nakayama algebra's Kupisch series, n <= 7:
    c_n = 1 and 2 <= c_i <= c_(i+1) + 1."""
    n = draw(st.integers(1, 7))
    series = [1]
    for _ in range(n - 1):
        series.insert(0, draw(st.integers(2, series[0] + 1)))
    return tuple(series)


def _walk_opposite_simples(alg):
    """Walks every simple of A^op, which the report reads off the transposed
    tails and so leaves unwalked, and keeps each walk that completes."""
    op = alg.opposite()
    for y in range(op.nvert):
        simple_resolution(op, y, 64)


def _euler_class(side, terms):
    """sum_i (-1)^i sum_{z in term i} dim P_z, as a vector over the vertices."""
    cartan = side.cartan_dims()
    return [
        sum((-1) ** i * cartan[z][v] for i, term in enumerate(terms) for z in term)
        for v in range(side.nvert)
    ]


def _check_k0_classes(alg):
    """A complete walk of S_y, kept or read off the table, has the class e_y
    in K_0: every term is a sum of projectives and the walk is exact."""
    for side in (alg, alg.opposite()):
        unit = [[int(u == v) for v in range(side.nvert)] for u in range(side.nvert)]
        for y, (terms, _) in side.cache.get("simple_walks", {}).items():
            assert _euler_class(side, terms) == unit[y]
        tails = _transposed_tails(side.opposite())
        for y, terms in enumerate(tails or ()):
            assert _euler_class(side, terms) == unit[y]


def _check_invariants(alg):
    cartan = alg.cartan_dims()
    for x in range(alg.nvert):
        assert sum(projective_module(alg, x)[0].dims) == sum(cartan[x])
    report = homological_report(alg)
    _walk_opposite_simples(alg)
    for side in (alg, alg.opposite()):
        for terms, syms in side.cache.get("simple_walks", {}).values():
            # ModuleComplex refuses a complex whose d o d is not 0
            nu_inverse_complex(side.opposite(), Resolution(side, terms, syms, True))
    _check_k0_classes(alg)
    assert codomdim_of_dual_regular(alg) == report.domdim
    assert homological_report(alg.opposite()).gldim == report.gldim


@given(_kupisch_series())
@settings(max_examples=100, deadline=None)
def test_invariants_on_kupisch_series(series):
    _check_invariants(compile_bound_quiver(kupisch_presentation(series)))


@given(st.sampled_from(BASES), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_invariants_on_replicated_algebras(base, m):
    _check_invariants(build_replicated(_base(*base), m))


def test_a_walk_with_one_entry_doubled_fails_d_squared():
    # the check above is not vacuous: in the kept walks over Kronecker^(2)
    # and its opposite with two differentials or more, doubling the first
    # nonzero entry of d^1 breaks d o d = 0 in at least four
    alg = build_replicated(_base("kronecker", 0), 2)
    homological_report(alg)
    _walk_opposite_simples(alg)
    broken = 0
    for side in (alg, alg.opposite()):
        for terms, syms in side.cache["simple_walks"].values():
            if len(syms) < 2:
                continue
            rows = [list(row) for row in syms[1]]
            r, s = next((r, s) for r, row in enumerate(rows) for s, w in enumerate(row) if w)
            rows[r][s] = tuple((b, 2 * c) for b, c in rows[r][s])
            bad = (syms[0], tuple(map(tuple, rows))) + syms[2:]
            try:
                nu_inverse_complex(side.opposite(), Resolution(side, terms, bad, True))
            except InvalidParams as exc:
                broken += str(exc) == "d^2 != 0"
    assert broken >= 4


def test_a_term_off_by_one_summand_fails_the_k0_class():
    # the K_0 check is not vacuous: a kept walk of kA_3^(1) with one
    # summand dropped from its last term, or one term dropped, breaks it
    alg = build_replicated(_base("A3", 0), 1)
    homological_report(alg)
    walks = alg.cache["simple_walks"]
    y, (terms, syms) = next((y, w) for y, w in walks.items() if len(w[0]) > 2)
    for bad in (terms[:-1] + (terms[-1][1:],), terms[:-1]):
        walks[y] = (bad, syms)
        with pytest.raises(AssertionError):
            _check_k0_classes(alg)
    walks[y] = (terms, syms)
    _check_k0_classes(alg)
