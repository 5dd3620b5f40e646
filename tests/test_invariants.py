"""Invariants that every algebra the oracle builds must satisfy, on random
Kupisch series and on small replicated algebras: dim P_x is its Cartan row
sum, codomdim DA = domdim A (Tachikawa), and gldim A = gldim A^op."""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from algolab.dynkin import orientations, parse_graph
from algolab.oracle import (
    build_replicated,
    compile_bound_quiver,
    homological_report,
    kronecker_presentation,
    kupisch_presentation,
    projective_module,
    quiver_presentation_from_dynkin,
)
from algolab.oracle.homology import codomdim_of_dual_regular

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


def _check_invariants(alg):
    cartan = alg.cartan_dims()
    for x in range(alg.nvert):
        assert sum(projective_module(alg, x)[0].dims) == sum(cartan[x])
    report = homological_report(alg)
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
