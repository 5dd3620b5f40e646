import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algolab.linalg import (
    RowSolver,
    det,
    identity,
    inverse,
    is_positive_definite,
    mat_mul,
    rank,
    rref,
    transpose,
    vec_mat,
)
from algolab.oracle import (
    compile_bound_quiver,
    kupisch_presentation,
    projective_module,
    quotient_module,
    top_data,
)
from algolab.snf import abelian_group_structure, diagonal_of, smith_normal_form

small_int = st.integers(min_value=-7, max_value=7)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_int, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_rref_idempotent(a):
    r1, p1 = rref(a)
    r2, p2 = rref(r1)
    assert r1 == r2 and p1 == p2


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_nullspaces_annihilate(a):
    left = RowSolver(a, len(a[0])).kernel()
    for v in left:
        assert all(x == 0 for x in vec_mat(v, a))
    at = transpose(a)
    for v in RowSolver(at, len(a)).kernel():
        assert all(x == 0 for x in vec_mat(v, at))
    assert len(left) == len(a) - rank(a)


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_row_solver_roundtrip(a):
    ncols = len(a[0])
    solver = RowSolver(a, ncols)
    combo = [sum(row[j] for row in a) for j in range(ncols)]
    coeffs = solver.coefficients(combo)
    assert coeffs is not None
    rebuilt = [0] * ncols
    for c, row in zip(coeffs, a):
        for j in range(ncols):
            rebuilt[j] += c * row[j]
    assert rebuilt == [Fraction(x) for x in combo]


def seed_rref(a):
    """The reduced row echelon form as first written (Gauss-Jordan over
    Fractions), kept as the reference for the engine."""
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


@given(matrices(max_dim=6))
@settings(max_examples=200, deadline=None)
def test_rref_matches_seed(a):
    red, pivots = rref(a)
    assert (red, pivots) == seed_rref(a)
    assert all(type(x) is Fraction for row in red for x in row)


@given(matrices(max_dim=6))
@settings(max_examples=150, deadline=None)
def test_nullspaces_match_seed_rref_basis(a):
    # the kernel of the rows of a^T, the right nullspace of a, is the basis
    # the nullspaces were first read off: the seed rref at its free columns
    red, pivots = seed_rref(a)
    expected = []
    for fc in range(len(a[0])):
        if fc not in pivots:
            v = [Fraction(0)] * len(a[0])
            v[fc] = Fraction(1)
            for i, pc in enumerate(pivots):
                v[pc] = -red[i][fc]
            expected.append(v)
    assert RowSolver(transpose(a), len(a)).kernel() == expected


@given(
    st.integers(1, 5).flatmap(
        lambda c: st.tuples(
            st.lists(st.lists(small_int, min_size=c, max_size=c), max_size=6),
            st.lists(st.lists(small_int, min_size=c, max_size=c), min_size=1, max_size=4),
            st.lists(small_int, min_size=6, max_size=6),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_incremental_add_matches_whole_list(data):
    rows, probes, weights = data
    ncols = len(probes[0])
    whole = RowSolver(rows, ncols)
    grown = RowSolver([], ncols)
    for i, row in enumerate(rows):
        before = len(seed_rref(rows[:i])[1]) if i else 0
        assert grown.add(row) == (len(seed_rref(rows[: i + 1])[1]) > before)
    assert grown.rank == whole.rank == (len(seed_rref(rows)[1]) if rows else 0)
    assert grown.nrows == whole.nrows == len(rows)
    for p in probes:
        inside = len(seed_rref(rows + [p])[1]) == (len(seed_rref(rows)[1]) if rows else 0)
        assert grown.contains(p) == whole.contains(p) == inside
    # a combination of every original row, dependent ones included
    combo = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(ncols)]
    for solver in (whole, grown):
        coeffs = solver.coefficients(combo)
        assert coeffs is not None and len(coeffs) == len(rows)
        rebuilt = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)]
        assert rebuilt == combo
        residue, reduced = solver.reduce(combo)
        assert not any(residue) and reduced == coeffs


def kupisch_series(draws):
    """A connected linear Kupisch series read backwards from the draws:
    c_n = 1 and 2 <= c_i <= c_(i+1) + 1."""
    c = [1]
    for d in draws:
        c.append(2 + d % c[-1])
    return c[::-1]


@given(st.lists(st.integers(0, 6), min_size=1, max_size=5))
@settings(max_examples=25, deadline=None)
def test_top_and_quotient_dimensions_on_kupisch_projectives(draws):
    alg = compile_bound_quiver(kupisch_presentation(kupisch_series(draws)))
    for x in range(alg.nvert):
        m, _ = projective_module(alg, x)
        rad = [[] for _ in range(alg.nvert)]
        for t in alg.radical_indices:
            rad[alg.col_idem[t]].extend(m.act.get(t, ()))
        rad_dims = [len(seed_rref(rows)[1]) if rows else 0 for rows in rad]
        mults, gens = top_data(m)
        assert mults == [d - r for d, r in zip(m.dims, rad_dims)]
        assert [len(g) for g in gens] == mults
        assert sum(mults) == 1  # a projective has a simple top
        quot, proj = quotient_module(m, rad)
        assert list(quot.dims) == [d - r for d, r in zip(m.dims, rad_dims)]
        quot.verify()
        for v in range(alg.nvert):
            if quot.dims[v]:
                assert rank(proj.block(v)) == quot.dims[v]


def test_inverse_and_det():
    a = [[2, 1], [1, 1]]
    ainv = inverse(a)
    assert mat_mul(a, ainv, 2) == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert det(a) == 1
    assert det([[2, 0], [0, 3]]) == 6


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
@settings(max_examples=150, deadline=None)
def test_det_matches_permutation_expansion(a):
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(a[i][perm[i]] for i in range(n))
    assert det(a) == total


_entry = st.one_of(
    st.just(0), small_int, st.builds(Fraction, small_int, st.integers(1, 5)), st.just(Fraction(0))
)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_mat_mul_matches_the_dense_product(rows, inner, cols, data):
    a = [[data.draw(_entry) for _ in range(inner)] for _ in range(rows)]
    b = [[data.draw(_entry) for _ in range(cols)] for _ in range(inner)]
    # zero rows of a and zero columns of b, the entries the product skips
    for row in a:
        if data.draw(st.booleans()):
            row[:] = [0] * inner
    for j in range(cols):
        if data.draw(st.booleans()):
            for row in b:
                row[j] = 0
    # cols, not a width read off b, which has no rows when inner is 0
    dense = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]
    product = mat_mul(a, b, cols)
    assert product == dense
    for i, j in itertools.product(range(rows), range(cols)):
        if not any(a[i][k] and b[k][j] for k in range(inner)):
            assert type(product[i][j]) is int, (i, j, product[i][j])


def test_positive_definite():
    assert is_positive_definite([[2, -1], [-1, 2]])
    assert not is_positive_definite([[2, -2], [-2, 2]])
    assert not is_positive_definite([[0, 0], [0, 1]])


_square = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n)
)


@given(_square, st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_positive_definite_is_the_sylvester_criterion(a, shift):
    # b = a^T a + shift I is symmetric, definite or not as the shift falls
    b = mat_mul(transpose(a), a, len(a))
    for i in range(len(b)):
        b[i][i] += shift
    minors = [det([row[:k] for row in b[:k]]) for k in range(1, len(b) + 1)]
    assert is_positive_definite(b) == all(m > 0 for m in minors)


@given(_square)
@settings(max_examples=150, deadline=None)
def test_inverse_is_the_rref_of_a_beside_the_identity(a):
    n = len(a)
    red, pivots = rref([row + unit for row, unit in zip(a, identity(n))])
    if pivots[:n] != list(range(n)):
        with pytest.raises(ValueError):
            inverse(a)
        return
    assert inverse(a) == [row[n:] for row in red[:n]]


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_snf_transforms(a):
    d, u, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a, len(a[0])), v, len(a[0])) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    rows, cols = len(a), len(a[0])
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    diag = diagonal_of(d)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        elif y != 0:
            assert y % x == 0
    assert all(x >= 0 for x in diag)


def test_group_structure():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6 as a single invariant factor
    torsion, free = abelian_group_structure([[2, 0], [0, 3]], 2)
    assert torsion == [6] and free == 0
    torsion, free = abelian_group_structure([[2, 0]], 2)
    assert torsion == [2] and free == 1
