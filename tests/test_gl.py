import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algolab.gl as gl
from algolab.errors import InternalMismatch, InvalidParams, MixedWeights
from algolab.gl import (
    GLData,
    LElement,
    ScanReport,
    c_gen,
    canonical_nu_formal_scan,
    geq_zero,
    is_torsion,
    leq,
    make_element,
    omega,
    x_gen,
    zero,
)

weights_strategy = st.lists(st.integers(2, 7), min_size=1, max_size=4).map(tuple)


# -- the pair-by-pair scan, kept as the reference for the carry tables ------------


def interval_zero_to(data: GLData, top: LElement):
    """The interval [0, top] in the partial order, the a with a_1 fastest."""
    out = []
    for a in _tuples(data.weights):
        base = LElement(data, a, 0)
        diff = top - base
        # base + b c in [0, top] iff 0 <= b <= b(top - base)
        for b in range(0, diff.b + 1):
            out.append(LElement(data, a, b))
    return out


def _tuples(weights):
    if not weights:
        yield ()
        return
    for rest in _tuples(weights[1:]):
        for a0 in range(weights[0]):
            yield (a0,) + rest


def reference_scan(data: GLData, k_range: int = 25) -> ScanReport:
    """``canonical_nu_formal_scan`` as it was when it built x + k omega and
    the difference to d c + omega as elements, one pair at a time."""
    if k_range < 1:
        raise InvalidParams("scan range must be >= 1")
    om = gl.omega(data)
    top = c_gen(data).scale(data.d)
    bound = top + om
    interval = interval_zero_to(data, top)
    checked = 0
    for k in range(-k_range, k_range + 1):
        shift = om.scale(k)
        for x in interval:
            z = x + shift
            checked += 1
            if geq_zero(z) and geq_zero(bound - z):
                return ScanReport(False, checked, counterexample=(k, x))
    return ScanReport(True, checked)


def _fields(report):
    return report.certified, report.checked_pairs, report.counterexample


def test_data_validation():
    with pytest.raises(InvalidParams):
        GLData((1, 2), 1)
    with pytest.raises(InvalidParams):
        GLData((2, 2), 0)


def test_omega_normal_forms():
    data = GLData((2, 2, 2, 2), 1)
    om = omega(data)
    assert om.a == (1, 1, 1, 1) and om.b == -2
    data = GLData((2, 3, 7), 1)
    om = omega(data)
    assert om.a == (1, 2, 6) and om.b == -2
    # no weights: omega = -(d+1) c ... with n = 0 the display collapses
    data = GLData((2,), 2)
    om = omega(data)
    assert om.a == (1,) and om.b == -3


def test_leq_examples():
    data = GLData((2, 3, 7), 1)
    assert leq(x_gen(data, 1), c_gen(data))
    assert geq_zero(zero(data))
    assert leq(zero(data), zero(data))
    # (n-1)c - sum x_i has normal form b = -1, hence not >= 0
    v = make_element(data, [-1, -1, -1], data.n - 1)
    assert v.b == -1 and not geq_zero(v)


def test_mixed_weights_rejected():
    a = GLData((2, 2), 1)
    b = GLData((2, 3), 1)
    with pytest.raises(MixedWeights):
        leq(zero(a), zero(b))


def test_torsion_verdicts():
    assert is_torsion(GLData((2, 2, 2, 2), 1), omega(GLData((2, 2, 2, 2), 1))) is True
    assert is_torsion(GLData((2, 3, 7), 1), omega(GLData((2, 3, 7), 1))) is False
    assert is_torsion(GLData((2, 2, 2), 1), omega(GLData((2, 2, 2), 1))) is False
    data = GLData((2, 3, 7), 1)
    assert is_torsion(data, c_gen(data)) is False
    assert is_torsion(data, zero(data)) is True


def test_torsion_structure():
    torsion, free = GLData((2, 2, 2), 1).torsion_structure()
    assert free == 1
    # |torsion(L)| = prod(p_i) / lcm... for (2,2,2): Z/2 + Z/2
    total = 1
    for t in torsion:
        total *= t
    assert total == 4


@given(weights_strategy, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_degree_vanishes_exactly_on_torsion(weights, d):
    data = GLData(weights, d)
    import itertools

    samples = [zero(data), c_gen(data), omega(data)]
    for i in range(1, data.n + 1):
        samples.append(x_gen(data, i))
    samples.append(omega(data).scale(2))
    samples.append(c_gen(data) - x_gen(data, 1))
    for z in samples:
        assert is_torsion(data, z) == (z.degree() == 0)


@given(weights_strategy, st.integers(1, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_normal_form_laws(weights, d, data_st):
    data = GLData(weights, d)

    def rand_elt():
        a = [data_st.draw(st.integers(-6, 6)) for _ in range(data.n)]
        b = data_st.draw(st.integers(-4, 4))
        return make_element(data, a, b)

    x, y, z = rand_elt(), rand_elt(), rand_elt()
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x + zero(data) == x
    assert x - x == zero(data)
    # reduction is idempotent
    again = make_element(data, x.a, x.b)
    assert again == x


def test_interval_cardinality_d1():
    for weights in [(2, 2, 2), (2, 3, 7), (3, 4), (5,)]:
        data = GLData(weights, 1)
        interval = interval_zero_to(data, c_gen(data))
        assert len(interval) == sum(p - 1 for p in weights) + 2
        assert len(set(interval)) == len(interval)


def test_interval_membership():
    data = GLData((2, 3), 2)
    top = c_gen(data).scale(2)
    interval = interval_zero_to(data, top)
    for z in interval:
        assert geq_zero(z) and leq(z, top)


def test_scan_certifies():
    report = canonical_nu_formal_scan(GLData((2, 2, 2), 1), 10)
    assert report.certified and report.checked_pairs > 0
    report = canonical_nu_formal_scan(GLData((2, 3, 5), 2), 5)
    assert report.certified
    report = canonical_nu_formal_scan(GLData((2,), 3), 4)
    assert report.certified


def test_scan_k_zero_branch():
    # at k = 0 condition A holds for every interval point, so certification
    # rests on B failing: 0 <= dc + omega is impossible since its normal
    # form has b = -1
    data = GLData((2, 3, 4), 2)
    om = omega(data)
    bound = c_gen(data).scale(data.d) + om
    nm = bound
    assert nm.b == -1
    for x in interval_zero_to(data, c_gen(data).scale(data.d)):
        assert not (geq_zero(x) and geq_zero(bound - x))


def test_torsion_tests_that_disagree_raise_with_the_witness(monkeypatch):
    import algolab.gl as gl

    data = GLData((2, 3, 7), 1)
    z = omega(data)
    # a rank that calls every element torsion contradicts degree(omega) != 0
    monkeypatch.setattr(gl, "rank", lambda rows: 0)
    with pytest.raises(InternalMismatch) as info:
        is_torsion(data, z)
    assert info.value.witness == (tuple(z.raw_coordinates()), True, False)


@given(st.lists(st.integers(2, 7), max_size=4).map(tuple), st.integers(1, 3), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_scan_matches_the_pair_by_pair_scan(weights, d, k_range):
    data = GLData(weights, d)
    assert _fields(canonical_nu_formal_scan(data, k_range)) == _fields(reference_scan(data, k_range))


def test_scan_matches_the_pair_by_pair_scan_at_k_25():
    for weights, d in (((2, 5, 7), 3), ((3, 4), 2), ((), 2)):
        data = GLData(weights, d)
        assert _fields(canonical_nu_formal_scan(data, 25)) == _fields(reference_scan(data, 25))


@given(st.lists(st.integers(2, 7), max_size=4).map(tuple), st.integers(1, 3), st.integers(1, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_scan_with_any_shift_stops_where_the_pair_by_pair_scan_stops(weights, d, k_range, data_st):
    # with omega replaced by an arbitrary element most scans find a
    # counterexample, so the stopping pair and its count are compared too
    data = GLData(weights, d)
    a = tuple(data_st.draw(st.integers(0, p - 1)) for p in weights)
    fake = LElement(data, a, data_st.draw(st.integers(-6, 6)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gl, "omega", lambda _: fake)
        assert _fields(canonical_nu_formal_scan(data, k_range)) == _fields(reference_scan(data, k_range))


def test_scan_counterexamples_are_compared():
    # a shift with b = 0 makes x = 0 at k = 0 satisfy both conditions
    data = GLData((2, 3), 1)
    fake = LElement(data, (1, 2), 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gl, "omega", lambda _: fake)
        report = canonical_nu_formal_scan(data, 2)
        assert not report.certified and report.counterexample is not None
        assert _fields(report) == _fields(reference_scan(data, 2))


def test_scan_builds_no_element_per_pair(monkeypatch):
    calls = []
    make = gl.make_element

    def counted(*args):
        calls.append(args)
        return make(*args)

    monkeypatch.setattr(gl, "make_element", counted)
    k_range = 25
    report = canonical_nu_formal_scan(GLData((4, 5, 6, 7), 3), k_range)
    assert report.certified and report.checked_pairs > 10 * (2 * k_range + 1)
    # omega, d c, d c + omega and one k omega per k
    assert len(calls) <= 2 * (2 * k_range + 1)
