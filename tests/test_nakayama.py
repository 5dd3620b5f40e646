import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algolab.errors import (
    CriterionInapplicable,
    InvalidKupisch,
    InvalidLength,
    InvalidParams,
    ResolutionBoundExceeded,
)
from algolab.nakayama import (
    INFINITE,
    KupischSeries,
    SerialModule,
    connected_kupisch_series,
    kupisch_algebra_dims,
    kupisch_module_dims,
    qf13_nakayama,
    serial_dims,
    serre_formal_class_nakayama,
    sgc_higher_auslander,
    sgc_kupisch,
    tnl_dims,
    tnl_kupisch,
)


def test_kupisch_validation():
    KupischSeries((3, 3, 3, 2, 1))
    with pytest.raises(InvalidKupisch):
        KupischSeries((3, 3, 2))  # c_n != 1
    with pytest.raises(InvalidKupisch):
        KupischSeries((1, 2, 1))  # c_i < 2 before the end
    with pytest.raises(InvalidKupisch):
        KupischSeries((4, 2, 2, 1))  # c_i > c_{i+1} + 1


def test_kupisch_parse_print():
    ks = KupischSeries.parse("[3,3,3,2,1]")
    assert ks.c == (3, 3, 3, 2, 1)
    assert str(ks) == "[3,3,3,2,1]"
    assert ks.dimension() == 12


def test_tnl_kupisch_shape():
    assert tnl_kupisch(6, 3).c == (3, 3, 3, 3, 2, 1)
    assert tnl_kupisch(4, 4).c == (4, 3, 2, 1)
    with pytest.raises(InvalidParams):
        tnl_kupisch(3, 4)


def test_serial_dims_base_cases():
    assert serial_dims(1, 2, 3) == (0, 0)  # injective base case
    assert serial_dims(2, 1, 3) == (0, 1)
    assert serial_dims(4, 1, 3) == (2, 2)
    assert serial_dims(2, 2, 3) == (1, 1)
    assert serial_dims(5, 2, 3)[0] == 3
    # s = l: projective-injective over the infinite quiver
    assert serial_dims(3, 3, 3) == (INFINITE, 0)
    with pytest.raises(InvalidLength):
        serial_dims(1, 4, 3)
    with pytest.raises(InvalidLength):
        serial_dims(1, 0, 3)


@given(st.integers(1, 12), st.integers(2, 6), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_serial_dims_gap_invariant(i, l, s):
    if s > l:
        return
    d, g = serial_dims(i, s, l)
    if d is INFINITE:
        assert g == 0
    else:
        assert g - d in (0, 1)


def test_tnl_examples():
    r = tnl_dims(6, 3)
    assert (r.gldim, r.domdim, r.higher_auslander) == (3, 3, True)
    r = tnl_dims(7, 3)
    assert (r.gldim, r.domdim, r.higher_auslander) == (4, 3, False)
    r = tnl_dims(5, 2)
    assert (r.gldim, r.domdim, r.higher_auslander) == (4, 4, True)
    assert tnl_dims(6, 3).corresponding_pair[0] == "T(4,3)"
    with pytest.raises(InvalidParams):
        tnl_dims(3, 4)
    with pytest.raises(InvalidParams):
        tnl_dims(5, 1)


def test_tnl_closed_forms_match_walks():
    for n in range(2, 12):
        for l in range(2, n + 1):
            rep = tnl_dims(n, l)
            g, d = kupisch_algebra_dims(tnl_kupisch(n, l))
            assert (g, d) == (rep.gldim, rep.domdim), (n, l)


def test_module_walk_examples():
    ks = tnl_kupisch(6, 3)
    dims = kupisch_module_dims(ks, SerialModule(5, 2))
    assert dims.domdim == 3 and dims.idim == 3
    # projective-injective: domdim infinity at step 0
    dims = kupisch_module_dims(ks, SerialModule(1, 3))
    assert dims.domdim is INFINITE and dims.idim == 0
    # T_{4,3}: M_{1,1} = S_1 = I_1: idim 0, pdim 2 by the syzygy walk
    ks43 = tnl_kupisch(4, 3)
    dims = kupisch_module_dims(ks43, SerialModule(1, 1))
    assert dims.idim == 0 and dims.pdim == 2
    with pytest.raises(InvalidLength):
        kupisch_module_dims(ks, SerialModule(6, 2))


def test_module_walk_bound_exceeded():
    ks = tnl_kupisch(12, 3)
    with pytest.raises(ResolutionBoundExceeded):
        kupisch_module_dims(ks, SerialModule(12, 1), bound=1)


# -- the walks as they were before the per-series tables, kept as the reference


def _reference_injective_interval(c, j):
    a = j
    while a > 1 and a - 1 + c[a - 2] > j:
        a -= 1
    return a, j


def reference_module_dims(ks, m, bound=64):
    """Four walks per module, each step looking its envelope up afresh."""
    c = ks.c
    i, s = m.i, m.s
    if i > ks.n or s > c[i - 1]:
        raise InvalidLength(f"M_({i},{s}) is not a module over {ks}")

    def injective_is_projective(j):
        a, _ = _reference_injective_interval(c, j)
        return c[a - 1] == j - a + 1

    def projective_is_injective(i):
        j = i + c[i - 1] - 1
        return _reference_injective_interval(c, j) == (i, j)

    idim = 0
    domdim_counter = 0
    counting = True
    lo, hi = m.interval
    steps = 0
    while True:
        a, j = _reference_injective_interval(c, hi)
        if counting and not injective_is_projective(hi):
            counting = False
            domdim_counter = idim
        if a > lo - 1:
            break
        lo, hi = a, lo - 1
        idim += 1
        steps += 1
        if steps > bound:
            raise ResolutionBoundExceeded(
                f"injective coresolution of M_({i},{s}) exceeded {bound}"
            )
    domdim = INFINITE if counting else domdim_counter

    pdim = 0
    codom_counter = 0
    counting = True
    lo, hi = m.interval
    steps = 0
    while True:
        top = lo
        if counting and not projective_is_injective(top):
            counting = False
            codom_counter = pdim
        plen = c[top - 1]
        if top + plen - 1 == hi:
            break
        lo, hi = hi + 1, top + plen - 1
        pdim += 1
        steps += 1
        if steps > bound:
            raise ResolutionBoundExceeded(
                f"projective resolution of M_({i},{s}) exceeded {bound}"
            )
    codomdim = INFINITE if counting else codom_counter
    return pdim, idim, domdim, codomdim


def reference_algebra_dims(ks, bound=64):
    gldim = 0
    domdim = INFINITE
    for i in range(1, ks.n + 1):
        gldim = max(gldim, reference_module_dims(ks, SerialModule(i, 1), bound)[0])
        proj = reference_module_dims(ks, SerialModule(i, ks.c[i - 1]), bound)
        domdim = min(domdim, proj[2])
    return gldim, domdim


def _fields(dims):
    # infinity must stay the math.inf object: the JSON boundary tests identity
    return tuple((x, x is INFINITE) for x in dims)


def _outcome(call):
    try:
        return "value", call()
    except ResolutionBoundExceeded as exc:
        return "raised", str(exc)


def _serial_modules(ks):
    return [SerialModule(i, s) for i in range(1, ks.n + 1) for s in range(1, ks.c[i - 1] + 1)]


def test_module_walks_match_the_reference():
    for n in range(2, 9):
        for ks in connected_kupisch_series(n):
            for m in _serial_modules(ks):
                dims = kupisch_module_dims(ks, m)
                got = (dims.pdim, dims.idim, dims.domdim, dims.codomdim)
                assert _fields(got) == _fields(reference_module_dims(ks, m)), (ks, m)


def test_algebra_walks_match_the_reference():
    algebras = [ks for n in range(2, 10) for ks in connected_kupisch_series(n)]
    algebras += [tnl_kupisch(n, l) for n in range(2, 41) for l in range(2, n + 1)]
    for ks in algebras:
        assert _fields(kupisch_algebra_dims(ks)) == _fields(reference_algebra_dims(ks)), ks


def test_walk_bounds_match_the_reference():
    for n in range(2, 7):
        for ks in connected_kupisch_series(n):
            for bound in range(-1, 5):
                got = _outcome(lambda: kupisch_algebra_dims(ks, bound))
                assert got == _outcome(lambda: reference_algebra_dims(ks, bound)), (ks, bound)
                for m in _serial_modules(ks):
                    got = _outcome(lambda: kupisch_module_dims(ks, m, bound))
                    if got[0] == "value":
                        d = got[1]
                        got = "value", (d.pdim, d.idim, d.domdim, d.codomdim)
                    want = _outcome(lambda: reference_module_dims(ks, m, bound))
                    assert got == want, (ks, m, bound)


def test_serial_recursion_matches_walks_on_tnl():
    for n in [6, 9, 12]:
        for l in [2, 3, 4, 6]:
            if l > n:
                continue
            ks = tnl_kupisch(n, l)
            for i in range(1, n + 1):
                for s in range(1, ks.c[i - 1] + 1):
                    walk = kupisch_module_dims(ks, SerialModule(i, s))
                    d, g = serial_dims(i, s, l)
                    assert (walk.domdim, walk.idim) == (d, g), (n, l, i, s)


def test_sgc_kupisch():
    assert sgc_kupisch(4, 3, 1) == tnl_kupisch(6, 3)
    assert sgc_kupisch(5, 2, 3) == tnl_kupisch(8, 2)
    assert sgc_kupisch(7, 3, 0) == tnl_kupisch(7, 3)
    with pytest.raises(InvalidParams):
        sgc_kupisch(4, 3, -1)


def test_sgc_higher_auslander():
    assert sgc_higher_auslander(4, 3, 1) is True
    assert sgc_higher_auslander(4, 3, 2) is False
    assert sgc_higher_auslander(9, 2, 5) is True


def test_sgc_matches_tnl_exhaustively():
    for n in range(2, 11):
        for l in range(2, n + 1):
            for m in range(0, 7):
                ks = sgc_kupisch(n, l, m)
                assert (
                    sgc_higher_auslander(n, l, m)
                    == tnl_dims(ks.n, l).higher_auslander
                ), (n, l, m)


def test_classification_cases():
    cls = serre_formal_class_nakayama(KupischSeries.parse("[3,3,3,3,2,1]"))
    assert not cls.serre_formal and cls.case == "tnl" and cls.l == 3
    cls = serre_formal_class_nakayama(KupischSeries.parse("[3,3,3,3,3,2,1]"))
    assert cls.serre_formal and cls.d == 4
    cls = serre_formal_class_nakayama(KupischSeries.parse("[2,2,1]"))
    assert cls.serre_formal and cls.d == 2
    cls = serre_formal_class_nakayama(KupischSeries.parse("[2,3,2,1]"))
    assert not cls.serre_formal and cls.case == "rising-step"
    cls = serre_formal_class_nakayama(KupischSeries.parse("[3,2,2,1]"))
    assert not cls.serre_formal and cls.case == "plateau-after-drop"
    # hereditary kA_n is 1-representation-finite, hence Serre-formal
    cls = serre_formal_class_nakayama(KupischSeries.parse("[4,3,2,1]"))
    assert cls.serre_formal and cls.d == 1
    with pytest.raises(InvalidKupisch):
        serre_formal_class_nakayama(KupischSeries((1,)))


def test_qf13():
    assert qf13_nakayama(6, 3) is True
    assert qf13_nakayama(8, 3) is True
    with pytest.raises(CriterionInapplicable) as excinfo:
        qf13_nakayama(3, 3)
    assert excinfo.value.obstruction == 1
    # SGC images are QF-13 for a small grid
    for n in range(3, 7):
        for l in range(2, min(4, n) + 1):
            for m in range(1, 3):
                ks = sgc_kupisch(n, l, m)
                try:
                    assert qf13_nakayama(ks.n, l) is True
                except CriterionInapplicable:
                    pytest.fail(f"criterion inapplicable on T({ks.n},{l})")


def test_enumeration_counts_are_catalan():
    for n, count in [(2, 1), (3, 2), (4, 5), (5, 14), (6, 42), (7, 132)]:
        series = connected_kupisch_series(n)
        assert len(series) == count
        assert len({s.c for s in series}) == count


@given(st.integers(2, 7))
@settings(max_examples=6, deadline=None)
def test_enumerated_series_are_valid(n):
    for ks in connected_kupisch_series(n):
        assert ks.c[-1] == 1
        assert all(c >= 2 for c in ks.c[:-1])
        assert all(ks.c[i] <= ks.c[i + 1] + 1 for i in range(n - 1))
