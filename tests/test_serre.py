import re

import pytest

from algolab.dynkin import (
    coxeter_data,
    hereditary_descriptor,
    kronecker_quiver,
    linear_quiver,
    orientations,
    parse_graph,
    parse_quiver,
)
from algolab.errors import (
    HorizonTooSmall,
    InvalidParams,
    NonPositiveVector,
    UnknownPeriodicity,
)
from algolab.oracle import serre_orbit_profile
from algolab.serre import (
    ModuleTag,
    SerreProfile,
    hereditary_profile,
    minimal_ag_schedule,
    self_injective_profile,
    tensor_profiles,
    twisted_cy,
)


def profile_of(quiver_text, horizon=8):
    return hereditary_profile(hereditary_descriptor(parse_quiver(quiver_text)), horizon)


def test_linear_a2_orbit():
    p = profile_of("1->2", horizon=4)
    assert p.ell == {1: 1, 2: 2}
    assert p.sigma == {1: 2, 2: 1}
    # P_1 = I_2 -> P_2 -> S_1 = I_1 -> P_1; the two injective hits keep the
    # shift flat, so s_1^- = (0, 0, -1, -1, -1)
    assert p.s_minus[1] == [0, 0, -1, -1, -1]
    assert p.s_minus[2] == [0, -1, -1, -1, -2]
    assert p.periodic is True


def test_linear_a3_orbit():
    p = profile_of("1->2,2->3", horizon=5)
    assert p.ell == {1: 1, 2: 2, 3: 3}
    h, nu = coxeter_data(parse_graph("A3"))
    assert all(p.ell[i] + p.ell[nu[i]] == h for i in (1, 2, 3))
    assert p.s_minus[1] == [0, 0, -1, -2, -2, -2]
    assert p.s_minus[2] == [0, -1, -1, -2, -2, -3]
    assert p.s_minus[3] == [0, -1, -2, -2, -2, -3]


def test_kronecker_profile():
    desc = hereditary_descriptor(kronecker_quiver())
    p = hereditary_profile(desc, 10)
    for x in (1, 2):
        assert p.s_minus[x] == [-k for k in range(11)]
        assert p.s_plus[x] == list(range(11))
        assert p.ell[x] is None
    assert p.periodic is False
    assert twisted_cy(p) is None


def test_twisted_cy_values():
    assert twisted_cy(profile_of("1->2", 6)) == (3, 1)
    assert twisted_cy(profile_of("1->2,2->3", 6)) == (4, 2)
    # nu-stable orientation of A3: homogeneous, h = h_Delta / 2
    assert twisted_cy(profile_of("1->2,3->2", 6)) == (2, 1)


def test_twisted_cy_horizon_too_small():
    p = profile_of("1->2,2->3", 3)
    with pytest.raises(HorizonTooSmall):
        twisted_cy(p)


def test_self_injective_profile():
    si = self_injective_profile(["1", "2"], {"1": "2", "2": "1"}, horizon=6)
    assert twisted_cy(si) == (1, 0)
    sched = minimal_ag_schedule(si)
    assert sched.members(4) == [1, 2, 3, 4]
    assert sched.dims_at(3) == 3


def test_tensor_profiles():
    a2 = profile_of("1->2", 8)
    both = tensor_profiles(a2, a2)
    for (x, y) in both.simples:
        for k in range(both.horizon + 1):
            assert both.s_minus[(x, y)][k] == a2.s_minus[x][k] + a2.s_minus[y][k]
    assert twisted_cy(both) == (3, 2)
    si = self_injective_profile(["*"], horizon=8)
    mixed = tensor_profiles(a2, si)
    assert twisted_cy(mixed) == (3, 1)
    for (x, y) in mixed.simples:
        assert mixed.s_minus[(x, y)] == a2.s_minus[x]
    kron = hereditary_profile(hereditary_descriptor(kronecker_quiver()), 8)
    assert tensor_profiles(a2, kron).periodic is False


def test_schedules():
    a2 = profile_of("1->2", 10)
    sched = minimal_ag_schedule(a2)
    assert sched.members(3) == [2, 5, 8]
    assert [sched.dims_at(m) for m in sched.members(3)] == [3, 7, 11]
    kron = hereditary_profile(hereditary_descriptor(kronecker_quiver()), 6)
    assert minimal_ag_schedule(kron).members(5) == []
    a3 = profile_of("1->2,2->3", 12)
    assert minimal_ag_schedule(a3).members(2) == [3, 7]
    assert minimal_ag_schedule(a3).dims_at(3) == 5


def test_schedule_unknown_periodicity():
    p = profile_of("1->2", 6)
    p.periodic = "unknown"
    with pytest.raises(UnknownPeriodicity):
        minimal_ag_schedule(p)


def test_dual_identities_on_orientation_sweep():
    for name in ["A2", "A3", "A4", "D4"]:
        g = parse_graph(name)
        for quiver in orientations(g):
            p = hereditary_profile(hereditary_descriptor(quiver), g.coxeter_number() + 1)
            assert p.check_dual_identities(), (name, quiver)


def test_ell_nu_identity_all_orientations():
    for name in ["A2", "A3", "A4", "A5", "D4", "D5"]:
        g = parse_graph(name)
        h, nu = coxeter_data(g)
        for quiver in orientations(g):
            p = hereditary_profile(hereditary_descriptor(quiver), h + 1)
            for i in p.simples:
                assert p.ell[i] is not None
                assert p.ell[i] + p.ell[nu[i]] == h, (name, quiver, i)


def test_sigma_matches_nu_on_dynkin():
    for name in ["A3", "A4", "D4"]:
        g = parse_graph(name)
        _, nu = coxeter_data(g)
        for quiver in orientations(g):
            p = hereditary_profile(hereditary_descriptor(quiver), g.coxeter_number() + 1)
            assert p.sigma == {i: nu[i] for i in p.simples}, (name, quiver)


def test_profile_rejects_shift_functions_off_their_bounds():
    # the start comes first, then s^-, then s^+, each with its own message
    tags = {1: [ModuleTag(1, None, (1,))] * 3}
    cases = [
        ([1, 0, -1], [0, 1, 2], "shift functions must start at 0"),
        ([0, -1, 0], [0, 1, 2], "s^- must be non-increasing"),
        ([0, -1, -2], [0, 2, 1], "s^+ must be non-decreasing"),
        ([0, -1, 0], [0, 2, 1], "s^- must be non-increasing"),
    ]
    for s_minus, s_plus, message in cases:
        with pytest.raises(InvalidParams, match=re.escape(message)):
            SerreProfile((1,), 2, {1: s_minus}, {1: s_plus}, tags, True)
    SerreProfile((1,), 2, {1: [0, -1, -1]}, {1: [0, 1, 1]}, tags, True)


def parent_hereditary_profile(desc, horizon):
    """``hereditary_profile`` as it was with a loop per direction, the plus
    tags built and ell and sigma worked out inside; returns the fields
    (s_minus, s_plus, minus_tags, ell, sigma, periodic)."""
    if horizon < 1:
        raise InvalidParams("horizon must be >= 1")
    n = desc.n
    simples = tuple(range(1, n + 1))
    proj = {i + 1: desc.proj_dims[i] for i in range(n)}
    inj = {i + 1: desc.inj_dims[i] for i in range(n)}
    proj_lookup = {v: x for x, v in proj.items()}
    inj_lookup = {v: x for x, v in inj.items()}

    def tag_of(v):
        return ModuleTag(proj_lookup.get(v), inj_lookup.get(v), v)

    s_minus, minus_tags = {}, {}
    ell, sigma = {}, {}
    for x in simples:
        v = proj[x]
        shifts = [0]
        tags = [tag_of(v)]
        for k in range(horizon):
            t = tags[-1]
            if t.is_injective:
                v = proj[t.as_i]
                shifts.append(shifts[-1])
            else:
                v = desc.tau_inverse(v)
                if any(c < 0 for c in v) or not any(v):
                    raise NonPositiveVector(
                        f"orbit of P_{x} left the positive orthant at step {k + 1}"
                    )
                shifts.append(shifts[-1] - 1)
            tags.append(tag_of(v))
        s_minus[x] = shifts
        minus_tags[x] = tags
        for k in range(1, horizon + 1):
            if tags[k - 1].is_injective:
                ell[x] = k
                sigma[x] = tags[k].as_p
                break
        else:
            ell[x] = None

    s_plus, plus_tags = {}, {}
    for x in simples:
        v = inj[x]
        shifts = [0]
        tags = [tag_of(v)]
        for k in range(horizon):
            t = tags[-1]
            if t.is_projective:
                v = inj[t.as_p]
                shifts.append(shifts[-1])
            else:
                v = desc.tau(v)
                shifts.append(shifts[-1] + 1)
            tags.append(tag_of(v))
        s_plus[x] = shifts
        plus_tags[x] = tags

    if all(ell[x] is not None for x in simples):
        periodic = True
    elif not desc.representation_finite:
        periodic = False
    else:
        periodic = True
    return s_minus, s_plus, minus_tags, ell, sigma, periodic


def as_items(fields):
    """Dicts as item lists, so that key order counts."""
    return tuple(list(f.items()) if isinstance(f, dict) else f for f in fields)


def test_hereditary_profile_matches_the_parent_loops():
    quivers = [
        q
        for name in ["A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6", "B3", "C3", "F4", "G2"]
        for q in orientations(parse_graph(name))
    ]
    quivers += [kronecker_quiver(), parse_quiver("1->2,1->2,1->2")]
    for quiver in quivers:
        desc = hereditary_descriptor(quiver)
        for horizon in (1, 8, 30):
            p = hereditary_profile(desc, horizon)
            got = (p.s_minus, p.s_plus, p.minus_tags, p.ell, p.sigma, p.periodic)
            expected = parent_hereditary_profile(desc, horizon)
            assert as_items(got) == as_items(expected), (quiver, horizon)


def test_profile_json_shape():
    p = profile_of("1->2", 6)
    j = p.to_json()
    assert set(j) == {"s_minus", "s_plus", "ell", "sigma", "twisted_cy", "periodic"}
    assert j["twisted_cy"] == [3, 1]
    assert j["periodic"] is True


def test_oracle_profile_agrees_with_hereditary():
    # every orientation of the simply-laced diagrams of rank <= 4, K = 8
    from algolab.oracle import QuiverPresentation, compile_bound_quiver

    for name in ["A2", "A3", "A4", "D4"]:
        for q in orientations(parse_graph(name)):
            desc = hereditary_descriptor(q)
            hp = hereditary_profile(desc, 8)
            pres = QuiverPresentation(
                q.n, [(f"x{i}", s, t) for i, (s, t, _) in enumerate(q.arrows)]
            )
            op = serre_orbit_profile(compile_bound_quiver(pres), 8)
            for x in range(1, q.n + 1):
                assert hp.s_minus[x] == op.s_minus[f"e{x}"], (name, q, x)
                assert hp.s_plus[x] == op.s_plus[f"e{x}"], (name, q, x)
                assert hp.ell[x] == op.ell[f"e{x}"]
            assert {f"e{k}": f"e{v}" for k, v in hp.sigma.items()} == op.sigma
            assert twisted_cy(hp) == twisted_cy(op)


def test_lem_vanish_consistency_against_oracle():
    # s_x^-(k) - s_x^-(k+1) equals the injective dimension of the orbit
    # module, recomputed independently by the oracle
    from algolab.oracle import compile_bound_quiver, linear_an_presentation
    from algolab.oracle.homology import module_dims
    from algolab.oracle.modules import projective_module

    alg = compile_bound_quiver(linear_an_presentation(3))
    p = serre_orbit_profile(alg, 6)
    from algolab.oracle.homology import nu_inverse_derived

    for x in range(3):
        label = f"e{x + 1}"
        module, _ = projective_module(alg, x)
        for k in range(5):
            expected = p.s_minus[label][k] - p.s_minus[label][k + 1]
            dims = module_dims(alg, module)
            assert dims.idim == expected, (label, k)
            cohs = nu_inverse_derived(alg, module)
            assert len(cohs) == 1
            module = cohs[0][1]


def test_lem_vanish_plus_side_first_step():
    # s_x^+(1) - s_x^+(0) equals pdim I_x (the k = 0 case of the dual clause)
    from algolab.oracle import compile_bound_quiver, injective_module, tnl_presentation
    from algolab.oracle.homology import module_dims

    alg = compile_bound_quiver(tnl_presentation(4, 3))
    p = serre_orbit_profile(alg, 4)
    for x in range(4):
        label = f"e{x + 1}"
        dims = module_dims(alg, injective_module(alg, x))
        assert p.s_plus[label][1] - p.s_plus[label][0] == dims.pdim, label


def test_a_horizon_below_one_is_refused_by_both_routes():
    # the one orbit loop refuses a horizon that walks no power, so the oracle
    # check cannot report serre_formal for a series that is not; this one
    # shows its first two-degree step at power 2
    from algolab.oracle import compile_bound_quiver, kupisch_presentation, serre_formal_check

    alg = compile_bound_quiver(kupisch_presentation((3, 3, 3, 2, 1)))
    assert serre_formal_check(alg, horizon=2).kind == "not_serre_formal"
    for horizon in (0, -1):
        with pytest.raises(InvalidParams, match="horizon must be >= 1"):
            serre_formal_check(alg, horizon=horizon)
        with pytest.raises(InvalidParams, match="horizon must be >= 1"):
            profile_of("1->2", horizon)


def test_a_profile_of_unknown_periodicity_prints_an_unknown_twisted_cy():
    from algolab.oracle import compile_bound_quiver, kronecker_presentation, serre_formal_check

    # the orbits of the Kronecker algebra never meet an injective, so no
    # horizon decides it: the verdict is inconclusive and keeps its profile
    verdict = serre_formal_check(compile_bound_quiver(kronecker_presentation()), horizon=4)
    assert verdict.kind == "inconclusive" and verdict.profile.periodic == "unknown"
    assert verdict.reason == "P_e1 meets no injective within horizon 4"
    assert verdict.profile.to_json()["twisted_cy"] == "unknown"
    # a hereditary profile knows its periodicity, so a horizon too short for
    # its match still raises
    e6 = hereditary_profile(hereditary_descriptor(linear_quiver(parse_graph("E6"))), 8)
    assert e6.periodic is True
    with pytest.raises(HorizonTooSmall):
        e6.to_json()
