import pytest

from algolab.dynkin import (
    hereditary_descriptor,
    kronecker_quiver,
    linear_quiver,
    orientations,
    parse_graph,
    parse_quiver,
)
from algolab.errors import GateFailed, HorizonTooSmall, InvalidParams, NotDHereditary
from algolab.nakayama import tnl_dims, tnl_kupisch
from algolab.oracle import (
    QuiverPresentation,
    build_replicated,
    compile_bound_quiver,
    dual_numbers_presentation,
    homological_report,
    kupisch_of,
    linear_an_presentation,
    tnl_presentation,
)
from algolab.replicated import (
    d_hereditary_dims,
    d_rf_schedule_dims,
    indec_count_rf,
    minimal_ag_members,
    r_table_from_profile,
    replicated_dims_hereditary,
    replicated_dims_serre_formal,
    sgc_truncation,
)
from algolab.serre import (
    hereditary_profile,
    minimal_ag_schedule,
    self_injective_profile,
    twisted_cy,
)


def profile_of(text, horizon=10):
    return hereditary_profile(hereditary_descriptor(parse_quiver(text)), horizon)


def test_linear_a2_m2():
    rep = replicated_dims_hereditary(profile_of("1->2"), 2)
    assert (rep.domdim, rep.gldim) == (3, 3)
    t = tnl_dims(6, 3)
    assert (t.domdim, t.gldim) == (3, 3)
    assert rep.higher_auslander and rep.minimal_ag


def test_kronecker_dims():
    p = hereditary_profile(hereditary_descriptor(kronecker_quiver()), 10)
    for m in range(1, 5):
        rep = replicated_dims_hereditary(p, m)
        assert (rep.domdim, rep.gldim) == (2 * m, 2 * m + 1)
        assert not rep.minimal_ag and not rep.higher_auslander


def test_serre_formal_variant_consistency():
    p = profile_of("1->2,2->3")
    for m in range(1, 6):
        hered = replicated_dims_hereditary(p, m)
        formal = replicated_dims_serre_formal(p, m)
        assert (hered.domdim, hered.idim) == (formal.domdim, formal.idim)
        assert formal.iwanaga_gorenstein


def test_self_injective_base():
    si = self_injective_profile(["x"], horizon=8)
    rep = replicated_dims_serre_formal(si, 1)
    assert (rep.domdim, rep.idim) == (1, 1)
    assert rep.minimal_ag
    for m in range(1, 7):
        rep = replicated_dims_serre_formal(si, m)
        assert rep.domdim == rep.idim == m


def test_per_projective_breakdown():
    p = profile_of("1->2")
    rep = replicated_dims_serre_formal(p, 2)
    # domdim [P_x]_i = m - i - s_x^-(m - i); idim uses m - i + 1
    assert rep.per_projective[1][0] == (3, 3)
    assert rep.per_projective[2][0] == (3, 3)
    assert rep.per_projective[1][2] == (0, 0)
    assert rep.domdim == min(v[0][0] for v in [rep.per_projective[x] for x in (1, 2)])


def test_horizon_guard():
    p = profile_of("1->2", horizon=3)
    with pytest.raises(HorizonTooSmall):
        replicated_dims_serre_formal(p, 3)
    with pytest.raises(InvalidParams):
        replicated_dims_serre_formal(p, 0)


def test_minimal_ag_members_match_schedule():
    for text in ["1->2", "1->2,2->3", "1->2,3->2", "1->2,2->3,3->4"]:
        p = profile_of(text, horizon=13)
        sched = minimal_ag_schedule(p)
        members = minimal_ag_members(p, 12)
        assert members == [m for m in range(1, 13) if sched.contains(m)], text
        for m in members:
            rep = replicated_dims_serre_formal(p, m)
            assert rep.minimal_ag
            assert rep.domdim == rep.idim == sched.dims_at(m)
            assert rep.schedule_t == (m + 1) // sched.h


def test_domdim_lower_bound_remark():
    # domdim A^(m) >= m + 1 for non-uniserial bases (m >= 1) and for all
    # bases once m >= 2
    for name in ["A3", "D4"]:
        for quiver in orientations(parse_graph(name)):
            desc = hereditary_descriptor(quiver)
            p = hereditary_profile(desc, 10)
            # uniserial means every vertex has in- and out-degree at most one
            outs = [s for s, _, _ in quiver.arrows]
            ins = [t for _, t, _ in quiver.arrows]
            uniserial = len(set(outs)) == len(outs) and len(set(ins)) == len(ins)
            for m in range(1, 5):
                rep = replicated_dims_serre_formal(p, m)
                if m >= 2 or not uniserial:
                    assert rep.domdim >= m + 1, (name, quiver, m)


def test_lem_gldim_sandwich_on_oracle_grid():
    for n in range(2, 5):
        base = compile_bound_quiver(linear_an_presentation(n))
        for m in range(1, 4):
            rep = homological_report(build_replicated(base, m))
            assert m + 1 <= rep.gldim <= (m + 1) * 1 + m


def test_d_hereditary_dims():
    # d-representation-infinite: r = 0 identically
    rt = {"x": [0] * 10}
    rep = d_hereditary_dims(2, rt, 1)
    assert (rep.idim, rep.domdim) == (5, 3)
    rep = d_hereditary_dims(2, rt, 2)
    assert (rep.idim, rep.domdim) == (8, 6)
    with pytest.raises(NotDHereditary):
        d_hereditary_dims(0, rt, 1)
    assert d_rf_schedule_dims(1, 3, 2, 1) == 3
    assert d_rf_schedule_dims(1, 3, 2, 2) == 7


def test_r_table_and_d1_consistency():
    # linear A_2 is 1-representation-finite: r-table counts injective hits
    # and the d = 1 formulas reproduce the hereditary ones
    p = profile_of("1->2", horizon=9)
    rt = r_table_from_profile(p, 1)
    # r_x^-(k) = k + s_x^-(k) for d = 1
    assert rt[1][:6] == [0, 1, 1, 2, 3, 3]
    assert rt[2][:6] == [0, 0, 1, 2, 2, 3]
    for m in range(1, 7):
        repd = d_hereditary_dims(1, rt, m)
        reph = replicated_dims_hereditary(p, m)
        assert (repd.idim, repd.domdim) == (reph.idim, reph.domdim), m
    # A_2 as 1-RF has (h, r) = (3, 2): schedule dims 4t - 1
    assert twisted_cy(p) == (3, 1)
    assert d_rf_schedule_dims(1, 3, 2, 1) == minimal_ag_schedule(p).dims_at(2)


def test_r_table_rejects_non_multiples():
    p = profile_of("1->2", horizon=6)
    with pytest.raises(NotDHereditary):
        r_table_from_profile(p, 2)


def test_indec_count():
    assert indec_count_rf(3, 1) == 9
    assert indec_count_rf(3, 1) == tnl_kupisch(4, 3).dimension()
    assert indec_count_rf(6, 2) == 30
    assert indec_count_rf(6, 2) == tnl_kupisch(9, 4).dimension()
    assert indec_count_rf(5, 0) == 5
    with pytest.raises(InvalidParams):
        indec_count_rf(0, 1)


def test_sgc_truncation_nakayama():
    base = compile_bound_quiver(tnl_presentation(4, 3))
    assert str(kupisch_of(sgc_truncation(base, 1))) == "[3,3,3,3,2,1]"
    assert str(kupisch_of(sgc_truncation(base, 2))) == "[3,3,3,3,3,3,2,1]"


def test_sgc_truncation_full_when_e_is_one():
    # a non-Nakayama hereditary base: Hom(DA, A) = 0, so the truncation is
    # the full replicated algebra
    base = compile_bound_quiver(QuiverPresentation(3, [("a", 1, 2), ("b", 3, 2)]))
    tr = sgc_truncation(base, 1)
    full = build_replicated(base, 1)
    assert tr.dim == full.dim
    assert homological_report(tr).gldim == homological_report(full).gldim


def test_sgc_truncation_self_injective_corner():
    dn = compile_bound_quiver(dual_numbers_presentation())
    tr = sgc_truncation(dn, 3)
    assert tr.dim == dn.dim
    assert homological_report(tr).domdim == homological_report(dn).domdim


def test_sgc_gate_failure():
    pres = QuiverPresentation(
        2,
        [("a", 1, 1), ("b", 1, 2)],
        relations=[((1, ("a", "a")),), ((1, ("a", "b")),)],
        max_path_length=4,
    )
    alg = compile_bound_quiver(pres)
    with pytest.raises(GateFailed):
        sgc_truncation(alg, 1)


def test_formulas_match_oracle_on_small_grid():
    # linear A_n bases, n <= 5, m <= 3: the two formula surfaces, the
    # Nakayama closed forms on T_{n(m+1), n+1}, and the oracle all agree
    for n in range(2, 6):
        desc = hereditary_descriptor(linear_quiver(parse_graph(f"A{n}")))
        p = hereditary_profile(desc, 6)
        base = compile_bound_quiver(linear_an_presentation(n))
        for m in range(1, 4):
            rep = replicated_dims_hereditary(p, m)
            formal = replicated_dims_serre_formal(p, m)
            orep = homological_report(build_replicated(base, m))
            t = tnl_dims(n * (m + 1), n + 1)
            assert (orep.domdim, orep.gldim) == (rep.domdim, rep.gldim), (n, m)
            assert (formal.domdim, formal.idim) == (rep.domdim, rep.gldim)
            assert (t.domdim, t.gldim) == (rep.domdim, rep.gldim)
