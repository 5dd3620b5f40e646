"""Acceptance suite: one test per criterion, exact tolerances, with the
stated runtime budgets asserted.  Each test prints a single pass line."""

import itertools
import math
import time

from algolab import nakayama as nk
from algolab.dynkin import (
    coxeter_data,
    hereditary_descriptor,
    kronecker_quiver,
    linear_quiver,
    orientations,
    parse_graph,
)
from algolab.gl import GLData, canonical_nu_formal_scan, is_torsion, omega
from algolab.oracle import (
    build_replicated,
    compile_bound_quiver,
    homological_report,
    kupisch_of,
    kupisch_presentation,
    linear_an_presentation,
    kronecker_presentation,
    projective_module,
    serre_formal_check,
    tits_positive_roots,
    tnl_presentation,
)
from algolab.oracle.homology import codomdim_of_dual_regular, module_dims, nu_inverse_derived
from algolab.oracle.modules import quotient_module
from algolab.replicated import (
    indec_count_rf,
    minimal_ag_members,
    replicated_dims_hereditary,
    replicated_dims_serre_formal,
    sgc_truncation,
)
from algolab.serre import hereditary_profile, minimal_ag_schedule, twisted_cy


def _report(number, text):
    print(f"[acceptance {number}] PASS: {text}")


def _serial_oracle_module(alg, n, i, s):
    """M_{i,s} = P_i / (paths of length >= s) as a concrete oracle module."""
    p, basis_at = projective_module(alg, i - 1)
    subv = [[] for _ in range(n)]
    for v in range(n):
        for pos, b in enumerate(basis_at[v]):
            label = alg.labels[b]
            length = 0 if label.startswith("e") else label.count("*") + 1
            if length >= s:
                vec = [0] * p.dims[v]
                vec[pos] = 1
                subv[v].append(vec)
    m, _ = quotient_module(p, subv)
    return m


def test_criterion_1_nakayama_closed_forms():
    t0 = time.monotonic()
    for n in range(2, 15):
        for l in range(2, n + 1):
            formula = nk.tnl_dims(n, l)
            alg = compile_bound_quiver(tnl_presentation(n, l))
            right = homological_report(alg)
            left = homological_report(alg.opposite())
            assert right.gldim == formula.gldim == left.gldim, (n, l)
            assert right.domdim == formula.domdim == left.domdim, (n, l)
            assert right.idim_right == right.idim_left == formula.gldim, (n, l)
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    _report(1, f"tnl_dims = oracle on 91 algebras, both sides, in {elapsed:.1f}s")


def test_criterion_2_recursion_fidelity():
    t0 = time.monotonic()
    checked = 0
    for n in range(2, 13):
        for l in range(2, min(6, n) + 1):
            ks = nk.tnl_kupisch(n, l)
            alg = compile_bound_quiver(tnl_presentation(n, l))
            for i in range(1, n + 1):
                for s in range(1, ks.c[i - 1] + 1):
                    d, g = nk.serial_dims(i, s, l)
                    m = _serial_oracle_module(alg, n, i, s)
                    dims = module_dims(alg, m)
                    assert (dims.domdim, dims.idim) == (d, g), (n, l, i, s)
                    if d is not math.inf:
                        assert g - d in (0, 1), (n, l, i, s)
                    checked += 1
    elapsed = time.monotonic() - t0
    _report(2, f"serial_dims = oracle on {checked} modules in {elapsed:.1f}s")


def test_criterion_3_replicated_dims_hereditary():
    t0 = time.monotonic()
    for n in range(2, 5):
        desc = hereditary_descriptor(linear_quiver(parse_graph(f"A{n}")))
        profile = hereditary_profile(desc, 6)
        base = compile_bound_quiver(linear_an_presentation(n))
        for m in range(1, 4):
            formula = replicated_dims_hereditary(profile, m)
            oracle = homological_report(build_replicated(base, m))
            assert (oracle.domdim, oracle.gldim) == (formula.domdim, formula.gldim)
            assert oracle.idim_right == formula.idim
    kron_desc = hereditary_descriptor(kronecker_quiver())
    kron_profile = hereditary_profile(kron_desc, 6)
    kron_base = compile_bound_quiver(kronecker_presentation())
    for m in range(1, 3):
        formula = replicated_dims_hereditary(kron_profile, m)
        oracle = homological_report(build_replicated(kron_base, m))
        assert (formula.domdim, formula.gldim) == (2 * m, 2 * m + 1)
        assert (oracle.domdim, oracle.gldim) == (2 * m, 2 * m + 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"criterion 3 took {elapsed:.1f}s"
    _report(3, f"replicated formulas = oracle on linear A_n and Kronecker grids in {elapsed:.1f}s")


def test_criterion_4_coxeter_identity():
    t0 = time.monotonic()
    graphs = [f"A{n}" for n in range(2, 7)] + [f"D{n}" for n in range(4, 7)] + ["E6"]
    count = 0
    for name in graphs:
        graph = parse_graph(name)
        h, nu = coxeter_data(graph)
        for quiver in orientations(graph):
            profile = hereditary_profile(hereditary_descriptor(quiver), h + 1)
            for i in profile.simples:
                assert profile.ell[i] is not None, (name, quiver, i)
                assert profile.ell[i] + profile.ell[nu[i]] == h, (name, quiver, i)
            count += 1
    for name in ["B3", "C3", "F4", "G2"]:
        graph = parse_graph(name)
        h, nu = coxeter_data(graph)
        profile = hereditary_profile(
            hereditary_descriptor(linear_quiver(graph)), h + 1
        )
        for i in profile.simples:
            assert profile.ell[i] + profile.ell[nu[i]] == h, (name, i)
        count += 1
    elapsed = time.monotonic() - t0
    _report(4, f"ell_i + ell_nu(i) = h on {count} orientations in {elapsed:.1f}s")


def test_criterion_5_higher_auslander_schedules():
    t0 = time.monotonic()
    for n in range(2, 5):
        desc = hereditary_descriptor(linear_quiver(parse_graph(f"A{n}")))
        profile = hereditary_profile(desc, 14)
        schedule = minimal_ag_schedule(profile)
        members = minimal_ag_members(profile, 12)
        for m in range(1, 13):
            t = nk.tnl_dims(n * (m + 1), n + 1)
            assert schedule.contains(m) == t.higher_auslander, (n, m)
            assert (m in members) == t.higher_auslander, (n, m)
            if schedule.contains(m):
                assert schedule.dims_at(m) == t.gldim == t.domdim, (n, m)
                rep = replicated_dims_serre_formal(profile, m)
                assert rep.domdim == rep.idim == t.gldim, (n, m)
    # the spelled-out instance: A_3 at m = 3 gives (5, 5) = T_{12,4}
    t = nk.tnl_dims(12, 4)
    assert (t.gldim, t.domdim) == (5, 5)
    elapsed = time.monotonic() - t0
    _report(5, f"schedules match T(n(m+1),n+1) for n <= 4, m <= 12 in {elapsed:.1f}s")


def test_criterion_6_serre_formality_classification():
    t0 = time.monotonic()
    count = 0
    for n in range(2, 8):
        for ks in nk.connected_kupisch_series(n):
            classification = nk.serre_formal_class_nakayama(ks)
            alg = compile_bound_quiver(kupisch_presentation(ks.c))
            verdict = serre_formal_check(alg, horizon=8)
            assert verdict.kind != "inconclusive", str(ks)
            assert (verdict.kind == "serre_formal") == classification.serre_formal, str(ks)
            # proper T-shapes are Serre-formal exactly for l = 2 or
            # l | n - 1; the hereditary boundary l = n is Serre-formal as
            # well (it is 1-representation-finite)
            if classification.case == "tnl" and classification.l < ks.n:
                expected = classification.l == 2 or (ks.n - 1) % classification.l == 0
                assert classification.serre_formal == expected, str(ks)
            count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"criterion 6 took {elapsed:.1f}s"
    _report(6, f"classification = oracle on {count} Kupisch series in {elapsed:.1f}s")


def test_criterion_7_non_example_regression():
    t0 = time.monotonic()
    from algolab.oracle import gorenstein_non_formal_presentation

    alg = compile_bound_quiver(gorenstein_non_formal_presentation())
    report = homological_report(alg)
    assert report.idim_right == 1 and report.idim_left == 1
    p2, _ = projective_module(alg, 1)
    cohs = nu_inverse_derived(alg, p2)
    assert sorted(degree for degree, _ in cohs) == [0, 1]
    verdict = serre_formal_check(alg, horizon=4)
    assert verdict.kind == "not_serre_formal"
    assert verdict.witness.simple == "e2"
    assert verdict.witness.power == 1
    assert verdict.witness.degrees == frozenset({0, 1})
    elapsed = time.monotonic() - t0
    _report(7, f"non-example flagged NotSerreFormal with degrees {{0,1}} in {elapsed:.1f}s")


def test_criterion_8_sgc_correspondence():
    t0 = time.monotonic()
    truncations = 0
    for n in range(2, 7):
        for l in range(1, 4):
            if n < l + 1:
                continue
            base = compile_bound_quiver(tnl_presentation(n, l + 1))
            for m in range(0, 3):
                truncated = sgc_truncation(base, m)
                expected = nk.sgc_kupisch(n, l + 1, m)
                assert str(kupisch_of(truncated)) == str(expected), (n, l, m)
                truncations += 1
    for n in range(2, 11):
        for l in range(2, n + 1):
            for m in range(0, 7):
                image = nk.sgc_kupisch(n, l, m)
                assert (
                    nk.sgc_higher_auslander(n, l, m)
                    == nk.tnl_dims(image.n, l).higher_auslander
                ), (n, l, m)
    elapsed = time.monotonic() - t0
    _report(8, f"{truncations} oracle truncations match T(n+ml,l+1) in {elapsed:.1f}s")


def test_criterion_9_tits_root_census():
    t0 = time.monotonic()
    a2 = compile_bound_quiver(linear_an_presentation(2))
    for m in range(0, 3):
        roots = tits_positive_roots(build_replicated(a2, m), entry_bound=2)
        assert len(roots) == indec_count_rf(3, m) == (2 * m + 1) * 3, m
    a3 = compile_bound_quiver(linear_an_presentation(3))
    for m in range(0, 2):
        roots = tits_positive_roots(build_replicated(a3, m), entry_bound=2)
        assert len(roots) == indec_count_rf(6, m) == (2 * m + 1) * 6, m
    elapsed = time.monotonic() - t0
    _report(9, f"Tits root counts equal (2m+1)r in {elapsed:.1f}s")


def test_criterion_10_geigle_lenzing():
    t0 = time.monotonic()
    assert is_torsion(GLData((2, 2, 2, 2), 1), omega(GLData((2, 2, 2, 2), 1))) is True
    assert is_torsion(GLData((2, 3, 7), 1), omega(GLData((2, 3, 7), 1))) is False
    assert is_torsion(GLData((2, 2, 2), 1), omega(GLData((2, 2, 2), 1))) is False
    scans = 0
    for n in range(1, 5):
        for weights in itertools.combinations_with_replacement(range(2, 6), n):
            for d in range(1, 4):
                report = canonical_nu_formal_scan(GLData(weights, d), 25)
                assert report.certified, (weights, d)
                scans += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"criterion 10 took {elapsed:.1f}s"
    _report(10, f"omega torsion verdicts and {scans} certified scans in {elapsed:.1f}s")


def test_criterion_11_dual_identities():
    t0 = time.monotonic()
    profiles = 0
    for name in ["A2", "A3", "A4", "D4"]:
        graph = parse_graph(name)
        for quiver in orientations(graph):
            p = hereditary_profile(
                hereditary_descriptor(quiver), graph.coxeter_number() + 1
            )
            assert p.check_dual_identities(), (name, quiver)
            for m in range(1, graph.coxeter_number()):
                rep = replicated_dims_serre_formal(p, m)  # asserts both
                # formulations internally
            profiles += 1
    kron = hereditary_profile(hereditary_descriptor(kronecker_quiver()), 8)
    assert kron.check_dual_identities()
    profiles += 1
    algebras = 0
    from algolab.oracle import gorenstein_non_formal_presentation

    cases = [tnl_presentation(n, l) for n, l in [(4, 2), (5, 3), (6, 3), (7, 4)]]
    cases.append(gorenstein_non_formal_presentation())
    for pres in cases:
        alg = compile_bound_quiver(pres)
        rep = homological_report(alg)
        assert codomdim_of_dual_regular(alg) == rep.domdim
        algebras += 1
    for m in range(1, 3):
        alg = build_replicated(compile_bound_quiver(linear_an_presentation(3)), m)
        rep = homological_report(alg)
        assert codomdim_of_dual_regular(alg) == rep.domdim
        algebras += 1
    elapsed = time.monotonic() - t0
    _report(
        11,
        f"dual identities on {profiles} profiles and domdim = codomdim DA on "
        f"{algebras} algebras in {elapsed:.1f}s",
    )
