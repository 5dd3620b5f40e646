import contextlib
import copy
import gc
import itertools
import json
import math
import random
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algolab.errors import (
    InternalMismatch,
    InvalidAlgebra,
    InvalidParams,
    NotSerreFormal,
    NotTriangular,
    ResolutionBoundExceeded,
)
from algolab.linalg import RowSolver, identity, mat_mul, rank, vec_mat, zeros
from algolab.nakayama import connected_kupisch_series, tnl_kupisch
from algolab.oracle import (
    AtLeast,
    QuiverPresentation,
    StructureConstantAlgebra,
    build_replicated,
    compile_bound_quiver,
    dual_numbers_presentation,
    gorenstein_non_formal_presentation,
    hom_space,
    hom_vanishing_gate,
    homological_report,
    injective_module,
    inverse_nakayama,
    kronecker_presentation,
    kupisch_of,
    kupisch_presentation,
    linear_an_presentation,
    nakayama_functor,
    nu_inverse_derived,
    parse_presentation,
    projective_module,
    serre_formal_check,
    simple_module,
    socle_data,
    tits_positive_roots,
    tnl_presentation,
)
from algolab.oracle.algebra import FULL_ASSOC_CHECK_DIM
from algolab.oracle.homology import (
    OrbitWitness,
    SerreVerdict,
    _max_dim,
    _min_dim,
    codomdim_of_dual_regular,
    ext_against_regular,
    identify_module,
    injective_coresolution,
    injective_projective_table,
    minimal_projective_resolution,
    module_dims,
    nu_inverse_complex,
    serre_orbit_profile,
    simple_resolution,
)
from algolab.oracle.modules import (
    ModuleComplex,
    ModuleMap,
    RightModule,
    _kernel_at,
    _kernel_coordinates,
    _projective_socles,
    _top_positions,
    da_module,
    dual_module,
    kernel_module,
    quotient_module,
    regular_module,
    sum_of_projectives,
    top_data,
)


def direct_sum(modules):
    """Direct sum with per-summand offsets: returns (module, offsets) where
    offsets[i][x] is the start of summand i inside vertex slice x.  The
    reference for the walks as they were and for ``sum_of_projectives``."""
    if not modules:
        raise InvalidParams("empty direct sum")
    alg = modules[0].alg
    nv = alg.nvert
    offsets = []
    dims = [0] * nv
    for m in modules:
        offsets.append(tuple(dims))
        for x in range(nv):
            dims[x] += m.dims[x]
    act = {}
    for m, off in zip(modules, offsets):
        for t, sub in m.act.items():
            u, v = alg.row_idem[t], alg.col_idem[t]
            for i, row in enumerate(sub):
                for j, x in enumerate(row):
                    if x:
                        if t not in act:
                            act[t] = zeros(dims[u], dims[v])
                        act[t][off[u] + i][off[v] + j] = x
    return RightModule(alg, tuple(dims), act), offsets


def test_compile_dimensions():
    assert compile_bound_quiver(linear_an_presentation(3)).dim == 6
    assert compile_bound_quiver(tnl_presentation(4, 3)).dim == 9
    assert compile_bound_quiver(gorenstein_non_formal_presentation()).dim == 7
    assert compile_bound_quiver(kronecker_presentation()).dim == 4
    assert compile_bound_quiver(dual_numbers_presentation()).dim == 2


def test_compile_infinite_dimensional():
    from algolab.errors import InfiniteDimensional

    pres = QuiverPresentation(1, [("x", 1, 1)])  # loop with no relations
    with pytest.raises(InfiniteDimensional):
        compile_bound_quiver(pres, degree_bound=12)


def test_compile_commutative_square():
    pres = parse_presentation(
        "vertices: 4; arrows: a:1->2; b:2->4; c:1->3; d:3->4; relations: a*b - c*d"
    )
    alg = compile_bound_quiver(pres)
    assert alg.dim == 9  # 4 vertices + 4 arrows + 1 length-2 class


def test_an_unknown_arrow_in_a_relation_is_named():
    # relations are split on ';', so a comma-separated list reads as one
    # relation with the arrow "c1, a1"
    text = "vertices: 3; arrows: a1:1->2; b1:1->2; c1:2->3; d1:2->3; relations: a1*d1 - b1*c1, a1*c1"
    with pytest.raises(InvalidParams, match="unknown arrow 'c1, a1'"):
        parse_presentation(text)


@pytest.mark.parametrize(
    "text, named",
    [
        ("relations: 2", "chunk '2'"),
        ("arrows: a:1->x", "chunk 'a:1->x'"),
        ("vertices: x", "chunk 'x'"),
        ("relations: len>=x", "chunk 'len>=x'"),
        ("arrows: a:1", "chunk 'a:1'"),
        ("arrows: a", "chunk 'a'"),
        ("", "no vertices"),
        # values that parse but are out of range
        ("vertices: -2", "vertex count -2"),
        ("vertices: 2; arrows: a:1->2; relations: len>=0", "max_path_length 0"),
        ("vertices: 2; arrows: a:1->2; relations: len>=-1", "max_path_length -1"),
        ("vertices: 3; arrows: a:1->5", "'a' 1->5"),
        ("vertices: 3; arrows: a:0->1", "'a' 0->1"),
    ],
)
def test_a_malformed_presentation_is_named(text, named):
    with pytest.raises(InvalidParams, match=re.escape(named)):
        parse_presentation(text)


def test_full_associativity_on_medium_algebra():
    alg = compile_bound_quiver(tnl_presentation(8, 4))
    alg.verify_structure(full=True)


def _trace_form_radical(alg):
    """The radical by the characteristic-zero trace-form criterion: the
    kernel of G with G[i][j] = trace(L_{b_i b_j})."""
    ltrace = [0] * alg.dim
    for t in range(alg.dim):
        for j, pairs in alg.mult[t].items():
            for k, c in pairs:
                if k == j:
                    ltrace[t] += c
    gram = [[0] * alg.dim for _ in range(alg.dim)]
    for i in range(alg.dim):
        for j, pairs in alg.mult[i].items():
            gram[i][j] = sum(c * ltrace[k] for k, c in pairs)
    return RowSolver(gram, alg.dim).kernel()


def test_radical_cross_assertion():
    # trace-form radical (char 0) spans exactly the non-idempotent classes
    for pres in [tnl_presentation(5, 3), gorenstein_non_formal_presentation(), kronecker_presentation()]:
        alg = compile_bound_quiver(pres)
        rad = _trace_form_radical(alg)
        assert len(rad) == len(alg.radical_indices)
        support = {i for v in rad for i, x in enumerate(v) if x}
        assert support <= set(alg.radical_indices)


def test_module_action_verification():
    alg = compile_bound_quiver(tnl_presentation(4, 3))
    p, _ = projective_module(alg, 1)
    assert p.verify()
    assert dual_module(p).verify()


def test_json_roundtrip():
    alg = compile_bound_quiver(tnl_presentation(4, 3))
    back = StructureConstantAlgebra.from_json(alg.to_json())
    assert back.dim == alg.dim
    assert back.mult == alg.mult
    assert back.idempotent_indices == alg.idempotent_indices


def test_an_integral_algebra_keeps_int_constants():
    # the relations of K tensor K are not monomial, so their reduction comes
    # off rref as Fractions; its constants, their JSON round trip and the
    # blocks of the first three nu^- steps of P_1 are ints all the same
    kk = compile_bound_quiver(kronecker_square_presentation())
    back = StructureConstantAlgebra.from_json(json.loads(json.dumps(kk.to_json())))
    for alg in (kk, back):
        constants = [c for row in alg.mult for pairs in row.values() for _, c in pairs]
        assert len(constants) == 36 and {type(c) for c in constants} == {int}
    module, entries = projective_module(kk, 0)[0], []
    for _ in range(3):
        ((_, module),) = nu_inverse_derived(kk, module)
        entries += [c for blk in module.act.values() for row in blk for c in row]
    assert len(entries) > 1000 and {type(c) for c in entries} == {int}


def test_presentation_parser():
    pres = parse_presentation(
        "vertices: 4; arrows: a1:1->2; b1:1->2; a2:2->3; b2:2->3; a3:3->4; b3:3->4; "
        "relations: a1*a2; b1*b2; a1*b2 - b1*a2; a2*a3; b2*b3; a2*b3 - b2*a3; len>=3"
    )
    alg = compile_bound_quiver(pres)
    assert alg.dim == 12  # the Kronecker replicated presentation at m = 1


def test_replicated_matches_presentation_for_kronecker():
    kr = compile_bound_quiver(kronecker_presentation())
    built = build_replicated(kr, 1)
    assert built.dim == 12
    pres = parse_presentation(
        "vertices: 4; arrows: a1:1->2; b1:1->2; a2:2->3; b2:2->3; a3:3->4; b3:3->4; "
        "relations: a1*a2; b1*b2; a1*b2 - b1*a2; a2*a3; b2*b3; a2*b3 - b2*a3; len>=3"
    )
    compiled = compile_bound_quiver(pres)
    rb, rc = homological_report(built), homological_report(compiled)
    assert (rb.gldim, rb.domdim, rb.idim_right) == (rc.gldim, rc.domdim, rc.idim_right)
    assert sorted(sorted(r) for r in built.cartan_dims()) == sorted(
        sorted(r) for r in compiled.cartan_dims()
    )


def test_replicated_dimension_and_kupisch():
    ka2 = compile_bound_quiver(linear_an_presentation(2))
    for m in range(0, 4):
        assert build_replicated(ka2, m).dim == (2 * m + 1) * 3
    assert str(kupisch_of(build_replicated(ka2, 2))) == "[3,3,3,3,2,1]"


def test_homological_report_values():
    t63 = compile_bound_quiver(tnl_presentation(6, 3))
    rep = homological_report(t63)
    assert rep.gldim == 3 and rep.domdim == 3
    assert rep.idim_right == rep.idim_left == 3
    assert rep.qf3 and rep.qf2
    kr1 = build_replicated(compile_bound_quiver(kronecker_presentation()), 1)
    rep = homological_report(kr1)
    assert rep.gldim == 3 and rep.domdim == 2
    assert not rep.qf2  # e_3 A^(1) has socle S_4 + S_4


def test_semisimple_and_disconnected():
    pres = QuiverPresentation(2, [])
    alg = compile_bound_quiver(pres)
    rep = homological_report(alg)
    assert rep.gldim == 0 and rep.domdim is math.inf
    assert not alg.is_connected()
    with pytest.raises(InvalidAlgebra):
        serre_formal_check(alg)


def test_nakayama_functor_defining_property():
    for pres in [tnl_presentation(4, 3), linear_an_presentation(3), gorenstein_non_formal_presentation()]:
        alg = compile_bound_quiver(pres)
        for x in range(alg.nvert):
            p, _ = projective_module(alg, x)
            tag = identify_module(alg, nakayama_functor(alg, p))
            assert tag.as_i == alg.vertex_labels[x]
            tag = identify_module(alg, inverse_nakayama(alg, injective_module(alg, x)))
            assert tag.as_p == alg.vertex_labels[x]


def test_inverse_nakayama_vanishing_on_t63():
    t63 = compile_bound_quiver(tnl_presentation(6, 3))
    # S_5 and S_6 have no injective cover component: Hom(DA, S) = 0
    assert inverse_nakayama(t63, simple_module(t63, 4)).is_zero()
    assert inverse_nakayama(t63, simple_module(t63, 5)).is_zero()
    # S_1 = I_1 there, so Hom(DA, S_1) = P_1
    tag = identify_module(t63, inverse_nakayama(t63, simple_module(t63, 0)))
    assert tag.as_p == "e1"


def _nakayama_algebras():
    """Every connected Kupisch series with n <= 4, the Kronecker algebra,
    the Gorenstein non-formal algebra and A2 replicated to m <= 2."""
    for n in range(2, 5):
        for ks in connected_kupisch_series(n):
            yield compile_bound_quiver(kupisch_presentation(ks.c))
    yield compile_bound_quiver(kronecker_presentation())
    yield compile_bound_quiver(gorenstein_non_formal_presentation())
    a2 = compile_bound_quiver(linear_an_presentation(2))
    for m in range(3):
        yield build_replicated(a2, m)


def test_nakayama_functors_have_the_dense_hom_dimensions():
    # nu^-M at y is Hom(I_y, M) and nu M at y is D Hom(M, P_y), so their
    # slices have the dimensions of the hom spaces the commutation
    # equations solve for, at every S_x, P_x and I_x on both sides
    modules = 0
    for alg in _nakayama_algebras():
        for side in (alg, alg.opposite()):
            vertices = range(side.nvert)
            injectives = [injective_module(side, y) for y in vertices]
            projectives = [projective_module(side, y)[0] for y in vertices]
            for m in [simple_module(side, x) for x in vertices] + projectives + injectives:
                minus = tuple(len(hom_space(i, m)) for i in injectives)
                plus = tuple(len(hom_space(m, p)) for p in projectives)
                assert inverse_nakayama(side, m).dims == minus, (side.vertex_labels, m.dims)
                assert nakayama_functor(side, m).dims == plus, (side.vertex_labels, m.dims)
                modules += 1
    assert modules == 270


def test_nakayama_functor_of_an_injective_of_the_gorenstein_non_formal_algebra():
    # Hom(I_2, P_y) passes through P_2, which is 0 at e1: composing maps
    # through a module that is 0 at a vertex must keep the block shapes
    alg = compile_bound_quiver(gorenstein_non_formal_presentation())
    i2 = injective_module(alg, 1)
    nu = nakayama_functor(alg, i2)
    assert nu.dims == tuple(len(hom_space(i2, projective_module(alg, y)[0])) for y in range(3))
    assert inverse_nakayama(alg.opposite(), projective_module(alg.opposite(), 1)[0]).dims == nu.dims
    assert nakayama_functor(alg, RightModule(alg, (0, 0, 0), {})).is_zero()


def test_composites_have_the_block_shapes_of_their_ends():
    alg = compile_bound_quiver(gorenstein_non_formal_presentation())
    modules = [projective_module(alg, x)[0] for x in range(3)]
    modules += [injective_module(alg, x) for x in range(3)]
    for m, n, l in itertools.product(modules, repeat=3):
        for f in hom_space(m, n):
            for g in hom_space(n, l):
                fg = f.compose(g)
                for x in range(alg.nvert):
                    blk = fg.block(x)
                    assert len(blk) == m.dims[x]
                    assert all(len(row) == l.dims[x] for row in blk)


def test_nu_inverse_derived_cases():
    # hereditary, non-injective indecomposable: single cohomology tau^-(M)
    # in degree 1 (the stalk sits one step to the right)
    ka3 = compile_bound_quiver(linear_an_presentation(3))
    p3, _ = projective_module(ka3, 2)  # S_3, non-injective
    cohs = nu_inverse_derived(ka3, p3)
    assert len(cohs) == 1 and cohs[0][0] == 1
    assert cohs[0][1].dims == (0, 1, 0)  # tau^-(S_3) = S_2
    # injective module: concentrated in degree 0
    i1 = injective_module(ka3, 0)
    cohs = nu_inverse_derived(ka3, i1)
    assert len(cohs) == 1 and cohs[0][0] == 0
    assert identify_module(ka3, cohs[0][1]).as_p == "e1"


def test_gorenstein_non_formal_regression():
    alg = compile_bound_quiver(gorenstein_non_formal_presentation())
    rep = homological_report(alg)
    assert rep.idim_right == 1 and rep.idim_left == 1  # 1-Iwanaga-Gorenstein
    p2, _ = projective_module(alg, 1)
    cohs = nu_inverse_derived(alg, p2)
    assert sorted(d for d, _ in cohs) == [0, 1]
    verdict = serre_formal_check(alg, horizon=4)
    assert verdict.kind == "not_serre_formal"
    assert verdict.witness.simple == "e2"
    assert verdict.witness.power == 1
    assert verdict.witness.degrees == frozenset({0, 1})


def test_serre_formal_check_tnl():
    t73 = compile_bound_quiver(tnl_presentation(7, 3))
    assert serre_formal_check(t73, horizon=8).kind == "serre_formal"
    t63 = compile_bound_quiver(tnl_presentation(6, 3))
    verdict = serre_formal_check(t63, horizon=8)
    assert verdict.kind == "not_serre_formal"


def test_serre_orbit_profile_raises_with_witness():
    alg = compile_bound_quiver(gorenstein_non_formal_presentation())
    with pytest.raises(NotSerreFormal) as excinfo:
        serre_orbit_profile(alg, 4)
    assert excinfo.value.degrees == frozenset({0, 1})


def test_tits_positive_roots():
    assert len(tits_positive_roots(compile_bound_quiver(linear_an_presentation(2)), 2)) == 3
    t43 = compile_bound_quiver(tnl_presentation(4, 3))
    assert len(tits_positive_roots(t43, 2)) == 9
    t64 = compile_bound_quiver(tnl_presentation(6, 4))  # A_3^(1)
    assert len(tits_positive_roots(t64, 2)) == 18
    with pytest.raises(NotTriangular):
        tits_positive_roots(compile_bound_quiver(dual_numbers_presentation()))


def test_hom_vanishing_gate():
    alt = compile_bound_quiver(QuiverPresentation(3, [("a", 1, 2), ("b", 3, 2)]))
    report = hom_vanishing_gate(alt)
    assert report.gate and sorted(report.e_vertices) == ["e1", "e2", "e3"]
    t43 = compile_bound_quiver(tnl_presentation(4, 3))
    report = hom_vanishing_gate(t43)
    assert report.gate and sorted(report.e_vertices) == ["e3", "e4"]
    dn = compile_bound_quiver(dual_numbers_presentation())
    report = hom_vanishing_gate(dn)
    assert report.gate and report.e_vertices == []  # self-injective: e = 0


def test_gate_failure_witness():
    # loop a at vertex 1 with b: 1 -> 2 and a^2 = ab = 0:
    # no projective is injective yet Hom(DA, A) is nonzero
    pres = QuiverPresentation(
        2,
        [("a", 1, 1), ("b", 1, 2)],
        relations=[((1, ("a", "a")),), ((1, ("a", "b")),)],
        max_path_length=4,
    )
    alg = compile_bound_quiver(pres)
    report = hom_vanishing_gate(alg)
    assert not report.gate
    assert report.witness is not None
    assert sorted(report.e_vertices) == ["e1", "e2"]


def _gate_algebras():
    """Every connected Kupisch series with n <= 6, T(n,l) with n <= 8, and
    A2-A4 and the Kronecker algebra replicated to m <= 2."""
    for n in range(2, 7):
        for ks in connected_kupisch_series(n):
            yield compile_bound_quiver(kupisch_presentation(ks.c))
    for n in range(2, 9):
        for l in range(2, n + 1):
            yield compile_bound_quiver(tnl_presentation(n, l))
    bases = [linear_an_presentation(n) for n in range(2, 5)] + [kronecker_presentation()]
    for pres in bases:
        base = compile_bound_quiver(pres)
        for m in range(3):
            yield build_replicated(base, m)


def test_gate_counts_are_the_dense_hom_spaces():
    # dim Hom(I_y, P_x) read off H^0(nu^- P_x), as the gate reads it, is the
    # dimension of the hom space that the commutation equations solve for,
    # at every x and y
    pairs = 0
    for alg in _gate_algebras():
        for side in (alg, alg.opposite()):
            for x in range(side.nvert):
                p, _ = projective_module(side, x)
                homs = nu_inverse_complex(side, injective_coresolution(side, p, 1)).cohomology_dims(0)
                dense = tuple(len(hom_space(injective_module(side, y), p)) for y in range(side.nvert))
                assert homs == dense, (side.vertex_labels, x)
                pairs += side.nvert
    assert pairs > 5000


def test_hom_space_dimensions():
    alg = compile_bound_quiver(tnl_presentation(4, 3))
    for x in range(4):
        for y in range(4):
            px, _ = projective_module(alg, x)
            py, _ = projective_module(alg, y)
            expected = len(alg.basis_by_pair.get((y, x), ()))
            assert len(hom_space(px, py)) == expected


def test_domdim_codomdim_duality():
    for pres in [tnl_presentation(6, 3), tnl_presentation(5, 2), gorenstein_non_formal_presentation()]:
        alg = compile_bound_quiver(pres)
        rep = homological_report(alg)
        assert codomdim_of_dual_regular(alg) == rep.domdim


def test_left_idim_equals_right_idim_when_finite():
    for n, l in [(4, 2), (5, 3), (6, 3), (7, 3)]:
        rep = homological_report(compile_bound_quiver(tnl_presentation(n, l)))
        assert rep.idim_left == rep.idim_right


def _left_mult_map(alg, w, src_x, dst_u):
    """The block family of left multiplication by w in e_u A e_x, given
    sparse as (basis index, coefficient) pairs, as a map
    P_x = e_x A -> P_u = e_u A; built from the structure constants, apart
    from ``_dual_complex``."""
    p_src, basis_src = projective_module(alg, src_x)
    p_dst, _ = projective_module(alg, dst_u)
    blocks = {}
    for v in range(alg.nvert):
        if not p_src.dims[v] or not p_dst.dims[v]:
            continue
        blk = [[0] * p_dst.dims[v] for _ in range(p_src.dims[v])]
        for i, b in enumerate(basis_src[v]):
            for t, c in w:
                for k, c2 in alg.product_of_basis(t, b):
                    blk[i][alg.pair_position[k]] += c * c2
        blocks[v] = blk
    return p_src, p_dst, blocks


def test_coresolution_complex_recovers_module():
    # applying the identity (no Nakayama twist) to the dual resolution:
    # the complex of projectives over the opposite algebra has cohomology
    # DM concentrated at the end
    from algolab.oracle.homology import injective_coresolution

    alg = compile_bound_quiver(tnl_presentation(4, 3))
    m, _ = projective_module(alg, 3)  # S_4
    cores = injective_coresolution(alg, m, 16)
    op = alg.opposite()
    cache = {}

    def proj_cache(x):
        if x not in cache:
            cache[x] = projective_module(op, x)
        return cache[x]

    modules = []
    offsets_list = []
    for term in cores.terms:
        mods = [proj_cache(x)[0] for x in term]
        mod, offs = direct_sum(mods)
        modules.append(mod)
        offsets_list.append(offs)
    # descending differentials Q_{j+1} -> Q_j; reverse into an ascending complex
    rev_modules = list(reversed(modules))
    rev_diffs = []
    nsteps = len(cores.syms)
    for j, sym in enumerate(cores.syms):
        src = modules[j + 1]
        dst = modules[j]
        blocks = {
            v: [[0] * dst.dims[v] for _ in range(src.dims[v])]
            for v in range(op.nvert)
            if src.dims[v] and dst.dims[v]
        }
        for r, row in enumerate(sym):
            u = cores.terms[j + 1][r]
            for s, w in enumerate(row):
                if w is None:
                    continue
                x = cores.terms[j][s]
                p_src, p_dst, lblocks = _left_mult_map(op, w, u, x)
                for v, blk in lblocks.items():
                    if v not in blocks:
                        continue
                    off_r = offsets_list[j + 1][r][v]
                    off_s = offsets_list[j][s][v]
                    for a in range(p_src.dims[v]):
                        for b in range(p_dst.dims[v]):
                            if blk[a][b]:
                                blocks[v][off_r + a][off_s + b] += blk[a][b]
        rev_diffs.append(ModuleMap(src, dst, blocks))
    maps = list(reversed(rev_diffs))
    cx = ModuleComplex(rev_modules, maps)
    cohs = cx.nonzero_cohomology()
    dm = dual_module(m)
    assert len(cohs) == 1
    assert cohs[0][0] == len(modules) - 1
    assert cohs[0][1].dims == dm.dims


def test_ext_against_regular():
    ka2 = compile_bound_quiver(linear_an_presentation(2))
    s1 = simple_module(ka2, 0)
    assert ext_against_regular(ka2, s1, 2) == [0, 1, 0]
    p1, _ = projective_module(ka2, 0)
    exts = ext_against_regular(ka2, p1, 2)
    assert exts[1] == 0 and exts[2] == 0
    assert exts[0] == 1  # Hom(P_1, A) = A e_1 is one-dimensional for kA_2


def test_ext_against_regular_refuses_a_walk_cut_before_its_last_map(rule_algebras):
    # Ext^i needs the map out of Hom(Q_i, A), so a cut walk decides Ext^i
    # only for i below its length; every other answer at a small bound must
    # be the answer at bound 64
    answered = refused = 0
    for alg in rule_algebras:
        for side in (alg, alg.opposite()):
            for x in range(side.nvert):
                p, _ = projective_module(side, x)
                for m in (simple_module(side, x), p, injective_module(side, x)):
                    for max_i in (2, 3):
                        full = ext_against_regular(side, m, max_i)
                        for bound in range(4):
                            try:
                                got = ext_against_regular(side, m, max_i, bound)
                            except ResolutionBoundExceeded:
                                refused += 1
                                continue
                            assert got == full, (side.vertex_labels, x, max_i, bound)
                            answered += 1
    assert answered > 0 and refused > 0
    t63 = compile_bound_quiver(tnl_presentation(6, 3))
    assert ext_against_regular(t63, simple_module(t63, 0), 2) == [0, 0, 0]
    with pytest.raises(ResolutionBoundExceeded):
        ext_against_regular(t63, simple_module(t63, 0), 2, 2)


def test_ext_against_regular_is_the_cohomology_of_the_dual_complex(rule_algebras):
    # Ext^i(M, A) by rank counts equals the dimension of H^i of
    # Hom(P_bullet, A) = nu^-_{A^op} of the resolution, built as kernels
    # and quotients
    for alg in rule_algebras:
        for side in (alg, alg.opposite()):
            for x in range(side.nvert):
                p, _ = projective_module(side, x)
                for m in (simple_module(side, x), p, injective_module(side, x)):
                    res = minimal_projective_resolution(side, m, 64)
                    cx = nu_inverse_complex(side.opposite(), res)
                    dims = [cx.cohomology(i).total_dim for i in range(len(res.terms))]
                    max_i = len(dims) + 1
                    expected = dims + [0] * (max_i + 1 - len(dims))
                    assert ext_against_regular(side, m, max_i) == expected, (side.vertex_labels, x)


def test_da_module_socle():
    alg = compile_bound_quiver(tnl_presentation(4, 3))
    da = da_module(alg)
    assert da.total_dim == alg.dim
    reg = regular_module(alg)
    assert sum(da.dims) == sum(reg.dims)


def test_bound_truncation_reports():
    from algolab.errors import ResolutionBoundExceeded

    t63 = compile_bound_quiver(tnl_presentation(6, 3))
    rep = homological_report(t63, bound=1)
    assert rep.gldim == AtLeast(2)
    s6 = simple_module(t63, 5)  # idim 3
    with pytest.raises(ResolutionBoundExceeded):
        nu_inverse_derived(t63, s6, bound=0)
    verdict = serre_formal_check(t63, horizon=4, bound=1)
    assert verdict.kind == "inconclusive"


def test_profile_bound_passthrough():
    from algolab.errors import ResolutionBoundExceeded

    t73 = compile_bound_quiver(tnl_presentation(7, 3))
    with pytest.raises(ResolutionBoundExceeded):
        serre_orbit_profile(t73, 4, bound=0)


# -- the injective side is D o (the projective side over A^op) o D -----------------


@pytest.fixture(scope="module")
def rule_algebras():
    """Every connected Kupisch series with n <= 5, A_3^(2) and the Kronecker
    algebra."""
    series = [(1,)] + [ks.c for n in range(2, 6) for ks in connected_kupisch_series(n)]
    algs = [compile_bound_quiver(kupisch_presentation(c)) for c in series]
    algs.append(build_replicated(compile_bound_quiver(linear_an_presentation(3)), 2))
    algs.append(compile_bound_quiver(kronecker_presentation()))
    return algs


def test_opposite_table_matches_top_side_identification(rule_algebras):
    # I_x is P_y exactly when the opposite table says so; identify_module
    # decides P_y from the top, the table from the socle over A^op
    for alg in rule_algebras:
        table = injective_projective_table(alg.opposite())
        for x in range(alg.nvert):
            as_p = identify_module(alg, injective_module(alg, x)).as_p
            expected = None if as_p is None else alg.vertex_labels.index(as_p)
            assert table[x] == expected, (alg.vertex_labels, x)


def test_truncated_reports_bound_the_full_report(rule_algebras):
    for alg in rule_algebras:
        full = vars(homological_report(alg))
        for bound in range(4):
            for key, value in vars(homological_report(alg, bound)).items():
                if isinstance(value, AtLeast):
                    assert full[key] >= value.n, (key, bound)
                else:
                    assert value == full[key], (key, bound)


_dim_value = st.one_of(st.integers(0, 6), st.builds(AtLeast, st.integers(0, 6)), st.just(math.inf))


@given(st.lists(_dim_value, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_at_least_min_and_max_are_the_tightest_values(values):
    # AtLeast(n) stands for [n, infinity), an exact k or infinity for itself;
    # the max of the values lies in [max lo, max hi], the min in [min lo,
    # min hi], and a value is exact only when its interval is one point
    los, his = zip(*[(v.n, math.inf) if isinstance(v, AtLeast) else (v, v) for v in values])
    for got, lo, hi in ((_max_dim(values), max(los), max(his)), (_min_dim(values), min(los), min(his))):
        assert got == (lo if lo == hi else AtLeast(lo)), (values, got)
        if got == math.inf:
            assert got is math.inf  # the value to_json writes as "infinity"
    assert all(v != v.n for v in values if isinstance(v, AtLeast))


def parent_serre_formal_check(alg, horizon, bound):
    """``serre_formal_check`` as it was when it decided Iwanaga-
    Gorensteinness by coresolving the regular module of each side whole,
    with the periodic rule the command line then applied to its verdict:
    "serre_formal" only when every orbit meets an injective in the horizon."""
    for side in (alg, alg.opposite()):
        reg = regular_module(side)
        if not injective_coresolution(side, reg, bound).complete:
            return SerreVerdict("inconclusive", reason=f"idim > {bound} on one side")
    try:
        profile = serre_orbit_profile(alg, horizon, bound)
    except NotSerreFormal as exc:
        return SerreVerdict(
            "not_serre_formal", witness=OrbitWitness(exc.simple, exc.power, exc.degrees)
        )
    except ResolutionBoundExceeded as exc:
        return SerreVerdict("inconclusive", reason=str(exc))
    if profile.periodic is not True:
        return SerreVerdict("inconclusive", profile=profile, reason=f"horizon {horizon}")
    return SerreVerdict("serre_formal", profile=profile)


def _cause(verdict):
    """What cut an inconclusive verdict short: the horizon or the bound."""
    return "horizon" if "horizon" in verdict.reason else "bound"


def test_serre_check_matches_the_regular_module_check(rule_algebras):
    kinds, changed = set(), []
    for alg in rule_algebras:
        for bound in (-1, 0, 1, 64):
            got = serre_formal_check(alg, horizon=4, bound=bound)
            expected = parent_serre_formal_check(alg, 4, bound)
            if bound < 0 and got.kind != expected.kind:
                changed.append((alg.vertex_labels, got.kind))
                continue
            assert (got.kind, got.profile, got.witness) == (
                expected.kind, expected.profile, expected.witness
            ), (alg.vertex_labels, bound)
            cause = _cause(got) if got.kind == "inconclusive" else ""
            assert cause == (_cause(expected) if cause else ""), (alg.vertex_labels, bound)
            kinds.add((got.kind, cause))
    # every kind is compared, the inconclusive ones cut by the bound and by
    # the horizon (the Kronecker algebra, and kA_5, which needs horizon 5)
    assert kinds == {
        ("serre_formal", ""), ("not_serre_formal", ""), ("inconclusive", "bound"),
        ("inconclusive", "horizon"),
    }
    # at bound -1 the reference coresolves even an injective P_x, the check
    # walks only those that are not: k, whose one P_x is injective, walks
    # nothing and is decided
    assert changed == [(("e1",), "serre_formal")]


def test_serre_check_walks_each_projective_once(monkeypatch):
    # each P_x that is not injective is coresolved once, by the first orbit
    # that steps from it, its own or one that reaches it through I_x: the
    # orbits share their walks, with no pass over the P_x before them
    from algolab.oracle import homology

    alg = compile_bound_quiver(tnl_presentation(7, 3))
    op, walked = alg.opposite(), []
    not_injective = sorted(
        (side is op, label)
        for side in (alg, op)
        for y, label in enumerate(side.vertex_labels)
        if identify_module(side, projective_module(side, y)[0]).as_i is None
    )
    coresolve = homology.injective_coresolution

    def spy(side, module, bound):
        walked.append((side is op, identify_module(side, module).as_p))
        return coresolve(side, module, bound)

    monkeypatch.setattr(homology, "injective_coresolution", spy)
    assert serre_formal_check(alg).kind == "serre_formal"
    assert sorted(w for w in walked if w[1] is not None) == not_injective
    assert not_injective == [(False, "e6"), (False, "e7"), (True, "e1"), (True, "e2")]


def test_serre_formal_needs_every_orbit_to_meet_an_injective():
    # a horizon that no orbit of these closes in proves nothing; kA_9
    # meets its injectives at power 9, past horizon 8, within the default
    for c, x in [((3, 3, 3, 2, 1), "e4"), ((2, 1), "e2")]:
        verdict = serre_formal_check(compile_bound_quiver(kupisch_presentation(c)), horizon=1)
        assert verdict.kind == "inconclusive" and verdict.profile is not None
        assert verdict.reason == f"P_{x} meets no injective within horizon 1"
    ka9 = compile_bound_quiver(kupisch_presentation(tuple(range(9, 0, -1))))
    verdict = serre_formal_check(ka9, horizon=8)
    assert (verdict.kind, verdict.profile.periodic) == ("inconclusive", "unknown")
    assert verdict.reason == "P_e9 meets no injective within horizon 8"
    verdict = serre_formal_check(ka9)
    assert (verdict.kind, verdict.profile.horizon) == ("serre_formal", 9)


def parent_serre_orbit_minus(alg, horizon, bound):
    """``serre_orbit_minus`` as it was, the orbit loop of the oracle before
    one loop served every profile: (shifts, tags, ell, sigma) and the first
    witness or bound reason, which end the walk."""
    shifts, tags, ell, sigma = {}, {}, {}, {}
    for x in range(alg.nvert):
        label = alg.vertex_labels[x]
        module, _ = projective_module(alg, x)
        s = [0]
        tg = [identify_module(alg, module)]
        for k in range(horizon):
            t = tg[-1]
            if t.is_injective:
                y = alg.vertex_labels.index(t.as_i)
                module, _ = projective_module(alg, y)
                s.append(s[-1])
            else:
                try:
                    cohs = nu_inverse_derived(alg, module, bound)
                except ResolutionBoundExceeded as exc:
                    return shifts, tags, ell, sigma, None, f"P_{label} power {k + 1}: {exc}"
                if len(cohs) != 1:
                    witness = OrbitWitness(label, k + 1, frozenset(d for d, _ in cohs))
                    return shifts, tags, ell, sigma, witness, None
                degree, module = cohs[0]
                s.append(s[-1] - degree)
            tg.append(identify_module(alg, module))
        shifts[label] = s
        tags[label] = tg
        ell[label] = None
        for k in range(1, horizon + 1):
            if tg[k - 1].is_injective:
                ell[label] = k
                sigma[label] = tg[k].as_p
                break
    return shifts, tags, ell, sigma, None, None


def parent_serre_orbit_profile(alg, horizon, bound):
    """``serre_orbit_profile`` as it was over ``parent_serre_orbit_minus``:
    ("profile", (s_minus, s_plus, minus_tags, ell, sigma, periodic)),
    ("witness", (simple, power, degrees)) or ("bound", message)."""
    shifts, tags, ell, sigma, witness, reason = parent_serre_orbit_minus(alg, horizon, bound)
    if witness:
        return "witness", (witness.simple, witness.power, witness.degrees)
    if reason:
        return "bound", reason
    plus = parent_serre_orbit_minus(alg.opposite(), horizon, bound)
    if plus[4]:
        w = plus[4]
        return "witness", (w.simple, -w.power, w.degrees)
    if plus[5]:
        return "bound", plus[5]
    simples = tuple(alg.vertex_labels)
    s_plus = {x: [-v for v in plus[0][x]] for x in simples}
    periodic = True if all(ell[x] is not None for x in simples) else "unknown"
    return "profile", (shifts, s_plus, tags, ell, sigma, periodic)


def _orbit_outcome(alg, horizon, bound):
    """What ``serre_orbit_profile`` gives, in the form of
    ``parent_serre_orbit_profile``."""
    try:
        p = serre_orbit_profile(alg, horizon, bound)
    except NotSerreFormal as exc:
        return "witness", (exc.simple, exc.power, exc.degrees)
    except ResolutionBoundExceeded as exc:
        return "bound", str(exc)
    return "profile", (p.s_minus, p.s_plus, p.minus_tags, p.ell, p.sigma, p.periodic)


def test_serre_orbit_profile_matches_the_parent_loop(rule_algebras):
    def items(outcome):
        kind, fields = outcome
        if kind != "profile":
            return outcome
        return kind, tuple(list(f.items()) if isinstance(f, dict) else f for f in fields)

    # the A side of Kupisch series [2,3,3,3,2,1] steps through power 1, and
    # its A^op side does not
    c6 = compile_bound_quiver(kupisch_presentation((2, 3, 3, 3, 2, 1)))
    cases = [(side, 4) for alg in rule_algebras for side in (alg, alg.opposite())]
    cases += [(side, h) for side in (c6, c6.opposite()) for h in (1, 4)]
    seen = set()
    for side, horizon in cases:
        for bound in (-1, 0, 1, 64):
            expected = parent_serre_orbit_profile(side, horizon, bound)
            got = _orbit_outcome(side, horizon, bound)
            assert items(got) == items(expected), (side.vertex_labels, horizon, bound)
            kind, fields = expected
            seen.add((kind, fields[1] < 0) if kind == "witness" else kind)
    # profiles, bound reasons and witnesses from both directions are compared
    assert seen == {"profile", "bound", ("witness", False), ("witness", True)}


# -- the per-algebra cache and the kernel step ---------------------------------------


def _fresh_rule_algebras():
    """A freshly compiled copy of the ``rule_algebras`` family, in its order."""
    series = [(1,)] + [ks.c for n in range(2, 6) for ks in connected_kupisch_series(n)]
    algs = [compile_bound_quiver(kupisch_presentation(c)) for c in series]
    algs.append(build_replicated(compile_bound_quiver(linear_an_presentation(3)), 2))
    algs.append(compile_bound_quiver(kronecker_presentation()))
    return algs


def test_cached_projectives_are_never_written():
    # every sum of projectives handed out shares the cached blocks, so after
    # the walks that use them most they must still equal those of an
    # untouched copy, P_x and every other cached term alike
    for alg, fresh in zip(_fresh_rule_algebras(), _fresh_rule_algebras()):
        homological_report(alg)
        serre_formal_check(alg, horizon=4)
        for side, fresh_side in ((alg, fresh), (alg.opposite(), fresh.opposite())):
            for x in range(side.nvert):
                p, basis_at = projective_module(side, x)
                q, fresh_basis_at = projective_module(fresh_side, x)
                assert (p.dims, p.act, basis_at) == (q.dims, q.act, fresh_basis_at)
            terms = [key[1] for key in side.cache if key[0] == "projectives"]
            assert terms
            for term in terms:
                m, q = sum_of_projectives(side, term), sum_of_projectives(fresh_side, term)
                assert (m.dims, m.act) == (q.dims, q.act), term


def reference_projective(alg, x):
    """P_x with its blocks built per basis element t of the algebra, as
    ``projective_module`` built them before the one layout of sums."""
    basis_at = [alg.basis_by_pair.get((x, v), ()) for v in range(alg.nvert)]
    dims = tuple(len(b) for b in basis_at)
    act = {}
    for t in range(alg.dim):
        u, v = alg.row_idem[t], alg.col_idem[t]
        if not dims[u] or not dims[v]:
            continue
        blk = zeros(dims[u], dims[v])
        nonzero = False
        for i, b in enumerate(basis_at[u]):
            for k, c in alg.product_of_basis(b, t):
                blk[i][alg.pair_position[k]] += c
                nonzero = True
        if nonzero:
            act[t] = blk
    return RightModule(alg, dims, act)


def test_sums_of_projectives_are_the_direct_sums_of_the_p_x(rule_algebras):
    # every term of length <= 3 on both sides; where a summand is nonzero,
    # _layout places it where direct_sum does
    from algolab.oracle.modules import _layout

    for alg in rule_algebras:
        for side in (alg, alg.opposite()):
            fresh = [reference_projective(side, x) for x in range(side.nvert)]
            for length in (1, 2, 3):
                for term in itertools.product(range(side.nvert), repeat=length):
                    expected, offsets = direct_sum([fresh[x] for x in term])
                    got = sum_of_projectives(side, term)
                    assert (got.dims, got.act) == (expected.dims, expected.act), term
                    for j, (starts, x) in enumerate(zip(_layout(side, term)[0], term)):
                        assert set(starts) == {v for v, d in enumerate(fresh[x].dims) if d}
                        assert all(offsets[j][v] == start for v, start in starts.items())


def test_nu_inverse_derived_builds_each_distinct_term_once(monkeypatch):
    # the terms of Hom(DA, I^bullet) come from the cache after their first
    # build, however often an orbit step asks for them
    import algolab.oracle.modules as modules_mod

    built = []
    layout = modules_mod._layout
    monkeypatch.setattr(
        modules_mod, "_layout", lambda alg, term: built.append((id(alg), term)) or layout(alg, term)
    )
    asked = set()
    algs = _fresh_rule_algebras()
    for alg in algs:
        for _ in range(2):
            for x in range(alg.nvert):
                p, _ = projective_module(alg, x)
                cores = injective_coresolution(alg, p, 64)
                if cores.complete:
                    nu_inverse_derived(alg, p)
                    asked.update((id(alg), term) for term in cores.terms)
    assert len(built) == len(set(built))
    assert asked <= set(built) and any(len(term) > 1 for _, term in asked)


def test_cohomology_ranks_each_differential_once(rule_algebras, monkeypatch):
    import algolab.oracle.modules as modules_mod

    ranked, total = [], 0
    monkeypatch.setattr(modules_mod, "rank", lambda blk: ranked.append(blk) or rank(blk))
    for cx in _rule_complexes(rule_algebras[-2:]):
        ranked.clear()
        cx.nonzero_cohomology()
        assert len(ranked) == sum(len(d.blocks) for d in cx.diffs)
        total += len(ranked)
    assert total


def test_a_one_dim_module_the_radical_moves_is_not_taken_for_simple():
    # over k[x]/x^2 a 1-dim module on which x acts as 1 is no module; its
    # walk must not be kept as the walk of S_1, while a simple module that
    # no caller names as simple is kept as one
    alg = compile_bound_quiver(dual_numbers_presentation())
    (loop,) = alg.arrow_basis()
    minimal_projective_resolution(alg, RightModule(alg, (1,), {loop: [[1]]}), 8)
    assert alg.cache["simple_walks"] == {}
    ka2 = compile_bound_quiver(linear_an_presentation(2))
    res = minimal_projective_resolution(ka2, simple_module(ka2, 0), 8)
    assert ka2.cache["simple_walks"][0] == (res.terms, res.syms)


def test_an_opposite_is_the_transpose_the_checking_constructor_builds(monkeypatch):
    # Kronecker, T(8,4), the non-formal Gorenstein algebra, A3-linear^(3)
    # and A3-linear^(5), the last above FULL_ASSOC_CHECK_DIM
    a3 = compile_bound_quiver(linear_an_presentation(3))
    presentations = (kronecker_presentation(), tnl_presentation(8, 4), gorenstein_non_formal_presentation())
    algs = [compile_bound_quiver(p) for p in presentations] + [build_replicated(a3, 3), build_replicated(a3, 5)]
    assert [alg.dim for alg in algs] == [4, 26, 7, 42, 66]
    checks = []
    verify = StructureConstantAlgebra.verify_structure
    monkeypatch.setattr(
        StructureConstantAlgebra, "verify_structure",
        lambda self, full=True: checks.append((self.dim, full)) or verify(self, full),
    )
    for alg in algs:
        checks.clear()
        op = alg.opposite()
        # no pass where the source had the full one, else 200 sampled triples
        assert checks == ([(alg.dim, False)] if alg.dim > FULL_ASSOC_CHECK_DIM else [])
        mult = [dict() for _ in range(alg.dim)]
        for i, products in enumerate(alg.mult):
            for j, pairs in products.items():
                mult[j][i] = pairs
        checked = StructureConstantAlgebra(alg.labels, mult, alg.idempotent_indices)
        fields = ("labels", "mult", "idempotent_indices", "vertex_labels", "row_idem", "col_idem",
                  "radical_indices", "basis_by_row", "basis_by_pair", "pair_position", "slices_by_row")
        for name in fields:
            assert getattr(op, name) == getattr(checked, name), (alg, name)
        assert op.opposite() is alg
        op.verify_structure(full=True)


def test_opposite_of_opposite_is_the_algebra():
    alg = compile_bound_quiver(tnl_presentation(4, 3))
    op = alg.opposite()
    assert op.opposite() is alg and alg.opposite() is op
    # an opposite whose source is gone rebuilds it, with the same tensor
    orphan = compile_bound_quiver(tnl_presentation(4, 3)).opposite()
    rebuilt = orphan.opposite()
    assert rebuilt.mult == alg.mult and rebuilt.opposite() is orphan


def test_algebra_is_freed_without_the_cyclic_collector():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        alg = build_replicated(compile_bound_quiver(linear_an_presentation(3)), 2)
        homological_report(alg)
        assert alg.cache["simple_walks"] and alg.opposite().cache["simple_walks"]
        refs = [weakref.ref(alg), weakref.ref(alg.opposite())]
        del alg
        assert [r() for r in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()


def parent_kernel(m, blocks):
    """The kernel step as it was before ``kernel_module``: the left
    nullspace of each block (the whole slice where there is none), then the
    submodule those vectors span, its action solved by a second
    elimination over them."""
    kernels = [
        RowSolver(blocks[x], len(blocks[x][0])).kernel() if x in blocks else identity(d)
        for x, d in enumerate(m.dims)
    ]
    solvers = [RowSolver(rows, d) if d else None for rows, d in zip(kernels, m.dims)]
    bases = [
        [rows[i] for i in s.independent] if s else [] for rows, s in zip(kernels, solvers)
    ]
    dims = tuple(len(b) for b in bases)
    act = {}
    for t, blk in m.act.items():
        u, v = m.alg.row_idem[t], m.alg.col_idem[t]
        if not dims[u] or not m.dims[v]:
            continue
        sub_blk = []
        for row in bases[u]:
            coeffs = solvers[v].coefficients(vec_mat(row, blk))
            if coeffs is None:
                raise InvalidParams("subspace is not action-closed")
            sub_blk.append([coeffs[i] for i in solvers[v].independent])
        if any(any(r) for r in sub_blk):
            act[t] = sub_blk
    sub = RightModule(m.alg, dims, act)
    return sub, ModuleMap(sub, m, {x: b for x, b in enumerate(bases) if b})


def test_kernel_step_matches_the_parent_route(rule_algebras):
    # the kernel of every differential of the complexes the derived inverse
    # Nakayama step reads, on both sides, and of the zero map out of the
    # last term
    checked = []
    for alg in rule_algebras:
        for side in (alg, alg.opposite()):
            for x in range(side.nvert):
                p, _ = projective_module(side, x)
                for m in (p, simple_module(side, x), injective_module(side, x)):
                    cx = nu_inverse_complex(side, injective_coresolution(side, m, 64))
                    for i, term in enumerate(cx.modules):
                        blocks = cx.diffs[i].blocks if i < len(cx.diffs) else {}
                        sub, incl = kernel_module(term, blocks)
                        ref, ref_incl = parent_kernel(term, blocks)
                        assert (sub.dims, sub.act) == (ref.dims, ref.act)
                        assert incl.blocks == ref_incl.blocks
                        checked.append(sub.total_dim)
    assert len(checked) > 1000 and any(checked)


def _rule_complexes(algs):
    """The complexes nu^- of the coresolutions of P_x, S_x and I_x and
    Hom(P_bullet, A) of their resolutions, on both sides of each algebra."""
    for alg in algs:
        for side in (alg, alg.opposite()):
            for x in range(side.nvert):
                p, _ = projective_module(side, x)
                for m in (p, simple_module(side, x), injective_module(side, x)):
                    yield nu_inverse_complex(side, injective_coresolution(side, m, 64))
                    yield nu_inverse_complex(side.opposite(), minimal_projective_resolution(side, m, 64))


def test_cohomology_dims_are_the_dims_of_the_cohomology(rule_algebras):
    degrees = nonzero = 0
    for cx in _rule_complexes(rule_algebras):
        for i in range(len(cx.modules)):
            dims = cx.cohomology_dims(i)
            assert dims == cx.cohomology(i).dims
            degrees += 1
            nonzero += any(dims)
    assert degrees > nonzero > 0


def test_cohomology_builds_a_kernel_only_in_its_nonzero_degrees(rule_algebras, monkeypatch):
    # a Serre-formal orbit step, one nonzero degree, builds one subquotient
    import algolab.oracle.modules as modules_mod

    calls = []
    built = modules_mod._subquotient

    def counted(m, blocks, images):
        calls.append(m)
        return built(m, blocks, images)

    monkeypatch.setattr(modules_mod, "_subquotient", counted)
    stalks = 0
    for cx in _rule_complexes(rule_algebras):
        calls.clear()
        cohs = cx.nonzero_cohomology()
        assert len(calls) == len(cohs)
        stalks += len(cohs) == 1
    assert stalks > 100
    ka3 = compile_bound_quiver(linear_an_presentation(3))
    calls.clear()
    assert [d for d, _ in nu_inverse_derived(ka3, projective_module(ka3, 2)[0])] == [1]
    assert len(calls) == 1


def parent_quotient(m, sub_vectors_per_vertex):
    """``quotient_module`` as it was before ``_subquotient``: on the unit
    vectors that complete the span, each action row and each unit vector
    solved over the span and those unit vectors by ``coefficients``."""
    solvers = [
        RowSolver(rows, d) if d else None for rows, d in zip(sub_vectors_per_vertex, m.dims)
    ]
    reps = [
        [i for i, e in enumerate(identity(d)) if s.add(e)] if s else []
        for s, d in zip(solvers, m.dims)
    ]
    dims = tuple(len(r) for r in reps)

    def project(x, vec):
        coeffs = solvers[x].coefficients(vec)
        start = len(sub_vectors_per_vertex[x])
        return [coeffs[start + i] for i in reps[x]]

    act = {}
    for t, blk in m.act.items():
        u, v = m.alg.row_idem[t], m.alg.col_idem[t]
        if not dims[u] or not dims[v]:
            continue
        q_blk = [project(v, blk[i]) for i in reps[u]]
        if any(any(r) for r in q_blk):
            act[t] = q_blk
    quot = RightModule(m.alg, dims, act)
    proj_blocks = {
        x: [project(x, e) for e in identity(m.dims[x])] for x in range(m.alg.nvert) if dims[x]
    }
    return quot, ModuleMap(m, quot, proj_blocks)


def parent_cohomology(cx, index):
    """``ModuleComplex.cohomology`` as it was before ``_subquotient``: the
    kernel module, its per-vertex data worked out again from its basis,
    the incoming images read in those coordinates, then ``parent_quotient``."""
    m = cx.modules[index]
    out = cx.diffs[index].blocks if index < len(cx.diffs) else {}
    ksub, incl = kernel_module(m, out)
    if ksub.is_zero() or index == 0:
        return ksub
    img_in_k = [[] for _ in m.dims]
    for x, d in enumerate(m.dims):
        basis = incl.block(x)
        free = [max(i for i, c in enumerate(k) if c) for k in basis]
        kernel = basis, free, [i for i in range(d) if i not in set(free)]
        for vec in cx.diffs[index - 1].block(x):
            if any(vec):
                img_in_k[x].append(_kernel_coordinates(vec, kernel))
    return parent_quotient(ksub, img_in_k)[0]


def _module_invariants(m):
    """Isomorphism invariants of a module: dims, its P_y / I_y tag, top
    and socle multiplicities and the terms of its minimal projective
    resolution."""
    alg = m.alg
    return (
        m.dims,
        identify_module(alg, m),
        top_data(m)[0],
        socle_data(m)[0],
        minimal_projective_resolution(alg, m, 64).terms,
    )


def kronecker_square_presentation():
    """K tensor K, K the Kronecker algebra: the vertex (i, j) is 2j + i - 2,
    a_j, b_j: (1, j) -> (2, j), c_i, d_i: (i, 1) -> (i, 2), and every
    square of an arrow of each factor commutes; dimension 16."""
    arrows = [(f"{a}{j}", 2 * j - 1, 2 * j) for j in (1, 2) for a in "ab"]
    arrows += [(f"{c}{i}", i, i + 2) for i in (1, 2) for c in "cd"]
    relations = [
        [(1, (f"{a}1", f"{c}2")), (-1, (f"{c}1", f"{a}2"))] for a in "ab" for c in "cd"
    ]
    return QuiverPresentation(4, arrows, relations)


def test_cohomology_matches_the_parent_route(rule_algebras):
    # the same H^i up to isomorphism, each a module, on every degree of the
    # rule complexes and on three orbit steps of P_1 over K tensor K
    compared = moved = 0
    for cx in _rule_complexes(rule_algebras):
        for i in range(len(cx.modules)):
            h = cx.cohomology(i)
            assert h.verify()
            assert _module_invariants(h) == _module_invariants(parent_cohomology(cx, i))
            compared += 1
            moved += i > 0 and h.total_dim > 0
    assert compared > 1000 and moved > 100
    kk = compile_bound_quiver(kronecker_square_presentation())
    assert (kk.dim, kk.nvert) == (16, 4)
    module = projective_module(kk, 0)[0]
    for _ in range(3):
        cx = nu_inverse_complex(kk, injective_coresolution(kk, module, 64))
        (degree,) = [i for i in range(len(cx.modules)) if any(cx.cohomology_dims(i))]
        module = cx.cohomology(degree)
        assert module.verify()
        assert _module_invariants(module) == _module_invariants(parent_cohomology(cx, degree))
    assert module.total_dim > 16


def test_quotient_projection_is_a_surjective_module_map(rule_algebras):
    # over the radical, the socle and a random line in the socle at each
    # vertex, which lies off the coordinate axes when the socle there is
    # not one of them
    rng = random.Random(11)
    checked = 0
    for alg in rule_algebras:
        for side in (alg, alg.opposite()):
            for m in _random_modules(side, rng):
                rad = [[] for _ in m.dims]
                for t in side.arrow_basis():
                    rad[side.col_idem[t]].extend(m.act.get(t, ()))
                soc = socle_data(m)[1]
                lines = [[vec_mat([rng.randint(1, 3) for _ in b], b)] if b else [] for b in soc]
                for sub in (rad, soc, lines):
                    quot, proj = quotient_module(m, sub)
                    assert quot.verify()
                    assert quot.dims == parent_quotient(m, sub)[0].dims
                    for x, rows in enumerate(sub):
                        assert rank(proj.block(x)) == quot.dims[x]
                        assert all(not any(vec_mat(r, proj.block(x))) for r in rows)
                    for t in range(side.dim):
                        u, v = side.row_idem[t], side.col_idem[t]
                        after = mat_mul(proj.block(u), quot.block(t), quot.dims[v])
                        assert mat_mul(m.block(t), proj.block(v), quot.dims[v]) == after
                    checked += 1
    assert checked > 100


def test_an_image_outside_the_kernel_raises_with_its_witness():
    # over k[x]/x^2, P -x-> P -x-> P is a complex; a d^0 changed to the
    # identity after the d o d = 0 check sends the top of P outside the
    # kernel of d^1, which cohomology names
    alg = compile_bound_quiver(dual_numbers_presentation())
    p, _ = projective_module(alg, 0)
    (arrow,) = alg.arrow_basis()
    times_x = ModuleMap(p, p, {0: p.block(arrow)})
    cx = ModuleComplex([p, p, p], [times_x, times_x])
    assert cx.cohomology_dims(1) == (0,)
    cx.diffs[0] = ModuleMap(p, p, {0: identity(2)})
    with pytest.raises(InternalMismatch) as info:
        cx.cohomology(1)
    x, vec = info.value.witness
    assert x == 0 and any(vec_mat(vec, p.block(arrow)))


def test_kernel_step_rejects_a_family_that_is_not_a_module_map():
    # P_1 over kA_2 onto S_2 at vertex 2 is not a module map: its kernel
    # holds the top of P_1 but not the arrow's image of it
    ka2 = compile_bound_quiver(linear_an_presentation(2))
    p1, _ = projective_module(ka2, 0)
    with pytest.raises(InvalidParams):
        parent_kernel(p1, {1: [[1]]})
    with pytest.raises(InvalidParams):
        kernel_module(p1, {1: [[1]]})


# -- the walk inside the cover, tops and socles from the arrow basis ---------------


def all_radical_top_data(m):
    """``top_data`` as it was before the arrow basis: M rad from the blocks
    of every radical basis element."""
    alg = m.alg
    rad = [[] for _ in range(alg.nvert)]
    for t, blk in m.act.items():
        if t != alg.idempotent_indices[alg.row_idem[t]]:
            rad[alg.col_idem[t]].extend(row for row in blk if any(row))
    gens = [[] for _ in rad]
    for x, d in enumerate(m.dims):
        if d:
            solver = RowSolver(rad[x], d)
            gens[x] = [e for e in identity(d) if solver.add(e)]
    return [len(g) for g in gens], gens


def all_radical_socle_data(m):
    """``socle_data`` as it was before the arrow basis: what the blocks of
    every radical basis element kill."""
    alg = m.alg
    blocks = [[] for _ in range(alg.nvert)]
    for t, blk in m.act.items():
        if t != alg.idempotent_indices[alg.row_idem[t]]:
            blocks[alg.row_idem[t]].append(blk)
    rows = [[sum((blk[i] for blk in blks), []) for i in range(d)] for blks, d in zip(blocks, m.dims)]
    basis = [RowSolver(r, len(r[0]) if r else 0).kernel() for r in rows]
    return [len(b) for b in basis], basis


def parent_walk(alg, module, bound):
    """The resolution walk as it was before it stayed inside the cover:
    every syzygy built as a module (its action through the kernel step),
    every cover built by ``direct_sum``, the top from every radical row and
    the entries dense coordinate vectors.  Returns (terms, syms, complete)."""
    terms, syms = [], []
    current, embed_chain, step = module, None, 0
    while True:
        if current.is_zero():
            return terms, syms, True
        if step > bound:
            return terms, syms, False
        _, gens = all_radical_top_data(current)
        gen_vectors = [(x, g) for x in range(alg.nvert) for g in gens[x]]
        cover_vertices = [x for x, _ in gen_vectors]
        terms.append(cover_vertices)
        if step > 0:
            sym = []
            for x, g in gen_vectors:
                blk = embed_chain.blocks.get(x)
                parent_vec = None if blk is None else vec_mat(g, blk)
                row = []
                for s, xs in enumerate(terms[step - 1]):
                    entry = None
                    if parent_vec is not None:
                        coords = [0] * alg.dim
                        start = prev_offsets[s][x]
                        for local, b in enumerate(prev_parts[s][x]):
                            if parent_vec[start + local]:
                                coords[b] = parent_vec[start + local]
                        entry = coords if any(coords) else None
                    row.append(entry)
                sym.append(row)
            syms.append(sym)
        summands = [projective_module(alg, x) for x in cover_vertices]
        cover, offsets = direct_sum([p for p, _ in summands])
        parts = [basis_at for _, basis_at in summands]
        blocks = {
            v: [[0] * current.dims[v] for _ in range(cover.dims[v])]
            for v in range(alg.nvert)
            if cover.dims[v] and current.dims[v]
        }
        for i, (x, g) in enumerate(gen_vectors):
            for v, dst in blocks.items():
                for local, b in enumerate(parts[i][v]):
                    blk = current.act.get(b)
                    if blk is not None:
                        dst[offsets[i][v] + local] = vec_mat(g, blk)
                    elif b == alg.idempotent_indices[x]:
                        dst[offsets[i][v] + local] = list(g)
        current, embed_chain = parent_kernel(cover, blocks)
        prev_offsets, prev_parts = offsets, parts
        step += 1


def _dense(alg, entry):
    if entry is None:
        return None
    coords = [0] * alg.dim
    for b, c in entry:
        coords[b] = c
    return coords


def test_walk_matches_the_parent_walk(rule_algebras, monkeypatch):
    import algolab.oracle.homology as homology_mod

    walk = homology_mod.minimal_projective_resolution
    checked = []

    def compared(alg, module, bound, **kw):
        res = walk(alg, module, bound, **kw)
        syms = [[[_dense(alg, w) for w in row] for row in sym] for sym in res.syms]
        assert ([list(t) for t in res.terms], syms, res.complete) == parent_walk(alg, module, bound)
        checked.append(len(res.terms))
        return res

    monkeypatch.setattr(homology_mod, "minimal_projective_resolution", compared)
    for alg in rule_algebras:
        for side in (alg, alg.opposite()):
            homological_report(side)
            homological_report(side, bound=1)
            for x in range(side.nvert):
                p, _ = projective_module(side, x)
                nu_inverse_derived(side, p)
                for m in (simple_module(side, x), p, injective_module(side, x)):
                    ext_against_regular(side, m, 3)
    assert len(checked) > 1000 and max(checked) > 3



def test_walk_checks_that_each_syzygy_is_a_submodule(monkeypatch):
    # kA_4 with the product a1 a2 dropped is not associative: (a1 a2) a3 = 0
    # but a1 (a2 a3) = a1a2a3.  The first syzygy of S_1 passes the kernel
    # step; the second is not closed under the action, and the walk must
    # find that inside the cover as the parent walk found it in the module
    import algolab.oracle.homology as homology_mod

    alg = compile_bound_quiver(linear_an_presentation(4))
    index = {label: t for t, label in enumerate(alg.labels)}
    del alg.mult[index["a1"]][index["a2"]]
    s1 = simple_module(alg, 0)
    with pytest.raises(InvalidParams):
        parent_walk(alg, s1, 8)
    next_syzygy = homology_mod._next_syzygy
    steps = []

    def counted(*args):
        try:
            result = next_syzygy(*args)
        except InvalidParams:
            steps.append("raised")
            raise
        steps.append("passed")
        return result

    monkeypatch.setattr(homology_mod, "_next_syzygy", counted)
    with pytest.raises(InvalidParams):
        homology_mod.minimal_projective_resolution(alg, s1, 8)
    assert steps == ["passed", "raised"]  # step 0 passed; a later syzygy failed


def test_walk_checks_the_action_of_the_resolved_module():
    # over kA_3, x . a1 = 0 but x . (a1 a2) != 0, so this action is not a
    # module: step 0 takes M.act as given and must still catch it
    alg = compile_bound_quiver(linear_an_presentation(3))
    index = {label: t for t, label in enumerate(alg.labels)}
    bad = RightModule(alg, (1, 1, 1), {index["a2"]: [[1]], index["a1*a2"]: [[1]]})
    with pytest.raises(InvalidParams):
        parent_walk(alg, bad, 8)
    with pytest.raises(InvalidParams):
        minimal_projective_resolution(alg, bad, 8)


def test_verify_catches_a_path_block_through_a_vertex_of_dim_0():
    # over kA_3 with M_2 = 0, a1 and a2 act by 0, so a1 a2 must act by 0 too
    alg = compile_bound_quiver(linear_an_presentation(3))
    index = {label: t for t, label in enumerate(alg.labels)}
    assert RightModule(alg, (1, 0, 1), {}).verify()
    bad = RightModule(alg, (1, 0, 1), {index["a1*a2"]: [[1]]})
    with pytest.raises(InvalidParams, match="violates the tensor"):
        bad.verify()


def test_compose_through_a_vertex_of_dim_0_has_the_targets_width():
    # M -> N -> L over kA_3 with N 0 at vertices 0 and 1: the composite
    # there is the zero block of L's width, with no guard in the caller
    alg = compile_bound_quiver(linear_an_presentation(3))
    m, n, big = (RightModule(alg, dims, {}) for dims in ((2, 2, 1), (0, 0, 1), (1, 3, 1)))
    f = ModuleMap(m, n, {2: [[2]]})
    g = ModuleMap(n, big, {2: [[3]]})
    h = f.compose(g)
    assert h.blocks == {2: [[6]]}
    assert h.block(1) == [[0, 0, 0], [0, 0, 0]] and h.block(0) == [[0], [0]]
    assert f.compose(ModuleMap(n, big, {})).is_zero()


def test_a_module_map_stores_only_its_nonzero_blocks():
    alg = compile_bound_quiver(linear_an_presentation(3))
    m = RightModule(alg, (2, 0, 1), {})
    zero = ModuleMap(m, m, {0: [[0, 0], [Fraction(0), 0]], 1: [], 2: [[0]]})
    assert zero.blocks == {} and zero.is_zero()
    assert zero.block(0) == [[0, 0], [0, 0]]
    one = ModuleMap(m, m, {0: [[0, 0], [0, 1]], 2: [[0]]})
    assert one.blocks == {0: [[0, 0], [0, 1]]} and not one.is_zero()


def _random_modules(alg, rng):
    """Projectives, injectives, simples, DA, and the kernels and cokernels
    of random maps from a projective to those."""
    base = [da_module(alg)]
    for x in range(alg.nvert):
        base += [projective_module(alg, x)[0], injective_module(alg, x), simple_module(alg, x)]
    out = list(base)
    for _ in range(6):
        src = projective_module(alg, rng.randrange(alg.nvert))[0]
        dst = rng.choice(base)
        maps = hom_space(src, dst)
        if not maps:
            continue
        coeffs = [rng.randint(-2, 2) for _ in maps]
        blocks = {}
        for x in range(alg.nvert):
            if src.dims[x] and dst.dims[x]:
                blk = [[0] * dst.dims[x] for _ in range(src.dims[x])]
                for f, c in zip(maps, coeffs):
                    for i, row in enumerate(f.block(x)):
                        for j, e in enumerate(row):
                            blk[i][j] += c * e
                blocks[x] = blk
        out.append(kernel_module(src, blocks)[0])
        image = [[row for row in blocks.get(x, []) if any(row)] for x in range(alg.nvert)]
        out.append(quotient_module(dst, image)[0])
    return out


def test_top_and_socle_match_the_all_radical_versions(rule_algebras):
    import random

    rng = random.Random(5)
    kupisch = []
    for _ in range(12):
        c = [1]
        for _ in range(rng.randint(1, 6)):
            c.insert(0, rng.randint(2, c[0] + 1))
        kupisch.append(compile_bound_quiver(kupisch_presentation(c)))
    for alg in rule_algebras + kupisch:
        for side in (alg, alg.opposite()):
            for m in _random_modules(side, rng):
                assert top_data(m) == all_radical_top_data(m)
                assert socle_data(m) == all_radical_socle_data(m)


def full_triple_check(alg):
    """``verify_structure(full=True)`` as it was: associativity on every
    basis triple whose first two factors are composable."""
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                if alg.col_idem[i] != alg.row_idem[j]:
                    continue
                left = alg._assoc_side(alg.mult[i].get(j, ()), k, right=True)
                right = alg._assoc_side(alg.mult[j].get(k, ()), i, right=False)
                if left != right:
                    raise InvalidAlgebra("associativity fails")


def _path_table(edit):
    """The structure constants of the path algebra of 1 -> 2 -> 3 -> 4
    (arrows a1, a2, a3), with ``edit`` applied to the products."""
    alg = compile_bound_quiver(linear_an_presentation(4))
    mult = [dict(row) for row in alg.mult]
    edit(mult, {label: t for t, label in enumerate(alg.labels)})
    return alg.labels, mult, alg.idempotent_indices


def test_verify_structure_matches_the_full_triple_check(rule_algebras):
    for alg in rule_algebras:
        for side in (alg, alg.opposite()):
            side.verify_structure(full=True)
            full_triple_check(side)

    def not_associative(mult, index):
        # (a1 a2) a3 = 2 a1a2a3, but a1 (a2 a3) = a1a2a3
        mult[index["a1*a2"]][index["a3"]] = ((index["a1*a2*a3"], 2),)

    def not_graded(mult, index):
        # a product of two arrows that do not compose
        mult[index["a1"]][index["a3"]] = ((index["a1*a2"], 1),)

    def off_its_pair(mult, index):
        # a1 a2 lands in e1 A e2 instead of e1 A e3
        mult[index["a1"]][index["a2"]] = ((index["a1"], 1),)

    for edit in (not_associative, not_graded, off_its_pair):
        with pytest.raises(InvalidAlgebra):
            StructureConstantAlgebra(*_path_table(edit))
        # the same table edited after a construction that checked nothing
        alg = compile_bound_quiver(linear_an_presentation(4))
        edit(alg.mult, {label: t for t, label in enumerate(alg.labels)})
        with pytest.raises(InvalidAlgebra):
            full_triple_check(alg)
        with pytest.raises(InvalidAlgebra):
            alg.verify_structure(full=True)


# -- what the table already knows, and one-wide blocks -------------------------------


def parent_report(alg, bound):
    """``homological_report`` as it was before it read the projective-
    injectives off the table: every P_x coresolved on both sides and qf2
    from the socles again.  Its walks are read against tables of its own,
    from ``identify_module``, so no table of the report is reused."""

    def table(side):
        tags = [identify_module(side, projective_module(side, x)[0]) for x in range(side.nvert)]
        return [None if t.as_i is None else side.vertex_labels.index(t.as_i) for t in tags]

    def walk_dims(res):
        truncated = f">{res.length}"
        ip = table(res.algebra)
        first = next(
            (j for j, term in enumerate(res.terms) if any(ip[x] is None for x in term)),
            math.inf if res.complete else truncated,
        )
        return (res.length if res.complete else truncated), first

    def lower(value):
        return (int(value[1:]) + 1, 1) if isinstance(value, str) else (value, 0)

    op = alg.opposite()
    right = [
        walk_dims(minimal_projective_resolution(op, dual_module(projective_module(alg, x)[0]), bound))
        for x in range(alg.nvert)
    ]
    domdim = min([d for _, d in right], key=lower, default=0)
    left = [
        walk_dims(minimal_projective_resolution(alg, dual_module(projective_module(op, x)[0]), bound))
        for x in range(op.nvert)
    ]
    pdims = [
        walk_dims(minimal_projective_resolution(alg, simple_module(alg, x), bound))
        for x in range(alg.nvert)
    ]
    ip = table(alg)
    report = {
        "gldim": max([p for p, _ in pdims], key=lower, default=0),
        "idim_right": max([i for i, _ in right], key=lower, default=0),
        "idim_left": max([i for i, _ in left], key=lower, default=0),
        "domdim": domdim,
        "qf2": all(sum(socle_data(projective_module(alg, x)[0])[0]) == 1 for x in range(alg.nvert)),
        "qf3": lower(domdim)[0] >= 1,
        "projective_injectives": [
            alg.vertex_labels[x] for x in range(alg.nvert) if ip[x] is not None
        ],
    }
    return {k: "infinity" if v is math.inf else v for k, v in report.items()}


def _self_injective_nakayama():
    """The cyclic quiver 1 -> 2 -> 3 -> 1 with every path of length 3 killed:
    Kupisch series (3, 3, 3), every P_x projective-injective."""
    arrows = [("a1", 1, 2), ("a2", 2, 3), ("a3", 3, 1)]
    return compile_bound_quiver(QuiverPresentation(3, arrows, max_path_length=3))


def _replicated_d4(m):
    from algolab.dynkin import orientations, parse_graph
    from algolab.oracle import quiver_presentation_from_dynkin

    quiver = next(iter(orientations(parse_graph("D4"))))
    return build_replicated(compile_bound_quiver(quiver_presentation_from_dynkin(quiver)), m)


def test_report_matches_the_all_walks_report():
    selfinj = _self_injective_nakayama()
    assert injective_projective_table(selfinj) == {0: 2, 1: 0, 2: 1}
    # fresh copies: the report makes the tables, one side inverting the other
    for alg in _fresh_rule_algebras() + [_replicated_d4(3), selfinj]:
        for side in (alg, alg.opposite()):
            for bound in (-1, 0, 1, 64):
                expected = parent_report(side, bound)
                assert homological_report(side, bound).to_json() == expected, (side, bound)


_entry = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


def _solver_kernel_at(d, rows):
    solver = RowSolver(rows, len(rows[0]))
    indep = set(solver.independent)
    return solver.kernel(), [i for i in range(d) if i not in indep], solver.independent


@given(st.lists(_entry, min_size=1, max_size=5), st.booleans())
@settings(max_examples=150, deadline=None)
def test_one_row_kernel_matches_the_solver(row, zero):
    rows = [[0 * x for x in row] if zero else row]
    assert _kernel_at(1, rows) == _solver_kernel_at(1, rows)


@given(st.lists(st.one_of(st.just(0), _entry), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_one_column_kernel_matches_the_solver(column):
    # the same basis, dependent rows and pivot rows, each entry of the same
    # type: an int stays an int, a quotient by the pivot is a Fraction
    rows = [[x] for x in column]

    def typed(kernel):
        basis, free, pivots = kernel
        return [[(type(x), x) for x in k] for k in basis], free, pivots

    assert typed(_kernel_at(len(rows), rows)) == typed(_solver_kernel_at(len(rows), rows))


@given(
    st.lists(st.lists(_entry, min_size=1, max_size=1), min_size=1, max_size=4),
    st.lists(st.lists(_entry, min_size=1, max_size=1), max_size=4),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_width_one_top_matches_the_solver(rad, candidates, zero_rad):
    if zero_rad:
        rad = [[0 * row[0]] for row in rad]
    solver = RowSolver(rad, 1)
    expected = [i for i, g in enumerate(candidates) if solver.add(g)]
    assert list(_top_positions(rad, candidates)) == expected


def test_inverted_table_matches_the_socle_table(monkeypatch):
    import algolab.oracle.modules as modules_mod

    socles = []
    socle = modules_mod._projective_socle

    def counted(alg, x, arrows_at):
        socles.append(alg)
        return socle(alg, x, arrows_at)

    monkeypatch.setattr(modules_mod, "_projective_socle", counted)
    for asks_first in (0, 1):
        for alg, copy in zip(_fresh_rule_algebras(), _fresh_rule_algebras()):
            first, second = (alg, alg.opposite())[asks_first], (alg.opposite(), alg)[asks_first]
            socles.clear()
            injective_projective_table(first)
            assert set(socles) == {first}
            # the side that asks second inverts the first side's table
            inverted = injective_projective_table(second)
            assert set(socles) == {first}
            # the same side of an untouched copy, whose other side holds no
            # table, reads its own socles
            fresh = (copy.opposite(), copy)[asks_first]
            assert inverted == injective_projective_table(fresh)
            assert fresh in socles


def test_no_opposite_is_built_for_the_table():
    alg = compile_bound_quiver(tnl_presentation(4, 3))
    injective_projective_table(alg)
    assert alg.built_opposite() is None


def test_report_walks_only_what_the_table_does_not_know(monkeypatch):
    import algolab.oracle.homology as homology_mod
    import algolab.oracle.modules as modules_mod

    alg = build_replicated(compile_bound_quiver(linear_an_presentation(3)), 2)
    socles, walks, simples, resumed = [], [], {}, []
    socle = modules_mod._projective_socle
    walk = homology_mod.minimal_projective_resolution
    simple = homology_mod.simple_module

    def counted_socle(side, x, arrows_at):
        socles.append(side)
        return socle(side, x, arrows_at)

    def counted_walk(side, module, bound, **kw):
        walks.append(simples[id(module)][0] if id(module) in simples else side)
        resumed.append(kw.get("_resume") is not None)
        return walk(side, module, bound, **kw)

    def tagged_simple(side, x):
        module = simple(side, x)
        simples[id(module)] = (("simple", x), module)  # kept alive: ids stay unique
        return module

    monkeypatch.setattr(modules_mod, "_projective_socle", counted_socle)
    monkeypatch.setattr(homology_mod, "minimal_projective_resolution", counted_walk)
    monkeypatch.setattr(homology_mod, "simple_module", tagged_simple)
    rep = homological_report(alg)
    ip = injective_projective_table(alg)
    ip_op = injective_projective_table(alg.opposite())
    assert socles == [alg] * alg.nvert  # one side's P_x, once each
    not_injective = sum(y is None for y in ip.values())
    not_projective = sum(y is None for y in ip_op.values())
    assert (not_injective, not_projective, alg.nvert) == (3, 3, 9)
    # coresolutions of P_x over A^op and of P^op_x over A, then the simples
    # that no earlier walk passed through and that are not projective
    simple_walks = [w for w in walks if isinstance(w, tuple)]
    assert walks[:6] == [alg.opposite()] * not_injective + [alg] * not_projective
    projective = [x for x in range(alg.nvert) if sum(alg.cartan_dims()[x]) == 1]
    assert len(simple_walks) == len(set(simple_walks)) == len(walks) - 6 > 0
    assert not {("simple", x) for x in projective} & set(simple_walks)
    # of them one resumes a layer up: S_{e3@2} from the walk of S_{e3@1},
    # whose kept state is the only one the report leaves
    assert [w for w, r in zip(walks, resumed) if r] == [("simple", alg.vertex_labels.index("e3@2"))]
    assert list(alg.cache["walk_states"]) == [alg.vertex_labels.index("e3@2")]
    assert len(rep.projective_injectives) == 6
    # a second report walks no simple again
    homological_report(alg)
    assert [w for w in walks if isinstance(w, tuple)] == simple_walks
    # the opposite's table was inverted, so its qf2 takes its own socle pass
    socles.clear()
    homological_report(alg.opposite())
    assert socles == [alg.opposite()] * alg.nvert


def _idempotent_in_another_row(mult, index):
    mult[index["e1"]][index["e2"]] = ((index["e2"], 1),)
    del mult[index["e2"]][index["e2"]]


def test_grading_faults_still_raise():
    # edits of the path algebra of 1 -> 2 -> 3 -> 4; the last three make
    # e1 e2 an idempotent, and the grading checks refuse each of them, so an
    # idempotent is never graded into another row or column
    cases = [
        ("not left-graded", lambda m, i: m[i["e1"]].update({i["a1"]: ((i["a1"], 2),)})),
        ("not right-graded", lambda m, i: m[i["a1"]].update({i["e2"]: ((i["a1"], 2),)})),
        # a1 = e1 a1 = e2 a1
        ("not orthogonal", lambda m, i: m[i["e2"]].update({i["a1"]: ((i["a1"], 1),)})),
        # a1 = a1 e2 = a1 e3
        ("not orthogonal", lambda m, i: m[i["a1"]].update({i["e3"]: ((i["a1"], 1),)})),
        ("not graded by the idempotents", lambda m, i: m[i["e1"]].pop(i["a1"])),
        ("not graded by the idempotents", lambda m, i: m[i["a1"]].pop(i["e2"])),
        ("does not span an ideal", lambda m, i: m[i["a1"]].update({i["a2"]: ((i["e1"], 1),)})),
        # e1 e2 = e2: e2 = e1 e2 = e2 e2
        ("not orthogonal", lambda m, i: m[i["e1"]].update({i["e2"]: ((i["e2"], 1),)})),
        # e1 e2 = e1: e2 does not keep itself under e1
        ("basis element e2 is not left-graded", lambda m, i: m[i["e1"]].update({i["e2"]: ((i["e1"], 1),)})),
        # e1 e2 = e2 with e2 e2 = 0, so e2 sits in row 1 only: e1 e2 != e1
        ("basis element e1 is not right-graded", _idempotent_in_another_row),
    ]
    for message, edit in cases:
        with pytest.raises(InvalidAlgebra, match=message):
            StructureConstantAlgebra(*_path_table(edit))


# -- walks shared through the cache, socles off the products -------------------------


def _rad_square_zero_cycle():
    """The cyclic quiver 1 -> 2 -> 3 -> 1 with every path of length 2 killed:
    the walks of its simples are periodic, so they are cut at every bound
    and never kept."""
    arrows = [("a1", 1, 2), ("a2", 2, 3), ("a3", 3, 1)]
    return compile_bound_quiver(QuiverPresentation(3, arrows, max_path_length=2))


def _cache_algebras():
    """Fresh copies of the ``rule_algebras`` family, D4^(3), Kronecker^(3)
    and the radical-square-zero cycle."""
    kronecker = build_replicated(compile_bound_quiver(kronecker_presentation()), 3)
    return _fresh_rule_algebras() + [_replicated_d4(3), kronecker, _rad_square_zero_cycle()]


def _walk_everything(alg, bound):
    """The walks of the reports on both sides, of the Serre check, of nu^- on
    each P_x and of Ext against A for each S_x, P_x and I_x."""
    serre_formal_check(alg, horizon=2, bound=bound)
    for side in (alg, alg.opposite()):
        homological_report(side, bound)
        for x in range(side.nvert):
            p, _ = projective_module(side, x)
            with contextlib.suppress(ResolutionBoundExceeded):
                nu_inverse_derived(side, p, bound)
            for m in (simple_module(side, x), p, injective_module(side, x)):
                with contextlib.suppress(ResolutionBoundExceeded):
                    ext_against_regular(side, m, 3, bound)


def test_walks_through_a_warm_cache_match_the_parent_walk(monkeypatch):
    import algolab.oracle.homology as homology_mod

    algs = _cache_algebras()
    for alg in algs:
        _walk_everything(alg, 64)
    assert sum(len(side.cache["simple_walks"]) for alg in algs for side in (alg, alg.opposite())) > 200
    walk, simple_walk = homology_mod.minimal_projective_resolution, homology_mod.simple_resolution
    next_syzygy = homology_mod._next_syzygy
    counts = {"walk": 0, "simple_resolution": 0, "steps": 0, "cut": 0}

    def compared(res, alg, module, bound, via="walk"):
        syms = [[[_dense(alg, w) for w in row] for row in sym] for sym in res.syms]
        assert ([list(t) for t in res.terms], syms, res.complete) == parent_walk(alg, module, bound)
        counts[via] += len(res.terms)
        counts["cut"] += not res.complete
        return res

    def counted(*args):
        counts["steps"] += 1
        return next_syzygy(*args)

    monkeypatch.setattr(homology_mod, "_next_syzygy", counted)
    monkeypatch.setattr(
        homology_mod, "minimal_projective_resolution",
        lambda alg, module, bound, **kw: compared(walk(alg, module, bound, **kw), alg, module, bound),
    )
    monkeypatch.setattr(
        homology_mod, "simple_resolution",
        lambda alg, x, bound: compared(
            simple_walk(alg, x, bound), alg, simple_module(alg, x), bound, "simple_resolution"
        ),
    )
    for alg in algs:
        for bound in (-1, 0, 1, 64):
            _walk_everything(alg, bound)
    # fewer steps made than terms returned: the rest came from the cache;
    # and the small bounds cut many walks
    assert counts["steps"] < counts["walk"] and counts["cut"] > 1000


def test_cached_walks_are_never_written():
    for alg in _cache_algebras():
        _walk_everything(alg, 64)
        sides = (alg, alg.opposite())
        kept = [copy.deepcopy(side.cache["simple_walks"]) for side in sides]
        for bound in (-1, 0, 1, 64):
            _walk_everything(alg, bound)
        for side, walks in zip(sides, kept):
            # every write into a walk handed out raises: the cache keeps none of it
            for y in walks:
                for res in (
                    simple_resolution(side, y, 64),
                    minimal_projective_resolution(side, simple_module(side, y), 64),
                ):
                    for term in res.terms:
                        with pytest.raises(AttributeError):
                            term.append(-1)
                    for row in (row for sym in res.syms for row in sym):
                        for w in filter(None, row):
                            with pytest.raises(TypeError):
                                w[0] = (w[0][0], 0)
                            with pytest.raises(AttributeError):
                                w.append(w[0])
                        with pytest.raises(AttributeError):
                            row.append(None)
            assert {y: side.cache["simple_walks"][y] for y in walks} == walks
            for y, (terms, syms) in walks.items():
                dense = [[[_dense(side, w) for w in row] for row in sym] for sym in syms]
                assert ([list(t) for t in terms], dense, True) == parent_walk(
                    side, simple_module(side, y), 64
                )


def test_walks_are_tuples_that_the_cache_hands_out_as_they_are():
    kept = 0
    for alg in _cache_algebras():
        for side in (alg, alg.opposite()):
            for x in range(side.nvert):
                res = simple_resolution(side, x, 64)
                rows = [row for sym in res.syms for row in sym]
                levels = (res.terms, res.syms, *res.terms, *res.syms, *rows)
                assert all(type(v) is tuple for v in levels)
                assert all(type(w) is tuple for row in rows for w in row if w is not None)
                walk = side.cache["simple_walks"].get(x)
                if walk is not None:
                    kept += 1
                    assert res.complete and res.terms is walk[0] and res.syms is walk[1]
                    assert simple_resolution(side, x, 64).terms is walk[0]
    assert kept > 50


def test_walks_that_hit_the_bound_keep_nothing():
    cycle = _rad_square_zero_cycle()
    for bound in (0, 1, 64):
        for x in range(cycle.nvert):
            assert not simple_resolution(cycle, x, bound).complete
    assert cycle.cache["simple_walks"] == {}


# -- walks of simples resumed a layer up ------------------------------------------------


def _replicated_bases():
    """Every orientation of A2, A3, A4 and D4, and the Kronecker quiver."""
    from algolab.dynkin import orientations, parse_graph
    from algolab.oracle import quiver_presentation_from_dynkin

    quivers = [q for name in ("A2", "A3", "A4", "D4") for q in orientations(parse_graph(name))]
    presentations = [quiver_presentation_from_dynkin(q) for q in quivers] + [kronecker_presentation()]
    return [compile_bound_quiver(pres) for pres in presentations]


def test_the_layer_shift_is_recorded_on_layers_1_to_m_minus_1():
    base = compile_bound_quiver(linear_an_presentation(3))
    for m in range(4):
        alg = build_replicated(base, m)
        up, vertex_up, shiftable = alg.layer_shift
        assert {alg.labels[i]: alg.labels[j] for i, j in up.items()} == {
            f"{label}{star}@{layer}": f"{label}{star}@{layer + 1}"
            for label in base.labels
            for star, layers in (("", range(m)), ("*", range(1, m)))
            for layer in layers
        }
        assert vertex_up == {x: x + 3 for x in range(3 * m)}
        assert shiftable == set(range(3, 3 * m))  # layers 1..m-1; layer 0 has no f-part
    assert alg.opposite().layer_shift is None
    assert StructureConstantAlgebra(alg.labels, alg.mult, alg.idempotent_indices).layer_shift is None


def test_a_corrupted_upper_corner_fails_the_shift_check(monkeypatch):
    # a1 a2 = a1*a2 on layer 2 of kA_3^(2), doubled after the constructor's
    # checks: the corner on layers 1..2 is no longer the shift of 0..1
    import algolab.oracle.algebra as algebra_mod

    class Corrupted(StructureConstantAlgebra):
        def __init__(self, labels, mult, idempotent_indices):
            super().__init__(labels, mult, idempotent_indices)
            i, j = self.labels.index("a1@2"), self.labels.index("a2@2")
            self.mult[i][j] = tuple((k, 2 * c) for k, c in self.mult[i][j])

    base = compile_bound_quiver(linear_an_presentation(3))
    monkeypatch.setattr(algebra_mod, "StructureConstantAlgebra", Corrupted)
    with pytest.raises(InternalMismatch, match="layer shift") as caught:
        build_replicated(base, 2)
    assert caught.value.witness == ("a1@2", "a2@2")
    # a product the lower corner does not have, between two images
    monkeypatch.setattr(algebra_mod, "StructureConstantAlgebra", StructureConstantAlgebra)
    alg = build_replicated(base, 2)
    i, j = alg.labels.index("a2@1"), alg.labels.index("a1@1")
    alg.mult[i][j] = ((i, 1),)
    with pytest.raises(InternalMismatch) as caught:
        algebra_mod._record_layer_shift(alg, alg.layer_shift[0])
    assert caught.value.witness == ("a2@1", "a1@1")


def test_resumed_walks_of_simples_equal_fresh_walks(monkeypatch):
    # every simple of A^(m), m = 1..4, walked at a bound and then at 64 in a
    # shuffled order that mostly climbs the layers, on the algebra and on a
    # copy with no recorded shift: same walks, same cache after each
    import algolab.oracle.homology as homology_mod

    walk = homology_mod.minimal_projective_resolution
    resumed = {"walks": 0, "cut": 0, "spliced": 0}

    def counted(alg, module, bound, _resume=None):
        if _resume is not None:
            checkpoints = {y for k, y in _resume[5] if k}
            resumed["walks"] += 1
            resumed["cut"] += len(_resume[3]) > bound + 1
            resumed["spliced"] += bool(checkpoints & alg.cache["simple_walks"].keys())
        return walk(alg, module, bound, _resume=_resume)

    monkeypatch.setattr(homology_mod, "minimal_projective_resolution", counted)
    rng = random.Random(5)
    for base in _replicated_bases():
        for m in range(1, 5):
            built = build_replicated(base, m)
            for first in (-1, 0, 1, 2, 3, 64):
                shifted, plain = copy.copy(built), copy.copy(built)
                shifted.cache, plain.cache, plain.layer_shift = {}, {}, None
                order = sorted(range(built.nvert), key=lambda x: x // base.nvert + 2 * rng.random())
                for x in order:
                    for bound in (first, 64):
                        res, fresh = simple_resolution(shifted, x, bound), simple_resolution(plain, x, bound)
                        assert (res.terms, res.syms, res.complete) == (fresh.terms, fresh.syms, fresh.complete)
                        assert shifted.cache["simple_walks"] == plain.cache["simple_walks"]
                assert "walk_states" not in plain.cache
    # resumed walks that the bound cuts before their state, and ones that
    # splice at an earlier checkpoint, both ran
    assert resumed["walks"] > 3000 and resumed["cut"] > 500 and resumed["spliced"] > 20


def test_resumed_walks_make_fewer_steps(monkeypatch):
    # the simples of kA_6^(6) walked in vertex order: with the shift each
    # layer makes only the steps near layer 0
    import algolab.oracle.homology as homology_mod

    next_syzygy = homology_mod._next_syzygy
    steps = {}
    base = compile_bound_quiver(linear_an_presentation(6))
    for shift in (True, False):
        alg = build_replicated(base, 6)
        alg.layer_shift = alg.layer_shift if shift else None
        steps[shift] = 0

        def counted(*args):
            steps[shift] += 1
            return next_syzygy(*args)

        monkeypatch.setattr(homology_mod, "_next_syzygy", counted)
        walks = [simple_resolution(alg, x, 64) for x in range(alg.nvert)]
        assert all(res.complete for res in walks)
    assert steps[True] * 3 < steps[False]


def test_socles_off_the_products_match_the_module_socles():
    for alg in _cache_algebras():
        for side in (alg, alg.opposite()):
            expected = [socle_data(projective_module(side, x)[0])[0] for x in range(side.nvert)]
            assert _projective_socles(side) == expected


def test_an_opposite_takes_the_arrow_basis_of_its_source():
    for alg, fresh in zip(_cache_algebras(), _cache_algebras()):
        arrows = alg.arrow_basis()
        assert alg.opposite().arrow_basis() is arrows
        # an opposite that picks its own arrows picks the same index tuple,
        # and its source then takes them
        assert fresh.opposite().arrow_basis() == arrows
        assert fresh.arrow_basis() is fresh.opposite().arrow_basis()
        cartan = alg.cartan_dims()
        assert alg.cartan_dims() is cartan
        counted = [[0] * alg.nvert for _ in range(alg.nvert)]
        for t in range(alg.dim):
            counted[alg.row_idem[t]][alg.col_idem[t]] += 1
        assert cartan == counted


def _associative_on(mult, triples):
    def side(pairs, other, right):
        acc = {}
        for t, c in pairs:
            for k, c2 in mult[t].get(other, ()) if right else mult[other].get(t, ()):
                acc[k] = acc.get(k, 0) + c * c2
        return {k: v for k, v in acc.items() if v}

    return all(side(mult[i].get(j, ()), k, True) == side(mult[j].get(k, ()), i, False) for i, j, k in triples)


def test_sampled_check_draws_triples_that_compose():
    # A^(8) of 1 -> 2 <- 3 <- 4 -> 5, 3 -> 6 with every a2@0 . b doubled for
    # b in the radical, a2 the arrow 4 -> 3 of layer 0
    arrows = [("a0", 1, 2), ("a1", 3, 2), ("a2", 4, 3), ("a3", 4, 5), ("a4", 3, 6)]
    alg = build_replicated(compile_bound_quiver(QuiverPresentation(6, arrows)), 8)
    assert (alg.dim, alg.nvert) == (221, 54)
    a2 = alg.labels.index("a2@0")
    mult = [dict(row) for row in alg.mult]
    for t, prod in alg.mult[a2].items():
        if t not in alg.idempotent_indices:
            mult[a2][t] = tuple((k, 2 * c) for k, c in prod)
    everything = [
        (i, j, k) for i in range(alg.dim) for j in alg.basis_by_row[alg.col_idem[i]]
        for k in alg.basis_by_row[alg.col_idem[j]]
    ]
    assert not _associative_on(mult, everything)
    # 200 uniform triples, as drawn before: 8 compose at (i, j), none at
    # (j, k), and they miss the fault
    rng = random.Random(7)
    uniform = [tuple(rng.randrange(alg.dim) for _ in range(3)) for _ in range(200)]
    composing = [(i, j, k) for i, j, k in uniform if alg.col_idem[i] == alg.row_idem[j]]
    assert len(composing) == 8 and all(alg.col_idem[j] != alg.row_idem[k] for _, j, k in composing)
    assert _associative_on(mult, composing)
    # the same edit made to the table of the built algebra, above the
    # size that the constructor checks in full
    alg.mult[a2] = mult[a2]
    with pytest.raises(InvalidAlgebra, match="associativity fails"):
        alg.verify_structure(full=False)
