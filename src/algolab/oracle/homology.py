"""Resolutions, homological dimensions, Nakayama functors and Serre orbits.

Minimal projective resolutions are computed with symbolic differentials:
each entry of a differential is an element of the algebra (the component of
a kernel generator in one projective summand).  Injective coresolutions are
obtained by resolving the dual module over the opposite algebra; applying
the inverse Nakayama functor to the coresolution then amounts to reading the
same symbolic matrices as left-multiplication maps between projectives,
which is what makes the derived orbit steps cheap.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import (
    InvalidAlgebra,
    InvalidKupisch,
    NotSerreFormal,
    NotTriangular,
    ResolutionBoundExceeded,
)
from ..linalg import RowSolver, identity, left_nullspace, rank, vec_mat, zeros
from ..serre import ModuleTag, SerreProfile
from .modules import (
    ModuleComplex,
    ModuleMap,
    RightModule,
    direct_sum,
    dual_module,
    hom_space,
    injective_module,
    projective_module,
    regular_module,
    simple_module,
    socle_data,
    submodule,
    top_data,
)

INFINITE = math.inf


# -- symbolic minimal projective resolutions -----------------------------------


@dataclass
class Resolution:
    """terms[j] is the list of vertex labels of the j-th projective term;
    syms[j][r][s] is the algebra element (a coordinate vector) giving the
    component of the r-th generator of term j+1 inside summand s of term j.
    ``complete`` is False when the step bound was hit first."""

    algebra: object
    terms: List[List[int]]
    syms: List[List[List[Optional[list]]]]
    complete: bool

    @property
    def length(self) -> int:
        return len(self.terms) - 1


def minimal_projective_resolution(alg, module: RightModule, bound: int) -> Resolution:
    terms: List[List[int]] = []
    syms = []
    current = module
    embed_chain: Optional[ModuleMap] = None  # current inside previous cover
    proj_cache: Dict[int, Tuple[RightModule, List[List[int]]]] = {}

    def proj(x):
        if x not in proj_cache:
            proj_cache[x] = projective_module(alg, x)
        return proj_cache[x]

    step = 0
    while True:
        if current.is_zero():
            return Resolution(alg, terms, syms, complete=True)
        if step > bound:
            return Resolution(alg, terms, syms, complete=False)
        mults, gens = top_data(current)
        cover_vertices = []
        gen_vectors = []  # (vertex, vector in current coords)
        for x in range(alg.nvert):
            for g in gens[x]:
                cover_vertices.append(x)
                gen_vectors.append((x, g))
        terms.append(cover_vertices)
        if step > 0:
            # record the symbolic differential: generators in cover coords
            sym = []
            prev_vertices = terms[step - 1]
            for x, g in gen_vectors:
                # g lives in `current` which embeds into the previous cover
                vec_per_vertex = _to_parent_coords(g, x, embed_chain)
                row = []
                for s, xs in enumerate(prev_vertices):
                    row.append(
                        _component_as_algebra_element(
                            alg, vec_per_vertex, s, xs, x, prev_offsets, prev_parts
                        )
                    )
                sym.append(row)
            syms.append(sym)
        # build the cover and its map onto current
        summands = [proj(x) for x in cover_vertices]
        if summands:
            cover, offsets = direct_sum([p for p, _ in summands])
        else:
            cover, offsets = RightModule(alg, (0,) * alg.nvert, {}), []
        parts = [basis_at for _, basis_at in summands]
        # map: generator i spans e_{x_i}A -> g_i . b
        blocks = {
            v: zeros(cover.dims[v], current.dims[v])
            for v in range(alg.nvert)
            if cover.dims[v] and current.dims[v]
        }
        for i, (x, g) in enumerate(gen_vectors):
            p_mod, basis_at = summands[i]
            for v in range(alg.nvert):
                for local, b in enumerate(basis_at[v]):
                    img = _apply_basis(current, x, g, b)
                    if img is None:
                        continue
                    row_index = offsets[i][v] + local
                    dst = blocks.get(v)
                    if dst is not None:
                        dst[row_index] = img
        cover_map = ModuleMap(cover, current, blocks)
        # kernel per vertex
        kernels = [
            left_nullspace(cover_map.block(v)) if current.dims[v] else identity(cover.dims[v])
            for v in range(alg.nvert)
        ]
        ker, incl = submodule(cover, kernels)
        current = ker
        embed_chain = incl
        prev_offsets = offsets
        prev_parts = parts
        step += 1


def _apply_basis(module: RightModule, gx, gvec, b):
    """Image of the grade-gx vector gvec under basis element b, or None."""
    alg = module.alg
    if alg.row_idem[b] != gx:
        return None
    blk = module.block(b)
    out = vec_mat(gvec, blk)
    return out


def _to_parent_coords(g, x, embed):
    """Vector g at vertex x of a submodule, written in parent coordinates."""
    blk = embed.blocks.get(x)
    if blk is None:
        return None
    return vec_mat(g, blk)


def _component_as_algebra_element(alg, parent_vec, s, xs, gx, offsets, parts):
    """Extracts summand s (a copy of e_{xs}A) of a cover vector with grade
    gx, as an algebra coordinate vector in e_{xs} A e_{gx}."""
    if parent_vec is None:
        return None
    basis_at = parts[s]
    coords = [0] * alg.dim
    start = offsets[s][gx]
    nonzero = False
    for local, b in enumerate(basis_at[gx]):
        c = parent_vec[start + local]
        if c:
            coords[b] = c
            nonzero = True
    return coords if nonzero else None


# -- injective coresolutions ---------------------------------------------------


@dataclass
class Coresolution:
    """Minimal injective coresolution data: terms[j] lists the vertex labels
    of the injectives of the j-th term; syms are the opposite-side symbolic
    differentials (entries in e_u A e_x for the map I_x -> I_u)."""

    algebra: object
    terms: List[List[int]]
    syms: List[List[List[Optional[list]]]]
    complete: bool

    @property
    def length(self) -> int:
        return len(self.terms) - 1


def injective_coresolution(alg, module: RightModule, bound: int) -> Coresolution:
    res = minimal_projective_resolution(
        alg.opposite(), dual_module(module), bound
    )
    return Coresolution(alg, res.terms, res.syms, res.complete)


def projective_injective_table(alg) -> Dict[int, Optional[int]]:
    """For each vertex x: the vertex y with I_x isomorphic to P_y, or None."""
    if not hasattr(alg, "_pi_table"):
        tags = [identify_module(alg, injective_module(alg, x)) for x in range(alg.nvert)]
        alg._pi_table = {x: _vertex(alg, t.as_p) for x, t in enumerate(tags)}
    return alg._pi_table


def injective_projective_table(alg) -> Dict[int, Optional[int]]:
    """For each vertex x: the vertex y with P_x isomorphic to I_y, or None."""
    if not hasattr(alg, "_ip_table"):
        tags = [identify_module(alg, projective_module(alg, x)[0]) for x in range(alg.nvert)]
        alg._ip_table = {x: _vertex(alg, t.as_i) for x, t in enumerate(tags)}
    return alg._ip_table


def _vertex(alg, label):
    return None if label is None else alg.vertex_labels.index(label)


@dataclass
class ModuleHomReport:
    idim: object
    domdim: object
    pdim: object = None
    codomdim: object = None


def coresolution_dims(alg, cores: Coresolution):
    """(idim, domdim) read off a coresolution; values may be the string
    '>bound' when the walk was truncated."""
    pi = projective_injective_table(alg)
    if cores.complete:
        idim = cores.length
    else:
        idim = f">{cores.length}"
    domdim = None
    for j, term in enumerate(cores.terms):
        if not all(pi[x] is not None for x in term):
            domdim = j
            break
    if domdim is None:
        domdim = INFINITE if cores.complete else f">{cores.length}"
    return idim, domdim


def module_dims(alg, module: RightModule, bound: int = 64) -> ModuleHomReport:
    cores = injective_coresolution(alg, module, bound)
    idim, domdim = coresolution_dims(alg, cores)
    res = minimal_projective_resolution(alg, module, bound)
    pdim = res.length if res.complete else f">{res.length}"
    ip = injective_projective_table(alg)
    codom = None
    for j, term in enumerate(res.terms):
        if not all(ip[x] is not None for x in term):
            codom = j
            break
    if codom is None:
        codom = INFINITE if res.complete else f">{res.length}"
    return ModuleHomReport(idim=idim, domdim=domdim, pdim=pdim, codomdim=codom)


# -- the derived inverse Nakayama step -------------------------------------------


def left_mult_map(alg, w, src_x, dst_u, proj_cache):
    """The block family of left multiplication by w in e_u A e_x, as a map
    P_x = e_x A -> P_u = e_u A."""
    p_src, basis_src = proj_cache(src_x)
    p_dst, basis_dst = proj_cache(dst_u)
    pos_dst = {}
    for v in range(alg.nvert):
        for i, b in enumerate(basis_dst[v]):
            pos_dst[b] = i
    terms = [(t, c) for t, c in enumerate(w) if c]
    blocks = {}
    for v in range(alg.nvert):
        if not p_src.dims[v] or not p_dst.dims[v]:
            continue
        blk = zeros(p_src.dims[v], p_dst.dims[v])
        nonzero = False
        for i, b in enumerate(basis_src[v]):
            for t, c in terms:
                for k, c2 in alg.product_of_basis(t, b):
                    blk[i][pos_dst[k]] += c * c2
                    nonzero = True
        if nonzero:
            blocks[v] = blk
    return p_src, p_dst, blocks


def nu_inverse_complex(alg, cores: Coresolution):
    """The complex Hom(DA, I^bullet): term j is the sum of projectives at the
    vertices of I^j, with differentials given by left multiplication by the
    symbolic entries."""
    proj_cache_store: Dict[int, Tuple[RightModule, List[List[int]]]] = {}

    def proj_cache(x):
        if x not in proj_cache_store:
            proj_cache_store[x] = projective_module(alg, x)
        return proj_cache_store[x]

    modules = []
    offsets_list = []
    for term in cores.terms:
        ms = [proj_cache(x)[0] for x in term]
        if ms:
            mod, offs = direct_sum(ms)
        else:
            mod, offs = RightModule(alg, (0,) * alg.nvert, {}), []
        modules.append(mod)
        offsets_list.append(offs)
    diffs = []
    for j, sym in enumerate(cores.syms):
        src = modules[j]
        dst = modules[j + 1]
        blocks = {
            v: zeros(src.dims[v], dst.dims[v])
            for v in range(alg.nvert)
            if src.dims[v] and dst.dims[v]
        }
        for r, row in enumerate(sym):
            u = cores.terms[j + 1][r]
            for s, w in enumerate(row):
                if w is None:
                    continue
                x = cores.terms[j][s]
                p_src, p_dst, lblocks = left_mult_map(alg, w, x, u, proj_cache)
                for v, blk in lblocks.items():
                    dstblk = blocks.get(v)
                    if dstblk is None:
                        continue
                    off_s = offsets_list[j][s][v]
                    off_r = offsets_list[j + 1][r][v]
                    for a in range(p_src.dims[v]):
                        for b in range(p_dst.dims[v]):
                            if blk[a][b]:
                                dstblk[off_s + a][off_r + b] += blk[a][b]
        diffs.append(ModuleMap(src, dst, blocks))
    return ModuleComplex(modules, diffs)


def nu_inverse_derived(alg, module: RightModule, bound: int = 64):
    """Nonzero cohomologies [(degree, module)] of the derived inverse
    Nakayama functor applied to a stalk module."""
    cores = injective_coresolution(alg, module, bound)
    if not cores.complete:
        raise ResolutionBoundExceeded(
            f"injective coresolution did not terminate within {bound} steps"
        )
    cx = nu_inverse_complex(alg, cores)
    return cx.nonzero_cohomology()


# -- module identification --------------------------------------------------------


def identify_module(alg, module: RightModule) -> ModuleTag:
    """Tags a module as a projective P_y and/or injective I_y: its top (for
    P_y) or socle (for I_y) is the simple S_y and its dimension is that of
    P_y or I_y, the row or column sum y of the Cartan matrix (valid for
    indecomposables).  The one place that decides either."""
    as_p = None
    as_i = None
    total = module.total_dim
    if total:
        cartan = alg.cartan_dims()
        y = _simple_vertex(top_data(module)[0])
        if y is not None and sum(cartan[y]) == total:
            as_p = alg.vertex_labels[y]
        y = _simple_vertex(socle_data(module)[0])
        if y is not None and sum(row[y] for row in cartan) == total:
            as_i = alg.vertex_labels[y]
    return ModuleTag(as_p, as_i, tuple(module.dims))


def _simple_vertex(mults):
    """y when the multiplicities are those of the simple S_y, else None."""
    support = [y for y, m in enumerate(mults) if m]
    return support[0] if len(support) == 1 and mults[support[0]] == 1 else None


# -- Serre orbits -------------------------------------------------------------------


@dataclass
class OrbitWitness:
    simple: object
    power: int
    degrees: frozenset


@dataclass
class MinusOrbit:
    shifts: Dict[object, List[int]]
    tags: Dict[object, List[ModuleTag]]
    ell: Dict[object, Optional[int]]
    sigma: Dict[object, object]
    witness: Optional[OrbitWitness] = None
    incomplete_reason: Optional[str] = None


def serre_orbit_minus(alg, horizon: int, bound: int = 64) -> MinusOrbit:
    """Iterates the derived nu^{-1} on every indecomposable projective.

    Stops with a witness as soon as one step has two nonzero cohomology
    degrees; injective orbit points take the fast path nu^-(I_y) = P_y."""
    shifts: Dict[object, List[int]] = {}
    tags: Dict[object, List[ModuleTag]] = {}
    ell: Dict[object, Optional[int]] = {}
    sigma: Dict[object, object] = {}
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
                    return MinusOrbit(
                        shifts, tags, ell, sigma,
                        incomplete_reason=f"P_{label} power {k + 1}: {exc}",
                    )
                if len(cohs) != 1:
                    return MinusOrbit(
                        shifts, tags, ell, sigma,
                        witness=OrbitWitness(
                            label, k + 1, frozenset(d for d, _ in cohs)
                        ),
                    )
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
    return MinusOrbit(shifts, tags, ell, sigma)


def serre_orbit_profile(alg, horizon: int, bound: int = 64) -> SerreProfile:
    """Full Serre profile through the oracle; raises NotSerreFormal with the
    first witness found in either functor direction."""
    if not alg.is_connected():
        raise InvalidAlgebra("profile requires a connected algebra")
    minus = serre_orbit_minus(alg, horizon, bound)
    if minus.witness:
        w = minus.witness
        raise NotSerreFormal(w.simple, w.power, w.degrees)
    if minus.incomplete_reason:
        raise ResolutionBoundExceeded(minus.incomplete_reason)
    op = alg.opposite()
    plus = serre_orbit_minus(op, horizon, bound)
    if plus.witness:
        w = plus.witness
        raise NotSerreFormal(w.simple, -w.power, w.degrees)
    if plus.incomplete_reason:
        raise ResolutionBoundExceeded(plus.incomplete_reason)
    simples = tuple(alg.vertex_labels)
    s_plus = {x: [-v for v in plus.shifts[x]] for x in simples}
    plus_tags = {
        x: [ModuleTag(t.as_i, t.as_p, t.dim) for t in plus.tags[x]] for x in simples
    }
    periodic = True if all(minus.ell[x] is not None for x in simples) else "unknown"
    return SerreProfile(
        simples=simples,
        horizon=horizon,
        s_minus=minus.shifts,
        s_plus=s_plus,
        minus_tags=minus.tags,
        plus_tags=plus_tags,
        ell=minus.ell,
        sigma=minus.sigma,
        periodic=periodic,
    )


@dataclass
class SerreVerdict:
    kind: str  # "serre_formal" | "not_serre_formal" | "inconclusive"
    profile: Optional[SerreProfile] = None
    witness: Optional[OrbitWitness] = None
    reason: Optional[str] = None

    @property
    def is_serre_formal(self):
        return self.kind == "serre_formal"


def serre_formal_check(alg, horizon: int = 8, bound: int = 64) -> SerreVerdict:
    """Verifies Iwanaga-Gorensteinness within the bound, then checks that
    every power of the Serre functor keeps the regular module a sum of stalk
    complexes, in both directions (the positive direction runs on the
    opposite algebra)."""
    if not alg.is_connected():
        raise InvalidAlgebra("serre_formal_check requires a connected algebra")
    for side in (alg, alg.opposite()):
        reg, _ = regular_module(side)
        cores = injective_coresolution(side, reg, bound)
        if not cores.complete:
            return SerreVerdict(
                "inconclusive", reason=f"idim > {bound} on one side"
            )
    try:
        profile = serre_orbit_profile(alg, horizon, bound)
    except NotSerreFormal as exc:
        return SerreVerdict(
            "not_serre_formal",
            witness=OrbitWitness(exc.simple, exc.power, exc.degrees),
        )
    except ResolutionBoundExceeded as exc:
        return SerreVerdict("inconclusive", reason=str(exc))
    return SerreVerdict("serre_formal", profile=profile)


# -- reports ------------------------------------------------------------------------


@dataclass
class HomologicalReport:
    gldim: object
    idim_right: object
    idim_left: object
    domdim: object
    qf2: bool
    qf3: bool
    projective_injectives: list

    def to_json(self):
        def enc(v):
            if v is INFINITE:
                return "infinity"
            return v

        return {
            "gldim": enc(self.gldim),
            "idim_right": enc(self.idim_right),
            "idim_left": enc(self.idim_left),
            "domdim": enc(self.domdim),
            "qf2": self.qf2,
            "qf3": self.qf3,
            "projective_injectives": self.projective_injectives,
        }


def _max_dim(values):
    """Max of dimension values, where '>N' means at least N + 1."""
    if not values:
        return 0
    lowers = [int(v[1:]) for v in values if isinstance(v, str)]
    numeric = [v for v in values if not isinstance(v, str)]
    if not lowers:
        return max(numeric)
    finite = [v for v in numeric if v is not INFINITE]
    return f">{max(lowers + finite)}"


def _min_dim(values):
    """Min of dimension values, where '>N' means at least N + 1."""
    if not values:
        return 0
    lowers = [int(v[1:]) for v in values if isinstance(v, str)]
    numeric = [v for v in values if not isinstance(v, str)]
    if not numeric:
        return f">{min(lowers)}"
    if not lowers or min(numeric) <= min(lowers) + 1:
        return min(numeric)
    return f">{min(lowers)}"


def homological_report(alg, bound: int = 64) -> HomologicalReport:
    """Right/left self-injective dimension, dominant dimension, global
    dimension and the QF flags, all by explicit minimal (co)resolutions."""
    idims, domdims = [], []
    for x in range(alg.nvert):
        p, _ = projective_module(alg, x)
        cores = injective_coresolution(alg, p, bound)
        idim, domdim = coresolution_dims(alg, cores)
        idims.append(idim)
        domdims.append(domdim)
    idim_right = _max_dim(idims)
    domdim = _min_dim(domdims)
    op = alg.opposite()
    idims_left = []
    for x in range(op.nvert):
        p, _ = projective_module(op, x)
        cores = injective_coresolution(op, p, bound)
        idim, _ = coresolution_dims(op, cores)
        idims_left.append(idim)
    idim_left = _max_dim(idims_left)
    pdims = []
    for x in range(alg.nvert):
        res = minimal_projective_resolution(alg, simple_module(alg, x), bound)
        pdims.append(res.length if res.complete else f">{res.length}")
    gldim = _max_dim(pdims)
    qf2 = True
    for x in range(alg.nvert):
        p, _ = projective_module(alg, x)
        mults, _ = socle_data(p)
        if sum(mults) != 1:
            qf2 = False
            break
    qf3 = (domdim == INFINITE) or (not isinstance(domdim, str) and domdim >= 1)
    ip = injective_projective_table(alg)
    pi_labels = [alg.vertex_labels[x] for x in range(alg.nvert) if ip[x] is not None]
    return HomologicalReport(
        gldim=gldim,
        idim_right=idim_right,
        idim_left=idim_left,
        domdim=domdim,
        qf2=qf2,
        qf3=qf3,
        projective_injectives=pi_labels,
    )


def codomdim_of_dual_regular(alg, bound: int = 64):
    """codomdim(DA) via the minimal projective resolution of DA over the
    algebra itself; equals domdim(A) by Tachikawa's identity."""
    da = dual_module(regular_module(alg.opposite())[0])
    res = minimal_projective_resolution(alg, da, bound)
    ip = injective_projective_table(alg)
    for j, term in enumerate(res.terms):
        if not all(ip[x] is not None for x in term):
            return j
    return INFINITE if res.complete else f">{res.length}"


# -- Nakayama functors ----------------------------------------------------------------


def inverse_nakayama(alg, module: RightModule) -> RightModule:
    """nu^-(M) = Hom_A(DA, M), with grade-x slice Hom(I_x, M) and right
    action by precomposition with left multiplication on DA."""
    injs = [injective_module(alg, x) for x in range(alg.nvert)]
    hom_bases = [hom_space(injs[x], module) for x in range(alg.nvert)]
    dims = tuple(len(h) for h in hom_bases)
    solvers = {}
    for x in range(alg.nvert):
        if dims[x]:
            width = sum(injs[x].dims[v] * module.dims[v] for v in range(alg.nvert))
            solvers[x] = RowSolver([_flatten(alg, h) for h in hom_bases[x]], width)
    act = {}
    # position lookup inside each injective's dual coordinates
    op = alg.opposite()
    basis_at_op = {}
    for x in range(alg.nvert):
        _, basis_at = projective_module(op, x)
        basis_at_op[x] = basis_at
    for t in range(alg.dim):
        u, v = alg.row_idem[t], alg.col_idem[t]
        if t == alg.idempotent_indices[u] and u == v:
            continue
        if not dims[u] or not dims[v]:
            continue
        lt = _left_mult_on_injective(alg, t, injs, basis_at_op)
        blk = []
        for phi in hom_bases[u]:
            composed = lt.compose(phi)
            coeffs = solvers[v].coefficients(_flatten(alg, composed))
            if coeffs is None:
                raise AssertionError("hom space is not closed under the action")
            blk.append(coeffs)
        if any(any(r) for r in blk):
            act[t] = blk
    return RightModule(alg, dims, act)


def _left_mult_on_injective(alg, t, injs, basis_at_op) -> ModuleMap:
    """Left multiplication by basis element t in e_u A e_v as a module map
    I_v -> I_u on dual coordinates: (t . b_k^*) = sum_y coeff_{b_k}(y t) y^*."""
    u, v = alg.row_idem[t], alg.col_idem[t]
    src = injs[v]
    dst = injs[u]
    pos_src = {}
    for w in range(alg.nvert):
        for i, b in enumerate(basis_at_op[v][w]):
            pos_src[b] = i
    pos_dst = {}
    for w in range(alg.nvert):
        for i, b in enumerate(basis_at_op[u][w]):
            pos_dst[b] = i
    blocks = {}
    for w in range(alg.nvert):
        if not src.dims[w] or not dst.dims[w]:
            continue
        blk = zeros(src.dims[w], dst.dims[w])
        nonzero = False
        # y ranges over basis of e_w A e_u; y*t expands over e_w A e_v
        for y in alg.basis_by_pair.get((w, u), ()):
            for k, c in alg.product_of_basis(y, t):
                blk[pos_src[k]][pos_dst[y]] += c
                nonzero = True
        if nonzero:
            blocks[w] = blk
    return ModuleMap(src, dst, blocks)


def nakayama_functor(alg, module: RightModule) -> RightModule:
    """nu(M) = D Hom_A(M, A), with grade-x slice D Hom(M, P_x) and action
    dual to postcomposition with left multiplication P_v -> P_u."""
    projs = [projective_module(alg, x) for x in range(alg.nvert)]
    hom_bases = [hom_space(module, p) for p, _ in projs]
    dims = tuple(len(h) for h in hom_bases)
    solvers = {}
    for x in range(alg.nvert):
        if dims[x]:
            width = sum(module.dims[v] * projs[x][0].dims[v] for v in range(alg.nvert))
            solvers[x] = RowSolver([_flatten(alg, h) for h in hom_bases[x]], width)
    act = {}
    for t in range(alg.dim):
        u, v = alg.row_idem[t], alg.col_idem[t]
        if t == alg.idempotent_indices[u] and u == v:
            continue
        if not dims[u] or not dims[v]:
            continue
        # left multiplication by t is a map P_v -> P_u of right modules; the
        # action on the dual is (xi . t)(phi) = xi(phi then left mult by t)
        unit = [0] * alg.dim
        unit[t] = 1
        lt = ModuleMap(*left_mult_map(alg, unit, v, u, projs.__getitem__))
        blk = zeros(dims[u], dims[v])
        for j, phi in enumerate(hom_bases[v]):
            coeffs = solvers[u].coefficients(_flatten(alg, phi.compose(lt)))
            if coeffs is None:
                raise AssertionError("hom space is not closed under the action")
            for i, c in enumerate(coeffs):
                if c:
                    blk[i][j] += c
        if any(any(r) for r in blk):
            act[t] = blk
    return RightModule(alg, dims, act)


def _flatten(alg, mm: ModuleMap):
    """The blocks of a module map, vertex by vertex, as one row."""
    return [x for v in range(alg.nvert) for row in mm.block(v) for x in row]


# -- Tits forms -------------------------------------------------------------------------


def tits_positive_roots(alg, entry_bound: int = 3, bound: int = 64):
    """All nonnegative integer vectors with entries <= entry_bound on which
    the Tits form of a triangular algebra takes the value 1."""
    arrows = alg.ext_quiver_arrows()
    # triangularity: the Ext-quiver must be acyclic
    n = alg.nvert
    adj = {x: set() for x in range(n)}
    for (u, v), count in arrows.items():
        if u == v:
            raise NotTriangular("the Ext-quiver has a loop")
        adj[u].add(v)
    seen_state = {}

    def dfs(x, stack):
        seen_state[x] = 1
        for y in adj[x]:
            if seen_state.get(y) == 1:
                raise NotTriangular("the Ext-quiver has an oriented cycle")
            if y not in seen_state:
                dfs(y, stack)
        seen_state[x] = 2

    for x in range(n):
        if x not in seen_state:
            dfs(x, None)
    ext2 = [[0] * n for _ in range(n)]
    for x in range(n):
        res = minimal_projective_resolution(alg, simple_module(alg, x), bound)
        if len(res.terms) > 2:
            for y in res.terms[2]:
                ext2[x][y] += 1

    def q(vec):
        total = 0
        for i in range(n):
            total += vec[i] * vec[i]
        for (u, v), count in arrows.items():
            total -= count * vec[u] * vec[v]
        for i in range(n):
            for j in range(n):
                if ext2[i][j]:
                    total += ext2[i][j] * vec[i] * vec[j]
        return total

    roots = []
    vec = [0] * n

    def walk(i):
        if i == n:
            if any(vec) and q(vec) == 1:
                roots.append(tuple(vec))
            return
        for val in range(entry_bound + 1):
            vec[i] = val
            walk(i + 1)
        vec[i] = 0

    walk(0)
    return roots


# -- the SGC gate --------------------------------------------------------------------------


@dataclass
class GateReport:
    e_vertices: list  # labels of projectives that are not injective
    gate: bool
    witness: Optional[object] = None


def hom_vanishing_gate(alg) -> GateReport:
    """Computes the projective-injectives (the intersection of add A and
    add DA), sets e to the complementary idempotent, and checks
    Hom(DA, eA) = 0 summandwise."""
    ip = injective_projective_table(alg)
    e_vertices = [x for x in range(alg.nvert) if ip[x] is None]
    witness = None
    gate = True
    for x in e_vertices:
        p, _ = projective_module(alg, x)
        for y in range(alg.nvert):
            homs = hom_space(injective_module(alg, y), p)
            if homs:
                gate = False
                witness = (alg.vertex_labels[y], alg.vertex_labels[x], len(homs))
                break
        if not gate:
            break
    return GateReport(
        e_vertices=[alg.vertex_labels[x] for x in e_vertices],
        gate=gate,
        witness=witness,
    )


# -- Kupisch recovery ------------------------------------------------------------------------


def kupisch_of(alg):
    """The Kupisch series of a connected linear-quiver Nakayama algebra,
    recovered from the Ext-quiver and the projective lengths."""
    from ..nakayama import KupischSeries

    arrows = alg.ext_quiver_arrows()
    nxt = {}
    indeg = {x: 0 for x in range(alg.nvert)}
    for (u, v), count in arrows.items():
        if count != 1 or u in nxt:
            raise InvalidKupisch("Ext-quiver is not a linear A_n quiver")
        nxt[u] = v
        indeg[v] += 1
    starts = [x for x in range(alg.nvert) if indeg[x] == 0]
    if len(starts) != 1:
        raise InvalidKupisch("Ext-quiver is not connected linear")
    order = [starts[0]]
    while order[-1] in nxt:
        order.append(nxt[order[-1]])
    if len(order) != alg.nvert:
        raise InvalidKupisch("Ext-quiver is not a linear chain")
    cartan = alg.cartan_dims()
    return KupischSeries(tuple(sum(cartan[x]) for x in order))


# -- Ext against the regular module -----------------------------------------------------------


def ext_against_regular(alg, module: RightModule, max_i: int, bound: int = 64):
    """dim Ext^i(M, A) for 0 <= i <= max_i, via Hom(P_bullet, A) with the
    symbolic differentials acting by right multiplication."""
    res = minimal_projective_resolution(alg, module, bound)
    if not res.complete and res.length < max_i:
        raise ResolutionBoundExceeded("resolution too short for the Ext range")
    dims_ae = [sum(col) for col in zip(*alg.cartan_dims())]  # dim A e_x
    spaces = []
    for term in res.terms[: max_i + 2]:
        spaces.append(sum(dims_ae[x] for x in term))
    mats = []
    for j in range(min(len(res.syms), max_i + 1)):
        # Hom(Q_j, A) -> Hom(Q_{j+1}, A): phi -> phi . d_{j+1}
        # component: A e_{x_s} -> A e_{u_r}: a -> a w_{r,s}
        src_term = res.terms[j]
        dst_term = res.terms[j + 1]
        mat = zeros(spaces[j], spaces[j + 1] if j + 1 < len(spaces) else 0)
        # coordinate layout: concatenate A e_x per summand, basis by row slices
        src_off = []
        acc = 0
        for x in src_term:
            src_off.append(acc)
            acc += dims_ae[x]
        dst_off = []
        acc = 0
        for x in dst_term:
            dst_off.append(acc)
            acc += dims_ae[x]
        basis_ae = {}
        for x in range(alg.nvert):
            lst = []
            for u in range(alg.nvert):
                lst.extend(alg.basis_by_pair.get((u, x), ()))
            basis_ae[x] = {b: i for i, b in enumerate(lst)}
        for r, row in enumerate(res.syms[j]):
            u_r = dst_term[r]
            for s, w in enumerate(row):
                if w is None:
                    continue
                x_s = src_term[s]
                for b, bi in basis_ae[x_s].items():
                    for t, c in enumerate(w):
                        if not c:
                            continue
                        for k, c2 in alg.product_of_basis(b, t):
                            mat[src_off[s] + bi][dst_off[r] + basis_ae[u_r][k]] += (
                                c * c2
                            )
        mats.append(mat)
    out = []
    for i in range(max_i + 1):
        if i >= len(spaces):
            out.append(0)
            continue
        dim_space = spaces[i]
        rank_out = 0
        if i < len(mats) and mats[i] and (spaces[i + 1] if i + 1 < len(spaces) else 0):
            rank_out = rank(mats[i])
        rank_in = 0
        if i > 0 and mats[i - 1] and spaces[i]:
            rank_in = rank(mats[i - 1])
        out.append(dim_space - rank_out - rank_in)
    return out
