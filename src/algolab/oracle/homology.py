"""Resolutions, homological dimensions, Nakayama functors and Serre orbits.

Minimal projective resolutions are computed with symbolic differentials:
each entry of a differential is an element of the algebra (the component of
a kernel generator in one projective summand), stored sparse as a tuple of
(basis index, coefficient) pairs.  The walk builds no module.  Every step
holds its syzygy as a kernel basis with the images of each vector under the
radical basis: step 0 takes M as the whole of its own space, its images
read off M.act, and every later syzygy is a subspace of the previous term,
a sum of the P_x laid out by ``modules._layout`` over its support only,
its images read off the structure constants.  One loop then takes the top,
the cover map and its kernel at every step
(``minimal_projective_resolution``).  A syzygy that is one vector at one
vertex y whose radical images are all zero is the simple S_y, from where
the walk is that of S_y: the walks of simples that complete are kept in
``alg.cache`` and spliced in at such checkpoints, and ``simple_resolution``
reads them for gldim.  ``homological_report`` walks the simples first, so
each later walk over A splices at its first simple syzygy whose walk is
kept.  A walk is immutable, tuples all the way down, so the cache holds
the very tuples that walks hand out.

By the Ext transpose, P_z is in term i of the walk of S_y over A^op as
often as P_y is in term i of that of S_z over A: dim Ext^i_A(S_z, S_y).
So once every simple of A is projective or kept, ``_transposed_tails``
reads the terms of every walk of a simple over A^op off those of A.  The
coresolutions of ``_coresolved`` end in them at their first simple syzygy
with no kept walk, and a report over A^op reads its gldim off them.  Such
walks have terms only, all ``_walk_dims`` reads, and store nothing.

A replicated algebra keeps its layer shift up (``build_replicated``), an
isomorphism of its corners on layers 0..m-1 and 1..m that maps e_y A onto
e_{up y} A for y on layers 1..m-1, the shiftable y.  While the terms of the
walk of S_y are shiftable, that of S_{up y} is the same walk moved up: the
same vectors, in coordinates that ``_layout`` orders alike on both sides.
So the walk of S_y keeps its state before its first term that is not
shiftable (or its splice, or its end) under up y, and S_{up y} resumes from
it moved up (``_shifted``).  The steps before it end where a fresh walk's
would, in a splice at a checkpoint the cache now holds or at the bound, so
the walk, its cut and the walks it stores are those of a fresh walk.

The injective side has no code of its own.  The duality D = Hom_k(-, k)
from mod A to mod A^op exchanges injectives and projectives, so every
injective construction is D o (the projective one over A^op) o D:

* the minimal injective coresolution of M is the minimal projective
  resolution of DM over A^op, a ``Resolution`` whose algebra is A^op;
* I_x is P_y exactly when P_x over A^op is I_y over A^op, so one socle
  pass, read off the structure constants, makes the table of both sides
  (``injective_projective_table``), and ``homological_report`` does not
  walk a module that the table identifies;
* nu(M) = D nu^-_{A^op}(DM).

A walk cut at its bound gives each value it did not reach as ``AtLeast(n)``,
text only when printed.  The reports read idim off the coresolutions of the
P_x (``_coresolved``), ``serre_formal_check`` off the first orbit steps.

One reader turns a walk into maps, ``_dual_complex``: over the opposite
of the walk's algebra, Hom(P_bullet, regular) is a complex of sums of
projectives whose differentials multiply by the symbolic entries, read off
the structure constants.  ``nu_inverse_complex`` makes it a
``ModuleComplex``, the one reader of its cohomology: ``cohomology_dims``
counts H^i per vertex by ranks, ``cohomology`` builds H^i as a module, the
kernel modulo the image in one elimination per vertex (``_subquotient``:
its basis differs from a kernel-then-quotient one only up to isomorphism,
and every value read off H^i is an invariant).  Its four uses: nu^- of a
coresolution over A (``nu_inverse_derived``, the derived orbit steps,
which build H^i only in the degrees it counts nonzero), the Nakayama
functors, nu^-(M) being H^0 of that complex on the first two terms
(``inverse_nakayama``, and ``nakayama_functor`` through the duality),
Ext^i(M, A), the dims of H^i of a resolution over A read
over A^op (``ext_against_regular``), and the SGC gate, whose
Hom(I_y, P_x) is the slice at y of H^0(nu^- P_x) (``hom_vanishing_gate``).
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dynkin import Quiver
from ..errors import (
    CyclicQuiver,
    InternalMismatch,
    InvalidAlgebra,
    InvalidKupisch,
    NotSerreFormal,
    NotTriangular,
    ResolutionBoundExceeded,
)
from ..linalg import identity, vec_mat, zeros
from ..serre import ModuleTag, SerreProfile, _nu_minus_orbits, _profile
from .modules import (
    ModuleComplex,
    ModuleMap,
    RightModule,
    _kernel_at,
    _kernel_coordinates,
    _layout,
    _projective_socles,
    _top_positions,
    da_module,
    dual_module,
    projective_module,
    simple_module,
    socle_data,
    sum_of_projectives,
    top_data,
)

INFINITE = math.inf


# -- symbolic minimal projective resolutions -----------------------------------


@dataclass(frozen=True)
class Resolution:
    """terms[j] is the tuple of vertex labels of the j-th projective term;
    syms[j][r][s] is the component of the r-th generator of term j+1 inside
    summand s of term j, an element of e_{x_s} A e_{x_r} stored sparse as a
    tuple of (basis index, coefficient) pairs, or None when it is zero.
    Every level is a tuple, so a walk cannot be written and the cache hands
    its walks out as they are.  ``complete`` is False when the step bound
    was hit first.  Over A^op the same data is an injective coresolution
    over A (see the module notes)."""

    algebra: object
    terms: Tuple[Tuple[int, ...], ...]
    syms: Tuple[Tuple[tuple, ...], ...]
    complete: bool

    @property
    def length(self) -> int:
        return len(self.terms) - 1


def minimal_projective_resolution(
    alg, module: RightModule, bound: int, _resume=None, _tails=None
) -> Resolution:
    """The minimal projective resolution of M, at most bound + 1 terms.

    Each syzygy is held as {vertex: kernel basis} over the vertices where
    it is nonzero, inside a space whose vectors have images under the
    radical basis.  Step 0 holds M as the whole of its own space (the
    identity basis at each vertex, images read off M.act); every later
    syzygy stays a subspace of the previous term, a sum of the P_x (Green,
    Solberg and Zacharia, *Minimal projective resolutions*, Trans. AMS 353
    (2001)), its images computed from the structure constants.  Every step
    then runs the same loop: the top completes the span of the arrow
    images, the cover map sends basis element b of a new summand to
    (generator) . b, read off the generator's images, and its kernel is the
    next syzygy.  The inclusion is injective, so every step keeps the linear
    relations the syzygy module's own coordinates would give: same tops,
    same kernel bases, same entries.

    A syzygy, M at step 0 included, that is one vector at one vertex y with
    all its radical images zero is S_y, and the rest of the walk is the
    walk of S_y: the cover map of S_y has the same kernel basis whatever
    its one vector.  Such a checkpoint splices in the complete walk of S_y
    when ``alg.cache`` holds one, and the whole walk is then cut at the
    bound (``_cut``).  A walk that reaches its end, by itself or through a
    splice, stores its tail after each checkpoint it missed as the walk of
    that S_y, also when the bound then cuts it; a walk that hits the bound
    first stores nothing.  Walks are tuples all the way down, so the cache
    and every walk share them.  A walk of S_y over an algebra with a layer
    shift keeps the state that S_{up y} resumes from (``_resume``, which
    ``simple_resolution`` alone passes; see the module notes).  With
    ``_tails``, the terms of the walks of simples over alg by the Ext
    transpose (which ``_coresolved`` alone passes), a walk stops at its
    first simple syzygy S_y with no kept walk and ends in the terms of
    S_y, with no syms; it stores nothing and is cut at the bound."""
    simple_walks = alg.cache.setdefault("simple_walks", {})
    shift, keep = alg.layer_shift, None

    def state():  # the steps so far and the syzygy the next one starts from
        done = tuple(c for c in checkpoints if c[0] < len(terms))
        return layout, kernel, images, tuple(terms), tuple(syms), done

    if _resume is None:
        terms, syms, checkpoints = [], [], []
        # step 0: M as the whole of its own space, in no layout of a cover
        layout, dims = None, module.dims
        kernel = {u: identity(d) for u, d in enumerate(dims) if d}
        images = _kernel_images(kernel, _action_images(module))
    else:  # the steps before the state end where a fresh walk's would
        layout, kernel, images, terms, syms, checkpoints = _resume
        dims = layout[1]
        j, y = next(((k, y) for k, y in checkpoints if y in simple_walks), (len(terms), None))
        if j > bound + 1:
            return _cut(alg, tuple(terms), tuple(syms), bound)
        if y is not None:
            keep, kernel, checkpoints = state(), {}, [c for c in checkpoints if c[0] < j]
            terms, syms = terms[:j] + list(simple_walks[y][0]), syms[:j] + list(simple_walks[y][1])
    while kernel:
        (y, basis), *others = kernel.items()
        if not others and len(basis) == 1 and not any(map(any, images[y][0].values())):
            walk = simple_walks.get(y)
            if walk is None and _tails is not None:
                return _cut(alg, tuple(terms) + _tails[y], (), bound)
            if walk is not None:
                keep = keep or state()
                if layout is not None:
                    syms.append((_entries(layout, y, basis[0]),))
                terms += walk[0]
                syms += walk[1]
                break
            checkpoints.append((len(terms), y))
        if len(terms) > bound:
            return Resolution(alg, tuple(terms), tuple(syms), complete=False)
        gens = _syzygy_top(alg, kernel, images)
        if shift and keep is None and any(x not in shift[2] for x, _, _ in gens):
            keep = state()
        if layout is not None:
            syms.append(tuple(_entries(layout, x, g) for x, g, _ in gens))
        terms.append(tuple(x for x, _, _ in gens))
        layout, kernel, images = _next_syzygy(alg, dims, kernel, gens)
        dims = layout[1]
    terms, syms = tuple(terms), tuple(syms)
    for k, y in checkpoints:
        simple_walks.setdefault(y, (terms[k:], syms[k:]))
    if shift and checkpoints and checkpoints[0][0] == 0 and checkpoints[0][1] in shift[2]:
        alg.cache.setdefault("walk_states", {}).setdefault(shift[1][checkpoints[0][1]], keep or state())
    return _cut(alg, terms, syms, bound)


def simple_resolution(alg, x: int, bound: int) -> Resolution:
    """The minimal projective resolution of S_x, the walk that
    ``alg.cache`` holds cut at the bound when it holds one.  S_x is P_x,
    with no walk, when the Cartan row sum of x is 1; otherwise S_x is
    walked, from the shifted state of the walk a layer below when one is
    kept, and kept when its walk reaches its end."""
    walk = alg.cache.setdefault("simple_walks", {}).get(x)
    if walk is None and sum(alg.cartan_dims()[x]) == 1:
        walk = (((x,),), ())
    if walk is not None:
        return _cut(alg, *walk, bound)
    state = alg.cache.get("walk_states", {}).get(x)
    state = state and _shifted(alg, state)
    return minimal_projective_resolution(alg, simple_module(alg, x), bound, _resume=state)


def _transposed_tails(alg):
    """The terms of the walk of each S_y over alg.opposite() by the Ext
    transpose (module notes), or None unless every simple of alg is
    projective or kept.  Kept walks never change, so it is built once."""
    tails = alg.cache.get("transposed_tails")
    walks, cartan = alg.cache.get("simple_walks", {}), alg.cartan_dims()
    if tails is None and all(z in walks or sum(cartan[z]) == 1 for z in range(alg.nvert)):
        rows = [[] for _ in range(alg.nvert)]
        for z in range(alg.nvert):
            for i, term in enumerate(walks[z][0] if z in walks else ((z,),)):
                for y in term:
                    rows[y] += [[] for _ in range(i + 1 - len(rows[y]))]
                    rows[y][i].append(z)
        tails = alg.cache["transposed_tails"] = tuple(tuple(map(tuple, r)) for r in rows)
    return tails


def _shifted(alg, state):
    """A kept state of the walk of S_y as the state of the walk of S_{up y}
    at the same step: vertices and basis indices moved up, vectors as they
    are.  The moved cells must be those of the term: then up maps each P_x
    onto P_{up x}, and the corner check covers every product a walk reads."""
    up, vup, _ = alg.layer_shift
    layout, kernel, images, terms, syms, checkpoints = state
    terms = [tuple(vup[x] for x in term) for term in terms]
    moved = _layout(alg, terms[-1])
    if moved[2] != {vup[v]: [(j, up[b]) for j, b in cells] for v, cells in layout[2].items()}:
        raise InternalMismatch("a shifted layout is not its term's", witness=terms[-1])
    images = {vup[u]: [{up[t]: w for t, w in i.items()} for i in per] for u, per in images.items()}
    syms = [tuple(tuple(w and tuple((up[b], c) for b, c in w) for w in r) for r in s) for s in syms]
    kernel = {vup[u]: basis for u, basis in kernel.items()}
    return moved, kernel, images, terms, syms, [(k, vup[y]) for k, y in checkpoints]


def _cut(alg, terms, syms, bound) -> Resolution:
    """A complete walk as the walk at this bound returns it: whole when it
    has at most bound + 1 terms, else its first bound + 1 terms, truncated."""
    if len(terms) <= bound + 1:
        return Resolution(alg, terms, syms, complete=True)
    kept = max(bound + 1, 0)
    return Resolution(alg, terms[:kept], syms[: max(kept - 1, 0)], complete=False)


def _action_images(module: RightModule):
    """The images of a vector of M at vertex u, {t: vec . t} for the radical
    basis elements t that do not kill it, read off M.act."""
    alg = module.alg
    acting: List[list] = [[] for _ in range(alg.nvert)]
    for t, blk in module.act.items():
        u = alg.row_idem[t]
        if t != alg.idempotent_indices[u]:
            acting[u].append((t, blk))

    def images(vec, u):
        return {t: w for t, blk in acting[u] if any(w := vec_mat(vec, blk))}

    return images


def _dual_complex(alg, res: Resolution):
    """The differentials of Hom(P_bullet, regular) for a walk over
    alg.opposite(): term j is the sum of the P_x over alg at the vertices
    of term j (``_layout``), and d^j at vertex v
    sends cell (s, b) to the sum over r of w_{r,s} . b, w = res.syms[j],
    as {vertex: block}.  Over A^op an entry w_{r,s} lies in e_u A e_x for
    u, x the vertices of r and s, so a nonzero w . b lies in the slice at v
    of P_u; the offset of summand r at v is read only then, as it may have
    no slice at v."""
    layouts = [_layout(alg, term) for term in res.terms]
    pos = alg.pair_position
    diffs = []
    for j in range(len(layouts) - 1):
        (src, dims, _), (dst, into, _) = layouts[j], layouts[j + 1]
        blocks = {v: zeros(d, into[v]) for v, d in dims.items() if v in into}
        for r, row in enumerate(res.syms[j]):
            for s, w in enumerate(row):
                if w is None:
                    continue
                for v, basis in alg.slices_by_row[res.terms[j][s]]:
                    blk = blocks.get(v)
                    if blk is None:
                        continue
                    for i, b in enumerate(basis):
                        for t, c in w:
                            for k, c2 in alg.mult[t].get(b, ()):
                                blk[src[s][v] + i][dst[r][v] + pos[k]] += c * c2
        diffs.append(blocks)
    return diffs


def _layout_images(alg, layout):
    """The images of a vector of the slice at u of a sum of P_x, {t: vec . t}
    for the radical basis elements t that do not kill it, read off the
    structure constants."""
    offsets, dims, cells = layout
    pos, col, idempotents = alg.pair_position, alg.col_idem, alg.idempotent_indices

    def images(vec, u):
        out: Dict[int, list] = {}
        for p, c in enumerate(vec):
            if not c:
                continue
            j, b = cells[u][p]
            for t, prod in alg.mult[b].items():
                v = col[t]
                if t == idempotents[v]:
                    continue
                w = out.get(t)
                if w is None:
                    w = out[t] = [0] * dims[v]
                base = offsets[j][v]
                for k, c2 in prod:
                    w[base + pos[k]] += c * c2
        return out

    return images


def _kernel_images(kernel, images_of):
    """Per vertex u, the images ``images_of(k, u)`` of each kernel vector k."""
    return {u: [images_of(k, u) for k in vectors] for u, vectors in kernel.items()}


def _syzygy_top(alg, kernel, images):
    """The generators (vertex, vector, images) of a syzygy: the kernel
    vectors that complete the span of the images under the arrow basis,
    which span its radical.  The arrow set is built once per algebra."""
    arrows = alg.cache.get("arrow_set") or alg.cache.setdefault("arrow_set", set(alg.arrow_basis()))
    rad: Dict[int, list] = {}
    for per_vertex in images.values():
        for imgs in per_vertex:
            for t, w in imgs.items():
                if t in arrows:
                    rad.setdefault(alg.col_idem[t], []).append(w)
    return [
        (x, vectors[i], images[x][i])
        for x, vectors in kernel.items()
        for i in _top_positions(rad.get(x), vectors)
    ]


def _entries(layout, x, g):
    """The symbolic entries of a generator g at vertex x, a vector of a sum
    of P_x: its component in each summand j as (basis index, coefficient)
    pairs, or None."""
    cells = layout[2][x]
    row: List[list] = [[] for _ in layout[0]]
    for p, c in enumerate(g):
        if c:
            j, b = cells[p]
            row[j].append((b, c))
    return tuple(tuple(w) or None for w in row)


def _next_syzygy(alg, dims, kernel, gens):
    """(layout, {vertex: kernel basis}, {vertex: images of each basis
    vector}) of the next syzygy, the kernel of the cover map on the sum of
    the P_x over the generators' vertices: basis element b of summand r (a
    copy of e_{x_r} A) goes to (generator r) . b, read off the generator's
    images (the generator itself for b = e_{x_r}, 0 where b kills it), in
    the syzygy's space of dimensions ``dims``.  The image of each new kernel
    vector under every radical basis element must stay in the kernel: the
    submodule check of ``kernel_module``, which catches an M.act that is not
    a module action at step 0.  It runs where the kernel is a proper
    subspace of its slice: a whole slice holds every image."""
    idempotents = alg.idempotent_indices
    cover = _layout(alg, [x for x, _, _ in gens])
    data = {}
    for v in sorted(cover[1]):  # the support in vertex order, as the generators follow it
        d, rows = cover[1][v], None
        if v in kernel:
            zero = [0] * dims[v]
            rows = [
                g if b == idempotents[x] else imgs.get(b, zero)
                for x, g, imgs in gens
                for b in alg.basis_by_pair.get((x, v), ())
            ]
        data[v] = _kernel_at(d, rows)
    syzygy = {v: basis for v, (basis, _, _) in data.items() if basis}
    images = _kernel_images(syzygy, _layout_images(alg, cover))
    for per_vertex in images.values():
        for imgs in per_vertex:
            for t, w in imgs.items():
                frame = data[alg.col_idem[t]]
                if frame[2]:  # with no pivot rows the kernel is the whole slice
                    _kernel_coordinates(w, frame)
    return cover, syzygy, images


# -- injective coresolutions and the walk reader ----------------------------------


def injective_coresolution(alg, module: RightModule, bound: int) -> Resolution:
    """The minimal injective coresolution of M: the minimal projective
    resolution of DM over A^op, whose term j lists the vertices x of the
    injectives I_x = D(x-th projective over A^op)."""
    return minimal_projective_resolution(alg.opposite(), dual_module(module), bound)


def injective_projective_table(alg) -> Dict[int, Optional[int]]:
    """For each vertex x: the vertex y with P_x isomorphic to I_y, or None.
    Over alg.opposite() it is the table of I_x isomorphic to P_y, so it is
    the inverse of the table of the opposite, when that is already built."""
    if "ip_table" not in alg.cache:
        op = alg.built_opposite()
        if op is not None and "ip_table" in op.cache:
            table = dict.fromkeys(range(alg.nvert))
            table.update((y, x) for x, y in op.cache["ip_table"].items() if y is not None)
        else:
            table = {
                x: _injective_vertex(alg, socle, sum(alg.cartan_dims()[x]))
                for x, socle in enumerate(_projective_socles(alg))
            }
        alg.cache["ip_table"] = table
    return alg.cache["ip_table"]


@dataclass(frozen=True)
class AtLeast:
    """A dimension that a walk cut at its bound only bounds below: at least
    n.  It equals no int.  As text it is '>n-1', n - 1 the length of the cut
    walk (``HomologicalReport.to_json`` and the verify diffs print it)."""

    n: int

    def __str__(self):
        return f">{self.n - 1}"


def _walk_dims(res: Resolution):
    """(length, first) of a resolution: first is the index of the first term
    with a summand that is not projective-injective, or infinity.  Over A
    these are pdim and codomdim of the resolved module; for a coresolution
    (over A^op) they are idim and domdim.  A walk cut at its bound has
    length + 1 terms, all of them walked, so each value it did not reach is
    AtLeast(length + 1); no other place makes an AtLeast."""
    truncated = AtLeast(res.length + 1)
    table = injective_projective_table(res.algebra)
    first = next(
        (j for j, term in enumerate(res.terms) if any(table[x] is None for x in term)),
        INFINITE if res.complete else truncated,
    )
    return (res.length if res.complete else truncated), first


@dataclass
class ModuleHomReport:
    idim: object
    domdim: object
    pdim: object = None
    codomdim: object = None


def module_dims(alg, module: RightModule, bound: int = 64) -> ModuleHomReport:
    idim, domdim = _walk_dims(injective_coresolution(alg, module, bound))
    pdim, codom = _walk_dims(minimal_projective_resolution(alg, module, bound))
    return ModuleHomReport(idim=idim, domdim=domdim, pdim=pdim, codomdim=codom)


# -- the Nakayama functors, derived and underived ------------------------------


def nu_inverse_complex(alg, cores: Resolution):
    """The complex Hom(DA, I^bullet): term j is the sum of projectives at the
    vertices of I^j, its differentials those of ``_dual_complex``."""
    modules = [sum_of_projectives(alg, term) for term in cores.terms]
    diffs = _dual_complex(alg, cores)
    return ModuleComplex(
        modules, [ModuleMap(src, dst, d) for src, dst, d in zip(modules, modules[1:], diffs)]
    )


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


def inverse_nakayama(alg, module: RightModule) -> RightModule:
    """nu^-(M) = Hom_A(DA, M), H^0 of ``nu_inverse_complex`` on the first two
    terms of the injective coresolution of M: Hom(DA, -) is left exact, so
    nu^-(M) is the kernel of Hom(DA, I^0) -> Hom(DA, I^1)."""
    if module.is_zero():
        return module
    return nu_inverse_complex(alg, injective_coresolution(alg, module, 1)).cohomology(0)


def nakayama_functor(alg, module: RightModule) -> RightModule:
    """nu(M) = D Hom_A(M, A), computed as D nu^-_{A^op}(DM)."""
    return dual_module(inverse_nakayama(alg.opposite(), dual_module(module)))


# -- module identification --------------------------------------------------------


def identify_module(alg, module: RightModule) -> ModuleTag:
    """Tags a module as a projective P_y and/or injective I_y, both through
    ``_injective_vertex``, the one place that tests either: M is P_y
    exactly when DM is I_y over A^op, and the top of M is the socle of DM."""
    tag = []
    for side, (mults, _) in ((alg.opposite(), top_data(module)), (alg, socle_data(module))):
        y = _injective_vertex(side, mults, module.total_dim)
        tag.append(None if y is None else alg.vertex_labels[y])
    return ModuleTag(*tag, tuple(module.dims))


def _injective_vertex(alg, socle, total_dim) -> Optional[int]:
    """y when a module with these socle multiplicities and this dimension is
    I_y, else None: its socle is the simple S_y (so it embeds in I_y) and its
    dimension is that of I_y, the column sum y of the Cartan matrix."""
    support = [y for y, m in enumerate(socle) if m]
    if len(support) == 1 and socle[support[0]] == 1:
        y = support[0]
        if sum(row[y] for row in alg.cartan_dims()) == total_dim:
            return y
    return None


# -- Serre orbits -------------------------------------------------------------------


@dataclass
class OrbitWitness:
    simple: object
    power: int
    degrees: frozenset


def serre_orbit_profile(alg, horizon: int, bound: int = 64) -> SerreProfile:
    """Full Serre profile through the oracle: the nu^- orbits of the P_x over
    A, then over A^op.  Raises NotSerreFormal at the first step found with
    two nonzero cohomology degrees, its power negated on the A^op side."""
    if not alg.is_connected():
        raise InvalidAlgebra("profile requires a connected algebra")
    minus = _derived_orbits(alg, horizon, bound, 1)
    dual = _derived_orbits(alg.opposite(), horizon, bound, -1)
    return _profile(tuple(alg.vertex_labels), horizon, minus, dual, "unknown")


def _derived_orbits(alg, horizon, bound, sign):
    """The nu^- orbits of the P_x over alg, each step the one nonzero
    cohomology of the derived nu^- and its degree; an injective orbit point
    takes the fast path nu^-(I_y) = P_y."""

    def step(module, x, k):
        try:
            cohs = nu_inverse_derived(alg, module, bound)
        except ResolutionBoundExceeded as exc:
            raise ResolutionBoundExceeded(f"P_{x} power {k}: {exc}") from None
        if len(cohs) != 1:
            raise NotSerreFormal(x, sign * k, (d for d, _ in cohs))
        return cohs[0]

    proj = {label: projective_module(alg, y)[0] for y, label in enumerate(alg.vertex_labels)}
    return _nu_minus_orbits(
        alg.vertex_labels, horizon, proj, lambda m: identify_module(alg, m), step
    )


@dataclass
class SerreVerdict:
    kind: str  # "serre_formal" | "not_serre_formal" | "inconclusive"
    profile: Optional[SerreProfile] = None
    witness: Optional[OrbitWitness] = None
    reason: Optional[str] = None


def serre_formal_check(alg, horizon: Optional[int] = None, bound: int = 64) -> SerreVerdict:
    """Whether every power of the Serre functor keeps each P_x a stalk, in
    both directions (the positive one over A^op), up to the horizon (None:
    max(8, n) for n vertices: kA_n meets its injectives at power n).  The
    first steps coresolve each P_x that is not injective, which proves
    Iwanaga-Gorensteinness.  "serre_formal" needs every orbit to meet an
    injective, from where it repeats stalks already walked; else the verdict
    is "inconclusive", with the profile and a reason naming the first P_x
    whose orbit meets none, as is a walk past the bound."""
    if not alg.is_connected():
        raise InvalidAlgebra("serre_formal_check requires a connected algebra")
    horizon = max(8, alg.nvert) if horizon is None else horizon
    try:
        profile = serre_orbit_profile(alg, horizon, bound)
    except NotSerreFormal as exc:
        return SerreVerdict(
            "not_serre_formal",
            witness=OrbitWitness(exc.simple, exc.power, exc.degrees),
        )
    except ResolutionBoundExceeded as exc:
        return SerreVerdict("inconclusive", reason=str(exc))
    unhit = [x for x in profile.simples if profile.ell[x] is None]
    if unhit:
        reason = f"P_{unhit[0]} meets no injective within horizon {horizon}"
        return SerreVerdict("inconclusive", profile=profile, reason=reason)
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
            return str(v) if isinstance(v, AtLeast) else v

        return {
            "gldim": enc(self.gldim),
            "idim_right": enc(self.idim_right),
            "idim_left": enc(self.idim_left),
            "domdim": enc(self.domdim),
            "qf2": self.qf2,
            "qf3": self.qf3,
            "projective_injectives": self.projective_injectives,
        }


def _least(value):
    """The least value a dimension can have."""
    return value.n if isinstance(value, AtLeast) else value


def _max_dim(values):
    """The max of dimension values: AtLeast of the largest least value when
    one is truncated, unless an exact infinity wins."""
    top = max(map(_least, values), default=0)
    if top != INFINITE and any(isinstance(v, AtLeast) for v in values):
        return AtLeast(top)
    return top


def _min_dim(values):
    """The min of dimension values: an exact k wins over AtLeast(n) when
    k <= n, else AtLeast(n) does (the min lies in [n, k])."""
    return min(values, key=lambda v: (_least(v), isinstance(v, AtLeast)), default=0)


def _coresolved(side, bound):
    """(idim, domdim) of each P_x over this side, from its minimal injective
    coresolution.  A P_x that the table finds injective is its own
    coresolution, (0, infinity), unwalked unless the bound is negative.
    Once every simple of this side is projective or kept, each walk ends
    in the tails that the Ext transpose reads off them (module notes)."""
    table, tails = injective_projective_table(side), _transposed_tails(side)
    return [
        (0, INFINITE)
        if bound >= 0 and table[x] is not None
        else _walk_dims(
            minimal_projective_resolution(
                side.opposite(), dual_module(projective_module(side, x)[0]), bound, _tails=tails
            )
        )
        for x in range(side.nvert)
    ]


def homological_report(alg, bound: int = 64) -> HomologicalReport:
    """Right/left self-injective dimension, dominant dimension, global
    dimension and the QF flags, all by explicit minimal (co)resolutions
    (the walks of simples for gldim, then ``_coresolved`` on both sides).
    The simples go first: ``_coresolved(op)`` walks over A, the I_x that
    are not projective, and each of those walks splices the kept walk of
    S_y at its first simple syzygy S_y, and ``_coresolved(alg)`` ends in
    the tails that the Ext transpose reads off the simples of A.  When the
    simples of A^op are all projective or kept, gldim is read off their
    transpose, and no simple of A is walked."""
    op = alg.opposite()
    ip = injective_projective_table(alg)  # built first, so op's table inverts it
    tails = _transposed_tails(op)
    pdims = [
        _walk_dims(simple_resolution(alg, x, bound) if tails is None else _cut(alg, tails[x], (), bound))
        for x in range(alg.nvert)
    ]
    right = _coresolved(alg, bound)
    domdim = _min_dim([d for _, d in right])
    left = _coresolved(op, bound)
    return HomologicalReport(
        gldim=_max_dim([p for p, _ in pdims]),
        idim_right=_max_dim([i for i, _ in right]),
        idim_left=_max_dim([i for i, _ in left]),
        domdim=domdim,
        qf2=all(sum(mults) == 1 for mults in _projective_socles(alg)),
        qf3=_least(domdim) >= 1,  # AtLeast(n) with n >= 1 already proves it
        projective_injectives=[
            alg.vertex_labels[x] for x in range(alg.nvert) if ip[x] is not None
        ],
    )


def codomdim_of_dual_regular(alg, bound: int = 64):
    """codomdim(DA) via the minimal projective resolution of DA over the
    algebra itself; equals domdim(A) by Tachikawa's identity."""
    return _walk_dims(minimal_projective_resolution(alg, da_module(alg), bound))[1]


# -- Tits forms -------------------------------------------------------------------------


def tits_positive_roots(alg, entry_bound: int = 3, bound: int = 64):
    """All nonnegative integer vectors with entries <= entry_bound on which
    the Tits form of a triangular algebra takes the value 1."""
    arrows = alg.ext_quiver_arrows()
    n = alg.nvert
    try:  # triangular: the Ext-quiver has no oriented cycle, loops included
        Quiver(n, tuple((u + 1, v + 1, (1, 1)) for u, v in arrows)).topological_order()
    except CyclicQuiver:
        raise NotTriangular("the Ext-quiver has an oriented cycle") from None
    ext2 = [[0] * n for _ in range(n)]
    for x in range(n):
        res = simple_resolution(alg, x, bound)
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
    Hom(DA, eA) = 0 summandwise, P_x by P_x: Hom(DA, P_x) is H^0(nu^- P_x),
    whose dims at y are those of Hom(I_y, P_x), read off the first two
    terms of the injective coresolution of P_x."""
    ip = injective_projective_table(alg)
    e_vertices = [x for x in range(alg.nvert) if ip[x] is None]
    witness = None
    for x in e_vertices:
        cores = injective_coresolution(alg, projective_module(alg, x)[0], 1)
        homs = nu_inverse_complex(alg, cores).cohomology_dims(0)
        y = next((y for y, h in enumerate(homs) if h), None)
        if y is not None:
            witness = (alg.vertex_labels[y], alg.vertex_labels[x], homs[y])
            break
    return GateReport(
        e_vertices=[alg.vertex_labels[x] for x in e_vertices],
        gate=witness is None,
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
    """dim Ext^i(M, A) for 0 <= i <= max_i, the dims of H^i of
    Hom(P_bullet, A): the A e_x are the P_x over A^op, and phi -> phi . d
    sends a to a w, left multiplication by w over A^op, so the complex is
    ``nu_inverse_complex`` over A^op of the resolution.  Ext^max_i needs
    the map out of Hom(Q_max_i, A), so the walk goes one step past max_i
    and no further, and a walk cut before that step is refused."""
    res = minimal_projective_resolution(alg, module, min(bound, max_i + 1))
    if not res.complete and res.length <= max_i:
        raise ResolutionBoundExceeded("resolution too short for the Ext range")
    cx = nu_inverse_complex(alg.opposite(), res)
    out = [sum(cx.cohomology_dims(i)) for i in range(min(len(res.terms), max_i + 1))]
    return out + [0] * (max_i + 1 - len(out))
