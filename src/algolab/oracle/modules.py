"""Right modules over structure-constant algebras.

A module is stored per vertex: ``dims[x]`` is the dimension of M e_x, and a
basis element b in e_u A e_v acts by a block matrix M_u -> M_v (row-vector
convention).  All maps between modules are families of per-vertex blocks,
which keeps every linear-algebra step block-local.  A block takes its shape
from the dims of its modules, never from its rows (one with no rows has no
width): ``block`` gives what is not stored as zeros, or an idempotent's
identity, a ``ModuleMap`` stores only blocks with a nonzero entry, and each
product is told its width (``mat_mul``'s cols).

Every sum of indecomposable projectives is laid out by ``_layout``, and
``sum_of_projectives`` builds it as a module once per algebra and term:
P_x is the term (x,), A the term of all vertices, and the terms of
Hom(DA, I^bullet) those of the coresolution.  The walk lays out its covers
the same way, so its entries and the maps read off them share coordinates.

Kernels, quotients and each H^i of a ``ModuleComplex`` come from
``_subquotient``, one elimination per vertex, whose basis is the kernel
basis vectors off the pivots of the images' echelon form.
"""

from typing import Dict, List, Sequence, Tuple

from ..errors import InternalMismatch, InvalidParams
from ..linalg import (
    RowSolver,
    _scaled,
    identity,
    mat_mul,
    rank,
    transpose,
    vec_mat,
    zeros,
)


class RightModule:
    def __init__(self, alg, dims, act):
        self.alg = alg
        self.dims = tuple(dims)
        # act[t]: block matrix of size dims[row_idem[t]] x dims[col_idem[t]]
        self.act = {t: blk for t, blk in act.items() if blk}

    @property
    def total_dim(self):
        return sum(self.dims)

    def is_zero(self):
        return self.total_dim == 0

    def block(self, t):
        """Action block of basis element t, a dims[u] x dims[v] matrix."""
        if t in self.act:
            return self.act[t]
        u, v = self.alg.row_idem[t], self.alg.col_idem[t]
        if t == self.alg.idempotent_indices[u]:
            return identity(self.dims[u])
        return zeros(self.dims[u], self.dims[v])

    def verify(self):
        """Action respects the multiplication tensor: rho(a) rho(b) agrees
        with the tensor expansion of ab for every composing basis pair."""
        alg = self.alg
        for i, j in ((i, j) for i in range(alg.dim) for j in alg.basis_by_row[alg.col_idem[i]]):
            u, v = alg.row_idem[i], alg.col_idem[j]
            lhs = mat_mul(self.block(i), self.block(j), self.dims[v])
            rhs = zeros(self.dims[u], self.dims[v])
            for k, c in alg.product_of_basis(i, j):
                blk = self.block(k)
                for r in range(self.dims[u]):
                    for s in range(self.dims[v]):
                        rhs[r][s] += c * blk[r][s]
            if lhs != rhs:
                raise InvalidParams(
                    f"module action violates the tensor at pair "
                    f"({alg.labels[i]}, {alg.labels[j]})"
                )
        return True


class ModuleMap:
    """A module map as per-vertex blocks, stored only where a block has a
    nonzero entry; ``block`` gives the others as zeros of their shape."""

    def __init__(self, source, target, blocks):
        self.source = source
        self.target = target
        self.blocks = {x: blk for x, blk in blocks.items() if any(map(any, blk))}

    def block(self, x):
        return self.blocks.get(x) or zeros(self.source.dims[x], self.target.dims[x])

    def compose(self, other):
        """self then other, multiplied at the vertices where both store a
        block; the product is as wide as other's target there."""
        dims = other.target.dims
        return ModuleMap(self.source, other.target, {
            x: mat_mul(blk, other.blocks[x], dims[x])
            for x, blk in self.blocks.items() if x in other.blocks
        })

    def is_zero(self):
        return not self.blocks


# -- constructions of standard modules -----------------------------------------


def projective_module(alg, x) -> Tuple[RightModule, List[Sequence[int]]]:
    """P_x = e_x A, the sum of projectives over the term (x,).  Also returns,
    per vertex v, the list of algebra basis indices spanning e_x A e_v (the
    coordinate order of the module basis)."""
    basis_at = [alg.basis_by_pair.get((x, v), ()) for v in range(alg.nvert)]
    return sum_of_projectives(alg, (x,)), basis_at


def _layout(alg, term):
    """(offsets, dims, cells) of the sum of the P_x over a term, the one
    layout of such sums, summands in the term's order: offsets[j][v] is
    where summand j starts in the slice at v (given where that slice of
    summand j is nonzero), and cells[v][p] = (j, b) says that coordinate p
    of that slice is basis element b of summand j.  dims and cells are dicts
    over the support only, the vertices where the sum is nonzero."""
    dims: Dict[int, int] = {}
    offsets = []
    cells: Dict[int, list] = {}
    for j, x in enumerate(term):
        starts = {}
        for v, basis in alg.slices_by_row[x]:
            start = starts[v] = dims.get(v, 0)
            dims[v] = start + len(basis)
            cells.setdefault(v, []).extend([(j, b) for b in basis])
        offsets.append(starts)
    return offsets, dims, cells


def sum_of_projectives(alg, term: Tuple[int, ...]) -> RightModule:
    """The sum of the P_x over a term, laid out by ``_layout``: t sends cell
    (j, b) to b t in summand j, read off the structure constants.  Built
    once per algebra and term, in ``alg.cache``, its blocks shared by every
    module returned; no caller writes to them."""
    key = ("projectives", term)
    if key not in alg.cache:
        offsets, support, cells = _layout(alg, term)
        dims = tuple(support.get(v, 0) for v in range(alg.nvert))
        pos, col = alg.pair_position, alg.col_idem
        act: Dict[int, list] = {}
        for u, slice_cells in cells.items():
            for p, (j, b) in enumerate(slice_cells):
                for t, prod in alg.mult[b].items():
                    for k, c in prod:
                        if c:
                            blk = act.get(t) or act.setdefault(t, zeros(dims[u], dims[col[t]]))
                            blk[p][offsets[j][col[t]] + pos[k]] += c
        alg.cache[key] = dims, act
    dims, act = alg.cache[key]
    return RightModule(alg, dims, act)


def simple_module(alg, x) -> RightModule:
    dims = tuple(1 if v == x else 0 for v in range(alg.nvert))
    act = {}
    return RightModule(alg, dims, act)


def regular_module(alg) -> RightModule:
    """A as a right module over itself, the sum of the P_x in vertex order."""
    return sum_of_projectives(alg, tuple(range(alg.nvert)))


def dual_module(m: RightModule) -> RightModule:
    """D(M) as a right module over the opposite algebra: same graded
    dimensions, transposed action blocks."""
    return RightModule(m.alg.opposite(), m.dims, {t: transpose(blk) for t, blk in m.act.items()})


def injective_module(alg, x) -> RightModule:
    """I_x = D(A e_x) = the dual of the projective at x over the opposite."""
    p, _ = projective_module(alg.opposite(), x)
    return dual_module(p)


def da_module(alg) -> RightModule:
    """DA as a right A-module (the dual of the regular module of the
    opposite algebra)."""
    return dual_module(regular_module(alg.opposite()))


# -- kernels, quotients, socles, tops -------------------------------------------


def top_data(m: RightModule):
    """(multiplicities per vertex, generator vectors per vertex): generators
    are coordinate vectors of M at the vertex completing M rad to M.  M rad
    is spanned by the images under the arrow basis alone."""
    alg = m.alg
    rad = [[] for _ in range(alg.nvert)]
    for t in alg.arrow_basis():
        blk = m.act.get(t)
        if blk is not None:
            rad[alg.col_idem[t]].extend(row for row in blk if any(row))
    gens = []
    for rows, d in zip(rad, m.dims):
        unit = identity(d)
        gens.append([unit[i] for i in _top_positions(rows, unit)])
    return [len(g) for g in gens], gens


def _top_positions(rad, candidates):
    """The positions of the candidates that leave the span of the radical
    rows rad and of the candidates kept before them: where a top completes
    the radical.  The candidates are independent, so with no radical row
    every one is kept.  ``top_data`` and the resolution walk both decide a
    top here; at width 1 without a ``RowSolver``, with the same result."""
    if not rad:
        return range(len(candidates))
    if len(rad[0]) == 1:  # the radical is 0 or the whole line
        kept = [] if any(row[0] for row in rad) else [i for i, g in enumerate(candidates) if g[0]]
        return kept[:1]
    solver = RowSolver(rad, len(rad[0]))
    return [i for i, g in enumerate(candidates) if solver.add(g)]


def socle_data(m: RightModule):
    """(multiplicities per vertex, socle basis per vertex): vectors killed by
    every radical basis element, that is by every element of the arrow
    basis."""
    alg = m.alg
    blocks = [[] for _ in range(alg.nvert)]
    for t in alg.arrow_basis():
        blk = m.act.get(t)
        if blk is not None:
            blocks[alg.row_idem[t]].append(blk)
    basis = [
        _kernel_at(d, [sum((blk[i] for blk in blks), []) for i in range(d)])[0]
        for blks, d in zip(blocks, m.dims)
    ]
    return [len(b) for b in basis], basis


def _projective_socles(alg):
    """The socle multiplicities of each P_x, those ``socle_data`` gives for
    ``projective_module(alg, x)``, with no P_x built; kept in ``alg.cache``."""
    if "socles" not in alg.cache:
        arrows_at: List[list] = [[] for _ in range(alg.nvert)]
        for t in alg.arrow_basis():
            arrows_at[alg.row_idem[t]].append(t)
        alg.cache["socles"] = [_projective_socle(alg, x, arrows_at) for x in range(alg.nvert)]
    return alg.cache["socles"]


def _projective_socle(alg, x, arrows_at):
    """The socle multiplicities of P_x, read off the structure constants and
    not off a built module: soc(e_x A) at v is the kernel of b -> (b t over
    the arrows t in arrows_at[v]), for b in e_x A e_v."""
    pos = alg.pair_position
    mults = [0] * alg.nvert
    for v, basis in alg.slices_by_row[x]:
        starts, width = [], 0
        for t in arrows_at[v]:
            starts.append((t, width))
            width += len(alg.basis_by_pair.get((x, alg.col_idem[t]), ()))
        rows = []
        for b in basis:
            row = [0] * width
            products = alg.mult[b]
            for t, start in starts:
                for k, c in products.get(t, ()):
                    row[start + pos[k]] += c
            rows.append(row)
        mults[v] = len(_kernel_at(len(basis), rows)[0])
    return mults


def kernel_module(m: RightModule, blocks):
    """(module, inclusion map) of the kernel of the module map ``blocks`` out
    of m, on ``_kernel_at``'s basis (blocks[x] has m.dims[x] rows, or is 0)."""
    sub, reps, _ = _subquotient(m, blocks, {})
    return sub, ModuleMap(sub, m, dict(enumerate(reps)))


def quotient_module(m: RightModule, sub_vectors_per_vertex):
    """M / span(sub vectors), on the unit vectors at the columns that are not
    pivots of the span's echelon form.  Returns (module, projection map)."""
    quot, _, frames = _subquotient(m, {}, dict(enumerate(sub_vectors_per_vertex)))
    return quot, ModuleMap(m, quot, {
        x: [_quotient_coordinates(e, frames[x]) for e in identity(d)]
        for x, d in enumerate(m.dims)
    })


def _subquotient(m: RightModule, blocks, images):
    """ker(blocks) / span(images) as (module, representatives, frames):
    blocks as for ``kernel_module``, images[x] vectors of M at x that must
    lie in the kernel (else InternalMismatch with the witness (x, vec)).
    At each vertex the kernel basis is ``_kernel_at``'s, and one
    ``RowSolver`` takes the images, in its coordinates, to echelon form.
    The quotient's basis is the kernel basis vectors at the other columns,
    representatives[x] in M's coordinates, and ``_quotient_coordinates``
    reads a vector off its residue, so no transform is expanded."""
    frames = []
    for x, d in enumerate(m.dims):
        kernel = _kernel_at(d, blocks.get(x))
        rows = []
        for vec in filter(any, images.get(x, ())):
            try:
                rows.append(_kernel_coordinates(vec, kernel))
            except InvalidParams:
                raise InternalMismatch("image is not in the kernel", witness=(x, vec)) from None
        solver = RowSolver(rows, len(kernel[0])) if rows else None
        pivots = solver.pivots if rows else ()
        frames.append((kernel, solver, [i for i in range(len(kernel[0])) if i not in pivots]))
    reps = [[kernel[0][i] for i in kept] for kernel, _, kept in frames]
    act = {}
    for t, blk in m.act.items():
        u, v = m.alg.row_idem[t], m.alg.col_idem[t]
        if reps[u]:  # a kernel of 0 at v still checks the images
            q_blk = [_quotient_coordinates(vec_mat(r, blk), frames[v]) for r in reps[u]]
            if any(map(any, q_blk)):
                act[t] = q_blk
    return RightModule(m.alg, [len(r) for r in reps], act), reps, frames


def _quotient_coordinates(w, frame):
    """The coordinates in a ``_subquotient`` of a vector w of the kernel:
    its residue against the images, at the columns that are not pivots."""
    kernel, solver, kept = frame
    coords = _kernel_coordinates(w, kernel)
    residue = solver.residue(coords) if solver else coords
    return [residue[i] for i in kept]


def _kernel_at(d, rows):
    """(basis, dependent rows, pivot rows) of the left kernel of ``rows``, d
    of them; no rows, or rows of length 0, leave the whole space.  The basis
    is ``RowSolver.kernel()``'s: 1 at its own dependent row and 0 at the
    other dependent rows, so a kernel vector's coordinates are its entries
    at the dependent rows and its residue shows only at the pivot rows.  One
    row or one column is decided without a ``RowSolver``, to the same result."""
    if not d:
        return [], [], []
    if not rows or not rows[0]:
        return identity(d), list(range(d)), []
    if d == 1:  # one row: a pivot row, or the whole line when it is 0
        return ([], [], [0]) if any(rows[0]) else ([[1]], [0], [])
    if len(rows[0]) == 1:  # one column: the first nonzero row is the pivot
        basis, p = identity(d), next((i for i, row in enumerate(rows) if row[0]), None)
        if p is None:
            return basis, list(range(d)), []
        inv = _scaled([(p, 1)], rows[p][0])[0][1]  # 1 / pivot, as RowSolver scales it
        for k, row in zip(basis[p + 1 :], rows[p + 1 :]):
            k[p] = -row[0] * inv if row[0] else 0
        return basis[:p] + basis[p + 1 :], [i for i in range(d) if i != p], [p]
    solver = RowSolver(rows, len(rows[0]))
    indep = set(solver.independent)
    return solver.kernel(), [i for i in range(d) if i not in indep], solver.independent


def _kernel_coordinates(w, kernel):
    """The coordinates of w over a ``_kernel_at`` basis; InvalidParams when w
    is outside the kernel, which for the image of a kernel vector under a
    basis element means the kernel is not a submodule."""
    basis, free, pivots = kernel
    coeffs = [w[i] for i in free]
    residue = [w[i] for i in pivots]
    for c, k in zip(coeffs, basis):
        if c:
            for r, i in enumerate(pivots):
                residue[r] -= c * k[i]
    if any(residue):
        raise InvalidParams("subspace is not action-closed")
    return coeffs


# -- hom spaces ------------------------------------------------------------------


def hom_space(m: RightModule, n: RightModule) -> List[ModuleMap]:
    """Basis of Hom_A(M, N) by solving the per-arrow commutation equations
    over all algebra basis elements."""
    alg = m.alg
    nv = alg.nvert
    # unknown layout: per vertex x, a dims_m[x] x dims_n[x] block
    offsets = []
    total = 0
    for x in range(nv):
        offsets.append(total)
        total += m.dims[x] * n.dims[x]
    if total == 0:
        return []

    def var(x, i, j):
        return offsets[x] + i * n.dims[x] + j

    rows = []
    for t in range(alg.dim):
        u, v = alg.row_idem[t], alg.col_idem[t]
        if t == alg.idempotent_indices[u]:
            continue
        mb = m.block(t)
        nb = n.block(t)
        # act_m[t] . phi_v = phi_u . act_n[t]  (blocks M_u x N_v)
        for i in range(m.dims[u]):
            for j in range(n.dims[v]):
                row = [0] * total
                any_entry = False
                for k in range(m.dims[v]):
                    if mb[i][k]:
                        row[var(v, k, j)] += mb[i][k]
                        any_entry = True
                for k in range(n.dims[u]):
                    if nb[k][j]:
                        row[var(u, i, k)] -= nb[k][j]
                        any_entry = True
                if any_entry:
                    rows.append(row)
    if rows:
        sols = RowSolver(transpose(rows), len(rows)).kernel()
    else:
        sols = identity(total)
    return [
        ModuleMap(m, n, {
            x: [[sol[var(x, i, j)] for j in range(n.dims[x])] for i in range(m.dims[x])]
            for x in range(nv)
        })
        for sol in sols
    ]


# -- complexes --------------------------------------------------------------------


class ModuleComplex:
    """A bounded complex; modules[i] sits in degree i."""

    def __init__(self, modules, diffs):
        self.modules = list(modules)
        self.diffs = list(diffs)  # diffs[i]: modules[i] -> modules[i+1]
        if len(self.diffs) != max(len(self.modules) - 1, 0):
            raise InvalidParams("differential count mismatch")
        for i, d in enumerate(self.diffs):
            if d.source is not self.modules[i] or d.target is not self.modules[i + 1]:
                raise InvalidParams("differential endpoints mismatch")
        for i in range(len(self.diffs) - 1):
            if not self.diffs[i].compose(self.diffs[i + 1]).is_zero():
                raise InvalidParams("d^2 != 0")
        self._ranks = {}  # i: the per-vertex ranks of diffs[i], each taken once

    def cohomology_dims(self, index):
        """The per-vertex dims of H^index: the term's dims less the ranks of
        the blocks of the differentials out of it and into it."""
        dims = list(self.modules[index].dims)
        for i in range(max(index - 1, 0), min(index + 1, len(self.diffs))):
            if i not in self._ranks:
                self._ranks[i] = {x: rank(blk) for x, blk in self.diffs[i].blocks.items()}
            for x, r in self._ranks[i].items():
                dims[x] -= r
        return tuple(dims)

    def cohomology(self, index):
        """H^index as a module: the kernel of the differential out of it
        modulo the image of the one into it, in one ``_subquotient``."""
        out = self.diffs[index].blocks if index < len(self.diffs) else {}
        into = self.diffs[index - 1].blocks if index else {}
        return _subquotient(self.modules[index], out, into)[0]

    def nonzero_cohomology(self):
        """[(degree, H^degree)] over the degrees whose cohomology dims are
        not all zero; only those are built as modules."""
        degrees = range(len(self.modules))
        return [(i, self.cohomology(i)) for i in degrees if any(self.cohomology_dims(i))]
