"""Finite-dimensional algebras over the rationals given by structure constants.

The carrier type keeps, besides the multiplication tensor, a complete set of
orthogonal primitive idempotents and the induced two-sided grading of the
basis (every basis element b satisfies e_u b e_v = b for a unique pair).
All constructors in this package (bound quiver compilation, replication,
idempotent truncation, opposites) produce graded bases, which is what makes
the module-category computations block-local and fast.
"""

import random
import weakref
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from ..errors import (
    InfiniteDimensional,
    InternalMismatch,
    InvalidAlgebra,
    InvalidParams,
)
from ..linalg import RowSolver, rref

FULL_ASSOC_CHECK_DIM = 48


class StructureConstantAlgebra:
    """A basic algebra with a graded basis.

    mult[i][j] is the sparse product b_i * b_j as a tuple of (k, coeff);
    idempotent_indices name the basis elements that are the primitive
    idempotents, whose sum is the unit.  The constructor grades the basis
    and checks associativity on every composing triple up to dimension
    FULL_ASSOC_CHECK_DIM and on sampled triples above it; ``opposite()``
    transposes a checked algebra and repeats no check its source covers.
    """

    def __init__(self, labels, mult, idempotent_indices):
        self._store(labels, mult, idempotent_indices)
        self._grade_basis()
        self._index_blocks()
        self.verify_structure(full=self.dim <= FULL_ASSOC_CHECK_DIM)

    def _store(self, labels, mult, idempotent_indices):
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.mult: List[Dict[int, Tuple[Tuple[int, object], ...]]] = [
            {j: tuple(pairs) for j, pairs in row.items() if pairs} for row in mult
        ]
        self.idempotent_indices = tuple(idempotent_indices)
        self.nvert = len(self.idempotent_indices)
        self.vertex_labels = tuple(self.labels[t] for t in self.idempotent_indices)
        self._vertex_of_idem = {t: v for v, t in enumerate(self.idempotent_indices)}
        # the opposite algebra; an opposite holds a weak reference back, so
        # the pair makes no reference cycle
        self._opposite = None
        # derived data that the module code computes once per algebra (the
        # blocks of each sum of projectives by term, P_x being (x,), the
        # socles, the injective-projective table, the arrow basis, the walks
        # of simples); it holds no reference back, so refcount frees the algebra
        self.cache = {}

    @classmethod
    def _transpose_of(cls, src):
        """A^op for a checked A, which it refers to weakly: A's products
        reversed, its grading swapped.  A^op is associative exactly when A
        is, so it samples its own triples only where A's pass was sampled."""
        op = cls.__new__(cls)
        op._store(src.labels, [{} for _ in range(src.dim)], src.idempotent_indices)
        for i, products in enumerate(src.mult):
            for j, pairs in products.items():
                op.mult[j][i] = pairs
        op.row_idem, op.col_idem, op.radical_indices = src.col_idem, src.row_idem, src.radical_indices
        op._index_blocks()
        if op.dim > FULL_ASSOC_CHECK_DIM:
            op.verify_structure(full=False)
        op._opposite = weakref.ref(src)
        return op

    # -- construction-time checks -------------------------------------------

    def _grade_basis(self):
        """row_idem[t] = u and col_idem[t] = v for e_u b_t e_v = b_t, read off
        the idempotents' own products mult[e] and the idempotent keys of mult[t]."""
        row = [None] * self.dim
        col = [None] * self.dim
        for v, e in enumerate(self.idempotent_indices):
            for t, prod in self.mult[e].items():
                if prod != ((t, 1),):
                    raise InvalidAlgebra(f"basis element {self.labels[t]} is not left-graded")
                if row[t] is not None:
                    raise InvalidAlgebra("idempotents are not orthogonal")
                row[t] = v
        for t, products in enumerate(self.mult):
            for e, prod in products.items():
                v = self._vertex_of_idem.get(e)
                if v is None:
                    continue
                if prod != ((t, 1),):
                    raise InvalidAlgebra(f"basis element {self.labels[t]} is not right-graded")
                if col[t] is not None:
                    raise InvalidAlgebra("idempotents are not orthogonal")
                col[t] = v
        if None in row or None in col:
            raise InvalidAlgebra("basis is not graded by the idempotents")
        self.row_idem = tuple(row)
        self.col_idem = tuple(col)
        self.radical_indices = tuple(
            t for t in range(self.dim) if t not in self._vertex_of_idem
        )
        # the span of the non-idempotent basis must be an ideal (basic algebra
        # with a radical-graded basis): no product may have an idempotent
        # coordinate unless both factors are that idempotent
        for i in range(self.dim):
            for j, pairs in self.mult[i].items():
                for k, coeff in pairs:
                    if coeff and k in self._vertex_of_idem and (i != k or j != k):
                        raise InvalidAlgebra(
                            "the non-idempotent basis does not span an ideal"
                        )

    def _index_blocks(self):
        self.basis_by_row: List[List[int]] = [[] for _ in range(self.nvert)]
        self.basis_by_pair: Dict[Tuple[int, int], List[int]] = {}
        # the index of each basis element in its basis_by_pair list, which is
        # its coordinate in e_u A e_v and in the slice of P_u at v
        position = []
        for t in range(self.dim):
            u, v = self.row_idem[t], self.col_idem[t]
            self.basis_by_row[u].append(t)
            pair = self.basis_by_pair.setdefault((u, v), [])
            position.append(len(pair))
            pair.append(t)
        self.pair_position = tuple(position)
        # per vertex u, the nonzero slices (v, basis of e_u A e_v) of P_u
        self.slices_by_row: List[List[Tuple[int, List[int]]]] = [
            [] for _ in range(self.nvert)
        ]
        for (u, v), basis in self.basis_by_pair.items():
            self.slices_by_row[u].append((v, basis))

    def verify_structure(self, full=True):
        """Unit laws always; associativity on the basis triples that compose,
        all of them when ``full`` else 200 random ones (seed 7): i uniform,
        then j among the b_j in e_v A for b_i in A e_v, then k likewise after
        j.  The full check first makes sure that every product is graded:
        b_i b_j lies in e_u A e_v for b_i in e_u A and b_j in A e_v, and is
        zero unless b_i and b_j compose.  Both sides then vanish on every
        triple that does not compose, so only the triples that do are run."""
        for t in range(self.dim):
            u, v = self.row_idem[t], self.col_idem[t]
            e_u, e_v = self.idempotent_indices[u], self.idempotent_indices[v]
            if self.mult[e_u].get(t, ()) == () or self.mult[t].get(e_v, ()) == ():
                raise InvalidAlgebra("unit law fails")
        if full:
            self._check_graded_products()
            by_row = self.basis_by_row
            triples = (
                (i, j, k)
                for i in range(self.dim)
                for j in by_row[self.col_idem[i]]
                for k in by_row[self.col_idem[j]]
            )
        else:
            rng = random.Random(7)
            by_row, col = self.basis_by_row, self.col_idem
            triples = []
            for _ in range(200):
                i = rng.randrange(self.dim)
                j = rng.choice(by_row[col[i]])
                triples.append((i, j, rng.choice(by_row[col[j]])))
        for i, j, k in triples:
            left = self._assoc_side(self.mult[i].get(j, ()), k, right=True)
            right = self._assoc_side(self.mult[j].get(k, ()), i, right=False)
            if left != right:
                raise InvalidAlgebra(
                    f"associativity fails on ({self.labels[i]}, {self.labels[j]}, "
                    f"{self.labels[k]})"
                )

    def _check_graded_products(self):
        row, col = self.row_idem, self.col_idem
        for i, products in enumerate(self.mult):
            for j, pairs in products.items():
                for k, c in pairs:
                    if c and (col[i] != row[j] or row[k] != row[i] or col[k] != col[j]):
                        raise InvalidAlgebra(
                            f"product ({self.labels[i]}, {self.labels[j]}) is not graded"
                        )

    def _assoc_side(self, pairs, other, right):
        acc: Dict[int, object] = {}
        for t, c in pairs:
            prod = self.mult[t].get(other, ()) if right else self.mult[other].get(t, ())
            for k, c2 in prod:
                acc[k] = acc.get(k, 0) + c * c2
        return {k: v for k, v in acc.items() if v}

    # -- basic structure -----------------------------------------------------

    def unit_coordinates(self):
        u = [0] * self.dim
        for t in self.idempotent_indices:
            u[t] = 1
        return u

    def product_of_basis(self, i, j):
        return self.mult[i].get(j, ())

    def opposite(self) -> "StructureConstantAlgebra":
        """A^op, built once; rebuilt on an opposite whose source is gone."""
        op = self.built_opposite()
        if op is None:
            op = self._opposite = self._transpose_of(self)
        return op

    def built_opposite(self):
        """A^op if it has been built and is still alive, else None."""
        op = self._opposite
        return op() if isinstance(op, weakref.ref) else op

    def cartan_dims(self):
        """dim e_u A e_v as a matrix over the vertices.  Built once, in
        ``cache``; no caller writes to it."""
        if "cartan" not in self.cache:
            out = [[0] * self.nvert for _ in range(self.nvert)]
            for (u, v), basis in self.basis_by_pair.items():
                out[u][v] = len(basis)
            self.cache["cartan"] = out
        return self.cache["cartan"]

    def arrow_basis(self) -> Tuple[int, ...]:
        """The radical basis elements whose classes form a basis of
        rad/rad^2: in each e_u rad e_v, in index order, those outside the
        span of rad^2 and of the ones picked before them.  They generate the
        radical, so M rad is the sum of the M t over them and the socle is
        what they all kill.  Built once, in ``cache``, and taken from the
        built opposite when that holds it: e_u A^op e_v is e_v A e_u with
        the same index order, and rad^2 is the same subspace on both sides."""
        if "arrows" not in self.cache:
            op = self.built_opposite()
            if op is not None and "arrows" in op.cache:
                self.cache["arrows"] = op.cache["arrows"]
                return self.cache["arrows"]
            pos = self.pair_position
            squares: Dict[Tuple[int, int], Dict[tuple, None]] = {}  # distinct: only the span counts
            for i in self.radical_indices:
                for j, pairs in self.mult[i].items():
                    if j in self._vertex_of_idem:
                        continue
                    key = (self.row_idem[i], self.col_idem[j])
                    vec = [0] * len(self.basis_by_pair[key])
                    for k, c in pairs:
                        vec[pos[k]] += c
                    squares.setdefault(key, {})[tuple(vec)] = None
            solvers: Dict[Tuple[int, int], RowSolver] = {}
            arrows = []
            for t in self.radical_indices:
                key = (self.row_idem[t], self.col_idem[t])
                n = len(self.basis_by_pair[key])
                if key not in solvers:
                    solvers[key] = RowSolver(list(squares.get(key, ())), n)
                unit = [0] * n
                unit[pos[t]] = 1
                if solvers[key].add(unit):
                    arrows.append(t)
            self.cache["arrows"] = tuple(arrows)
        return self.cache["arrows"]

    def ext_quiver_arrows(self):
        """dim e_u (rad/rad^2) e_v for each vertex pair."""
        arrows: Dict[Tuple[int, int], int] = {}
        for t in self.arrow_basis():
            key = (self.row_idem[t], self.col_idem[t])
            arrows[key] = arrows.get(key, 0) + 1
        return arrows

    def is_connected(self) -> bool:
        if self.nvert == 0:
            return False
        adj = {v: set() for v in range(self.nvert)}
        # the pairs (u, u) of the idempotents add only loops
        for (u, v) in self.basis_by_pair:
            adj[u].add(v)
            adj[v].add(u)
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == self.nvert

    # -- serialization -------------------------------------------------------

    def to_json(self):
        entries = []
        for i in range(self.dim):
            for j, pairs in self.mult[i].items():
                for k, c in pairs:
                    entries.append([i, j, k, str(Fraction(c))])
        return {
            "dim": self.dim,
            "labels": self.labels,
            "idempotents": list(self.idempotent_indices),
            "unit": [str(Fraction(x)) for x in self.unit_coordinates()],
            "mult": entries,
        }

    @classmethod
    def from_json(cls, data):
        dim = data["dim"]
        mult = [dict() for _ in range(dim)]
        acc: Dict[Tuple[int, int], List[Tuple[int, Fraction]]] = {}
        for i, j, k, c in data["mult"]:
            acc.setdefault((i, j), []).append((k, _exact(Fraction(c))))
        for (i, j), pairs in acc.items():
            mult[i][j] = tuple(pairs)
        return cls(data["labels"], mult, data["idempotents"])

    def __repr__(self):
        return f"<algebra dim={self.dim} vertices={self.nvert}>"


# -- bound quiver presentations ----------------------------------------------


class QuiverPresentation:
    """A quiver with relations.  Vertices are 1..n; arrows are named; every
    relation is a linear combination of parallel paths of equal length,
    given as (coeff, tuple-of-arrow-names); ``max_path_length`` kills all
    paths of at least that length."""

    def __init__(self, n, arrows, relations=(), max_path_length=None):
        for what, value in (("vertex count", n), ("max_path_length", max_path_length)):
            if value is not None and value < 1:
                raise InvalidParams(f"{what} {value} is not at least 1")
        self.n = n
        self.arrows = list(arrows)  # (name, src, tgt)
        for name, src, tgt in self.arrows:
            if not (1 <= src <= n and 1 <= tgt <= n):
                raise InvalidParams(f"arrow {name!r} {src}->{tgt} has an end outside 1..{n}")
        self.names = {name: (src, tgt) for name, src, tgt in self.arrows}
        if len(self.names) != len(self.arrows):
            raise InvalidParams("duplicate arrow names")
        self.relations = [tuple(rel) for rel in relations]
        self.max_path_length = max_path_length
        for rel in self.relations:
            paths = [p for _, p in rel]
            ends = {self._path_ends(p) for p in paths}
            lengths = {len(p) for p in paths}
            if len(ends) != 1 or len(lengths) != 1:
                raise InvalidParams(
                    "relations must combine parallel paths of equal length"
                )

    def _path_ends(self, path):
        ends = [self.names.get(name) for name in path]
        for name, end in zip(path, ends):
            if end is None:
                raise InvalidParams(f"unknown arrow {name!r} in path {path}")
        if any(a[1] != b[0] for a, b in zip(ends, ends[1:])):
            raise InvalidParams(f"path {path} is not composable")
        return ends[0][0], ends[-1][1]


def parse_presentation(text: str) -> QuiverPresentation:
    """Parses the textual format::

        vertices: 3; arrows: a:1->2; b:2->3; relations: a*b; len>=4
    """
    mode = None
    n = 0
    arrows = []
    relations = []
    maxlen = None
    for chunk in text.replace("\n", ";").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        low = chunk.lower()
        for key in ("vertices", "arrows", "relations"):
            if low.startswith(key + ":"):
                mode = key
                chunk = chunk[len(key) + 1 :].strip()
                break
        if not chunk:
            continue
        try:  # every malformed chunk ends here as a ValueError
            if mode == "vertices":
                n = int(chunk)
            elif mode == "arrows":
                name, spec = chunk.split(":")
                src, tgt = spec.split("->")
                arrows.append((name.strip(), int(src), int(tgt)))
            elif mode == "relations" and chunk.replace(" ", "").startswith("len>="):
                maxlen = int(chunk.replace(" ", "")[5:])
            elif mode == "relations":
                relations.append(_parse_relation(chunk))
            else:
                raise ValueError
        except ValueError:
            raise InvalidParams(f"cannot parse presentation chunk {chunk!r}") from None
    if n == 0:
        if not arrows:
            raise InvalidParams("the presentation has no vertices and no arrows")
        n = max(max(s, t) for _, s, t in arrows)
    return QuiverPresentation(n, arrows, relations, maxlen)


def _parse_relation(text):
    terms = []
    token = ""
    sign = 1
    pieces = []
    for ch in text:
        if ch in "+-":
            if token.strip():
                pieces.append((sign, token.strip()))
            token = ""
            sign = 1 if ch == "+" else -1
        else:
            token += ch
    if token.strip():
        pieces.append((sign, token.strip()))
    for sign, piece in pieces:
        coeff = sign
        parts = [p.strip() for p in piece.split("*")]
        if parts[0].lstrip("-").isdigit():
            coeff *= int(parts[0])
            parts = parts[1:]
        if not parts:
            raise ValueError  # a coefficient with no path
        terms.append((coeff, tuple(parts)))
    return tuple(terms)


def _exact(c: Fraction):
    """c as an int when integral: an integral algebra keeps int constants."""
    return c.numerator if c.denominator == 1 else c


def compile_bound_quiver(pres: QuiverPresentation, degree_bound: int = 64) -> StructureConstantAlgebra:
    """Compiles a bound quiver presentation to structure constants.

    Path classes are computed degree by degree.  Degree-d paths are
    represented in the coordinate space spanned by (basis class of degree
    d-1) * arrow; any path is rewritten into these coordinates by reducing
    its length-(d-1) prefix.  The ideal slice in degree d is spanned by the
    rewritten degree-d relations together with the rewritten left arrow
    extensions of the previous slice; basis classes are the non-pivot
    coordinates of its row reduction.  Compilation stops when a degree
    contributes no classes; exceeding ``degree_bound`` raises
    InfiniteDimensional.
    """
    n = pres.n
    arrows = pres.arrows
    arrow_ends = pres.names

    def path_ends(path):
        return arrow_ends[path[0]][0], arrow_ends[path[-1]][1]

    relations_by_deg: Dict[int, List[tuple]] = {}
    for rel in pres.relations:
        d = len(rel[0][1])
        relations_by_deg.setdefault(d, []).append(rel)

    # reduction[path] (paths of the coordinate spaces only) = dict of
    # basis_path -> coeff; class_memo extends it to arbitrary paths
    reduction: Dict[tuple, Dict[tuple, object]] = {}
    class_memo: Dict[tuple, Dict[tuple, object]] = {}
    max_done = 0  # degrees <= max_done have complete reduction data

    def class_of(path):
        """Class of an arbitrary path over the basis paths; {} is zero."""
        r = reduction.get(path)
        if r is not None:
            return r
        m = class_memo.get(path)
        if m is not None:
            return m
        if len(path) > max_done:
            # beyond the computed range every path class is zero
            out: Dict[tuple, object] = {}
        else:
            prefix_cls = class_of(path[:-1])
            out = {}
            for bp, c in prefix_cls.items():
                ext = bp + (path[-1],)
                for bq, c2 in reduction.get(ext, {}).items():
                    out[bq] = out.get(bq, 0) + c * c2
            out = {k: v for k, v in out.items() if v}
        class_memo[path] = out
        return out

    def coords_of(path, index):
        """Coordinates of a degree-d path in the degree-d space, via its
        prefix class (complete by induction)."""
        if len(path) == 1:
            return {index[path]: 1}
        prefix_cls = class_of(path[:-1])
        out: Dict[int, object] = {}
        for bp, c in prefix_cls.items():
            ext = bp + (path[-1],)
            i = index.get(ext)
            if i is None:
                raise InternalMismatch("extension path missing from index", witness=ext)
            out[i] = out.get(i, 0) + c
        return out

    basis_by_deg: List[List[tuple]] = []
    prev_basis = None
    prev_pivots: List[Tuple[tuple, Dict[tuple, object]]] = []
    deg = 1
    while True:
        if deg > degree_bound:
            raise InfiniteDimensional(
                f"path classes do not terminate within degree {degree_bound}"
            )
        if deg == 1:
            deg_paths = [(name,) for name, _, _ in arrows]
        else:
            deg_paths = []
            for p in prev_basis:
                _, tgt = path_ends(p)
                for name, src, _t in arrows:
                    if src == tgt:
                        deg_paths.append(p + (name,))
        if not deg_paths:
            break
        index = {p: i for i, p in enumerate(deg_paths)}
        if pres.max_path_length is not None and deg >= pres.max_path_length:
            for p in deg_paths:
                reduction[p] = {}
            basis_by_deg.append([])
            max_done = deg
            break
        ideal_rows = []
        for rel in relations_by_deg.get(deg, ()):
            row = [0] * len(deg_paths)
            for coeff, p in rel:
                for i, c in coords_of(p, index).items():
                    row[i] += coeff * c
            ideal_rows.append(row)
        # left arrow extensions of the previous degree's pivot relations
        for pv, red in prev_pivots:
            src_pv, _ = path_ends(pv)
            for name, _s, tgt in arrows:
                if tgt != src_pv:
                    continue
                row = [0] * len(deg_paths)
                for i, c in coords_of((name,) + pv, index).items():
                    row[i] += c
                for bp, cb in red.items():
                    for i, c in coords_of((name,) + bp, index).items():
                        row[i] -= cb * c
                if any(row):
                    ideal_rows.append(row)
        if ideal_rows:
            reduced, pivots = rref(ideal_rows)
        else:
            reduced, pivots = [], []
        pivot_set = set(pivots)
        nonpivot = [i for i in range(len(deg_paths)) if i not in pivot_set]
        basis_here = [deg_paths[i] for i in nonpivot]
        for i in nonpivot:
            reduction[deg_paths[i]] = {deg_paths[i]: 1}
        prev_pivots = []
        for r, piv in zip(reduced, pivots):
            combo = {deg_paths[i]: _exact(-r[i]) for i in nonpivot if r[i]}
            reduction[deg_paths[piv]] = combo
            prev_pivots.append((deg_paths[piv], combo))
        basis_by_deg.append(basis_here)
        max_done = deg
        if not basis_here:
            break
        prev_basis = basis_here
        deg += 1

    # assemble the basis: trivial paths then path classes by degree
    trivial = {v: ("__e__", v) for v in range(1, n + 1)}
    labels = []
    basis_index: Dict[object, int] = {}
    for v in range(1, n + 1):
        basis_index[trivial[v]] = len(labels)
        labels.append(f"e{v}")
    for layer in basis_by_deg:
        for p in layer:
            basis_index[p] = len(labels)
            labels.append("*".join(p))

    dim = len(labels)
    all_keys = [None] * dim
    for key, idx in basis_index.items():
        all_keys[idx] = key

    def ends_of(key):
        if key[0] == "__e__":
            return key[1], key[1]
        return path_ends(key)

    mult = [dict() for _ in range(dim)]
    for i in range(dim):
        ki = all_keys[i]
        _si, ti = ends_of(ki)
        for j in range(dim):
            kj = all_keys[j]
            sj, _tj = ends_of(kj)
            if ti != sj:
                continue
            if ki[0] == "__e__":
                mult[i][j] = ((j, 1),)
                continue
            if kj[0] == "__e__":
                mult[i][j] = ((i, 1),)
                continue
            cls = class_of(ki + kj)
            if cls:
                mult[i][j] = tuple((basis_index[bp], c) for bp, c in cls.items())
    return StructureConstantAlgebra(labels, mult, tuple(range(n)))


# -- replicated algebras -------------------------------------------------------


def build_replicated(base: StructureConstantAlgebra, m: int) -> StructureConstantAlgebra:
    """The m-th replicated algebra as a (m+1) x (m+1) lower-triangular matrix
    algebra with diagonal copies of the base and subdiagonal copies of its
    dual bimodule, multiplied by the repetitive rule
    (a_i, f_i)(b_i, g_i) = (a_i b_i, a_{i+1} g_i + f_i b_i)."""
    if m < 0:
        raise InvalidParams("replication level must be >= 0")
    d = base.dim
    labels = []
    index: Dict[Tuple[str, int, int], int] = {}
    # diagonal layers
    for layer in range(m + 1):
        for t in range(d):
            index[("a", t, layer)] = len(labels)
            labels.append(f"{base.labels[t]}@{layer}")
    # subdiagonal dual layers, position (layer, layer-1) for layer in 1..m
    for layer in range(1, m + 1):
        for t in range(d):
            index[("f", t, layer)] = len(labels)
            labels.append(f"{base.labels[t]}*@{layer}")

    dim = len(labels)
    mult = [dict() for _ in range(dim)]

    # a@i * b@i
    for layer in range(m + 1):
        for i in range(d):
            row = mult[index[("a", i, layer)]]
            for j, pairs in base.mult[i].items():
                row[index[("a", j, layer)]] = tuple(
                    (index[("a", k, layer)], c) for k, c in pairs
                )

    # right action f@L * b@(L-1): (b_t^* . a)(x) = coeff of b_t in a*x
    # i.e. b_t^* . a = sum_s coeff_of_t(a * b_s) b_s^*
    # left action a@L * f@L: a . b_t^* = sum_s coeff_of_t(b_s * a) b_s^*
    right_act: List[Dict[int, List[Tuple[int, object]]]] = [
        dict() for _ in range(d)
    ]
    left_act: List[Dict[int, List[Tuple[int, object]]]] = [dict() for _ in range(d)]
    for a in range(d):
        for s in range(d):
            for k, c in base.mult[a].get(s, ()):
                right_act[k].setdefault(a, []).append((s, c))
        for s in range(d):
            for k, c in base.mult[s].get(a, ()):
                left_act[k].setdefault(a, []).append((s, c))

    for layer in range(1, m + 1):
        for t in range(d):
            fi = index[("f", t, layer)]
            # f@layer * b@(layer-1)
            for a, pairs in right_act[t].items():
                mult[fi][index[("a", a, layer - 1)]] = tuple(
                    (index[("f", s, layer)], c) for s, c in pairs
                )
            # a@layer * f@layer
            for a, pairs in left_act[t].items():
                mult[index[("a", a, layer)]][fi] = tuple(
                    (index[("f", s, layer)], c) for s, c in pairs
                )

    idems = tuple(
        index[("a", t, layer)]
        for layer in range(m + 1)
        for t in base.idempotent_indices
    )
    return StructureConstantAlgebra(labels, mult, idems)


def idempotent_truncation(
    alg: StructureConstantAlgebra, keep_vertices: Sequence[int]
) -> StructureConstantAlgebra:
    """eAe for e the sum of the kept primitive idempotents."""
    keep = set(keep_vertices)
    old_to_new = {}
    labels = []
    kept = []
    for t in range(alg.dim):
        if alg.row_idem[t] in keep and alg.col_idem[t] in keep:
            old_to_new[t] = len(labels)
            labels.append(alg.labels[t])
            kept.append(t)
    mult = [dict() for _ in range(len(labels))]
    for t in kept:
        row = mult[old_to_new[t]]
        for j, pairs in alg.mult[t].items():
            if j in old_to_new:
                row[old_to_new[j]] = tuple((old_to_new[k], c) for k, c in pairs)
    idems = tuple(
        old_to_new[e]
        for e in alg.idempotent_indices
        if alg.row_idem[e] in keep
    )
    return StructureConstantAlgebra(labels, mult, idems)


# -- stock presentations -------------------------------------------------------


def linear_an_presentation(n: int) -> QuiverPresentation:
    arrows = [(f"a{i}", i, i + 1) for i in range(1, n)]
    return QuiverPresentation(n, arrows)


def kronecker_presentation() -> QuiverPresentation:
    return QuiverPresentation(2, [("a", 1, 2), ("b", 1, 2)])


def kupisch_presentation(c: Sequence[int]) -> QuiverPresentation:
    """The bound quiver of the connected linear Nakayama algebra with the
    given Kupisch series: kill the path of length c_i from each vertex i
    whenever it exists."""
    n = len(c)
    arrows = [(f"a{i}", i, i + 1) for i in range(1, n)]
    relations = []
    for i in range(1, n + 1):
        end = i + c[i - 1]
        if end <= n:
            path = tuple(f"a{j}" for j in range(i, end))
            relations.append(((1, path),))
    return QuiverPresentation(n, arrows, relations)


def tnl_presentation(n: int, l: int) -> QuiverPresentation:
    arrows = [(f"a{i}", i, i + 1) for i in range(1, n)]
    return QuiverPresentation(n, arrows, max_path_length=l)


def gorenstein_non_formal_presentation() -> QuiverPresentation:
    """A 1-Iwanaga-Gorenstein algebra that is not Serre-formal:
    1 --alpha--> 2 <--beta/gamma--> 3 with relations beta*gamma and
    gamma*beta.  The derived inverse Nakayama functor spreads e_2 A over two
    cohomology degrees; the standard regression input for that failure."""
    arrows = [("alpha", 1, 2), ("beta", 2, 3), ("gamma", 3, 2)]
    relations = [((1, ("beta", "gamma")),), ((1, ("gamma", "beta")),)]
    return QuiverPresentation(3, arrows, relations, max_path_length=8)


def dual_numbers_presentation() -> QuiverPresentation:
    """K[x]/(x^2), as a one-vertex quiver with a loop."""
    return QuiverPresentation(1, [("x", 1, 1)], max_path_length=2)


def quiver_presentation_from_dynkin(quiver) -> QuiverPresentation:
    """Path-algebra presentation of a simply-laced acyclic quiver from
    :mod:`algolab.dynkin`."""
    arrows = []
    for idx, (s, t, val) in enumerate(quiver.arrows):
        if val != (1, 1):
            raise InvalidParams(
                "only simply-laced quivers compile to path algebras"
            )
        arrows.append((f"a{idx}", s, t))
    return QuiverPresentation(quiver.n, arrows)
