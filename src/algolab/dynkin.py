"""Dynkin and valued-graph data: Cartan and Coxeter matrices, Coxeter numbers,
the graph involution, and positive root systems.

Vertex enumeration for A, D, E6 follows the displayed diagrams which those
families are usually drawn with (chain 1..n; fork tips n-1, n; E6 chain
1-2-3-4-5 with 6 below 3); B, C, F, G follow Bourbaki.  Valued arrows are
ordered pairs (a, b) attached to an arrow i -> j, with a the source-side and
b the target-side valuation; simply-laced arrows are (1, 1).

Convention (pinned by the oracle cross-checks in the test suite): the Cartan
matrix C has dim P_i as its i-th row, and the Coxeter matrix acts on row
vectors so that v |-> v @ Phi is the inverse AR translate on dimension
vectors of non-injective modules.  For simply-laced quivers
Phi = -C^{-T} C; for valued quivers the symmetrizers enter by conjugation,
Phi = -D_f C^{-T} D_f^{-1} C with D_f = diag(f).
"""

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import CyclicQuiver, InternalMismatch, InvalidParams, NotConnected
from .linalg import inverse, is_positive_definite, vec_mat

FAMILIES = ("A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2")

_FIXED_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}

_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E6": lambda n: 36,
    "E7": lambda n: 63,
    "E8": lambda n: 120,
    "F4": lambda n: 24,
    "G2": lambda n: 6,
}


@dataclass(frozen=True)
class ValuedDynkinGraph:
    """A Dynkin diagram of one of the finite families, with fixed enumeration."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParams(f"unknown family {self.family!r}")
        n = self.rank
        if self.family in _FIXED_RANK and n != _FIXED_RANK[self.family]:
            raise InvalidParams(f"{self.family} has rank {_FIXED_RANK[self.family]}")
        if self.family == "A" and n < 1:
            raise InvalidParams("A_n needs n >= 1")
        if self.family in ("B", "C") and n < 2:
            raise InvalidParams(f"{self.family}_n needs n >= 2")
        if self.family == "D" and n < 4:
            raise InvalidParams("D_n needs n >= 4")
        if not is_positive_definite(self.symmetrized_cartan()):
            raise InvalidParams("symmetrized Cartan matrix is not positive definite")

    # -- diagram data ------------------------------------------------------

    def edges(self) -> List[Tuple[int, int, Tuple[int, int]]]:
        """Undirected edges (i, j, (a, b)): a = -gcm[i][j], b = -gcm[j][i]."""
        n = self.rank
        fam = self.family
        chain = [(i, i + 1, (1, 1)) for i in range(1, n)]
        if fam in ("A",):
            return chain
        if fam == "B":
            chain[-1] = (n - 1, n, (1, 2))
            return chain
        if fam == "C":
            chain[-1] = (n - 1, n, (2, 1))
            return chain
        if fam == "D":
            return [(i, i + 1, (1, 1)) for i in range(1, n - 1)] + [(n - 2, n, (1, 1))]
        if fam in ("E6", "E7", "E8"):
            return [(i, i + 1, (1, 1)) for i in range(1, n - 1)] + [(3, n, (1, 1))]
        if fam == "F4":
            return [(1, 2, (1, 1)), (2, 3, (1, 2)), (3, 4, (1, 1))]
        if fam == "G2":
            return [(1, 2, (3, 1))]
        raise InternalMismatch(f"no edges for the family {fam}", witness=fam)

    def gcm(self) -> List[List[int]]:
        n = self.rank
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j, (p, q) in self.edges():
            a[i - 1][j - 1] -= p
            a[j - 1][i - 1] -= q
        return a

    def symmetrizers(self) -> Tuple[int, ...]:
        return _symmetrizers_from_gcm(self.gcm())

    def symmetrized_cartan(self) -> List[List[int]]:
        a = self.gcm()
        f = _symmetrizers_from_gcm(a)
        return [[f[i] * a[i][j] for j in range(self.rank)] for i in range(self.rank)]

    def coxeter_number(self) -> int:
        fam, n = self.family, self.rank
        return {
            "A": n + 1,
            "B": 2 * n,
            "C": 2 * n,
            "D": 2 * n - 2,
            "E6": 12,
            "E7": 18,
            "E8": 30,
            "F4": 12,
            "G2": 6,
        }[fam]

    def nu(self) -> Dict[int, int]:
        """The involutive graph automorphism from the Coxeter-number table."""
        fam, n = self.family, self.rank
        ident = {i: i for i in range(1, n + 1)}
        if fam == "A":
            return {i: n + 1 - i for i in range(1, n + 1)}
        if fam == "D" and n % 2 == 1:
            out = dict(ident)
            out[n - 1], out[n] = n, n - 1
            return out
        if fam == "E6":
            return {1: 5, 2: 4, 3: 3, 4: 2, 5: 1, 6: 6}
        return ident

    def root_count(self) -> int:
        return _ROOT_COUNTS[self.family](self.rank)

    def tits_q(self, v) -> Fraction:
        """Quadratic form normalized so short roots take the value 1."""
        a = self.gcm()
        f = self.symmetrizers()
        n = self.rank
        total = Fraction(0)
        for i in range(n):
            for j in range(n):
                total += Fraction(f[i] * a[i][j] * v[i] * v[j], 2)
        return total

    def __str__(self):
        if self.family in _FIXED_RANK:
            return self.family
        return f"{self.family}{self.rank}"


def _symmetrizers_from_gcm(a):
    n = len(a)
    ratio: List[Optional[Fraction]] = [None] * n
    ratio[0] = Fraction(1)
    pending = [0]
    while pending:
        i = pending.pop()
        for j in range(n):
            if i != j and a[i][j]:
                want = ratio[i] * Fraction(a[i][j], a[j][i])
                if ratio[j] is None:
                    ratio[j] = want
                    pending.append(j)
                elif ratio[j] != want:
                    raise InvalidParams("Cartan matrix is not symmetrizable")
    if any(r is None for r in ratio):
        raise NotConnected("valued graph is not connected")
    denom = math.lcm(*(r.denominator for r in ratio))
    ints = [int(r * denom) for r in ratio]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def parse_graph(text: str) -> ValuedDynkinGraph:
    """Parses compact forms like "A4", "D5", "E6", "B3"."""
    text = text.strip()
    for fam in ("E6", "E7", "E8", "F4", "G2"):
        if text == fam:
            return ValuedDynkinGraph(fam, _FIXED_RANK[fam])
    fam, rest = text[:1], text[1:]
    if fam in ("A", "B", "C", "D") and rest.isdigit():
        return ValuedDynkinGraph(fam, int(rest))
    raise InvalidParams(f"cannot parse Dynkin graph {text!r}")


# -- quivers ---------------------------------------------------------------


@dataclass(frozen=True)
class Quiver:
    """A finite valued quiver.  Vertices are 1..n; arrows carry (a, b) pairs."""

    n: int
    arrows: Tuple[Tuple[int, int, Tuple[int, int]], ...]
    graph: Optional[ValuedDynkinGraph] = None

    def topological_order(self) -> List[int]:
        indeg = [0] * (self.n + 1)
        outs: List[List[int]] = [[] for _ in range(self.n + 1)]
        for s, t, _ in self.arrows:
            indeg[t] += 1
            outs[s].append(t)
        stack = [v for v in range(1, self.n + 1) if indeg[v] == 0]
        order = []
        while stack:
            v = stack.pop()
            order.append(v)
            for w in outs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
        if len(order) != self.n:
            raise CyclicQuiver("quiver has an oriented cycle")
        return order

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        adj: List[List[int]] = [[] for _ in range(self.n + 1)]
        for s, t, _ in self.arrows:
            adj[s].append(t)
            adj[t].append(s)
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def gcm(self) -> List[List[int]]:
        a = [[2 if i == j else 0 for j in range(self.n)] for i in range(self.n)]
        for s, t, (p, q) in self.arrows:
            a[s - 1][t - 1] -= p
            a[t - 1][s - 1] -= q
        return a

    def to_json(self):
        return {
            "vertices": self.n,
            "arrows": [[s, t, list(v)] for s, t, v in self.arrows],
        }

    def __str__(self):
        return ",".join(
            f"{s}->{t}" if v == (1, 1) else f"{s}->{t}({v[0]},{v[1]})"
            for s, t, v in self.arrows
        )


# one arrow "s->t" or "s->t(p,q)" and the comma or end of text after it
_ARROW_RE = re.compile(r"\s*(\d+)\s*->\s*(\d+)\s*(?:\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\))?\s*(?:,|$)")


def parse_quiver(text: str) -> Quiver:
    """Parses arrow lists like "1->2,2->3"; valued arrows as "1->2(1,2)"."""
    arrows = []
    pos = 0
    while pos < len(text) or not arrows:
        m = _ARROW_RE.match(text, pos)
        if m is None:
            raise InvalidParams(f"cannot parse quiver {text!r}: unread text {text[pos:]!r}")
        s, t = int(m.group(1)), int(m.group(2))
        val = (int(m.group(3)), int(m.group(4))) if m.group(3) else (1, 1)
        if min(val) < 1:
            raise InvalidParams(f"arrow {s}->{t} has valuation {val}; valuations are at least 1")
        arrows.append((s, t, val))
        pos = m.end()
    return Quiver(max(max(s, t) for s, t, _ in arrows), tuple(arrows))


def linear_quiver(graph: ValuedDynkinGraph) -> Quiver:
    """Orients every edge from its smaller to its larger endpoint."""
    arrows = tuple(
        (i, j, v) if i < j else (j, i, (v[1], v[0])) for i, j, v in graph.edges()
    )
    return Quiver(graph.rank, arrows, graph=graph)


def orientations(graph: ValuedDynkinGraph):
    """All 2^edges orientations of a valued Dynkin graph."""
    edges = graph.edges()
    m = len(edges)
    for mask in range(1 << m):
        arrows = []
        for k, (i, j, (p, q)) in enumerate(edges):
            if mask & (1 << k):
                arrows.append((j, i, (q, p)))
            else:
                arrows.append((i, j, (p, q)))
        yield Quiver(graph.rank, tuple(arrows), graph=graph)


def kronecker_quiver() -> Quiver:
    return Quiver(2, ((1, 2, (1, 1)),) * 2)


# -- operations ------------------------------------------------------------


def coxeter_data(graph: ValuedDynkinGraph) -> Tuple[int, Dict[int, int]]:
    """Coxeter number and graph involution, straight from the type table."""
    return graph.coxeter_number(), graph.nu()


@dataclass(frozen=True)
class HereditaryDescriptor:
    """Cartan/Coxeter data of the hereditary algebra of an acyclic quiver."""

    quiver: Quiver
    cartan: Tuple[Tuple[int, ...], ...]
    coxeter: Tuple[Tuple[int, ...], ...]
    symmetrizers: Tuple[int, ...]
    proj_dims: Tuple[Tuple[int, ...], ...]
    inj_dims: Tuple[Tuple[int, ...], ...]
    representation_finite: bool

    @property
    def n(self) -> int:
        return self.quiver.n

    def tau_inverse(self, v) -> Tuple[int, ...]:
        """dim tau^-(M) for a non-injective module with dimension vector v."""
        return tuple(vec_mat(v, self.coxeter))

    def tau(self, v) -> Tuple[int, ...]:
        return tuple(vec_mat(v, self._coxeter_inverse))

    @functools.cached_property
    def _coxeter_inverse(self):
        return [[int(x) for x in row] for row in inverse([list(r) for r in self.coxeter])]

    def to_json(self):
        return {
            "quiver": self.quiver.to_json(),
            "cartan": [list(r) for r in self.cartan],
            "coxeter": [list(r) for r in self.coxeter],
            "representation_finite": self.representation_finite,
        }


def hereditary_descriptor(quiver: Quiver) -> HereditaryDescriptor:
    """Assembles Cartan, Coxeter and dimension-vector data for an acyclic
    connected valued quiver."""
    order = quiver.topological_order()  # raises CyclicQuiver
    if not quiver.is_connected():
        raise NotConnected("quiver is not connected")
    n = quiver.n
    gcm = quiver.gcm()
    f = _symmetrizers_from_gcm(gcm)
    # W[i][j] sums the target-side valuations of the arrows i -> j, and
    # C = (I - W)^-1: row i sums the weighted paths out of i, so it is e_i
    # plus the rows of the arrows' targets, built from the sinks back
    w = [[0] * n for _ in range(n)]
    for s, t, (_, b) in quiver.arrows:
        w[s - 1][t - 1] += b
    rows: List[Tuple[int, ...]] = [()] * n
    for v in reversed(order):
        row = [int(j == v - 1) for j in range(n)]
        for t, b in enumerate(w[v - 1]):
            if b:
                row = [x + b * y for x, y in zip(row, rows[t])]
        rows[v - 1] = tuple(row)
    cartan = tuple(rows)
    # Phi = -D_f C^-T D_f^-1 C with C^-T = (I - W)^T, over the common
    # denominator of the 1 / f_k
    lcm = math.lcm(*f)
    phi = []
    for i in range(n):
        out = []
        for j in range(n):
            q, r = divmod(f[i] * sum(w[k][i] * cartan[k][j] * (lcm // f[k]) for k in range(n)), lcm)
            if r:
                raise InvalidParams("Coxeter matrix is not integral")
            out.append(q - cartan[i][j])
        phi.append(tuple(out))
    inj = []
    for i in range(n):
        col = []
        for j in range(n):
            x, r = divmod(cartan[j][i] * f[i], f[j])
            if r:
                raise InvalidParams("injective dimension vector is not integral")
            col.append(x)
        inj.append(tuple(col))
    sym = [[f[i] * gcm[i][j] for j in range(n)] for i in range(n)]
    return HereditaryDescriptor(
        quiver=quiver,
        cartan=cartan,
        coxeter=tuple(phi),
        symmetrizers=tuple(f),
        proj_dims=cartan,
        inj_dims=tuple(inj),
        representation_finite=is_positive_definite(sym),
    )


@dataclass(frozen=True)
class RootSystem:
    graph: ValuedDynkinGraph
    positive_roots: Tuple[Tuple[int, ...], ...]

    def __len__(self):
        return len(self.positive_roots)


def positive_roots(graph: ValuedDynkinGraph) -> RootSystem:
    """All positive roots, generated by closing the simple roots under the
    simple reflections of the Weyl group."""
    n = graph.rank
    a = graph.gcm()

    def reflect(v, i):
        out = list(v)
        out[i] = -v[i] - sum(a[i][j] * v[j] for j in range(n) if j != i)
        return tuple(out)

    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                w = reflect(v, i)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    positives = sorted(v for v in seen if all(x >= 0 for x in v) and any(v))
    count = graph.root_count()
    if len(positives) != count:
        raise InternalMismatch(f"root count of {graph} is off", witness=(len(positives), count))
    return RootSystem(graph, tuple(positives))
