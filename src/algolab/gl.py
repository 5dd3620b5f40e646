"""Combinatorics of the Geigle-Lenzing grading group.

The group L is generated by x_1..x_n and c subject to p_i x_i = c; every
element has a unique normal form sum(a_i x_i) + b c with 0 <= a_i < p_i, and
z >= 0 holds exactly when the normal form has b >= 0.  The dualizing element
is omega = (n - d - 1) c - sum x_i, with normal form a_i = p_i - 1 and
b = -(d + 1).

The reduction to normal form works one coordinate at a time: a_i keeps
a_i mod p_i and carries a_i // p_i into b, so whether a sum is >= 0 depends
on each a_i only through its carry, and ``canonical_nu_formal_scan`` decides
its pairs from per-coordinate tables of carries, without an element a pair.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import InternalMismatch, InvalidParams, MixedWeights
from .linalg import rank
from .snf import abelian_group_structure


@dataclass(frozen=True)
class GLData:
    """Weights p_1..p_n (each >= 2) and the dimension d >= 1."""

    weights: Tuple[int, ...]
    d: int

    def __post_init__(self):
        if any(p < 2 for p in self.weights):
            raise InvalidParams("every weight must be >= 2")
        if self.d < 1:
            raise InvalidParams("dimension must be >= 1")

    @property
    def n(self) -> int:
        return len(self.weights)

    def lcm_weights(self) -> int:
        return math.lcm(*self.weights)

    def relation_matrix(self) -> List[List[int]]:
        """Rows p_i x_i - c over the generators (x_1..x_n, c)."""
        n = self.n
        rows = []
        for i, p in enumerate(self.weights):
            row = [0] * (n + 1)
            row[i] = p
            row[n] = -1
            rows.append(row)
        return rows

    def torsion_structure(self):
        """(invariant factors, free rank) of L; the free rank is always 1."""
        return abelian_group_structure(self.relation_matrix(), self.n + 1)


@dataclass(frozen=True)
class LElement:
    """Normal form sum(a_i x_i) + b c with 0 <= a_i < p_i."""

    data: GLData
    a: Tuple[int, ...]
    b: int

    def __post_init__(self):
        if len(self.a) != self.data.n:
            raise InvalidParams("coefficient count does not match the weights")
        if any(not 0 <= ai < p for ai, p in zip(self.a, self.data.weights)):
            raise InvalidParams("element is not in normal form")

    def __add__(self, other: "LElement") -> "LElement":
        _same(self, other)
        return make_element(
            self.data,
            [x + y for x, y in zip(self.a, other.a)],
            self.b + other.b,
        )

    def __sub__(self, other: "LElement") -> "LElement":
        _same(self, other)
        return make_element(
            self.data,
            [x - y for x, y in zip(self.a, other.a)],
            self.b - other.b,
        )

    def __neg__(self) -> "LElement":
        return make_element(self.data, [-x for x in self.a], -self.b)

    def scale(self, k: int) -> "LElement":
        return make_element(self.data, [k * x for x in self.a], k * self.b)

    def raw_coordinates(self) -> List[int]:
        return list(self.a) + [self.b]

    def degree(self) -> int:
        """delta(x_i) = pbar / p_i, delta(c) = pbar; additive and it kills
        exactly the torsion subgroup."""
        pbar = self.data.lcm_weights()
        return sum(
            ai * (pbar // p) for ai, p in zip(self.a, self.data.weights)
        ) + self.b * pbar

    def to_json(self):
        return {"a": list(self.a), "b": self.b}

    def __str__(self):
        parts = [f"{ai}*x{i + 1}" for i, ai in enumerate(self.a) if ai]
        parts.append(f"{self.b}*c")
        return " + ".join(parts)


def _same(z: LElement, w: LElement):
    if z.data != w.data:
        raise MixedWeights("elements live over different weight data")


def make_element(data: GLData, a, b: int) -> LElement:
    """Reduces arbitrary integer coefficients to the normal form using
    p_i x_i = c."""
    norm = []
    carry = int(b)
    for ai, p in zip(a, data.weights):
        q, r = divmod(int(ai), p)
        norm.append(r)
        carry += q
    return LElement(data, tuple(norm), carry)


def zero(data: GLData) -> LElement:
    return LElement(data, (0,) * data.n, 0)


def x_gen(data: GLData, i: int) -> LElement:
    """The generator x_i (1-based)."""
    a = [0] * data.n
    a[i - 1] = 1
    return make_element(data, a, 0)


def c_gen(data: GLData) -> LElement:
    return LElement(data, (0,) * data.n, 1)


# -- operations -----------------------------------------------------------------


def geq_zero(z: LElement) -> bool:
    """z >= 0 iff z lies in the submonoid generated by the x_i and c, iff
    the normal form has b >= 0."""
    return z.b >= 0


def leq(z: LElement, w: LElement) -> bool:
    _same(z, w)
    return geq_zero(w - z)


def omega(data: GLData) -> LElement:
    """(n - d - 1) c - sum x_i."""
    return make_element(data, [-1] * data.n, data.n - data.d - 1)


def is_torsion(data: GLData, z: LElement) -> bool:
    """Torsion test by rational rank: z is torsion iff appending it to the
    relation matrix leaves the rank unchanged (it lies in the rational row
    span), cross-checked against the vanishing of the degree map."""
    rel = data.relation_matrix()
    v = z.raw_coordinates()
    stacked = rel + [v]
    rank_verdict = rank(stacked) == rank(rel)
    degree_verdict = z.degree() == 0
    if rank_verdict != degree_verdict:
        witness = (tuple(v), rank_verdict, degree_verdict)
        raise InternalMismatch("rank and degree torsion tests disagree", witness=witness)
    return rank_verdict


@dataclass
class ScanReport:
    certified: bool
    checked_pairs: int
    counterexample: Optional[Tuple[int, LElement]] = None

    def to_json(self):
        return {
            "scan": "certified" if self.certified else "counterexample",
            "checked_pairs": self.checked_pairs,
        }


def canonical_nu_formal_scan(data: GLData, k_range: int = 25) -> ScanReport:
    """Mechanizes the vanishing argument for d-canonical algebras: for every
    k in [-K, K] and every x in [0, d c], the conditions x + k omega >= 0
    and x + k omega <= d c + omega never hold together (their conjunction
    would force 0 <= d c + omega, whose normal form has b = -1).

    [0, d c] holds x = sum(a_i x_i) + b c exactly when 0 <= b <= d -
    #{a_i > 0}; the a run a_1 fastest, then b rises.  With s = k omega and
    u = d c + omega, coordinate i carries q_i = (a_i + s_i) // p_i into
    z = x + s and t_i = (u_i - (a_i + s_i) % p_i) // p_i into u - z.  With
    c1 = s_b + sum q_i and e = u_b + sum t_i, the pair fails exactly when
    max(0, -c1) <= b <= min(d - #{a_i > 0}, e - c1).  So summed tables of
    (q_i, t_i, [a_i > 0]) decide all b of one a at once, in ints; an a is
    dropped once its count of a_i > 0 passes d (it holds no pair).  The
    count of checked pairs is that of the pair-by-pair scan up to the first
    failing (k, x)."""
    if k_range < 1:
        raise InvalidParams("scan range must be >= 1")
    om = omega(data)
    bound = c_gen(data).scale(data.d) + om
    checked = 0
    for k in range(-k_range, k_range + 1):
        shift = om.scale(k)
        # (c1, e, largest b, a) per a, the later coordinates slower
        groups = [(shift.b, bound.b, data.d, ())]
        for p, si, ui in reversed(list(zip(data.weights, shift.a, bound.a))):
            table = [((ai + si) // p, (ui - (ai + si) % p) // p, ai > 0, ai) for ai in range(p)]
            groups = [
                (c + q, e + t, m - nz, (ai,) + a)
                for c, e, m, a in groups for q, t, nz, ai in table if m >= nz
            ]
        for c1, e, bmax, a in groups:
            lo = max(0, -c1)
            if lo <= min(bmax, e - c1):
                return ScanReport(False, checked + lo + 1, (k, LElement(data, a, lo)))
            checked += bmax + 1
    return ScanReport(True, checked)
