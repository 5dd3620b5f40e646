"""Closed-form dimension formulas for replicated algebras.

All evaluators consume Serre profiles (s^- <= 0 internal convention) rather
than algebras; algebra-level inputs go through the oracle profile first.
The hereditary surface reports s_P(k) = s_x^-(k) + k values at the boundary.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import (
    GateFailed,
    HorizonTooSmall,
    InternalMismatch,
    InvalidParams,
    NotDHereditary,
)
from .serre import SerreProfile, twisted_cy


@dataclass
class DimensionReport:
    m: int
    domdim: int
    idim: int
    gldim: Optional[object]  # equals idim for finite-gldim bases, else None
    higher_auslander: bool
    minimal_ag: bool
    iwanaga_gorenstein: bool
    per_projective: Dict[object, Dict[int, Tuple[int, int]]]
    schedule_t: Optional[int] = None

    def to_json(self):
        return {
            "m": self.m,
            "domdim": self.domdim,
            "idim": self.idim,
            "gldim": self.gldim,
            "higher_auslander": self.higher_auslander,
            "minimal_ag": self.minimal_ag,
            "iwanaga_gorenstein": self.iwanaga_gorenstein,
            "schedule_t": self.schedule_t,
        }


def _require_horizon(profile: SerreProfile, needed: int):
    if profile.horizon < needed:
        raise HorizonTooSmall(
            f"profile horizon {profile.horizon} < required {needed}"
        )


def _assert_dual(profile, m, value, from_plus):
    if value != from_plus:
        raise InternalMismatch("dual shift identities disagree", witness=(m, value, from_plus))


def replicated_dims_serre_formal(profile: SerreProfile, m: int) -> DimensionReport:
    """domdim A^(m) = m - max_x s_x^-(m) and idim A^(m) = m - min_x s_x^-(m+1),
    with the dual s^+ computations asserted to agree."""
    if m < 1:
        raise InvalidParams("replication level must be >= 1")
    _require_horizon(profile, m + 1)
    xs = profile.simples
    domdim = m - max(profile.s_minus[x][m] for x in xs)
    _assert_dual(profile, m, domdim, m + min(profile.s_plus[x][m] for x in xs))
    idim = m - min(profile.s_minus[x][m + 1] for x in xs)
    _assert_dual(profile, m, idim, m + max(profile.s_plus[x][m + 1] for x in xs))
    per = {}
    for x in xs:
        rows = {}
        for i in range(m + 1):
            dd = m - i + profile.s_minus[x][0] - profile.s_minus[x][m - i]
            ii = m - i + profile.s_minus[x][0] - profile.s_minus[x][m - i + 1]
            rows[i] = (dd, ii)
        per[x] = rows
    minimal_ag = domdim == idim and idim >= 1
    sched_t = None
    if minimal_ag and profile.periodic is True:
        try:
            cy = twisted_cy(profile)
        except HorizonTooSmall:
            cy = None
        if cy and (m + 1) % cy[0] == 0:
            sched_t = (m + 1) // cy[0]
    return DimensionReport(
        m=m,
        domdim=domdim,
        idim=idim,
        gldim=None,
        higher_auslander=False,
        minimal_ag=minimal_ag,
        iwanaga_gorenstein=True,
        per_projective=per,
        schedule_t=sched_t,
    )


def replicated_dims_hereditary(profile: SerreProfile, m: int) -> DimensionReport:
    """The hereditary specialization: the base has global dimension <= 1, so
    gldim A^(m) = idim A^(m); in s_P(k) = s_x^-(k) + k terms the formulas
    read domdim = 2m - max s_P(m) and gldim = 2m - min(s_P(m) - eps_P(m))."""
    rep = replicated_dims_serre_formal(profile, m)
    # cross-check the epsilon formulation
    xs = profile.simples
    gl = 2 * m - min(
        (profile.s_minus[x][m] + m)
        - (0 if profile.minus_tags[x][m].is_injective else 1)
        for x in xs
    )
    if gl != rep.idim:
        raise InternalMismatch(
            "epsilon formulation disagrees with s^-(m+1)", witness=(m, gl, rep.idim)
        )
    rep.gldim = rep.idim
    rep.higher_auslander = rep.minimal_ag
    return rep


def minimal_ag_members(profile: SerreProfile, up_to: int) -> List[int]:
    """Replication levels m <= up_to with A^(m) minimal Auslander-Gorenstein,
    read off pointwise: max_x s_x^-(m) = min_y s_y^-(m+1)."""
    _require_horizon(profile, up_to + 1)
    out = []
    xs = profile.simples
    for m in range(1, up_to + 1):
        if max(profile.s_minus[x][m] for x in xs) == min(
            profile.s_minus[x][m + 1] for x in xs
        ):
            out.append(m)
    return out


# -- d-hereditary specialization ------------------------------------------------


def r_table_from_profile(profile: SerreProfile, d: int) -> Dict[object, List[int]]:
    """r_x^-(k) = number of injectives among P_x^{> i}, i < k, validated
    against the requirement that every shift step is 0 or -d."""
    if d < 1:
        raise NotDHereditary("d must be >= 1")
    table = {}
    for x in profile.simples:
        s = profile.s_minus[x]
        r = [0]
        for k in range(1, len(s)):
            step = s[k - 1] - s[k]
            if step == 0:
                r.append(r[-1] + 1)
            elif step == d:
                r.append(r[-1])
            else:
                raise NotDHereditary(
                    f"shift step {step} at (x={x}, k={k}) is neither 0 nor {d}"
                )
        table[x] = r
    return table


def d_hereditary_dims(d: int, r_counts: Dict[object, List[int]], m: int) -> DimensionReport:
    """idim A^(m) = (d+1)m + d - d min_x r_x^-(m+1) and
    domdim A^(m) = (d+1)m - d max_x r_x^-(m)."""
    if d < 1:
        raise NotDHereditary("d must be >= 1")
    if m < 1:
        raise InvalidParams("replication level must be >= 1")
    xs = list(r_counts)
    if any(len(r_counts[x]) < m + 2 for x in xs):
        raise HorizonTooSmall("r tables must extend to m+1")
    idim = (d + 1) * m + d - d * min(r_counts[x][m + 1] for x in xs)
    domdim = (d + 1) * m - d * max(r_counts[x][m] for x in xs)
    minimal_ag = domdim == idim and idim >= 1
    return DimensionReport(
        m=m,
        domdim=domdim,
        idim=idim,
        gldim=idim,
        higher_auslander=minimal_ag,
        minimal_ag=minimal_ag,
        iwanaga_gorenstein=True,
        per_projective={},
    )


def d_rf_schedule_dims(d: int, h: int, r: int, t: int) -> int:
    """gldim = domdim = ((d+1)h - dr)t - 1 at m = th - 1 for a
    d-representation-finite base of twisted Calabi-Yau dimension (h, (h-r)d)."""
    if d < 1 or t < 1:
        raise InvalidParams("need d >= 1 and t >= 1")
    return ((d + 1) * h - d * r) * t - 1


# -- indecomposable counts --------------------------------------------------------


def indec_count_rf(root_count: int, m: int) -> int:
    """(2m+1) r indecomposables over A^(m) for a representation-finite
    hereditary base with r indecomposables."""
    if root_count < 1 or m < 0:
        raise InvalidParams("need a positive root count and m >= 0")
    return (2 * m + 1) * root_count


# -- SGC truncation ----------------------------------------------------------------


def sgc_truncation(base, m: int):
    """e^[m] A^(m) e^[m]: the basic m-th SGC extension, built from the
    replicated algebra once the gate Hom_A(DA, eA) = 0 passes; e keeps the
    non-projective-injective vertices, and the last layer keeps everything."""
    from .oracle.algebra import build_replicated, idempotent_truncation
    from .oracle.homology import hom_vanishing_gate

    if m < 0:
        raise InvalidParams("m must be >= 0")
    gate = hom_vanishing_gate(base)
    if not gate.gate:
        raise GateFailed(
            f"Hom(DA, eA) != 0: witness {gate.witness}", witness=gate.witness
        )
    replicated = build_replicated(base, m)
    e_set = set(gate.e_vertices)
    keep = []
    for v, label in enumerate(replicated.vertex_labels):
        base_label, layer = label.rsplit("@", 1)
        if int(layer) == m or base_label in e_set:
            keep.append(v)
    return idempotent_truncation(replicated, keep)
