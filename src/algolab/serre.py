"""Serre-functor orbit data.

A profile records, for every simple x and every power k up to a horizon, the
shift s_x^-(k) <= 0 with nu^{-k}(P_x) living in (mod A)[s_x^-(k)] and the
shift s_x^+(k) >= 0 for nu^{k}(I_x), together with identifications of the
orbit modules against projectives and injectives.  Shifts use the s^- <= 0
convention throughout; callers wanting s_P(k) = s_x^-(k) + k convert at the
boundary.

For hereditary algebras the orbit is driven by the Coxeter matrix on
dimension vectors; for arbitrary algebras it is delegated to the brute-force
module-category engine in ``algolab.oracle``.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .dynkin import HereditaryDescriptor
from .errors import (
    HorizonTooSmall,
    InternalMismatch,
    InvalidParams,
    NonPositiveVector,
    UnknownPeriodicity,
)


@dataclass(frozen=True)
class ModuleTag:
    """Identification of an orbit module up to isomorphism.

    ``as_p``/``as_i`` name the projective/injective the module is isomorphic
    to, when it is one; ``dim`` is retained for reporting.
    """

    as_p: Optional[object]
    as_i: Optional[object]
    dim: object

    @property
    def is_projective(self):
        return self.as_p is not None

    @property
    def is_injective(self):
        return self.as_i is not None


@dataclass
class SerreProfile:
    simples: Tuple[object, ...]
    horizon: int
    s_minus: Dict[object, List[int]]
    s_plus: Dict[object, List[int]]
    minus_tags: Dict[object, List[ModuleTag]]
    plus_tags: Dict[object, List[ModuleTag]]
    ell: Dict[object, Optional[int]]
    sigma: Dict[object, object]
    periodic: object  # True | False | "unknown"

    def __post_init__(self):
        for x in self.simples:
            sm, sp = self.s_minus[x], self.s_plus[x]
            if sm[0] != 0 or sp[0] != 0:
                raise InvalidParams("shift functions must start at 0")
            if any(b > a for a, b in zip(sm, sm[1:])) is False and any(
                b < a for a, b in zip(sp, sp[1:])
            ):
                raise InvalidParams("s^+ must be non-decreasing")
            if any(b > a for a, b in zip(sm, sm[1:])):
                raise InvalidParams("s^- must be non-increasing")

    # -- derived data ------------------------------------------------------

    def check_dual_identities(self):
        """min/max of -s^- and s^+ agree at every k in the horizon."""
        for k in range(self.horizon + 1):
            minus = [-self.s_minus[x][k] for x in self.simples]
            plus = [self.s_plus[x][k] for x in self.simples]
            if min(minus) != min(plus) or max(minus) != max(plus):
                return False
        return True

    def to_json(self):
        cy = twisted_cy(self)
        return {
            "s_minus": {str(x): self.s_minus[x] for x in self.simples},
            "s_plus": {str(x): self.s_plus[x] for x in self.simples},
            "ell": {str(x): self.ell[x] for x in self.simples},
            "sigma": {str(x): str(self.sigma[x]) for x in sorted(
                self.sigma, key=str)},
            "twisted_cy": list(cy) if cy else None,
            "periodic": self.periodic,
        }


# -- hereditary profiles ---------------------------------------------------


def hereditary_profile(desc: HereditaryDescriptor, horizon: int) -> SerreProfile:
    """Serre orbits of a hereditary algebra on dimension vectors.

    One step of nu^{-1} either wraps an injective I_y to P_y with no shift
    change, or applies the Coxeter matrix with a shift drop of one.  In
    Dynkin type dimension vectors identify modules, and for
    representation-infinite quivers the tau^- orbit of a projective never
    meets an injective, so the exact-match tests below are sound.
    """
    if horizon < 1:
        raise InvalidParams("horizon must be >= 1")
    n = desc.n
    simples = tuple(range(1, n + 1))
    proj = {i + 1: desc.proj_dims[i] for i in range(n)}
    inj = {i + 1: desc.inj_dims[i] for i in range(n)}
    proj_lookup = {v: x for x, v in proj.items()}
    inj_lookup = {v: x for x, v in inj.items()}

    def tag_of(v):
        return ModuleTag(proj_lookup.get(v), inj_lookup.get(v), v)

    s_minus, minus_tags = {}, {}
    ell, sigma = {}, {}
    for x in simples:
        v = proj[x]
        shifts = [0]
        tags = [tag_of(v)]
        for k in range(horizon):
            t = tags[-1]
            if t.is_injective:
                v = proj[t.as_i]
                shifts.append(shifts[-1])
            else:
                v = desc.tau_inverse(v)
                if any(c < 0 for c in v) or not any(v):
                    raise NonPositiveVector(
                        f"orbit of P_{x} left the positive orthant at step {k + 1}"
                    )
                shifts.append(shifts[-1] - 1)
            tags.append(tag_of(v))
        s_minus[x] = shifts
        minus_tags[x] = tags
        for k in range(1, horizon + 1):
            if tags[k - 1].is_injective:
                ell[x] = k
                sigma[x] = tags[k].as_p
                break
        else:
            ell[x] = None

    s_plus, plus_tags = {}, {}
    for x in simples:
        v = inj[x]
        shifts = [0]
        tags = [tag_of(v)]
        for k in range(horizon):
            t = tags[-1]
            if t.is_projective:
                v = inj[t.as_p]
                shifts.append(shifts[-1])
            else:
                v = desc.tau(v)
                shifts.append(shifts[-1] + 1)
            tags.append(tag_of(v))
        s_plus[x] = shifts
        plus_tags[x] = tags

    if all(ell[x] is not None for x in simples):
        periodic = True
    elif not desc.representation_finite:
        periodic = False
    else:
        periodic = True  # Dynkin type certifies periodicity beyond the horizon
    return SerreProfile(
        simples=simples,
        horizon=horizon,
        s_minus=s_minus,
        s_plus=s_plus,
        minus_tags=minus_tags,
        plus_tags=plus_tags,
        ell=ell,
        sigma=sigma,
        periodic=periodic,
    )


# -- oracle-backed profiles ------------------------------------------------


def profile_from_oracle(alg, horizon: int, bound: int = 64) -> SerreProfile:
    """Serre profile of an arbitrary basic connected algebra, computed by
    iterating the derived inverse Nakayama functor in the module category.

    Raises NotSerreFormal with a witness if any orbit step spreads over more
    than one cohomology degree.
    """
    from .oracle.homology import serre_orbit_profile

    return serre_orbit_profile(alg, horizon, bound)


# -- twisted Calabi-Yau data -----------------------------------------------


def twisted_cy(profile: SerreProfile) -> Optional[Tuple[int, int]]:
    """The twisted Calabi-Yau dimension (h, c): the least m >= 1 in the
    horizon with nu^{-m}(A) = A[-c], i.e. every orbit module P_x^{> m} is
    projective and all shifts agree.  None certifies aperiodicity; an
    undecided horizon raises HorizonTooSmall."""
    for m in range(1, profile.horizon + 1):
        tags = [profile.minus_tags[x][m] for x in profile.simples]
        if all(t.is_projective for t in tags):
            shifts = {profile.s_minus[x][m] for x in profile.simples}
            if len(shifts) == 1:
                if {t.as_p for t in tags} != set(profile.simples):
                    raise InternalMismatch("orbit hit is not a permutation", witness=(m, tags))
                return m, -shifts.pop()
    if profile.periodic is False:
        return None
    raise HorizonTooSmall(
        f"no Calabi-Yau match within horizon {profile.horizon} "
        f"(periodic={profile.periodic})"
    )


# -- tensor products -------------------------------------------------------


def tensor_profiles(p: SerreProfile, q: SerreProfile) -> SerreProfile:
    """Profile of the tensor product algebra: shifts add componentwise and a
    tensor orbit module is projective (injective) exactly when both factors
    are."""
    horizon = min(p.horizon, q.horizon)
    simples = tuple((x, y) for x in p.simples for y in q.simples)
    s_minus, s_plus, minus_tags, plus_tags = {}, {}, {}, {}
    ell, sigma = {}, {}
    for x, y in simples:
        s_minus[(x, y)] = [
            p.s_minus[x][k] + q.s_minus[y][k] for k in range(horizon + 1)
        ]
        s_plus[(x, y)] = [p.s_plus[x][k] + q.s_plus[y][k] for k in range(horizon + 1)]

        def combine(tp, tq):
            as_p = (tp.as_p, tq.as_p) if tp.is_projective and tq.is_projective else None
            as_i = (tp.as_i, tq.as_i) if tp.is_injective and tq.is_injective else None
            return ModuleTag(as_p, as_i, (tp.dim, tq.dim))

        minus_tags[(x, y)] = [
            combine(p.minus_tags[x][k], q.minus_tags[y][k])
            for k in range(horizon + 1)
        ]
        plus_tags[(x, y)] = [
            combine(p.plus_tags[x][k], q.plus_tags[y][k]) for k in range(horizon + 1)
        ]
        ell[(x, y)] = None
        for k in range(1, horizon + 1):
            if minus_tags[(x, y)][k - 1].is_injective:
                ell[(x, y)] = k
                sigma[(x, y)] = minus_tags[(x, y)][k].as_p
                break
    if p.periodic is True and q.periodic is True:
        periodic = True
    elif p.periodic is False or q.periodic is False:
        periodic = False
    else:
        periodic = "unknown"
    return SerreProfile(
        simples=simples,
        horizon=horizon,
        s_minus=s_minus,
        s_plus=s_plus,
        minus_tags=minus_tags,
        plus_tags=plus_tags,
        ell=ell,
        sigma=sigma,
        periodic=periodic,
    )


def self_injective_profile(simples, nakayama_permutation=None, horizon: int = 25):
    """The profile of a basic self-injective algebra: shifts are identically
    zero and nu permutes the projectives by the Nakayama permutation."""
    simples = tuple(simples)
    perm = nakayama_permutation or {x: x for x in simples}
    inv = {v: k for k, v in perm.items()}
    s0 = [0] * (horizon + 1)
    s_minus = {x: list(s0) for x in simples}
    s_plus = {x: list(s0) for x in simples}
    minus_tags, plus_tags, ell, sigma = {}, {}, {}, {}
    for x in simples:
        seq = [x]
        for _ in range(horizon):
            seq.append(inv[seq[-1]])
        minus_tags[x] = [ModuleTag(y, perm[y], None) for y in seq]
        seq_p = [x]
        for _ in range(horizon):
            seq_p.append(perm[seq_p[-1]])
        plus_tags[x] = [ModuleTag(inv[y], y, None) for y in seq_p]
        ell[x] = 1
        sigma[x] = inv[x]
    return SerreProfile(
        simples=simples,
        horizon=horizon,
        s_minus=s_minus,
        s_plus=s_plus,
        minus_tags=minus_tags,
        plus_tags=plus_tags,
        ell=ell,
        sigma=sigma,
        periodic=True,
    )


# -- minimal Auslander-Gorenstein schedules ----------------------------------


@dataclass(frozen=True)
class MinimalAGSchedule:
    """The arithmetic progression of replication levels m at which A^(m) is
    minimal Auslander-Gorenstein, with the common dimension value."""

    periodic: bool
    h: Optional[int] = None
    c: Optional[int] = None

    def contains(self, m: int) -> bool:
        if not self.periodic:
            return False
        return m >= 1 and (m + 1) % self.h == 0

    def dims_at(self, m: int) -> int:
        if not self.contains(m):
            raise InvalidParams(f"m={m} is not on the schedule")
        t = (m + 1) // self.h
        return t * (self.h + self.c) - 1

    def members(self, count: int) -> List[int]:
        if not self.periodic:
            return []
        out = []
        t = 1
        while len(out) < count:
            m = t * self.h - 1
            if m >= 1:
                out.append(m)
            t += 1
        return out

    def to_json(self):
        if not self.periodic:
            return {"periodic": False, "members": []}
        return {
            "periodic": True,
            "h": self.h,
            "c": self.c,
            "members": "m = t*h - 1",
            "dims": "t*(h+c) - 1",
        }


def minimal_ag_schedule(profile: SerreProfile) -> MinimalAGSchedule:
    if profile.periodic == "unknown":
        raise UnknownPeriodicity(
            "periodicity undecided at horizon; no schedule can be certified"
        )
    cy = twisted_cy(profile)
    if cy is None:
        return MinimalAGSchedule(periodic=False)
    h, c = cy
    return MinimalAGSchedule(periodic=True, h=h, c=c)
