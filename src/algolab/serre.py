"""Serre-functor orbit data.

A profile records, for every simple x and every power k up to a horizon, the
shift s_x^-(k) <= 0 with nu^{-k}(P_x) living in (mod A)[s_x^-(k)] and the
shift s_x^+(k) >= 0 for nu^{k}(I_x), together with identifications of the
nu^- orbit modules against projectives and injectives.  Shifts use the
s^- <= 0 convention throughout; callers wanting s_P(k) = s_x^-(k) + k convert
at the boundary.

One loop walks every orbit (``_nu_minus_orbits``): an injective I_y steps to
P_y with no shift, and any other term goes through a step that gives the
next term and its shift.  The positive direction is that loop over the dual
side, whose nu^- orbits of projectives are the nu orbits of the injectives
of A, so s^+ is the dual run's s^- negated (``_profile``).  The first
injective hit ell_x and the projective sigma_x after it are read off the
tags when a profile is built.  For hereditary algebras a step is tau^- (or
tau on the dual side) on dimension vectors; for arbitrary algebras it is
the derived inverse Nakayama functor of the module-category engine in
``algolab.oracle``, run over A and over A^op.
"""

from dataclasses import dataclass, field
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
    """``ell`` and ``sigma`` are read off ``minus_tags``: ell_x is the least
    k >= 1 with nu^{-(k-1)}(P_x) injective and sigma_x the projective the
    orbit steps to from there; an orbit with no such k in the horizon has
    ell_x None and no sigma_x."""

    simples: Tuple[object, ...]
    horizon: int
    s_minus: Dict[object, List[int]]
    s_plus: Dict[object, List[int]]
    minus_tags: Dict[object, List[ModuleTag]]
    periodic: object  # True | False | "unknown"
    ell: Dict[object, Optional[int]] = field(init=False)
    sigma: Dict[object, object] = field(init=False)

    def __post_init__(self):
        for x in self.simples:
            sm, sp = self.s_minus[x], self.s_plus[x]
            if sm[0] != 0 or sp[0] != 0:
                raise InvalidParams("shift functions must start at 0")
            if any(b > a for a, b in zip(sm, sm[1:])):
                raise InvalidParams("s^- must be non-increasing")
            if any(b < a for a, b in zip(sp, sp[1:])):
                raise InvalidParams("s^+ must be non-decreasing")
        self.ell, self.sigma = {}, {}
        for x in self.simples:
            tags = self.minus_tags[x]
            self.ell[x] = next(
                (k for k in range(1, self.horizon + 1) if tags[k - 1].is_injective), None
            )
            if self.ell[x] is not None:
                self.sigma[x] = tags[self.ell[x]].as_p

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
        """The profile as JSON; ``twisted_cy`` is "unknown" when periodicity
        is, as no (h, c) then matches within the horizon."""
        cy = "unknown" if self.periodic == "unknown" else twisted_cy(self)
        return {
            "s_minus": {str(x): self.s_minus[x] for x in self.simples},
            "s_plus": {str(x): self.s_plus[x] for x in self.simples},
            "ell": {str(x): self.ell[x] for x in self.simples},
            "sigma": {str(x): str(self.sigma[x]) for x in sorted(
                self.sigma, key=str)},
            "twisted_cy": list(cy) if isinstance(cy, tuple) else cy,
            "periodic": self.periodic,
        }


# -- the orbit loop ----------------------------------------------------------


def _nu_minus_orbits(simples, horizon, proj, tag_of, step):
    """The nu^- orbit of every P_x up to the horizon, as (shifts, tags) keyed
    by simple.  ``proj[x]`` is P_x in whatever form ``tag_of`` and ``step``
    read.  An injective I_y steps to P_y with no shift; any other term M
    steps by ``step(M, x, k) -> (d, N)``, N the next term and -d its shift
    against M, k the power reached.  A step that cannot go on raises, and
    so does a horizon below 1, which would walk no power at all.  The walk
    of P_y up to its first injective is kept as far as an orbit stepped it;
    one that reaches P_y splices it in, stepping on, as (x, k), past its end."""
    if horizon < 1:
        raise InvalidParams("horizon must be >= 1")
    walks, shifts, tags = {}, {}, {}
    for x in simples:
        s, tg, y = [], [], x
        while len(tg) <= horizon:
            if y not in walks:
                walks[y] = [0], [tag_of(proj[y])], [proj[y]]
            ws, wt, last = walks[y]
            start, base = len(tg), s[-1] if s else 0
            while wt[-1].as_i is None and start + len(wt) <= horizon:
                d, last[0] = step(last[0], x, start + len(wt))
                ws.append(ws[-1] - d)
                wt.append(tag_of(last[0]))
            s += [base + v for v in ws[: horizon + 1 - start]]
            tg += wt[: horizon + 1 - start]
            y = tg[-1].as_i
        shifts[x], tags[x] = s, tg
    return shifts, tags


def _profile(simples, horizon, minus, dual, unhit):
    """The profile of the nu^- run over A and the nu^- run over the dual
    side, each a (shifts, tags) pair: s^+ is the dual run's s^- negated.  It
    is periodic when every orbit meets an injective in the horizon, else
    ``unhit``."""
    (s_minus, minus_tags), (dual_shifts, _) = minus, dual
    s_plus = {x: [-v for v in dual_shifts[x]] for x in simples}
    profile = SerreProfile(simples, horizon, s_minus, s_plus, minus_tags, True)
    if None in profile.ell.values():
        profile.periodic = unhit
    return profile


# -- hereditary profiles ---------------------------------------------------


def hereditary_profile(desc: HereditaryDescriptor, horizon: int) -> SerreProfile:
    """Serre orbits of a hereditary algebra on dimension vectors.

    Off the injectives, a step of nu^{-1} is tau^- (the Coxeter matrix) with
    a shift of one, and the dual run steps the injectives by tau.  In Dynkin
    type dimension vectors identify modules, and for representation-infinite
    quivers the tau^- orbit of a projective never meets an injective, so the
    exact-match tags below are sound.  Dynkin type certifies periodicity
    beyond the horizon.
    """
    simples = tuple(range(1, desc.n + 1))
    proj = dict(zip(simples, desc.proj_dims))
    inj = dict(zip(simples, desc.inj_dims))
    proj_at = {v: x for x, v in proj.items()}
    inj_at = {v: x for x, v in inj.items()}
    minus = _nu_minus_orbits(
        simples, horizon, proj,
        lambda v: ModuleTag(proj_at.get(v), inj_at.get(v), v),
        _coxeter_step(desc.tau_inverse),
    )
    dual = _nu_minus_orbits(
        simples, horizon, inj,
        lambda v: ModuleTag(inj_at.get(v), proj_at.get(v), v),
        _coxeter_step(desc.tau),
    )
    return _profile(simples, horizon, minus, dual, desc.representation_finite)


def _coxeter_step(apply):
    """An orbit step on dimension vectors: ``apply`` with a shift of one."""

    def step(v, x, k):
        w = apply(v)
        if min(w) < 0 or not any(w):
            raise NonPositiveVector(f"orbit of P_{x} left the positive orthant at step {k}")
        return 1, w

    return step


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
    s_minus, s_plus, minus_tags = {}, {}, {}
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
    minus_tags = {}
    for x in simples:
        seq = [x]
        for _ in range(horizon):
            seq.append(inv[seq[-1]])
        minus_tags[x] = [ModuleTag(y, perm[y], None) for y in seq]
    return SerreProfile(
        simples=simples,
        horizon=horizon,
        s_minus=s_minus,
        s_plus=s_plus,
        minus_tags=minus_tags,
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
