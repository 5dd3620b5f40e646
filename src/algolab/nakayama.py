"""Exact combinatorics of connected linear-quiver Nakayama algebras.

Everything here is driven by the Kupisch series [c_1..c_n]: serial modules
are intervals, injective envelopes and projective covers are read off the
series, and the homological dimensions of the T_{n,l} family come out of a
two-term recursion.  Cyclic Nakayama algebras are not supported.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import (
    CriterionInapplicable,
    InvalidKupisch,
    InvalidLength,
    InvalidParams,
    ResolutionBoundExceeded,
)

INFINITE = math.inf


@dataclass(frozen=True)
class KupischSeries:
    """Lengths of the indecomposable projectives of a connected quotient of
    the path algebra of the linearly oriented A_n quiver."""

    c: Tuple[int, ...]

    def __post_init__(self):
        c = self.c
        n = len(c)
        if n == 0:
            raise InvalidKupisch("empty Kupisch series")
        if c[-1] != 1:
            raise InvalidKupisch("c_n must be 1")
        for i in range(n - 1):
            if c[i] < 2:
                raise InvalidKupisch(f"c_{i + 1} must be >= 2 for a connected quiver")
            if c[i] > c[i + 1] + 1:
                raise InvalidKupisch(f"c_{i + 1} <= c_{i + 2} + 1 violated")

    @property
    def n(self) -> int:
        return len(self.c)

    def dimension(self) -> int:
        return sum(self.c)

    def injective_interval(self, j: int) -> Tuple[int, int]:
        """I_j as the interval [a, j]: tops i with i <= j < i + c_i."""
        a = j
        while a > 1 and a - 1 + self.c[a - 2] > j:
            a -= 1
        return a, j

    def injective_is_projective(self, j: int) -> bool:
        a, _ = self.injective_interval(j)
        return self.c[a - 1] == j - a + 1

    def projective_is_injective(self, i: int) -> bool:
        j = i + self.c[i - 1] - 1
        return self.injective_interval(j) == (i, j)

    @classmethod
    def parse(cls, text: str) -> "KupischSeries":
        text = text.strip()
        if text.startswith("[") and text.endswith("]"):
            text = text[1:-1]
        try:
            values = tuple(int(x) for x in text.split(",") if x.strip())
        except ValueError:
            raise InvalidKupisch(f"cannot parse Kupisch series {text!r}")
        return cls(values)

    def __str__(self):
        return "[" + ",".join(str(x) for x in self.c) + "]"


def tnl_kupisch(n: int, l: int) -> KupischSeries:
    """Kupisch series [l,...,l,l-1,...,2,1] of T_{n,l} = kA_n / rad^l."""
    if not 2 <= l <= n:
        raise InvalidParams(f"T_(n,l) needs 2 <= l <= n, got n={n}, l={l}")
    return KupischSeries(tuple(min(l, n - i) for i in range(n)))


@dataclass(frozen=True)
class SerialModule:
    """M_{i,s} = e_i A / e_i rad^s, the interval [i, i+s-1]."""

    i: int
    s: int

    def __post_init__(self):
        if self.i < 1 or self.s < 1:
            raise InvalidLength(f"invalid serial module M_({self.i},{self.s})")

    @property
    def interval(self) -> Tuple[int, int]:
        return self.i, self.i + self.s - 1


# -- the A_infinity recursion ------------------------------------------------


def serial_dims(i: int, s: int, l: int):
    """(domdim, idim) of M_{i,s} over kA_infinity / rad^l.

    Base cases: for s <= l - i the envelope I_{i+s-1} is not projective and
    the module is injective iff i = 1.  For s = l the module is
    projective-injective, with dominant dimension infinity.  Otherwise the
    cosyzygy is M_{i+s-l, l-s} and both dimensions step by one.
    """
    if l < 2:
        raise InvalidLength("radical bound l must be >= 2")
    if not 1 <= s <= l:
        raise InvalidLength(f"need 1 <= s <= {l}, got s={s}")
    if i < 1:
        raise InvalidLength(f"vertex must be positive, got i={i}")
    if s == l:
        return INFINITE, 0
    d = g = 0
    ci, cs = i, s
    while True:
        if ci <= 0:
            return d, g
        if cs <= l - ci:
            if ci > 1:
                g += 1
            return d, g
        d += 1
        g += 1
        ci, cs = ci + cs - l, l - cs


# -- the T_{n,l} closed forms -------------------------------------------------


@dataclass(frozen=True)
class TnlReport:
    n: int
    l: int
    gldim: int
    domdim: int
    higher_auslander: bool
    corresponding_pair: Optional[Tuple[str, str]]

    def to_json(self):
        return {
            "n": self.n,
            "l": self.l,
            "gldim": self.gldim,
            "domdim": self.domdim,
            "higher_auslander": self.higher_auslander,
            "corresponding_pair": list(self.corresponding_pair)
            if self.corresponding_pair
            else None,
        }


def tnl_dims(n: int, l: int) -> TnlReport:
    """Global and dominant dimension of T_{n,l} via the closed forms
    gldim = 2t-1 / 2t / 2t+1 and domdim = 2t-1 / 2t for n = lt + r.

    The higher-Auslander flag means gldim = domdim >= 1; this includes the
    degenerate hereditary boundary T_{l,l} where both equal 1.
    """
    if not 2 <= l <= n:
        raise InvalidParams(f"tnl_dims needs 2 <= l <= n, got n={n}, l={l}")
    t, r = divmod(n, l)
    if r == 0:
        gldim = 2 * t - 1
    elif r == 1:
        gldim = 2 * t
    else:
        gldim = 2 * t + 1
    domdim = 2 * t if r == l - 1 else 2 * t - 1
    ha = gldim == domdim
    pair = None
    if ha and n - l + 1 >= 1:
        base = f"T({n - l + 1},{l})"
        pair = (base, f"{base} + D{base}")
    return TnlReport(n, l, gldim, domdim, ha, pair)


# -- resolution walks over an arbitrary Kupisch series ------------------------


@dataclass(frozen=True)
class ModuleDims:
    pdim: float
    idim: float
    domdim: float
    codomdim: float


def kupisch_module_dims(ks: KupischSeries, m: SerialModule, bound: int = 64) -> ModuleDims:
    """Homological dimensions of a serial module by explicit envelope and
    cover walks on intervals.  Infinite dominant/codominant dimensions (the
    projective-injective case) are reported as math.inf."""
    i, s = m.i, m.s
    n = ks.n
    if i > n or s > ks.c[i - 1]:
        raise InvalidLength(f"M_({i},{s}) is not a module over {ks}")

    # injective side: cosyzygy walk
    idim = 0
    domdim_counter = 0
    counting = True
    lo, hi = m.interval
    steps = 0
    while True:
        a, j = ks.injective_interval(hi)
        if counting and not ks.injective_is_projective(hi):
            counting = False
            domdim_counter = idim
        if a > lo - 1:
            # the module was I_hi itself
            break
        lo, hi = a, lo - 1
        idim += 1
        steps += 1
        if steps > bound:
            raise ResolutionBoundExceeded(
                f"injective coresolution of M_({i},{s}) exceeded {bound}"
            )
    # a finite coresolution with every term projective gives domdim = infinity
    domdim = INFINITE if counting else domdim_counter

    # projective side: syzygy walk
    pdim = 0
    codom_counter = 0
    counting = True
    lo, hi = m.interval
    steps = 0
    while True:
        top = lo
        if counting and not ks.projective_is_injective(top):
            counting = False
            codom_counter = pdim
        plen = ks.c[top - 1]
        if top + plen - 1 == hi:
            break
        lo, hi = hi + 1, top + plen - 1
        pdim += 1
        steps += 1
        if steps > bound:
            raise ResolutionBoundExceeded(
                f"projective resolution of M_({i},{s}) exceeded {bound}"
            )
    codomdim = INFINITE if counting else codom_counter
    return ModuleDims(pdim=pdim, idim=idim, domdim=domdim, codomdim=codomdim)


def kupisch_algebra_dims(ks: KupischSeries, bound: int = 64):
    """(gldim, domdim) of the algebra of a Kupisch series via module walks."""
    gldim = 0
    domdim = INFINITE
    for i in range(1, ks.n + 1):
        dims = kupisch_module_dims(ks, SerialModule(i, 1), bound)  # simple S_i
        gldim = max(gldim, dims.pdim)
        proj = kupisch_module_dims(ks, SerialModule(i, ks.c[i - 1]), bound)
        domdim = min(domdim, proj.domdim)
    return gldim, domdim


# -- SGC extensions -----------------------------------------------------------


def sgc_kupisch(n: int, l: int, m: int) -> KupischSeries:
    """Kupisch series of the m-th basic SGC extension of T_{n,l}, namely
    T_{n+m(l-1), l}."""
    if not 2 <= l <= n:
        raise InvalidParams(f"sgc_kupisch needs 2 <= l <= n, got n={n}, l={l}")
    if m < 0:
        raise InvalidParams("m must be >= 0")
    return tnl_kupisch(n + m * (l - 1), l)


def sgc_higher_auslander(n: int, l: int, m: int) -> bool:
    """T_{n,l}^[m] is higher Auslander iff l = 2 or l divides |n - m|."""
    if not 2 <= l <= n:
        raise InvalidParams(f"sgc_higher_auslander needs 2 <= l <= n")
    if m < 0:
        raise InvalidParams("m must be >= 0")
    return l == 2 or abs(n - m) % l == 0


# -- Serre-formality classification -------------------------------------------


@dataclass(frozen=True)
class NakayamaClassification:
    serre_formal: bool
    case: str  # "rising-step" | "plateau-after-drop" | "tnl"
    n: int
    l: Optional[int]
    d: Optional[int]
    detail: str

    def to_json(self):
        return {
            "serre_formal": self.serre_formal,
            "case": self.case,
            "n": self.n,
            "l": self.l,
            "d": self.d,
            "detail": self.detail,
        }


def serre_formal_class_nakayama(ks: KupischSeries) -> NakayamaClassification:
    """Serre-formality of a connected Nakayama algebra given by its Kupisch
    series.

    A rising step or a plateau after a drop rules Serre-formality out.  The
    remaining series are the T_{n,l} with l = c_1, which are Serre-formal
    exactly when l = 2, l divides n-1, or l = n (the hereditary algebra
    kA_n, which is 1-representation-finite); in those cases the algebra is
    d-representation-finite with d = n-1, 2(n-1)/l and 1 respectively.
    """
    c = ks.c
    n = ks.n
    if n == 1:
        raise InvalidKupisch("the one-vertex series is the simple algebra")
    for i in range(n - 1):
        if c[i] < c[i + 1]:
            return NakayamaClassification(
                False, "rising-step", n, None, None,
                f"c_{i + 1} < c_{i + 2}",
            )
    for i in range(1, n - 1):
        if c[i - 1] - 1 == c[i] == c[i + 1]:
            return NakayamaClassification(
                False, "plateau-after-drop", n, None, None,
                f"c_{i} - 1 = c_{i + 1} = c_{i + 2}",
            )
    l = c[0]
    if l == n:
        return NakayamaClassification(
            True, "tnl", n, l, 1, "hereditary linear A_n, 1-representation-finite"
        )
    if l == 2:
        return NakayamaClassification(True, "tnl", n, l, n - 1, "l = 2")
    if (n - 1) % l == 0:
        return NakayamaClassification(
            True, "tnl", n, l, 2 * (n - 1) // l, f"{l} divides {n - 1}"
        )
    return NakayamaClassification(
        False, "tnl", n, l, None, f"{l} divides neither n-1={n - 1} nor is 2"
    )


# -- QF-13 --------------------------------------------------------------------


def qf13_nakayama(n: int, l: int) -> bool:
    """Yamagata's QF-1 criterion for the QF-3 algebra T_{n,l}: with
    domdim >= 2, QF-13 holds iff every serial module has positive dominant
    or codominant dimension."""
    report = tnl_dims(n, l)
    if report.domdim < 2:
        raise CriterionInapplicable(
            f"T_({n},{l}) has domdim {report.domdim} < 2; Yamagata's criterion "
            "does not apply",
            obstruction=report.domdim,
        )
    ks = tnl_kupisch(n, l)
    for i in range(1, n + 1):
        for s in range(1, ks.c[i - 1] + 1):
            dims = kupisch_module_dims(ks, SerialModule(i, s))
            if dims.domdim >= 1 or dims.codomdim >= 1:
                continue
            return False
    return True


# -- enumeration ---------------------------------------------------------------


def connected_kupisch_series(n: int) -> List[KupischSeries]:
    """All Kupisch series of connected quotients of kA_n, n >= 2."""
    if n < 2:
        raise InvalidParams("need n >= 2")
    series: List[Tuple[int, ...]] = [(1,)]
    for _ in range(n - 1):
        series = [
            (c0,) + rest for rest in series for c0 in range(2, rest[0] + 2)
        ]
    return [KupischSeries(s) for s in series]
