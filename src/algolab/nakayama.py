"""Exact combinatorics of connected linear-quiver Nakayama algebras.

Everything here is driven by the Kupisch series [c_1..c_n]: serial modules
are intervals, injective envelopes and projective covers are read off the
series, and the homological dimensions of the T_{n,l} family come out of a
two-term recursion.  Cyclic Nakayama algebras are not supported.

The resolution walks step intervals: [lo, hi] has the envelope
I_hi = [a_hi, hi], with a_j the least i such that i + c_i > j, and the cover
P_lo = [lo, lo + c_lo - 1].  A series builds every a_j in one pass (i + c_i
never decreases) and keeps one table per side that maps each interval a walk
passed to what is left of that walk, so a later walk that reaches it reads
its tail there: every interval is stepped once per series.
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


class _Walks:
    """The envelope and cover walks of one Kupisch series.  Each table maps
    an interval to (steps to the walk's end, steps from its first term that
    is not projective-injective to the end, or -1)."""

    def __init__(self, c):
        self.c, self.a, i = c, [0], 1
        for j in range(1, len(c) + 1):
            while i + c[i - 1] <= j:
                i += 1
            self.a.append(i)
        self.envelopes, self.covers = {}, {}

    def _cosyzygy(self, lo, hi):
        """(I_hi / [lo, hi] or None when it is 0, whether I_hi is projective)."""
        a = self.a[hi]
        return (None if a >= lo else (a, lo - 1)), a + self.c[a - 1] - 1 == hi

    def _syzygy(self, lo, hi):
        """(the kernel of P_lo -> [lo, hi] or None, whether P_lo is injective)."""
        end = lo + self.c[lo - 1] - 1
        return (None if end == hi else (hi + 1, end)), self.a[end] == lo

    def _walk(self, step, table, key):
        """(length, first term that is not projective-injective or INFINITE)."""
        path = []
        while key not in table:
            nxt, pi = step(*key)
            path.append((key, pi))
            if nxt is None:
                steps = last = -1
                break
            key = nxt
        else:
            steps, last = table[key]
        for key, pi in reversed(path):
            steps += 1
            if not pi:
                last = steps
            table[key] = steps, last
        return steps, (steps - last if last >= 0 else INFINITE)

    def module(self, i: int, s: int, bound: int):
        """(pdim, idim, domdim, codomdim) of M_(i,s).  The coresolution is
        checked before the resolution, so a module with both walks too long
        reports the coresolution; a walk of no steps is within any bound."""
        key = (i, i + s - 1)
        idim, domdim = self._walk(self._cosyzygy, self.envelopes, key)
        if idim > bound and idim:
            raise ResolutionBoundExceeded(f"injective coresolution of M_({i},{s}) exceeded {bound}")
        pdim, codomdim = self._walk(self._syzygy, self.covers, key)
        if pdim > bound and pdim:
            raise ResolutionBoundExceeded(f"projective resolution of M_({i},{s}) exceeded {bound}")
        return pdim, idim, domdim, codomdim


def kupisch_module_dims(ks: KupischSeries, m: SerialModule, bound: int = 64) -> ModuleDims:
    """Homological dimensions of a serial module by its envelope and cover
    walks on intervals.  Infinite dominant/codominant dimensions (the
    projective-injective case) are reported as math.inf."""
    if m.i > ks.n or m.s > ks.c[m.i - 1]:
        raise InvalidLength(f"M_({m.i},{m.s}) is not a module over {ks}")
    return ModuleDims(*_Walks(ks.c).module(m.i, m.s, bound))


def kupisch_algebra_dims(ks: KupischSeries, bound: int = 64):
    """(gldim, domdim) of the algebra of a Kupisch series via module walks:
    gldim is the largest pdim of a simple, domdim the least of a projective."""
    walks = _Walks(ks.c)
    gldim = 0
    domdim = INFINITE
    for i in range(1, ks.n + 1):
        gldim = max(gldim, walks.module(i, 1, bound)[0])
        domdim = min(domdim, walks.module(i, ks.c[i - 1], bound)[2])
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
