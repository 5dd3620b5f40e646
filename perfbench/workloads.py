"""The three benchmark workloads: their seeded op windows, how to run one
op, and the independent check of its output.

A workload's window is a fixed number of ops with a fixed mix of kinds,
shuffled.  Every draw comes from one ``random.Random(seed)``, and the program
only ever sees the generated inputs.  The parameters that set an op's cost
are fixed outright or dealt from decks (``_Deck``) whose cycles fit the
window exactly, so that windows of different seeds hold the same mix of
sizes and differ in the details and the order.

Ops reach algolab through module attributes (``algolab.oracle.x``, never a
name bound here), so a tracer that patches those modules sees every call.
"""

import contextlib
import importlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Tuple

import algolab

ORACLE_DIM_THRESHOLD = 400  # (2m+1) * dim A, the sweep's oracle limit
DYNKIN_TYPES = ("A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6")


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple  # argv for CLI ops, (kupisch series, (n, l) or None) otherwise
    extra: tuple = ()  # check-only data the program never sees

    def label(self) -> str:
        return f"{self.kind} {' '.join(map(str, self.args))}"


@dataclass(frozen=True)
class Workload:
    name: str
    imports: Tuple[str, ...]  # what a user of the workload imports
    generate: Callable[[random.Random], List[Op]]  # the op window
    run: Callable[[Op], object]
    check: Callable[[Op, object], Tuple[bool, str]]  # (ok, canonical output)


# -- shared helpers --------------------------------------------------------------


def reference_dims(ks):
    """(gldim, domdim) of a Nakayama algebra by the interval walks, the
    independent side of every Nakayama check (a test corrupts it)."""
    return algolab.nakayama.kupisch_algebra_dims(ks)


def _rounds(rng, count, make_round):
    ops: List[Op] = []
    for _ in range(count):
        chunk = make_round()
        rng.shuffle(chunk)
        ops.extend(chunk)
    return ops


class _Deck:
    """Draws from ``values`` without replacement, reshuffling when empty, so
    every value recurs once per len(values) draws."""

    def __init__(self, rng, values):
        self.rng, self.values, self.left = rng, list(values), []

    def draw(self):
        if not self.left:
            self.left = list(self.values)
            self.rng.shuffle(self.left)
        return self.left.pop()


def _random_kupisch(rng, n):
    c = [1]
    for _ in range(n - 1):
        c.insert(0, rng.randint(2, c[0] + 1))
    return tuple(c)


def _graphs():
    return {t: algolab.dynkin.parse_graph(t) for t in DYNKIN_TYPES}


def _orientation(rng, graph):
    """A random orientation of a Dynkin graph, as a list of arrows."""
    return [(j, i) if rng.random() < 0.5 else (i, j) for i, j, _ in graph.edges()]


def _path_count(arrows):
    """dim of the path algebra of an acyclic quiver: its number of paths,
    trivial ones included."""
    verts = {v for a in arrows for v in a}
    memo = {}

    def paths_from(v):
        if v not in memo:
            memo[v] = 1 + sum(paths_from(t) for s, t in arrows if s == v)
        return memo[v]

    return sum(paths_from(v) for v in verts)


def _arrow_list(arrows):
    return ",".join(f"{s}->{t}" for s, t in arrows)


def _run_cli(op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = algolab.cli.run_command(list(op.args))
    return code, out.getvalue(), err.getvalue()


def _cli_payload(result):
    """(parsed stdout or None on a nonzero exit, canonical output)."""
    code, out, err = result
    return json.loads(out) if code == 0 else None, f"exit={code}\n{out}{err}"


# -- nakayama-oracle ---------------------------------------------------------------


_KUPISCH_PER_N = 6  # random Kupisch series per n = 3..14
_TNL_MAX_N = 11  # every T(n,l) with 2 <= l < n <= 11, once


def _naka_generate(rng):
    # The T(n,l) are all there, so every window holds the same Serre-formal
    # members (l = 2 or l | n-1) and the same costly l = n-1 ones.
    ops = [
        Op("kupisch", (_random_kupisch(rng, n), None))
        for _ in range(_KUPISCH_PER_N)
        for n in range(3, 15)
    ]
    for n in range(3, _TNL_MAX_N + 1):
        for l in range(2, n):
            ops.append(Op("tnl", (tuple(min(l, n - i) for i in range(n)), (n, l))))
    rng.shuffle(ops)
    return ops


def _naka_run(op):
    oracle = algolab.oracle
    alg = oracle.compile_bound_quiver(oracle.kupisch_presentation(op.args[0]))
    right = oracle.homological_report(alg)
    left = oracle.homological_report(alg.opposite())
    verdict = oracle.serre_formal_check(alg, horizon=8)
    return right, left, verdict


def _profile_fields(profile):
    # SerreProfile.to_json also derives the twisted CY dimension, which can
    # need a longer horizon than the check ran with
    return [profile.s_minus, profile.s_plus, profile.ell, profile.sigma]


def _naka_check(op, result):
    nk = algolab.nakayama
    right, left, verdict = result
    c, tnl = op.args
    ks = nk.KupischSeries(c)
    g, d = reference_dims(ks)
    cls = nk.serre_formal_class_nakayama(ks)
    ok = (
        right.gldim == left.gldim == right.idim_right == right.idim_left == g
        and right.domdim == left.domdim == d
        and verdict.kind != "inconclusive"
        and (verdict.kind == "serre_formal") == cls.serre_formal
    )
    if tnl is not None:
        rep = nk.tnl_dims(*tnl)
        ok = ok and (rep.gldim, rep.domdim) == (g, d)
    shown = {
        "right": right.to_json(),
        "left": left.to_json(),
        "serre": verdict.kind,
        "profile": _profile_fields(verdict.profile) if verdict.profile else None,
        "witness": [
            str(verdict.witness.simple),
            verdict.witness.power,
            sorted(verdict.witness.degrees),
        ]
        if verdict.witness
        else None,
    }
    return ok, json.dumps(shown, sort_keys=True, default=str)


# -- replicated-dynkin -------------------------------------------------------------

_REPLICATED_ROUNDS = 10  # each round: one op per base type; m is dealt from
# the tenths of its allowed range: 1,1,2,3,4,5,5,6,7,8 for most bases


def _replicated_generate(rng):
    graphs = _graphs()
    m_slots = {t: _Deck(rng, range(_REPLICATED_ROUNDS)) for t in DYNKIN_TYPES + ("kronecker",)}

    def make_round():
        ops = []
        for type_name, deck in m_slots.items():
            if type_name == "kronecker":
                arrows = [(1, 2), (1, 2)]
            else:
                arrows = _orientation(rng, graphs[type_name])
            dim = _path_count(arrows)
            m_max = min(8, (ORACLE_DIM_THRESHOLD // dim - 1) // 2)
            m = 1 + deck.draw() * m_max // _REPLICATED_ROUNDS
            argv = ("replicate", "--base", _arrow_list(arrows), "--m", str(m), "--verify")
            ops.append(Op("replicate", argv))
        return ops

    return _rounds(rng, _REPLICATED_ROUNDS, make_round)


def _replicated_check(op, result):
    payload, shown = _cli_payload(result)
    return payload is not None and payload.get("verified") is True, shown


# -- closed-forms ------------------------------------------------------------------

# The window is built so that neither percentile sits where the cost of the
# ops that happen to be drawn changes steeply: a twentieth of the ops are
# costly gl scans of fixed weight multisets (which the seed only reorders), and
# the tenth below them, where p90 falls, are scans of one cost, the weights
# 2, 5, 7 in a seeded order with d = 3.  Everything below that is drawn freely
# and costs at most half as much.
_CLOSED_ROUNDS = 20  # each round: 4 nakayama, 4 hereditary, 4 sweep, 5 small gl,
# 2 plateau gl and 1 large gl op
_HEREDITARY_TYPES = DYNKIN_TYPES[1:]  # 8 types, dealt 4 a round
_GL_SMALL_BINS = 5  # small gl ops: one a round from each log-spaced bin of
_GL_SMALL_MAX = 48  # d times the product of the weights, 2 to this
_GL_PLATEAU = ((2, 5, 7), 3)  # 35-60 ms on a 2 vCPU VM, whatever the order
_GL_LARGE = (  # (weights, d), each twice a window; 80-250 ms each
    ((6, 6, 7, 7), 2),
    ((5, 6, 7), 3),
    ((4, 6, 7), 3),
    ((2, 3, 6, 7), 3),
    ((3, 3, 5, 7), 3),
    ((5, 7, 7), 3),
    ((2, 4, 6, 7), 3),
    ((6, 7, 7), 3),
    ((3, 5, 6, 7), 3),
    ((4, 5, 6, 7), 3),
)


def _gl_small(rng, size_bin):
    scale = _GL_SMALL_BINS / math.log(_GL_SMALL_MAX / 2)
    while True:
        weights = [rng.randint(2, 7) for _ in range(rng.randint(1, 4))]
        d = rng.randint(1, 3)
        size = d * math.prod(weights)
        if size <= _GL_SMALL_MAX and min(
            _GL_SMALL_BINS - 1, int(math.log(size / 2) * scale)
        ) == size_bin:
            return weights, d


def _gl_op(weights, d):
    argv = ("gl", "--weights", ",".join(map(str, weights)), "--d", str(d), "--scan", "25")
    return Op("gl", argv)


def _shuffled(rng, weights):
    weights = list(weights)
    rng.shuffle(weights)
    return weights


def _closed_generate(rng):
    graphs = _graphs()
    types = _Deck(rng, _HEREDITARY_TYPES)
    sweep_n = _Deck(rng, range(4, 9))
    sweep_m = _Deck(rng, range(0, 4))
    large = _Deck(rng, _GL_LARGE)

    def make_round():
        ops = []
        for _ in range(4):
            n = rng.randint(2, 40)
            l = rng.randint(2, n)
            ops.append(Op("nakayama", ("nakayama", "--n", str(n), "--l", str(l)), (n, l)))
        for i in range(4):
            type_name = types.draw()
            h = graphs[type_name].coxeter_number()
            horizon = str(rng.randint(h, h + 8))
            if i % 2:
                spec = ("--quiver", _arrow_list(_orientation(rng, graphs[type_name])))
            else:
                spec = ("--type", f"{type_name}:linear")
            ops.append(
                Op("hereditary", ("hereditary",) + spec + ("--horizon", horizon), (type_name,))
            )
        for _ in range(4):
            argv = ("sweep", "--family", "nakayama")
            argv += ("--n-max", str(sweep_n.draw()), "--m-max", str(sweep_m.draw()))
            ops.append(Op("sweep", argv))
        for size_bin in range(_GL_SMALL_BINS):
            ops.append(_gl_op(*_gl_small(rng, size_bin)))
        weights, d = _GL_PLATEAU
        ops += [_gl_op(_shuffled(rng, weights), d) for _ in range(2)]
        weights, d = large.draw()
        ops.append(_gl_op(_shuffled(rng, weights), d))
        return ops

    return _rounds(rng, _CLOSED_ROUNDS, make_round)


def _closed_check(op, result):
    payload, shown = _cli_payload(result)
    if payload is None:
        return False, shown
    if op.kind == "gl":
        ok = payload["scan"] == "certified"
    elif op.kind == "sweep":
        ok = payload["mismatches"] == 0 and payload["rows"] > 0
    elif op.kind == "nakayama":
        walks = reference_dims(algolab.nakayama.tnl_kupisch(*op.extra))
        ok = (payload["gldim"], payload["domdim"]) == walks
    else:  # hereditary: ell_i + ell_nu(i) = h, with h and nu from the type table
        h, nu = algolab.dynkin.coxeter_data(algolab.dynkin.parse_graph(op.extra[0]))
        ell = payload["profile"]["ell"]
        ok = all(
            ell[str(i)] is not None and ell[str(i)] + ell[str(nu[i])] == h for i in nu
        )
    return ok, shown


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "nakayama-oracle",
            ("algolab.oracle",),
            _naka_generate,
            _naka_run,
            _naka_check,
        ),
        Workload(
            "replicated-dynkin",
            ("algolab.cli", "algolab.oracle"),
            _replicated_generate,
            _run_cli,
            _replicated_check,
        ),
        Workload(
            "closed-forms",
            ("algolab.cli",),
            _closed_generate,
            _run_cli,
            _closed_check,
        ),
    )
}


def prepare(name: str, seed: int) -> List[Op]:
    """Imports what the workload's users import and generates its op
    window: the set-up that ``setup_s`` times."""
    workload = WORKLOADS[name]
    for module in workload.imports:
        importlib.import_module(module)
    return workload.generate(random.Random(seed))
