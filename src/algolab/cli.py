"""Command-line surface, sweep engine and formula-vs-oracle verification.

Output is deterministic JSON (sorted keys, no timestamps); exit codes are
0 on success, 2 on a verification mismatch or an internal one
(``InternalMismatch``, its witness on stderr), 1 on usage, domain and file
errors.
"""

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import List

from . import nakayama as nk
from .dynkin import (
    coxeter_data,
    hereditary_descriptor,
    kronecker_quiver,
    linear_quiver,
    orientations,
    parse_graph,
    parse_quiver,
)
from .errors import (
    AlgolabError, HorizonTooSmall, InternalMismatch, ResolutionBoundExceeded, UnknownPeriodicity,
)
from .gl import GLData, canonical_nu_formal_scan, is_torsion, omega
from .replicated import (
    minimal_ag_members,
    replicated_dims_hereditary,
    sgc_truncation,
)
from .serre import hereditary_profile, minimal_ag_schedule

DEFAULT_BOUND = 64


def resolution_bound() -> int:
    """ALGOLAB_BOUND when it is a non-negative integer, else the default."""
    try:
        bound = int(os.environ.get("ALGOLAB_BOUND", DEFAULT_BOUND))
    except ValueError:
        return DEFAULT_BOUND
    return bound if bound >= 0 else DEFAULT_BOUND


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class UsageError(Exception):
    pass


def _emit(payload, compact=False):
    if compact:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return json.dumps(payload, sort_keys=True, indent=2)


def _json_safe(value):
    if value is math.inf:
        return "infinity"
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


# -- base-algebra parsing -----------------------------------------------------


def parse_base(spec: str):
    """Returns (description, quiver) for specs like "A3:linear",
    "kronecker", or explicit arrow lists "1->2,2->3"."""
    spec = spec.strip()
    if spec.lower() == "kronecker":
        return "kronecker", kronecker_quiver()
    if "->" in spec:
        return spec, parse_quiver(spec)
    if ":" in spec:
        graph_part, orientation = spec.split(":", 1)
    else:
        graph_part, orientation = spec, "linear"
    graph = parse_graph(graph_part)
    if orientation != "linear":
        raise UsageError(f"unknown orientation {orientation!r}")
    return spec, linear_quiver(graph)


# -- subcommands ----------------------------------------------------------------


def cmd_nakayama(args):
    rep = nk.tnl_dims(args.n, args.l)
    cls = nk.serre_formal_class_nakayama(nk.tnl_kupisch(args.n, args.l))
    payload = {
        "gldim": rep.gldim,
        "domdim": rep.domdim,
        "higher_auslander": rep.higher_auslander,
        "serre_formal": cls.serre_formal,
        "d": cls.d,
    }
    return payload, 0


def cmd_hereditary(args):
    if args.quiver:
        quiver = parse_quiver(args.quiver)
    elif args.type:
        _, quiver = parse_base(args.type)
    else:
        raise UsageError("hereditary needs --type or --quiver")
    desc = hereditary_descriptor(quiver)
    profile = hereditary_profile(desc, args.horizon)
    payload = {
        "quiver": quiver.to_json(),
        "representation_finite": desc.representation_finite,
        "profile": profile.to_json(),
    }
    if quiver.graph is not None:
        h, nu = coxeter_data(quiver.graph)
        payload["coxeter_number"] = h
        payload["nu"] = {str(k): v for k, v in nu.items()}
    return payload, 0


def cmd_replicate(args):
    desc_name, quiver = parse_base(args.base)
    desc = hereditary_descriptor(quiver)
    profile = hereditary_profile(desc, args.m + 2)
    rep = replicated_dims_hereditary(profile, args.m)
    try:
        schedule = minimal_ag_schedule(profile).to_json()
    except (HorizonTooSmall, UnknownPeriodicity):
        schedule = {"periodic": "unknown"}
    payload = {
        "base": desc_name,
        "quiver": quiver.to_json(),
        "m": args.m,
        "domdim": rep.domdim,
        "idim": rep.idim,
        "gldim": rep.gldim,
        "higher_auslander": rep.higher_auslander,
        "minimal_ag": rep.minimal_ag,
        "schedule": schedule,
    }
    exit_code = 0
    if args.verify:
        outcome, detail = _verify_replicated(quiver, args.m, rep, resolution_bound())
        payload["verified"] = outcome == "verified"
        if detail:
            payload[outcome] = detail
            exit_code = 2
    return payload, exit_code


def _outcome(pairs):
    """The outcome of (computed, formula) pairs: "verified" when every pair
    agrees, "inconclusive" when every one that does not is AtLeast(n), a
    walk cut at the bound, with n <= the formula's value, else "mismatch"."""
    if all(c == f for c, f in pairs):
        return "verified"
    from .oracle import AtLeast  # here, so that a check that agrees loads no oracle

    cut = all(c == f or isinstance(c, AtLeast) and c.n <= f for c, f in pairs)
    return "inconclusive" if cut else "mismatch"


def _verify_replicated(quiver, m, rep, bound):
    """(outcome, detail) of the oracle's report on the replicated algebra
    against the formula; detail holds both reports unless verified."""
    from .oracle import (
        build_replicated,
        compile_bound_quiver,
        homological_report,
        quiver_presentation_from_dynkin,
    )

    base = compile_bound_quiver(quiver_presentation_from_dynkin(quiver))
    oracle_rep = homological_report(build_replicated(base, m), bound)
    pairs = [
        (oracle_rep.domdim, rep.domdim),
        (oracle_rep.idim_right, rep.idim),
        (oracle_rep.idim_left, rep.idim),
        (oracle_rep.gldim, rep.gldim),
    ]
    outcome = _outcome(pairs)
    return outcome, None if outcome == "verified" else {
        "oracle": oracle_rep.to_json(),
        "formula": {"domdim": rep.domdim, "idim": rep.idim, "gldim": rep.gldim},
    }


def cmd_sgc(args):
    ks = nk.sgc_kupisch(args.n, args.l, args.m)
    ha = nk.sgc_higher_auslander(args.n, args.l, args.m)
    rep = nk.tnl_dims(ks.n, args.l)
    payload = {
        "kupisch": str(ks),
        "higher_auslander": ha,
        "gldim": rep.gldim,
        "domdim": rep.domdim,
    }
    exit_code = 0
    if args.verify:
        from .oracle import compile_bound_quiver, kupisch_of, tnl_presentation

        base = compile_bound_quiver(tnl_presentation(args.n, args.l))
        truncated = sgc_truncation(base, args.m)
        recovered = kupisch_of(truncated)
        outcome = _outcome([(str(recovered), str(ks))])
        payload["verified"] = outcome == "verified"
        if not payload["verified"]:
            payload[outcome] = {"oracle_kupisch": str(recovered)}
            exit_code = 2
    return payload, exit_code


def cmd_check_serre_formal(args):
    ks = nk.KupischSeries.parse(args.kupisch)
    cls = nk.serre_formal_class_nakayama(ks)
    payload = {"kupisch": str(ks), "classification": cls.to_json()}
    if args.oracle:
        payload["oracle"], outcome = _verify_serre(ks, cls, args.horizon, resolution_bound())
        payload["verified"] = outcome == "verified"
    return payload, 2 if payload.get("verified") is False else 0


def _verify_serre(ks, cls, horizon, bound):
    """(the oracle's Serre verdict on a Kupisch series, its outcome against
    the classification); an inconclusive verdict is inconclusive, its reason on stderr."""
    from .oracle import compile_bound_quiver, kupisch_presentation, serre_formal_check

    alg = compile_bound_quiver(kupisch_presentation(ks.c))
    verdict = serre_formal_check(alg, horizon, bound)
    if verdict.kind == "inconclusive":
        print(f"inconclusive: {ks}: {verdict.reason}", file=sys.stderr)
        return verdict.kind, verdict.kind
    return verdict.kind, _outcome([(verdict.kind == "serre_formal", cls.serre_formal)])


def _parse_weights(spec: str):
    """The weight tuple of a spec like "2,3,7"."""
    try:
        return tuple(int(w) for w in spec.split(","))
    except ValueError:
        raise UsageError(f"weights must be comma-separated integers, got {spec!r}")


def cmd_gl(args):
    weights = _parse_weights(args.weights)
    data = GLData(weights, args.d)
    om = omega(data)
    payload = {
        "weights": list(weights),
        "d": args.d,
        "omega": om.to_json(),
        "torsion": is_torsion(data, om),
    }
    if args.scan:
        report = canonical_nu_formal_scan(data, args.scan)
        payload["scan"] = "certified" if report.certified else "counterexample"
        if not report.certified:
            return payload, 2
    return payload, 0


# -- sweep ------------------------------------------------------------------------

ORACLE_DIM_THRESHOLD = 400
# a catalog row's status for an outcome other than "verified"
STATUS = {"inconclusive": "inconclusive", "mismatch": "MISMATCH"}


@dataclass
class CatalogRow:
    id: str
    family: str
    params: str
    m: object
    domdim: object
    idim: object
    gldim: object
    ha: object
    min_ag: object
    sf: object
    schedule_t: object
    verified: str

    def as_list(self):
        def enc(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            return str(_json_safe(v))

        return [enc(getattr(self, c)) for c in CSV_COLUMNS]


CSV_COLUMNS = [f.name for f in fields(CatalogRow)]


def sweep_nakayama(n_max, l_max, m_max, verify):
    statuses = {}  # row (n, l, m) checks T(n + m(l-1), l): one walk per series and sweep
    bound = resolution_bound()
    for n in range(2, n_max + 1):
        for l in range(2, min(l_max, n) + 1):
            for m in range(0, m_max + 1):
                ks = nk.sgc_kupisch(n, l, m)
                rep = nk.tnl_dims(ks.n, l)
                ha = nk.sgc_higher_auslander(n, l, m)
                cls = nk.serre_formal_class_nakayama(ks)
                dim = ks.dimension()
                status = "formula-only"
                if verify or dim <= ORACLE_DIM_THRESHOLD:
                    if ks not in statuses:
                        outcome, _ = _verify_nakayama_row(ks, rep, bound)
                        statuses[ks] = STATUS.get(outcome, "walk-verified")
                    status = statuses[ks]
                sched_t = None
                if ha and l != 2 and (ks.n % l == 0):
                    sched_t = ks.n // l
                yield CatalogRow(
                    id=f"T({n},{l})^[{m}]",
                    family="nakayama",
                    params=f"n={n};l={l}",
                    m=m,
                    domdim=rep.domdim,
                    idim=rep.gldim,
                    gldim=rep.gldim,
                    ha=ha,
                    min_ag=ha,
                    sf=cls.serre_formal,
                    schedule_t=sched_t,
                    verified=status,
                )


def _verify_nakayama_row(ks, rep, bound):
    """(outcome, (gldim, domdim)) of the interval walks of a Kupisch series
    against the formula; a walk past the bound is inconclusive, no dims."""
    try:
        g, d = nk.kupisch_algebra_dims(ks, bound)
    except ResolutionBoundExceeded:
        return "inconclusive", None
    pairs = [(g, rep.gldim), (d, rep.domdim), (g == d >= 1, rep.higher_auslander)]
    return _outcome(pairs), (g, d)


def sweep_dynkin(types, m_max, verify):
    for name in types:
        graph = parse_graph(name)
        for idx, quiver in enumerate(orientations(graph)):
            desc = hereditary_descriptor(quiver)
            profile = hereditary_profile(desc, m_max + 2)
            members = set(minimal_ag_members(profile, m_max))
            for m in range(1, m_max + 1):
                rep = replicated_dims_hereditary(profile, m)
                status = "formula-only"
                dim_est = (2 * m + 1) * sum(sum(r) for r in desc.cartan)
                # oracle verification is mandatory below the feasibility
                # threshold and opt-in above it
                if dim_est <= ORACLE_DIM_THRESHOLD or verify:
                    outcome, _ = _verify_replicated(quiver, m, rep, resolution_bound())
                    status = STATUS.get(outcome, "oracle-verified")
                if _outcome([(m in members, rep.minimal_ag)]) == "mismatch":
                    status = "MISMATCH"
                yield CatalogRow(
                    id=f"{name}:o{idx}^({m})",
                    family="dynkin",
                    params=f"type={name};orientation={idx}",
                    m=m,
                    domdim=rep.domdim,
                    idim=rep.idim,
                    gldim=rep.gldim,
                    ha=rep.higher_auslander,
                    min_ag=rep.minimal_ag,
                    sf=True,
                    schedule_t=rep.schedule_t,
                    verified=status,
                )


def sweep_gl(weight_specs, d_max, k_range):
    for spec in weight_specs:
        weights = _parse_weights(spec)
        for d in range(1, d_max + 1):
            data = GLData(weights, d)
            om = omega(data)
            report = canonical_nu_formal_scan(data, k_range)
            yield CatalogRow(
                id=f"GL({spec};d={d})",
                family="gl",
                params=f"weights={spec};d={d};torsion={is_torsion(data, om)}",
                m=None,
                domdim=None,
                idim=None,
                gldim=None,
                ha=None,
                min_ag=None,
                sf=report.certified,
                schedule_t=None,
                verified="scan-certified" if report.certified else "MISMATCH",
            )


def write_catalog(rows, path):
    """Atomic CSV write of the rows as they come.  An interrupt while they
    come ends the file with the rows already written and an interrupted
    status record; the caller decides whether to re-raise it."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    status = "complete"
    written = 0
    try:
        for row in rows:
            writer.writerow(row.as_list())
            written += 1
    except KeyboardInterrupt:
        status = "interrupted"
    writer.writerow(["#status", status, f"rows={written}"] + [""] * (len(CSV_COLUMNS) - 3))
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(buf.getvalue())
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        # the error names the path the user gave, not the temporary file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    return written, status


def cmd_sweep(args):
    if args.family == "nakayama":
        l_max = args.n_max if args.l_max is None else args.l_max  # 0 sweeps no l
        rows = sweep_nakayama(args.n_max, l_max, args.m_max, args.verify)
    elif args.family == "dynkin":
        types = (args.types or "A2,A3,A4").split(",")
        rows = sweep_dynkin(types, args.m_max, args.verify)
    elif args.family == "gl":
        specs = (args.weights or "2,2,2|2,3,7").split("|")
        rows = sweep_gl(specs, args.d_max, args.scan)
    else:
        raise UsageError(f"unknown sweep family {args.family!r}")
    if args.out:
        kept = []  # each row as the catalog takes it, for the counts below
        _, status = write_catalog((kept.append(row) or row for row in rows), args.out)
        if status == "interrupted":
            raise KeyboardInterrupt
        rows = kept
    else:
        rows = list(rows)
    mismatches = [r for r in rows if r.verified == "MISMATCH"]
    payload = {
        "rows": len(rows),
        "mismatches": len(mismatches),
        "out": args.out,
    }
    return payload, 2 if mismatches else 0


# -- verify ---------------------------------------------------------------------


VERIFY_TARGETS = ("naka-small", "naka-tiny", "replicated-linearA", "serre-naka", "coxeter", "gl",
                  "selftest-corrupt")


def verify_target(target: str, bound: int) -> List[str]:
    """Recomputes a named formula/oracle pair suite, each case's outcome
    from ``_outcome`` (a walk past the bound is inconclusive); returns one
    diff per case that is not verified, headed by its outcome."""
    cases = []  # (outcome, case)
    if target == "naka-small":
        from .oracle import compile_bound_quiver, homological_report, tnl_presentation

        for n in range(2, 15):
            for l in range(2, n + 1):
                rep = nk.tnl_dims(n, l)
                orep = homological_report(compile_bound_quiver(tnl_presentation(n, l)), bound)
                outcome = _outcome([(orep.gldim, rep.gldim), (orep.domdim, rep.domdim)])
                cases.append((outcome, f"T({n},{l}): formula ({rep.gldim},{rep.domdim}) "
                               f"oracle ({orep.gldim},{orep.domdim})"))
    elif target == "naka-tiny":
        for n in range(2, 9):
            for l in range(2, n + 1):
                rep = nk.tnl_dims(n, l)
                outcome, walks = _verify_nakayama_row(nk.tnl_kupisch(n, l), rep, bound)
                cases.append((outcome, f"T({n},{l}): formula ({rep.gldim},{rep.domdim}) "
                               f"walks {walks or 'past the bound'}"))
    elif target == "replicated-linearA":
        for n in range(2, 5):
            quiver = linear_quiver(parse_graph(f"A{n}"))
            profile = hereditary_profile(hereditary_descriptor(quiver), 6)
            for m in range(1, 4):
                rep = replicated_dims_hereditary(profile, m)
                outcome, detail = _verify_replicated(quiver, m, rep, bound)
                cases.append((outcome, f"A{n}^({m}): {json.dumps(detail, sort_keys=True)}"))
    elif target == "serre-naka":
        for n in range(2, 7):
            for ks in nk.connected_kupisch_series(n):
                cls = nk.serre_formal_class_nakayama(ks)
                kind, outcome = _verify_serre(ks, cls, None, bound)
                cases.append((outcome, f"{ks}: class {cls.serre_formal} oracle {kind}"))
    elif target == "coxeter":
        for name in ["A2", "A3", "A4", "D4", "B3", "C3", "F4", "G2"]:
            graph = parse_graph(name)
            h, nu = coxeter_data(graph)
            ell = hereditary_profile(hereditary_descriptor(linear_quiver(graph)), h + 1).ell
            for i in ell:
                total = None if None in (ell[i], ell[nu[i]]) else ell[i] + ell[nu[i]]
                cases.append((_outcome([(total, h)]), f"{name}: ell identity fails at {i}"))
    elif target == "gl":
        for weights, d, expected in [((2, 2, 2, 2), 1, True), ((2, 3, 7), 1, False),
                                     ((2, 2, 2), 1, False)]:
            data = GLData(weights, d)
            torsion = is_torsion(data, omega(data))
            cases.append((_outcome([(torsion, expected)]), f"GL{weights}: torsion != {expected}"))
            scan = canonical_nu_formal_scan(data, 10).certified
            cases.append((_outcome([(scan, True)]), f"GL{weights}: scan failed"))
    elif target == "selftest-corrupt":
        # harness self-test: a deliberately wrong expected value is a mismatch
        rep = nk.tnl_dims(6, 3)
        corrupted = (rep.gldim + 1, rep.domdim)
        cases.append((_outcome(list(zip((rep.gldim, rep.domdim), corrupted))), (
            f"T(6,3): corrupted fixture {corrupted} vs computed ({rep.gldim},{rep.domdim})"
        )))
    else:
        raise UsageError(f"unknown verify target {target!r}, not in {', '.join(VERIFY_TARGETS)}")
    return [f"{outcome}: {case}" for outcome, case in cases if outcome != "verified"]


def cmd_verify(args):
    diffs = verify_target(args.target, resolution_bound())
    payload = {"target": args.target, "diffs": diffs, "pass": not diffs}
    return payload, 2 if diffs else 0


# -- driver -----------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves no state
    on it, and building it costs more than a closed-form command."""
    parser = _Parser(prog="algolab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nakayama", help="closed forms for T_{n,l}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--json", action="store_true", help="compact one-line JSON")
    p.set_defaults(func=cmd_nakayama)

    p = sub.add_parser("hereditary", help="Coxeter data and Serre profile")
    p.add_argument("--type", help='e.g. "A4" or "A4:linear"')
    p.add_argument("--quiver", help='explicit arrows "1->2,2->3"')
    p.add_argument("--horizon", type=int, default=12)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hereditary)

    p = sub.add_parser("replicate", help="dimension formulas for A^(m)")
    p.add_argument("--base", required=True, help='e.g. "A3:linear", "kronecker"')
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("sgc", help="SGC extensions of T_{n,l}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sgc)

    p = sub.add_parser("check-serre-formal", help="Nakayama classification")
    p.add_argument("--kupisch", required=True, help='e.g. "[3,3,3,2,1]"')
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--horizon", type=int, help="default max(8, n): kA_n needs n")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_serre_formal)

    p = sub.add_parser("gl", help="Geigle-Lenzing group combinatorics")
    p.add_argument("--weights", required=True, help='e.g. "2,3,7"')
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--scan", type=int, default=25)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gl)

    p = sub.add_parser("sweep", help="grid sweeps with CSV catalogs")
    p.add_argument("--family", required=True, choices=["nakayama", "dynkin", "gl"])
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--l-max", type=int, default=None)
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--d-max", type=int, default=2)
    p.add_argument("--scan", type=int, default=10)
    p.add_argument("--types", help='comma list, e.g. "A2,A3,A4"')
    p.add_argument("--weights", help='pipe list, e.g. "2,2,2|2,3,7"')
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="formula-vs-oracle verification suites")
    p.add_argument(
        "--target",
        default="naka-tiny",
        help=" | ".join(VERIFY_TARGETS),
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def run_command(argv) -> int:
    """Runs a CLI invocation, printing deterministic JSON; returns the exit
    code (0 ok, 1 usage, domain or file error, 2 verification or internal
    mismatch)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, code = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InternalMismatch as exc:
        print(f"error: InternalMismatch: {exc} (witness: {exc.witness!r})", file=sys.stderr)
        return 2
    except (AlgolabError, OSError) as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1
    print(_emit(_json_safe(payload), compact=getattr(args, "json", False)))
    return code


def main():
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed early: exit 1, the flush at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
