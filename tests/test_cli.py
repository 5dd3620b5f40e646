import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algolab.cli import CSV_COLUMNS, run_command, verify_target


def run(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, buf.getvalue(), err.getvalue()


def test_nakayama_command():
    code, out, _ = run(["nakayama", "--n", "6", "--l", "3", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["gldim"] == 3
    assert payload["domdim"] == 3
    assert payload["higher_auslander"] is True


def test_nakayama_serre_formal_fields():
    code, out, _ = run(["nakayama", "--n", "7", "--l", "3", "--json"])
    payload = json.loads(out)
    assert payload["serre_formal"] is True and payload["d"] == 4


def test_output_is_deterministic():
    _, out1, _ = run(["nakayama", "--n", "9", "--l", "4", "--json"])
    _, out2, _ = run(["nakayama", "--n", "9", "--l", "4", "--json"])
    assert out1 == out2


def test_usage_error_exit_code():
    code, _, err = run(["nakayama", "--n", "x", "--l", "3"])
    assert code == 1 and "usage error" in err
    code, _, err = run(["verify", "--target", "nonsense"])
    assert code == 1


def test_domain_error_exit_code():
    code, _, err = run(["nakayama", "--n", "3", "--l", "9"])
    assert code == 1 and "InvalidParams" in err


def test_bad_weights_are_usage_errors():
    for argv in (
        ["gl", "--weights", "2,x", "--d", "1"],
        ["sweep", "--family", "gl", "--weights", "2,x"],
    ):
        code, _, err = run(argv)
        assert code == 1 and "usage error" in err
        assert "Traceback" not in err


def test_a_valuation_below_one_names_its_arrow():
    for argv in (
        ["hereditary", "--quiver", "1->2(1,0)"],
        ["hereditary", "--quiver", "1->2(0,0)"],
        ["hereditary", "--quiver", "1->2(-1,1)"],
        ["replicate", "--base", "1->2(1,0)", "--m", "1"],
    ):
        code, out, err = run(argv)
        assert (code, out) == (1, "")
        assert "InvalidParams" in err and "arrow 1->2" in err


def test_hereditary_needs_a_type_or_a_quiver():
    code, out, err = run(["hereditary"])
    assert (code, out) == (1, "") and "usage error" in err


def test_a_catalog_path_that_cannot_be_written_is_an_error(tmp_path):
    argv = ["sweep", "--family", "nakayama", "--n-max", "3", "--m-max", "0", "--out"]
    code, out, err = run(argv + [str(tmp_path / "missing" / "rows.csv")])
    assert (code, out) == (1, "") and err.startswith("error: FileNotFoundError")
    folder = tmp_path / "folder"
    folder.mkdir()
    code, out, err = run(argv + [str(folder)])
    assert (code, out) == (1, "") and err.startswith("error: IsADirectoryError")
    # the replace failed, so the catalog written beside the path is gone
    assert sorted(p.name for p in tmp_path.iterdir()) == ["folder"]


def test_a_quiver_with_unread_text_is_an_error():
    code, out, err = run(["hereditary", "--quiver", "1->2,x"])
    assert (code, out) == (1, "")
    assert "InvalidParams" in err and "unread text 'x'" in err
    for text in ("1->2(1,2)", "1 -> 2, 2->3"):
        code, out, _ = run(["hereditary", "--quiver", text, "--json"])
        assert code == 0 and json.loads(out)["representation_finite"]


def test_a_catalog_error_names_the_path_given(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--family", "nakayama", "--n-max", "3", "--m-max", "0"]
    code, out, err = run(argv + ["--out", "missing/rows.csv"])
    assert (code, out) == (1, "")
    assert err.rstrip().endswith("No such file or directory: 'missing/rows.csv'")
    assert list(tmp_path.iterdir()) == []


def test_hereditary_command():
    code, out, _ = run(["hereditary", "--type", "A3", "--horizon", "6", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["coxeter_number"] == 4
    assert payload["profile"]["twisted_cy"] == [4, 2]


def test_replicate_verify():
    code, out, _ = run(["replicate", "--base", "A2:linear", "--m", "2", "--verify", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["domdim"] == 3 and payload["gldim"] == 3
    assert payload["schedule"]["h"] == 3


def test_replicate_kronecker():
    code, out, _ = run(["replicate", "--base", "kronecker", "--m", "2", "--json"])
    payload = json.loads(out)
    assert (payload["domdim"], payload["gldim"]) == (4, 5)
    assert payload["schedule"] == {"periodic": False, "members": []}


def test_sgc_verify():
    code, out, _ = run(["sgc", "--n", "4", "--l", "3", "--m", "1", "--verify", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kupisch"] == "[3,3,3,3,2,1]"
    assert payload["verified"] is True


def test_check_serre_formal_with_oracle():
    code, out, _ = run(
        ["check-serre-formal", "--kupisch", "[3,3,3,2,1]", "--oracle", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"]["serre_formal"] is False
    assert payload["oracle"] == "not_serre_formal"
    assert payload["verified"] is True


@pytest.mark.parametrize("kupisch", ["[3,3,3,2,1]", "[2,1]"])
def test_a_horizon_no_orbit_closes_in_is_inconclusive(kupisch):
    # at horizon 1 no orbit has met an injective, so the library's
    # serre_formal proves nothing: horizon 2 decides both, either way
    argv = ["check-serre-formal", "--kupisch", kupisch, "--oracle", "--json"]
    code, out, _ = run(argv + ["--horizon", "1"])
    assert code == 2
    assert (json.loads(out)["oracle"], json.loads(out)["verified"]) == ("inconclusive", False)
    code, out, _ = run(argv + ["--horizon", "2"])
    assert code == 0 and json.loads(out)["verified"] is True


def test_the_default_horizon_decides_the_serre_formal_tnl():
    # a Serre-formal T(n,l) with l < n is periodic at horizon 8 up to n = 19,
    # as every Serre-formal series with n <= 6 is (verify --target
    # serre-naka); kA_n = T(n,n) needs horizon n, hence the default max(8, n)
    from algolab import nakayama as nk
    from algolab.oracle import compile_bound_quiver, kupisch_presentation, serre_formal_check

    def kind(ks, horizon):
        return serre_formal_check(compile_bound_quiver(kupisch_presentation(ks.c)), horizon).kind

    for n, l in [(9, 4), (13, 6), (15, 14), (16, 5), (17, 8), (19, 2), (19, 3), (19, 9), (19, 18)]:
        ks = nk.tnl_kupisch(n, l)
        assert nk.serre_formal_class_nakayama(ks).serre_formal
        assert kind(ks, 8) == "serre_formal", (n, l)
    ka9 = nk.tnl_kupisch(9, 9)
    assert [kind(ka9, h) for h in (8, 9, None)] == ["inconclusive", "serre_formal", "serre_formal"]
    code, out, _ = run(["check-serre-formal", "--kupisch", str(ka9), "--oracle", "--json"])
    assert code == 0
    assert (json.loads(out)["oracle"], json.loads(out)["verified"]) == ("serre_formal", True)


def test_check_serre_formal_refuses_a_horizon_below_one():
    # horizon 0 walks no Serre power, so it is an input error, not a verdict
    code, out, err = run(
        ["check-serre-formal", "--kupisch", "[3,3,3,2,1]", "--horizon", "0", "--oracle"]
    )
    assert (code, out) == (1, "")
    assert err == "error: InvalidParams: horizon must be >= 1\n"


def test_gl_command():
    code, out, _ = run(["gl", "--weights", "2,2,2,2", "--d", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["torsion"] is True and payload["scan"] == "certified"
    code, out, _ = run(["gl", "--weights", "2,3,7", "--d", "1", "--json"])
    assert json.loads(out)["torsion"] is False


def test_sweep_nakayama_csv(tmp_path):
    out_path = str(tmp_path / "catalog.csv")
    code, out, _ = run(
        ["sweep", "--family", "nakayama", "--n-max", "6", "--m-max", "2",
         "--out", out_path, "--json"]
    )
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert rows[-1][0] == "#status" and rows[-1][1] == "complete"
    body = rows[1:-1]
    assert all(r[11] == "walk-verified" for r in body)
    # HA column matches the l = 2 or l | |n - m| criterion
    for r in body:
        params = dict(p.split("=") for p in r[2].split(";"))
        n, l, m = int(params["n"]), int(params["l"]), int(r[3])
        expected = l == 2 or abs(n - m) % l == 0
        assert (r[7] == "true") == expected


def test_sweep_deterministic(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run(["sweep", "--family", "nakayama", "--n-max", "5", "--m-max", "2", "--out", a])
    run(["sweep", "--family", "nakayama", "--n-max", "5", "--m-max", "2", "--out", b])
    assert open(a).read() == open(b).read()


def test_sweep_dynkin_schedule():
    code, out, _ = run(
        ["sweep", "--family", "dynkin", "--types", "A2,A3", "--m-max", "8", "--json"]
    )
    assert code == 0
    assert json.loads(out)["mismatches"] == 0


def test_sweep_empty_range():
    code, out, _ = run(
        ["sweep", "--family", "nakayama", "--n-max", "1", "--m-max", "0", "--json"]
    )
    assert code == 0
    assert json.loads(out)["rows"] == 0



def test_l_max_zero_sweeps_no_l():
    # only an absent --l-max stands for --n-max; 0 and 1 leave no l >= 2
    def rows(*l_max):
        argv = ["sweep", "--family", "nakayama", "--n-max", "4", "--m-max", "1", *l_max, "--json"]
        code, out, _ = run(argv)
        assert code == 0
        return json.loads(out)["rows"]

    assert rows() == rows("--l-max", "4") == 12
    assert rows("--l-max", "0") == rows("--l-max", "1") == 0
    assert rows("--l-max", "2") == 6


def test_gl_rows_are_labelled_by_the_scan_that_certified_them(tmp_path, monkeypatch):
    # no oracle runs on a GL row, so none is labelled oracle-verified
    import algolab.oracle.homology as homology

    def no_oracle(*args, **kwargs):
        raise AssertionError("a GL row entered the oracle")

    monkeypatch.setattr(homology, "minimal_projective_resolution", no_oracle)
    out_path = str(tmp_path / "gl.csv")
    code, _, _ = run(["sweep", "--family", "gl", "--out", out_path])
    assert code == 0
    with open(out_path) as fh:
        body = list(csv.reader(fh))[1:-1]
    assert body and all(r[9] == "true" and r[11] == "scan-certified" for r in body)

def test_sweep_dynkin_min_ag_pattern(tmp_path):
    # minimal AG rows sit exactly at m = t h - 1 (A_2: h = 3, so 2, 5, 8)
    out_path = str(tmp_path / "dynkin.csv")
    code, _, _ = run(
        ["sweep", "--family", "dynkin", "--types", "A2", "--m-max", "8",
         "--out", out_path]
    )
    assert code == 0
    with open(out_path) as fh:
        rows = [r for r in csv.reader(fh)][1:-1]
    hits = sorted({int(r[3]) for r in rows if r[8] == "true"})
    assert hits == [2, 5, 8]
    # both orientations of A2 carry the same schedule
    assert sum(1 for r in rows if r[8] == "true") == 6


def test_catalog_interrupt_flush(tmp_path):
    from algolab.cli import CatalogRow, write_catalog

    def rows():
        yield CatalogRow("x", "f", "p", 0, 1, 1, 1, True, True, True, None, "formula-only")
        raise KeyboardInterrupt

    out_path = str(tmp_path / "partial.csv")
    written, status = write_catalog(rows(), out_path)
    assert status == "interrupted" and written == 1
    with open(out_path) as fh:
        lines = list(csv.reader(fh))
    assert lines[-1][0] == "#status" and lines[-1][1] == "interrupted"


def test_interrupted_sweep_keeps_the_rows_computed(tmp_path, monkeypatch):
    # an interrupt while row k + 1 is computed leaves the first k rows, the
    # interrupted status, and then ends the command
    import algolab.cli as cli

    argv = ["sweep", "--family", "nakayama", "--n-max", "6", "--m-max", "2", "--out"]
    full_path, partial_path = str(tmp_path / "full.csv"), str(tmp_path / "partial.csv")
    run(argv + [full_path])
    with open(full_path) as fh:
        full = list(csv.reader(fh))
    k = 5
    started = []
    kupisch = cli.nk.sgc_kupisch

    def interrupted(*args):
        started.append(args)
        if len(started) == k + 1:
            raise KeyboardInterrupt
        return kupisch(*args)

    monkeypatch.setattr(cli.nk, "sgc_kupisch", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(argv + [partial_path])
    with open(partial_path) as fh:
        lines = list(csv.reader(fh))
    assert lines[: k + 1] == full[: k + 1]
    assert len(lines) == k + 2
    assert lines[-1][:3] == ["#status", "interrupted", f"rows={k}"]
    assert not os.path.exists(partial_path + ".tmp")


def test_nakayama_sweep_walks_each_series_once_per_sweep(monkeypatch):
    # row (n, l, m) checks T(n + m(l-1), l): 112 rows, 76 series; the
    # statuses live for one sweep, so a second sweep walks them all again
    import algolab.cli as cli

    calls = []
    walks = cli.nk.kupisch_algebra_dims

    def counted(ks, bound):
        calls.append(ks)
        return walks(ks, bound)

    monkeypatch.setattr(cli.nk, "kupisch_algebra_dims", counted)
    argv = ["sweep", "--family", "nakayama", "--n-max", "8", "--m-max", "3", "--json"]
    code, out, _ = run(argv)
    assert code == 0 and json.loads(out)["rows"] == 112
    assert len(calls) == len(set(calls)) == 76
    assert run(argv) == (code, out, "")
    assert len(calls) == 152


def test_nakayama_sweep_honours_the_bound(monkeypatch, tmp_path):
    # a series whose walks pass ALGOLAB_BOUND is inconclusive, not a
    # mismatch: exactly the rows whose gldim (the longest walk) exceeds 3
    monkeypatch.setenv("ALGOLAB_BOUND", "3")
    out_path = str(tmp_path / "bounded.csv")
    code, out, _ = run(["sweep", "--family", "nakayama", "--n-max", "6", "--out", out_path, "--json"])
    assert code == 0 and json.loads(out)["mismatches"] == 0
    with open(out_path) as fh:
        body = list(csv.reader(fh))[1:-1]
    statuses = {r[11] for r in body}
    assert statuses == {"walk-verified", "inconclusive"}
    for r in body:
        assert (r[11] == "inconclusive") == (int(r[6]) > 3), r


def test_a_walk_past_the_bound_leaves_the_sweep_going(tmp_path):
    # the walks of T(n,2) have length n - 1, past the default bound 64 from
    # n = 66 on; the sweep marks those rows and keeps going
    out_path = str(tmp_path / "long.csv")
    argv = ["sweep", "--family", "nakayama", "--n-max", "70", "--m-max", "0", "--out", out_path]
    code, out, _ = run(argv + ["--json"])
    assert code == 0 and json.loads(out)["mismatches"] == 0
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[-1][:3] == ["#status", "complete", f"rows={len(rows) - 2}"]
    inconclusive = [r[0] for r in rows[1:-1] if r[11] == "inconclusive"]
    assert inconclusive == [f"T({n},2)^[0]" for n in range(66, 71)]


def test_naka_tiny_honours_the_bound(monkeypatch):
    # at bound 2 every target that walks reads its cut walks the same way:
    # each case past the bound is inconclusive, none a mismatch, and the
    # target exits 2 (T(4,2) is the first algebra with gldim 3 > 2); only
    # serre-naka has reasons to give on stderr, one per inconclusive case
    assert run(["verify", "--target", "naka-tiny", "--json"])[0] == 0
    monkeypatch.setenv("ALGOLAB_BOUND", "2")
    for target in ("naka-tiny", "naka-small", "replicated-linearA", "serre-naka"):
        code, out, err = run(["verify", "--target", target, "--json"])
        diffs = json.loads(out)["diffs"]
        assert code == 2 and diffs, target
        assert all(d.startswith("inconclusive: ") for d in diffs), (target, diffs)
        assert len(err.splitlines()) == (len(diffs) if target == "serre-naka" else 0), target
    diffs = json.loads(run(["verify", "--target", "naka-tiny", "--json"])[1])["diffs"]
    assert diffs[0] == "inconclusive: T(4,2): formula (3,3) walks past the bound"


def test_resolution_bound_env(monkeypatch):
    from algolab.cli import resolution_bound

    monkeypatch.setenv("ALGOLAB_BOUND", "17")
    assert resolution_bound() == 17
    monkeypatch.setenv("ALGOLAB_BOUND", "junk")
    assert resolution_bound() == 64
    monkeypatch.delenv("ALGOLAB_BOUND")
    assert resolution_bound() == 64


def test_truncated_oracle_values_keep_their_json(monkeypatch):
    # every walk of A3^(2) is cut at bound 1, so each value is at least 2 and
    # prints as '>1', and the report is inconclusive, not verified
    monkeypatch.setenv("ALGOLAB_BOUND", "1")
    code, out, _ = run(["replicate", "--base", "A3:linear", "--m", "2", "--verify", "--json"])
    assert code == 2
    assert out == (
        '{"base":"A3:linear","domdim":3,"gldim":4,"higher_auslander":false,'
        '"idim":4,"inconclusive":{"formula":{"domdim":3,'
        '"gldim":4,"idim":4},"oracle":{"domdim":">1","gldim":">1",'
        '"idim_left":">1","idim_right":">1","projective_injectives":["e1@1",'
        '"e2@1","e3@1","e1@2","e2@2","e3@2"],"qf2":true,"qf3":true}},'
        '"m":2,"minimal_ag":false,'
        '"quiver":{"arrows":[[1,2,[1,1]],[2,3,[1,1]]],"vertices":3},'
        '"schedule":{"c":2,"dims":"t*(h+c) - 1","h":4,"members":"m = t*h - 1",'
        '"periodic":true},"verified":false}\n'
    )


@pytest.mark.parametrize("value", ["-1", "-5"])
def test_negative_resolution_bound_falls_back(monkeypatch, value):
    # a negative bound would stop every walk before its first term
    from algolab.cli import resolution_bound

    monkeypatch.setenv("ALGOLAB_BOUND", value)
    assert resolution_bound() == 64
    code, out, _ = run(["replicate", "--base", "A2:linear", "--m", "1", "--verify", "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["verified"] is True and "mismatch" not in payload


def test_replicate_verify_compares_the_left_idim(monkeypatch):
    # an oracle whose left self-injective dimension alone disagrees
    import dataclasses

    import algolab.oracle as oracle

    report = oracle.homological_report

    def left_off_by_one(alg, bound=64):
        rep = report(alg, bound)
        return dataclasses.replace(rep, idim_left=rep.idim_left + 1)

    monkeypatch.setattr(oracle, "homological_report", left_off_by_one)
    code, out, _ = run(["replicate", "--base", "A2:linear", "--m", "1", "--verify", "--json"])
    payload = json.loads(out)
    assert code == 2 and payload["verified"] is False
    oracle_side, formula = payload["mismatch"]["oracle"], payload["mismatch"]["formula"]
    assert oracle_side["idim_left"] == oracle_side["idim_right"] + 1
    assert formula == {
        "domdim": payload["domdim"],
        "idim": payload["idim"],
        "gldim": payload["gldim"],
    }
    assert oracle_side["idim_right"] == formula["idim"]


def test_a_walk_cut_at_the_bound_is_inconclusive_not_a_mismatch(monkeypatch, tmp_path):
    # at bound 2 the walks of most rows of A3 are cut: each value is
    # AtLeast(3), at most the formula's, so those rows are inconclusive and
    # the sweep goes on; replicate --verify names them under "inconclusive"
    monkeypatch.setenv("ALGOLAB_BOUND", "2")
    out_path = str(tmp_path / "a3.csv")
    argv = ["sweep", "--family", "dynkin", "--types", "A3", "--m-max", "3", "--out", out_path]
    code, out, _ = run(argv + ["--json"])
    assert code == 0 and json.loads(out) == {"rows": 12, "mismatches": 0, "out": out_path}
    with open(out_path) as fh:
        statuses = [r[11] for r in list(csv.reader(fh))[1:-1]]
    assert statuses.count("inconclusive") == 10
    assert set(statuses) == {"oracle-verified", "inconclusive"}
    code, out, _ = run(["replicate", "--base", "A3", "--m", "2", "--verify", "--json"])
    payload = json.loads(out)
    assert code == 2 and payload["verified"] is False and "mismatch" not in payload
    assert payload["inconclusive"]["oracle"]["gldim"] == ">2"
    assert payload["inconclusive"]["formula"] == {"domdim": 3, "idim": 4, "gldim": 4}


def test_a_lower_bound_above_the_formula_stays_a_mismatch(monkeypatch, tmp_path):
    # AtLeast(n) with n past the formula's value contradicts it
    import dataclasses

    import algolab.oracle as oracle

    report = oracle.homological_report

    def cut_past_the_formula(alg, bound=64):
        rep = report(alg, bound)
        return dataclasses.replace(rep, gldim=oracle.AtLeast(rep.gldim + 1))

    monkeypatch.setattr(oracle, "homological_report", cut_past_the_formula)
    code, out, _ = run(["replicate", "--base", "A2:linear", "--m", "1", "--verify", "--json"])
    payload = json.loads(out)
    assert code == 2 and payload["verified"] is False and "inconclusive" not in payload
    assert payload["mismatch"]["oracle"]["gldim"] == f">{payload['gldim']}"
    out_path = str(tmp_path / "a2.csv")
    argv = ["sweep", "--family", "dynkin", "--types", "A2", "--m-max", "1", "--out", out_path]
    code, out, _ = run(argv)
    assert code == 2
    with open(out_path) as fh:
        assert [r[11] for r in list(csv.reader(fh))[1:-1]] == ["MISMATCH"] * 2  # two orientations


def test_verify_targets_pass():
    for target in ["naka-tiny", "coxeter", "gl", "replicated-linearA", "serre-naka"]:
        assert verify_target(target, 64) == []


def test_verify_corrupt_fixture_fails():
    diffs = verify_target("selftest-corrupt", 64)
    assert diffs and "corrupted" in diffs[0]
    assert diffs == ["mismatch: T(6,3): corrupted fixture (4, 3) vs computed (3,3)"]
    code, out, _ = run(["verify", "--target", "selftest-corrupt", "--json"])
    assert code == 2
    assert json.loads(out)["pass"] is False


def test_reused_parser_keeps_no_state_between_commands():
    # the parser is built once per process; a failed parse, the defaults of
    # another subcommand and a first run of the same argv leave nothing on it
    from algolab.cli import build_parser

    assert build_parser() is build_parser()
    first = run(["replicate", "--base", "A3:linear", "--m", "2"])
    assert run(["nakayama", "--n", "5"])[0] == 1
    run(["hereditary", "--type", "A4:linear", "--horizon", "3", "--json"])
    assert run(["replicate", "--base", "A3:linear", "--m", "2"]) == first


def test_internal_mismatch_exits_2_with_its_witness(monkeypatch, tmp_path):
    import algolab.cli as cli
    import algolab.replicated as replicated
    from algolab.errors import InternalMismatch

    def mismatch(*args, **kwargs):
        raise InternalMismatch("two routes disagree", witness=(3, "P_2"))

    # at the top level, and through the two places that read any other
    # library error as "unknown": the schedule of replicate, and the one
    # rule that gives a sweep row its schedule_t
    for owner, name, argv in [
        (cli, "replicated_dims_hereditary", ["replicate", "--base", "A2:linear", "--m", "1"]),
        (cli, "minimal_ag_schedule", ["replicate", "--base", "A2:linear", "--m", "1"]),
        (replicated, "twisted_cy", ["sweep", "--family", "dynkin", "--types", "A2", "--m-max", "2", "--out", str(tmp_path / "rows.csv")]),
    ]:
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, mismatch)
            code, out, err = run(argv)
        assert code == 2 and out == "", name
        assert "InternalMismatch: two routes disagree" in err and "(3, 'P_2')" in err, name


def test_outcome_is_verified_inconclusive_or_a_mismatch():
    from algolab.cli import _outcome
    from algolab.oracle import AtLeast

    assert _outcome([(3, 3), (math.inf, math.inf)]) == "verified"
    # a walk cut at the bound bounds the value below: at most the formula's
    assert _outcome([(3, 3), (AtLeast(2), 4), (AtLeast(4), 4)]) == "inconclusive"
    assert _outcome([(AtLeast(3), math.inf)]) == "inconclusive"
    assert _outcome([(AtLeast(5), 4)]) == "mismatch"
    assert _outcome([(AtLeast(2), 4), (2, 3)]) == "mismatch"  # an exact value that differs
    assert _outcome([(True, True), (False, False)]) == "verified"
    assert _outcome([(True, True), (True, False)]) == "mismatch"


def test_a_corrupted_formula_is_a_mismatch_through_the_one_comparator(monkeypatch):
    # naka-tiny against a formula one off in gldim, and selftest-corrupt,
    # decide their cases through the same _outcome
    from algolab import cli
    from algolab import nakayama as nk

    outcomes = []
    outcome, tnl_dims = cli._outcome, nk.tnl_dims
    monkeypatch.setattr(cli, "_outcome", lambda pairs: outcomes.append(outcome(pairs)) or outcomes[-1])
    assert verify_target("selftest-corrupt", 64)[0].startswith("mismatch: ")
    assert outcomes == ["mismatch"]
    outcomes.clear()
    monkeypatch.setattr(nk, "tnl_dims", lambda n, l: dataclasses.replace(
        tnl_dims(n, l), gldim=tnl_dims(n, l).gldim + 1))
    diffs = verify_target("naka-tiny", 64)
    assert len(diffs) == 28 and all(d.startswith("mismatch: ") for d in diffs)  # every T(n,l), n <= 8
    assert outcomes == ["mismatch"] * 28
    code, out, _ = run(["verify", "--target", "naka-tiny", "--json"])
    assert code == 2 and json.loads(out)["diffs"][0] == "mismatch: T(2,2): formula (2,1) walks (1, 1)"


def test_one_tuple_names_the_verify_targets():
    # --help, the unknown-target error and the README list them all, in order
    from algolab.cli import VERIFY_TARGETS

    listed = " | ".join(VERIFY_TARGETS)
    help_text = io.StringIO()
    with contextlib.redirect_stdout(help_text), pytest.raises(SystemExit):
        run_command(["verify", "--help"])
    assert listed in " ".join(help_text.getvalue().split())
    code, _, err = run(["verify", "--target", "nonsense"])
    assert code == 1 and err.endswith(f"not in {', '.join(VERIFY_TARGETS)}\n")
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    sentence = " ".join(readme.split("as `cli.VERIFY_TARGETS` lists them:")[1].split(".")[0].split())
    assert tuple(re.findall(r"`([^`]+)`", sentence)) == VERIFY_TARGETS


def test_an_inconclusive_serre_verdict_says_why_on_stderr(monkeypatch):
    # the reason goes to stderr, one line per inconclusive verdict; stdout
    # and the exit code are those of a verdict with no reason given
    code, out, err = run(["check-serre-formal", "--kupisch", "[2,1]", "--horizon", "1", "--oracle"])
    assert code == 2 and json.loads(out) == {
        "classification": {
            "case": "tnl", "d": 1, "detail": "hereditary linear A_n, 1-representation-finite",
            "l": 2, "n": 2, "serre_formal": True,
        },
        "kupisch": "[2,1]", "oracle": "inconclusive", "verified": False,
    }
    assert err == "inconclusive: [2,1]: P_e2 meets no injective within horizon 1\n"
    assert run(["check-serre-formal", "--kupisch", "[2,1]", "--oracle"])[::2] == (0, "")
    monkeypatch.setenv("ALGOLAB_BOUND", "1")
    code, out, err = run(["verify", "--target", "serre-naka", "--json"])
    diffs, reasons = json.loads(out)["diffs"], err.splitlines()
    assert code == 2 and len(diffs) == len(reasons) == 59
    assert diffs[0] == "inconclusive: [2,2,1]: class True oracle inconclusive"
    assert reasons[0] == (
        "inconclusive: [2,2,1]: P_e1 power 3: injective coresolution did not terminate within 1 steps"
    )
    for diff, reason in zip(diffs, reasons):
        assert diff.split(": ")[:2] == reason.split(": ")[:2]


def test_a_closed_stdout_ends_without_a_traceback():
    # the read end of the pipe is closed before the command writes to it
    import subprocess
    import sys

    import algolab

    src = os.path.dirname(os.path.dirname(algolab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "algolab.cli", "hereditary", "--type", "E8", "--horizon", "40"],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr


_BAD_INTS = ("-1", "0", "x", "", "2.5")
# subcommand -> option -> (good values, bad values), or None for a flag;
# the good values are small, so that the oracle runs on small inputs
_FRAGMENTS = {
    "nakayama": {"--n": (("2", "5", "9"), _BAD_INTS), "--l": (("2", "3"), ("9",) + _BAD_INTS),
                 "--json": None},
    "hereditary": {
        "--type": (("A3", "E6:linear", "D4:alternating", "E8"), ("A3:weird", "Z9", "A0", "")),
        "--quiver": (("1->2,2->3", "1->2,1->3"), ("1->2,2->1", "1->1", "", "1->", "a->b")),
        "--horizon": (("1", "5", "12"), _BAD_INTS),
        "--json": None,
    },
    "replicate": {
        "--base": (("A2:linear", "A3", "kronecker", "1->2,2->3"), ("1->2,2->1", "", "Q5")),
        "--m": (("0", "1", "2"), _BAD_INTS),
        "--verify": None,
        "--json": None,
    },
    "sgc": {
        "--n": (("3", "4", "5"), _BAD_INTS),
        "--l": (("2", "3"), ("9",) + _BAD_INTS),
        "--m": (("0", "1", "2"), _BAD_INTS),
        "--verify": None,
        "--json": None,
    },
    "check-serre-formal": {
        "--kupisch": (("[2,1]", "[3,2,2,1]", "[2,2,1]", "[3,3,3,2,1]"),
                      ("[2,2]", "[1,2]", "[]", "", "x", "[0]", "[2,x]")),
        "--oracle": None,
        "--horizon": (("1", "2", "4"), _BAD_INTS),
        "--json": None,
    },
    "gl": {
        "--weights": (("2,3,7", "2,2,2,2", "3"), ("", "2,x", "0", "1", "-2,3", ",")),
        "--d": (("1", "2", "3"), _BAD_INTS),
        "--scan": (("5", "10"), _BAD_INTS),
        "--json": None,
    },
    "sweep": {
        "--family": (("nakayama", "dynkin", "gl"), ("bogus", "")),
        "--n-max": (("2", "4", "6"), _BAD_INTS),
        "--l-max": (("2", "3"), _BAD_INTS),
        "--m-max": (("0", "1", "2"), _BAD_INTS),
        "--d-max": (("1", "2"), _BAD_INTS),
        "--scan": (("3", "5"), _BAD_INTS),
        "--types": (("A2", "A2,D4", "A3"), ("", "Q7", "A2,,A3")),
        "--weights": (("2,2,2|2,3", "2,3,7"), ("", "2,x", "|")),
        "--verify": None,
        "--json": None,
    },
    "verify": {
        "--target": (("naka-tiny", "coxeter", "gl", "selftest-corrupt"), ("nonsense", "")),
        "--json": None,
    },
}


@st.composite
def _argv(draw):
    """An argv of a subcommand (or none): each option in three of four
    draws, its value bad in one of four, and now and then a stray token.
    A sweep's --m-max is always given, as its default walks larger algebras."""
    command = draw(st.sampled_from(sorted(_FRAGMENTS) + ["bogus"]))
    argv = [command]
    for option, values in _FRAGMENTS.get(command, {}).items():
        if option != "--m-max" and draw(st.integers(0, 3)) == 0:
            continue
        argv.append(option)
        if values is not None:
            good, bad = values
            argv.append(draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 0 else good)))
    if draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(("--nope", "7", "-"))))
    return argv


@given(_argv(), st.sampled_from((None, "-1", "0", "1", "x")))
@settings(max_examples=300, deadline=None)
def test_no_argv_ends_in_a_traceback(argv, bound):
    # any argv built from the fragments, at any ALGOLAB_BOUND, gives an
    # exit code and raises nothing
    env = {} if bound is None else {"ALGOLAB_BOUND": bound}
    with mock.patch.dict(os.environ, env):
        if bound is None:
            os.environ.pop("ALGOLAB_BOUND", None)
        code, _, _ = run(argv)
    assert code in (0, 1, 2), argv
