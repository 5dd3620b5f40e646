"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import algolab  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Short prefixes keep the suite fast; each covers every op kind of its workload.
PREFIX = {"nakayama-oracle": 18, "replicated-dynkin": 10, "closed-forms": 40}


def prefix(name, seed=1):
    return workloads.prepare(name, seed)[: PREFIX[name]]


def run_all(name, ops, tracer=None):
    """(latencies, failed ops, output digest) of one pass."""
    digest = hashlib.sha256()
    latencies, failed = run.run_pass(workloads.WORKLOADS[name], ops, digest, tracer)
    return latencies, failed, digest.hexdigest()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_fixes_the_window(name):
    window = workloads.prepare(name, 7)
    assert window == workloads.prepare(name, 7)
    assert window != workloads.prepare(name, 8)
    assert len(window) >= 100  # so that p90 has ten samples beyond it


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_leaves_outputs_identical(name):
    ops = prefix(name)
    _, plain_failed, plain = run_all(name, ops)
    tracer = Tracer()
    with tracer.installed():
        _, traced_failed, traced = run_all(name, ops, tracer)
    assert plain_failed == traced_failed == 0
    assert traced == plain
    assert algolab.linalg.rref.__name__ == "rref" and not hasattr(algolab.linalg.rref, "__wrapped__")
    assert not hasattr(algolab.oracle.homological_report, "__wrapped__")


def traced_counts(name):
    tracer = Tracer()
    with tracer.installed():
        latencies, _, _ = run_all(name, prefix(name), tracer)
    return tracer.layer_metrics(), sum(latencies)


@pytest.mark.parametrize(
    "name, counts",
    [
        (
            "nakayama-oracle",
            (
                "oracle.homology.resolution_steps",
                "oracle.modules.projective_module.calls",
                "linalg.cells_in",
            ),
        ),
        ("closed-forms", ("gl.scan_points",)),
    ],
)
def test_counts_repeat_for_one_seed(name, counts):
    first, op_time = traced_counts(name)
    second, _ = traced_counts(name)
    for key in counts:
        assert first[key] > 0
        assert first[key] == second[key], key
    self_time = sum(v for k, v in first.items() if k.endswith(".self_s"))
    assert 0.9 * op_time < self_time <= op_time


def test_raised_counts_exceptions_leaving_a_layer():
    # HorizonTooSmall leaves serre for cli, which turns it into exit code 1;
    # NotSerreFormal is raised and caught inside oracle.homology.
    too_short = workloads.Op("hereditary", ("hereditary", "--type", "E6", "--horizon", "8"))
    tracer = Tracer()
    with tracer.installed():
        run.run_pass(workloads.WORKLOADS["closed-forms"], [too_short], hashlib.sha256(), tracer)
        run_all("nakayama-oracle", prefix("nakayama-oracle"), tracer)
    metrics = tracer.layer_metrics()
    assert metrics["serre.raised"] == 1
    assert metrics["cli.raised"] == 0
    assert metrics["oracle.homology.raised"] == 0


@pytest.mark.parametrize("name", ["nakayama-oracle", "closed-forms"])
def test_corrupted_reference_fails_ops(name, monkeypatch):
    # mirrors `algolab verify --target selftest-corrupt`
    true_dims = workloads.reference_dims

    def corrupted(ks):
        gldim, domdim = true_dims(ks)
        return gldim + 1, domdim

    monkeypatch.setattr(workloads, "reference_dims", corrupted)
    ops = prefix(name)
    _, failed, _ = run_all(name, ops)
    assert 0 < failed / len(ops)


def test_host_speed_reference_stops_with_its_context():
    with reference.HostSpeed() as host:
        host.sample()
        assert 0 < host.scale() < 100
        proc = host.proc
    assert proc.returncode == 0
    assert reference.eliminate() == 14  # the fixed matrix has full rank
