"""Benchmark for algolab: seeded closed-loop op windows over its public API.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload is one client in one
process that sends its next op only when the previous one has returned.
The seed generates the workload's window of ops; algolab receives only the
generated inputs.  Every op's output is checked against an independent side
outside the timed region, and hashed into a digest printed per run.

--trace 0 runs passes over the window until the next eighth of a pass
would take the op time past --seconds (at least two whole passes) and
reports the end-to-end metrics.  An op's latency is the fastest of its runs:
the host's speed drifts by 10-30% from second to second, and the drift only
ever slows an op down.  It also changes by up to 1.7x for a minute or more,
so every time is scaled to the host's usual speed by the reference
computation of reference.py, sampled eight times a pass in an interpreter of
its own: times are multiplied by its nominal time over its fastest time in
the run.  The summary lines show the unscaled wall times too.

--trace 1 runs every op of the window once traced and once untraced, so
that its counts repeat exactly; it reports the per-layer metrics and writes
the spans to .perfbench/spans-<workload>.tsv.gz.  The last line of stdout
is the result as one JSON object.  perfbench/plan.json
records the workloads' op families, the prediction table and the baseline.
"""

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from reference import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 1
MIN_PASSES = 2
SETUP_PROBES = 9
CHUNKS_PER_PASS = 8  # the host's speed is sampled after each chunk

# A fresh interpreter that does a workload's set-up and says when it is done.
PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "print(len(workloads.prepare(sys.argv[3], int(sys.argv[4]))), flush=True)"
)


def setup_seconds(name, seed):
    """Median wall time from spawning a fresh interpreter until its op
    window is ready (interpreter start, imports, generation)."""
    times = []
    cmd = [sys.executable, "-c", PROBE, str(SRC), str(HERE), name, str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or not line.strip():
                raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return statistics.median(times)


def run_pass(workload, ops, digest, tracer=None, first_id=0):
    """Runs every op once, in order, and hashes its output into digest.
    Only the op itself is timed; its check runs outside the timed region.
    Returns (latencies, failed)."""
    latencies = []
    failed = 0
    for i, op in enumerate(ops, first_id):
        with tracer.op_scope(i) if tracer else nullcontext():
            t0 = perf_counter()
            try:
                result = workload.run(op)
            except Exception as exc:  # a raising op is a failed op
                result = exc
            latencies.append(perf_counter() - t0)
        if isinstance(result, Exception):
            ok, shown = False, f"raised {result!r}"
        else:
            try:
                ok, shown = workload.check(op, result)
            except Exception as exc:  # malformed output
                ok, shown = False, f"check raised {exc!r}"
        if not ok:
            failed += 1
            print(f"failed: {op.label()}: {shown[:500]}", file=sys.stderr)
        digest.update(f"{op.label()}\n{shown}\n".encode())
    return latencies, failed


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def latency_metrics(latencies):
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
    }


def timed(workload, ops, seconds, host):
    """Runs the window over and over in CHUNKS_PER_PASS chunks, sampling the
    host's speed after each chunk, until the next chunk would take the op
    time past ``seconds`` (after at least MIN_PASSES whole passes).  Stopping
    between chunks rather than passes keeps the samples per op from jumping
    with the host's speed.  Returns the metrics at the host's usual speed
    and, for the summary, the same metrics in wall time."""
    size = -(-len(ops) // CHUNKS_PER_PASS)
    chunks = [range(i, min(i + size, len(ops))) for i in range(0, len(ops), size)]
    samples = [[] for _ in ops]
    digests, failed, busy, k = [], 0, 0.0, 0
    while True:
        chunk = chunks[k % len(chunks)]
        if k >= MIN_PASSES * len(chunks):
            if busy + sum(samples[i][-1] for i in chunk) > seconds:
                break
        if k % len(chunks) == 0:
            digests.append(hashlib.sha256())
        latencies, chunk_failed = run_pass(workload, [ops[i] for i in chunk], digests[-1])
        host.sample()
        for i, t in zip(chunk, latencies):
            samples[i].append(t)
        busy += sum(latencies)
        failed += chunk_failed
        k += 1
    whole = {d.hexdigest() for d in digests[: k // len(chunks)]}
    if len(whole) > 1:
        print("passes over one window gave different outputs", file=sys.stderr)
    best = [min(times) for times in samples]
    wall = latency_metrics(best)
    metrics = latency_metrics([t * host.scale() for t in best])
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return sum(map(len, samples)), failed, min(whole), len(whole) == 1, metrics, wall


def traced(workload, ops):
    """Runs each op traced, then untraced right after it, so that the two
    see the same host speed."""
    from tracer import Tracer

    tracer = Tracer()
    traced_lat, plain_lat, failed = [], [], 0
    traced_digest, plain_digest = hashlib.sha256(), hashlib.sha256()
    for i, op in enumerate(ops):
        with tracer.installed():
            latencies, op_failed = run_pass(workload, [op], traced_digest, tracer, i)
        traced_lat += latencies
        failed += op_failed
        latencies, op_failed = run_pass(workload, [op], plain_digest)
        plain_lat += latencies
        failed += op_failed
    layer = tracer.layer_metrics()
    self_total = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    layer["trace.overhead_frac"] = sum(traced_lat) / sum(plain_lat) - 1
    layer["trace.self_covered_frac"] = self_total / sum(traced_lat)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{workload.name}.tsv.gz")
    metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
    identical = traced_digest.digest() == plain_digest.digest()
    if not identical:
        print("tracing changed an op's output", file=sys.stderr)
    return 2 * len(ops), failed, plain_digest.hexdigest(), identical, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "algolab" / "__init__.py").is_file():
        print(f"perfbench: no algolab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops = workloads.prepare(workload.name, args.seed)
    wall = {}
    if args.trace:
        attempted, failed, digest, correct, metrics = traced(workload, ops)
    else:
        with HostSpeed() as host:
            setup_s = setup_seconds(workload.name, args.seed)
            host.sample()
            attempted, failed, digest, correct, metrics, wall = timed(
                workload, ops, args.seconds, host
            )
        metrics = {"setup_s": (setup_s * host.scale(), "s"), **metrics}
        wall["setup_s"] = (setup_s, "s")
    print(f"{workload.name} seed={args.seed} trace={args.trace} ops={attempted} "
          f"failed={failed} digest={digest}")
    for name, (value, unit) in {**metrics, "failed_frac": (failed / attempted, "ratio")}.items():
        shown = f" (wall {wall[name][0]:.6g})" if name in wall else ""
        print(f"  {name:<48} {value:.6g} {unit}{shown}")
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
