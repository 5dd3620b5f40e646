"""Alternating before/after pairs of perfbench runs, kept in one BENCH file.

    python3 tools/bench_pairs.py --parent SHA --parent-dir DIR --out BENCH_<n>.json

Run from the root of the checkout that holds the change.  The parent's
files are written into DIR, which must be empty or missing, straight from
commit SHA (``git archive``), so the sha the file names is the code that
was measured.  Pick DIR with a path as long as this checkout's: perfbench
imports the sources without bytecode files, and the path length moves
peak_rss_mb a little.  For each workload of BENCHMARK.json, each of the
PAIRS pairs runs perfbench/run.py, at its own default seed and run length,
once in DIR and once here, and which side runs first alternates from pair
to pair, so that a drift of the host's speed falls on both sides alike.
The last stdout line of every run, its result JSON, is kept as it is.  The
file gets, per workload, the pairs and the median of each end-to-end
metric per side, with the parent's sha, the Python version and the CPU
count.  The workloads that perfbench/plan.json runs by hand (BY_HAND), the
only ones that reach serre_formal_check, are paired the same way and kept
under "by_hand".

It also times each command of CLI in a fresh interpreter that writes no
bytecode (as perfbench imports the sources), CLI_RUNS times per side with
the side that runs first alternating, and keeps the fastest wall time of
each side under "cli".  Under "orbit" it keeps, per horizon in
ORBIT_HORIZONS, the fastest of ORBIT_RUNS timings per side of
serre_orbit_profile(K tensor K, horizon), K the Kronecker algebra, each in a
fresh interpreter, the side that runs first alternating.  Under
"src_lines" it keeps the line count of src/**/*.py on each side.
"""

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
CLI_RUNS = 5
BY_HAND = ("nakayama-oracle",)
CLI = (
    "gl --weights 4,5,6,7 --d 3 --scan 25",
    "sweep --family gl",
    "verify --target gl",
    "sweep --family dynkin --types A2,A3,A4,D4 --m-max 8",
    "sweep --family dynkin --types A3,D4 --m-max 24 --verify",
    "verify --target naka-small",
    "verify --target serre-naka",
    "verify --target replicated-linearA",
    "sweep --family nakayama",
    "sweep --family nakayama --n-max 24 --m-max 4",
    "hereditary --type E6:linear --horizon 20",
    "check-serre-formal --kupisch [3,3,3,2,1] --oracle",
    "sgc --n 4 --l 3 --m 2 --verify",
    "replicate --base E8:linear --m 30 --verify",
    "replicate --base kronecker --m 8 --verify",
)
ORBIT_HORIZONS = (5, 6)
ORBIT_RUNS = 3
# K tensor K as a bound quiver: vertex (i, j) is 2j + i - 2, a_j, b_j:
# (1, j) -> (2, j), c_i, d_i: (i, 1) -> (i, 2), and every square of an arrow
# of each factor commutes (dimension 16); prints the seconds of the profile
ORBIT = """
import sys
from time import perf_counter
from algolab.oracle import QuiverPresentation, compile_bound_quiver, serre_orbit_profile
arrows = [(a + str(j), 2 * j - 1, 2 * j) for j in (1, 2) for a in "ab"]
arrows += [(c + str(i), i, i + 2) for i in (1, 2) for c in "cd"]
squares = [[(1, (a + "1", c + "2")), (-1, (c + "1", a + "2"))] for a in "ab" for c in "cd"]
alg = compile_bound_quiver(QuiverPresentation(4, arrows, squares))
assert (alg.nvert, alg.dim) == (4, 16)
t0 = perf_counter()
serre_orbit_profile(alg, int(sys.argv[1]))
print(perf_counter() - t0)
"""


def run(checkout, workload):
    """The result JSON of one perfbench run in a checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def cli_seconds(checkout, command):
    """Wall time of one run of an algolab command in a checkout."""
    cmd = [sys.executable, "-B", "-m", "algolab.cli", *command.split()]
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    t0 = perf_counter()
    subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.DEVNULL, check=True)
    return perf_counter() - t0


def orbit_seconds(checkout, horizon):
    """The time of serre_orbit_profile(K tensor K, horizon) in a fresh
    interpreter on a checkout's sources."""
    cmd = [sys.executable, "-B", "-c", ORBIT, str(horizon)]
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return float(out.stdout)


def fastest(parent_dir, runs, seconds):
    """The fastest of runs timings per side, seconds(checkout) each, the side
    that runs first alternating."""
    times = {"parent": [], "change": []}
    for i in range(runs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            times[side].append(seconds(parent_dir if side == "parent" else ROOT))
    return {side: min(t) for side, t in times.items()}


def paired(name, parent_dir):
    """The PAIRS alternating pairs of one workload and each side's medians."""
    pairs = []
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run(parent_dir if side == "parent" else ROOT, name)
        pairs.append(pair)
        print(f"{name} pair {i + 1}/{PAIRS}: ops_per_s "
              f"{pair['parent']['metrics']['ops_per_s']['value']:.2f} -> "
              f"{pair['change']['metrics']['ops_per_s']['value']:.2f}", file=sys.stderr)
    return {
        "median": {side: medians([p[side] for p in pairs]) for side in ("parent", "change")},
        "pairs": pairs,
    }


def medians(results):
    names = results[0]["metrics"]
    return {n: statistics.median(r["metrics"][n]["value"] for r in results) for n in names}


def src_lines(checkout):
    """The lines of src/**/*.py in a checkout, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in Path(checkout).glob("src/**/*.py"))


def extract(sha, directory):
    """Writes the files of commit sha into an empty directory; its full sha."""
    full = subprocess.run(
        ["git", "rev-parse", "--verify", f"{sha}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    directory.mkdir(parents=True, exist_ok=True)
    if any(directory.iterdir()):
        sys.exit(f"bench_pairs: {directory} is not empty")
    archive = subprocess.run(["git", "archive", full], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive.stdout, check=True)
    return full


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--parent-dir", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    bench = {
        "parent_sha": extract(args.parent, args.parent_dir),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "src_lines": {"parent": src_lines(args.parent_dir), "change": src_lines(ROOT)},
    }
    listed = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for key, names in (("workloads", listed), ("by_hand", BY_HAND)):
        bench[key] = {name: paired(name, args.parent_dir) for name in names}
    timed = [("cli", command, CLI_RUNS, functools.partial(cli_seconds, command=command))
             for command in CLI]
    timed += [("orbit", f"horizon {h}", ORBIT_RUNS, functools.partial(orbit_seconds, horizon=h))
              for h in ORBIT_HORIZONS]
    for key, name, runs, seconds in timed:
        best = bench.setdefault(key, {})[name] = fastest(args.parent_dir, runs, seconds)
        print(f"{name}: {best['parent']:.3f} -> {best['change']:.3f} s", file=sys.stderr)
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
