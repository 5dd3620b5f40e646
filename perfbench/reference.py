"""The host-speed reference: a fixed exact-arithmetic computation, timed in
an interpreter of its own.

The benchmark's host is a few vCPUs of a shared machine whose speed changes
by up to 1.7x for a minute or more at a time, and a run lasts a minute, so
the wall times of two runs of the same code differ by more than most
changes worth measuring.  The reference is Gaussian elimination over
Fractions on a fixed 14x14 matrix: allocation-heavy pure Python like
algolab's ops, so that it slows with the host as they do (on a 2 vCPU VM,
10 s windows of op time divided by reference time spread 0.04 where op time
alone spread 0.11-0.13).  It runs in its own interpreter so that what
algolab keeps on its heap, or a change to it, cannot change the reference.

    python3 perfbench/reference.py   # reads a count per line, prints the
                                     # fastest of that many runs, in seconds
"""

import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# The reference's time at the usual speed of a 2 vCPU VM (Xeon, 2.1 GHz).
NOMINAL_S = 0.008
RUNS = 4  # runs per sample


def eliminate(n=14):
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)] for i in range(n)]
    r = 0
    for c in range(n):
        p = next((k for k in range(r, n) if m[k][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pivot = m[r][c]
        m[r] = [x / pivot for x in m[r]]
        for k in range(n):
            if k != r and m[k][c] != 0:
                f = m[k][c]
                m[k] = [a - f * b for a, b in zip(m[k], m[r])]
        r += 1
    return r


class HostSpeed:
    """Context manager around the reference interpreter.  ``sample()`` times
    a few runs of the reference; ``scale()`` is NOMINAL_S divided by the
    fastest run sampled so far, the factor that turns the fastest wall times
    of the ops timed meanwhile into times at the usual host speed."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.best = float("inf")
        return self

    def sample(self):
        self.proc.stdin.write(f"{RUNS}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host-speed reference exited with code {self.proc.wait()}")
        self.best = min(self.best, float(line))

    def scale(self):
        return NOMINAL_S / self.best

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def main():
    for line in sys.stdin:
        best = float("inf")
        for _ in range(int(line)):
            t0 = perf_counter()
            eliminate()
            best = min(best, perf_counter() - t0)
        print(repr(best), flush=True)


if __name__ == "__main__":
    main()
