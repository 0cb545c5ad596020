"""Fixed reference work, timed next to each measurement to track host speed.

The host's speed drifts by up to 50% over tens of seconds, so raw times of the
same code spread too widely to compare two commits.  Each reference does a
fixed piece of work of the same kind as the measured code and touches no
eastlab code, so a change to eastlab cannot move it.  A measured time divided
by the reference time beside it, times the reference's nominal time, is the
time at the nominal host speed.

Garbage collection is off while a reference runs, so that its time does not
depend on the heap the measured code left behind.  numpy and scipy are
imported inside the references, so that importing this module does not
shorten a timed ``import eastlab.cli``.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import os
import subprocess
import sys
import time


def _timed(work) -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def python() -> float:
    """Pure-Python object churn, as in module execution at import time;
    returns its duration in seconds."""

    def work():
        for k in range(300):
            table = {f"name{j}": (j * k) ^ (j >> 1) for j in range(60)}
            sorted(table.items(), key=lambda kv: kv[1])

    return _timed(work)


def interpreter() -> float:
    """Per-site Philox streams and small Python containers, as in simulate and
    the log queries; returns its duration in seconds."""
    import numpy as np

    def work():
        for k in range(500):
            gen = np.random.Generator(np.random.Philox(key=k * 7919 + 1))
            gen.standard_exponential(16).cumsum()
            table = {j: (j * k) ^ (j >> 1) for j in range(40)}
            sum(table.values())

    return _timed(work)


@functools.cache
def _lapack_inputs():
    import numpy as np
    import scipy.sparse as sp

    dense = np.cos(np.add.outer(np.arange(2048.0), np.arange(2048.0)) * 0.37)
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(90, 90))
    return dense, sp.kronsum(line, line, format="csc")


def lapack() -> float:
    """A dense symmetric eigensolve and a sparse LU, as in spectral_gap;
    returns its duration in seconds."""
    import numpy as np
    import scipy.sparse.linalg as spla

    dense, laplace = _lapack_inputs()
    rhs = np.ones(laplace.shape[0])

    def work():
        np.linalg.eigvalsh(dense)
        spla.splu(laplace).solve(rhs)

    return _timed(work)


# name -> (reference, its median time in quiet stretches on the 2-core host
# the benchmark was defined on); the nominal time only sets the scale
REFERENCES = {
    "python": (python, 0.008),
    "interpreter": (interpreter, 0.0105),
    "lapack": (lapack, 0.9),
}
# references whose memory would raise the worker's peak RSS run in a child
# process; the others run in the worker, on the CPU its runs use
IN_CHILD = {"lapack"}


@contextlib.contextmanager
def reference_timer(name: str):
    """Yield a callable that runs reference ``name`` and returns its time."""
    if name not in IN_CHILD:
        yield REFERENCES[name][0]
        return
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), name],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def timed() -> float:
        proc.stdin.write("\n")
        proc.stdin.flush()
        return float(proc.stdout.readline())

    try:
        yield timed
    finally:
        proc.stdin.close()
        proc.stdout.close()
        proc.wait(timeout=60)


if __name__ == "__main__":
    # child side of reference_timer: one timing per line read
    reference = REFERENCES[sys.argv[1]][0]
    for _ in sys.stdin:
        print(reference(), flush=True)
