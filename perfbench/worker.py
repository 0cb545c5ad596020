"""One benchmark process: time the set-up, then run east-lab back to back.

Run by ``run.py`` with ``src`` on PYTHONPATH; prints one JSON object as its
last stdout line.  The process is a single closed-loop client: it calls
``eastlab.cli.main`` in-process, checks the outputs of each run, and starts
the next run only when the previous one is done.  Only the standard library is
imported before ``import eastlab.cli`` is timed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Optional

from calibrate import REFERENCES, reference_timer
from tracer import LAYERS, Hooks, Tracer, layer_metrics
from workloads import WORKLOADS, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Tally:
    """Runs and output checks attempted and failed, with the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, error: Optional[str]) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{what}: {error}")

    def check(self, what: str, check, target, reference) -> None:
        """Run one check; an unreadable output fails it instead of the run."""
        try:
            error = check(target, reference)
        except (OSError, ValueError, KeyError, IndexError) as e:
            error = f"{type(e).__name__}: {e}"
        self.record(what, error)


def run_loop(main, workload: Workload, config_path: str, out_root: str, seeds, seconds: float,
             reference, tally: Tally, calibrate) -> tuple[list[float], list[float], list[str], float]:
    """Call ``main`` on the config, checking each run's outputs, for as many
    runs as fit in ``seconds`` (at least one).

    Returns the duration, the mean of the ``calibrate()`` times just before
    and just after, and the output directory of each east-lab run, and the
    peak RSS after the first run (later runs only add allocator growth).
    """
    walls: list[float] = []
    refs: list[float] = []
    outs: list[str] = []
    start = time.perf_counter()
    ref_before = calibrate()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        seed = next(seeds)
        out = os.path.join(out_root, f"run-{seed}")
        t0 = time.perf_counter()
        code = main([config_path, "--seed", str(seed), "--out", out])
        walls.append(time.perf_counter() - t0)
        if len(walls) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tally.record(f"east-lab seed {seed}", None if code == 0 else f"exit code {code}")
        for name, check in workload.checks:
            tally.check(f"{name} seed {seed}", check, out, reference)
        outs.append(out)
        ref_after = calibrate()
        refs.append((ref_before + ref_after) / 2)
        ref_before = ref_after
    return walls, refs, outs, peak_rss_mb


def check_run(workload: Workload, outs: list[str], reference, tally: Tally) -> None:
    """The checks over all output directories of a benchmark run."""
    for name, check in workload.run_checks:
        tally.check(name, check, outs, reference)


def bytes_in(outs: list[str]) -> int:
    return sum(os.path.getsize(e.path) for out in outs if os.path.isdir(out) for e in os.scandir(out))


def _blas_threads() -> int:
    """OpenBLAS thread count of the loaded numpy, or 0 when it cannot be read."""
    import ctypes
    import glob

    import numpy

    for lib_path in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return 0


def environment() -> dict:
    import hashlib
    import platform
    import subprocess

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        commit = proc.stdout.strip() or "unknown"
    src_hash = hashlib.sha256()
    src_loc = {}
    for layer in LAYERS:
        with open(os.path.join(SRC, "eastlab", f"{layer}.py"), "rb") as fh:
            data = fh.read()
        src_hash.update(data)
        src_loc[f"src_loc.{layer}"] = data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        **src_loc,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    config_text = workload.config + f"seed = {args.seed}\n"
    # one CPU for the runs and for the references timed beside them, which
    # also holds for a reference run in a child process
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # the import is pure-Python work, so its reference brackets it
    python_ref, python_nominal_s = REFERENCES["python"]
    ref_before = statistics.median(python_ref() for _ in range(3))
    start = time.perf_counter()
    cli = importlib.import_module("eastlab.cli")
    config = cli.parse_config(config_text)
    setup_s = time.perf_counter() - start
    ref_after = statistics.median(python_ref() for _ in range(3))
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported eastlab from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = {
        "setup_s": setup_s,
        "scaled_setup_s": setup_s * python_nominal_s * 2 / (ref_before + ref_after),
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    os.makedirs(args.work_dir, exist_ok=True)
    config_path = os.path.join(args.work_dir, "workload.cfg")
    with open(config_path, "w") as fh:
        fh.write(config_text)
    reference = workload.reference(config)
    seeds = iter(range(args.seed * 100_000, (args.seed + 1) * 100_000))
    tally = Tally()
    nominal_s = REFERENCES[workload.calibration][1]

    def scaled(walls, refs):
        return [w * nominal_s / r for w, r in zip(walls, refs)]

    untraced_s = args.seconds / 2 if args.trace else args.seconds
    with reference_timer(workload.calibration) as calibrate:
        walls, refs, outs, peak_rss_mb = run_loop(cli.main, workload, config_path, args.work_dir,
                                                  seeds, untraced_s, reference, tally, calibrate)
        if args.trace:
            tracer = Tracer()
            with Hooks(tracer) as hooks:
                traced_main = tracer.span("cli.main", cli.main)
                traced, traced_refs, traced_outs, _ = run_loop(
                    traced_main, workload, config_path, args.work_dir, seeds, args.seconds / 2,
                    reference, tally, calibrate)
    result.update(units_per_run=workload.units, walls=walls, scaled_walls=scaled(walls, refs),
                  calibration_s=statistics.median(refs))
    if args.trace:
        outs += traced_outs
        layers = layer_metrics(tracer, len(traced))
        traced_wall = statistics.fmean(traced)
        layers.update({
            "cli.bytes_written": bytes_in(traced_outs) / len(traced),
            "trace.wall_s": traced_wall,
            "trace.overhead_s": statistics.median(scaled(traced, traced_refs))
            - statistics.median(result["scaled_walls"]),
            "trace.accounted_frac": sum(layers[f"{layer}.self_s"] for layer in LAYERS) / traced_wall,
            "trace.hooks_missing": len(hooks.missing),
        })
        result["layers"] = layers
        result["not_observed"] = sorted(set(LAYERS) - hooks.observed) + hooks.missing
    check_run(workload, outs, reference, tally)
    result["peak_rss_mb"] = peak_rss_mb
    result.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures,
                  env=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
