"""eastlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload persist-2d-wide --seed 1 --seconds 25 --trace 0

Run from the repository root.  The workload runs in a fresh worker process
(``worker.py``) that imports eastlab from ``src`` and calls
``eastlab.cli.main`` back to back for ``--seconds``, checking every output.
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the worker spends half the time untraced and half traced and the
line carries the per-layer metrics.  See NOTES.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3  # fresh processes timed per run, the worker's own included
DEADLINE_S = 170.0


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion; its last stdout line is a JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    # one client with no parallelism: BLAS on one thread (see NOTES.md)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "eastlab", "cli.py")):
        raise RuntimeError(f"no eastlab sources under {os.path.join(ROOT, 'src')}")
    work_dir = os.path.join(ROOT, ".perfbench_runs", f"{workload}-{os.getpid()}")
    common = ["--workload", workload, "--seed", str(seed), "--work-dir", work_dir]
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_worker([*common, "--setup-only"], deadline)["scaled_setup_s"])
        result = _worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["setup_samples"] = setups + [result["scaled_setup_s"]]
    return result


def metrics(result: dict, trace: int) -> dict:
    """The metrics BENCHMARK.json declares for this mode, with its units."""
    if trace:
        values = {**result["layers"], **{k: v for k, v in result["env"].items() if k.startswith("src_loc.")}}
    else:
        wall_s = statistics.median(result["scaled_walls"])
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(result["setup_samples"]),
            "units_per_s": result["units_per_run"] / wall_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="eastlab benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    out = metrics(result, args.trace)
    attempted, failed = result["attempted"], result["failed"]
    print("env " + json.dumps(result["env"], sort_keys=True))
    for line in result["failures"]:
        print(f"check failed: {line}")
    for name in result.get("not_observed", []):
        print(f"not observed: {name}")
    walls = result["walls"]
    print(f"{args.workload}: {attempted} runs and checks attempted, {failed} failed; "
          f"{len(walls)} untraced east-lab runs took {min(walls):.4g} s fastest, "
          f"{statistics.median(walls):.4g} s median, {max(walls):.4g} s slowest before rescaling; "
          f"reference {result['calibration_s']:.4g} s median; raw set-up {result['setup_s']:.4g} s")
    print(f"  {'ops_failed_frac':<32} {failed / attempted:<14.6g} ratio")
    for name, m in out.items():
        print(f"  {name:<32} {m['value']:<14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
