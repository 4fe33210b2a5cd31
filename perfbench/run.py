"""syncphase benchmark: run one workload and print its result.

    python3 perfbench/run.py --workload mc_short --seed 1 --seconds 10 --trace 0

Run from the root of a syncphase source tree; the program is imported from
its ``src/``.  Each call measures one workload in fresh interpreters:

* set-up probes: ``SETUP_SAMPLES - 1`` interpreters that import
  ``syncphase.cli``, run one tiny op and exit, then the workload's own
  interpreter, which does the same before it starts measuring.  ``setup_s``
  is the median of these set-up times, taken from process start to the
  child's ``ready`` line;
* the workload: ``worker.py`` runs the ops closed-loop, one client, for
  ``--seconds`` of op time and checks every output (see ``worker.py``).

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  The line before it holds the provenance and the
detailed figures; both also go to ``.bench_out/<run>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import CALIBRATION_REF_S  # noqa: E402

SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
# BLAS/OpenMP threads in the children: pinned, and never above nproc.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
THREADS = 1

# The workload's unit of work, under the name ROADMAP uses for it.
ITEM_METRIC = {"mc_short": "mc_draws_per_s", "mc_long": "mc_draws_per_s",
               "analytic_sweep": "analytic_cells_per_s",
               "battery": "battery_points_per_s"}

END_TO_END = {"setup_s": "s", "items_per_s": "items/s", "op_s_p50": "s",
              "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = str(min(THREADS, nproc()))
    return env


def git_revision() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs")) as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over src/syncphase/*.py, so a result names its program even
    outside a git checkout."""
    pkg = os.path.join(ROOT, "src", "syncphase")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fp:
                h.update(fp.read())
    return h.hexdigest()


def run_child(args, deadline: float):
    """Start worker.py; return (seconds to its ready line, last stdout line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
    finally:
        timer.cancel()
        proc.stdout.close()
        code = proc.wait()
    if ready.strip() != "ready":
        raise BenchError(f"worker never became ready (exit code {code})")
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    return setup, (lines[-1] if lines else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "syncphase", "cli.py")):
        print(f"run.py: no syncphase source under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(ROOT, ".bench_out", run_name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    common = ["--out-dir", out_dir]

    try:
        setups = []  # (seconds to ready, calibration time right after)
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup, line = run_child(common + ["--probe"], deadline)
                setups.append((setup, json.loads(line)["calibration_s"]))
        worker_args = common + [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        setup, line = run_child(worker_args, deadline)
        figures = json.loads(line)
        setups.append((setup, figures["setup_calibration_s"]))
        src = os.path.join(ROOT, "src", "syncphase")
        if os.path.realpath(figures["syncphase_path"]) != os.path.realpath(src):
            raise BenchError(f"imported syncphase from {figures['syncphase_path']}")
    except (BenchError, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for sub in ("ops", "plain", "traced", "reference"):
        shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": value, "unit": tracing.unit(name)}
                   for name, value in figures.pop("per_layer").items()}
    else:
        # set-up in reference seconds, as the worker reports op times
        values = {
            "setup_s": statistics.median(
                wall * CALIBRATION_REF_S / cal for wall, cal in setups),
            "items_per_s": figures["items_per_s"],
            "op_s_p50": figures["op_s_p50"],
            "peak_rss_mb": figures["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        figures[ITEM_METRIC[args.workload]] = values["items_per_s"]
        figures["wall"]["setup_s_samples"] = [w for w, _ in setups]
        figures["setup_calibration_s"] = [c for _, c in setups]
    figures["ops_failed_frac"] = figures["failed"] / figures["attempted"]
    figures["analytic_oracle_rel_err_max"] = figures.pop("oracle_rel_err_max")

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc(), "blas_threads": min(THREADS, nproc()),
        "git_revision": git_revision(), "src_sha256": source_digest(),
        "machine": platform.machine(), "platform": platform.platform(),
        "closed_loop_clients": 1,
    }
    result = {"correct": figures["failed"] == 0,
              "attempted": figures["attempted"], "failed": figures["failed"],
              "metrics": metrics}
    detail = {"provenance": provenance, "detail": figures}
    with open(os.path.join(out_dir, "result.json"), "w") as fp:
        json.dump({**detail, "result": result}, fp, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
