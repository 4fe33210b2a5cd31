"""Run one workload in this (fresh) interpreter; ``run.py`` starts it.

Protocol on stdout: the line ``ready`` once ``syncphase.cli`` is imported
and the warm-up op has run (the parent times set-up up to that line), then
one JSON line: the calibration time measured right after set-up for a
``--probe``, the run's figures otherwise.

Untraced run (``--trace 0``): the run's ops (``sizes["ops"]`` of them)
form a pass.  The pass repeats until the summed op time reaches
``--seconds``; ops run one at a time.  Only the ``cli.main`` call is
timed; every run's output is checked after it, outside the timed region.
Times are reported in reference seconds (see :func:`measure`).

Traced run (``--trace 1``): the pass's ops run in turn, each twice: once
plain and once under the :class:`tracing.Tracer`, alternating which goes
first.  The two runs' output bytes must be identical; the ratio of their
wall times gives the tracing overhead, and the traced spans give the
per-layer figures.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr

import checks
import tracing
import workloads

# Nominal time of one calibrate() loop on an uncontended core of the shared
# 2-core x86-64 virtual machine the baseline was recorded on.  End-to-end times are reported
# in seconds of that core: wall time over (calibration time / this).
CALIBRATION_REF_S = 1.0e-3
# Calibration loops run right after set-up (about 0.3 s of them); their
# mean time scales setup_s.
SETUP_CALIBRATIONS = 300
# Warm-up ops per workload before timing: one of each op kind.
WARMUP_OPS = {"analytic_sweep": 3}


def call_cli(main, argv) -> str:
    """Run ``main(argv)``; return '' on success or why it failed."""
    stderr = io.StringIO()
    try:
        with redirect_stderr(stderr):
            code = main(argv)
    except Exception:  # an op that raises is a failed op, not a crash
        return "raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    if code != 0:
        return f"exit code {code}: {stderr.getvalue().strip()[:200]}"
    return ""


def calibrate() -> float:
    """Time of one run of a fixed loop of interpreter and NumPy work, in
    seconds.

    On a shared virtual machine the cores run at two speeds, about 1.7x
    apart, for spells of a fraction of a second up to tens of seconds, as
    other tenants come and go.
    Timing this loop next to each measured run tells how slow the core was
    at that moment.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 4096)
    start = time.perf_counter_ns()
    total = 0
    for i in range(3000):
        total += i * i
    for k in range(20):
        np.random.Generator(np.random.Philox(counter=[0, k, 0, 0],
                                             key=[1, 2])).random(64)
    for _ in range(10):
        np.cos(x).sum()
        np.sort(x[::-1])
    return (time.perf_counter_ns() - start) * 1e-9


class Runner:
    """Runs and checks the ops of one workload."""

    def __init__(self, workload: str, seed: int, out_dir: str, sizes=None):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.sizes = sizes or workloads.SIZES[workload]
        self.reference = checks.load_reference()
        self.attempted = 0
        self.failures: list = []
        self.z_values: list = []

    def op(self, index: int) -> workloads.Op:
        return workloads.make_op(self.workload, self.seed, index, self.sizes)

    def run(self, main, op: workloads.Op, sub: str = "ops", tracer=None):
        """One op, timed.  Returns (wall ns, output paths, failure reason)."""
        out_dir = os.path.join(self.out_dir, sub)
        os.makedirs(out_dir, exist_ok=True)
        argv = op.argv(out_dir)
        start = time.perf_counter_ns()
        if tracer is None:
            reason = call_cli(main, argv)
        else:
            reason = tracer.run_op(call_cli, main, argv)
        elapsed = time.perf_counter_ns() - start
        paths = op.paths(out_dir)
        return elapsed, paths, reason or self.check(op, paths)

    def check(self, op: workloads.Op, paths) -> str:
        try:
            if op.kind == "mc":
                expected = self.reference["mc_rmse_polar_deg"][op.workload]
                reason, z = checks.check_mc(paths, op.items, expected)
                self.z_values.append(z)
            elif op.kind == "normality":
                reason = checks.check_battery(paths, op.items)
            else:
                flags = dict(zip(op.args[1::2], op.args[2::2]))
                reason = checks.check_analytic(
                    paths, op.kind, op.items, self.reference,
                    flags.get("--sigma-p-deg", ""), flags.get("--n", ""))
        except (OSError, ValueError, KeyError) as exc:
            reason = f"{op.kind}: unreadable output: {exc}"
        return reason or ""

    def record(self, op: workloads.Op, reason: str) -> None:
        self.attempted += 1
        if reason:
            self.failures.append(f"op {op.index} {' '.join(op.args)}: {reason}")

    def warm_up(self, main) -> None:
        for index in range(-WARMUP_OPS.get(self.workload, 1), 0):
            op = self.op(index)
            self.record(op, self.run(main, op)[2])

    def check_reference(self, main) -> None:
        """Replay the reference op and compare its bytes with the digest
        recorded from the commit that defined the benchmark."""
        recorded = self.reference["digests"].get(self.workload)
        if recorded is None:
            return
        op = workloads.reference_op(self.workload)
        _, paths, reason = self.run(main, op, "reference")
        if not reason and checks.digest(paths) != recorded:
            reason = "output bytes differ from the recorded digest"
        self.record(op, reason)

    def oracle_gap_max(self):
        if self.workload != "analytic_sweep":
            return None
        gaps = [checks.oracle_gap(*cell)
                for cell in self.reference["oracle_cells"]]
        worst = max(gaps)
        if not worst <= checks.ORACLE_REL_TOL:
            self.failures.append(f"oracle: relative gap {worst:.3e}")
        return worst


def measure(runner: Runner, main, seconds: float) -> dict:
    """Run the pass's ops again and again until ``seconds`` of op time have
    gone by.  Every run is checked, and a repeat must write the same bytes
    as the op's first run.

    Each op run is followed by one calibration loop; the run's time over
    the loop's slowness (its time / ``CALIBRATION_REF_S``) is the run's
    time in reference seconds.  An op's figure is the median over its runs.
    """
    ops = [runner.op(i) for i in range(runner.sizes["ops"])]
    wall = [[] for _ in ops]
    ref = [[] for _ in ops]
    first = [None] * len(ops)
    budget = seconds * 1e9
    busy = 0
    passes = 0
    while busy < budget:
        for i, op in enumerate(ops):
            elapsed, paths, reason = runner.run(main, op)
            slowness = calibrate() / CALIBRATION_REF_S
            busy += elapsed
            wall[i].append(elapsed * 1e-9)
            ref[i].append(elapsed * 1e-9 / slowness)
            digest = None if reason else checks.digest(paths)
            if passes == 0:
                first[i] = digest
            elif digest and digest != first[i]:
                reason = "repeat wrote different bytes"
            runner.record(op, reason)
        passes += 1
    items = sum(op.items for op in ops)
    per_op = [statistics.median(t) for t in ref]
    per_op_wall = [statistics.median(t) for t in wall]
    return {
        "ops": len(ops),
        "passes": passes,
        "items": items * passes,
        "busy_s": busy * 1e-9,
        "items_per_s": items / sum(per_op),
        "op_s_p50": statistics.median(per_op),
        "op_s_samples": len(per_op),
        "wall": {"items_per_s": items / sum(per_op_wall),
                 "op_s_p50": statistics.median(per_op_wall)},
    }


def measure_traced(runner: Runner, main, seconds: float) -> dict:
    tracer = tracing.Tracer()
    ops = [runner.op(i) for i in range(runner.sizes["ops"])]
    budget = seconds * 1e9
    plain_ns = traced_ns = 0
    written = 0
    index = 0
    while plain_ns + traced_ns < budget:
        op = ops[index % len(ops)]
        digests = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            elapsed, paths, reason = runner.run(
                main, op, "traced" if traced else "plain",
                tracer if traced else None)
            runner.record(op, reason)
            if traced:
                traced_ns += elapsed
                written += sum(os.path.getsize(p) for p in paths)
            else:
                plain_ns += elapsed
            digests[traced] = None if reason else checks.digest(paths)
        if digests[True] != digests[False]:
            runner.failures.append(f"op {op.index}: traced output bytes differ")
        index += 1
    tracer.write_jsonl(os.path.join(runner.out_dir, "spans.jsonl"))
    metrics = tracing.layer_metrics(tracer.spans, index)
    metrics["cli.bytes_written"] = written / index
    metrics["trace.overhead_frac"] = traced_ns / plain_ns - 1.0
    return {"ops": index, "spans": len(tracer.spans), "per_layer": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up")
    args = parser.parse_args(argv)

    # --- set-up: what every user's CLI call pays --------------------------
    import syncphase.cli

    os.makedirs(args.out_dir, exist_ok=True)
    warm = os.path.join(args.out_dir, "warmup.csv")
    if call_cli(syncphase.cli.main, list(workloads.WARMUP_ARGV) + ["--out", warm]):
        print("warm-up op failed", file=sys.stderr)
        return 1
    print("ready", flush=True)
    setup_calibration = statistics.fmean(
        calibrate() for _ in range(SETUP_CALIBRATIONS))
    if args.probe:
        print(json.dumps({"calibration_s": setup_calibration}), flush=True)
        return 0

    # --- the workload -------------------------------------------------------
    import numpy
    import scipy

    main_fn = syncphase.cli.main
    runner = Runner(args.workload, args.seed, args.out_dir)
    runner.warm_up(main_fn)
    if args.trace:
        result = measure_traced(runner, main_fn, args.seconds)
    else:
        result = measure(runner, main_fn, args.seconds)
    runner.check_reference(main_fn)
    result["oracle_rel_err_max"] = runner.oracle_gap_max()
    z = [v for v in runner.z_values if not math.isnan(v)]
    result.update({
        "setup_calibration_s": setup_calibration,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:10],
        "mc_rmse_z_max": max(z) if z else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sizes": runner.sizes,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "syncphase": syncphase.__version__},
        "syncphase_path": os.path.dirname(syncphase.__file__),
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
