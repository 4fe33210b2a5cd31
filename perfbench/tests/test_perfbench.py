"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from syncphase import cli  # noqa: E402

TINY = {
    "mc_short": {"ops": 2, "draws": 300},
    "mc_long": {"ops": 2, "draws": 40},
    "analytic_sweep": {"ops": 3, "rmse_snr": 2, "rmse_sigma": 1, "rmse_n": 1,
                       "div_snr": 1},
    "battery": {"ops": 2, "reps": 1, "hz_draws": 60, "hoeffding_draws": 60},
}


def runner_for(workload, tmp_path, seed=3):
    return worker.Runner(workload, seed, str(tmp_path), TINY[workload])


# --- generated inputs -----------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_argv_is_a_function_of_the_seed(workload):
    first = [workloads.make_op(workload, 7, i).argv("out") for i in range(6)]
    again = [workloads.make_op(workload, 7, i).argv("out") for i in range(6)]
    other = [workloads.make_op(workload, 8, i).argv("out") for i in range(6)]
    assert first == again
    assert first != other


def test_reference_op_is_op_zero_at_the_default_seed():
    for workload in workloads.WORKLOADS:
        assert (workloads.reference_op(workload)
                == workloads.make_op(workload, workloads.DEFAULT_SEED, 0))


def test_analytic_ops_stay_inside_the_recorded_pool():
    reference = checks.load_reference()
    for index in range(60):
        op = workloads.make_op("analytic_sweep", 5, index)
        flags = dict(zip(op.args[1::2], op.args[2::2]))
        snrs = flags["--snr-db"].split(",")
        sigmas = flags["--sigma-p-deg"].split(",")
        ns = flags["--n"].split(",")
        assert op.items == len(snrs) * len(sigmas) * len(ns)
        for snr in snrs:
            for sigma in sigmas:
                for n in ns:
                    assert checks.cell_key(snr, sigma, n) in reference[op.kind]


# --- smoke runs -----------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_untraced_run_is_correct(workload, tmp_path):
    runner = runner_for(workload, tmp_path)
    runner.warm_up(cli.main)
    figures = worker.measure(runner, cli.main, 0.05)
    runner.check_reference(cli.main)
    assert runner.failures == []
    assert figures["ops"] == TINY[workload]["ops"] and figures["passes"] >= 1
    assert figures["items_per_s"] > 0 and figures["op_s_p50"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_matches_untraced_bytes(workload, tmp_path):
    runner = runner_for(workload, tmp_path)
    figures = worker.measure_traced(runner, cli.main, 0.05)
    assert runner.failures == []
    assert figures["ops"] >= 1
    layers = figures["per_layer"]
    assert layers["cli.self_s"] > 0 and layers["cli.bytes_written"] > 0
    busy = {
        "mc_short": "rng.substreams", "mc_long": "spectral_estimator.draws",
        "analytic_sweep": "quadrature.panels",
        "battery": "mc_harness.hoeffding_points",
    }[workload]
    assert layers[busy] > 0
    assert os.path.getsize(os.path.join(str(tmp_path), "spans.jsonl")) > 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        declared = {m["name"]: m["unit"] for m in json.load(fp)["per_layer"]}
    assert declared == {name: tracing.unit(name) for name in layers}


def test_tracer_restores_the_package(tmp_path):
    import syncphase.mc_harness
    import syncphase.phase_pdf

    before = (syncphase.mc_harness.reduced_dft_draws,
              syncphase.phase_pdf.integrate, cli.run_mc)
    tracer = tracing.Tracer()
    op = workloads.make_op("mc_long", 1, 0, TINY["mc_long"])
    assert tracer.run_op(worker.call_cli, cli.main,
                         op.argv(str(tmp_path))) == ""
    assert (syncphase.mc_harness.reduced_dft_draws,
            syncphase.phase_pdf.integrate, cli.run_mc) == before
    names = {span[0] for span in tracer.spans}
    assert {tracing.ROOT, tracing.RUN_MC, tracing.SYNTHESIS, tracing.RNG,
            tracing.GOERTZEL} <= names


def test_checks_reject_wrong_outputs(tmp_path):
    op = workloads.make_op("mc_short", 1, 0, TINY["mc_short"])
    assert cli.main(op.argv(str(tmp_path))) == 0
    paths = op.paths(str(tmp_path))
    expected = checks.load_reference()["mc_rmse_polar_deg"]["mc_short"]
    assert checks.check_mc(paths, op.items, expected)[0] is None
    assert "standard errors" in checks.check_mc(paths, op.items, expected * 1.5)[0]
    with open(paths[1]) as fp:
        text = fp.read()
    with open(paths[1], "w") as fp:
        fp.write(text.replace(",0\n", ",1\n", 1))
    assert "counts sum" in checks.check_mc(paths, op.items, expected)[0]

    op = workloads.make_op("analytic_sweep", 1, 0)
    assert cli.main(op.argv(str(tmp_path))) == 0
    reference = checks.load_reference()
    assert checks.check_analytic(op.paths(str(tmp_path)), "rmse", op.items,
                                 reference) is None
    _, _, rows = checks.read_table(op.paths(str(tmp_path))[0])
    key = checks.cell_key(*rows[0][:3])
    value = float(reference["rmse"][key][0])
    reference["rmse"][key][0] = repr(value * (1 + 1e-8))
    assert "recorded" in checks.check_analytic(
        op.paths(str(tmp_path)), "rmse", op.items, reference)


# --- self-time arithmetic -----------------------------------------------------

def test_self_time_subtracts_children():
    spans = [
        ["root", 0, 100, -1, 0, {}],
        ["a", 10, 40, 0, 0, {}],
        ["a.child", 20, 30, 1, 0, {}],
        ["b", 50, 70, 0, 0, {}],
    ]
    assert tracing.self_times_ns(spans) == [50, 20, 10, 20]


def test_covered_time_is_a_union_clipped_to_the_parent():
    assert tracing.covered_ns(0, 100, [(10, 40), (30, 60), (90, 120)]) == 60
    assert tracing.covered_ns(0, 100, []) == 0


def test_layer_metrics_are_per_op():
    s = 1_000_000_000
    spans = [
        [tracing.ROOT, 0, 4 * s, -1, 0, {}],
        [tracing.RUN_MC, 1 * s, 4 * s, 0, 0, {}],
        [tracing.SYNTHESIS, 1 * s, 3 * s, 1, 0, {"draws": 10}],
        [tracing.RNG, 1 * s, 2 * s, 2, 0, {"substreams": 10, "normals": 200}],
        [tracing.ROOT, 5 * s, 6 * s, -1, 1, {}],
    ]
    layers = tracing.layer_metrics(spans, 2)
    assert layers["cli.self_s"] == pytest.approx(1.0)   # (1 + 1) / 2
    assert layers["mc_harness.reduce_self_s"] == pytest.approx(0.5)
    assert layers["spectral_estimator.synthesis_self_s"] == pytest.approx(0.5)
    assert layers["rng.self_s"] == pytest.approx(0.5)
    assert layers["rng.normals"] == 100
    assert layers["mc_harness.chunks"] == 0.5
    assert layers["quadrature.panels"] == 0


# --- run.py -----------------------------------------------------------------

def test_run_prints_the_result_line():
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "mc_long", "--seed", "2", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    *_, detail, last = out.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        declared = json.load(fp)
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert json.loads(detail)["provenance"]["blas_threads"] >= 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
