"""Each module keeps its private names: no ``from .module import _name``
and no ``module._name`` read through ``from . import module`` across the
modules of the package, so every decision stays behind the module that owns
it.  Only ``signal_model.on_two_threads`` reads the thread count, and no
other module imports a thread library.  The package exports a pinned
list of functions, types and errors.
Importing the package loads NumPy and ``scipy.special`` only: SciPy's
heavier subpackages wait for the call that needs them."""
import ast
import math
import os
import pathlib
import subprocess
import sys
import types

import syncphase
from syncphase import make_params, rmse_cartesian_oracle, theoretical_moments

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "syncphase"


def private_imports(path):
    """(line, module, name) of each private name ``path`` imports from a
    sibling module of the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("syncphase"):
            continue
        for alias in node.names:
            name = alias.name
            if _is_private(name):
                found.append((node.lineno, node.module or ".", name))
    return found


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def private_attribute_reads(path):
    """(line, module, name) of each private attribute ``path`` reads from a
    sibling module bound by ``from . import module`` (or ``from syncphase
    import module``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module is None)
                or (node.level == 0 and node.module == "syncphase")):
            for alias in node.names:
                siblings[alias.asname or alias.name] = alias.name
    return sorted(
        (node.lineno, siblings[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in siblings and _is_private(node.attr))


def test_no_module_imports_a_private_name_of_another():
    paths = sorted(PACKAGE.glob("*.py"))
    assert {"cli.py", "mc_harness.py", "spectral_estimator.py"} <= {
        path.name for path in paths}
    offenders = {path.name: private_imports(path) for path in paths}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_a_private_import_is_caught(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from . import __version__\n"
                    "from .spectral_estimator import (\n"
                    "    _chunk_size,\n"
                    "    reduced_dft_draws,\n"
                    ")\n"
                    "from syncphase.rng import _MASK64\n"
                    "from numpy import _private_elsewhere\n")
    assert private_imports(path) == [
        (2, "spectral_estimator", "_chunk_size"),
        (6, "syncphase.rng", "_MASK64")]


def test_no_module_reads_a_private_name_of_another():
    offenders = {path.name: private_attribute_reads(path)
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_a_private_attribute_read_is_caught(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import numpy as np\n"
                    "from . import spectral_estimator, rng as r\n"
                    "from syncphase import quadrature\n"
                    "if spectral_estimator._THREADS > 1:\n"
                    "    x = r._MASK64 + np._private_elsewhere\n"
                    "y = spectral_estimator.draw_chunks, r.__name__\n"
                    "quadrature._budget = 3\n")
    assert private_attribute_reads(path) == [
        (4, "spectral_estimator", "_THREADS"),
        (5, "rng", "_MASK64"),
        (7, "quadrature", "_budget")]


# --- threads ---------------------------------------------------------------------

THREAD_MODULES = ("threading", "concurrent")


def threads_reads(path):
    """(line, enclosing function) of each read of ``_THREADS`` in ``path``,
    None outside any function."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)
            if (isinstance(child, ast.Name) and child.id == "_THREADS"
                    and isinstance(child.ctx, ast.Load)):
                found.append((child.lineno, function))
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def thread_imports(path):
    """(line, module) of each import of ``threading`` or
    ``concurrent.futures`` in ``path``, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        found.extend((node.lineno, name) for name in names
                     if name.split(".")[0] in THREAD_MODULES)
    return found


def test_only_on_two_threads_reads_the_thread_count():
    # one place decides whether a second thread runs; everything else
    # hands its two parts to on_two_threads
    reads = threads_reads(PACKAGE / "signal_model.py")
    assert reads and {function for _, function in reads} == {"on_two_threads"}
    offenders = {path.name: threads_reads(path)
                 for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "signal_model.py"}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_only_signal_model_imports_threads():
    offenders = {path.name: thread_imports(path)
                 for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "signal_model.py"}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_a_thread_count_read_or_thread_import_is_caught(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import os, threading\n"
                    "from concurrent.futures import ThreadPoolExecutor\n"
                    "_THREADS = 2\n"
                    "def on_two_threads():\n"
                    "    return _THREADS\n"
                    "def build():\n"
                    "    import concurrent.futures\n"
                    "    def part():\n"
                    "        return _THREADS > 1\n"
                    "WIDE = _THREADS\n")
    assert threads_reads(path) == [(5, "on_two_threads"), (9, "part"),
                                   (10, None)]
    assert thread_imports(path) == [(1, "threading"),
                                    (2, "concurrent.futures"),
                                    (7, "concurrent.futures")]


# --- the public API --------------------------------------------------------------

PUBLIC_API = [
    "BatteryReport", "DegenerateSigma", "DensityGrid", "EmptyInput",
    "ErrorReport", "HzResult", "LengthMismatch", "McConfig", "McReport",
    "NonPositiveAmplitude", "NonSynchronous", "NyquistViolation", "OutOfRange",
    "PhaseStatistic", "PolarPdf", "QuadratureNonConvergence", "Regime",
    "SignalParams", "SingularCovariance", "SupportMismatch", "SyncPhaseError",
    "TheoreticalMoments", "TooFewPoints", "ZeroVector", "benjamini_hochberg",
    "bhattacharyya_distance", "bias_polar", "classify_regime", "crlb",
    "density_from_pdf", "dft_bin", "efficiency", "error_report",
    "estimate_phase", "fisher_combine", "gaussian_approximation", "generate",
    "henze_zirkler", "hoeffding_d", "kl_divergence", "make_params",
    "pdf_value", "rmse_cartesian_oracle", "rmse_floor_approx",
    "rmse_linear_approx", "rmse_polar", "rmse_uniform_limit",
    "run_convergence_battery", "run_mc", "sigma_x_for_snr", "snr_linear",
    "theoretical_moments", "uniform_density_on", "wrap_angle",
]


def test_the_public_api_is_pinned():
    # functions, types and errors only: a name leaves or joins on purpose
    assert syncphase.__all__ == PUBLIC_API


def test_submodules_are_attributes_not_exports():
    import syncphase.rng

    assert isinstance(syncphase.rng, types.ModuleType)
    assert not [name for name in syncphase.__all__
                if isinstance(getattr(syncphase, name), types.ModuleType)]


# --- what importing the package loads -------------------------------------------

MODULE_LEVEL_THIRD_PARTY = {"numpy", "scipy.special"}


def module_level_imports(path):
    """(line, module) of each third-party module ``path`` imports when it is
    itself imported; an import inside a function waits for a call."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            found.extend((child.lineno, name) for name in names
                         if _third_party(name))
            visit(child)

    visit(ast.parse(path.read_text(), filename=str(path)))
    return found


def _third_party(module):
    return module.split(".")[0] not in sys.stdlib_module_names | {"syncphase"}


def test_module_level_imports_are_numpy_and_scipy_special():
    offenders = {
        path.name: [(line, name) for line, name in module_level_imports(path)
                    if name not in MODULE_LEVEL_THIRD_PARTY]
        for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_a_module_level_import_is_caught(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import math, numpy as np\n"
                    "from scipy.special import ndtr\n"
                    "from . import rng\n"
                    "from syncphase.errors import OutOfRange\n"
                    "import scipy.stats\n"
                    "try:\n"
                    "    from scipy.integrate import quad\n"
                    "except ImportError:\n"
                    "    pass\n"
                    "def oracle():\n"
                    "    from scipy.integrate import quad\n"
                    "class Table:\n"
                    "    import pandas\n")
    assert module_level_imports(path) == [
        (1, "numpy"), (2, "scipy.special"), (5, "scipy.stats"),
        (7, "scipy.integrate"), (13, "pandas")]


ORACLE_CELL = dict(amplitude=1.0, f0=1.0, fs=20.0, phase=0.3,
                   sigma_additive=0.5, sigma_phase=0.0, n_samples=20)

_COLD_START = """
import sys
from syncphase import make_params, rmse_cartesian_oracle, theoretical_moments
from syncphase.cli import main

mc_out, battery_out, rmse_out = sys.argv[1:]
assert main(["mc", "--snr-db", "0", "--n", "20", "--draws", "10",
             "--out", mc_out]) == 0
assert main(["normality", "--snr-db", "0", "--n", "20", "--reps", "1",
             "--hz-draws", "20", "--hoeffding-draws", "10",
             "--out", battery_out]) == 0
assert main(["rmse", "--snr-db", "0", "--n", "20", "--out", rmse_out]) == 0
heavy = ("scipy.stats", "scipy.integrate", "scipy.linalg")
print(sorted(name for name in sys.modules if name.startswith(heavy)))
params = make_params(**ORACLE_CELL)
print(repr(rmse_cartesian_oracle(theoretical_moments(params))))
print("scipy.integrate" in sys.modules)
"""


def test_cli_runs_without_scipy_stats_or_integrate(tmp_path):
    # a fresh interpreter: this one has long since loaded both
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-c", f"ORACLE_CELL = {ORACLE_CELL!r}" + _COLD_START,
         str(tmp_path / "mc.csv"), str(tmp_path / "battery.csv"),
         str(tmp_path / "rmse.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded, oracle, integrate_loaded = done.stdout.splitlines()
    assert loaded == "[]"
    # the oracle still runs, on QUADPACK loaded by its first call
    want = rmse_cartesian_oracle(theoretical_moments(make_params(**ORACLE_CELL)))
    assert math.isfinite(want) and float(oracle) == want
    assert integrate_loaded == "True"
