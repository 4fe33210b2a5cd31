"""Each module keeps its private names: no ``from .module import _name``
and no ``module._name`` read through ``from . import module`` across the
modules of the package, so every decision stays behind the module that owns
it."""
import ast
import pathlib

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
