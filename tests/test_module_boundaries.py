"""Each module keeps its private names: no ``from .module import _name``
across the modules of the package, so every decision stays behind the module
that owns it."""
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
            if name.startswith("_") and not name.startswith("__"):
                found.append((node.lineno, node.module or ".", name))
    return found


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
