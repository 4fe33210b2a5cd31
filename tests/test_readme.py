"""The README's library example runs against the current API."""
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The first fenced ``python`` block under ``## Library example``."""
    text = README.read_text()
    section = text[text.index("\n## Library example\n"):]
    return re.search(r"^```python\n(.*?)^```$", section,
                     re.MULTILINE | re.DOTALL).group(1)


def test_library_example_runs(capsys):
    code = library_example()
    assert "estimate_phase(" in code
    exec(compile(code, f"{README}:library-example", "exec"), {})
    assert capsys.readouterr().out.strip()
