"""The README's table of tolerances and size caps against the code."""
import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| `([^`]+)` \|")
CONSTANT = re.compile(r"_TOL$|^MAX_N_|^MAX_SCAN_N_SUM$")


def table_rows():
    """(module, name, value) for each row of the README's table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Tolerances and size caps\n", 1)[1].split("\n## ", 1)[0]
    return [(m[1], m[2], ast.literal_eval(m[3])) for m in map(ROW.match, section.splitlines()) if m]


def defined_constants():
    """(module, name) for each module-level assignment of a tolerance or a size cap in src/kway."""
    found = []
    for path in sorted((ROOT / "src" / "kway").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            found += [(path.stem, t.id) for t in targets if isinstance(t, ast.Name) and CONSTANT.search(t.id)]
    return found


def test_table_values_match_the_code():
    rows = table_rows()
    assert rows
    for module, name, value in rows:
        assert getattr(importlib.import_module(f"kway.{module}"), name) == value, (module, name)


def test_every_constant_has_exactly_one_row():
    rows = sorted((module, name) for module, name, _ in table_rows())
    assert rows == sorted(defined_constants())
