"""Every public function and class of the library has a caller outside the
tests: a name only tests use is a second code path to keep in step."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "spoofbench").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _referenced(tree) -> set[str]:
    """The names a module uses: as a name, as an attribute, or as a string
    that is an identifier (perfbench/spans.py names its targets so)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def test_every_public_library_name_is_used_outside_the_tests():
    used = set().union(*(_referenced(ast.parse(p.read_text(), str(p))) for p in CALLERS))
    public = [
        f"{path.stem}.{node.name}"
        for path in LIBRARY
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert public
    assert [name for name in public if name.split(".")[1] not in used] == []
