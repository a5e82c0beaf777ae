"""Every def and class in src/smile_lab has a caller in src/ or scripts/.

A name counts as called when it appears as a Name or an Attribute in the
source of src/ or scripts/ outside its own definition. Tests do not count:
an API that only a test calls is kept only for that test.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "smile_lab"

# Names that tests/test_acceptance.py calls and nothing in the package does;
# the acceptance checks pin them as they are.
ALLOWED = {
    "grad_check": "criterion 1 checks every analytic gradient with it",
    "multiply": "criterion 1 checks its gradient by name",
    "mixup_loss": "criterion 5 checks that mixup at lambda 0 is the task loss",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _walk(node, enclosing, defs, refs):
    """Collect every definition under ``node``, and every referenced name
    with the definitions that enclose it."""
    for child in ast.iter_child_nodes(node):
        inner = enclosing
        if isinstance(child, _DEFS):
            defs.append(child)
            inner = enclosing | {child}
        elif isinstance(child, ast.Name):
            refs.append((child.id, enclosing))
        elif isinstance(child, ast.Attribute):
            refs.append((child.attr, enclosing))
        _walk(child, inner, defs, refs)


def uncalled_names(package_files, other_files=()) -> set:
    """Non-dunder def and class names of ``package_files`` that no node of
    those files or of ``other_files`` refers to outside their own
    definition."""
    defs, refs = [], []
    for path in [*package_files, *other_files]:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found = []
        _walk(tree, frozenset(), found, refs)
        if path in package_files:
            defs += found
    return {node.name for node in defs
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and not any(name == node.name and node not in where
                        for name, where in refs)}


def test_every_package_name_has_a_caller():
    assert uncalled_names(sorted(PACKAGE.glob("*.py")),
                          sorted((ROOT / "scripts").glob("*.py"))) \
        == set(ALLOWED)


@pytest.mark.parametrize("source, expected", [
    ("def used():\n    pass\n\nused()\n", set()),
    ("def recursive(n):\n    return recursive(n - 1)\n", {"recursive"}),
    ("class C:\n    def method(self):\n        pass\n\nC().method()\n",
     set()),
    ("class C:\n    def method(self):\n        pass\n\nC()\n", {"method"}),
    ("class C:\n    def __init__(self):\n        pass\n\nC()\n", set()),
])
def test_uncalled_names_on_small_sources(tmp_path, source, expected):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert uncalled_names([path]) == expected
