"""Every def and class in src/smile_lab has a caller in src/ or scripts/,
and every defaulted parameter of a def has a call there that passes it.

A name counts as called when it appears as a Name or an Attribute in the
source of src/ or scripts/ outside its own definition. A defaulted
parameter counts as passed when a call of its function's name outside that
definition names it as a keyword or splats ``**`` arguments, or, for a
positional parameter, reaches its position or splats ``*`` arguments; an
``__init__`` is called by its class's name. Tests do not count: an API or a
parameter that only a test uses is kept only for that test.
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

# Defaulted parameters that tests/test_acceptance.py passes and nothing in
# the package does, as ``function.parameter``.
ALLOWED_PARAMETERS = {
    "init_weights.with_target_head":
        "criteria 1 and 5 build a model with a target head",
    "estimate_IL.rng": "criterion 3 enumerates the draws with a scripted rng",
    "grad_check.step": "criterion 1 sets its finite-difference step",
    "grad_check.tolerance": "criterion 1 sets its tolerance",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _walk(node, enclosing, defs, refs, calls):
    """Collect every definition under ``node``, and every referenced name
    and every call with the definitions that enclose it."""
    for child in ast.iter_child_nodes(node):
        inner = enclosing
        if isinstance(child, _DEFS):
            defs.append((child, node))
            inner = enclosing | {child}
        elif isinstance(child, ast.Name):
            refs.append((child.id, enclosing))
        elif isinstance(child, ast.Attribute):
            refs.append((child.attr, enclosing))
        if isinstance(child, ast.Call):
            calls.append((child, enclosing))
        _walk(child, inner, defs, refs, calls)


def _parse(package_files, other_files):
    defs, refs, calls = [], [], []
    for path in [*package_files, *other_files]:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found = []
        _walk(tree, frozenset(), found, refs, calls)
        if path in package_files:
            defs += found
    return defs, refs, calls


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def uncalled_names(package_files, other_files=()) -> set:
    """Non-dunder def and class names of ``package_files`` that no node of
    those files or of ``other_files`` refers to outside their own
    definition."""
    defs, refs, _ = _parse(package_files, other_files)
    return {node.name for node, _ in defs
            if not _is_dunder(node.name)
            and not any(name == node.name and node not in where
                        for name, where in refs)}


def _called_name(call: ast.Call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _passes(call: ast.Call, name: str, position) -> bool:
    """Whether ``call`` passes parameter ``name``, which sits at
    ``position`` among the positional arguments (None: keyword-only)."""
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(arg, ast.Starred) for arg in call.args))


def unpassed_parameters(package_files, other_files=()) -> set:
    """``function.parameter`` for every defaulted parameter of a def in
    ``package_files`` that no call outside the def passes."""
    defs, _, calls = _parse(package_files, other_files)
    out = set()
    for node, parent in defs:
        if not isinstance(node, _FUNCTIONS):
            continue
        callee = node.name
        params = [*node.args.posonlyargs, *node.args.args]
        if isinstance(parent, ast.ClassDef):
            params = params[1:]  # self or cls, bound by the call
            if node.name == "__init__":
                callee = parent.name
        elif _is_dunder(node.name):
            continue
        defaulted = [(arg.arg, i) for i, arg in enumerate(params)
                     if i >= len(params) - len(node.args.defaults)]
        defaulted += [(arg.arg, None) for arg, default in
                      zip(node.args.kwonlyargs, node.args.kw_defaults)
                      if default is not None]
        for name, position in defaulted:
            if not any(_called_name(call) == callee and node not in where
                       and _passes(call, name, position)
                       for call, where in calls):
                out.add(f"{node.name}.{name}")
    return out


def _sources():
    return (sorted(PACKAGE.glob("*.py")),
            sorted((ROOT / "scripts").glob("*.py")))


def test_every_package_name_has_a_caller():
    assert uncalled_names(*_sources()) == set(ALLOWED)


def test_every_defaulted_parameter_is_passed():
    assert unpassed_parameters(*_sources()) == set(ALLOWED_PARAMETERS)


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


@pytest.mark.parametrize("source, expected", [
    ("def f(a, b=1):\n    pass\n\nf(0)\n", {"f.b"}),
    ("def f(a, b=1):\n    pass\n\nf(0, 2)\n", set()),
    ("def f(a, b=1):\n    pass\n\nf(0, b=2)\n", set()),
    ("def f(a, *, b=1):\n    pass\n\nf(0, 2)\n", {"f.b"}),
    ("def f(a, *, b=1):\n    pass\n\nf(0, b=2)\n", set()),
    ("def f(a, b=1):\n    pass\n\nf(*args)\n", set()),
    ("def f(a, *, b=1):\n    pass\n\nf(*args)\n", {"f.b"}),
    ("def f(a, *, b=1):\n    pass\n\nf(0, **kwargs)\n", set()),
    ("def f(a, b=1):\n    return f(a, b)\n\nf(0)\n", {"f.b"}),
    ("class C:\n    def m(self, b=1):\n        pass\n\nC().m(2)\n", set()),
    ("class C:\n    def __init__(self, b=1):\n        pass\n\nC()\n",
     {"__init__.b"}),
    ("class C:\n    def __init__(self, b=1):\n        pass\n\nC(b=2)\n",
     set()),
])
def test_unpassed_parameters_on_small_sources(tmp_path, source, expected):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert unpassed_parameters([path]) == expected
