"""Every def and class in src/smile_lab has a caller in src/ or scripts/,
and every defaulted parameter of a def has a call there that passes it.

A def counts as called when a reference outside its own definition
resolves to it the way Python would resolve it, not when its name merely
appears:
- a top-level def or class of module ``m`` by its bare name in ``m``
  where no enclosing function binds that name (as a parameter or an
  assignment target of its own body), by a name imported from ``m``
  (``from .m import f``), or as an attribute of a name bound to ``m``
  (``from . import m as M``, then ``M.f``);
- a method or property by an attribute read of its name. When a numpy
  array or a builtin container has an attribute of that name (``shape``,
  ``copy``, ``mean``), only a read on an instance of its class counts:
  ``self`` in the class, a call of the class, or a name assigned from such
  a call or annotated with the class;
- a def nested in a function by its name inside that function.

A defaulted parameter counts as passed when a call of its function's name
outside that definition names it as a keyword or splats ``**`` arguments,
or, for a positional parameter, reaches its position or splats ``*``
arguments; an ``__init__`` is called by its class's name. Tests do not
count: an API or a parameter that only a test uses is kept only for that
test.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "smile_lab"

# Names that tests/test_acceptance.py calls and nothing in the package does;
# the acceptance checks pin them as they are.
ALLOWED = dict.fromkeys(
    ("mean", "multiply", "softmax"),
    "criterion 1 checks its gradient by name, and PRIMITIVES in "
    "perfbench/spans.py traces it by name")

# Defaulted parameters that tests/test_acceptance.py passes and nothing in
# the package does, as ``function.parameter``.
ALLOWED_PARAMETERS = {
    "init_weights.with_target_head":
        "criteria 1 and 5 build a model with a target head",
    "estimate_IL.rng": "criterion 3 enumerates the draws with a scripted rng",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Attribute names that a read could mean on a value of one of these types
_FOREIGN = set().union(*map(dir, (np.ndarray, np.random.Generator, dict,
                                  list, tuple, str)))


class _Module:
    """One parsed file: its module name and what its imports bind."""

    def __init__(self, path: Path):
        self.name, package = path.stem, path.parent.name
        self.tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        self.modules = {}       # local name -> module of the package
        self.imported = {}      # local name -> (module, name)
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".")
                if node.level == 0 and parts[0] != package:
                    continue
                rest = parts[1:] if node.level == 0 else [p for p in parts
                                                          if p]
                for alias in node.names:
                    local = alias.asname or alias.name
                    if rest:
                        self.imported[local] = (rest[0], alias.name)
                    else:
                        self.modules[local] = alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == package and len(parts) == 2:
                        self.modules[alias.asname or alias.name] = parts[1]

    def resolve(self, node) -> tuple | None:
        """(module, name) that a Name or a module-qualified Attribute
        refers to, if it refers to a top-level name."""
        if isinstance(node, ast.Name):
            return self.imported.get(node.id, (self.name, node.id))
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in self.modules:
            return self.modules[node.value.id], node.attr
        return None

    def classes_of(self, expr) -> set:
        """Every (module, name) that an annotation or a call's callee
        names."""
        return {key for node in ast.walk(expr)
                if (key := self.resolve(node)) is not None}


def _typed_names(module: _Module, scope, parent, env: dict) -> dict:
    """``env`` (name -> candidate classes) extended by a module's or a
    function's assignments from calls, and a function's annotated
    parameters and its ``self``."""
    env = dict(env)
    if isinstance(scope, _FUNCTIONS):
        params = [*scope.args.posonlyargs, *scope.args.args,
                  *scope.args.kwonlyargs]
        for arg in params:
            if arg.annotation is not None:
                env[arg.arg] = module.classes_of(arg.annotation)
        if isinstance(parent, ast.ClassDef) and params:
            env[params[0].arg] = {(module.name, parent.name)}
    stack = list(ast.iter_child_nodes(scope))
    while stack:                # the scope's own statements, not nested defs
        node = stack.pop()
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    env[target.id] = module.classes_of(node.value.func)
        if not isinstance(node, _DEFS):
            stack.extend(ast.iter_child_nodes(node))
    return env


def _local_names(function) -> set:
    """The names a function binds itself: its parameters and the names
    assigned in its own body, not in the defs nested in it."""
    args = function.args
    names = {arg.arg for arg in [*args.posonlyargs, *args.args,
                                 *args.kwonlyargs, args.vararg, args.kwarg]
             if arg is not None}
    stack = list(function.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, _DEFS):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _walk(module, node, enclosing, env, local, defs, refs, calls):
    """Collect every definition under ``node`` with its parent node and the
    definitions that enclose it, every Name and Attribute with the
    definitions that enclose it and the classes its receiver may have, and
    every call with the definitions that enclose it. A Name in ``local``,
    the names that the enclosing functions bind, refers to no top-level
    def, so it is not collected."""
    for child in ast.iter_child_nodes(node):
        inner, inner_env, inner_local = enclosing, env, local
        if isinstance(child, _DEFS):
            defs.append((module, child, node, enclosing))
            inner = enclosing | {child}
            if isinstance(child, _FUNCTIONS):
                inner_env = _typed_names(module, child, node, env)
                inner_local = local | _local_names(child)
        elif isinstance(child, ast.Attribute) or (
                isinstance(child, ast.Name) and child.id not in local):
            receiver = set()
            if isinstance(child, ast.Attribute):
                value = child.value
                if isinstance(value, ast.Call):
                    receiver = module.classes_of(value.func)
                elif isinstance(value, ast.Name):
                    receiver = env.get(value.id, set())
            refs.append((module, child, enclosing, receiver))
        if isinstance(child, ast.Call):
            calls.append((child, enclosing))
        _walk(module, child, inner, inner_env, inner_local, defs, refs,
              calls)


def _parse(package_files, other_files):
    defs, refs, calls = [], [], []
    for path in [*package_files, *other_files]:
        module = _Module(path)
        found = []
        env = _typed_names(module, module.tree, None, {})
        _walk(module, module.tree, frozenset(), env, set(), found, refs,
              calls)
        if path in package_files:
            defs += found
    return defs, refs, calls


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _calls_def(definition, ref) -> bool:
    """Whether reference ``ref`` resolves to ``definition``."""
    module, node, parent, enclosing = definition
    ref_module, ref_node, where, receiver = ref
    if node in where:
        return False
    if isinstance(parent, ast.ClassDef):
        return isinstance(ref_node, ast.Attribute) \
            and ref_node.attr == node.name \
            and (node.name not in _FOREIGN
                 or (module.name, parent.name) in receiver)
    if not enclosing:
        return ref_module.resolve(ref_node) == (module.name, node.name)
    return isinstance(ref_node, ast.Name) and ref_node.id == node.name \
        and enclosing <= where


def uncalled_names(package_files, other_files=()) -> set:
    """Non-dunder def and class names of ``package_files`` that no
    reference in those files or in ``other_files`` resolves to."""
    defs, refs, _ = _parse(package_files, other_files)
    return {definition[1].name for definition in defs
            if not _is_dunder(definition[1].name)
            and not any(_calls_def(definition, ref) for ref in refs)}


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
    for _, node, parent, _ in defs:
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
    ("class C:\n    @property\n    def shape(self):\n        return 1\n\n"
     "import numpy as np\nC()\nnp.zeros(2).shape\n", {"shape"}),
    ("class C:\n    def copy(self):\n        return self\n\nC()\n"
     "[1].copy()\n", {"copy"}),
    ("class C:\n    def copy(self):\n        return self\n\nc = C()\n"
     "c.copy()\n", set()),
    ("class C:\n    def copy(self):\n        return self\n\n\n"
     "def f(c: C):\n    return c.copy()\n\nf(C())\n", set()),
    ("class C:\n    def copy(self):\n        return self\n\n"
     "    def twin(self):\n        return self.copy()\n\nC().twin()\n", set()),
    ("def outer():\n    def inner():\n        pass\n    return inner\n\n"
     "outer()\n", set()),
    ("def outer():\n    def inner():\n        pass\n\n\n"
     "def other():\n    return inner\n\nouter()\nother()\n", {"inner"}),
    ("def softmax(x):\n    return x\n\n\n"
     "def f(g):\n    softmax = g + 1\n    return softmax * 2\n\nf(1)\n",
     {"softmax"}),
])
def test_uncalled_names_on_small_sources(tmp_path, source, expected):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert uncalled_names([path]) == expected


@pytest.mark.parametrize("user, expected", [
    ("import numpy as np\n\nnp.zeros(2).mean()\n", {"mean"}),
    ("from . import tensor\n\nother.mean(1)\n", {"mean"}),
    ("from . import tensor as T\n\nT.mean(1)\n", set()),
    ("from .tensor import mean\n\nmean(1)\n", set()),
    ("from smile_lab import tensor\n\ntensor.mean(1)\n", set()),
    ("import smile_lab.tensor as T\n\nT.mean(1)\n", set()),
])
def test_top_level_defs_are_called_through_imports(tmp_path, user, expected):
    package = tmp_path / "smile_lab"
    package.mkdir()
    (package / "tensor.py").write_text("def mean(a):\n    return a\n")
    (package / "user.py").write_text(user)
    assert uncalled_names([package / "tensor.py"],
                          [package / "user.py"]) == expected


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
