"""Source hygiene: every module-level import is used, and every
module-level definition in src/conevol is used somewhere in src/.

The repository has no linter, so this test is the unused-import lint.  It
scans src/conevol, scripts/ and tests/.  The package ``__init__.py`` is
skipped because its imports are the package's re-exports.  The
dead-definition scan keeps src/ free of functions, classes and methods
whose only caller is their own test; a name the package ``__init__.py``
re-exports counts as used.  The unset-parameter scan keeps src/ free of
defaulted parameters that no call in src/, scripts/ or perfbench/ passes.
"""

# Standard libraries
import ast
from collections import Counter
from pathlib import Path

# External libraries
import pytest

_ROOT = Path(__file__).resolve().parents[1]
_MODULES = sorted(p for p in [*(_ROOT / "src" / "conevol").glob("*.py"),
                              *(_ROOT / "scripts").glob("*.py"),
                              *(_ROOT / "tests").glob("*.py")]
                  if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nx = np.pi + tau\n"
    assert _unused_imports(source) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.relative_to(_ROOT).as_posix().removeprefix("src/conevol/"))
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _names_used(tree):
    """Every name a tree reads: bare names, attributes and the names it
    imports, counted once per occurrence."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _definitions(tree):
    """(name, node) of every module-level def or class of a module tree, and
    ("Class.method", node) of every non-dunder method of such a class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (item.name.startswith("__")
                                                        and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def _dead_definitions(sources):
    """(module, name) of every definition of _definitions in ``sources``
    (module name -> source text) that no code outside its own body uses.
    A method counts as used wherever its name is read as a name or an
    attribute."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    return sorted((module, name) for module, tree in trees.items()
                  for name, node in _definitions(tree)
                  if used[node.name] == _names_used(node)[node.name])


def test_scanner_flags_a_dead_definition():
    sources = {
        "a": "def used():\n    return 1\n\ndef only_itself(n):\n    return only_itself(n - 1)\n",
        "b": "from .a import used\n\nclass Unused:\n    pass\n\nx = used()\n",
        "c": ("class Box:\n    def __len__(self):\n        return 0\n\n"
              "    def read(self):\n        return 1\n\n"
              "    def spare(self):\n        return self.spare()\n\nBox().read()\n"),
    }
    assert _dead_definitions(sources) == [("a", "only_itself"), ("b", "Unused"),
                                          ("c", "Box.spare")]


def test_src_has_no_dead_definitions():
    src = _ROOT / "src" / "conevol"
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(src.glob("*.py"))}
    dead = _dead_definitions(sources)
    assert len(sources) > 5
    assert dead == []


def _call_name(call):
    """The name a call is made through: f(...) and obj.f(...) give f."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _unset_parameters(defining, calling):
    """(module, function, parameter) of every defaulted parameter of a def
    in ``defining`` (module name -> source text) that no call in
    ``calling`` passes, by keyword or by position.  Calls are matched by
    name; a call of a class is a call of its __init__, and a method's
    positions skip self.  A call with *args or **kwargs passes everything."""
    keywords, positions, star = {}, {}, set()
    calls = [node for text in calling.values() for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Call)]
    for call in calls:
        name = _call_name(call)
        args = [a for a in call.args if not isinstance(a, ast.Starred)]
        keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
        positions[name] = max(positions.get(name, 0), len(args))
        if len(args) < len(call.args) or any(k.arg is None for k in call.keywords):
            star.add(name)
    unset = []
    for module, text in defining.items():
        tree = ast.parse(text)
        owner = {id(item): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for item in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method = id(fn) in owner and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            name = owner[id(fn)] if fn.name == "__init__" and method else fn.name
            if name in star:
                continue
            passed = keywords.get(name, set())
            params = fn.args.posonlyargs + fn.args.args
            first = len(params) - len(fn.args.defaults)
            unset += [(module, fn.name, p.arg) for i, p in enumerate(params[first:], first)
                      if p.arg not in passed and positions.get(name, 0) <= i - method]
            unset += [(module, fn.name, p.arg)
                      for p, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                      if default is not None and p.arg not in passed]
    return sorted(unset)


def test_scanner_flags_an_unset_parameter():
    defining = {"a": ("def f(x, y=1, z=2, *, w=3, v=4):\n    pass\n\n"
                      "def g(x=0):\n    pass\n\n"
                      "class Box:\n    def __init__(self, size=1, kind=None):\n        pass\n\n"
                      "    def read(self, start=0, stop=None):\n        pass\n")}
    calling = {"b": "f(1, 2, w=5)\nh.g(*args)\nBox(3)\nBox(3).read(0)\n"}
    assert _unset_parameters(defining, calling) == [
        ("a", "__init__", "kind"), ("a", "f", "v"), ("a", "f", "z"), ("a", "read", "stop")]


# defaulted parameters that are set, but not through a call the scan can
# match by name
_SET_ELSEWHERE = {
    # the console script calls main() bare; argv is the seam tests pass
    # their command lines through
    ("cli.py", "main", "argv"),
    # cli._estimate picks the estimator into a variable and passes workers
    # to it by keyword
    ("profiles.py", "estimate_profile_mixture", "workers"),
}


def test_src_has_no_parameter_that_no_caller_sets():
    defining = {p.name: p.read_text(encoding="utf-8")
                for p in sorted((_ROOT / "src" / "conevol").glob("*.py"))}
    calling = {p.relative_to(_ROOT).as_posix(): p.read_text(encoding="utf-8")
               for top in ("src", "scripts", "perfbench") for p in sorted((_ROOT / top).rglob("*.py"))}
    unset = set(_unset_parameters(defining, calling))
    assert _SET_ELSEWHERE <= unset, "an allowlist entry is stale"
    assert unset - _SET_ELSEWHERE == set()
