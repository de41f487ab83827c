"""Source hygiene: every module-level import is used.

The repository has no linter, so this test is the unused-import lint.  It
scans src/conevol, scripts/ and tests/.  The package ``__init__.py`` is
skipped because its imports are the package's re-exports.
"""

# Standard libraries
import ast
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
