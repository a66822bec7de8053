"""Every module of the package uses each name it imports, and imports
only at module level.

No linter runs in CI, so a name left imported after the code that used it
is deleted would stay unnoticed.  `__init__.py` is exempt: its imports are
the package's re-exports.  An import inside a function hides a module's
dependencies (and an import cycle) until that function first runs.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toricgm"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def _local_imports(source):
    """(line, function name) of each import inside a function body."""
    tree = ast.parse(source)
    return sorted((node.lineno, fn.name) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn)
                  if isinstance(node, (ast.Import, ast.ImportFrom)))


def test_the_check_sees_an_unused_import():
    assert "toric.py" in MODULES
    source = "import math\nfrom os import path, sep\nprint(math.pi, sep)\n"
    assert _unused_imports(source) == [(2, "path")]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


def test_the_check_sees_a_function_local_import():
    source = ("import math\n\n\nclass C:\n    def f(self):\n"
              "        from os import sep\n        return sep\n\n\n"
              "def g():\n    def h():\n        import heapq\n"
              "    return h, math.pi\n")
    assert _local_imports(source) == [(6, "f"), (12, "g"), (12, "h")]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_module_imports_only_at_module_level(module):
    assert _local_imports((PACKAGE / module).read_text()) == []
