"""Every module of the package uses each name it imports, imports only at
module level, and uses each private function and class it defines; each
public one is used somewhere in the repository.  The private names that
one module imports from another are listed, so a new one shows.  No
module holds an `assert` statement.

No linter runs in CI, so a name left imported after the code that used it
is deleted would stay unnoticed, and so would a private helper left
defined, or a public helper that nothing calls.  `__init__.py` is exempt
from the import check: its imports are the package's re-exports, and they
do not count as a use of a public name.  An import inside a function hides
a module's dependencies (and an import cycle) until that function first
runs.  A private name imported from another module is a detail that two
modules share: the list below keeps their number from growing unseen.
`python -O` strips every `assert` statement, so a check written as one
would silently stop running; the package raises instead.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toricgm"
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


def _private_definitions(source):
    """(line, name) of each module-level private function or class."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")]


def _references(source):
    """(name, the module-level definition it occurs in, or None) of each
    name read, attribute taken or name imported in the source."""
    out = set()
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.add((node.attr, owner))
            elif isinstance(node, ast.ImportFrom):
                out.update((alias.name, owner) for alias in node.names)
    return out


def _unreferenced(sources, definitions, others=None, texts=()):
    """(module, line, name) of each definition that `definitions` lists in
    a source and that no source, nor any of `others`, refers to outside
    the definition itself, and that no text names as a word."""
    refs = {module: _references(source)
            for module, source in {**sources, **(others or {})}.items()}
    return sorted(
        (module, line, name)
        for module, source in sources.items()
        for line, name in definitions(source)
        if not any(ref == name and (other != module or owner != name)
                   for other, found in refs.items() for ref, owner in found)
        and not any(re.search(rf"\b{name}\b", text) for text in texts))


def _unused_private_definitions(sources):
    """(module, line, name) of each private function or class that no
    source refers to outside the definition itself."""
    return _unreferenced(sources, _private_definitions)


def _public_definitions(source):
    """(line, name) of each module-level public function or class."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_the_check_sees_an_unused_private_definition():
    sources = {"a.py": ("def _used():\n    return 1\n\n\n"
                        "def _recursive(n):\n    return _recursive(n - 1)\n"
                        "\n\nclass _Unused:\n    pass\n\n\n"
                        "def _imported():\n    pass\n"),
               "b.py": ("from .a import _imported\nimport a\n\n\n"
                        "def f():\n    return a._used(), _imported()\n")}
    assert _unused_private_definitions(sources) == [
        ("a.py", 5, "_recursive"), ("a.py", 9, "_Unused")]


def test_every_private_definition_is_used():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert _unused_private_definitions(sources) == []


def test_the_check_sees_an_unused_public_definition():
    sources = {"a.py": ("def documented():\n    return 1\n\n\n"
                        "def recursive(n):\n    return recursive(n - 1)\n\n\n"
                        "class _Private:\n    pass\n\n\n"
                        "def tested():\n    pass\n\n\n"
                        "class Used:\n    pass\n"),
               "b.py": "from .a import Used\n"}
    others = {"test_a.py": "import a\n\n\ndef test():\n    a.tested()\n"}
    texts = ["`documented()` returns 1"]
    assert _unreferenced(sources, _public_definitions, others, texts) == [
        ("a.py", 5, "recursive")]


def test_every_public_definition_is_used():
    # a use in another module of the package, in a test, in the benchmark
    # or in the README; the package's re-exports do not count
    sources = {str(p.relative_to(ROOT)): p.read_text()
               for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    others = {str(p.relative_to(ROOT)): p.read_text()
              for folder in ("tests", "perfbench") for p in (ROOT / folder).glob("*.py")}
    texts = [(ROOT / "README.md").read_text()]
    assert _unreferenced(sources, _public_definitions, others, texts) == []


# (importing module, name) of each private name that one module of the
# package imports from another
PRIVATE_IMPORTS = [
    ("jsonio.py", "_integral"),
    ("toric.py", "_support_mask"),
]


def _private_imports(sources):
    """(module, name) of each private name that a source imports from
    another module of its package (a relative import)."""
    return sorted((module, alias.name) for module, source in sources.items()
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level
                  for alias in node.names
                  if alias.name.startswith("_")
                  and not alias.name.endswith("__"))


def test_the_check_sees_a_private_import():
    sources = {"a.py": ("from .b import _shared, public\n"
                        "from os import _exit\nfrom . import __version__\n"),
               "b.py": "from .c.d import _deep as deep\nimport _thread\n"}
    assert _private_imports(sources) == [("a.py", "_shared"),
                                         ("b.py", "_deep")]


def test_no_new_private_name_crosses_a_module_boundary():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert _private_imports(sources) == PRIVATE_IMPORTS


def _assert_statements(source):
    """Line of each `assert` statement in the source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_the_check_sees_an_assert_statement():
    source = ("def f(x):\n    assert x, 'x'\n    if not x:\n"
              "        raise AssertionError('x')\n\n\n"
              "class C:\n    def g(self):\n        assert self\n")
    assert _assert_statements(source) == [2, 9]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_module_holds_no_assert_statement(module):
    assert _assert_statements((PACKAGE / module).read_text()) == []
