"""Every name the ``papuf`` package exports has a caller outside the tests.

A name counts as called when the package code, ``__init__.py`` and the
test-only ``oracle.py`` left out, refers to it as a name, an attribute or
an import, or when a ``perfbench`` module does, where a string constant
counts too: ``perfbench/spans.py`` names the functions it wraps as strings.
"""

import ast
from pathlib import Path

import papuf

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "papuf"

# Exported without a caller, each with its reason.
UNCALLED = {
    # the closed-form P(bit = 1) of a tapless chain, under the name the
    # README gives it: one line over the function the reads themselves use,
    # not a second implementation
    "read_probabilities",
}


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _references(path: Path, strings: bool) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _called() -> set[str]:
    called = set()
    for path in PACKAGE.glob("*.py"):
        if path.name not in ("__init__.py", "oracle.py"):
            called |= _references(path, strings=False)
    for path in (ROOT / "perfbench").glob("*.py"):
        if not path.name.startswith("test_"):
            called |= _references(path, strings=True)
    return called


def test_every_export_has_a_caller_outside_the_tests():
    exports, called = _exports(), _called()
    assert "__version__" not in exports and len(exports) > 40
    assert all(hasattr(papuf, name) for name in exports)
    assert sorted(exports - called - UNCALLED) == []
    # the allowlist cannot go stale: each name on it is exported and still uncalled
    assert UNCALLED <= exports and not UNCALLED & called
