"""Dependency hygiene: ``src/repro`` imports stdlib, numpy and itself.

``setup.py`` promises a numpy-only install; an import of anything else
(a stray ``networkx`` or ``scipy``) must fail here, not on a user's
machine.
"""

import ast
import sys
from pathlib import Path

PACKAGE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


def _top_level_imports(path: Path) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_source_imports_only_stdlib_numpy_and_repro():
    sources = sorted(PACKAGE_ROOT.rglob("*.py"))
    assert sources, f"no sources under {PACKAGE_ROOT}"
    offenders = {
        str(path.relative_to(PACKAGE_ROOT)): sorted(foreign)
        for path in sources
        if (foreign := _top_level_imports(path) - ALLOWED)
    }
    assert not offenders, f"third-party imports in src/repro: {offenders}"
