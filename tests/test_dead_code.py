"""Every top-level function and class in the package, and every name the
package re-exports, has a caller in the package itself: a name that only
tests reach is dead code."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gaussbound"
# __init__.py only re-exports, so a name listed there is not a use
SOURCES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def _count(name: str, texts: list[str]) -> int:
    word = re.compile(rf"\b{re.escape(name)}\b")
    return sum(len(word.findall(t)) for t in texts)


def test_every_top_level_name_is_used():
    texts = [p.read_text(encoding="utf-8") for p in SOURCES]
    unused = []
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # one match is the definition itself
                if _count(node.name, texts) <= 1:
                    unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, f"defined but never named elsewhere: {unused}"


def test_every_export_has_a_program_caller():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exports = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert exports
    texts = [p.read_text(encoding="utf-8") for p in SOURCES]
    # one match is the definition itself; a name only tests reach is not exported
    uncalled = [name for name in exports if _count(name, texts) <= 1]
    assert not uncalled, f"exported but named by no program module: {uncalled}"
