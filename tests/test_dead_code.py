"""Every top-level function and class in the package has a caller or a test."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gaussbound"


def test_every_top_level_name_is_used():
    # __init__.py only re-exports, so a name listed there is not a use
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    texts = [p.read_text(encoding="utf-8") for p in sources]
    texts += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "tests").glob("*.py"))]
    unused = []
    for path in sources:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                word = re.compile(rf"\b{re.escape(node.name)}\b")
                # one match is the definition itself
                if sum(len(word.findall(t)) for t in texts) <= 1:
                    unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, f"defined but never named elsewhere: {unused}"
