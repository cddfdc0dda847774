"""`src/vifuse` imports nothing but numpy, the standard library and itself.

pyproject.toml declares numpy as the only run-time dependency; an import of
anything else (scipy is often installed beside numpy) would break a clean install.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vifuse"
ALLOWED = {"numpy", "vifuse"} | set(sys.stdlib_module_names)


def test_package_imports_only_numpy_and_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{source.name}: {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert outside == []
