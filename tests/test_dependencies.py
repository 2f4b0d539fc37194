"""The library imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

import relalg


def test_library_imports_only_the_standard_library():
    # test-only tools such as hypothesis or pytest-benchmark may be
    # installed, but the library must not come to depend on them
    files = sorted(Path(relalg.__file__).parent.glob("*.py"))
    assert len(files) > 5
    outside = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [f"{path.name}: {m}" for m in modules
                        if m.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_library_parses_as_python_3_10():
    # pyproject.toml declares requires-python >=3.10
    files = sorted(Path(relalg.__file__).parent.glob("*.py"))
    assert len(files) > 5
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))
