"""The library imports nothing outside the Python standard library, parses
as Python 3.10, and keeps no private helper that nothing names."""

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


def test_every_private_helper_is_named_outside_its_definition():
    # a module-level function or class whose name starts with a single
    # underscore serves the library only: when no other statement of the
    # package names it in code, it is dead
    files = sorted(Path(relalg.__file__).parent.glob("*.py"))
    statements = [(path.name, node) for path in files for node in ast.parse(
        path.read_text(encoding="utf-8"), filename=str(path)).body]
    named = [{n.id if isinstance(n, ast.Name) else n.attr
              for n in ast.walk(node)
              if isinstance(n, (ast.Name, ast.Attribute))}
             for _, node in statements]
    helpers = [(i, file, node.name)
               for i, (file, node) in enumerate(statements)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and node.name[1:2] != "_"]
    assert len(helpers) > 5
    dead = [f"{file}: {name}" for i, file, name in helpers
            if not any(name in names for j, names in enumerate(named) if j != i)]
    assert dead == []
