"""The library imports nothing outside the Python standard library, parses
as Python 3.10, defines no name that nothing names, and reads how a
structure holds its cycles in `atoms` alone."""

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


def defined(node) -> list[str]:
    """The names a statement defines: a def's or class's, or an
    assignment's plain targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


# names that no statement of the package reads, kept on purpose
KEPT_UNNAMED = {
    # the element API that the package docstring documents: composition
    # and converse of elements as bitmasks of atoms
    "compose_mask": "documented element API",
    "converse_mask": "documented element API",
}


def test_every_private_helper_is_named_outside_its_definition():
    # a module-level name, or a method of a module-level class, serves the
    # library only where another statement of the package names it in
    # code; unless it is public (relalg.__all__), a dunder or kept on
    # purpose (KEPT_UNNAMED), a name that nothing names is dead.  The
    # statements are the module-level ones, a class's members each apart
    files = sorted(Path(relalg.__file__).parent.glob("*.py"))
    units = []  # (file, defined names, the class's unit or None, nodes)
    for path in files:
        for node in ast.parse(path.read_text(encoding="utf-8"),
                              filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                header = len(units)
                units.append((path.name, [node.name], None,
                              [*node.bases, *node.decorator_list]))
                units += [(path.name, defined(member), header, [member])
                          for member in node.body]
            else:
                units.append((path.name, defined(node), None, [node]))
    named = [{n.id if isinstance(n, ast.Name) else n.attr
              for root in roots for n in ast.walk(root)
              if isinstance(n, (ast.Name, ast.Attribute))}
             for *_, roots in units]
    # a class is named outside its body, any other name outside itself
    own = [{i} for i in range(len(units))]
    for j, (_, _, cls, _) in enumerate(units):
        if cls is not None:
            own[cls].add(j)
    kept = {*relalg.__all__, *KEPT_UNNAMED}
    names = [(i, file, name) for i, (file, found, _, _) in enumerate(units)
             for name in found
             if name not in kept and not (name[:2] == name[-2:] == "__")]
    assert len(names) > 100
    dead = [f"{file}: {name}" for i, file, name in names
            if not any(name in n for j, n in enumerate(named)
                       if j not in own[i])]
    assert dead == []


# how a structure holds its cycles: the parser's lines, the extraction's
# stream, whether the table is held and no cycle set, and the set itself
STORAGE = {"_lines", "_triples", "_table_only", "cycles"}


def test_only_atoms_reads_how_a_structure_holds_its_cycles():
    # atoms chooses which store answers a reader (_cycle_stream, _places,
    # _has_cycles, _cycle_count, _line_columns), so every other module
    # states what must hold of the cycles, not how they are stored.  An
    # attribute read, or a name in a string as getattr or __dict__ would
    # take it, counts
    files = sorted(Path(relalg.__file__).parent.glob("*.py"))
    assert len(files) > 5
    readers = {path.name: {
        node.attr if isinstance(node, ast.Attribute) else node.value
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in STORAGE
        or isinstance(node, ast.Constant) and node.value in STORAGE}
        for path in files}
    assert readers.pop("atoms.py") == STORAGE
    assert {name: found for name, found in readers.items() if found} == {}
