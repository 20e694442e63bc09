"""The package's import graph, read from the source with ast.

core is the leaf data model: the modules that own a behaviour install it
on core's classes, so no module imports another inside a function and the
top-level imports form no cycle.
"""

import ast
import os
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

import errprop

PACKAGE = Path(errprop.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _package_modules(node) -> set[str]:
    """The errprop modules an import statement imports ("__init__" for the
    package itself); the empty set for any other statement."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names if a.name.split(".")[0] == "errprop"]
        return {(n.split(".") + ["__init__"])[1] for n in names}
    if not isinstance(node, ast.ImportFrom):
        return set()
    if node.level:
        module = node.module
    elif node.module and node.module.split(".")[0] == "errprop":
        module = node.module.partition(".")[2]
    else:
        return set()
    if module:
        return {module.split(".")[0]}
    # "from . import table": each name is a module of the package
    return {a.name for a in node.names}


def _imports(tree, *, in_functions: bool) -> set[str]:
    """The errprop modules a module imports at its top level, or inside
    its functions."""
    found = set()

    def visit(node, in_function):
        if in_function == in_functions:
            found.update(_package_modules(node))
        inside = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


def test_core_imports_only_exceptions():
    imported = (_imports(MODULES["core"], in_functions=False)
                | _imports(MODULES["core"], in_functions=True))
    assert imported == {"exceptions"}


def test_no_function_imports_a_package_module():
    assert {name: _imports(tree, in_functions=True) for name, tree in MODULES.items()
            if _imports(tree, in_functions=True)} == {}


def test_top_level_imports_have_no_cycle():
    graph = {name: _imports(tree, in_functions=False) for name, tree in MODULES.items()}
    assert set().union(*graph.values()) <= set(graph)
    # raises graphlib.CycleError, naming the cycle, if there is one
    list(TopologicalSorter(graph).static_order())


def test_cli_import_loads_no_concurrent_futures():
    # it imports logging, which costs every CLI start about 12 ms
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = "import sys, errprop.cli; print(sorted(m for m in sys.modules if 'concurrent' in m))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"


def _references(tree) -> list[tuple[str, set[int]]]:
    """Each name a module refers to, by a name it does not assign, an
    attribute or an entry of its __all__, with the ids of the function and
    class definitions it lies inside.  Any other string, such as a JSON
    key, refers to nothing."""
    found = []

    def visit(node, inside, in_all):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.append((node.id, inside))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, inside))
        elif in_all and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append((node.value, inside))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {id(node)}
        in_all = in_all or (isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))
        for child in ast.iter_child_nodes(node):
            visit(child, inside, in_all)

    visit(tree, frozenset(), False)
    return found


def test_every_function_and_class_has_a_caller_in_the_package():
    # code that only tests call belongs in the tests
    references = [ref for tree in MODULES.values() for ref in _references(tree)]
    unused = [f"{module}.{node.name}" for module, tree in MODULES.items()
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and not any(name == node.name and id(node) not in inside
                          for name, inside in references)]
    assert unused == []


def _module_level_names(tree) -> tuple[list[str], list[str]]:
    """The names a module binds by top-level imports, other than `from
    __future__`, and by top-level assignments, other than dunders."""
    imported, assigned = [], []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            assigned += [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                         and not n.id.startswith("__")]
    return imported, assigned


def test_every_module_level_import_and_assignment_has_a_reader():
    # an import is read by its own module, or named in its __all__; an
    # assignment by any module of the package
    package = {name for tree in MODULES.values() for name, _ in _references(tree)}
    unused = []
    for module, tree in MODULES.items():
        own = {name for name, _ in _references(tree)}
        imported, assigned = _module_level_names(tree)
        unused += [f"{module}.{name}" for name in imported if name not in own]
        unused += [f"{module}.{name}" for name in assigned if name not in package]
    assert unused == []
