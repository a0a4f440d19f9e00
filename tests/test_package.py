"""The package's public surface and the hygiene of its modules."""

import ast
from pathlib import Path

import circlebops


def test_every_export_imports():
    namespace = {}
    exec("from circlebops import *", namespace)
    missing = [name for name in circlebops.__all__ if name not in namespace]
    assert not missing
    assert len(set(circlebops.__all__)) == len(circlebops.__all__)


def test_no_src_module_imports_a_name_it_never_uses():
    """Every name an import binds in a module is read somewhere in it.

    Moving code between modules tends to leave such imports behind, and
    the project runs no linter.  ``__init__`` imports to re-export and is
    exempt.
    """
    unused = []
    for path in sorted(Path(circlebops.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in bound.items() if name not in read]
    assert not unused, unused


def test_no_src_function_stores_a_local_it_never_reads():
    """Every plain name a function assigns is read somewhere in it.

    A local that is stored and never loaded is dead code, and usually the
    remains of an edit.  Names declared ``global`` or ``nonlocal`` are
    exempt, and so are names that begin with an underscore, the marker of
    a value discarded on purpose.  A read in a nested function counts.
    """
    unread = []
    for path in sorted(Path(circlebops.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stored, read, outer = {}, set(), set()
            for node in ast.walk(fn):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    outer.update(node.names)
                elif isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Store):
                        stored.setdefault(node.id, node.lineno)
                    else:
                        read.add(node.id)
            unread += [f"{path.name}:{line} {name} in {fn.name}"
                       for name, line in stored.items()
                       if name not in read | outer
                       and not name.startswith("_")]
    assert not unread, unread
