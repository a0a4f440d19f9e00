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
