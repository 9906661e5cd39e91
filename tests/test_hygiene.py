"""Static checks over the library's source: the run time needs only the
standard library, and no module imports a name it never reads."""

import ast
import sys
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "tracelin")
             .glob("*.py"))


def _imports(tree):
    """(line, module or None for a relative import, bound name) per name
    an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (node.lineno, alias.name,
                       alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            module = None if node.level else node.module
            for alias in node.names:
                yield node.lineno, module, alias.asname or alias.name


def test_sources_found():
    assert {p.name for p in SRC} >= {"exactalg.py", "profcalc.py", "cli.py"}


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_imports_are_standard_library_or_relative(path):
    tree = ast.parse(path.read_text())
    bad = ["line %d: %s" % (line, module) for line, module, _ in _imports(tree)
           if module is not None
           and module.split(".")[0] not in sys.stdlib_module_names]
    assert not bad, bad


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = ["line %d: %s" % (line, name) for line, _, name in _imports(tree)
              if name not in read]
    assert not unread, unread


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_every_private_module_function_and_class_is_read(path):
    # a helper that deletions left without callers is dead code
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = ["line %d: %s" % (node.lineno, node.name) for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and node.name not in read]
    assert not unread, unread


# Inside the library every matrix is a SparseMat; a dense Mat is built
# only where the API hands one out.  Each function allowed to call
# ``.to_mat()``, with its reason:
TO_MAT_ALLOWED = {
    ("exactalg.py", "ChainComplex.diff"): "dense API read",
    ("exactalg.py", "ChainComplex.d"): "dense API read",
    ("exactalg.py", "ChainMap.mat"): "dense API read",
    ("exactalg.py", "ChainMap.mats"): "dense API read",
    ("exactalg.py", "idempotent_image"): "a Mat in gives Mats out",
    ("diagrams.py", "induced_endo_colim"): "API return",
    ("diagrams.py", "weighted_colim_endo"): "API return",
}


def _to_mat_calls(tree):
    """(line, enclosing function as Class.name or name) per call of a
    ``to_mat`` method; calls outside any function have None."""
    owner = {}
    for node in tree.body:
        defs = ([(node.name + "." + d.name, d) for d in node.body
                 if isinstance(d, ast.FunctionDef)]
                if isinstance(node, ast.ClassDef)
                else [(node.name, node)] if isinstance(node, ast.FunctionDef)
                else [])
        for name, d in defs:
            for sub in ast.walk(d):
                owner[id(sub)] = name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "to_mat"):
            yield node.lineno, owner.get(id(node))


def test_to_mat_is_called_only_at_the_api_edges():
    bad, used = [], set()
    for path in SRC:
        for line, name in _to_mat_calls(ast.parse(path.read_text())):
            if (path.name, name) in TO_MAT_ALLOWED:
                used.add((path.name, name))
            else:
                bad.append("%s line %d: %s" % (path.name, line, name))
    assert not bad, bad
    # an entry whose function no longer converts is stale
    assert used == set(TO_MAT_ALLOWED), set(TO_MAT_ALLOWED) - used
