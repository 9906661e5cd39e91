"""Static checks over the library's source: the run time needs only the
standard library, no module imports a name it never reads, and every
cache kept on a category is declared where the category is built."""

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
}


# The library builds, returns and multiplies SparseMats only; a Mat is
# the record that files and dense reads exchange.  Each function allowed
# to build one (``Mat(...)``, ``Mat.zeros``, ``Mat.identity``,
# ``Mat.from_cols``), with its reason:
MAT_BUILD_ALLOWED = {
    **{("exactalg.py", "Mat." + name): "Mat's own constructors and "
       "arithmetic, the tests' dense reference"
       for name in ("zeros", "identity", "from_cols", "__add__", "__sub__",
                    "__neg__", "smul", "__matmul__", "transpose")},
    ("exactalg.py", "SparseMat.to_mat"): "dense read",
    ("serialize.py", "mat_from_json"): "a matrix read from a file",
}


def _calls(tree, match):
    """(line, enclosing function as Class.name or name) per call whose
    callee ``match`` accepts; calls outside any function have None."""
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
        if isinstance(node, ast.Call) and match(node.func):
            yield node.lineno, owner.get(id(node))


def _is_to_mat(func):
    return isinstance(func, ast.Attribute) and func.attr == "to_mat"


def _builds_mat(func):
    if isinstance(func, ast.Attribute):
        return (func.attr in ("zeros", "identity", "from_cols")
                and isinstance(func.value, ast.Name) and func.value.id == "Mat")
    return isinstance(func, ast.Name) and func.id == "Mat"


def _check_allowed(allowed, match, paths):
    bad, used = [], set()
    for path in paths:
        for line, name in _calls(ast.parse(path.read_text()), match):
            if (path.name, name) in allowed:
                used.add((path.name, name))
            else:
                bad.append("%s line %d: %s" % (path.name, line, name))
    assert not bad, bad
    # an entry whose function no longer makes the call is stale
    assert used == set(allowed), set(allowed) - used


def test_to_mat_is_called_only_at_the_api_edges():
    _check_allowed(TO_MAT_ALLOWED, _is_to_mat, SRC)


def test_mats_are_built_only_at_the_api_edges():
    _check_allowed(MAT_BUILD_ALLOWED, _builds_mat, SRC)


def test_mat_builds_are_found():
    src = ("def f():\n    return Mat([[1]])\n"
           "class C:\n    def g(self):\n        return Mat.zeros(1, 1)\n"
           "def h():\n    return SparseMat.identity(1), m.identity(2)\n"
           "x = Mat.from_cols([], 0)\n")
    assert sorted(_calls(ast.parse(src), _builds_mat),
                  key=lambda c: c[0]) == [(2, "f"), (5, "C.g"), (8, None)]


# A per-category cache is a private attribute of FinCat that another
# module fills in; each is declared in FinCat.__init__, so that it lives
# exactly as long as its category and no cache is attached lazily.
MUTATORS = {"setdefault", "update", "append", "extend", "pop", "clear",
            "__setitem__"}


def _store_roots(target):
    """The objects an assignment target stores into: each element of a
    tuple target, and the container of a subscript target."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _store_roots(elt)
    elif isinstance(target, ast.Starred):
        yield from _store_roots(target.value)
    else:
        while isinstance(target, ast.Subscript):
            target = target.value
        yield target


def _stored_private_attributes(tree):
    """(line, attribute) per private attribute stored on an object other
    than ``self``: assigned, deleted, assigned into by subscript, or
    changed by a mutating method."""
    def owned(node):
        return (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not (isinstance(node.value, ast.Name)
                         and node.value.id == "self"))

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS):
            targets = [node.func.value]
        else:
            continue
        for t in targets:
            for root in _store_roots(t):
                if owned(root):
                    yield node.lineno, root.attr


def _fincat_init_attributes():
    tree = ast.parse((SRC[0].parent / "fincat.py").read_text())
    cls = next(n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == "FinCat")
    init = next(n for n in cls.body
                if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    return {t.attr for n in ast.walk(init) if isinstance(n, ast.Assign)
            for t in n.targets if isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name) and t.value.id == "self"}


def test_private_attributes_stored_from_outside_are_declared_by_fincat():
    declared = _fincat_init_attributes()
    seen, bad = set(), []
    for path in SRC:
        tree = ast.parse(path.read_text())
        for line, attr in _stored_private_attributes(tree):
            seen.add(attr)
            if attr not in declared:
                bad.append("%s line %d: %s" % (path.name, line, attr))
        # __dict__, setattr and vars would attach attributes unseen
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "__dict__"
                    or isinstance(node, ast.Name)
                    and node.id in ("setattr", "vars")):
                bad.append("%s line %d: %s" % (
                    path.name, node.lineno,
                    getattr(node, "attr", None) or node.id))
    assert not bad, bad
    assert seen >= {"_classes", "_unit_shadow", "_paired_coends"}, seen


def test_stored_private_attributes_are_found():
    src = ("cat._memo = {}\ncat._memo[k][j] = v\ncat._memo.setdefault(k, v)\n"
           "a, cat._pair = 1, 2\ndel cat._gone\n"
           "self._own = 1\nx = cat._read\ncat.public = 2\nd[cat._key] = 3\n")
    assert sorted(_stored_private_attributes(ast.parse(src))) == [
        (1, "_memo"), (2, "_memo"), (3, "_memo"), (4, "_pair"), (5, "_gone")]


def _builds_fincat(func):
    return (isinstance(func, ast.Attribute) and func.attr == "FinCat"
            or isinstance(func, ast.Name) and func.id == "FinCat")


def test_diagrams_builds_no_category():
    # the pipelines realize over the base's own strings and chains; a
    # subdivided category built on the way would be a second level
    # construction
    path = SRC[0].parent / "diagrams.py"
    assert list(_calls(ast.parse(path.read_text()), _builds_fincat)) == []


def test_fincat_builds_are_found():
    src = ("def f():\n    return fincat.FinCat([], [], {}, {})\n"
           "g = FinCat\nx = FinCat([], [], {}, {})\n")
    assert sorted(_calls(ast.parse(src), _builds_fincat),
                  key=lambda c: c[0]) == [(2, "f"), (4, None)]


def _calls_corpus(func):
    return isinstance(func, ast.Name) and func.id == "corpus"


def test_only_suites_build_the_corpus():
    # a suite builds the corpus once per run and hands its categories to
    # the cases; a case that calls corpus() rebuilds every shape and loses
    # the caches kept on them
    path = SRC[0].parent / "harness.py"
    calls = list(_calls(ast.parse(path.read_text()), _calls_corpus))
    assert calls
    assert [(line, name) for line, name in calls
            if not (name or "").startswith("suite_")] == []
