"""Structural rules of the package.

Reference code lives in oracle.py: production modules do not import it.
The package namespace re-exports the oracle's solvers and the CLI offers
them as commands, so __init__.py and cli.py are the two exceptions.

Production modules import only the standard library, numpy and the
package itself: every `pgt` command pays for its imports before it reads
its input, and a heavy import (scipy.sparse.csgraph adds about 33 MB and
0.6 s) would show in the benchmark's setup time and peak memory.

Production modules hold no assert statement: a check that carries
meaning raises a real exception, and `python -O` strips asserts.

The solver and composition modules keep no module-level cache: the
parity solver's memo lives for one call or one composition fold, since
library users and the benchmark's worker are long-lived processes.
"""
import ast
import sys
from pathlib import Path

import pgtemplates

PACKAGE = Path(pgtemplates.__file__).resolve().parent
MAY_IMPORT_ORACLE = {"__init__.py", "cli.py", "oracle.py"}


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            for alias in node.names:
                yield "%s.%s" % (base, alias.name) if base else alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name


def _top_level_imports(path):
    """First components of the absolute imports of a module, wherever
    they occur in it (relative imports are the package's own)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]


def _names_oracle(module):
    return "oracle" in module.split(".")


def test_production_modules_do_not_import_the_oracle():
    offenders = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if path.name not in MAY_IMPORT_ORACLE
        and any(_names_oracle(m) for m in _imported_modules(path)))
    assert offenders == []


def test_import_reader_sees_oracle_imports():
    assert any(_names_oracle(m) for m in _imported_modules(PACKAGE / "cli.py"))


def test_every_exported_name_resolves():
    missing = [name for name in pgtemplates.__all__
               if not hasattr(pgtemplates, name)]
    assert missing == []
    assert len(set(pgtemplates.__all__)) == len(pgtemplates.__all__)


def test_production_modules_import_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "pgtemplates"}
    found = {path.name: set(_top_level_imports(path))
             for path in PACKAGE.glob("*.py")}
    offenders = sorted((name, module) for name, modules in found.items()
                       for module in modules - allowed)
    assert offenders == []
    assert "numpy" in found["graph.py"]


def test_production_modules_hold_no_assert():
    found = sorted((path.name, node.lineno) for path in PACKAGE.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Assert))
    assert found == []


CALL_SCOPED = ("solvers.py", "compose.py")
MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                    ast.SetComp)
MUTABLE_FACTORIES = {"dict", "list", "set", "defaultdict", "OrderedDict",
                     "Counter"}


def _called_name(node):
    func = node.func if isinstance(node, ast.Call) else node
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _module_caches(source):
    """Module-level assignments of a mutable container, and any use of
    functools' caching decorators, with their line numbers."""
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = node.value
            if isinstance(value, MUTABLE_LITERALS) or (
                    isinstance(value, ast.Call)
                    and _called_name(value) in MUTABLE_FACTORIES):
                yield node.lineno
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Name)) and \
                _called_name(node) in ("lru_cache", "cache"):
            yield node.lineno


def test_solver_memo_is_call_scoped():
    found = sorted((name, line) for name in CALL_SCOPED
                   for line in _module_caches((PACKAGE / name).read_text(encoding="utf-8")))
    assert found == []


def test_cache_reader_sees_module_level_caches():
    source = ("import functools\n_memo = {}\n_seen: list = []\n"
              "_sub = dict()\n@functools.lru_cache(maxsize=None)\n"
              "def f(x):\n    return x\n@cache\ndef g(x):\n    local = {}\n")
    assert sorted(_module_caches(source)) == [2, 3, 4, 5, 8]
    assert list(_module_caches((PACKAGE / "cli.py").read_text(encoding="utf-8")))
