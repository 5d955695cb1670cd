"""Structural rules of the package.

Reference code lives in oracle.py: production modules do not import it.
The package namespace re-exports the oracle's solvers and the CLI offers
them as commands, so __init__.py and cli.py are the two exceptions.
"""
import ast
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
