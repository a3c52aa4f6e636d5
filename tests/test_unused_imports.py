"""Every name a module of the package imports is used in that module, so
a change that deletes the last use of an import deletes the import too."""

import ast
from pathlib import Path

import pytest

import seifert_orbifolds

PACKAGE = Path(seifert_orbifolds.__file__).resolve().parent


def imported_names(tree):
    """(name, line) for each name an import binds, anywhere in the module;
    `from __future__` imports bind none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """The names the module reads, those inside string annotations
    included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= used_names(ast.parse(annotation.value, mode="eval"))
    return used


def test_the_check_sees_a_string_annotation_and_an_unused_import():
    tree = ast.parse("import os, re as regex\nfrom x import (a, b)\n"
                     "def f(n: 'a') -> 'os.PathLike': return regex\n")
    unused = dict(imported_names(tree)).keys() - used_names(tree)
    assert unused == {"b"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    if path.name == "__init__.py":
        used |= set(seifert_orbifolds.__all__)  # re-exported names are its lazy exports
    assert [(name, line) for name, line in imported_names(tree) if name not in used] == []
