"""The analysis layer and the attack families name no vendor.

What a vendor does — its decision table, its fetch flow, what the
attacks send it (Tables IV and V) — is declared by its profile under
``repro/cdn/vendors/``.  Code in ``repro/analysis/`` and
``repro/families/`` reads those declarations off the profile it is
handed, so no registry name appears there as a string constant.
Docstrings may still cite vendors as examples.
"""

import ast
from pathlib import Path

import pytest

from repro.cdn.vendors import all_vendor_names

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
CHECKED = sorted([*SRC.glob("analysis/*.py"), *SRC.glob("families/*.py")])


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def vendor_literals(path):
    """``(line, value)`` of every non-docstring string constant in
    ``path`` that is a registry vendor name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node) for node in _docstrings(tree)}
    names = set(all_vendor_names())
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and id(node) not in docstrings
        and node.value in names
    ]


def test_the_checked_directories_are_found():
    assert {path.parent.name for path in CHECKED} == {"analysis", "families"}


@pytest.mark.parametrize("path", CHECKED, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_vendor_name_literal(path):
    assert vendor_literals(path) == []
