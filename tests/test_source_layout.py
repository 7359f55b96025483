"""Where facts live in the package source, read off its syntax trees."""

import ast
from pathlib import Path

import pytest

import cubicmoduli

PACKAGE = Path(cubicmoduli.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def _names(tree) -> set:
    """Every identifier the module uses, binds, imports or defines."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
            out.add(node.asname)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_only_cyclo_and_linalg_read_the_power_table(path):
    # every other module gets roots of unity as rows from linalg
    names = _names(ast.parse(path.read_text()))
    assert ("_power_table" in names) == (path.stem in ("cyclo", "linalg"))


def test_chars_has_no_exact_character_algebra():
    # the exact formulas are the tests' oracle (helpers_math); the
    # package reads every multiplicity mod a split prime
    tree = ast.parse((PACKAGE / "chars.py").read_text())
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"tensor", "sym_square", "sym_cube",
                          "inner_product", "multiplicity"}
