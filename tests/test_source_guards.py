"""Source guards over the package's modules, read as syntax trees."""

import ast
from pathlib import Path

import pytest

import qdq
import qdq.linalg

MODULES = sorted(Path(qdq.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert, so a runtime check must raise instead
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def _writes_entries(target):
    """True when an assignment target is a subscript of some x.entries."""
    if not isinstance(target, ast.Subscript):
        return False
    while isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, ast.Attribute) and target.attr == "entries"


def _grid_writes(tree):
    """Line numbers of the assignments into a subscript of some x.entries."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(_writes_entries(t) for target in targets for t in ast.walk(target)):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "linalg.py"], ids=lambda p: p.name
)
def test_only_linalg_writes_into_matrix_grids(path):
    lines = _grid_writes(_tree(path))
    assert lines == [], f"{path.name}: writes into .entries at lines {lines}"


def test_the_grid_guard_sees_every_form_of_write():
    writes = ["m.entries[i][j] = x", "m.entries[i] = row", "a.b.entries[0][0] += 1",
              "x, m.entries[0][0] = 1, 2", "m.entries[0][0]: int = 1"]
    reads = ["x = m.entries[i][j]", "m.entries = grid", "rows[i][j] = m.entries[0][0]"]
    for src in writes:
        assert _grid_writes(ast.parse(src)) == [1], src
    for src in reads:
        assert _grid_writes(ast.parse(src)) == [], src


def _function(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


@pytest.mark.parametrize(
    "name", ["rref_rows", "invert_grid", "solve_particular", "sparse_kernel", "_dict_rows"]
)
def test_generic_elimination_reads_no_numerator(name):
    # these serve Fraction entries too, so they test zero by truthiness;
    # only the RatFunc-only dense loops of linalg may read x.num
    fn = _function(_tree(Path(qdq.linalg.__file__)), name)
    lines = [node.lineno for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and node.attr == "num"]
    assert lines == [], f"{name} reads .num at lines {lines}"
