"""Checks on the library's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "graev"


def _found(matches, skip: tuple[str, ...] = ()) -> list[str]:
    """Where in the library's sources, outside the files named in ``skip``,
    a node satisfies ``matches``, as file:line."""
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in skip
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if matches(node)
    ]


def test_library_has_no_assert_statements():
    # python -O strips asserts, so invariants must raise real errors
    assert _found(lambda node: isinstance(node, ast.Assert)) == []


def _imports_dataclasses(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] == "dataclasses" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "dataclasses"


def test_library_does_not_import_dataclasses():
    # dataclasses loads inspect, ast and dis, about a tenth of a CLI process's
    # start-up; the value classes derive from graev.values.Value instead
    assert _found(_imports_dataclasses) == []


def _is_float(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    return isinstance(node, ast.Name) and node.id == "float"


def test_library_has_no_floats():
    # every number is an exact Fraction or int, so equality and strict
    # comparisons are decidable; the suite's sampling probabilities are the
    # one exception, and they never reach a norm
    assert _found(_is_float, skip=("suite.py",)) == []


def _decodes_json(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "json" and any(alias.name in ("load", "loads") for alias in node.names)
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("load", "loads")
        and isinstance(node.value, ast.Name)
        and node.value.id == "json"
    )


def test_only_spaces_decodes_json():
    # spaces.read_json is the one file boundary: it checks the top level is
    # an object, and the field readers beside it give every file kind the
    # same messages, so no other module may decode JSON itself
    assert _found(_decodes_json, skip=("spaces.py",)) == []


def _names_a_space_class(node: ast.AST) -> bool:
    names = ("FiniteSpace", "IntervalSpace")
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Attribute):
        return node.attr in names
    return isinstance(node, ast.alias) and node.name in names


def test_norm_names_no_space_class():
    # each space computes its own costs (integer_costs), so the norm never
    # branches on which kind of space it has
    assert [where for where in _found(_names_a_space_class) if where.startswith("norm.py:")] == []


def test_spaces_compute_costs_only_in_integer_costs():
    # d~ has one kernel: each space's integer_costs, which every norm and
    # tilde_dist read, so no space class has another cost method
    tree = ast.parse((SRC / "spaces.py").read_text(encoding="utf-8"))
    methods = {
        node.name: sorted(item.name for item in node.body if isinstance(item, ast.FunctionDef))
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in ("IntervalSpace", "FiniteSpace")
    }
    assert methods == {
        "IntervalSpace": ["contains", "dist", "integer_costs"],
        "FiniteSpace": ["__init__", "contains", "dist", "from_table", "generators", "integer_costs"],
    }
