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
