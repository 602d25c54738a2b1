"""Source-level rules for the library package."""

import ast
from pathlib import Path

import cluster_twist

SOURCES = sorted(Path(cluster_twist.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_library():
    # ``python -O`` strips assert statements, so a guard written as one
    # vanishes; library checks raise an exception instead
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert SOURCES
    assert not found, f"assert statements in the library: {found}"
