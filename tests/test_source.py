"""Properties of the library source itself."""

import ast
from pathlib import Path

import legcurve

SOURCE = Path(legcurve.__file__).parent


def test_no_assert_statements():
    # python -O strips asserts, so every invariant must be an explicit raise
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
