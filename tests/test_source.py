"""Properties of the library source itself."""

import ast
from pathlib import Path
from types import ModuleType

import legcurve

SOURCE = Path(legcurve.__file__).parent


def test_no_assert_statements():
    # python -O strips asserts, so every invariant must be an explicit raise
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_builtin_arithmetic_or_value_errors_raised():
    # every failure is a LegcurveError subclass, which the CLI maps to an exit code
    banned = {"ValueError", "ZeroDivisionError", "ArithmeticError"}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(target, ast.Name) and target.id in banned:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_every_exported_name_resolves_once():
    names = legcurve.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(legcurve, n)] == []
    assert [n for n in names if isinstance(getattr(legcurve, n), ModuleType)] == []
    assert names == sorted(names) and "conormal_semigroup" in names and len(names) == 66


def test_the_argument_checks_live_in_errors_alone():
    # one definition of each rule; the symbolic layer reaches the type check without the numeric one
    checks = {"_check_int", "_check_rational", "_check_accuracy", "_check_type"}
    defined, curves_imports = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in checks:
                defined.append((node.name, path.name))
            if path.name in {"germs.py", "semigroups.py", "expansion.py"} and isinstance(node, ast.ImportFrom):
                if node.module == "curves":
                    curves_imports.append(f"{path.name}:{node.lineno}")
    assert sorted(defined) == sorted((name, "errors.py") for name in checks)
    assert curves_imports == []


def _products_outside_call_arguments(node):
    """The products in an expression, not counting those inside the
    arguments of a call, which are not what the call returns."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        yield node
    for child in [node.func] if isinstance(node, ast.Call) else ast.iter_child_nodes(node):
        yield from _products_outside_call_arguments(child)


def test_no_product_is_truncated_after_it_is_formed():
    # (f * g).truncate(bound), or (h - f * g).truncate(bound), convolves every
    # term up to the product's own accuracy and then drops those at or above
    # bound; accumulating onto the zero of accuracy bound, or onto h truncated
    # there (_Truncated._accumulate), stops at the bound
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "truncate":
                if any(_products_outside_call_arguments(node.func.value)):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_the_numeric_core_never_reads_coeffs():
    # coeffs builds a Fraction per value for readers outside; these modules
    # form their values from the stored numerators (_unchecked, _reduced)
    found = []
    for name in ("series.py", "germs.py", "contact.py", "oracle.py"):
        tree = ast.parse((SOURCE / name).read_text(), filename=name)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "coeffs"]
    assert not found, found
