"""Curve files: a small JSON format for Puiseux-parametrized curve germs.

A document is an object {"n": int, "terms": [{"e": int, "c": rational
string}, ...], "precision": int} describing x = t^n, y = sum c * t^e,
known below t^precision.  Coefficients are strings so that exact
rationals survive serialization; terms are sorted strictly by exponent
and the smallest exponent is coprime to n.  Validation failures name the
offending path inside the document.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .curves import PlaneCurveGerm
from .errors import ValidationError
from .expressions import format_scalar, parse_scalar


def curve_to_document(curve: PlaneCurveGerm) -> dict:
    if curve.accuracy == math.inf:
        raise ValidationError("documents need a finite precision; truncate the curve first")
    return {
        "n": curve.n,
        "terms": [{"e": e, "c": format_scalar(c)} for e, c in curve.items()],
        "precision": int(curve.accuracy),
    }


def _require_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    return value


def curve_from_document(data) -> PlaneCurveGerm:
    if not isinstance(data, dict):
        raise ValidationError("document: expected a JSON object")
    extra = set(data) - {"n", "terms", "precision"}
    if extra:
        raise ValidationError(f"document: unknown keys {sorted(extra)}")
    for key in ("n", "terms", "precision"):
        if key not in data:
            raise ValidationError(f"document: missing key {key!r}")
    n = _require_int(data["n"], "n")
    precision = _require_int(data["precision"], "precision")
    terms = data["terms"]
    if not isinstance(terms, list) or not terms:
        raise ValidationError("terms: expected a non-empty list")
    coefficients: dict[int, Fraction] = {}
    previous = None
    for pos, entry in enumerate(terms):
        path = f"terms[{pos}]"
        if not isinstance(entry, dict) or set(entry) != {"e", "c"}:
            raise ValidationError(f"{path}: expected an object with keys 'e' and 'c'")
        e = _require_int(entry["e"], f"{path}.e")
        try:
            c = parse_scalar(entry["c"])
        except ValidationError as err:
            raise ValidationError(f"{path}.c: {err}") from None
        if c == 0:
            raise ValidationError(f"{path}.c: zero coefficients are not stored")
        if previous is not None and e <= previous:
            raise ValidationError(f"{path}.e: exponents must strictly increase")
        previous = e
        coefficients[e] = c
    try:
        return PlaneCurveGerm(n, coefficients, precision)
    except ValidationError as err:
        raise ValidationError(f"document: {err}") from None


def dump_curve(curve: PlaneCurveGerm) -> str:
    return json.dumps(curve_to_document(curve), indent=2) + "\n"


def load_curve(text: str) -> PlaneCurveGerm:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise ValidationError(f"document is not valid JSON: {err}") from None
    return curve_from_document(data)
