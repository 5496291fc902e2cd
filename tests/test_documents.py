"""The JSON curve document format and its validation paths."""

import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legcurve.curves import PlaneCurveGerm
from legcurve.documents import curve_from_document, curve_to_document, dump_curve, load_curve
from legcurve.errors import ValidationError


def test_round_trip():
    curve = PlaneCurveGerm(3, {10: 1, 13: Fraction(-7, 2)}, 20)
    doc = curve_to_document(curve)
    assert doc == {
        "n": 3,
        "terms": [{"e": 10, "c": "1"}, {"e": 13, "c": "-7/2"}],
        "precision": 20,
    }
    assert curve_from_document(doc) == curve


def test_dump_and_load():
    curve = PlaneCurveGerm(2, {5: Fraction(1, 3)}, 9)
    text = dump_curve(curve)
    assert text.endswith("\n")
    assert json.loads(text)["terms"] == [{"e": 5, "c": "1/3"}]
    assert load_curve(text) == curve


def test_infinite_precision_is_not_serializable():
    curve = PlaneCurveGerm(3, {10: 1}, 20).as_polynomial(math.inf)
    with pytest.raises(ValidationError, match="finite precision"):
        curve_to_document(curve)


def base_doc():
    return {
        "n": 3,
        "terms": [{"e": 10, "c": "1"}, {"e": 11, "c": "2"}],
        "precision": 18,
    }


def test_document_validation_messages():
    cases = [
        ([], "expected a JSON object"),
        ({**base_doc(), "note": 1}, r"unknown keys \['note'\]"),
        ({"n": 3, "terms": base_doc()["terms"]}, "missing key 'precision'"),
        ({**base_doc(), "n": True}, "n: expected an integer"),
        ({**base_doc(), "precision": "18"}, "precision: expected an integer"),
        ({**base_doc(), "terms": []}, "terms: expected a non-empty list"),
        ({**base_doc(), "terms": [{"e": 10}]}, r"terms\[0\]: expected an object"),
        (
            {**base_doc(), "terms": [{"e": 10, "c": "1", "x": 2}]},
            r"terms\[0\]: expected an object",
        ),
        (
            {**base_doc(), "terms": [{"e": 10.0, "c": "1"}]},
            r"terms\[0\].e: expected an integer",
        ),
        (
            {**base_doc(), "terms": [{"e": 10, "c": "1.5"}]},
            r"terms\[0\].c: not an integer-over-integer",
        ),
        (
            {**base_doc(), "terms": [{"e": 10, "c": 1}]},
            r"terms\[0\].c: not an integer-over-integer",
        ),
        (
            {**base_doc(), "terms": [{"e": 10, "c": "0"}]},
            r"terms\[0\].c: zero coefficients",
        ),
        (
            {
                **base_doc(),
                "terms": [{"e": 11, "c": "1"}, {"e": 10, "c": "1"}],
            },
            r"terms\[1\].e: exponents must strictly increase",
        ),
        (
            {**base_doc(), "terms": [{"e": 9, "c": "1"}]},
            "document: ",
        ),
    ]
    for data, pattern in cases:
        with pytest.raises(ValidationError, match=pattern):
            curve_from_document(data)


def test_load_rejects_malformed_json():
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_curve("{")


def test_load_rejects_json_nested_beyond_the_recursion_limit():
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_curve("[" * 200_000 + "]" * 200_000)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int digit limit")
@pytest.mark.parametrize(
    "template, pattern",
    [
        ('{"n": %s, "terms": [{"e": 10, "c": "1"}], "precision": 20}', r"^document: Exceeds the limit"),
        ('{"n": 3, "terms": [{"e": 10, "c": "1"}], "precision": %s}', r"^document: Exceeds the limit"),
        ('{"n": 3, "terms": [{"e": %s, "c": "1"}], "precision": 20}', r"^document: Exceeds the limit"),
        ('{"n": 3, "terms": [{"e": 10, "c": "%s"}], "precision": 20}', r"^terms\[0\]\.c: Exceeds the limit"),
        ('{"n": 3, "terms": [{"e": 10, "c": "1/%s"}], "precision": 20}', r"^terms\[0\]\.c: Exceeds the limit"),
    ],
    ids=["n", "precision", "exponent", "coefficient", "denominator"],
)
def test_a_number_past_the_int_digit_limit_is_a_validation_error(template, pattern):
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ValidationError, match=pattern):
        load_curve(template % digits)


# -- round trip on random curves ------------------------------------------------------

NONZERO = st.one_of(
    st.integers(-(10**30), 10**30),
    st.builds(Fraction, st.integers(-999, 999), st.integers(1, 999)),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
).filter(bool)


@st.composite
def curves(draw):
    n = draw(st.integers(2, 7))
    m = draw(st.integers(n + 1, 40).filter(lambda m: math.gcd(n, m) == 1))
    rest = draw(st.dictionaries(st.integers(m + 1, m + 20), NONZERO, max_size=8))
    precision = draw(st.integers(max([m, *rest]) + 1, m + 25))
    return PlaneCurveGerm(n, {m: draw(NONZERO), **rest}, precision)


@settings(max_examples=100, deadline=None)
@given(curves())
def test_dump_then_load_returns_the_curve(curve):
    loaded = load_curve(dump_curve(curve))
    assert loaded.n == curve.n
    assert loaded.coefficients == curve.coefficients
    assert loaded.accuracy == curve.accuracy


@pytest.mark.parametrize("text", ["1/0", "-3/0", "0/00"])
def test_zero_denominator_is_a_validation_error(text):
    doc = {**base_doc(), "terms": [{"e": 10, "c": text}]}
    with pytest.raises(ValidationError, match=r"terms\[0\]\.c: not an integer-over-integer"):
        curve_from_document(doc)
