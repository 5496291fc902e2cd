"""Germ expression parsing and canonical printing."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legcurve.errors import ValidationError
from legcurve.expressions import format_germ, format_scalar, parse_germ, parse_scalar
from legcurve.germs import Germ, contact_weights

W = contact_weights(3, 10)


def test_parse_basic_terms():
    g = parse_germ("3xp - 10y", 3, 10)
    assert dict(g.coeffs) == {(1, 0, 1): 3, (0, 1, 0): -10}
    assert g.accuracy == math.inf


def test_parse_powers_and_rationals():
    g = parse_germ("9/100p^2 + x^5", 3, 10)
    assert dict(g.coeffs) == {(0, 0, 2): Fraction(9, 100), (5, 0, 0): 1}


def test_parse_juxtaposition_and_repeats():
    assert dict(parse_germ("xyx", 3, 10).coeffs) == {(2, 1, 0): 1}
    assert dict(parse_germ("x^2y p", 3, 10).coeffs) == {(2, 1, 1): 1}


def test_parse_leading_sign_and_merging():
    assert dict(parse_germ("-x^4", 3, 10).coeffs) == {(4, 0, 0): -1}
    assert dict(parse_germ("+y", 3, 10).coeffs) == {(0, 1, 0): 1}
    assert parse_germ("x - x", 3, 10).is_zero()
    assert dict(parse_germ("x + x", 3, 10).coeffs) == {(1, 0, 0): 2}


def test_parse_whitespace_insensitive():
    a = parse_germ("3 x p-10 y", 3, 10)
    b = parse_germ("3xp - 10y", 3, 10)
    assert dict(a.coeffs) == dict(b.coeffs)


def test_parse_constants():
    assert dict(parse_germ("5", 3, 10).coeffs) == {(0, 0, 0): 5}
    assert dict(parse_germ("1/2 + x", 3, 10).coeffs) == {
        (0, 0, 0): Fraction(1, 2),
        (1, 0, 0): 1,
    }


def test_parse_error_positions():
    with pytest.raises(ValidationError, match="position 0: empty"):
        parse_germ("", 3, 10)
    with pytest.raises(ValidationError, match="position 2: unexpected character 'z'"):
        parse_germ("x z", 3, 10)
    with pytest.raises(ValidationError, match="expected an exponent"):
        parse_germ("x^", 3, 10)
    with pytest.raises(ValidationError, match="division by zero"):
        parse_germ("1/0", 3, 10)
    with pytest.raises(ValidationError, match="expected a term"):
        parse_germ("x + ", 3, 10)
    with pytest.raises(ValidationError, match="^position 4: expected a term$"):
        parse_germ("x + + y", 3, 10)
    with pytest.raises(ValidationError, match="expected '\\+' or '-'"):
        parse_germ("1/2/3", 3, 10)


def test_format_germ_canonical_order():
    # valuation ties (both weight 10) break on the exponent tuple, y first
    g = Germ(W, {(0, 1, 0): -10, (1, 0, 1): 3}, math.inf)
    assert format_germ(g) == "-10y + 3xp"
    g = Germ(W, {(5, 0, 0): 1, (0, 0, 2): Fraction(9, 100)}, math.inf)
    assert format_germ(g) == "9/100p^2 + x^5"
    assert format_germ(Germ(W, {}, math.inf)) == "0"
    assert format_germ(Germ(W, {(0, 0, 0): Fraction(-1, 2)}, math.inf)) == "-1/2"


def test_format_parse_round_trip():
    samples = [
        {(1, 0, 1): 3, (0, 1, 0): -10},
        {(0, 0, 2): Fraction(9, 100)},
        {(4, 0, 0): -1, (0, 0, 0): Fraction(7, 3)},
        {(2, 1, 3): Fraction(-5, 2), (1, 1, 0): 1},
        {},
    ]
    for coeffs in samples:
        g = Germ(W, coeffs, math.inf)
        again = parse_germ(format_germ(g), 3, 10)
        assert dict(again.coeffs) == dict(g.coeffs)


def test_scalar_round_trip():
    assert format_scalar(Fraction(3, 4)) == "3/4"
    assert format_scalar(5) == "5"
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-7") == -7
    for bad in ("1.5", "1//2", " 3", "3 ", "x", "", "1/2/3", None):
        with pytest.raises(ValidationError):
            parse_scalar(bad)


# -- round trip on random exact germs ----------------------------------------------

RATIONALS = st.one_of(
    st.integers(-(10**30), 10**30),
    st.builds(Fraction, st.integers(-999, 999), st.integers(1, 999)),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)
MONOMIALS = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 3), (3, 10), (4, 11), (5, 12)]), st.dictionaries(MONOMIALS, RATIONALS, max_size=8))
def test_format_then_parse_returns_the_germ(nm, coeffs):
    n, m = nm
    g = Germ(contact_weights(n, m), coeffs, math.inf)
    assert parse_germ(format_germ(g), n, m) == g
