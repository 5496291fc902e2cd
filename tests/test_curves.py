"""Plane curve germs, their conormal series and reparametrization."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legcurve.curves import (
    PlaneCurveGerm,
    curve_from_y_series,
    default_accuracy,
    integer_nth_root,
    rational_nth_root,
    reparametrize,
)
import legcurve.curves
from legcurve.cyclotomic import Cyclotomic
from legcurve.errors import ContactDefectError, InsufficientPrecisionError, ValidationError
from legcurve.series import TruncatedSeries


def test_default_accuracy():
    assert default_accuracy(3, 10) == 18
    assert default_accuracy(2, 5) == 6  # conductor 4 alone would lose a_5
    assert default_accuracy(5, 12) == 44


def test_constructor_validation():
    with pytest.raises(ValidationError):
        PlaneCurveGerm(1, {5: 1})
    with pytest.raises(ValidationError):
        PlaneCurveGerm(3, {3: 1, 10: 1})  # y-order not above n
    with pytest.raises(ValidationError):
        PlaneCurveGerm(3, {9: 1})  # not coprime
    with pytest.raises(ValidationError):
        PlaneCurveGerm(3, {10: 1}, accuracy=10)
    with pytest.raises(ValidationError):
        PlaneCurveGerm(3, {10: 1, 20: 1}, accuracy=18)
    with pytest.raises(ValidationError):
        PlaneCurveGerm(3, {10: 0})
    with pytest.raises(ValidationError):
        PlaneCurveGerm(3, {10: 1, 11: 0.5})  # coefficients must be rational
    with pytest.raises(ValidationError, match="not rational"):
        PlaneCurveGerm(3, {10: True})
    with pytest.raises(ValidationError, match="not rational"):
        PlaneCurveGerm(3, {10: 1, 11: False})
    with pytest.raises(ValidationError):
        PlaneCurveGerm(3, {10: 1, 11: Cyclotomic.zeta(3)})
    with pytest.raises(ValidationError, match="exponent"):
        PlaneCurveGerm(3, {10.5: 1})
    with pytest.raises(ValidationError, match="exponent"):
        PlaneCurveGerm(3, {True: 1, 10: 1})
    with pytest.raises(ValidationError, match="multiplicity"):
        PlaneCurveGerm(3.0, {10: 1})
    with pytest.raises(ValidationError, match="multiplicity"):
        PlaneCurveGerm(True, {3: 1})
    for n in (3, 1):  # the empty series is named before the multiplicity is checked
        with pytest.raises(ValidationError, match="curve needs at least one non-zero y-coefficient"):
            PlaneCurveGerm(n, {})
    with pytest.raises(ValidationError, match="accuracy"):
        PlaneCurveGerm(3, {10: 1}, 20.5)
    with pytest.raises(ValidationError, match="accuracy"):
        PlaneCurveGerm(3, {10: 1}, True)


def test_type_and_position():
    c = PlaneCurveGerm(3, {10: 1, 11: 2})
    assert c.m == 10
    assert c.equisingularity_type() == (3, 10)
    assert c.in_strong_generic_position()
    assert not PlaneCurveGerm(3, {5: 1}).in_strong_generic_position()


def test_coefficient_accuracy_guard():
    c = PlaneCurveGerm(3, {10: 1})
    assert c.coefficient(17) == 0
    with pytest.raises(InsufficientPrecisionError):
        c.coefficient(18)


def test_coefficient_rejects_bad_exponents():
    c = PlaneCurveGerm(3, {10: 1})
    for bad in (-1, 2.5, True):
        with pytest.raises(ValidationError, match="exponent"):
            c.coefficient(bad)


def test_p_series_fixture():
    c = PlaneCurveGerm(2, {5: 1})
    p = c.p_series()
    assert dict(p.items()) == {3: Fraction(5, 2)}
    assert p.accuracy == 4


def test_p_series_general():
    c = PlaneCurveGerm(3, {10: 1, 11: -6}, 14)
    p = c.p_series()
    assert dict(p.items()) == {7: Fraction(10, 3), 8: -22}
    assert p.accuracy == 11


def test_triple_orders():
    c = PlaneCurveGerm(4, {9: 3})
    x, y, p = c.triple()
    assert x.order() == 4 and y.order() == 9 and p.order() == 5
    assert p.coefficient(5) == Fraction(27, 4)


def test_truncate_and_as_polynomial():
    c = PlaneCurveGerm(3, {10: 1, 14: 2, 16: -1})
    cut = c.truncate(15)
    assert cut.coefficients == {10: 1, 14: 2}
    assert cut.accuracy == 15
    widened = cut.as_polynomial(math.inf)
    assert widened.accuracy == math.inf
    with pytest.raises(ValidationError):
        widened.truncate(9)
    with pytest.raises(ValidationError):
        cut.as_polynomial(12)


def test_scale_y():
    c = PlaneCurveGerm(3, {10: 2, 13: 4})
    half = c.scale_y(Fraction(1, 2))
    assert half.coefficients == {10: 1, 13: 2}
    with pytest.raises(ValidationError):
        c.scale_y(0)


def test_curve_from_y_series_round_trip():
    c = PlaneCurveGerm(3, {10: 1, 11: Fraction(1, 3)}, 16)
    again = curve_from_y_series(3, c.y_series())
    assert again == c


def test_reparametrize_identity_chart():
    y = TruncatedSeries({10: 1, 11: 5}, 18)
    c = reparametrize(TruncatedSeries.monomial(3, 1), y, 3)
    assert c.coefficients == {10: 1, 11: 5}


def test_reparametrize_round_trip():
    # substitute t -> t + t^2 into x = t^3, y = t^10 + t^12 and undo it
    u = TruncatedSeries({1: 1, 2: 1}, math.inf)
    x = (u ** 3).truncate(30)
    y = (u ** 10 + u ** 12).truncate(30)
    c = reparametrize(x, y, 3)
    assert c.equisingularity_type() == (3, 10)
    for e, value in c.items():
        assert value == (1 if e in (10, 12) else 0), (e, value)


def test_reparametrize_requires_monic_order_n():
    y = TruncatedSeries({10: 1}, 18)
    with pytest.raises(ValidationError):
        reparametrize(TruncatedSeries({3: 2}, 20), y, 3)  # 2 has no rational cube root
    with pytest.raises(ValidationError):
        reparametrize(TruncatedSeries({4: 1}, 20), y, 3)


def _rescaled(series, eta):
    """series(t/eta), coefficient by coefficient."""
    return TruncatedSeries({k: Fraction(v) / eta ** k for k, v in series.coeffs.items()}, series.accuracy)


@pytest.mark.parametrize(
    "n, eta, accuracy",
    [(3, -2, 24), (3, Fraction(-1, 2), 24), (4, Fraction(2, 3), 24), (5, Fraction(-3, 7), math.inf)],
    ids=["negative", "negative-fraction", "fraction", "exact-lead"],
)
def test_reparametrize_rescales_a_leading_coefficient(n, eta, accuracy):
    # x = c*t^n*u(t) with c = eta^n; rescaling t -> t/eta by hand first gives the same curve
    c = eta ** n
    assert rational_nth_root(c, n) == eta
    u = TruncatedSeries({0: 1} if accuracy == math.inf else {0: 1, 1: 1, 3: Fraction(2, 5)}, math.inf)
    x = (TruncatedSeries.monomial(n, c) * u).truncate(accuracy)
    y = TruncatedSeries({n + 1: 1, n + 2: Fraction(-1, 3), n + 4: 5}, n + 10)
    by_hand = reparametrize(_rescaled(x, eta), _rescaled(y, eta), n)
    assert reparametrize(x, y, n) == by_hand
    assert by_hand.coefficient(n + 1) == Fraction(1, eta ** (n + 1))


@pytest.mark.parametrize("lead", [1, 8, Fraction(-1, 27)])
def test_an_exact_leading_term_of_x_caps_the_accuracy_like_the_general_path(lead):
    # x = lead*t^3 known below t^8: an unknown t^8 term of x would move
    # y(t(s)) from s^(8 - 3 + 10) on, which the general path (x with a t^7
    # term) keeps as well; the shortcut used to keep y's accuracy 30
    y = TruncatedSeries({10: 1, 11: 1}, 30)
    assert reparametrize(TruncatedSeries({3: lead}, 8), y, 3).accuracy == 15
    assert reparametrize(TruncatedSeries({3: lead, 7: 1}, 8), y, 3).accuracy == 15
    assert reparametrize(TruncatedSeries({3: lead}, math.inf), y, 3).accuracy == 30


@pytest.mark.parametrize("n, lead", [(3, 2), (2, -4), (4, Fraction(1, 8))])
def test_reparametrize_rejects_a_leading_coefficient_without_a_rational_root(n, lead):
    y = TruncatedSeries({n + 1: 1}, n + 8)
    with pytest.raises(ValidationError, match="rational root"):
        reparametrize(TruncatedSeries({n: lead, n + 1: 1}, 20), y, n)


def _perturb_one(h):
    coeffs = dict(h.coeffs)
    coeffs[3] = coeffs.get(3, 0) + 1
    return TruncatedSeries(coeffs, h.accuracy)


def _perturb_last(h):
    coeffs = dict(h.coeffs)
    last = h.accuracy - 1
    coeffs[last] = coeffs.get(last, 0) + Fraction(1, 7)
    return TruncatedSeries(coeffs, h.accuracy)


def _rotate_by_minus_one(h):
    # h(-s) still satisfies x(h(-s)) = s^n for even n; only [s^1] exposes it
    return TruncatedSeries({k: (-1) ** k * v for k, v in h.coeffs.items()}, h.accuracy)


@pytest.mark.parametrize("corrupt", [_perturb_one, _perturb_last, _rotate_by_minus_one])
def test_reparametrize_check_rejects_a_corrupted_reversal(monkeypatch, corrupt):
    reverse = legcurve.curves.series_reverse
    monkeypatch.setattr(legcurve.curves, "series_reverse", lambda g: corrupt(reverse(g)))
    u = TruncatedSeries({1: 1, 2: 1}, math.inf)
    x = (u ** 4).truncate(24)
    y = (u ** 9).truncate(24)
    with pytest.raises(ContactDefectError):
        reparametrize(x, y, 4)


def test_reparametrize_check_rejects_a_rotated_reversal_of_a_rescaled_curve(monkeypatch):
    # with x = 16*t^4*u(t), t(s) has [s^1] = 1/2; t(-s) still gives x = s^4
    reverse = legcurve.curves.series_reverse
    monkeypatch.setattr(legcurve.curves, "series_reverse", lambda g: _rotate_by_minus_one(reverse(g)))
    u = TruncatedSeries({1: 1, 2: 1}, math.inf)
    x = (u ** 4).truncate(24).scale(16)
    y = (u ** 9).truncate(24)
    with pytest.raises(ContactDefectError):
        reparametrize(x, y, 4)


@pytest.mark.parametrize("corrupt", [_perturb_one, _perturb_last])
def test_reparametrize_check_rejects_a_corrupted_composition(monkeypatch, corrupt):
    compose = legcurve.curves.series_compose
    monkeypatch.setattr(legcurve.curves, "series_compose", lambda f, g: corrupt(compose(f, g)))
    u = TruncatedSeries({1: 1, 2: 1}, math.inf)
    x = (u ** 4).truncate(24)
    y = (u ** 9).truncate(24)
    with pytest.raises(ContactDefectError):
        reparametrize(x, y, 4)


def test_integer_nth_root():
    assert integer_nth_root(8, 3) == 2
    assert integer_nth_root(10 ** 30, 3) == 10 ** 10
    assert integer_nth_root(2, 2) is None
    assert integer_nth_root(0, 5) == 0
    assert integer_nth_root(1, 7) == 1
    assert integer_nth_root(10 ** 400, 2) == 10 ** 200  # beyond float range
    assert integer_nth_root(10 ** 400 + 1, 2) is None
    assert integer_nth_root((10 ** 20 + 1) ** 3, 3) == 10 ** 20 + 1
    assert integer_nth_root((10 ** 20 + 1) ** 3 - 1, 3) is None
    for degree in (0, -1, 2.0, True):
        with pytest.raises(ValidationError, match="root index"):
            integer_nth_root(8, degree)
    for value in (4.0, Fraction(4), True):  # a bool is not read as 1
        with pytest.raises(ValidationError, match=f"radicand must be an integer, got {re.escape(repr(value))}"):
            integer_nth_root(value, 2)


def test_rational_nth_root():
    assert rational_nth_root(Fraction(8, 27), 3) == Fraction(2, 3)
    assert rational_nth_root(Fraction(-8), 3) == -2
    assert rational_nth_root(Fraction(-4), 2) is None
    assert rational_nth_root(Fraction(2), 2) is None
    assert rational_nth_root(Fraction(121, 4), 2) == Fraction(11, 2)
    assert rational_nth_root((10 ** 20 + 1) ** 3, 3) == 10 ** 20 + 1
    assert rational_nth_root(Fraction(-1, 10 ** 303), 101) == Fraction(-1, 1000)
    for value in (0.125, True, "8"):
        with pytest.raises(ValidationError, match=f"^{re.escape(repr(value))} is not rational; no rational root of degree 3$"):
            rational_nth_root(value, 3)
    for value in (8, Fraction(-8), Fraction(-1, 8)):
        for degree in (0, -1, 2.0, True):
            with pytest.raises(ValidationError, match="root index"):
                rational_nth_root(value, degree)


# -- the stored form against a term-by-term Fraction reference -------------------------

VALUES = st.one_of(
    st.integers(-(10**20), 10**20),
    st.builds(Fraction, st.integers(-999, 999), st.integers(1, 999)),
    st.just(0),
    st.just(Fraction(0)),
)


@st.composite
def rational_curves(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(n + 1, 30).filter(lambda m: math.gcd(n, m) == 1))
    lead = draw(VALUES.filter(bool))
    rest = draw(st.dictionaries(st.integers(m + 1, m + 16), VALUES, max_size=8))
    top = max([m, *rest])
    accuracy = draw(st.one_of(st.none(), st.integers(top + 1, top + 12), st.just(math.inf)))
    return n, {m: lead, **rest}, accuracy


@settings(max_examples=150, deadline=None)
@given(rational_curves(), st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)).filter(bool))
def test_stored_form_matches_a_fraction_reference(data, scalar):
    n, coeffs, accuracy = data
    ref = {e: Fraction(v) for e, v in coeffs.items() if v}
    m = min(ref)
    acc = default_accuracy(n, m) if accuracy is None else accuracy
    if max(ref) >= acc:
        with pytest.raises(ValidationError, match="below the accuracy"):
            PlaneCurveGerm(n, coeffs, accuracy)
        return
    c = PlaneCurveGerm(n, coeffs, accuracy)
    assert c.n == n and c.m == m and c.accuracy == acc
    assert c.coefficients == ref and all(type(v) is Fraction for v in c.coefficients.values())
    assert c.items() == sorted(ref.items())
    for e in range(min(acc, max(ref) + 4)):
        assert c.coefficient(e) == ref.get(e, 0) and type(c.coefficient(e)) is Fraction
    if acc != math.inf:
        with pytest.raises(InsufficientPrecisionError):
            c.coefficient(acc)

    x, y, p = c.triple()
    assert y is c.y_series()
    assert dict(x.items()) == {n: 1} and x.accuracy == math.inf
    assert dict(y.items()) == ref and y.accuracy == acc
    assert dict(p.items()) == {e - n: Fraction(e, n) * v for e, v in ref.items()}
    assert p.accuracy == acc - n
    assert c.p_series() == p

    for bound in (m + 1, m + 5, acc):
        cut = c.truncate(bound)
        assert cut.coefficients == {e: v for e, v in ref.items() if e < bound}
        assert cut.accuracy == min(acc, bound)
    scaled = c.scale_y(scalar)
    assert scaled.coefficients == {e: scalar * v for e, v in ref.items()} and scaled.accuracy == acc
    widened = c.as_polynomial(math.inf)
    assert widened.coefficients == ref and widened.accuracy == math.inf

    assert curve_from_y_series(n, c.y_series()) == c
    assert PlaneCurveGerm(n, ref, acc) == c
