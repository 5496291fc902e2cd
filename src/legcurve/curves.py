"""Plane curve germs x = t^n, y = sum a_i t^i and their conormal lifts.

A curve is its multiplicity n and its y-series, one ``TruncatedSeries``
known below the curve's ``accuracy``; the coefficients are exact rationals,
stored as the series stores them, and every read returns ``Fraction``
values.  The conormal lift adds the derivative coordinate p = dy/dx, whose
order along the curve is m - n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .errors import ContactDefectError, ValidationError, _check_accuracy, _check_int, _check_rational, _check_type
from .series import Accuracy, TruncatedSeries, series_compose, series_nth_root, series_reverse


def default_accuracy(n: int, m: int) -> int:
    """Conductor of the plane semigroup <n, m>, raised just enough to keep
    the leading y-coefficient for very small types."""
    _check_type(n, m)
    return max((n - 1) * (m - 1), m + 1)


def _chart_order(n: int, y: TruncatedSeries) -> int:
    """The y-order m of a curve (t^n, y(t)) in the chart: (n, m) is a type,
    y is non-zero and y is known beyond m."""
    if not y.num:
        raise ValidationError("curve needs at least one non-zero y-coefficient")
    m = min(y.num)
    _check_type(n, m)
    if y.accuracy <= m:
        raise ValidationError("accuracy must exceed the y-order m")
    return m


class PlaneCurveGerm:
    __slots__ = ("n", "_y")

    def __init__(self, n: int, coefficients: Mapping[int, object], accuracy: Accuracy | None = None):
        y = TruncatedSeries(coefficients, math.inf)
        if accuracy is None:
            accuracy = default_accuracy(n, _chart_order(n, y))
            y = y._unchecked(y.num, y.den, accuracy)
        else:
            y = y._unchecked(y.num, y.den, _check_accuracy(accuracy))
            _chart_order(n, y)
        if max(y.num) >= accuracy:
            raise ValidationError("stored exponents must lie below the accuracy")
        self.n = n
        self._y = y

    # -- inspection ---------------------------------------------------------

    @property
    def coefficients(self) -> dict:
        """The non-zero y-coefficients as ``Fraction``s, in a new dict on each read."""
        return self._y.coeffs

    @property
    def accuracy(self) -> Accuracy:
        return self._y.accuracy

    @property
    def m(self) -> int:
        return min(self._y.num)

    def coefficient(self, i: int) -> Fraction:
        return self._y.coefficient(i)

    def in_strong_generic_position(self) -> bool:
        return self.m >= 2 * self.n + 1

    def equisingularity_type(self) -> tuple[int, int]:
        return (self.n, self.m)

    def items(self):
        return self._y.items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlaneCurveGerm):
            return NotImplemented
        return self.n == other.n and self._y == other._y

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        terms = " + ".join(f"{c!r}*t^{e}" for e, c in self.items())
        return f"PlaneCurveGerm(x=t^{self.n}, y={terms}; accuracy={self.accuracy})"

    # -- derived series -------------------------------------------------------

    def x_series(self) -> TruncatedSeries:
        return self._y._unchecked({self.n: 1}, 1, math.inf)

    def y_series(self) -> TruncatedSeries:
        return self._y

    def p_series(self) -> TruncatedSeries:
        """The derivative coordinate p = (dy/dt)/(dx/dt) along the curve."""
        n, y = self.n, self._y
        acc = y.accuracy if y.accuracy == math.inf else y.accuracy - n
        return y._reduced({e - n: e * v for e, v in y.num.items()}, n * y.den, acc)

    def triple(self) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
        return (self.x_series(), self._y, self.p_series())

    # -- rebuilding -----------------------------------------------------------

    def truncate(self, accuracy: int) -> "PlaneCurveGerm":
        if _check_accuracy(accuracy) <= self.m:
            raise ValidationError("truncation would discard the leading y-coefficient")
        return curve_from_y_series(self.n, self._y.truncate(accuracy))

    def as_polynomial(self, accuracy: Accuracy) -> "PlaneCurveGerm":
        """Declare absent coefficients below ``accuracy`` to be exact zeros.

        Only sound when higher-order terms cannot influence the result the
        caller is after (for example anything read off below the conductor).
        """
        if _check_accuracy(accuracy) < self.accuracy:
            raise ValidationError("use truncate to lower the accuracy")
        y = self._y
        return curve_from_y_series(self.n, y._unchecked(y.num, y.den, accuracy))

    def scale_y(self, scalar) -> "PlaneCurveGerm":
        if not scalar:
            raise ValidationError("scaling the y-series by zero destroys the curve")
        return curve_from_y_series(self.n, self._y.scale(scalar))


def curve_from_y_series(n: int, series: TruncatedSeries) -> PlaneCurveGerm:
    """The curve (t^n, y(t)) that stores ``series`` as its y-series."""
    _chart_order(n, series)
    curve = object.__new__(PlaneCurveGerm)
    curve.n, curve._y = n, series
    return curve


def reparametrize(x_series: TruncatedSeries, y_series: TruncatedSeries, n: int) -> PlaneCurveGerm:
    """Bring a moved curve (x(t), y(t)) back to the chart x = s^n.

    x must have order n and a leading coefficient c with a rational n-th
    root eta, else ``ValidationError``.  The new parameter is
    s = eta*t*(x/(c*t^n))^(1/n), and the result is y(t(s)) for the reversal
    t(s).  When x = c*t^n below its accuracy A, s = eta*t below A - n + 1,
    so t(s) = s/eta known below A - n + 1 needs no root or reversal, and
    x(t(s)) = s^n there since eta^n = c; ``series_compose`` bounds y(t(s))
    at A - n + k0, k0 the least positive exponent of y, where an unknown
    t^A term of x first moves it.  Otherwise one explicit check covers the
    root, the rescale and the reversal: x(t(s)) = s^n with [s^1] t(s) =
    1/eta holds only when t(s) reverses s(t) for the root with constant
    term 1.  An image whose y-series starts at a multiple of n, which no
    type (n, m) describes, also raises ``ValidationError``.
    """
    order = x_series.order()
    if order != n:
        raise ValidationError(
            f"transformed x-coordinate has order {order}, not {n}; the image leaves the chart x = t^n"
        )
    lead = x_series.coefficient(n)
    eta = rational_nth_root(lead, n)
    if eta is None:
        raise ValidationError(f"cannot renormalize: {lead} admits no exact rational root of degree {n}")
    unit = x_series.shift(-n).scale(1 / lead)
    inverse = 1 / eta
    if unit.num.keys() == {0}:  # x = lead*t^n below its accuracy
        t_of_s = unit._unchecked({1: inverse.numerator}, inverse.denominator, x_series.accuracy - n + 1)
    else:
        scaled_t = unit._unchecked({1: eta.numerator}, eta.denominator, math.inf)
        t_of_s = series_reverse(scaled_t * series_nth_root(unit, n))
        x_back = series_compose(x_series, t_of_s)
        if t_of_s.coefficient(1) != inverse or not x_back.agrees_with(unit._unchecked({n: 1}, 1, math.inf)):
            raise ContactDefectError("reparametrization failed: x(t(s)) is not s^n")
    y = series_compose(y_series, t_of_s)
    if y.num and min(y.num) % n == 0:
        raise ValidationError(
            f"the image's y-series starts at t^{min(y.num)}, a multiple of n = {n}, "
            f"so the image leaves the chart's types (n, m) with m coprime to n"
        )
    return curve_from_y_series(n, y)


def integer_nth_root(value: int, n: int) -> int | None:
    """Exact n-th root of a non-negative integer for an ``int`` n >= 1, or None."""
    _check_int(n, "root index", 1)
    if _check_int(value, "radicand") < 0:
        return None
    if value < 2:
        return value
    # integer Newton iteration, decreasing from an upper bound to floor(value^(1/n))
    root = 1 << -(-value.bit_length() // n)
    while True:
        step = ((n - 1) * root + value // root ** (n - 1)) // n
        if step >= root:
            break
        root = step
    return root if root ** n == value else None


def rational_nth_root(value: int | Fraction, n: int) -> Fraction | None:
    """Exact rational n-th root, positive sign convention, for an ``int`` n >= 1, or None."""
    try:
        value = Fraction(_check_rational(value))
    except ValidationError:
        raise ValidationError(f"{value!r} is not rational; no rational root of degree {n}") from None
    num = integer_nth_root(abs(value.numerator), n)
    den = integer_nth_root(value.denominator, n)
    if num is None or den is None or (value < 0 and n % 2 == 0):
        return None
    return Fraction(-num if value < 0 else num, den)
