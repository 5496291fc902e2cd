"""Series roots, reversion and reparametrization against sympy.

The library's own routines no longer re-check their results at run time
(reparametrize checks x(t(s)) = s^n once), so these tests compare them with
sympy's independent series code on seeded random rational input.
"""

import random
from fractions import Fraction

import pytest
import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.ring_series import rs_nth_root, rs_series_reversion, rs_subs
from sympy.polys.rings import ring

from legcurve.curves import reparametrize
from legcurve.series import TruncatedSeries, series_nth_root, series_reverse

SEEDS = range(6)
R, x, y = ring("x, y", QQ)


def _random_coeffs(rng, low, high):
    return {k: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for k in range(low, high)}


def _to_ring(coeffs, var):
    return sum((QQ(c.numerator, c.denominator) * var ** k for k, c in coeffs.items()), R(0))


def _ring_coeff(p, var, k):
    value = p.coeff(var ** k)
    return Fraction(int(value.numerator), int(value.denominator))


@pytest.mark.parametrize("seed", SEEDS)
def test_nth_root_matches_sympy_series(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    accuracy = rng.randint(6, 10)
    coeffs = {0: Fraction(1), **_random_coeffs(rng, 1, accuracy)}
    root = series_nth_root(TruncatedSeries(coeffs, accuracy), n)
    assert root.accuracy == accuracy
    t = sp.Symbol("t")
    f = sum(sp.Rational(c.numerator, c.denominator) * t ** k for k, c in coeffs.items())
    expected = sp.series(f ** sp.Rational(1, n), t, 0, accuracy).removeO()
    for k in range(accuracy):
        assert root.coefficient(k) == Fraction(str(expected.coeff(t, k))), (n, k)


@pytest.mark.parametrize("seed", SEEDS)
def test_reverse_matches_sympy_reversion(seed):
    rng = random.Random(seed)
    accuracy = rng.randint(6, 14)
    coeffs = {1: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)), **_random_coeffs(rng, 2, accuracy)}
    h = series_reverse(TruncatedSeries(coeffs, accuracy))
    assert h.accuracy == accuracy
    expected = rs_series_reversion(_to_ring(coeffs, x), x, accuracy, y)
    for k in range(accuracy):
        assert h.coefficient(k) == _ring_coeff(expected, y, k), k


@pytest.mark.parametrize("seed", SEEDS)
def test_reparametrize_matches_sympy(seed):
    # x = t^n u(t), s = t u(t)^(1/n); the new y-series is y(t(s))
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    m = rng.choice([k for k in range(n + 1, 3 * n + 2) if k % n])
    x_accuracy = n + rng.randint(6, 10)
    unit = {0: Fraction(1), **_random_coeffs(rng, 1, x_accuracy - n)}
    x_series = TruncatedSeries(unit, x_accuracy - n).shift(n)
    y_coeffs = {m: Fraction(1), **_random_coeffs(rng, m + 1, m + 8)}
    y_series = TruncatedSeries(y_coeffs, m + 8)
    curve = reparametrize(x_series, y_series, n)

    accuracy = curve.accuracy
    assert accuracy > m
    t_of_s = rs_series_reversion(x * rs_nth_root(_to_ring(unit, x), n, x, accuracy), x, accuracy, y)
    expected = rs_subs(_to_ring(y_coeffs, x), {x: t_of_s}, y, accuracy)
    for k in range(accuracy):
        assert curve.coefficient(k) == _ring_coeff(expected, y, k), (n, m, k)
