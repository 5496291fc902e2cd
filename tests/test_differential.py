"""Series roots, reversion, reparametrization and substitution against sympy.

The library's own routines no longer re-check their results at run time
(reparametrize checks x(t(s)) = s^n once), so these tests compare them with
sympy's independent series code on seeded random rational input.
Substitution into germs, and their restriction to a curve, are compared
with the expansion in sympy's polynomial rings.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.ring_series import rs_nth_root, rs_series_reversion, rs_subs
from sympy.polys.rings import ring

from legcurve.curves import reparametrize
from legcurve.germs import Germ, contact_weights, evaluate_on_series, monomials_in_valuation_range, substitute
from legcurve.series import TruncatedSeries, series_nth_root, series_reverse

SEEDS = range(6)
R, x, y = ring("x, y", QQ)
RG, gx, gy, gp = ring("x, y, p", QQ)
RT, t = ring("t", QQ)


def _random_coeffs(rng, low, high):
    return {k: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for k in range(low, high)}


def _to_ring(coeffs, var):
    return sum((QQ(c.numerator, c.denominator) * var ** k for k, c in coeffs.items()), var.ring.zero)


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


# the precisions at which series_reverse's Newton steps end, and their neighbours
TURNING_POINTS = sorted({p + d for p in (3, 5, 9, 17, 33) for d in (-1, 0, 1)} | {44})
# numerators of 100 to 140 bits, over denominators unrelated to each other
BIG_NUMERATORS = st.integers(2 ** 100, 2 ** 140).flatmap(lambda a: st.sampled_from([a, -a]))
DENOMINATORS = st.sampled_from([1, 3, 7, 2 ** 61 - 1, 10 ** 12 + 39, 3 ** 40, 1009 * 1013])


@st.composite
def reversible_series(draw):
    """(coefficients, accuracy of g, target accuracy) for g = c t + ..."""
    target = draw(st.one_of(st.sampled_from(TURNING_POINTS), st.integers(2, 44)))
    lead = Fraction(draw(st.integers(1, 2 ** 30)), draw(st.integers(1, 2 ** 30))) * draw(st.sampled_from([1, -1]))
    exponents = draw(st.sets(st.integers(2, target + 2), max_size=4))
    coeffs = {1: lead, **{k: Fraction(draw(BIG_NUMERATORS), draw(DENOMINATORS)) for k in exponents}}
    return coeffs, target + draw(st.integers(0, 3)), target


@settings(max_examples=60, deadline=None)
@example(({1: Fraction(-3, 7), 2: Fraction(2 ** 101 + 1, 3), 3: Fraction(-(2 ** 120), 2 ** 61 - 1)}, 5, 3))
@example(({1: Fraction(5, 2 ** 100 + 3), 4: Fraction(2 ** 100, 7), 9: Fraction(-(2 ** 130), 1009 * 1013)}, 33, 33))
@given(reversible_series())
def test_reverse_matches_sympy_reversion_at_every_precision(case):
    # the reversal below t^target depends only on g below t^target
    coeffs, g_accuracy, target = case
    g = TruncatedSeries(coeffs, g_accuracy)
    h = series_reverse(g.truncate(target))
    assert h.accuracy == target
    kept = {k: c for k, c in coeffs.items() if k < target}
    expected = rs_series_reversion(_to_ring(kept, x), x, target, y)
    assert [h.coefficient(k) for k in range(target)] == [_ring_coeff(expected, y, k) for k in range(target)]


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


# -- substitution into germs -------------------------------------------------


def _random_germ(rng, n, m, low, high, terms, accuracy):
    """Up to ``terms`` monomials of weighted valuation in [low, high) with
    random rational coefficients, as a germ of type (n, m)."""
    monomials = monomials_in_valuation_range(n, m, low, high)
    chosen = rng.sample(monomials, min(terms, len(monomials)))
    coeffs = {mono: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for mono in chosen}
    return Germ(contact_weights(n, m), coeffs, accuracy)


def _rational(c):
    return QQ(c.numerator, c.denominator)


def _expand(g, values, ring):
    """The sum of c * a^i b^j c^l over the terms c x^i y^j p^l of g, for the
    elements (a, b, c) of a sympy polynomial ring (a zero value may be raised
    only to positive powers)."""
    total = ring.zero
    for mono, coeff in g.coeffs.items():
        term = ring(_rational(coeff))
        for value, e in zip(values, mono):
            if e:
                term *= value ** e
        total += term
    return total


def _below(poly, weights, accuracy):
    """The terms of a sympy polynomial whose weight, under the given weights
    of its generators, is below ``accuracy``."""
    return {
        mono: Fraction(int(c.numerator), int(c.denominator))
        for mono, c in poly.terms()
        if sum(e * w for e, w in zip(mono, weights)) < accuracy
    }


@pytest.mark.parametrize("seed", range(12))
def test_substitute_matches_a_sympy_expansion(seed):
    rng = random.Random(seed)
    n, m = rng.choice([(2, 5), (3, 7), (3, 10)])
    weights = contact_weights(n, m)

    def accuracy(low, high):
        return rng.choice([math.inf, rng.randint(low, high)])

    g = _random_germ(rng, n, m, 0, 3 * m, 6, accuracy(2 * m, 5 * m))
    # each value of order at least the weight of its variable, as in compose
    values = [_random_germ(rng, n, m, w, w + m, 3, accuracy(w + m, 5 * m)) for w in weights]
    result = substitute(g, *values)
    assert result.accuracy >= min(g.accuracy, *(value.accuracy for value in values))
    expected = _expand(g, [_expand(value, (gx, gy, gp), RG) for value in values], RG)
    assert result.coeffs == _below(expected, weights, result.accuracy)


@pytest.mark.parametrize("seed", range(12))
def test_evaluate_on_series_matches_a_sympy_expansion(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    m = rng.choice([k for k in range(n + 1, 3 * n + 2) if k % n])
    g = _random_germ(rng, n, m, 0, 3 * m, 6, rng.choice([math.inf, rng.randint(m, 4 * m)]))
    # y and p of orders m and m - n, each exact or known below a random accuracy
    y_coeffs = {m: Fraction(1), **_random_coeffs(rng, m + 1, m + 6)}
    p_coeffs = {m - n: Fraction(m, n), **_random_coeffs(rng, m - n + 1, m - n + 6)}
    y_series = TruncatedSeries(y_coeffs, rng.choice([math.inf, rng.randint(m + 1, 3 * m)]))
    p_series = TruncatedSeries(p_coeffs, rng.choice([math.inf, rng.randint(m - n + 1, 3 * m)]))
    result = evaluate_on_series(g, TruncatedSeries.monomial(n, 1), y_series, p_series)
    assert result.accuracy >= min(g.accuracy, y_series.accuracy, p_series.accuracy)
    values = (t ** n, _to_ring(y_series.coeffs, t), _to_ring(p_series.coeffs, t))
    expected = _expand(g, values, RT)
    assert {(k,): c for k, c in result.coeffs.items()} == _below(expected, (1,), result.accuracy)
