"""Reduced powers of a root of unity and the sparse multivariate polynomial ring."""

import math
from fractions import Fraction

import pytest
import sympy as sp

from legcurve.cyclotomic import Cyclotomic, cyclotomic_polynomial
from legcurve.errors import ValidationError
from legcurve.sympoly import Poly


def test_zeta_has_exact_order():
    for n in range(1, 13):
        one = Cyclotomic.from_rational(n, 1)
        assert Cyclotomic.zeta(n, n) == one
        for k in range(1, n):
            assert Cyclotomic.zeta(n, k) != one


def _coefficient_sum(elements):
    return tuple(sum(column) for column in zip(*(x.coeffs for x in elements)))


def test_root_of_unity_power_sums_vanish():
    # sum over k of zeta^(k*d) is n when n | d and zero otherwise
    for n in range(2, 13):
        zero = Cyclotomic.from_rational(n, 0).coeffs
        for d in range(1, n):
            total = _coefficient_sum(Cyclotomic.zeta(n, k * d) for k in range(n))
            assert total == zero, (n, d)
        assert _coefficient_sum(Cyclotomic.zeta(n, k * n) for k in range(n)) == (n,) + zero[1:]


def test_third_root_relation():
    # Phi_3 = x^2 + x + 1, so zeta^2 = -1 - zeta and 1 + zeta + zeta^2 = 0
    assert Cyclotomic.zeta(3, 2).coeffs == (-1, -1)
    assert _coefficient_sum(Cyclotomic.zeta(3, k) for k in range(3)) == (0, 0)


def _sympy_coeffs(expr, x, length):
    """Low-to-high coefficients of a sympy polynomial in x, as Fractions padded to length."""
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(sp.Poly(expr, x).all_coeffs())]
    return tuple(coeffs + [Fraction(0)] * (length - len(coeffs)))


def test_cyclotomic_polynomials_match_sympy():
    x = sp.Symbol("x")
    for n in range(1, 61):
        phi = sp.cyclotomic_poly(n, x)
        assert cyclotomic_polynomial(n) == _sympy_coeffs(phi, x, 0), n
        if n <= 24:
            degree = sp.degree(phi, x)
            for e in range(2 * n):
                assert Cyclotomic.zeta(n, e).coeffs == _sympy_coeffs(sp.rem(x**e, phi, x), x, degree), (n, e)


@pytest.mark.parametrize(
    "make",
    [
        lambda: cyclotomic_polynomial(0),
        lambda: Cyclotomic(4, (Fraction(1),)),
    ],
    ids=["order-zero", "coefficient-count"],
)
def test_bad_arguments_raise_validation_error(make):
    with pytest.raises(ValidationError):
        make()


def test_rational_scalars_mix_in():
    z = Cyclotomic.zeta(5)
    assert Fraction(1, 2) * z == z * Fraction(1, 2)
    assert (z * 2).coeffs == (0, 2, 0, 0)
    assert (Cyclotomic.zeta(5, 4) * Fraction(-2, 3)).coeffs == (Fraction(2, 3),) * 4
    assert Cyclotomic.from_rational(5, 7) == Cyclotomic.zeta(5, 0) * 7
    assert all(type(c) is Fraction for c in (z * 2).coeffs)


def test_zeta_powers_reduce_mod_n():
    # Phi_6 = x^2 - x + 1: zeta^2 = zeta - 1, zeta^3 = -1, zeta^5 = 1 - zeta
    assert Cyclotomic.zeta(6, 8) == Cyclotomic.zeta(6, 2)
    assert Cyclotomic.zeta(6, 2).coeffs == (-1, 1)
    assert Cyclotomic.zeta(6, 3) == Cyclotomic.from_rational(6, -1)
    assert Cyclotomic.zeta(6, -1) == Cyclotomic.zeta(6, 5)
    assert Cyclotomic.zeta(6, 5).coeffs == (1, -1)


GENS = ("mu", "a10", "a11")


def P(name):
    return Poly.variable(GENS, name)


def test_poly_arithmetic():
    mu, a10 = P("mu"), P("a10")
    q = (mu + a10) * (mu - a10)
    assert q == mu * mu - a10 * a10
    assert not (q - q)
    assert (mu + a10) ** 2 == mu * mu + mu * a10 * 2 + a10 * a10


def test_poly_diff():
    mu, a10, a11 = P("mu"), P("a10"), P("a11")
    q = mu * mu * a10 + a11 * 3
    assert q.diff("mu") == mu * a10 * 2
    assert q.diff("a11") == Poly.const(GENS, 3)
    assert not q.diff("a10").diff("a11")


def test_poly_substitute_partial_and_full():
    mu, a10 = P("mu"), P("a10")
    q = mu * a10 + a10 * a10
    half = q.substitute({"mu": Fraction(1, 2)})
    assert half == a10 * Fraction(1, 2) + a10 * a10
    assert q.substitute({"mu": 1, "a10": 2}).as_constant() == 6


def test_poly_degree_in():
    mu, a11 = P("mu"), P("a11")
    q = mu ** 3 * a11 + a11 ** 2
    assert q.degree_in("mu") == 3
    assert q.degree_in("a11") == 2
    assert q.degree_in("a10") == 0


def test_poly_as_constant_rejects_variables():
    with pytest.raises(ValidationError):
        P("mu").as_constant()


def test_poly_gcd_free_rational_coefficients():
    q = P("a10") * Fraction(2, 3) + Poly.const(GENS, Fraction(1, 6))
    doubled = q + q
    assert doubled.substitute({"a10": 1, "mu": 0, "a11": 0}).as_constant() == Fraction(5, 3)
