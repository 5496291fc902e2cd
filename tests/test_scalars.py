"""Cyclotomic field elements and the sparse multivariate polynomial ring."""

import math
from fractions import Fraction

import pytest

from legcurve import cyclotomic
from legcurve.cyclotomic import Cyclotomic, _poly_divmod, cyclotomic_polynomial
from legcurve.errors import ContactDefectError, ValidationError
from legcurve.sympoly import Poly


def test_zeta_has_exact_order():
    for n in range(1, 13):
        one = Cyclotomic.from_rational(n, 1)
        z = Cyclotomic.zeta(n)
        assert z ** n == one
        for k in range(1, n):
            assert z ** k != one


def test_root_of_unity_power_sums_vanish():
    # sum over k of zeta^(k*d) is n when n | d and zero otherwise
    for n in range(2, 13):
        zero = Cyclotomic.from_rational(n, 0)
        for d in range(1, n):
            total = zero
            for k in range(n):
                total = total + Cyclotomic.zeta(n, k * d)
            assert total == zero, (n, d)


def test_third_root_relation():
    z = Cyclotomic.zeta(3)
    assert Cyclotomic.from_rational(3, 1) + z + z ** 2 == Cyclotomic.from_rational(3, 0)


def test_field_inverse():
    z = Cyclotomic.zeta(7)
    one = Cyclotomic.from_rational(7, 1)
    for value in (z, one + z, z ** 3 - one * 2, Cyclotomic.from_rational(7, Fraction(-3, 5))):
        assert value.inverse() * value == one


def test_inverse_of_zero_fails():
    with pytest.raises(ValidationError):
        Cyclotomic.from_rational(4, 0).inverse()


@pytest.mark.parametrize(
    "make",
    [
        lambda: cyclotomic_polynomial(0),
        lambda: Cyclotomic(4, (Fraction(1),)),
        lambda: Cyclotomic.zeta(3) + Cyclotomic.zeta(5),
        lambda: Cyclotomic.zeta(6) / Cyclotomic.from_rational(6, 0),
    ],
    ids=["order-zero", "coefficient-count", "mixed-orders", "divide-by-zero"],
)
def test_bad_arguments_raise_validation_error(make):
    with pytest.raises(ValidationError):
        make()


def test_internal_division_by_zero_is_a_defect():
    with pytest.raises(ContactDefectError):
        _poly_divmod([Fraction(1), Fraction(1)], [Fraction(0)])


def test_non_coprime_modulus_is_a_defect(monkeypatch):
    # x - 1 divides the reducible x^2 - 1 put in place of Phi_4 = x^2 + 1
    element = Cyclotomic(4, (Fraction(-1), Fraction(1)))
    monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", lambda n: (-1, 0, 1))
    with pytest.raises(ContactDefectError):
        element.inverse()


def test_rational_scalars_mix_in():
    z = Cyclotomic.zeta(5)
    assert Fraction(1, 2) * z == z * Fraction(1, 2)
    assert (z * 2) - z == z


def test_zeta_powers_reduce_mod_n():
    z = Cyclotomic.zeta(6)
    assert Cyclotomic.zeta(6, 8) == z ** 2
    assert Cyclotomic.zeta(6, -1) == z ** 5


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
