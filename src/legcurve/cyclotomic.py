"""Powers of a primitive n-th root of unity, reduced in Q(zeta_n).

An element of Q(zeta_n) is stored as its coefficient tuple in the basis
1, z, ..., z^(phi(n)-1) of Q[x] modulo the n-th cyclotomic polynomial.
Moduli points are rational, so orbit equivalence is decided over Q and
needs none of this; ``canonical_point`` uses it only to order the
rotations zeta^e * v of a point by these coefficient tuples.  Only that
is implemented: the reduced powers of zeta, rational values, and
products with a rational.  Every divisor is some Phi_d, monic over Z, so
division runs on integers with no inverse of a leading coefficient.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContactDefectError, ValidationError, _check_int, _check_rational


def _divide_monic(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder, low to high, of num by the monic den: synthetic
    division, so integer coefficients stay integers.  The remainder has
    deg(den) coefficients."""
    degree = len(den) - 1
    num = list(num) + [0] * (degree - len(num))
    quot = [0] * max(0, len(num) - degree)
    for shift in range(len(num) - len(den), -1, -1):
        factor = num[shift + degree]
        if factor:
            quot[shift] = factor
            for i, d in enumerate(den):
                num[shift + i] -= factor * d
    return quot, num[:degree]


@functools.lru_cache(maxsize=None, typed=True)  # True must not hit 1
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    _check_int(n, "n", 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = _divide_monic(num, cyclotomic_polynomial(d))
            if any(rem):
                raise ContactDefectError(f"x^{n} - 1 is not divisible by Phi_{d}")
    if num[-1] != 1:
        raise ContactDefectError(f"Phi_{n} is not monic")
    return tuple(num)


@dataclass(frozen=True)
class Cyclotomic:
    """An element of Q(zeta_n) reduced modulo the n-th cyclotomic polynomial."""

    n: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        degree = len(cyclotomic_polynomial(self.n)) - 1
        if len(self.coeffs) != degree:
            raise ValidationError(f"expected {degree} coefficients for Q(zeta_{self.n})")

    @staticmethod
    def from_rational(n: int, value: Fraction | int) -> "Cyclotomic":
        degree = len(cyclotomic_polynomial(n)) - 1
        coeffs = [Fraction(_check_rational(value))] + [Fraction(0)] * (degree - 1)
        return Cyclotomic(n, tuple(coeffs))

    @staticmethod
    def zeta(n: int, power: int = 1) -> "Cyclotomic":
        """zeta_n**power as a reduced field element.

        >>> Cyclotomic.zeta(4).coeffs
        (Fraction(0, 1), Fraction(1, 1))
        >>> Cyclotomic.zeta(3, 3) == Cyclotomic.from_rational(3, 1)
        True
        """
        modulus = cyclotomic_polynomial(n)  # checks n before power
        _, rem = _divide_monic([0] * (_check_int(power, "power") % n) + [1], modulus)
        return Cyclotomic(n, tuple(Fraction(c) for c in rem))

    def __mul__(self, other: object) -> "Cyclotomic":
        """The product with a rational scalar."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return Cyclotomic(self.n, tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__
