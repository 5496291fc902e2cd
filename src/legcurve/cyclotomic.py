"""Powers of a primitive n-th root of unity, reduced in Q(zeta_n).

An element of Q(zeta_n) is stored as its coefficient tuple in the basis
1, z, ..., z^(phi(n)-1) of Q[x] modulo the n-th cyclotomic polynomial.
Moduli points are rational, so orbit equivalence is decided over Q and
needs none of this; ``canonical_point`` uses it only to order the
rotations zeta^e * v of a point by these coefficient tuples.  Only that
is implemented: the reduced powers of zeta, rational values, and
products with a rational.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContactDefectError, ValidationError, _check_int, _check_rational


def _poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    # Dense low-to-high coefficient lists; den must be non-zero.
    num = list(num)
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ContactDefectError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    inv_lead = Fraction(1) / den[-1]
    for shift in range(len(num) - len(den), -1, -1):
        factor = num[shift + len(den) - 1] * inv_lead
        if factor:
            quot[shift] = factor
            for i, d in enumerate(den):
                num[shift + i] -= factor * d
    while num and num[-1] == 0:
        num.pop()
    return quot, num


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
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            den = [Fraction(c) for c in cyclotomic_polynomial(d)]
            num, rem = _poly_divmod(num, den)
            if rem:
                raise ContactDefectError(f"x^{n} - 1 is not divisible by Phi_{d}")
    if num[-1] != 1:
        raise ContactDefectError(f"Phi_{n} is not monic")
    return tuple(int(c) for c in num)


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
        modulus = [Fraction(c) for c in cyclotomic_polynomial(n)]
        raw = [Fraction(0)] * (_check_int(power, "power") % n) + [Fraction(1)]
        _, rem = _poly_divmod(raw, modulus)
        degree = len(modulus) - 1
        return Cyclotomic(n, tuple(rem + [Fraction(0)] * (degree - len(rem))))

    def __mul__(self, other: object) -> "Cyclotomic":
        """The product with a rational scalar."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return Cyclotomic(self.n, tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__
