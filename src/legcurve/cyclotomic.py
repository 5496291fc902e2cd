"""Exact arithmetic in the cyclotomic field Q(zeta_n).

Elements are residues of Q[x] modulo the n-th cyclotomic polynomial,
stored as coefficient tuples of length phi(n).  Only what the orbit
computations need is implemented: ring operations, inversion, powers of
the primitive root, and equality.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContactDefectError, ValidationError


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


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if n < 1:
        raise ValidationError("n must be positive")
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
        coeffs = [Fraction(value)] + [Fraction(0)] * (degree - 1)
        return Cyclotomic(n, tuple(coeffs))

    @staticmethod
    def zeta(n: int, power: int = 1) -> "Cyclotomic":
        """zeta_n**power as a reduced field element.

        >>> Cyclotomic.zeta(4).coeffs
        (Fraction(0, 1), Fraction(1, 1))
        >>> Cyclotomic.zeta(3, 3) == Cyclotomic.from_rational(3, 1)
        True
        """
        power %= n
        raw = [Fraction(0)] * (power + 1)
        raw[power] = Fraction(1)
        return Cyclotomic._reduce(n, raw)

    @staticmethod
    def _reduce(n: int, raw: list[Fraction]) -> "Cyclotomic":
        modulus = [Fraction(c) for c in cyclotomic_polynomial(n)]
        _, rem = _poly_divmod(raw, modulus)
        degree = len(modulus) - 1
        rem += [Fraction(0)] * (degree - len(rem))
        return Cyclotomic(n, tuple(rem))

    def _coerce(self, other: object) -> "Cyclotomic | None":
        if isinstance(other, Cyclotomic):
            if other.n != self.n:
                raise ValidationError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.n, other)
        return None

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.coeffs == coerced.coeffs

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs))

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.n, tuple(-c for c in self.coeffs))

    def __add__(self, other: object) -> "Cyclotomic":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return Cyclotomic(self.n, tuple(a + b for a, b in zip(self.coeffs, coerced.coeffs)))

    __radd__ = __add__

    def __sub__(self, other: object) -> "Cyclotomic":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self + (-coerced)

    def __rsub__(self, other: object) -> "Cyclotomic":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced + (-self)

    def __mul__(self, other: object) -> "Cyclotomic":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        raw = [Fraction(0)] * (2 * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(coerced.coeffs):
                if b:
                    raw[i + j] += a * b
        return Cyclotomic._reduce(self.n, raw)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if not self:
            raise ValidationError("inverse of zero in a cyclotomic field")
        modulus = [Fraction(c) for c in cyclotomic_polynomial(self.n)]
        r0, r1 = modulus, list(self.coeffs)
        while r1 and r1[-1] == 0:
            r1.pop()
        s0: list[Fraction] = []
        s1: list[Fraction] = [Fraction(1)]
        while True:
            quot, rem = _poly_divmod(r0, r1)
            if not rem:
                break
            # s_next = s0 - quot * s1
            prod = [Fraction(0)] * (len(quot) + len(s1))
            for i, q in enumerate(quot):
                if q:
                    for j, s in enumerate(s1):
                        prod[i + j] += q * s
            size = max(len(s0), len(prod))
            s_next = [
                (s0[i] if i < len(s0) else Fraction(0)) - (prod[i] if i < len(prod) else Fraction(0))
                for i in range(size)
            ]
            r0, r1 = r1, rem
            s0, s1 = s1, s_next
        # r1 is now the gcd, a non-zero constant since the modulus is irreducible.
        if len(r1) != 1:
            raise ContactDefectError("cyclotomic modulus was not coprime to the element")
        scale = Fraction(1) / r1[0]
        return Cyclotomic._reduce(self.n, [c * scale for c in s1])

    def __truediv__(self, other: object) -> "Cyclotomic":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self * coerced.inverse()

    def __rtruediv__(self, other: object) -> "Cyclotomic":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced * self.inverse()

    def __pow__(self, exponent: int) -> "Cyclotomic":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Cyclotomic.from_rational(self.n, 1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"Cyclotomic({self.n}, {body})"
