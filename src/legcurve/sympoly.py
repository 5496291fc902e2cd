"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a mapping {packed exponents: coefficient} over a fixed,
ordered tuple of generator names.  The exponents of a monomial are packed
into one ``int``: generator k owns the bits [W*k, W*(k+1)), so a monomial
product is one integer addition and the integer order of the keys is the
lex order that reads exponents from the last generator down.  The top bit
of each field is a guard: exponents stay below 2^(W-1), and every product
raises ``ValidationError`` if a guard bit comes out set, so an exponent
never carries into the next generator.  ``exponents()`` unpacks the keys
into tuples (Monagan & Pearce, "Polynomial division using dynamic arrays,
heaps, and packed exponent vectors", CASC 2007).

Coefficients are ``int`` or ``Fraction``; ``substitute`` keeps an
integral value as an ``int``, so a polynomial with integer coefficients
evaluated at integers stays in ``int`` arithmetic.  This is deliberately
small: ring operations, partial derivatives and substitution are all the
symbolic layer requires.

``Poly(gens, terms)`` validates its generators (a tuple of distinct
names), keys and coefficients (``bool`` is neither) and drops zeros.
Ring results are built unchecked: sums drop cancelled terms as they
merge.  Products and sums of products (the
determinant's cofactors, the expansion's convolutions) go through one
kernel, ``_sum_of_products``, which adds every term product into one dict
and filters zeros once at the end.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ValidationError, _check_int, _check_rational

Exponents = tuple[int, ...]
Coefficient = Fraction | int

WIDTH = 16
FIELD = (1 << WIDTH) - 1
EXPONENT_LIMIT = 1 << (WIDTH - 1)


@functools.cache
def _guard_mask(count: int) -> int:
    return sum(EXPONENT_LIMIT << (WIDTH * k) for k in range(count))


def unpack(key: int, count: int) -> Exponents:
    """The exponent tuple of a packed key over ``count`` generators."""
    return tuple((key >> (WIDTH * k)) & FIELD for k in range(count))


def _or_keys(keys: Iterable[int]) -> int:
    return functools.reduce(operator.or_, keys, 0)


def _shift(gens: tuple[str, ...], name: str) -> int:
    """The bit offset of generator ``name``'s field."""
    try:
        return WIDTH * gens.index(name)
    except ValueError:
        raise ValidationError(f"{name!r} is not one of the generators {gens}") from None


def pack(exponents: Iterable[int]) -> int:
    """The packed key of an exponent tuple; the inverse of ``unpack``."""
    return sum(k << (WIDTH * i) for i, k in enumerate(exponents))


def _check_gens(gens) -> tuple[str, ...]:
    """``gens``, if it is a tuple of distinct ``str`` names."""
    if type(gens) is not tuple or any(type(name) is not str for name in gens) or len(set(gens)) != len(gens):
        raise ValidationError(f"generators must be a tuple of distinct names, got {gens!r}")
    return gens


class Poly:
    __slots__ = ("gens", "terms")

    def __init__(self, gens: tuple[str, ...], terms: Mapping[int, Coefficient]):
        _check_gens(gens)
        limit, guard = 1 << (WIDTH * len(gens)), _guard_mask(len(gens))
        for e, c in terms.items():
            if type(e) is not int or not 0 <= e < limit or e & guard:
                raise ValidationError(f"{e!r} is not a packed exponent key over {len(gens)} generators")
            _check_rational(c)
        self.gens = gens
        self.terms: dict[int, Coefficient] = {e: c for e, c in terms.items() if c}

    @classmethod
    def _unchecked(cls, gens: tuple[str, ...], terms: dict[int, Coefficient]) -> "Poly":
        """A result whose keys are valid and whose coefficients are non-zero."""
        poly = object.__new__(cls)
        poly.gens, poly.terms = gens, terms
        return poly

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(gens: tuple[str, ...], value: Coefficient) -> "Poly":
        return Poly(gens, {0: value})

    @staticmethod
    def variable(gens: tuple[str, ...], name: str) -> "Poly":
        return Poly._unchecked(gens, {1 << _shift(_check_gens(gens), name): 1})

    # -- ring structure --------------------------------------------------

    def _coerce(self, other: object) -> "Poly | None":
        if isinstance(other, Poly):
            if other.gens != self.gens:
                raise ValidationError("mixed generator tuples")
            return other
        if type(other) is not bool and isinstance(other, (int, Fraction)):
            return Poly._unchecked(self.gens, {0: other} if other else {})
        return None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.terms == coerced.terms

    def __hash__(self) -> int:
        return hash((self.gens, frozenset(self.terms.items())))

    def __neg__(self) -> "Poly":
        return Poly._unchecked(self.gens, {e: -c for e, c in self.terms.items()})

    def __add__(self, other: object) -> "Poly":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        merged = dict(self.terms)
        for e, c in coerced.terms.items():
            merged[e] = c = merged.get(e, 0) + c
            if not c:
                del merged[e]
        return Poly._unchecked(self.gens, merged)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Poly":
        coerced = self._coerce(other)
        return NotImplemented if coerced is None else self + (-coerced)

    def __rsub__(self, other: object) -> "Poly":
        coerced = self._coerce(other)
        return NotImplemented if coerced is None else coerced + (-self)

    def __mul__(self, other: object) -> "Poly":
        coerced = self._coerce(other)
        return NotImplemented if coerced is None else _sum_of_products(self.gens, ((1, self, coerced),))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if _check_int(exponent, "exponent") < 0:
            raise ValidationError("negative powers are not polynomials")
        result = Poly._unchecked(self.gens, {0: 1})
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:  # a last squaring is unused and could pass the limit
                base = base * base
        return result

    # -- calculus and evaluation ------------------------------------------

    def diff(self, name: str) -> "Poly":
        shift = _shift(self.gens, name)
        one = 1 << shift
        out: dict[int, Coefficient] = {}
        for e, c in self.terms.items():
            k = (e >> shift) & FIELD
            if k:
                out[e - one] = c * k
        return Poly._unchecked(self.gens, out)

    def substitute(self, assignment: Mapping[str, Coefficient]) -> "Poly":
        """Replace some generators by exact scalars (``int`` or ``Fraction``);
        others stay symbolic.  An integral value is used as an ``int``."""
        shifts = {}
        for name, v in assignment.items():
            if type(v) is bool or not isinstance(v, (int, Fraction)):
                raise ValidationError(f"value {v!r} for {name} is not rational")
            shifts[_shift(self.gens, name)] = v.numerator if v.denominator == 1 else v
        keep = ~sum(FIELD << shift for shift in shifts)
        out: dict[int, Coefficient] = {}
        for e, c in self.terms.items():
            scale: Coefficient = c
            for shift, value in shifts.items():
                scale = scale * value ** ((e >> shift) & FIELD)
            key = e & keep
            out[key] = out.get(key, 0) + scale
        return Poly._unchecked(self.gens, {e: c for e, c in out.items() if c})

    def as_constant(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {0}:
            raise ValidationError("polynomial is not constant")
        return Fraction(self.terms[0])

    def degree_in(self, name: str) -> int:
        shift = _shift(self.gens, name)
        return max(((e >> shift) & FIELD for e in self.terms), default=0)

    def exponents(self) -> Iterable[Exponents]:
        """Unpacked exponent tuples, in the order of ``terms``."""
        count = len(self.gens)
        return [unpack(e, count) for e in self.terms]

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        pieces = []
        for e, coeff in sorted(zip(self.exponents(), self.terms.values())):
            factors = []
            for name, k in zip(self.gens, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            if factors:
                head = "" if coeff == 1 else ("-" if coeff == -1 else f"{coeff}*")
                pieces.append(head + "*".join(factors))
            else:
                pieces.append(str(coeff))
        return "Poly(" + " + ".join(pieces) + ")"


def _sum_of_products(gens: tuple[str, ...], triples: Iterable[tuple[int, Poly, Poly]]) -> Poly:
    """The sum of sign * left * right over (sign, left, right) triples with
    sign = +1 or -1: every term product is added into one dict, and zeros are
    filtered once at the end."""
    total: dict[int, Coefficient] = {}
    get = total.get
    for sign, left, right in triples:
        pairs = right.terms.items()
        for e1, c1 in left.terms.items():
            if sign < 0:
                c1 = -c1
            for e2, c2 in pairs:
                key = e1 + e2
                total[key] = get(key, 0) + c1 * c2
    # Stored keys have no guard bit, so fields add without carries into the
    # next field; cancelled keys are still present, so this sees every product key.
    if _or_keys(total) & _guard_mask(len(gens)):
        raise ValidationError(f"an exponent reached {EXPONENT_LIMIT}, the packing limit")
    if not all(total.values()):
        total = {e: c for e, c in total.items() if c}
    return Poly._unchecked(gens, total)
