"""Truncated power series in one variable with explicit accuracy.

A series stores finitely many exact coefficients together with an
``accuracy`` bound N: coefficients of t^k for k < N are correct, higher
ones are unknown.  ``math.inf`` accuracy marks exact polynomials.
Every operation propagates accuracy pessimistically and reading a
coefficient at or beyond the bound raises, so precision loss is never
silent.

The coefficients are rationals, stored as integer numerators over one
shared denominator (Knuth, TAOCP Vol. 2, section 4.5.1): ``num`` maps each
key to a non-zero ``int`` and ``den`` is a positive ``int``.  The stored
form is canonical: gcd(den, *num.values()) == 1 and no key sits at or
above the accuracy, so equal values have equal ``num`` and ``den``.  Each
result takes one content reduction, after integer work: sums and scalings
on the numerators, and sums of products base + sum of sign*f*g in one
multiply-accumulate, ``_Truncated._accumulate``, which adds the
convolutions of the weight-sorted numerator lists over the lcm of the term
denominators (a product is its one-term case).  ``Fraction``s are built only
when a value is read: ``coefficient``, ``items`` and the read-only
``coeffs`` return ``Fraction`` values, integral ones included.
Composition expands the outer series about the linear part c*t of the
inner one (Brent & Kung, J. ACM 25 (1978), section 2), so its cost falls
with the order of the inner series' perturbation; see ``series_compose``.
Reversal is Newton iteration with one composition per step, correcting h
by its own derivative; see ``series_reverse``.

The arithmetic of exact coefficients below an accuracy is the same for
these series and for the germs of ``germs.py``.  It is written once, in
``_Truncated``, over terms keyed by one ``int`` whose bits from ``_SHIFT``
up hold the weight (here the key is the exponent and ``_SHIFT`` is 0), so
a product key is the sum of two keys.  A value is built one of two ways.
Values from outside go through the checked constructor
``TruncatedSeries(...)``; ``zero`` and ``monomial`` are single calls of it.
It checks the accuracy, that the coefficients are a mapping, and every key
and value (an ``int`` or a ``Fraction``, not a ``bool``).  Every value the
library forms from stored numerators is built by ``_Truncated._unchecked``,
which keeps the numerators it is given, or by ``_Truncated._reduced``,
which first divides out their common content.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from fractions import Fraction

from .errors import InsufficientPrecisionError, ValidationError, _check_accuracy, _check_int, _check_rational

Accuracy = int | float  # int, or math.inf for exact data


def _convolve(left_terms: list, right_terms: list, bound: Accuracy, sums: dict, factor: int = 1) -> dict:
    """Add to ``sums``, by key, ``factor`` times the integer products of two
    key-sorted (key, numerator) lists whose keys add up to less than
    ``bound``, and return it."""
    for k1, v1 in left_terms:
        limit = bound - k1
        if factor != 1:
            v1 *= factor
        for k2, v2 in right_terms:
            if k2 >= limit:
                break
            key = k1 + k2
            sums[key] = sums.get(key, 0) + v1 * v2
    return sums


class _Truncated:
    """Exact coefficients of the terms whose weight is below ``accuracy``,
    as non-zero integer numerators ``num`` over the positive ``den``.

    The arithmetic that ``TruncatedSeries`` and ``germs.Germ`` share.  A
    subclass supplies the key bits below the weight (``_SHIFT``), the
    limit of stored weights (``_LIMIT``) and the public form of a key
    (``_unpack``).  The one field that fixes a ring is ``weights``, the
    variables' weights of a germ and ``None`` for a series: operands must
    agree on it, and results copy it.  The constant term has key 0 in both
    rings.
    """

    __slots__ = ("num", "den", "accuracy", "weights")

    # key -> the one key object that every product containing it uses
    _KEYS: dict = {}

    def _store(self, coeffs: Mapping, pack: Callable) -> None:
        """Set ``num`` and ``den`` from the rational values of ``coeffs``,
        keyed by ``pack`` (after ``accuracy`` and the ring), dropping zeros
        and keys of weight at or above the accuracy.  Over the least common
        denominator the numerators need no reduction: each of its prime
        powers divides some value's denominator, and so not its numerator."""
        if not isinstance(coeffs, Mapping):
            raise ValidationError(f"coefficients must be a mapping, got {coeffs!r}")
        bound = self.accuracy * (1 << self._SHIFT)  # the least key of that weight, or inf
        kept, den = {}, 1
        for k, v in coeffs.items():
            key = pack(k)
            if _check_rational(v) and key < bound:
                kept[key] = v
                den = math.lcm(den, v.denominator)
        self.num = {k: v.numerator * (den // v.denominator) for k, v in kept.items()}
        self.den = den

    def _unchecked(self, num: dict, den: int, accuracy: Accuracy):
        """A result in the ring of ``self``, built without checks: ``num``
        must hold valid keys of weight below ``accuracy`` with non-zero
        ``int`` values, coprime as a whole to the positive ``den``."""
        out = object.__new__(type(self))
        out.weights = self.weights
        out.num = num
        out.den = den
        out.accuracy = accuracy
        return out

    def _reduced(self, num: dict, den: int, accuracy: Accuracy):
        """``_unchecked`` after dividing ``num`` and ``den`` by their content."""
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {k: v // g for k, v in num.items()}
                den //= g
        return self._unchecked(num, den, accuracy)

    def _check_ring(self, other: object) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.weights != other.weights:
            raise ValidationError("operands differ in their weights")

    def _get(self, key: int) -> Fraction:
        """The value at the stored ``key``, 0 when absent, without a precision check."""
        return Fraction(self.num.get(key, 0), self.den)

    def _weight_lower_bound(self) -> Accuracy:
        return min(self.num) >> self._SHIFT if self.num else self.accuracy

    @property
    def coeffs(self) -> dict:
        """The non-zero values as ``Fraction``s, in a new dict on each read."""
        den, unpack = self.den, self._unpack
        return {unpack(k): Fraction(v, den) for k, v in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def items(self):
        """The (key, value) pairs sorted by weight, then key."""
        den, unpack = self.den, self._unpack
        return [(unpack(k), Fraction(v, den)) for k, v in sorted(self.num.items())]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.num == other.num
            and self.den == other.den
            and self.accuracy == other.accuracy
            and self.weights == other.weights
        )

    __hash__ = None  # type: ignore[assignment]

    def agrees_with(self, other) -> bool:
        """Equality of all coefficients below the smaller accuracy."""
        self._check_ring(other)
        bound = min(self.accuracy, other.accuracy)
        left, right = self.truncate(bound), other.truncate(bound)
        return left.num == right.num and left.den == right.den

    # -- arithmetic ----------------------------------------------------------

    def truncate(self, accuracy: Accuracy):
        accuracy = _check_accuracy(accuracy)
        if accuracy >= self.accuracy:
            return self
        bound = accuracy * (1 << self._SHIFT)
        return self._reduced({k: v for k, v in self.num.items() if k < bound}, self.den, accuracy)

    def __neg__(self):
        return self._unchecked({k: -v for k, v in self.num.items()}, self.den, self.accuracy)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def _sum(self, other, sign: int):
        """self + sign*other, over the lcm of the two denominators; at unequal
        accuracies only the keys below the smaller one are merged."""
        self._check_ring(other)
        g = math.gcd(self.den, other.den)
        lift, other_lift = other.den // g, sign * (self.den // g)
        acc, right = self.accuracy, other.num.items()
        if other.accuracy == acc:
            merged = {k: v * lift for k, v in self.num.items()} if lift != 1 else dict(self.num)
        else:
            acc = min(acc, other.accuracy)
            bound = acc * (1 << self._SHIFT)
            merged = {k: v * lift for k, v in self.num.items() if k < bound}
            right = [(k, v) for k, v in right if k < bound]
        for k, v in right:
            s = merged.get(k, 0) + v * other_lift
            if s:
                merged[k] = s
            else:
                del merged[k]
        return self._reduced(merged, self.den * lift, acc)

    def scale(self, scalar):
        p, q = _check_rational(scalar).numerator, scalar.denominator
        if not p:
            return self._unchecked({}, 1, self.accuracy)
        return self._reduced({k: p * v for k, v in self.num.items()}, q * self.den, self.accuracy)

    def __mul__(self, other):
        return self._unchecked({}, 1, math.inf)._accumulate(((1, self, other),))

    def _accumulate(self, terms):
        """self + the sum of sign*f*g over the triples (sign, f, g) of
        ``terms``: the fold of ``_sum(f * g, sign)`` from self, with one
        integer accumulation over the lcm of the term denominators and one
        content reduction.  Each term bounds the accuracy by that of its
        product, min(acc f + ord g, acc g + ord f), where an empty factor's
        order is its accuracy.  That bound is all a term with an empty
        factor adds: it is not convolved or counted in the lcm.  So one
        rule covers exact zeros too, whose bound is inf."""
        acc, den, products = self.accuracy, self.den, []
        for sign, f, g in terms:
            if f is not self:
                self._check_ring(f)
            if g is not self:
                self._check_ring(g)
            term_acc = min(f.accuracy + g._weight_lower_bound(), g.accuracy + f._weight_lower_bound())
            if term_acc < acc:
                acc = term_acc
            if not f.num or not g.num:
                continue
            left, right = sorted(f.num.items()), sorted(g.num.items())
            if term_acc > self._LIMIT and (left[-1][0] + right[-1][0]) >> self._SHIFT >= self._LIMIT:
                raise ValidationError(f"a product reaches weight {self._LIMIT}, the limit of stored keys")
            term_den = f.den * g.den
            den = term_den if den == 1 else math.lcm(den, term_den)
            products.append((sign, left, right, term_den))
        bound = acc * (1 << self._SHIFT)
        sums = {}
        if self.num:
            lift = den // self.den
            sums = {k: v * lift for k, v in self.num.items() if k < bound}
        for sign, left, right, term_den in products:
            _convolve(left, right, bound, sums, sign if term_den == den else sign * (den // term_den))
        shared = self._KEYS.setdefault
        return self._reduced({shared(k, k): v for k, v in sums.items() if v}, den, acc)

    def __pow__(self, exponent: int):
        if _check_int(exponent, "exponent") < 0:
            raise ValidationError("negative powers are not supported")
        result = self._unchecked({0: 1}, 1, math.inf)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:  # a last squaring is unused and could pass the limit
                base = base * base
        return result


class TruncatedSeries(_Truncated):
    __slots__ = ()

    # the key of t^k is k, and there is no limit on it
    _SHIFT = 0
    _LIMIT = math.inf
    _unpack = int

    def __init__(self, coeffs: Mapping[int, object], accuracy: Accuracy):
        self.weights = None
        self.accuracy = _check_accuracy(accuracy)
        self._store(coeffs, lambda k: _check_int(k, "exponent", 0))

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(accuracy: Accuracy = math.inf) -> "TruncatedSeries":
        return TruncatedSeries({}, accuracy)

    @staticmethod
    def monomial(exponent: int, coefficient: object = 1, accuracy: Accuracy = math.inf) -> "TruncatedSeries":
        return TruncatedSeries({exponent: coefficient}, accuracy)

    # -- inspection --------------------------------------------------------

    def coefficient(self, k: int) -> Fraction:
        if _check_int(k, "exponent", 0) >= self.accuracy:
            raise InsufficientPrecisionError(
                f"coefficient of t^{k} requested but series is only exact below t^{self.accuracy}"
            )
        return self._get(k)

    def order(self) -> Accuracy:
        """Exact order of the series; infinity for the exact zero series."""
        if self.num or self.accuracy == math.inf:
            return self.order_lower_bound()
        raise InsufficientPrecisionError(
            f"series vanishes below t^{self.accuracy}; its order cannot be certified"
        )

    order_lower_bound = _Truncated._weight_lower_bound

    def __repr__(self) -> str:
        terms = [f"{v!r}*t^{k}" for k, v in self.items()]
        acc = "inf" if self.accuracy == math.inf else str(self.accuracy)
        return f"TruncatedSeries({' + '.join(terms) or '0'}; accuracy={acc})"

    # -- operations of series --------------------------------------------------

    def shift(self, offset: int) -> "TruncatedSeries":
        """Multiply by t^offset; offset may be negative if no exponent drops below zero."""
        _check_int(offset, "shift offset")
        if self.num and min(self.num) + offset < 0:
            raise ValidationError("shift would create negative exponents")
        acc = self.accuracy if self.accuracy == math.inf else max(self.accuracy + offset, 0)
        return self._unchecked({k + offset: v for k, v in self.num.items()}, self.den, acc)

    def derivative(self) -> "TruncatedSeries":
        acc = self.accuracy if self.accuracy == math.inf else max(self.accuracy - 1, 0)
        return self._reduced({k - 1: k * v for k, v in self.num.items() if k}, self.den, acc)


# -- composition and inversion ---------------------------------------------


def series_compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """outer(inner); requires order(inner) >= 1.

    Writes inner = c*t + delta with v = ord(delta) >= 2 and sums the Taylor
    expansion about c*t, outer(inner) = sum_j (D_j outer)(c*t) * delta^j,
    where D_j outer = sum_k C(k, j) o_k t^(k-j) is the j-th divided
    derivative (Brent & Kung, J. ACM 25 (1978), section 2).  The sum is
    taken by Horner's rule in delta and stops once j*v reaches the result
    accuracy N; the j-th step keeps terms below t^(N - j*v).  The cost
    is about N/v products, so it is cheap when delta has high order; when
    c = 0 it is the power ladder sum_k o_k inner^k.  When delta = 0 below
    the accuracy of inner, only the j = 0 term is left: each o_k below N
    is rescaled by c^k, with no Horner step or binomial, and with c = 1 the
    result is outer truncated at N.  The arithmetic runs on the stored
    numerators with one running denominator, reduced by its content after
    each step.
    """
    if inner.accuracy == 0:
        raise InsufficientPrecisionError("inner series is only exact below t^0; its constant term is unknown")
    if inner.order_lower_bound() < 1:
        raise ValidationError("inner series must have positive order")
    if not inner.num:
        # outer evaluated at something indistinguishable from 0.
        acc = min(outer.accuracy, inner.accuracy)
        const = outer.num.get(0)
        return outer._reduced({0: const} if const else {}, outer.den, acc)
    v_inner = min(inner.num)
    candidates = [math.inf]
    if outer.accuracy != math.inf:
        candidates.append(outer.accuracy * v_inner)
    if inner.accuracy != math.inf:
        positive = [k for k in outer.num if k >= 1]
        if positive:
            candidates.append(inner.accuracy + (min(positive) - 1) * v_inner)
    acc = min(candidates)
    c = inner._get(1)
    delta = sorted((k, a) for k, a in inner.num.items() if k != 1)
    numerators = outer.num
    if not delta:
        if c == 1:
            return outer.truncate(acc)
        p, q = c.numerator, c.denominator
        kept = [k for k in numerators if k < acc]
        top = max(kept, default=0)
        return outer._reduced({k: numerators[k] * p ** k * q ** (top - k) for k in kept}, outer.den * q ** top, acc)
    top = max(numerators, default=0)
    v = delta[0][0]
    depth = top if acc == math.inf else min(top, (acc - 1) // v)
    # c^e = lift[e] / q^top for the denominator q of c
    lift = [c.numerator ** e * c.denominator ** (top - e) for e in range(top + 1)] if c else [1]
    # Horner in delta; the running sum is sums / (outer.den * q^top * scale)
    sums: dict = {}
    scale = 1
    for j in range(depth, -1, -1):
        limit = acc - j * v
        if sums:
            sums = _convolve([(e, x) for e, x in sorted(sums.items()) if x], delta, limit, {})
            scale *= inner.den
        for e in range(min(len(lift), top - j + 1, limit)):
            a = numerators.get(j + e)
            if a:  # the t^e coefficient of (D_j outer)(c t)
                sums[e] = sums.get(e, 0) + math.comb(j + e, j) * a * lift[e] * scale
        g = math.gcd(scale, *sums.values())
        if g != 1:
            sums = {e: x // g for e, x in sums.items()}
            scale //= g
    den = outer.den * c.denominator ** top * scale
    return outer._reduced({e: x for e, x in sums.items() if x}, den, acc)


def series_reverse(g: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse h with g(h) = h(g) = t.

    Requires order(g) = 1 with invertible leading coefficient.  An exact
    c*t reverses to the exact t/c; any other g needs a finite accuracy, so
    an exact polynomial must be truncated first.

    Newton iteration (Brent & Kung, J. ACM 25 (1978)) with h' in place of
    1/g'(h): if h is exact below t^p and g(h) = t + r, then r = O(t^p)
    and g'(h) h' = 1 + r', so 1/g'(h) agrees with h' below t^(p-1) and
    h - r h' is exact below t^(2p-1).  The precision runs 2, 3, 5, 9,
    17, ... as p -> min(2p - 1, accuracy), each step taking one
    composition, one derivative and one product.
    """
    if g.accuracy <= 1 and not g.num:
        raise InsufficientPrecisionError(
            f"series is only exact below t^{g.accuracy}; its t^1 coefficient is unknown"
        )
    if g.order_lower_bound() < 1 or 1 not in g.num:
        raise ValidationError("series must have order exactly 1 to be reversed")
    acc = g.accuracy  # at least 2, as g has a t^1 term
    if acc == math.inf:
        if len(g.num) == 1:
            return TruncatedSeries({1: 1 / g._get(1)}, math.inf)
        raise ValidationError("reversal of an exact polynomial needs a finite accuracy; truncate first")
    h = TruncatedSeries({1: 1 / g._get(1)}, 2)
    precision = 2
    while precision < acc:
        precision = min(2 * precision - 1, acc)
        h = h._unchecked(h.num, h.den, precision)
        residual = series_compose(g.truncate(precision), h) - h._unchecked({1: 1}, 1, precision)
        if not residual.is_zero():
            h = h - residual * h.derivative()
    return h


def series_nth_root(f: TruncatedSeries, n: int) -> TruncatedSeries:
    """The n-th root f^(1/n) with constant term 1 of a unit series
    f = 1 + ..., by ``_unit_power``; an exact f other than 1 must be
    truncated first."""
    _check_int(n, "root index", 1)
    if f.accuracy == 0:
        raise InsufficientPrecisionError("series is only exact below t^0; its constant term is unknown")
    if f._get(0) != 1:
        raise ValidationError("n-th roots are only taken of unit series with constant term 1")
    if f.accuracy == math.inf and f.num.keys() == {0}:
        return TruncatedSeries({0: 1}, math.inf)
    if f.accuracy == math.inf:
        raise ValidationError("root of a non-trivial polynomial needs a finite accuracy; truncate first")
    return _unit_power(f, Fraction(1, n))


def _unit_power(f: TruncatedSeries, alpha) -> TruncatedSeries:
    """w = f^alpha for f = 1 + ... of finite accuracy and rational alpha, by
    k w_k = sum_(i=1..k) ((alpha+1) i - k) f_i w_(k-i), w_0 = 1: the t^(k-1)
    coefficients of f*w' = alpha*f'*w (Knuth, TAOCP Vol. 2, section 4.7).
    With f_i = a_i/D over the stored denominator D, each w_j computed so
    far is b_j/b_0 for coprime integers b_0 > 0, b_1, ..., which are the
    stored form of the result.
    """
    acc = int(f.accuracy)
    terms = sorted((i, a) for i, a in f.num.items() if i)
    p, q = (alpha + 1).as_integer_ratio()
    b = [1]
    for k in range(1, acc):
        s = 0
        for i, a in terms:
            if i > k:
                break
            s += (p * i - q * k) * a * b[k - i]
        # w_k = s/(q k D b_0); over that denominator the numerators have
        # content gcd(s, q k D), as b_0, ..., b_(k-1) are coprime
        step = q * k * f.den
        g = math.gcd(s, step)
        if g != step:
            b = [x * (step // g) for x in b]
        b.append(s // g)
    return f._unchecked({k: x for k, x in enumerate(b) if x}, b[0], acc)
