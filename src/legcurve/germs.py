"""Function germs in three variables (x, y, p) truncated by weighted order.

The variables carry positive integer weights; for a curve of type (n, m)
these are the orders (n, m, m-n) of x, y and the derivative coordinate p
along the parametrized curve, so the weighted valuation of a monomial is
exactly the order of its restriction to the curve.  A germ stores exact
rational coefficients for monomials of weighted valuation below
``accuracy``, in the form and with the arithmetic of ``series._Truncated``.

The stored key of x^i y^j p^l of weighted valuation w is the ``int``
``(w << 3W) | (i << 2W) | (j << W) | l``, W = ``WIDTH``.  Each exponent is
at most w, so no field carries while w < ``VALUATION_LIMIT`` = 2^W: the
key of a product of monomials is the sum of their keys, and sorted keys
come in (w, i, j, l) order.  ``partial`` and ``p_parts`` subtract from the
keys.  The layout stays in this module: ``Germ(...)``, ``coefficient``,
``items`` and ``coeffs`` take and give monomial triples and ``Fraction``s.

One table of monomial powers, ``_powers``, each entry formed only below the
table's bound, serves ``substitute``, the restriction ``evaluate_on_series``
to a curve in the chart x = t^n, and ``ConormalOracle``'s restriction of one
monomial at a time.  One sum, ``_substitute``, serves the first two and
``contact.act_on_curve``, which restricts two germs through one table: it
adds every term of a germ times its table entry (in the chart, that of
y^j p^l shifted by n*i) into one numerator dict and reduces the sum once.
Its accuracy is read off those entries, as ``_accumulate`` formed them,
and off the germ's own accuracy; no second rule recomputes it.

A germ is built as a series is.  Values from outside go through the
checked constructor ``Germ(...)``; ``zero``, ``constant`` and ``variable``
are single calls of it.  It checks the weights (a tuple of three ``int``s
of at least 1, not ``bool``s), the accuracy, that the coefficients are a
mapping, every monomial (non-negative ``int``s, valuation below the limit)
and every value (an ``int`` or a ``Fraction``, not a ``bool``).  Every germ
the library forms from stored numerators, ``from_p_parts``'s powers of p
and the contact solver's 0, 1 and p (``_zero_one_p``) included, is built
by ``_unchecked`` or ``_reduced``.  ``coefficient`` checks its monomial
and ``truncate`` its accuracy.
Products and ``_substitute`` look each key up in the table
``_Truncated._KEYS``, so equal monomials of different results share one
key object; the table holds keys only, so it is bounded by the number of
distinct monomials that they produce.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .errors import InsufficientPrecisionError, ValidationError, _check_accuracy, _check_int, _check_type
from .series import Accuracy, TruncatedSeries, _Truncated

Monomial = tuple[int, int, int]
AXES = ("x", "y", "p")

# Bits per field of a stored key: 4 * 20 = 80 bits keep a key within three
# 30-bit CPython digits, as 16-bit fields would, and allow valuations to 2^20.
WIDTH = 20
VALUATION_LIMIT = 1 << WIDTH
_MASK = VALUATION_LIMIT - 1


def format_monomial(mono: Monomial) -> str:
    """x^i y^j p^l as text, "x^2yp" style; empty for the constant monomial."""
    return "".join(f"{axis}^{e}" if e > 1 else axis for axis, e in zip(AXES, mono) if e)


def _axis_index(axis) -> int:
    if axis not in AXES:
        raise ValidationError(f"unknown axis {axis!r}; the axes are x, y and p")
    return AXES.index(axis)


def check_monomial(mono) -> Monomial:
    if not (isinstance(mono, tuple) and len(mono) == 3 and all(type(e) is int and e >= 0 for e in mono)):
        raise ValidationError(f"monomial must be a triple of non-negative integers, got {mono!r}")
    return mono


def contact_weights(n: int, m: int) -> tuple[int, int, int]:
    _check_type(n, m)
    return (n, m, m - n)


def monomials_in_valuation_range(n: int, m: int, low: int, high: int) -> list[Monomial]:
    """All (i, j, l) with low <= n*i + m*j + (m-n)*l < high, sorted by
    (valuation, i, j, l)."""
    wx, wy, wp = contact_weights(n, m)
    low, high = _check_int(low, "low"), _check_int(high, "high")
    found = []
    for j in range(high // wy + 1):
        for l in range((high - wy * j) // wp + 1):
            base = wy * j + wp * l
            # i from ceil((low - base) / wx) while the valuation stays below high
            for i in range(max(0, -((base - low) // wx)), (high - 1 - base) // wx + 1):
                found.append((base + wx * i, (i, j, l)))
    found.sort()
    return [mono for _, mono in found]


class Germ(_Truncated):
    __slots__ = ()

    _SHIFT = 3 * WIDTH
    _LIMIT = VALUATION_LIMIT

    def __init__(self, weights: tuple[int, int, int], coeffs: Mapping[Monomial, object], accuracy: Accuracy):
        if not isinstance(weights, tuple) or len(weights) != 3 or any(type(w) is not int or w < 1 for w in weights):
            raise ValidationError(f"weights must be three positive integers, got {weights!r}")
        self.weights = tuple(weights)
        self.accuracy = _check_accuracy(accuracy)
        self._store(coeffs, self._pack)

    # -- structure ---------------------------------------------------------

    def valuation_of(self, mono: Monomial) -> int:
        w = self.weights
        return mono[0] * w[0] + mono[1] * w[1] + mono[2] * w[2]

    def _pack(self, mono: Monomial) -> int:
        """The stored key of a monomial, after checking it."""
        w = self.valuation_of(check_monomial(mono))
        if w >= VALUATION_LIMIT:
            raise ValidationError(f"monomial {mono} has weighted valuation {w} >= the limit {VALUATION_LIMIT}")
        i, j, l = mono
        return (w << 3 * WIDTH) | (i << 2 * WIDTH) | (j << WIDTH) | l

    @staticmethod
    def _unpack(key: int) -> Monomial:
        return ((key >> 2 * WIDTH) & _MASK, (key >> WIDTH) & _MASK, key & _MASK)

    @staticmethod
    def zero(weights: tuple[int, int, int], accuracy: Accuracy = math.inf) -> "Germ":
        return Germ(weights, {}, accuracy)

    @staticmethod
    def constant(weights: tuple[int, int, int], value, accuracy: Accuracy = math.inf) -> "Germ":
        return Germ(weights, {(0, 0, 0): value}, accuracy)

    @staticmethod
    def variable(weights: tuple[int, int, int], axis: str, accuracy: Accuracy = math.inf) -> "Germ":
        mono = [0, 0, 0]
        mono[_axis_index(axis)] = 1
        return Germ(weights, {tuple(mono): 1}, accuracy)

    def coefficient(self, mono: Monomial) -> Fraction:
        key = self._pack(mono)
        if key >> self._SHIFT >= self.accuracy:
            raise InsufficientPrecisionError(
                f"coefficient of {mono} has weighted order >= accuracy {self.accuracy}"
            )
        return self._get(key)

    valuation_lower_bound = _Truncated._weight_lower_bound

    def valuation(self) -> Accuracy:
        if self.num or self.accuracy == math.inf:
            return self.valuation_lower_bound()
        raise InsufficientPrecisionError("germ vanishes to stated accuracy; valuation unknown")

    def in_maximal_ideal(self) -> bool:
        """True when the germ vanishes at the origin."""
        if self.accuracy <= 0:
            raise InsufficientPrecisionError("accuracy 0 germ: value at origin unknown")
        return 0 not in self.num

    def __repr__(self) -> str:
        def fmt(mono: Monomial, value) -> str:
            vars_part = format_monomial(mono)
            if not vars_part:
                return repr(value)
            return f"{value!r}*{vars_part}" if value != 1 else vars_part

        body = " + ".join(fmt(mn, v) for mn, v in self.items()) or "0"
        acc = "inf" if self.accuracy == math.inf else str(self.accuracy)
        return f"Germ({body}; accuracy={acc})"

    # -- operations of germs ---------------------------------------------------

    def partial(self, axis: str) -> "Germ":
        idx = _axis_index(axis)
        weight = self.weights[idx]
        field = WIDTH * (2 - idx)
        step = (weight << self._SHIFT) | (1 << field)  # the key of the variable
        out: dict[int, int] = {}
        for key, value in self.num.items():
            e = (key >> field) & _MASK
            if e:
                out[key - step] = e * value
        return self._reduced(out, self.den, max(self.accuracy - weight, 0))

    # -- p-power decomposition (used by the Cauchy solver) --------------------

    def p_parts(self) -> dict[int, "Germ"]:
        """Split into coefficients of powers of p (each a germ in x, y only)."""
        wp = self.weights[2]
        step = (wp << self._SHIFT) | 1  # the key of p
        parts: dict[int, dict[int, int]] = {}
        for key, value in self.num.items():
            l = key & _MASK
            parts.setdefault(l, {})[key - l * step] = value
        degrees = set(parts)
        if self.accuracy != math.inf:
            degrees |= set(range(self.accuracy // wp + 1))
        return {l: self._reduced(parts.get(l, {}), self.den, self.accuracy - l * wp) for l in degrees}

    @staticmethod
    def from_p_parts(weights: tuple[int, int, int], parts: Mapping[int, "Germ"]) -> "Germ":
        """The sum of p^l times each p-free part l, the inverse of ``p_parts``,
        as one ``_accumulate`` of the products with the exact p^l; so part l
        bounds the accuracy by its own plus l times the weight of p."""
        zero = Germ.zero(weights)
        wp = zero.weights[2]
        for l, part in parts.items():
            _check_int(l, "p-degree", 0)
            if not isinstance(part, Germ):
                raise ValidationError(f"p-part {l} must be a Germ, got {part!r}")
            if part.weights != zero.weights:
                raise ValidationError(f"p-part {l} has weights {part.weights}, not {zero.weights}")
            if any(key & _MASK for key in part.num):
                raise ValidationError("p-part germs must not contain p")
            if part.num and (max(part.num) >> Germ._SHIFT) + l * wp >= VALUATION_LIMIT:
                raise ValidationError(f"p-part {l} reaches the limit {VALUATION_LIMIT} of weighted valuations")
        p = (wp << Germ._SHIFT) | 1  # the key of p
        return zero._accumulate([(1, zero._unchecked({l * p: 1}, 1, math.inf), part) for l, part in parts.items()])


def _zero_one_p(g: Germ, accuracy: Accuracy = math.inf) -> tuple[Germ, Germ, Germ]:
    """The exact germs 0 and p and the constant 1 known below the positive
    ``accuracy``, in the ring of ``g``, built by ``_unchecked``: the
    constants the contact solver forms on every call."""
    p_key = (g.weights[2] << Germ._SHIFT) | 1
    return g._unchecked({}, 1, math.inf), g._unchecked({0: 1}, 1, accuracy), g._unchecked({p_key: 1}, 1, math.inf)


# -- unit inversion -----------------------------------------------------------


def invert_unit(g: Germ) -> Germ:
    """Inverse of a germ with invertible value at the origin; one that is
    not constant needs a finite accuracy, so an exact germ must be
    truncated first.  The powers w^k of w = 1 - g/g(0) with k*ord(w) below
    the accuracy, each one product bounded there, sum to g(0) / g."""
    if g.in_maximal_ideal():
        raise ValidationError("germ vanishes at the origin; it is not a unit")
    acc = g.accuracy
    inv_c0 = 1 / g._get(0)
    if g.num.keys() == {0}:
        return g._unchecked({0: inv_c0.numerator}, inv_c0.denominator, acc)
    if acc == math.inf:
        raise ValidationError("inverting a non-constant unit needs a finite accuracy; truncate first")
    w = g._reduced({k: v for k, v in g.num.items() if k}, g.den, acc).scale(-inv_c0)
    zero = g._unchecked({}, 1, acc)
    result = power = g._unchecked({0: 1}, 1, acc)
    for _ in range((acc - 1) // w.valuation_lower_bound()):
        power = zero._accumulate(((1, power, w),))
        result = result + power
    return result.scale(inv_c0)


# -- substitution -------------------------------------------------------------


def _powers(values, bound: Accuracy):
    """The map x^i y^j p^l -> a^i b^j c^l below ``bound`` for three values
    (a, b, c), all series or all germs.  A table keyed by monomial holds 1, a,
    b and c; each missing entry is one product of a smaller entry with one
    value, lowering l first, then j, then i, formed only below the bound."""
    values = [value.truncate(bound) for value in values]
    zero = values[0]._unchecked({}, 1, bound)
    one = values[0]._unchecked({0: 1} if bound else {}, 1, bound)  # canonical at bound 0 too
    table = {(0, 0, 0): one, (1, 0, 0): values[0], (0, 1, 0): values[1], (0, 0, 1): values[2]}

    def power(mono: Monomial):
        missing, key = [], mono
        while key not in table:
            i, j, l = key
            smaller, axis = ((i, j, l - 1), 2) if l else ((i, j - 1, 0), 1) if j else ((i - 1, 0, 0), 0)
            missing.append((key, smaller, axis))
            key = smaller
        for key, smaller, axis in reversed(missing):
            table[key] = zero._accumulate(((1, table[smaller], values[axis]),))
        return table[mono]

    return power


def _substitute(germs, values, n: int) -> list:
    """Each germ at three values, all germs or all series.  The unknown
    terms of a germ known below A land at or above its ceiling, the least
    ceil(A*v/w) over the values of finite order v and their variables'
    weights w (A when every value is an exact zero, inf for an exact
    germ); one ``_powers`` table, bounded by the largest ceiling, serves
    all germs.  The term c x^i y^j p^l adds c times the entry of
    x^i y^j p^l, or with n >= 1 (the chart x = t^n) that of y^j p^l
    shifted by n*i, into one numerator dict over the lcm of the entry
    denominators.  The sum is known below the ceiling and each shifted
    entry's accuracy; its keys below that are kept, looked up in
    ``_Truncated._KEYS``, and reduced once."""
    orders = [value._weight_lower_bound() for value in values]
    ceilings = [
        math.inf if g.accuracy == math.inf
        else min((-(-g.accuracy * v // w) for w, v in zip(g.weights, orders) if v != math.inf), default=g.accuracy)
        for g in germs
    ]
    power = _powers(values, max(ceilings))
    shared, results = _Truncated._KEYS.setdefault, []
    for g, acc in zip(germs, ceilings):
        terms, den = [], 1
        for key, c in g.num.items():
            i, j, l = Germ._unpack(key)
            entry = power((0, j, l) if n else (i, j, l))
            acc = min(acc, entry.accuracy + n * i)  # the accuracy of the shifted entry
            terms.append((n * i, c, entry))
            den = math.lcm(den, entry.den)
        sums: dict[int, int] = {}
        for offset, c, entry in terms:
            c *= den // entry.den
            for k, v in entry.num.items():
                k += offset
                sums[k] = sums.get(k, 0) + c * v
        bound = acc * (1 << values[0]._SHIFT)
        kept = {shared(k, k): v for k, v in sums.items() if v and k < bound}
        results.append(values[0]._reduced(kept, g.den * den, acc))
    return results


def substitute(g: Germ, x_value: Germ, y_value: Germ, p_value: Germ) -> Germ:
    """g(x_value, y_value, p_value) for germ arguments of positive weighted order."""
    values = (x_value, y_value, p_value)
    for value in values:
        g._check_ring(value)
        if value.valuation_lower_bound() < 1:
            raise ValidationError("substituted germs must vanish at the origin")
    return _substitute((g,), values, 0)[0]


def evaluate_on_series(g: Germ, x_series: TruncatedSeries, y_series: TruncatedSeries,
                       p_series: TruncatedSeries) -> TruncatedSeries:
    """Restrict the germ to the curve (t^n, y(t), p(t)), below the accuracy
    that ``_substitute`` reads off its terms.  The chart is x = t^n:
    ``x_series`` must be exactly t^n, n >= 1, of accuracy inf, as in
    ``PlaneCurveGerm.triple()``, or ``ValidationError`` is raised.

    The restriction of c x^i y^j p^l is c times y^j p^l shifted by n*i;
    ``_substitute`` sums them."""
    n = min(x_series.num, default=0)
    if n < 1 or x_series != x_series._unchecked({n: 1}, 1, math.inf):
        raise ValidationError(f"evaluate_on_series works in the chart x = t^n, n >= 1; got x = {x_series!r}")
    if min(y_series.order_lower_bound(), p_series.order_lower_bound()) < 1:
        raise ValidationError("triple components must have positive order")
    return _substitute((g,), (x_series, y_series, p_series), n)[0]
