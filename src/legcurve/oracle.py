"""Exact linear algebra on restrictions of contact monomials to a curve.

For a parametrized curve (t^n, y(t)) with derivative coordinate p the
restriction of a monomial x^i y^j p^l is a power series in t whose order
equals the weighted valuation n*i + m*j + (m-n)*l.  Row-reducing these
series over Q yields the set of orders of all polynomial functions along
the conormal lift, i.e. its value semigroup, together with explicit
witnesses for each attained order.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .curves import PlaneCurveGerm
from .errors import InsufficientPrecisionError, NotRealizableError
from .germs import Germ, Monomial, contact_weights
from .semigroups import NumericalSemigroup
from .series import TruncatedSeries


def monomials_in_valuation_range(n: int, m: int, low: int, high: int) -> list[Monomial]:
    """All (i, j, l) with low <= n*i + m*j + (m-n)*l < high, sorted by
    (valuation, i, j, l)."""
    wx, wy, wp = contact_weights(n, m)
    found = []
    for j in range(high // wy + 1):
        for l in range((high - wy * j) // wp + 1):
            base = wy * j + wp * l
            for i in range((high - 1 - base) // wx + 1):
                v = base + wx * i
                if low <= v < high:
                    found.append((v, (i, j, l)))
    found.sort()
    return [mono for _, mono in found]


class ConormalOracle:
    """Echelon basis of monomial restrictions, truncated below ``bound``."""

    def __init__(self, curve: PlaneCurveGerm, bound: int | None = None,
                 monomials: list[Monomial] | None = None):
        n, m = curve.n, curve.m
        if bound is None:
            # above this everything is an order of a pure monomial in x, p;
            # at least 1, so that order 0 is counted when m = n+1
            bound = max((n - 1) * (m - n - 1), 1)
        if curve.accuracy < bound + n:
            raise InsufficientPrecisionError(
                f"curve accuracy {curve.accuracy} cannot certify restriction "
                f"orders below {bound}; need at least {bound + n}"
            )
        self.curve = curve
        self.bound = bound
        self.weights = contact_weights(n, m)
        if monomials is None:
            monomials = monomials_in_valuation_range(n, m, 0, bound)
        # pivot order -> (monic series, combination of monomials)
        self.rows: dict[int, tuple[TruncatedSeries, dict[Monomial, object]]] = {}
        for mono in monomials:
            self._insert(mono)

    def restriction(self, monomial: Monomial) -> TruncatedSeries:
        """ι*(x^i y^j p^l) truncated below the oracle bound."""
        i, j, l = monomial
        x, y, p = self.curve.triple()
        out = TruncatedSeries.monomial(0, 1, self.bound)
        for series, e in ((x, i), (y, j), (p, l)):
            for _ in range(e):
                out = out * series
        return out.truncate(self.bound)

    def _insert(self, mono: Monomial) -> None:
        series = self.restriction(mono)
        combination: dict[Monomial, object] = {mono: Fraction(1)}
        while True:
            if series.is_zero():
                return
            try:
                order = series.order()
            except InsufficientPrecisionError:
                return
            if order not in self.rows:
                break
            pivot_series, pivot_comb = self.rows[order]
            factor = series.coefficient(order)
            series = series - pivot_series.scale(factor)
            for key, value in pivot_comb.items():
                combination[key] = combination.get(key, Fraction(0)) - factor * value
        lead = series.coefficient(order)
        inv = Fraction(1, lead)
        series = series.scale(inv)
        combination = {k: v * inv for k, v in combination.items() if v}
        self.rows[order] = (series, combination)

    def orders_below_bound(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))

    def semigroup(self) -> NumericalSemigroup:
        return NumericalSemigroup.from_members(self.orders_below_bound(), self.bound)

    def combination_for(self, order: int) -> dict[Monomial, object]:
        if order not in self.rows:
            raise NotRealizableError(f"no restriction of order {order} below bound {self.bound}")
        return dict(self.rows[order][1])


def conormal_semigroup(curve: PlaneCurveGerm, bound: int | None = None) -> NumericalSemigroup:
    """Value semigroup of the conormal lift of the curve."""
    return ConormalOracle(curve, bound).semigroup()


def realize_order(curve: PlaneCurveGerm, order: int) -> Germ:
    """A polynomial g in (x, y, p) whose restriction to the conormal lift is
    monic of the requested order: ι*g = t^order + higher terms.

    Prefers a single monomial of matching weighted valuation; otherwise
    searches combinations of monomials with valuation within n of the target
    before falling back to the full oracle.  Raises NotRealizableError when
    the order is not attained.
    """
    n, m = curve.n, curve.m
    weights = contact_weights(n, m)
    wx, wy, wp = weights
    if order < 0:
        raise NotRealizableError("restriction orders are non-negative")
    exact = monomials_in_valuation_range(n, m, order, order + 1)
    if exact:
        mono = exact[0]
        i, j, l = mono
        lead = curve.coefficient(m) ** (j + l) * Fraction(m, n) ** l
        return Germ(weights, {mono: Fraction(1, lead)}, math.inf)
    window_low = max(0, order - n + 1)
    near = monomials_in_valuation_range(n, m, window_low, order + 1)
    if near:
        oracle = ConormalOracle(curve, order + 1, near)
        if order in oracle.rows:
            return Germ(weights, oracle.combination_for(order), math.inf)
    oracle = ConormalOracle(curve, order + 1)
    if order in oracle.rows:
        return Germ(weights, oracle.combination_for(order), math.inf)
    raise NotRealizableError(
        f"order {order} is not the restriction order of any contact polynomial on this curve"
    )
