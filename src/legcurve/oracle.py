"""Exact linear algebra on restrictions of contact monomials to a curve.

For a parametrized curve (t^n, y(t)) with derivative coordinate p the
restriction of a monomial x^i y^j p^l is a power series in t whose order
equals the weighted valuation n*i + m*j + (m-n)*l.  Row-reducing these
series over Q yields the set of orders of all polynomial functions along
the conormal lift, i.e. its value semigroup, together with explicit
witnesses for each attained order.

Since x = t^n exactly, the restriction of x^i y^j p^l is that of y^j p^l
shifted by n*i; each oracle caches the powers y^j p^l below its bound and
builds each one from a smaller one with a single product.  The row
reduction is fraction-free: a row is kept as integer numerators of its
series and of its monomial combination over one denominator, eliminated
by integer multiply-and-subtract with the common content divided out, and
turned into ``Fraction`` values only when read.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .curves import PlaneCurveGerm
from .errors import InsufficientPrecisionError, NotRealizableError, ValidationError
from .germs import Germ, Monomial, contact_weights, monomials_in_valuation_range
from .semigroups import NumericalSemigroup
from .series import TruncatedSeries


class EchelonRow:
    """An echelon row, monic at its pivot order, as integer numerators over
    one positive ``denominator``: the restriction series (dense, one entry
    per exponent below the oracle bound) and the combination of monomials
    whose restriction it is."""

    __slots__ = ("numerators", "combination_numerators", "denominator")

    def __init__(self, numerators: list[int], combination_numerators: dict[Monomial, int],
                 denominator: int):
        self.numerators = numerators
        self.combination_numerators = combination_numerators
        self.denominator = denominator

    @property
    def series(self) -> TruncatedSeries:
        den = self.denominator
        return TruncatedSeries(
            {k: Fraction(v, den) for k, v in enumerate(self.numerators) if v}, len(self.numerators)
        )

    @property
    def combination(self) -> dict[Monomial, Fraction]:
        den = self.denominator
        return {key: Fraction(v, den) for key, v in self.combination_numerators.items()}


class ConormalOracle:
    """Echelon basis of monomial restrictions, truncated below ``bound``."""

    def __init__(self, curve: PlaneCurveGerm, bound: int | None = None,
                 monomials: list[Monomial] | None = None):
        n, m = curve.n, curve.m
        if bound is None:
            # above this everything is an order of a pure monomial in x, p;
            # at least 1, so that order 0 is counted when m = n+1
            bound = max((n - 1) * (m - n - 1), 1)
        if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
            raise ValidationError(f"oracle bound must be a positive integer, got {bound!r}")
        if curve.accuracy < bound + n:
            raise InsufficientPrecisionError(
                f"curve accuracy {curve.accuracy} cannot certify restriction "
                f"orders below {bound}; need at least {bound + n}"
            )
        self.curve = curve
        self.bound = bound
        _, y, p = curve.triple()
        # (j, l) -> y^j p^l truncated below the bound
        self._powers = {
            (0, 0): TruncatedSeries.monomial(0, 1, bound),
            (1, 0): y.truncate(bound),
            (0, 1): p.truncate(bound),
        }
        if monomials is None:
            monomials = monomials_in_valuation_range(n, m, 0, bound)
        self.rows: dict[int, EchelonRow] = {}
        for mono in monomials:
            self._insert(mono)

    def _power(self, j: int, l: int) -> TruncatedSeries:
        """y^j p^l below the bound; each missing entry is one product of a
        cached smaller power with y or p."""
        powers, key = self._powers, (j, l)
        missing = []
        while (j, l) not in powers:
            missing.append((j, l))
            j, l = (j, l - 1) if l else (j - 1, 0)
        for j, l in reversed(missing):
            smaller, factor = ((j, l - 1), (0, 1)) if l else ((j - 1, 0), (1, 0))
            powers[(j, l)] = (powers[smaller] * powers[factor]).truncate(self.bound)
        return powers[key]

    def restriction(self, monomial: Monomial) -> TruncatedSeries:
        """ι*(x^i y^j p^l) truncated below the oracle bound: x = t^n, so it is
        y^j p^l shifted by n*i."""
        i, j, l = monomial
        return self._power(j, l).shift(self.curve.n * i).truncate(self.bound)

    def _insert(self, mono: Monomial) -> None:
        # the row is kept up to a non-zero rational factor, as integers:
        # the stored numerators of the restriction, then
        # (pivot denominator) * row - (row's lead) * pivot row per step
        restriction = self.restriction(mono)
        row = [0] * self.bound
        for k, v in restriction.num.items():
            row[k] = v
        combination = {mono: restriction.den}
        order = next((k for k, a in enumerate(row) if a), None)
        while order is not None and order in self.rows:
            pivot = self.rows[order]
            lead, scale = row[order], pivot.denominator
            row = [scale * a - lead * b for a, b in zip(row, pivot.numerators)]
            for key in combination:
                combination[key] *= scale
            for key, value in pivot.combination_numerators.items():
                combination[key] = combination.get(key, 0) - lead * value
            content = math.gcd(*row, *combination.values())
            if content > 1:
                row = [a // content for a in row]
                combination = {key: v // content for key, v in combination.items()}
            order = next((k for k in range(order + 1, self.bound) if row[k]), None)
        if order is None:
            return
        lead = row[order]
        content = math.gcd(*row, *combination.values())
        if lead < 0:
            content = -content
        self.rows[order] = EchelonRow(
            [a // content for a in row],
            {key: v // content for key, v in combination.items() if v},
            lead // content,
        )

    def orders_below_bound(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))

    def semigroup(self) -> NumericalSemigroup:
        return NumericalSemigroup.from_members(self.orders_below_bound(), self.bound)

    def combination_for(self, order: int) -> dict[Monomial, object]:
        if order not in self.rows:
            raise NotRealizableError(f"no restriction of order {order} below bound {self.bound}")
        return self.rows[order].combination


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
