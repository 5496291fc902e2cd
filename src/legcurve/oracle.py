"""Exact linear algebra on restrictions of contact monomials to a curve.

For a parametrized curve (t^n, y(t)) with derivative coordinate p the
restriction of a monomial x^i y^j p^l is a power series in t whose order
equals the weighted valuation n*i + m*j + (m-n)*l.  Row-reducing these
series over Q yields the set of orders of all polynomial functions along
the conormal lift, i.e. its value semigroup, together with explicit
witnesses for each attained order.

Since x = t^n exactly, the restriction of x^i y^j p^l is that of y^j p^l
shifted by n*i.  Each oracle keeps a table of the powers y^j p^l below
its bound, ``germs._powers`` (which ``substitute`` and
``evaluate_on_series`` also read), that builds each one from a smaller
one with a single product.  The row reduction works on the restriction
rows alone and is fraction-free (Bareiss 1968; Geddes, Czapor and
Labahn, ch. 9): a row is kept as integer numerators over one
denominator, eliminated by integer multiply-and-subtract on its tail from
the pivot order with the tail's content divided out, and turned into
``Fraction`` values only when read.  Each row records the multipliers and
contents of its steps, so the monomial combination that witnesses its
order is replayed from the combinations of its pivots only when
``combination_for`` asks.  A row whose order is at or above the least
order from which every order below the bound has a pivot reduces to
zero, and is dropped on arrival.  ``conormal_semigroup`` recognizes the
generic semigroup from the orders below its conductor plus n.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .curves import PlaneCurveGerm
from .errors import InsufficientPrecisionError, NotRealizableError, _check_int
from .germs import Germ, Monomial, _powers, check_monomial, contact_weights, monomials_in_valuation_range
from .semigroups import NumericalSemigroup, generic_semigroup
from .series import TruncatedSeries


class EchelonRow:
    """An echelon row, monic at its pivot order: integer ``numerators`` of
    its restriction series (dense, one per exponent below the oracle bound,
    without common content) over a positive ``denominator``, and how the row
    was made.  It began as the restriction of ``monomial``, with numerators
    over ``start``; each of its ``steps`` (pivot order, lead, content) made
    it ((pivot denominator) * row - lead * pivot row) / content; ``lead`` is
    its final lead before its content was divided out.  The combination of
    monomials whose restriction the row is is not stored:
    ``ConormalOracle.combination_for`` replays it from this record."""

    __slots__ = ("numerators", "denominator", "monomial", "start", "steps", "lead")

    def __init__(self, numerators: list[int], denominator: int, monomial: Monomial, start: int,
                 steps: list[tuple[int, int, int]], lead: int):
        self.numerators = numerators
        self.denominator = denominator
        self.monomial = monomial
        self.start = start
        self.steps = steps
        self.lead = lead

    @property
    def series(self) -> TruncatedSeries:
        den = self.denominator
        return TruncatedSeries(
            {k: Fraction(v, den) for k, v in enumerate(self.numerators) if v}, len(self.numerators)
        )


def _certified_bound(curve: PlaneCurveGerm, bound: int | None = None) -> int:
    """The oracle bound, by default the conductor (n-1)(m-n-1) of <n, m-n>,
    at least 1 so that order 0 is counted when m = n+1: above it every
    order is that of a pure monomial in x and p.  Raises
    InsufficientPrecisionError unless the curve is known below bound + n,
    as the restrictions below the bound need."""
    n, m = curve.n, curve.m
    if bound is None:
        bound = max((n - 1) * (m - n - 1), 1)
    if curve.accuracy < _check_int(bound, "oracle bound", 1) + n:
        raise InsufficientPrecisionError(
            f"curve accuracy {curve.accuracy} cannot certify restriction "
            f"orders below {bound}; need at least {bound + n}"
        )
    return bound


class ConormalOracle:
    """Echelon basis of monomial restrictions, truncated below ``bound``."""

    def __init__(self, curve: PlaneCurveGerm, bound: int | None = None,
                 monomials: list[Monomial] | None = None):
        n, m = curve.n, curve.m
        self.bound = bound = _certified_bound(curve, bound)
        self._n = n
        self._power = _powers((TruncatedSeries.monomial(n, 1, bound), curve.y_series(), curve.p_series()), bound)
        if monomials is None:
            monomials = monomials_in_valuation_range(n, m, 0, bound)
        self.rows: dict[int, EchelonRow] = {}
        # the least f with a row at every order in [f, bound)
        self._floor = bound
        # pivot order -> the combination of monomials restricting to its row
        self._combinations: dict[int, dict[Monomial, Fraction]] = {}
        for mono in monomials:
            self._insert(mono)

    def restriction(self, monomial: Monomial) -> TruncatedSeries:
        """ι*(x^i y^j p^l) truncated below the oracle bound: the table entry
        of y^j p^l, read once, its exponents shifted by n*i."""
        i, j, l = check_monomial(monomial)
        entry, offset, bound = self._power((0, j, l)), self._n * i, self.bound
        shifted = {k + offset: v for k, v in entry.num.items() if k + offset < bound}
        return entry._reduced(shifted, entry.den, min(bound, entry.accuracy + offset))

    def _insert(self, mono: Monomial) -> None:
        # the row is kept up to a non-zero rational factor, as integers: the
        # numerators of the restriction, then per step
        # ((pivot denominator) * row - lead * pivot row) / content on the
        # tail from the pivot order, the entries below it being zero
        restriction = self.restriction(mono)
        order = min(restriction.num, default=self.bound)
        if order >= self._floor:
            # the rows span every series supported in [order, bound), so
            # this one reduces to zero
            return
        row = [0] * self.bound
        for k, v in restriction.num.items():
            row[k] = v
        steps = []
        while order in self.rows:
            pivot = self.rows[order]
            lead, scale = row[order], pivot.denominator
            row[order:] = [scale * a - lead * b for a, b in zip(row[order:], pivot.numerators[order:])]
            step, order = order, next((k for k in range(order + 1, self.bound) if row[k]), self.bound)
            if order >= self._floor:
                return
            content = math.gcd(*row[order:])
            if content > 1:
                row[order:] = [a // content for a in row[order:]]
            steps.append((step, lead, content))
        lead = row[order]
        content = math.gcd(*row[order:])
        if lead < 0:
            content = -content
        self.rows[order] = EchelonRow(
            [a // content for a in row], lead // content, mono, restriction.den, steps, lead
        )
        while self._floor - 1 in self.rows:
            self._floor -= 1

    def orders_below_bound(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))

    def semigroup(self) -> NumericalSemigroup:
        return NumericalSemigroup.from_members(self.orders_below_bound(), self.bound)

    def combination_for(self, order: int) -> dict[Monomial, Fraction]:
        """The monomial combination whose restriction is ``rows[order].series``,
        as a new dict; built on the first request, after those of the rows
        stored before it."""
        if order not in self.rows:
            raise NotRealizableError(f"no restriction of order {order} below bound {self.bound}")
        for k, row in self.rows.items():  # a row is reduced by rows stored before it
            if k not in self._combinations:
                self._combinations[k] = self._replay(row)
            if k == order:
                return dict(self._combinations[k])

    def _replay(self, row: EchelonRow) -> dict[Monomial, Fraction]:
        """The combination of ``row`` from its record: if the integer row is
        the restriction of C, a step makes it that of
        (pivot denominator) / content * (C - lead * pivot combination)."""
        combination = {row.monomial: Fraction(row.start)}
        for order, lead, content in row.steps:
            for key, v in self._combinations[order].items():
                combination[key] = combination.get(key, 0) - lead * v
            scale = Fraction(self.rows[order].denominator, content)
            combination = {key: scale * v for key, v in combination.items()}
        return {key: v / row.lead for key, v in combination.items() if v}


def conormal_semigroup(curve: PlaneCurveGerm) -> NumericalSemigroup:
    """Value semigroup of the conormal lift of the curve.

    The curve must be known below the full oracle bound plus n.  For a
    type with m >= 2n+1 an oracle truncated at b = c + n, c the conductor
    of the generic semigroup Γ_gen, runs first (when b is below the full
    bound).  It finds Γ ∩ [0, b), and n ∈ Γ since x = t^n; so when its
    orders are those of Γ_gen below b, [c, c + n) lies in Γ, hence all of
    [c, ∞), and Γ = Γ_gen: the cached ``generic_semigroup(n, m)`` itself is
    returned.  Otherwise, and for m < 2n+1, the full oracle decides.
    """
    n, m = curve.n, curve.m
    full = _certified_bound(curve)
    if m >= 2 * n + 1:
        generic = generic_semigroup(n, m)
        oracle = ConormalOracle(curve, min(full, generic.conductor + n))
        if oracle.orders_below_bound() == tuple(generic.members_below(oracle.bound)):
            return generic
        if oracle.bound == full:
            return oracle.semigroup()
    return ConormalOracle(curve, full).semigroup()


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
    if _check_int(order, "order") < 0:
        raise NotRealizableError("restriction orders are non-negative")
    # the least (i, j, l) of this valuation; the j of one i lie in one class mod m - n
    wx, wy, wp = weights
    for i in range(order // wx + 1):
        rest = order - wx * i
        for j in range(min(rest // wy, wp - 1) + 1):
            if (rest - wy * j) % wp == 0:
                l = (rest - wy * j) // wp
                lead = curve.coefficient(m) ** (j + l) * Fraction(m, n) ** l
                return Germ(weights, {(i, j, l): Fraction(1, lead)}, math.inf)
    # the window of the n orders up to the target holds a multiple of n,
    # the valuation of a power of x, so it is never empty
    near = monomials_in_valuation_range(n, m, max(0, order - n + 1), order + 1)
    for monomials in (near, None):
        oracle = ConormalOracle(curve, order + 1, monomials)
        if order in oracle.rows:
            return Germ(weights, oracle.combination_for(order), math.inf)
    raise NotRealizableError(
        f"order {order} is not the restriction order of any contact polynomial on this curve"
    )
