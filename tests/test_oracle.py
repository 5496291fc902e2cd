"""Restriction-order linear algebra along the conormal lift.

Expected semigroups were frozen by hand from the echelon process: for
x = t^3, y = t^10 + t^11 the restrictions x^3 = t^9, y = t^10 + t^11 and
x p = (10/3) t^10 + (11/3) t^11 leave 3 x p - 10 y = t^11, so 11 is an
order while 8 never is.
"""

from fractions import Fraction

import pytest

from legcurve.curves import PlaneCurveGerm
from legcurve.errors import InsufficientPrecisionError, NotRealizableError
from legcurve.germs import evaluate_on_series
from legcurve.oracle import (
    ConormalOracle,
    conormal_semigroup,
    monomials_in_valuation_range,
    realize_order,
)
from legcurve.semigroups import NumericalSemigroup, generic_semigroup, two_generator_semigroup


def test_monomial_enumeration():
    monos = monomials_in_valuation_range(3, 10, 0, 12)
    assert monos == [
        (0, 0, 0),
        (1, 0, 0),
        (2, 0, 0),
        (0, 0, 1),
        (3, 0, 0),
        (0, 1, 0),
        (1, 0, 1),
    ]
    assert monomials_in_valuation_range(3, 10, 11, 12) == []
    assert monomials_in_valuation_range(3, 10, 13, 14) == [(1, 1, 0), (2, 0, 1)]


def test_oracle_orders_and_semigroup():
    curve = PlaneCurveGerm(3, {10: 1, 11: 1})
    oracle = ConormalOracle(curve)
    assert oracle.bound == 12
    assert oracle.orders_below_bound() == (0, 3, 6, 7, 9, 10, 11)
    assert oracle.semigroup() == generic_semigroup(3, 10)


def test_oracle_combination_for():
    curve = PlaneCurveGerm(3, {10: 1, 11: 1})
    oracle = ConormalOracle(curve)
    assert oracle.combination_for(11) == {(1, 0, 1): 3, (0, 1, 0): -10}
    with pytest.raises(NotRealizableError):
        oracle.combination_for(8)


def test_conormal_semigroup_fixtures():
    cases = [
        (3, {10: 1, 11: 1}, (1, 2, 4, 5, 8)),
        (3, {10: 1, 12: 1}, (1, 2, 4, 5, 8, 11)),
        (3, {10: 1, 14: 1}, (1, 2, 4, 5, 8, 11)),
        (3, {11: 1, 13: 1}, (1, 2, 4, 5, 7, 10)),
        (3, {14: 1, 16: 1}, (1, 2, 4, 5, 7, 8, 10, 13)),
        (2, {7: 1}, (1, 3)),
    ]
    for n, coeffs, gaps in cases:
        got = conormal_semigroup(PlaneCurveGerm(n, coeffs))
        assert got.gaps == gaps, (n, coeffs)


def test_types_with_m_equal_n_plus_one_have_no_gaps():
    # <n, m-n> = <n, 1> contains everything, and the default bound stays positive
    for n in (2, 3, 4):
        curve = PlaneCurveGerm(n, {n + 1: 1, n + 2: Fraction(-2, 3)}, accuracy=n + 4)
        assert conormal_semigroup(curve) == NumericalSemigroup(0, ())


def test_non_generic_curve_is_two_generated():
    got = conormal_semigroup(PlaneCurveGerm(3, {10: 1, 12: 1}))
    assert got == two_generator_semigroup(3, 7)


def test_generic_agreement_more_types():
    for n, m, coeffs in [(3, 11, {11: 1, 13: 1}), (4, 9, {9: 1, 10: 1, 11: 1})]:
        assert conormal_semigroup(PlaneCurveGerm(n, coeffs)) == generic_semigroup(n, m)


def test_accuracy_guard():
    curve = PlaneCurveGerm(3, {10: 1, 11: 1}, 14)
    with pytest.raises(InsufficientPrecisionError, match="need at least 15"):
        ConormalOracle(curve)
    # a narrower question is still answerable
    assert ConormalOracle(curve, 10).orders_below_bound() == (0, 3, 6, 7, 9)


def test_realize_order_single_monomials():
    curve = PlaneCurveGerm(3, {10: 1, 11: 1})
    for order, expected in [
        (3, {(1, 0, 0): 1}),
        (10, {(0, 1, 0): 1}),
        (13, {(1, 1, 0): 1}),
        (14, {(0, 0, 2): Fraction(9, 100)}),
        (15, {(5, 0, 0): 1}),
        (16, {(2, 1, 0): 1}),
        (17, {(0, 1, 1): Fraction(3, 10)}),
    ]:
        assert dict(realize_order(curve, order).coeffs) == expected, order


def test_realize_order_needs_cancellation():
    curve = PlaneCurveGerm(3, {10: 1, 11: 1})
    g = realize_order(curve, 11)
    assert dict(g.coeffs) == {(1, 0, 1): 3, (0, 1, 0): -10}


def test_realize_order_is_monic():
    curve = PlaneCurveGerm(3, {10: 1, 11: 2, 13: -1})
    for order in (3, 7, 10, 11, 13, 14, 17):
        g = realize_order(curve, order)
        restricted = evaluate_on_series(g, *curve.triple())
        assert restricted.order() == order
        assert restricted.coefficient(order) == 1


def test_realize_order_gap_orders():
    curve = PlaneCurveGerm(3, {10: 1, 11: 1})
    for order in (1, 2, 4, 5, 8):
        with pytest.raises(NotRealizableError):
            realize_order(curve, order)
    with pytest.raises(NotRealizableError):
        realize_order(curve, -1)


def test_realize_order_scaled_lead():
    # non-monic curve coefficient feeds into the normalizing constant
    curve = PlaneCurveGerm(3, {10: 4, 11: 1})
    g = realize_order(curve, 14)
    assert dict(g.coeffs) == {(0, 0, 2): Fraction(9, 1600)}
    restricted = evaluate_on_series(g, *curve.triple())
    assert restricted.order() == 14 and restricted.coefficient(14) == 1
