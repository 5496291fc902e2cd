"""Polynomial germs in (x, y, p) with weighted valuations."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legcurve.curves import PlaneCurveGerm
from legcurve.errors import InsufficientPrecisionError, ValidationError
from legcurve.germs import (
    AXES,
    VALUATION_LIMIT,
    Germ,
    _powers,
    _zero_one_p,
    contact_weights,
    evaluate_on_series,
    invert_unit,
    substitute,
)
from legcurve.series import TruncatedSeries

W = contact_weights(3, 10)


def G(coeffs, accuracy=math.inf):
    return Germ(W, coeffs, accuracy)


def test_contact_weights():
    assert contact_weights(3, 10) == (3, 10, 7)
    assert contact_weights(2, 5) == (2, 5, 3)
    for n, m in [(1.5, 3), (3, 10.0), (4, 10), (5, 3)]:
        with pytest.raises(ValidationError):
            contact_weights(n, m)


def test_weighted_valuation():
    g = G({(2, 0, 1): 1, (0, 1, 0): -4})
    # x^2 p weighs 2*3 + 7 = 13, y weighs 10
    assert g.valuation() == 10
    assert g.valuation_of((2, 0, 1)) == 13


def test_coefficient_respects_accuracy():
    g = G({(1, 0, 0): 2}, 9)
    assert g.coefficient((1, 0, 0)) == 2
    assert g.coefficient((0, 0, 1)) == 0
    with pytest.raises(InsufficientPrecisionError):
        g.coefficient((3, 0, 0))  # valuation 9 is not stored


def test_maximal_ideal_membership():
    assert G({(1, 0, 0): 1}).in_maximal_ideal()
    assert not G({(0, 0, 0): 1, (1, 0, 0): 1}).in_maximal_ideal()


def test_product_and_power():
    x = Germ.variable(W, "x")
    p = Germ.variable(W, "p")
    assert (x + p) * (x - p) == x * x - p * p
    assert (x * p) ** 2 == G({(2, 0, 2): 1})


def test_partial_derivatives():
    g = G({(2, 1, 0): 1, (1, 0, 2): 3})
    assert g.partial("x") == G({(1, 1, 0): 2, (0, 0, 2): 3})
    assert g.partial("y") == G({(2, 0, 0): 1})
    assert g.partial("p") == G({(1, 0, 1): 6})


@pytest.mark.parametrize("axis", ["z", "X", "", 0, None])
def test_an_unknown_axis_is_named(axis):
    message = f"unknown axis {axis!r}; the axes are x, y and p"
    with pytest.raises(ValidationError, match=re.escape(message)):
        Germ.variable(W, axis)
    with pytest.raises(ValidationError, match=re.escape(message)):
        Germ.variable((0, 0, 0), axis, -1)  # the axis is checked first
    with pytest.raises(ValidationError, match=re.escape(message)):
        G({(1, 0, 0): 1}).partial(axis)


@pytest.mark.parametrize("accuracy", [0, 1, 3, 7, 10, 11, math.inf])
@pytest.mark.parametrize("value", [1, 0, -7, Fraction(2, 3), Fraction(6, 3), Fraction(0), 10**30])
def test_zero_constant_and_variable_equal_the_public_constructor(value, accuracy):
    # accuracies at and above the weights 3, 7 and 10 of x, p and y
    assert Germ.constant(W, value, accuracy) == G({(0, 0, 0): value}, accuracy)
    assert Germ.zero(W, accuracy) == G({}, accuracy)
    for axis, mono in zip(AXES, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        assert Germ.variable(W, axis, accuracy) == G({mono: 1}, accuracy)
    assert_canonical(Germ.constant(W, value, accuracy))


@pytest.mark.parametrize("weights", [W, contact_weights(2, 5), contact_weights(5, 22)])
@pytest.mark.parametrize("accuracy", [1, 11, 40, math.inf])
def test_the_contact_solvers_zero_one_and_p_equal_the_public_constructor(weights, accuracy):
    g = Germ(weights, {(1, 0, 0): Fraction(2, 3), (0, 1, 1): -5}, 60)
    zero, one, p = _zero_one_p(g, accuracy)
    assert zero == Germ.zero(weights)
    assert one == Germ.constant(weights, 1, accuracy)
    assert p == Germ.variable(weights, "p")
    assert _zero_one_p(g)[1] == Germ.constant(weights, 1)
    for germ in (zero, one, p):
        assert_canonical(germ)


@pytest.mark.parametrize(
    ("direct", "public"),
    [
        (lambda: Germ.constant(W, True), lambda: Germ(W, {(0, 0, 0): True}, math.inf)),
        (lambda: Germ.constant(W, 1.5, 5), lambda: Germ(W, {(0, 0, 0): 1.5}, 5)),
        (lambda: Germ.constant((3, 10), 1), lambda: Germ((3, 10), {(0, 0, 0): 1}, math.inf)),
        (lambda: Germ.zero((3, 0, 7)), lambda: Germ((3, 0, 7), {}, math.inf)),
        (lambda: Germ.variable((3, -10, 7), "y"), lambda: Germ((3, -10, 7), {(0, 1, 0): 1}, math.inf)),
        (lambda: Germ.variable((3, VALUATION_LIMIT, 7), "y"),
         lambda: Germ((3, VALUATION_LIMIT, 7), {(0, 1, 0): 1}, math.inf)),
        (lambda: Germ.variable(W, "p", 2.5), lambda: Germ(W, {(0, 0, 1): 1}, 2.5)),
        (lambda: Germ.constant(W, 1, -1), lambda: Germ(W, {(0, 0, 0): 1}, -1)),
        (lambda: Germ.zero(W, 2.5), lambda: Germ(W, {}, 2.5)),
        (lambda: Germ.constant((3, 0, 7), True, -1), lambda: Germ((3, 0, 7), {(0, 0, 0): True}, -1)),
    ],
    ids=["bool", "float", "two-weights", "zero-weight", "negative-weight", "weight-at-the-limit",
         "float-accuracy", "negative-accuracy", "zero-float-accuracy", "weights-first"],
)
def test_zero_constant_and_variable_reject_what_the_public_constructor_rejects(direct, public):
    with pytest.raises(ValidationError) as expected:
        public()
    with pytest.raises(ValidationError, match=f"^{re.escape(str(expected.value))}$"):
        direct()


@pytest.mark.parametrize(
    ("build", "weights"),
    [
        (lambda: Germ((3.0, 10, 7), {(1, 0, 0): 1}, 20), (3.0, 10, 7)),
        (lambda: Germ.zero((3.0, 10, 7)), (3.0, 10, 7)),
        (lambda: Germ((True, 10, 7), {(1, 0, 0): 1}, 20), (True, 10, 7)),
        (lambda: Germ.variable((3, 10, True), "p"), (3, 10, True)),
        (lambda: Germ(5, {}, 20), 5),
        (lambda: Germ.constant(None, 1), None),
        (lambda: Germ.from_p_parts((3, 10), {}), (3, 10)),
        (lambda: Germ.from_p_parts((3, 10, 0.5), {0: Germ.zero(W)}), (3, 10, 0.5)),
    ],
    ids=["float-weight", "float-weight-zero", "bool-weight", "bool-weight-variable", "an-int", "none",
         "p-parts-two-weights", "p-parts-float-weight"],
)
def test_weights_other_than_three_positive_ints_are_named(build, weights):
    message = f"weights must be three positive integers, got {weights!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()


def test_p_parts_round_trip():
    g = G({(1, 0, 0): 1, (1, 0, 1): 2, (0, 1, 2): -1}, 40)
    parts = g.p_parts()
    # every p-degree with a non-empty truncation window is reported, so the
    # solver can tell "no term" from "not known"
    assert sorted(parts) == [0, 1, 2, 3, 4, 5]
    assert parts[2] == Germ(W, {(0, 1, 0): -1}, 40 - 2 * 7)
    assert parts[4].is_zero()
    assert Germ.from_p_parts(W, parts) == g


def test_p_parts_exact_input():
    g = G({(0, 0, 1): 1, (1, 0, 0): -2})
    parts = g.p_parts()
    assert sorted(parts) == [0, 1]
    assert Germ.from_p_parts(W, parts) == g


def test_from_p_parts_rejects_a_part_of_other_weights():
    part = Germ(contact_weights(4, 9), {(1, 0, 0): 1}, 20)
    with pytest.raises(ValidationError, match=re.escape("p-part 0 has weights (4, 9, 5), not (3, 10, 7)")):
        Germ.from_p_parts(W, {0: part})


def test_invert_unit_geometric():
    one_plus_x = Germ.constant(W, 1) + Germ.variable(W, "x")
    inv = invert_unit(one_plus_x.truncate(10))
    assert inv == G({(0, 0, 0): 1, (1, 0, 0): -1, (2, 0, 0): 1, (3, 0, 0): -1}, 10)
    assert (one_plus_x * inv).agrees_with(Germ.constant(W, 1))


def test_invert_unit_of_an_exact_non_constant_germ_needs_truncation():
    with pytest.raises(ValidationError, match="non-constant unit needs a finite accuracy"):
        invert_unit(Germ.constant(W, 1) + Germ.variable(W, "x"))


def test_invert_unit_rejects_non_units():
    with pytest.raises(ValidationError):
        invert_unit(Germ.variable(W, "x").truncate(5))


def test_invert_unit_of_an_unknown_constant_term_is_a_precision_error():
    with pytest.raises(InsufficientPrecisionError, match="value at origin unknown"):
        invert_unit(Germ.constant(W, 1, 0))


def test_substitute_is_a_ring_map():
    x, y, p = (Germ.variable(W, a) for a in "xyp")
    g1 = x * p + y
    g2 = x + p * p
    vx, vy, vp = x + p, y - x * x, p + y
    lhs = substitute(g1 * g2, vx, vy, vp)
    rhs = substitute(g1, vx, vy, vp) * substitute(g2, vx, vy, vp)
    assert lhs == rhs


def test_evaluate_euler_style_combination():
    # 3xp - 10y restricted to x = t^3, y = t^10 + 2t^13 leaves 6t^13
    curve = PlaneCurveGerm(3, {10: 1, 13: 2})
    g = G({(1, 0, 1): 3, (0, 1, 0): -10})
    out = evaluate_on_series(g, *curve.triple())
    assert dict(out.items()) == {13: 6}


def test_evaluate_p_square():
    curve = PlaneCurveGerm(3, {10: 1})
    g = G({(0, 0, 2): 1})
    out = evaluate_on_series(g, *curve.triple())
    assert out.order() == 14
    assert out.coefficient(14) == Fraction(100, 9)


def test_evaluate_respects_products():
    curve = PlaneCurveGerm(3, {10: 1, 11: -3, 14: 5})
    x, y, p = curve.triple()
    g1 = G({(1, 0, 1): 1, (0, 1, 0): 7})
    g2 = G({(2, 0, 0): -2, (0, 0, 1): 1})
    lhs = evaluate_on_series(g1 * g2, x, y, p)
    rhs = evaluate_on_series(g1, x, y, p) * evaluate_on_series(g2, x, y, p)
    assert lhs.agrees_with(rhs)


@pytest.mark.parametrize(
    "x",
    [TruncatedSeries({3: 1, 4: 1}, math.inf), TruncatedSeries({3: 2}, math.inf), TruncatedSeries({3: 1}, 20)],
    ids=["t^n+t^(n+1)", "2t^n", "finite-accuracy"],
)
def test_evaluate_on_series_works_in_the_chart_x_equals_t_to_the_n(x):
    curve = PlaneCurveGerm(3, {10: 1, 11: -3})
    _, y, p = curve.triple()
    with pytest.raises(ValidationError, match="chart x = t\\^n"):
        evaluate_on_series(G({(1, 0, 0): 1, (0, 1, 0): 2}), x, y, p)


def test_truncate_and_agrees_with():
    g = G({(1, 0, 0): 1, (0, 1, 1): 5})  # valuations 3 and 17
    cut = g.truncate(15)
    assert cut.coeffs == {(1, 0, 0): 1}
    assert cut.accuracy == 15
    assert cut.agrees_with(g)
    assert g.agrees_with(cut)
    assert not g.agrees_with(G({(1, 0, 0): 2}))


def test_weight_mismatch_rejected():
    other = Germ(contact_weights(2, 5), {(1, 0, 0): 1}, math.inf)
    with pytest.raises(ValidationError):
        G({(1, 0, 0): 1}) + other
    with pytest.raises(ValidationError):
        G({(1, 0, 0): 1}) * other
    assert G({(1, 0, 0): 1}) != other


def test_germs_and_series_do_not_mix():
    germ, series = G({(0, 0, 0): 1}), TruncatedSeries({0: 1}, math.inf)
    with pytest.raises(TypeError):
        germ + series
    with pytest.raises(TypeError):
        series * germ
    assert germ != series


# -- the product against a naive Fraction convolution -------------------------------

HUGE = 10**30
RATIONALS = st.one_of(
    st.integers(-HUGE, HUGE),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-HUGE, HUGE), st.integers(1, HUGE)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-HUGE, HUGE)),  # integral Fraction
)
MONOMIALS = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 3))
ACCURACIES = st.one_of(st.just(math.inf), st.integers(0, 40))
GERMS = st.builds(G, st.dictionaries(MONOMIALS, RATIONALS, max_size=8), ACCURACIES)


def naive_product(a, b):
    if (not a.coeffs and a.accuracy == math.inf) or (not b.coeffs and b.accuracy == math.inf):
        return {}, math.inf
    acc = min(a.accuracy + b.valuation_lower_bound(), b.accuracy + a.valuation_lower_bound())
    out = {}
    for k1, v1 in a.coeffs.items():
        for k2, v2 in b.coeffs.items():
            key = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
            if sum(e * w for e, w in zip(key, W)) < acc:
                out[key] = out.get(key, Fraction(0)) + Fraction(v1) * Fraction(v2)
    return {k: v for k, v in out.items() if v}, acc


@settings(max_examples=200, deadline=None)
@example(G({}), G({(1, 0, 0): 2}, 5))
@example(G({}, 4), G({(1, 0, 0): Fraction(1, 7)}))  # an empty factor of finite accuracy bounds the product
@example(G({(0, 0, 0): Fraction(3), (0, 1, 0): -HUGE}, 12), G({(1, 0, 0): Fraction(1, HUGE), (0, 0, 1): HUGE}))
@example(G({(0, 0, 0): 1, (2, 0, 0): -2}, 13), G({(0, 0, 1): Fraction(-2, 3), (1, 0, 1): 7}, 11))
@given(GERMS, GERMS)
def test_product_matches_naive_fraction_convolution(a, b):
    product = a * b
    coeffs, acc = naive_product(a, b)
    assert product.coeffs == coeffs
    assert product.accuracy == acc
    assert all(type(v) in (int, Fraction) and v for v in product.coeffs.values())


# -- substitution against a term-by-term reference ----------------------------------


def reference_substitution(g, values):
    """g at three germs, summed term by term: each monomial x^i y^j p^l is
    coeff * X**i * Y**j * P**l, from plain germ powers and products.

    The accuracy is the conservative bound of the contract.  A term with a
    positive power of an exact zero (no terms, order inf) is exactly 0 and
    bounds nothing.  Any other term is known below the least, over its
    factors of finite accuracy, of that accuracy plus the orders of the
    other factors.  The unknown tail of g, of weights at or above its
    accuracy, lands at orders at or above ceil(accuracy * rho), rho the least
    ratio of a finite order to its variable's weight, or at the accuracy
    itself when every value is an exact zero."""
    orders = [value.valuation_lower_bound() for value in values]
    acc, terms = math.inf, []
    for mono, coeff in g.items():
        term = Germ.constant(W, coeff)
        for value, e in zip(values, mono):
            term = term * value**e
        terms.append(term)
        if any(e and v == math.inf for e, v in zip(mono, orders)):
            continue
        base = sum(e * v for e, v in zip(mono, orders) if e)
        acc = min([acc] + [value.accuracy + base - v for value, e, v in zip(values, mono, orders) if e])
    if g.accuracy != math.inf:
        ratios = [Fraction(v, w) for v, w in zip(orders, W) if v != math.inf]
        acc = min(acc, math.ceil(g.accuracy * min(ratios)) if ratios else g.accuracy)
    return sum(terms, G({}, acc))


# germs of positive order: non-constant monomials and a positive accuracy
VALUES = st.builds(
    G,
    st.dictionaries(MONOMIALS.filter(any), RATIONALS, max_size=3),
    st.one_of(st.just(math.inf), st.integers(1, 40)),
)


@settings(max_examples=150, deadline=None)
# repeated (j, l) with different i, and the constant monomial, in a finite-accuracy g
@example(
    G({(0, 0, 0): 5, (1, 1, 0): 2, (2, 1, 0): Fraction(-1, 3), (0, 0, 1): 7, (3, 0, 1): -2}, 30),
    G({(1, 0, 0): 1, (0, 0, 1): Fraction(1, 2)}),
    G({(0, 1, 0): 1, (2, 0, 0): -3}, 25),
    G({(0, 0, 1): 1, (1, 0, 1): HUGE}, 19),
)
# every value an exact zero, and values that are zero below a finite accuracy
@example(G({(0, 0, 0): 2, (1, 0, 0): 1}, 12), G({}), G({}), G({}))
@example(G({(0, 2, 0): 1, (1, 0, 2): 3}), G({}, 8), G({(1, 0, 0): 1}), G({}, 5))
@example(G({(0, 1, 0): 1, (1, 0, 1): 1}), G({}), G({(0, 0, 1): 1}), G({}, 1))
@given(GERMS, VALUES, VALUES, VALUES)
def test_substitute_matches_a_term_by_term_reference(g, x_value, y_value, p_value):
    result = substitute(g, x_value, y_value, p_value)
    expected = reference_substitution(g, (x_value, y_value, p_value))
    assert result.coeffs == expected.coeffs
    assert result.accuracy == expected.accuracy
    assert_canonical(result)


def test_a_power_of_an_exact_zero_bounds_no_accuracy():
    # x*p is exactly 0 when x is, though p is known only below 1
    result = substitute(G({(0, 1, 0): 1, (1, 0, 1): 1}), G({}), G({(0, 0, 1): 1}), G({}, 1))
    assert result == G({(0, 0, 1): 1})
    assert substitute(G({(0, 1, 1): 1}), G({}), G({}), G({}, 1)) == G({})


# -- the power table against plain powers --------------------------------------------

# series of positive order, as in the chart x = t^n
SERIES_VALUES = st.builds(
    TruncatedSeries,
    st.dictionaries(st.integers(1, 6), RATIONALS, max_size=3),
    st.one_of(st.just(math.inf), st.integers(1, 40)),
)
# bound 0, bounds among the accuracies, and bounds above every one of them
TABLE_BOUNDS = st.one_of(st.just(0), st.integers(0, 60), st.just(100), st.just(math.inf))


@settings(max_examples=150, deadline=None)
@example((G({(1, 0, 0): 1}), G({(0, 1, 0): HUGE}, 12), G({}, 5)), 0, [(2, 1, 1)])
@example((G({}), G({(0, 0, 1): Fraction(1, 3)}), G({(1, 0, 0): 1}, 9)), 100, [(3, 2, 3), (0, 0, 2), (1, 1, 0)])
@given(
    st.one_of(st.tuples(VALUES, VALUES, VALUES), st.tuples(SERIES_VALUES, SERIES_VALUES, SERIES_VALUES)),
    TABLE_BOUNDS,
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), max_size=8),
)
def test_power_table_entries_equal_truncated_powers(values, bound, monomials):
    """Every entry, whichever entries were built before it, is the plain
    power a^i b^j c^l truncated at the bound: the same num, den and accuracy."""
    power = _powers(values, bound)
    a, b, c = values
    for i, j, l in monomials + [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        entry = power((i, j, l))
        assert entry == (a**i * b**j * c**l).truncate(bound)


def reference_restriction(g, y, p):
    """g on the curve (t^3, y, p), summed term by term: each monomial
    x^i y^j p^l is coeff * t^(3i) * y**j * p**l, from plain series products,
    known below the accuracy rule of ``reference_substitution``."""
    values = (TruncatedSeries.monomial(3, 1), y, p)
    orders = [value.order_lower_bound() for value in values]
    acc, terms = math.inf, []
    for (i, j, l), coeff in g.items():
        terms.append(TruncatedSeries.monomial(3 * i, coeff) * y**j * p**l)
        if any(e and v == math.inf for e, v in zip((i, j, l), orders)):
            continue
        base = sum(e * v for e, v in zip((i, j, l), orders) if e)
        acc = min([acc] + [value.accuracy + base - v for value, e, v in zip(values, (i, j, l), orders) if e])
    if g.accuracy != math.inf:
        ratios = [Fraction(v, w) for v, w in zip(orders, W) if v != math.inf]
        acc = min(acc, math.ceil(g.accuracy * min(ratios)) if ratios else g.accuracy)
    return sum(terms, TruncatedSeries.zero(acc))


@settings(max_examples=150, deadline=None)
# y, p and g each at a finite and at an infinite accuracy
@example(G({(0, 1, 0): 2, (1, 0, 1): -1, (2, 1, 1): Fraction(1, 3)}, 30),
         TruncatedSeries({1: 1, 4: HUGE}, 12), TruncatedSeries({2: Fraction(-1, 2)}, math.inf))
@example(G({(0, 0, 0): 5, (3, 0, 0): 1, (0, 0, 2): 7}),
         TruncatedSeries({3: 1}, math.inf), TruncatedSeries({1: 2, 5: 1}, 9))
@example(G({(0, 2, 0): 1, (1, 1, 1): HUGE}, 17), TruncatedSeries({}, math.inf), TruncatedSeries({}, 6))
@given(GERMS, SERIES_VALUES, SERIES_VALUES)
def test_evaluate_on_series_matches_a_term_by_term_reference(g, y, p):
    result = evaluate_on_series(g, TruncatedSeries.monomial(3, 1), y, p)
    expected = reference_restriction(g, y, p)
    assert (result.num, result.den, result.accuracy) == (expected.num, expected.den, expected.accuracy)


# -- the unchecked arithmetic path against the public constructor -------------------


@pytest.mark.parametrize(
    "mono",
    [(1, 0), (1, 0, 0, 2), (1.5, 0, 0), (Fraction(1), 0, 0), (True, 0, 0), (-1, 0, 0), "xyp"],
    ids=["pair", "quadruple", "float", "fraction", "bool", "negative", "string"],
)
def test_malformed_monomials_are_rejected(mono):
    with pytest.raises(ValidationError, match="monomial"):
        G({mono: 1})
    with pytest.raises(ValidationError, match="monomial"):
        G({(1, 0, 0): 1}).coefficient(mono)


@pytest.mark.parametrize("accuracy", [math.inf, 2, 20])
@pytest.mark.parametrize("bad", [2.5, -1, True])
def test_truncate_rejects_an_invalid_accuracy(bad, accuracy):
    for value in (G({(0, 0, 0): 1}, accuracy), TruncatedSeries({0: 1}, accuracy)):
        with pytest.raises(ValidationError, match="accuracy"):
            value.truncate(bad)
    with pytest.raises(ValidationError, match="accuracy"):
        G({(0, 0, 0): 1}, bad)
    with pytest.raises(ValidationError, match="accuracy"):
        TruncatedSeries({0: 1}, bad)


def test_products_share_monomial_keys():
    a = G({(1, 0, 0): 2}) * G({(0, 1, 1): 3})
    b = G({(1, 1, 0): 5}) * G({(0, 0, 1): 7})
    assert a.coeffs == {(1, 1, 1): 6} and b.coeffs == {(1, 1, 1): 35}
    (key_a,), (key_b,) = a.num, b.num
    assert type(key_a) is int
    assert key_a is key_b


def test_substitute_shares_monomial_keys_with_products():
    ref = G({(1, 0, 0): 1}) * G({(0, 1, 1): 1})
    x, y, p = (Germ.variable(W, axis) for axis in AXES)
    result = substitute(G({(1, 1, 1): 1}), x, y, p)
    assert result == ref
    (key,), (ref_key,) = result.num, ref.num
    assert key is ref_key


def test_monomials_at_the_valuation_limit_are_rejected():
    # x^i weighs 3i; VALUATION_LIMIT = 2^20 is not a multiple of 3
    below, above = (VALUATION_LIMIT - 1) // 3, (VALUATION_LIMIT + 2) // 3
    assert G({(below, 0, 0): 1}).coefficient((below, 0, 0)) == 1
    for accuracy in (math.inf, 9):
        with pytest.raises(ValidationError, match=f"limit {VALUATION_LIMIT}"):
            G({(above, 0, 0): 1}, accuracy)
        with pytest.raises(ValidationError, match=f"limit {VALUATION_LIMIT}"):
            G({}, accuracy).coefficient((above, 0, 0))
        with pytest.raises(ValidationError, match=f"limit {VALUATION_LIMIT}"):
            Germ.from_p_parts(W, {above: G({(0, 0, 0): 1}, accuracy)})


def test_powers_up_to_the_valuation_limit():
    x = Germ.variable(W, "x")
    below, above = (VALUATION_LIMIT - 1) // 3, (VALUATION_LIMIT + 2) // 3
    assert (x**below).coeffs == {(below, 0, 0): 1}
    with pytest.raises(ValidationError, match="limit"):
        x**above


@settings(max_examples=100, deadline=None)
@given(GERMS)
def test_items_are_sorted_by_valuation_then_monomial(g):
    assert [mono for mono, _ in g.items()] == sorted(g.coeffs, key=lambda mono: (g.valuation_of(mono), mono))
    assert Germ(W, g.coeffs, g.accuracy) == g


def summed(a, b, sign):
    out = dict(a.coeffs)
    for k, v in b.coeffs.items():
        out[k] = out.get(k, 0) + sign * v
    return out


def partial_coeffs(g, idx):
    out = {}
    for mono, v in g.coeffs.items():
        if mono[idx]:
            key = list(mono)
            key[idx] -= 1
            out[tuple(key)] = mono[idx] * v
    return out


SCALARS = st.one_of(st.just(0), RATIONALS)


@settings(max_examples=150, deadline=None)
@example(G({}), G({}, 9), 0, 0)
@example(G({(0, 0, 0): HUGE, (1, 0, 1): Fraction(1, 3)}, 17), G({(1, 0, 1): Fraction(-1, 3)}), Fraction(1, HUGE), 10)
@given(GERMS, GERMS, SCALARS, ACCURACIES)
def test_trusted_results_equal_the_public_constructor(a, b, scalar, cut):
    assert -a == G({k: -v for k, v in a.coeffs.items()}, a.accuracy)
    assert a + b == G(summed(a, b, 1), min(a.accuracy, b.accuracy))
    assert a - b == G(summed(a, b, -1), min(a.accuracy, b.accuracy))
    assert a.scale(scalar) == G({k: scalar * v for k, v in a.coeffs.items()}, a.accuracy)
    assert a.truncate(cut) == G(a.coeffs, min(a.accuracy, cut))
    assert a * b == G(*naive_product(a, b))
    for idx, axis in enumerate(AXES):
        acc = a.accuracy if a.accuracy == math.inf else max(a.accuracy - W[idx], 0)
        assert a.partial(axis) == G(partial_coeffs(a, idx), acc)
    parts = a.p_parts()
    for l, part in parts.items():
        acc = a.accuracy if a.accuracy == math.inf else max(a.accuracy - l * W[2], 0)
        assert part == G({(i, j, 0): v for (i, j, e), v in a.coeffs.items() if e == l}, acc)
    assert set(parts) >= {l for (_, _, l) in a.coeffs}


# -- the stored form: integer numerators over one denominator -----------------------


def assert_canonical(germ):
    """Non-zero int numerators at monomials below the accuracy over a positive
    int denominator, with no factor common to all of them."""
    assert type(germ.den) is int and germ.den > 0
    assert all(type(v) is int and v for v in germ.num.values())
    assert math.gcd(germ.den, *germ.num.values()) == 1
    assert all(germ.valuation_of(mono) < germ.accuracy for mono in germ.coeffs)


@pytest.mark.parametrize("value", [True, False, 1.5, "1", None])
def test_non_rational_values_are_rejected(value):
    with pytest.raises(ValidationError, match="not rational"):
        G({(0, 0, 0): 1, (1, 0, 0): value})


UNIT_REMAINDERS = st.dictionaries(MONOMIALS.filter(any), RATIONALS, max_size=6)


@settings(max_examples=100, deadline=None)
@example(G({(0, 0, 0): Fraction(1, 2), (1, 0, 0): Fraction(3, 2)}, 20), G({(0, 1, 0): 2}), Fraction(2),
         {(1, 0, 0): Fraction(1, 2)}, Fraction(1, 2), 12)
@given(GERMS, GERMS, RATIONALS.filter(bool), UNIT_REMAINDERS, RATIONALS.filter(bool), st.integers(1, 40))
def test_results_keep_the_canonical_form(a, b, scalar, remainder, constant, accuracy):
    unit = G({(0, 0, 0): constant, **remainder}, accuracy)
    results = [a, -a, a + b, a - b, a.scale(scalar), a.truncate(accuracy), a * b, invert_unit(unit)]
    results += [a.partial(axis) for axis in AXES] + list(a.p_parts().values())
    for value in results:
        assert_canonical(value)
    assert (a * b).scale(scalar) == a.scale(scalar) * b
    assert a - b == -(b - a)
    assert (invert_unit(unit) * unit).agrees_with(G({(0, 0, 0): 1}))


P_FREE_PARTS = st.dictionaries(
    st.integers(0, 5),
    st.builds(lambda coeffs, accuracy: G({(i, j, 0): v for (i, j, _), v in coeffs.items()}, accuracy),
              st.dictionaries(MONOMIALS, RATIONALS, max_size=5), ACCURACIES),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@example({(1, 0, 0): 1, (1, 0, 1): 2, (0, 1, 2): -1}, 40, {})
@example({(0, 0, 1): Fraction(1, 3), (1, 0, 0): Fraction(-2, 5)}, 8, {0: G({(1, 0, 0): 1}), 2: G({}, 3)})
@given(st.dictionaries(MONOMIALS, RATIONALS, max_size=8), st.integers(0, 40), P_FREE_PARTS)
def test_from_p_parts_inverts_p_parts_at_finite_and_infinite_accuracy(coeffs, accuracy, parts):
    for g in (G(coeffs, accuracy), G(coeffs)):
        joined = Germ.from_p_parts(W, g.p_parts())
        assert joined == g
        assert_canonical(joined)
    # parts of unequal accuracies, against the public constructor
    joined = Germ.from_p_parts(W, parts)
    acc = min((part.accuracy + l * W[2] for l, part in parts.items()), default=math.inf)
    assert joined == G({(i, j, l): v for l, part in parts.items() for (i, j, _), v in part.coeffs.items()}, acc)
    assert_canonical(joined)


def test_a_germ_that_vanishes_to_its_accuracy_has_no_valuation():
    with pytest.raises(InsufficientPrecisionError, match="^germ vanishes to stated accuracy; valuation unknown$"):
        Germ(W, {}, 20).valuation()
    assert Germ(W, {}, math.inf).valuation() == math.inf


def test_from_p_parts_rejects_a_part_that_contains_p():
    with pytest.raises(ValidationError, match="^p-part germs must not contain p$"):
        Germ.from_p_parts(W, {0: G({(1, 0, 0): 1, (0, 0, 1): 2})})


def test_substitute_rejects_a_value_that_does_not_vanish():
    x, y, p = (Germ.variable(W, axis) for axis in AXES)
    with pytest.raises(ValidationError, match="^substituted germs must vanish at the origin$"):
        substitute(x * y, x, G({(0, 0, 0): 1}) + y, p)


def test_evaluate_on_series_rejects_a_y_series_of_order_0():
    x_series = TruncatedSeries.monomial(3)
    with pytest.raises(ValidationError, match="^triple components must have positive order$"):
        evaluate_on_series(G({(1, 0, 0): 1}), x_series, TruncatedSeries({0: 1, 10: 1}, 20),
                           TruncatedSeries({7: 1}, 20))
