"""Truncated power series arithmetic against hand-computed expansions."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import legcurve.series
from legcurve.curves import PlaneCurveGerm
from legcurve.errors import InsufficientPrecisionError, ValidationError
from legcurve.germs import Germ
from legcurve.series import (
    TruncatedSeries,
    series_compose,
    series_nth_root,
    series_reverse,
)


def S(coeffs, accuracy=math.inf):
    return TruncatedSeries(coeffs, accuracy)


def test_constructor_drops_zero_coefficients():
    f = S({1: 1, 2: 0, 3: Fraction(0)})
    assert dict(f.items()) == {1: 1}


def test_constructor_rejects_negative_exponents():
    with pytest.raises(ValidationError):
        S({-1: 1})


@pytest.mark.parametrize(
    "exponent",
    [1.5, 3.0, Fraction(1), True, -1, "1", (1,)],
    ids=["float", "integral-float", "fraction", "bool", "negative", "string", "tuple"],
)
def test_malformed_exponents_are_rejected(exponent):
    with pytest.raises(ValidationError, match="exponent"):
        S({exponent: 2, 0: 1}, 4)
    with pytest.raises(ValidationError, match="exponent"):
        S({0: 1, 2: 3}, 4).coefficient(exponent)


def test_coefficient_and_order():
    f = S({2: 5, 7: -1}, 9)
    assert f.coefficient(2) == 5
    assert f.coefficient(4) == 0
    assert f.order() == 2
    with pytest.raises(InsufficientPrecisionError):
        f.coefficient(9)


def test_order_of_truncated_zero_is_undecidable():
    f = S({}, 5)
    assert f.is_zero()
    with pytest.raises(InsufficientPrecisionError):
        f.order()
    assert f.order_lower_bound() == 5
    assert S({}).order() == math.inf


def test_addition_keeps_worst_accuracy():
    f = S({1: 1}, 10)
    g = S({1: -1, 4: 2}, 6)
    h = f + g
    assert h.accuracy == 6
    assert dict(h.items()) == {4: 2}


def test_multiplication_accuracy_uses_orders():
    # product is exact below min(acc_f + ord_g, acc_g + ord_f)
    f = S({2: 1}, 5)
    g = S({3: 1}, 7)
    h = f * g
    assert h.accuracy == 8
    assert dict(h.items()) == {5: 1}


def test_multiplication_by_exact_series_is_transparent():
    f = S({0: 1, 1: 1})
    g = S({0: 1, 1: -1})
    assert dict((f * g).items()) == {0: 1, 2: -1}
    assert (f * g).accuracy == math.inf


def test_power():
    f = S({1: 1, 2: 1})
    cube = f ** 3
    # (t + t^2)^3 = t^3 + 3t^4 + 3t^5 + t^6
    assert dict(cube.items()) == {3: 1, 4: 3, 5: 3, 6: 1}
    assert f ** 0 == S({0: 1})


def test_shift_and_derivative():
    f = S({3: 2, 5: -1}, 8)
    assert dict(f.shift(-3).items()) == {0: 2, 2: -1}
    assert f.shift(-3).accuracy == 5
    with pytest.raises(ValidationError):
        f.shift(-4)
    d = f.derivative()
    assert dict(d.items()) == {2: 6, 4: -5}
    assert d.accuracy == 7


def test_compose_fixture_quadratic_in_cubic():
    outer = S({1: 1, 2: 1})
    inner = S({1: 1, 3: 1})
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 6: 1}
    assert dict(series_compose(outer, inner).items()) == expected


def test_compose_fixture_square():
    outer = S({2: 1})
    inner = S({1: 1, 2: 1})
    assert dict(series_compose(outer, inner).items()) == {2: 1, 3: 2, 4: 1}


def test_compose_requires_positive_inner_order():
    with pytest.raises(ValidationError):
        series_compose(S({1: 1}), S({0: 1, 1: 1}))


def test_compose_with_an_inner_series_unknown_at_t0_names_the_precision():
    # the order of inner is unknown, not invalid
    with pytest.raises(InsufficientPrecisionError, match=re.escape("only exact below t^0")):
        series_compose(S({1: 1}), S({}, 0))


@pytest.mark.parametrize("inner_accuracy", [math.inf, 5])
def test_compose_with_inner_exactly_t_takes_no_horner_step(monkeypatch, inner_accuracy):
    outer = S({0: Fraction(1, 7), 2: Fraction(-5, 11), 3: HUGE, 6: Fraction(2, 13)}, 9)
    calls = []
    convolve, comb = legcurve.series._convolve, math.comb
    monkeypatch.setattr(legcurve.series, "_convolve", lambda *args: calls.append(args) or convolve(*args))
    monkeypatch.setattr(math, "comb", lambda *args: calls.append(args) or comb(*args))
    # at inner accuracy 5 an unknown t^5 of inner first moves t^(5 + 2 - 1) of the result
    expected = outer if inner_accuracy == math.inf else outer.truncate(6)
    assert_same_stored_form(series_compose(outer, S({1: 1}, inner_accuracy)), expected)
    assert calls == []


def test_compose_accuracy_truncates():
    outer = S({1: 1}, 4)
    inner = S({1: 1, 5: 1})
    h = series_compose(outer, inner)
    assert h.accuracy == 4
    assert dict(h.items()) == {1: 1}


def test_reverse_fixture_catalan_signs():
    # inverse of t + t^2 is (sqrt(1+4t) - 1)/2, signed Catalan numbers
    g = series_reverse(S({1: 1, 2: 1}).truncate(6))
    assert dict(g.items()) == {1: 1, 2: -1, 3: 2, 4: -5, 5: 14}


def test_reverse_round_trip():
    f = S({1: 1, 2: 3, 4: -2}, 9)
    g = series_reverse(f)
    assert series_compose(f, g).agrees_with(S({1: 1}))
    assert series_compose(g, f).agrees_with(S({1: 1}))


def test_reverse_requires_order_one():
    with pytest.raises(ValidationError):
        series_reverse(S({2: 1}, 5))


@pytest.mark.parametrize("accuracy", [0, 1])
def test_reverse_of_an_unknown_linear_term_names_the_accuracy(accuracy):
    with pytest.raises(InsufficientPrecisionError, match=f"exact below t\\^{accuracy}"):
        series_reverse(S({}, accuracy))


@pytest.mark.parametrize("series", [S({}, 3), S({2: 1}), S({0: 1}, 1)], ids=["zero-to-3", "t^2", "constant"])
def test_reverse_of_a_known_wrong_order_is_a_validation_error(series):
    with pytest.raises(ValidationError, match="order exactly 1"):
        series_reverse(series)


@pytest.mark.parametrize("c", [1, -3, Fraction(-2, 3), Fraction(10**30, 7)])
def test_reverse_of_an_exact_linear_series_is_exact(c):
    assert series_reverse(S({1: c})) == S({1: Fraction(1, c)}, math.inf)


def test_reverse_of_an_exact_nonlinear_series_needs_an_accuracy():
    with pytest.raises(ValidationError, match="finite accuracy; truncate first"):
        series_reverse(S({1: 2, 2: 1}))


def test_reverse_at_accuracy_two_is_the_linear_inverse():
    assert series_reverse(S({1: 2, 2: 1}).truncate(2)) == S({1: Fraction(1, 2)}, 2)


@pytest.mark.parametrize(
    "g, expected, corrections",
    [
        (S({1: 3}, 20), S({1: Fraction(1, 3)}, 20), 0),
        # the residual is t^30 at precision 33 alone: zero before, zero after the correction
        (S({1: 1, 30: 1}, 40), S({1: 1, 30: -1}, 40), 1),
    ],
    ids=["3t", "t+t^30"],
)
def test_reverse_skips_the_correction_when_the_residual_vanishes(monkeypatch, g, expected, corrections):
    derivatives = []
    derivative = TruncatedSeries.derivative
    monkeypatch.setattr(TruncatedSeries, "derivative", lambda self: derivatives.append(self) or derivative(self))
    assert series_reverse(g) == expected
    assert len(derivatives) == corrections


def test_reverse_composes_once_per_newton_step_and_inverts_nothing(monkeypatch):
    g = S({k: Fraction((-1) ** k * k, k + 2) for k in range(1, 44)}, 44)
    expected = series_reverse(g)
    precisions = []
    compose = legcurve.series.series_compose
    monkeypatch.setattr(
        legcurve.series, "series_compose", lambda outer, inner: precisions.append(inner.accuracy) or compose(outer, inner)
    )
    assert series_reverse(g) == expected
    assert precisions == [3, 5, 9, 17, 33, 44]


def test_nth_root_binomial_fixture():
    f = S({0: 1, 1: 1}, 4)
    g = series_nth_root(f, 3)
    assert dict(g.items()) == {
        0: 1,
        1: Fraction(1, 3),
        2: Fraction(-1, 9),
        3: Fraction(5, 81),
    }


def test_nth_root_of_an_exact_series():
    # an exact 1 has the exact root 1; any other exact series must be truncated
    root = series_nth_root(S({0: 1}), 3)
    assert root == S({0: 1}) and root.accuracy == math.inf
    with pytest.raises(ValidationError, match="non-trivial polynomial needs a finite accuracy"):
        series_nth_root(S({0: 1, 1: 2, 2: 1}), 2)


def test_negative_powers_are_rejected():
    with pytest.raises(ValidationError, match="negative powers are not supported"):
        S({0: 1, 1: 1}, 5) ** -1


def test_nth_root_of_perfect_square():
    f = S({0: 1, 1: 2, 2: 1})  # (1+t)^2, exact
    g = series_nth_root(f.truncate(7), 2)
    assert dict(g.items()) == {0: 1, 1: 1}


def test_nth_root_requires_unit_one():
    with pytest.raises(ValidationError):
        series_nth_root(S({0: 2}, 4), 2)


def test_nth_root_of_an_accuracy_zero_series_names_the_accuracy():
    with pytest.raises(InsufficientPrecisionError, match="t\\^0"):
        series_nth_root(S({}, 0), 3)


def test_nth_root_consistency():
    f = S({0: 1, 2: -3, 3: 5}, 10)
    g = series_nth_root(f, 4)
    assert (g ** 4).agrees_with(f)


@pytest.mark.parametrize(
    "index",
    [2.5, 2.0, Fraction(2), True, False, 0, -1, "2"],
    ids=["float", "integral-float", "fraction", "true", "false", "zero", "negative", "string"],
)
def test_nth_root_rejects_a_malformed_index(index):
    with pytest.raises(ValidationError, match="root index"):
        series_nth_root(S({0: 1, 1: 1}, 4), index)


# -- the product against a naive Fraction convolution -------------------------------

HUGE = 10**30
RATIONALS = st.one_of(
    st.integers(-HUGE, HUGE),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-HUGE, HUGE), st.integers(1, HUGE)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-HUGE, HUGE)),  # integral Fraction
)
ACCURACIES = st.one_of(st.just(math.inf), st.integers(0, 14))
SERIES = st.builds(S, st.dictionaries(st.integers(0, 12), RATIONALS, max_size=8), ACCURACIES)


def naive_product(a, b):
    if (not a.coeffs and a.accuracy == math.inf) or (not b.coeffs and b.accuracy == math.inf):
        return {}, math.inf
    acc = min(a.accuracy + b.order_lower_bound(), b.accuracy + a.order_lower_bound())
    out = {}
    for k1, v1 in a.coeffs.items():
        for k2, v2 in b.coeffs.items():
            if k1 + k2 < acc:
                out[k1 + k2] = out.get(k1 + k2, Fraction(0)) + Fraction(v1) * Fraction(v2)
    return {k: v for k, v in out.items() if v}, acc


@settings(max_examples=200, deadline=None)
@example(S({}), S({1: 2}, 5))
@example(S({}, 2), S({1: Fraction(1, 7)}))  # an empty factor of finite accuracy bounds the product
@example(S({0: Fraction(3), 2: -HUGE}, 4), S({1: Fraction(1, HUGE), 3: HUGE}))
@example(S({0: 1, 5: -2}, 9), S({4: Fraction(-2, 3), 6: 7}, 7))
@given(SERIES, SERIES)
def test_product_matches_naive_fraction_convolution(a, b):
    product = a * b
    coeffs, acc = naive_product(a, b)
    assert product.coeffs == coeffs
    assert product.accuracy == acc
    assert all(type(v) in (int, Fraction) and v for v in product.coeffs.values())


# -- the unchecked arithmetic path against the public constructor -------------------


def summed(a, b, sign):
    out = dict(a.coeffs)
    for k, v in b.coeffs.items():
        out[k] = out.get(k, 0) + sign * v
    return out


def lowered(accuracy, by):
    return accuracy if accuracy == math.inf else max(accuracy - by, 0)


@settings(max_examples=150, deadline=None)
@example(S({}), S({}, 9), 0, 0, 0)
@example(S({0: HUGE, 3: Fraction(1, 3)}, 7), S({3: Fraction(-1, 3)}), Fraction(1, HUGE), 5, -3)
@given(SERIES, SERIES, st.one_of(st.just(0), RATIONALS), ACCURACIES, st.integers(-4, 6))
def test_unchecked_results_equal_the_public_constructor(a, b, scalar, cut, offset):
    assert -a == S({k: -v for k, v in a.coeffs.items()}, a.accuracy)
    assert a + b == S(summed(a, b, 1), min(a.accuracy, b.accuracy))
    assert a - b == S(summed(a, b, -1), min(a.accuracy, b.accuracy))
    assert a.scale(scalar) == S({k: scalar * v for k, v in a.coeffs.items()}, a.accuracy)
    assert a.truncate(cut) == S(a.coeffs, min(a.accuracy, cut))
    assert a * b == S(*naive_product(a, b))
    if a.coeffs and min(a.coeffs) + offset < 0:
        with pytest.raises(ValidationError):
            a.shift(offset)
    else:
        assert a.shift(offset) == S({k + offset: v for k, v in a.coeffs.items()}, lowered(a.accuracy, -offset))
    assert a.derivative() == S({k - 1: k * v for k, v in a.coeffs.items() if k}, lowered(a.accuracy, 1))


# -- composition against a naive power ladder ---------------------------------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _coprime(numerators, offset, accuracy):
    """A series whose t^k coefficient has the prime denominator PRIMES[offset + k]."""
    return S({k: Fraction(x, PRIMES[offset + k]) for k, x in numerators.items()}, accuracy)


def _split(c, delta, accuracy):
    """The inner series c*t + delta."""
    return S({1: c, **delta}, accuracy)


INNER_ACCURACIES = st.one_of(st.just(math.inf), st.integers(1, 16))
INNER = st.one_of(
    st.builds(_split, RATIONALS, st.dictionaries(st.integers(2, 12), RATIONALS, max_size=6), INNER_ACCURACIES),
    st.builds(_split, RATIONALS, st.dictionaries(st.integers(7, 20), RATIONALS, max_size=3), INNER_ACCURACIES),
    st.builds(_split, st.just(0), st.dictionaries(st.integers(2, 6), RATIONALS, max_size=4), INNER_ACCURACIES),
    st.builds(_coprime, st.dictionaries(st.integers(1, 8), st.integers(-HUGE, HUGE), max_size=5), st.just(13),
              INNER_ACCURACIES),
).filter(lambda inner: inner.coeffs)
OUTER = st.one_of(
    SERIES,
    st.builds(_coprime, st.dictionaries(st.integers(0, 12), st.integers(-HUGE, HUGE), max_size=6), st.just(0),
              ACCURACIES),
)


def naive_compose(outer, inner):
    """sum_k o_k inner^k by a Fraction power ladder, and the accuracy it is
    known to: min(N_outer * v, N_inner + (k0 - 1) * v) for v = ord(inner)
    and k0 the least positive exponent of outer (or N_outer)."""
    v = min(inner.coeffs)
    k0 = min([k for k in outer.coeffs if k >= 1] + [outer.accuracy])
    acc = min(outer.accuracy * v, inner.accuracy + (k0 - 1) * v)
    out, power = {}, {0: Fraction(1)}
    for k in range(max(outer.coeffs, default=-1) + 1):
        if k * v >= acc:
            break
        for e, x in power.items():
            out[e] = out.get(e, 0) + outer.coeffs.get(k, 0) * x
        step = {}
        for e1, x1 in power.items():
            for e2, x2 in inner.coeffs.items():
                if e1 + e2 < acc:
                    step[e1 + e2] = step.get(e1 + e2, 0) + x1 * Fraction(x2)
        power = step
    return {e: x for e, x in out.items() if x}, acc


@settings(max_examples=200, deadline=None)
@example(S({0: 5, 1: 1, 3: 2}, 10), S({1: 3, 2: Fraction(1, 2), 5: -1}, 9))  # c != 0, constant term
@example(S({2: 1, 4: Fraction(-1, 3)}), S({1: Fraction(-2, 3)}))  # inner exactly c*t
@example(S({1: 1, 2: 1, 3: 1}, 7), S({2: 1, 3: 5}, 8))  # c = 0
@example(S({1: 2, 2: -1, 5: 3}, 14), S({1: 1, 11: 7}))  # delta of high order
@example(S({}), S({1: 1, 2: 1}, 6))  # zero outer
@example(S({}, 4), S({1: 2, 3: 1}))
@example(S({0: Fraction(1, 7), 2: Fraction(5, 11), 3: Fraction(-2, 13)}, 9), S({1: 1}))  # inner exactly t
@example(S({1: Fraction(1, 7), 2: Fraction(5, 11), 4: Fraction(-2, 13)}), S({1: 1}, 6))
@example(S({0: Fraction(1, 7), 2: Fraction(5, 11), 3: Fraction(-2, 13)}), S({1: Fraction(3, 2)}))  # exactly 3t/2
@example(S({1: Fraction(1, 7), 3: Fraction(5, 11), 4: Fraction(-2, 13)}, 10), S({1: Fraction(3, 2)}, 5))
@example(
    S({0: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(1, 5), 3: Fraction(1, 7)}),
    S({1: Fraction(1, 11), 2: Fraction(1, 13), 4: Fraction(1, 17)}, 9),
)  # pairwise coprime denominators
@given(OUTER, INNER)
def test_compose_matches_power_ladder(outer, inner):
    composed = series_compose(outer, inner)
    coeffs, acc = naive_compose(outer, inner)
    assert composed.coeffs == coeffs
    assert composed.accuracy == acc
    assert all(type(v) in (int, Fraction) and v for v in composed.coeffs.values())


# -- roots against their defining identity ------------------------------------------

UNIT_VALUES = st.one_of(
    st.integers(-HUGE, HUGE),
    st.builds(Fraction, st.integers(-HUGE, HUGE), st.integers(1, HUGE)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)
DISTINCT_PRIMES = PRIMES + (101, 103, 107, 109)


@st.composite
def units(draw, constant):
    """c + ... at accuracy 1..30: sparse (at most 4 terms), dense, or dense
    with the prime denominator DISTINCT_PRIMES[k - 1] at t^k."""
    accuracy = draw(st.integers(1, 30))
    shape = draw(st.sampled_from(["sparse", "dense", "coprime"]))
    if shape == "sparse":
        coeffs = {k: draw(UNIT_VALUES) for k in draw(st.sets(st.integers(1, 29), max_size=4)) if k < accuracy}
    elif shape == "dense":
        coeffs = {k: draw(UNIT_VALUES) for k in range(1, accuracy)}
    else:
        coeffs = {k: Fraction(draw(st.integers(-HUGE, HUGE)), DISTINCT_PRIMES[k - 1]) for k in range(1, accuracy)}
    return S({0: constant, **coeffs}, accuracy)


@settings(max_examples=100, deadline=None)
@example(S({0: 1, 1: 1}, 4), 3)
@example(S({0: 1, 29: HUGE}, 30), 7)
@example(S({0: 1}, 1), 1)
@given(units(1), st.integers(1, 7))
def test_roots_and_inverses_satisfy_their_defining_identities(f, n):
    root = series_nth_root(f, n)
    assert root.accuracy == f.accuracy and root.coefficient(0) == 1
    assert (root ** n).agrees_with(f)


# -- the stored form: integer numerators over one denominator -----------------------


def assert_canonical(value):
    """Non-zero int numerators at keys below the accuracy over a positive int
    denominator, with no factor common to all of them."""
    assert type(value.den) is int and value.den > 0
    assert all(type(v) is int and v for v in value.num.values())
    assert math.gcd(value.den, *value.num.values()) == 1
    assert all(k >> value._SHIFT < value.accuracy for k in value.num)  # the weight of a key


@pytest.mark.parametrize("coeffs", [[1, 2], [(1, 0, 0)], None, 5])
def test_coefficients_other_than_a_mapping_are_rejected(coeffs):
    message = f"^coefficients must be a mapping, got {re.escape(repr(coeffs))}$"
    for build in (lambda: S(coeffs, 4), lambda: Germ((3, 10, 7), coeffs, 4), lambda: PlaneCurveGerm(3, coeffs)):
        with pytest.raises(ValidationError, match=message):
            build()


@pytest.mark.parametrize("value", [True, False, 1.5, "1", None])
def test_non_rational_values_are_rejected(value):
    with pytest.raises(ValidationError, match="not rational"):
        S({0: 1, 2: value}, 4)
    with pytest.raises(ValidationError, match="not rational"):
        S({0: 1}, 4).scale(value)


def test_every_read_is_a_fraction_and_coeffs_is_read_only():
    f = S({0: 2, 1: Fraction(4, 2), 3: Fraction(-1, 6)}, 5)
    assert (f.num, f.den) == ({0: 12, 1: 12, 3: -1}, 6)
    assert f.coeffs == {0: 2, 1: 2, 3: Fraction(-1, 6)}
    assert all(type(v) is Fraction for v in f.coeffs.values())
    assert all(type(v) is Fraction for _, v in f.items())
    assert type(f.coefficient(0)) is Fraction and type(f.coefficient(2)) is Fraction
    f.coeffs[0] = 7  # a fresh dict on every read
    assert f.coefficient(0) == 2
    with pytest.raises(AttributeError):
        f.coeffs = {}


@settings(max_examples=100, deadline=None)
@example(S({0: Fraction(1, 2), 1: Fraction(1, 2)}, 3), S({0: Fraction(1, 2)}), S({1: 6}, 9), Fraction(2), 1, 0,
         S({0: 1, 1: Fraction(1, 4)}, 5), 2, S({0: 3, 2: Fraction(1, 3)}, 4))
@example(S({}), S({}, 4), S({0: HUGE}), Fraction(1, HUGE), 0, 3, S({0: 1}, 1), 1, S({0: -1}, 1))
@given(SERIES, SERIES, SERIES, RATIONALS.filter(bool), ACCURACIES, st.integers(0, 6),
       units(1), st.integers(1, 5), RATIONALS.filter(bool).flatmap(units))
def test_results_keep_the_canonical_form(a, b, c, scalar, cut, offset, f, n, g):
    results = [
        a, -a, a + b, a - b, a.scale(scalar), a.scale(0), a.truncate(cut), a * b, a ** 2,
        a.shift(offset), a.derivative(), series_compose(a, b.shift(1)),
        series_nth_root(f, n), series_reverse(g.shift(1)),
    ]
    for value in results:
        assert_canonical(value)
    # equal values built along different paths have one stored form
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a - b == a + (-b) == -(b - a)
    assert (a * b).scale(scalar) == a.scale(scalar) * b
    assert a + a == a.scale(2)
    assert a - a == S({}, a.accuracy)


# -- the multiply-accumulate kernel against the sequential fold ---------------------


def fold(base, terms):
    """base + sum of sign*f*g, one product and one sum at a time."""
    total = base
    for sign, f, g in terms:
        total = total._sum(f * g, sign)
    return total


def assert_same_stored_form(x, y):
    assert x.coeffs == y.coeffs
    assert x.accuracy == y.accuracy
    assert (x.num, x.den) == (y.num, y.den)


WEIGHTS = (3, 10, 7)


def G(coeffs, accuracy=math.inf):
    return Germ(WEIGHTS, coeffs, accuracy)


# exact zeros, empty factors of finite accuracy, and pairwise coprime denominators
SERIES_FACTORS = st.one_of(
    SERIES,
    st.just(S({})),
    st.builds(S, st.just({}), st.integers(0, 14)),
    st.builds(_coprime, st.dictionaries(st.integers(0, 10), st.integers(-HUGE, HUGE), max_size=5),
              st.integers(0, 12), ACCURACIES),
)
MONOMIALS = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 3))
GERM_ACCURACIES = st.one_of(st.just(math.inf), st.integers(0, 40))
GERM_FACTORS = st.one_of(
    st.builds(G, st.dictionaries(MONOMIALS, RATIONALS, max_size=6), GERM_ACCURACIES),
    st.just(G({})),
    st.builds(G, st.just({}), st.integers(0, 40)),
    st.builds(G, st.dictionaries(MONOMIALS, st.sampled_from(PRIMES).map(lambda q: Fraction(1, q)), max_size=5),
              GERM_ACCURACIES),
)
SIGNS = st.sampled_from([1, -1])


@settings(max_examples=150, deadline=None)
@example(S({0: 1}, 5), [(1, S({}), S({1: 2}, 3)), (-1, S({}, 4), S({2: 1}))])  # exact and finite zeros
@example(S({0: Fraction(1, 2)}, 9), [(1, S({1: Fraction(1, 3)}, 6), S({2: Fraction(1, 5)})),
                                     (-1, S({0: Fraction(1, 7)}), S({3: Fraction(1, 11)}, 8))])
@example(S({2: 1}), [(1, S({1: 1}), S({1: -1}))])  # the sum cancels the base
@given(SERIES_FACTORS, st.lists(st.tuples(SIGNS, SERIES_FACTORS, SERIES_FACTORS), max_size=4))
def test_series_accumulate_equals_the_sequential_fold(base, terms):
    result = base._accumulate(terms)
    assert_same_stored_form(result, fold(base, terms))
    assert_canonical(result)


@settings(max_examples=150, deadline=None)
@example(G({(0, 0, 0): 1}, 12), [(1, G({}), G({(1, 0, 0): 2}, 5)), (-1, G({}, 4), G({(0, 0, 1): 1}))])
@example(G({}), [(1, G({(1, 0, 0): Fraction(1, 3)}), G({(0, 1, 0): Fraction(1, 5)}, 20)),
                 (-1, G({(0, 0, 1): Fraction(1, 7)}, 15), G({(0, 0, 0): Fraction(1, 11)}))])
@given(GERM_FACTORS, st.lists(st.tuples(SIGNS, GERM_FACTORS, GERM_FACTORS), max_size=4))
def test_germ_accumulate_equals_the_sequential_fold(base, terms):
    result = base._accumulate(terms)
    assert_same_stored_form(result, fold(base, terms))
    assert_canonical(result)


def test_accumulate_checks_every_factor_and_the_weight_limit():
    with pytest.raises(TypeError):
        S({0: 1})._accumulate([(1, S({1: 1}), G({(1, 0, 0): 1}))])
    with pytest.raises(ValidationError, match="weights"):
        G({})._accumulate([(1, G({(1, 0, 0): 1}), Germ((3, 11, 8), {(0, 1, 0): 1}, 30))])
    big = G({(0, 0, 74899): 1})  # valuation 7 * 74899, below 2^20; its square is not
    with pytest.raises(ValidationError, match="limit of stored keys"):
        G({})._accumulate([(1, big, big)])


@settings(max_examples=150, deadline=None)
@example((S({0: 1, 4: Fraction(1, 3)}, 9), S({1: Fraction(1, 5), 7: 2}, 3)), 1)
@example((G({(0, 0, 0): Fraction(1, 2), (0, 1, 0): 3}, 30), G({(1, 0, 0): Fraction(1, 7)}, 10)), -1)
@given(st.one_of(st.tuples(SERIES_FACTORS, SERIES_FACTORS), st.tuples(GERM_FACTORS, GERM_FACTORS)), SIGNS)
def test_a_sum_at_unequal_accuracies_equals_the_truncated_sum(pair, sign):
    a, b = pair
    acc = min(a.accuracy, b.accuracy)
    assert_same_stored_form(a._sum(b, sign), a.truncate(acc)._sum(b.truncate(acc), sign))


# -- the direct constructors against the public one -----------------------------------


@pytest.mark.parametrize("accuracy", [0, 1, 3, 4, math.inf])
@pytest.mark.parametrize("coefficient", [1, 0, -7, Fraction(2, 3), Fraction(6, 3), Fraction(0), HUGE])
def test_monomial_and_zero_equal_the_public_constructor(coefficient, accuracy):
    assert TruncatedSeries.monomial(3, coefficient, accuracy) == S({3: coefficient}, accuracy)
    assert TruncatedSeries.monomial(0, coefficient, accuracy) == S({0: coefficient}, accuracy)
    assert TruncatedSeries.zero(accuracy) == S({}, accuracy)
    assert_canonical(TruncatedSeries.monomial(3, coefficient, accuracy))


@pytest.mark.parametrize(
    ("direct", "public"),
    [
        (lambda: TruncatedSeries.monomial(2, True, 5), lambda: S({2: True}, 5)),
        (lambda: TruncatedSeries.monomial(2, 1.5, 5), lambda: S({2: 1.5}, 5)),
        (lambda: TruncatedSeries.monomial(-1, 1, 5), lambda: S({-1: 1}, 5)),
        (lambda: TruncatedSeries.monomial(2.0, 1, 5), lambda: S({2.0: 1}, 5)),
        (lambda: TruncatedSeries.monomial(2, 1, 2.5), lambda: S({2: 1}, 2.5)),
        (lambda: TruncatedSeries.monomial(2, 1, -1), lambda: S({2: 1}, -1)),
        (lambda: TruncatedSeries.monomial(-1, True, -1), lambda: S({-1: True}, -1)),  # accuracy first
        (lambda: TruncatedSeries.zero(2.5), lambda: S({}, 2.5)),
        (lambda: TruncatedSeries.zero(True), lambda: S({}, True)),
    ],
    ids=["bool", "float", "negative-exponent", "float-exponent", "float-accuracy", "negative-accuracy",
         "check-order", "zero-float-accuracy", "zero-bool-accuracy"],
)
def test_monomial_and_zero_reject_what_the_public_constructor_rejects(direct, public):
    with pytest.raises(ValidationError) as expected:
        public()
    with pytest.raises(ValidationError, match=f"^{re.escape(str(expected.value))}$"):
        direct()


def test_the_ring_is_the_one_weights_field():
    # a series stores None; results copy the field, and operands must agree on it
    series, germ = S({0: 1, 2: Fraction(1, 3)}, 9), G({(1, 0, 0): 1}, 20)
    assert series.weights is None
    assert (series * series).weights is None and (-series).truncate(4).weights is None
    assert (germ * germ).weights == germ.partial("x").weights == (3, 10, 7)
    with pytest.raises(TypeError, match="^cannot combine TruncatedSeries with Germ$"):
        series + germ
    with pytest.raises(ValidationError, match="^operands differ in their weights$"):
        germ - Germ((3, 11, 8), {(0, 1, 0): 1}, 30)
    assert germ != Germ((3, 11, 8), {(1, 0, 0): 1}, 20)
