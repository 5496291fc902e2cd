"""Restriction-order linear algebra along the conormal lift.

Expected semigroups were frozen by hand from the echelon process: for
x = t^3, y = t^10 + t^11 the restrictions x^3 = t^9, y = t^10 + t^11 and
x p = (10/3) t^10 + (11/3) t^11 leave 3 x p - 10 y = t^11, so 11 is an
order while 8 never is.
"""

import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legcurve.contact import forget_transform
from legcurve.curves import PlaneCurveGerm, default_accuracy
from legcurve.cyclotomic import Cyclotomic, cyclotomic_polynomial
from legcurve.errors import InsufficientPrecisionError, NotRealizableError, ValidationError
from legcurve.expansion import ExpansionContext
from legcurve.germs import Germ, contact_weights, evaluate_on_series, monomials_in_valuation_range
from legcurve.moduli import canonical_point, orbit_equivalent, rotate_point
from legcurve.oracle import (
    ConormalOracle,
    conormal_semigroup,
    monomials_in_valuation_range,
    realize_order,
)
from legcurve.sampling import random_curve, random_germ, trial_rng
from legcurve.semigroups import (
    NumericalSemigroup,
    free_indices,
    generic_semigroup,
    moduli_dimension,
    two_generator_semigroup,
    weighted_monomial_count,
)
from legcurve.series import TruncatedSeries
from legcurve.sympoly import Poly


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


@pytest.mark.parametrize("n, m", [(3, 10), (4, 11), (5, 12)])
def test_realize_order_takes_the_least_monomial_of_the_order(n, m):
    curve = PlaneCurveGerm(n, {m: 2, m + 1: 1})
    for order in range(200):
        exact = monomials_in_valuation_range(n, m, order, order + 1)
        if exact:
            i, j, l = exact[0]
            lead = 2 ** (j + l) * Fraction(m, n) ** l
            assert dict(realize_order(curve, order).coeffs) == {exact[0]: 1 / lead}, order


def test_realize_order_of_a_high_order_lists_no_monomials():
    curve = PlaneCurveGerm(3, {10: 1, 11: 1}, 30)
    start = time.perf_counter()
    witness = realize_order(curve, 10 ** 6)
    assert time.perf_counter() - start < 1
    [(i, j, l)] = witness.coeffs
    assert (i, j) == (0, 5) and 3 * i + 10 * j + 7 * l == 10 ** 6


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


@pytest.mark.parametrize("order", [18, 23])
def test_realize_order_falls_back_to_the_full_oracle(order):
    # no monomial has the target valuation for the weights (5, 12, 7), and the
    # monomials of the window [order - 4, order] leave no row at the target
    curve = PlaneCurveGerm(5, {12: 1, 18: 1}, 30)
    assert monomials_in_valuation_range(5, 12, order, order + 1) == []
    near = monomials_in_valuation_range(5, 12, order - 4, order + 1)
    assert order not in ConormalOracle(curve, order + 1, near).rows
    restricted = evaluate_on_series(realize_order(curve, order), *curve.triple())
    assert restricted.order() == order and restricted.coefficient(order) == 1


@pytest.mark.parametrize("bound", [0, -1, True, 5.5, "7"])
def test_bound_must_be_a_positive_int(bound):
    curve = PlaneCurveGerm(3, {10: 1, 11: 1})
    with pytest.raises(ValidationError, match=f"oracle bound must be a positive integer, got {bound!r}"):
        ConormalOracle(curve, bound)


# -- the shifted restrictions and the integer echelon against plain references -------


def unrelated_denominator_curve(n, m, accuracy, seed):
    """Coefficients below ``accuracy`` whose denominators are products of two
    distinct primes above 2^15, pairwise coprime."""
    rng = random.Random(seed)
    prime = 1 << 15
    coefficients = {}
    for e in range(m, accuracy):
        p = prime = sympy.nextprime(prime)
        q = prime = sympy.nextprime(prime)
        coefficients[e] = Fraction(rng.choice((-1, 1)) * rng.randrange(1 << 29, 1 << 30), p * q)
    return PlaneCurveGerm(n, coefficients, accuracy)


RESTRICTION_CURVES = [
    random_curve(n, m, trial_rng(100 * n + m, 0), accuracy=(n - 1) * (m - 1) + 3 + n)
    for n, m in [(3, 4), (3, 10), (4, 11), (5, 22)]
] + [unrelated_denominator_curve(3, 10, 24, 310)]


@pytest.mark.parametrize("curve", RESTRICTION_CURVES, ids=["3-4", "3-10", "4-11", "5-22", "3-10-unrelated"])
def test_restriction_is_the_product_from_scratch(curve):
    n, m = curve.n, curve.m
    bound = curve.accuracy - n
    oracle = ConormalOracle(curve, bound)
    x, y, p = curve.triple()
    for i, j, l in monomials_in_valuation_range(n, m, 0, bound):
        product = (x ** i * y ** j * p ** l).truncate(bound)
        got = oracle.restriction((i, j, l))
        assert got.coeffs == product.coeffs, (i, j, l)
        assert got.accuracy == product.accuracy == bound, (i, j, l)


def reference_restriction(curve, monomial, bound):
    """Dense Fraction coefficients of x^i y^j p^l below ``bound``, with
    x = t^n and p = y'(t) / (n t^(n-1)), by schoolbook products."""
    n = curve.n
    y = [Fraction(curve.coefficients.get(e, 0)) for e in range(bound)]
    p = [Fraction(e + n, n) * curve.coefficients.get(e + n, 0) for e in range(bound)]
    out = [Fraction(0)] * bound
    out[0] = Fraction(1)
    i, j, l = monomial
    for factor, times in ((y, j), (p, l)):
        for _ in range(times):
            out = [sum((out[a] * factor[k - a] for a in range(k + 1)), Fraction(0)) for k in range(bound)]
    shift = n * i
    return [out[k - shift] if k >= shift else Fraction(0) for k in range(bound)]


UNRELATED_CURVES = [unrelated_denominator_curve(3, 10, 24, seed) for seed in (310, 311)]


@st.composite
def germs_on_curves(draw):
    """A curve with a non-monic drawn a_m (exact or truncated) or with
    unrelated denominators, and a germ of its weights, at a finite or
    infinite accuracy, with two or more monomials sharing its first (j, l)."""
    if draw(st.booleans()):
        curve = draw(st.sampled_from(UNRELATED_CURVES))
    else:
        n = draw(st.integers(2, 4))
        m = draw(st.integers(n + 1, 3 * n + 2).filter(lambda m: math.gcd(n, m) == 1))
        accuracy = draw(st.one_of(st.just(math.inf), st.integers(m + 1, m + 8)))
        coefficients = {m: draw(COEFFICIENTS.filter(lambda c: c != 1))}
        for e in draw(st.sets(st.integers(m + 1, m + 5), max_size=3)):
            if e < accuracy:
                coefficients[e] = draw(COEFFICIENTS)
        curve = PlaneCurveGerm(n, coefficients, accuracy)
    pairs = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), min_size=1, max_size=3, unique=True))
    coefficients = {}
    for index, (j, l) in enumerate(pairs):
        for i in draw(st.sets(st.integers(0, 3), min_size=2 if index == 0 else 1, max_size=3)):
            coefficients[(i, j, l)] = draw(COEFFICIENTS)
    accuracy = draw(st.one_of(st.just(math.inf), st.integers(0, 3 * curve.m)))
    return curve, Germ(contact_weights(curve.n, curve.m), coefficients, accuracy)


@settings(max_examples=60, deadline=None)
@example((PlaneCurveGerm(3, {10: Fraction(-7, 2), 11: 1}, math.inf),
          Germ(contact_weights(3, 10), {(0, 1, 0): 2, (1, 1, 0): Fraction(1, 3), (1, 0, 1): -1}, math.inf)))
@example((UNRELATED_CURVES[0], Germ(contact_weights(3, 10), {(0, 0, 1): 1, (2, 0, 1): 5, (0, 2, 0): -1}, 26)))
@given(germs_on_curves())
def test_evaluate_on_series_is_the_sum_of_schoolbook_restrictions(case):
    curve, g = case
    n, m, a = curve.n, curve.m, curve.accuracy
    # y and p are known below a and a - n and have orders m and m - n, so a
    # term with a factor y or p is known below a + (its weight) - m
    accuracy = min([g.accuracy] + [a + g.valuation_of(mono) - m for mono in g.coeffs if mono[1] or mono[2]])
    if accuracy == math.inf:
        top = max(curve.coefficients)
        bound = 1 + max(n * i + top * j + (top - n) * l for i, j, l in g.coeffs)
    else:
        bound = accuracy
    expected = [Fraction(0)] * bound
    for mono, c in g.coeffs.items():
        for k, v in enumerate(reference_restriction(curve, mono, bound)):
            expected[k] += c * v
    got = evaluate_on_series(g, *curve.triple())
    assert got.accuracy == accuracy
    assert all(k < bound for k in got.coeffs)
    assert [got.coeffs.get(k, 0) for k in range(bound)] == expected


def reference_echelon(curve, bound, monomials):
    """Pivot order -> (monic dense series, combination), by Gaussian
    elimination over Fraction in insertion order."""
    rows = {}
    for mono in monomials:
        vector = reference_restriction(curve, mono, bound)
        combination = {mono: Fraction(1)}
        while True:
            order = next((k for k, c in enumerate(vector) if c), None)
            if order is None or order not in rows:
                break
            pivot, pivot_combination = rows[order]
            factor = vector[order]
            vector = [a - factor * b for a, b in zip(vector, pivot)]
            for key, value in pivot_combination.items():
                combination[key] = combination.get(key, Fraction(0)) - factor * value
        if order is None:
            continue
        lead = vector[order]
        rows[order] = ([c / lead for c in vector], {k: v / lead for k, v in combination.items() if v})
    return rows


HUGE = 10**30
PRIMES = list(sympy.primerange(1 << 15, (1 << 15) + 400))
COEFFICIENTS = st.one_of(
    st.integers(-5, 5),
    st.integers(-HUGE, HUGE),
    st.builds(Fraction, st.integers(-HUGE, HUGE), st.sampled_from(PRIMES)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
).filter(bool)


@st.composite
def oracle_inputs(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n + 1, 3 * n + 2).filter(lambda m: math.gcd(n, m) == 1))
    bound = draw(st.integers(1, (n - 1) * (m - 1) + 3))
    accuracy = max(bound + n, m + 2)
    coefficients = {m: draw(COEFFICIENTS)}
    for e in draw(st.sets(st.integers(m + 1, accuracy - 1), max_size=12)):
        coefficients[e] = draw(COEFFICIENTS)
    curve = PlaneCurveGerm(n, coefficients, accuracy)
    low = draw(st.one_of(st.just(0), st.integers(0, bound - 1)))
    monomials = draw(st.permutations(monomials_in_valuation_range(n, m, low, bound)))
    return curve, bound, monomials


# at (5, 12) and its full bound 24 one monomial arrives with a restriction
# order from which every order below the bound already has a row
ZERO_ROW_EXIT = (random_curve(5, 12, trial_rng(512, 0), accuracy=30), 24, monomials_in_valuation_range(5, 12, 0, 24))


@settings(max_examples=100, deadline=None)
@example((PlaneCurveGerm(3, {10: 1, 11: 1}, 15), 12, monomials_in_valuation_range(3, 10, 0, 12)[::-1]))
@example(ZERO_ROW_EXIT)
@given(oracle_inputs())
def test_echelon_matches_fraction_gaussian_elimination(case):
    curve, bound, monomials = case
    oracle = ConormalOracle(curve, bound, monomials)
    expected = reference_echelon(curve, bound, monomials)
    assert list(oracle.rows) == list(expected)
    for order, (series, combination) in expected.items():
        row = oracle.rows[order]
        assert row.series.accuracy == bound
        assert [row.series.coeffs.get(k, 0) for k in range(bound)] == series
        assert all(type(v) is Fraction for v in row.series.coeffs.values())
        assert oracle.combination_for(order) == combination
        assert all(type(v) is Fraction for v in oracle.combination_for(order).values())


def test_the_zero_row_exit_example_reaches_the_exit():
    curve, bound, monomials = ZERO_ROW_EXIT
    oracle = ConormalOracle(curve, bound, monomials)
    stored = {row.monomial: order for order, row in oracle.rows.items()}
    pivots, exits = set(), 0
    for mono in monomials:
        if mono in stored:
            pivots.add(stored[mono])
        else:
            exits += set(range(min(oracle.restriction(mono).coeffs, default=bound), bound)) <= pivots
    assert exits == 1


@pytest.mark.parametrize("n, m", [(3, 10), (3, 11), (4, 11), (5, 12), (4, 9)])
def test_witness_restricts_to_a_monic_series_of_its_order(n, m):
    # a random curve is generic: its semigroup is known without the oracle
    curve = random_curve(n, m, trial_rng(100 * n + m, 1))
    bound = max((n - 1) * (m - n - 1), 1)
    orders = [k for k in range(bound) if k in generic_semigroup(n, m)]
    if (n, m) == (3, 10):
        assert 11 in orders  # attained only by a combination
    for k in orders:
        restricted = evaluate_on_series(realize_order(curve, k), *curve.triple())
        assert restricted.order() == k
        assert restricted.coefficient(k) == 1


# -- pivot orders against sympy's rref, and the witness combinations built on request --


def sympy_restriction_matrix(curve, bound, monomials):
    """One row per monomial, columns t^0..t^(bound-1): x^i y^j p^l from
    ``curve.triple()`` as sympy polynomials in t, each product truncated
    below ``bound``."""
    t = sympy.Symbol("t")

    def truncated(terms):
        return sympy.Poly.from_dict({k: c for k, c in terms if k < bound} or {0: 0}, t, domain="QQ")

    x, y, p = (
        truncated((k, sympy.Rational(c.numerator, c.denominator)) for k, c in s.coeffs.items())
        for s in curve.triple()
    )
    rows = []
    for exponents in monomials:
        product = sympy.Poly(1, t, domain="QQ")
        for factor, times in zip((x, y, p), exponents):
            for _ in range(times):
                product = truncated((k, c) for (k,), c in (product * factor).terms())
        rows.append([product.coeff_monomial(t ** k) for k in range(bound)])
    return sympy.Matrix(rows)


@st.composite
def cross_check_curves(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n + 1, 3 * n + 2).filter(lambda m: math.gcd(n, m) == 1))
    bound = max((n - 1) * (m - n - 1), 1)
    accuracy = max(bound + n, m + 2)
    kind = draw(st.sampled_from(["generic", "monomial", "drawn"]))
    if kind == "generic":
        return random_curve(n, m, trial_rng(draw(st.integers(0, 10**6)), 0), accuracy=accuracy)
    coefficients = {m: draw(COEFFICIENTS)}
    if kind == "drawn":
        for e in draw(st.sets(st.integers(m + 1, accuracy - 1), max_size=12)):
            coefficients[e] = draw(COEFFICIENTS)
    return PlaneCurveGerm(n, coefficients, accuracy)


@settings(max_examples=40, deadline=None)
@example(random_curve(3, 10, trial_rng(7, 0)))
@example(PlaneCurveGerm(3, {10: 1}, 15))
@example(PlaneCurveGerm(4, {11: Fraction(-7, 3)}, 25))
@example(PlaneCurveGerm(3, {11: HUGE + 1, 12: -HUGE, 13: Fraction(HUGE, PRIMES[0]), 16: 3}, 17))
@example(PlaneCurveGerm(4, {9: Fraction(2, 3), 10: Fraction(-5, 7), 11: Fraction(1, 11)}, 20))
@given(cross_check_curves())
def test_pivot_orders_are_the_rref_pivots_of_the_restriction_matrix(curve):
    oracle = ConormalOracle(curve)
    monomials = monomials_in_valuation_range(curve.n, curve.m, 0, oracle.bound)
    _, pivots = sympy_restriction_matrix(curve, oracle.bound, monomials).rref()
    assert pivots == oracle.orders_below_bound()


# -- the generic semigroup recognized from the orders below c(Γ_gen) + n ---------------


STRATA_TYPES = [(n, m) for n in range(2, 6) for m in range(n + 1, 4 * n + 3) if math.gcd(n, m) == 1]


@st.composite
def strata_curves(draw):
    """A curve of a type with 2 <= n <= 5, n < m <= 4n + 2, known just past
    the full oracle bound plus n: generic, or in a non-generic stratum (the
    terms after a_m zeroed up to a drawn order, the monomial curve t^m), or
    with unrelated denominators."""
    n, m = draw(st.sampled_from(STRATA_TYPES))
    accuracy = max(max((n - 1) * (m - n - 1), 1) + n + draw(st.integers(0, 2)), m + 1)
    kind = draw(st.sampled_from(["generic", "zeroed", "monomial", "unrelated"]))
    if kind == "generic":
        return random_curve(n, m, trial_rng(draw(st.integers(0, 10**6)), 0), accuracy=accuracy)
    if kind == "unrelated":
        return unrelated_denominator_curve(n, m, accuracy, draw(st.integers(0, 10**6)))
    coefficients = {m: draw(COEFFICIENTS)}
    if kind == "zeroed" and accuracy > m + 1:
        start = draw(st.integers(m + 1, accuracy - 1))  # the terms strictly between m and start are zero
        for e in draw(st.sets(st.integers(start, accuracy - 1), max_size=12)):
            coefficients[e] = draw(COEFFICIENTS)
    return PlaneCurveGerm(n, coefficients, accuracy)


@settings(max_examples=100, deadline=None)
@example(PlaneCurveGerm(5, {22: 1}, 69))
@example(PlaneCurveGerm(5, {22: 1, 27: 1}, 69))
@example(PlaneCurveGerm(3, {10: 1, 12: 1}, 15))
@example(PlaneCurveGerm(3, {5: 1, 6: -2}, 7))
@example(PlaneCurveGerm(4, {5: 1, 6: 3}, 9))
@example(random_curve(6, 25, trial_rng(625, 0)))
@given(strata_curves())
def test_conormal_semigroup_is_the_full_oracle_semigroup(curve):
    assert conormal_semigroup(curve) == ConormalOracle(curve).semigroup()


@pytest.mark.parametrize("n, m", [(3, 10), (5, 22), (4, 41), (6, 25)])
def test_a_generic_curve_gets_the_cached_generic_semigroup(n, m):
    # at (3, 10) the first bound, c(Γ_gen) + n = 9 + 3, is the full bound 12
    curve = random_curve(n, m, trial_rng(100 * n + m, 2))
    assert conormal_semigroup(curve) is generic_semigroup(n, m)


@pytest.mark.parametrize(
    "curve, bounds",
    [
        (PlaneCurveGerm(3, {10: 1, 12: 1}, 20), [12]),  # c(Γ_gen) + n = 9 + 3 is the full bound
        (PlaneCurveGerm(5, {22: 1, 27: 1}, 69), [42, 64]),  # not generic: the full oracle decides
        (random_curve(5, 22, trial_rng(522, 1)), [42]),
        (PlaneCurveGerm(4, {7: 1, 9: 1}, 12), [6]),  # m < 2n+1: the full oracle alone
    ],
)
def test_each_oracle_bound_is_built_once(curve, bounds, monkeypatch):
    built = []

    class Counted(ConormalOracle):
        def __init__(self, curve, bound=None, monomials=None):
            super().__init__(curve, bound, monomials)
            built.append(self.bound)

    monkeypatch.setattr("legcurve.oracle.ConormalOracle", Counted)
    conormal_semigroup(curve)
    assert built == bounds


def test_the_precision_requirement_stays_at_the_full_bound():
    # c(Γ_gen) + n = 42 would need only 47 terms, but the full bound 64 needs 69
    curve = random_curve(5, 22, trial_rng(522, 0), accuracy=68)
    with pytest.raises(InsufficientPrecisionError) as excinfo:
        conormal_semigroup(curve)
    assert str(excinfo.value) == "curve accuracy 68 cannot certify restriction orders below 64; need at least 69"


@settings(max_examples=60, deadline=None)
@example((PlaneCurveGerm(3, {10: 1, 11: 1}, 15), 12, monomials_in_valuation_range(3, 10, 0, 12)[::-1]))
@given(oracle_inputs())
def test_combinations_built_on_request(case):
    curve, bound, monomials = case
    backward, forward = (ConormalOracle(curve, bound, monomials) for _ in range(2))
    orders = sorted(backward.rows)
    asked_backward = {order: backward.combination_for(order) for order in reversed(orders)}
    asked_forward = {order: forward.combination_for(order) for order in orders}
    assert asked_backward == asked_forward
    for order, row in backward.rows.items():
        assert row.denominator > 0
        assert row.numerators[order] == row.denominator
        assert math.gcd(*row.numerators) == 1
        combination = backward.combination_for(order)
        total = TruncatedSeries({}, bound)
        for mono, c in combination.items():
            total = total + backward.restriction(mono).scale(c)
        assert total == row.series
        mono = next(iter(combination))
        combination[mono] += 1
        combination[(99, 0, 0)] = Fraction(1)
        assert backward.combination_for(order) == asked_forward[order]


@pytest.mark.parametrize("monomial", [(0, 0, -1), (-1, 1, 0), (0, 1.0, 0), (True, 0, 0), [0, 1, 0], (0, 1)])
def test_monomials_must_be_triples_of_non_negative_ints(monomial):
    curve = PlaneCurveGerm(3, {10: 1, 11: 1})
    oracle = ConormalOracle(curve)
    message = "monomial must be a triple of non-negative integers"
    with pytest.raises(ValidationError, match=message):
        oracle.restriction(monomial)
    with pytest.raises(ValidationError, match=message):
        ConormalOracle(curve, 12, [(0, 1, 0), monomial])


INTEGER_ARGUMENT_CURVE = PlaneCurveGerm(3, {10: 1, 11: 1}, 30)


def _after_cached_y(ctx):
    # (0, 1.0, 0) == (0, 1, 0), so a check after the memo lookup would return the cached y
    ctx.monomial_series((0, 1, 0))
    return ctx


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: realize_order(INTEGER_ARGUMENT_CURVE, 10.5), "order must be an integer, got 10.5"),
        (lambda: realize_order(INTEGER_ARGUMENT_CURVE, "10"), "order must be an integer, got '10'"),
        (lambda: realize_order(INTEGER_ARGUMENT_CURVE, True), "order must be an integer, got True"),
        (lambda: forget_transform(INTEGER_ARGUMENT_CURVE, 11.0, 1, accuracy=25), "order must be an integer, got 11.0"),
        (lambda: monomials_in_valuation_range(3, 10, 0, 10.5), "high must be an integer, got 10.5"),
        (lambda: weighted_monomial_count(10.5, 3, 10), "value must be an integer, got 10.5"),
        (lambda: rotate_point({11: 1}, 3, 10, 1.5), "rotation exponent k must be an integer, got 1.5"),
        (lambda: canonical_point({11: 1}, 3, "10"), "m must be an integer greater than n = 3, got '10'"),
        (lambda: orbit_equivalent({11: 1}, {11: 1}, 3, 10.5), "m must be an integer greater than n = 3, got 10.5"),
        (lambda: INTEGER_ARGUMENT_CURVE.truncate("20"),
         "accuracy must be a non-negative integer or infinity, got '20'"),
        (lambda: INTEGER_ARGUMENT_CURVE.as_polynomial("x"),
         "accuracy must be a non-negative integer or infinity, got 'x'"),
        (lambda: NumericalSemigroup.from_gaps([1.5]), "gap must be an integer, got 1.5"),
        (lambda: NumericalSemigroup(-1, ()), "conductor must be a non-negative integer, got -1"),
        (lambda: NumericalSemigroup.from_gaps([1.0, 2]), "gap must be an integer, got 1.0"),
        (lambda: ExpansionContext(3, 10).entry((0, 1, 0), 10.5), "column k must be an integer, got 10.5"),
        (lambda: ExpansionContext(3, 10).entry_closed_form((0.5, 1, 0), 10), "x exponent i must be an integer, got 0.5"),
        (lambda: ExpansionContext(3, 10).entry_closed_form((0, 1, -1), 10),
         "p exponent l must be a non-negative integer, got -1"),
        (lambda: ExpansionContext(3, 10).monomial_series((0, 1.0, 0)),
         "y exponent j must be a non-negative integer, got 1.0"),
        (lambda: _after_cached_y(ExpansionContext(3, 10)).monomial_series((0, 1.0, 0)),
         "y exponent j must be a non-negative integer, got 1.0"),
        (lambda: ExpansionContext(3, 10).monomial_series((0, -1, 0)),
         "y exponent j must be a non-negative integer, got -1"),
        (lambda: ExpansionContext(3, 10).family_indices(1.5, 2), "q must be an integer, got 1.5"),
        (lambda: ExpansionContext(3, 10).family_indices(1, 2.0), "family size must be an integer, got 2.0"),
        (lambda: ExpansionContext(3, 10).family_matrix(1, 2, [10], rows=[0.5]), "row must be an integer, got 0.5"),
        (lambda: ExpansionContext(3, 10).minor_survives_twist(0.5, 1, 1, [10]), "low must be an integer, got 0.5"),
        (lambda: Germ.from_p_parts((3, 10, 7), {0: 5}), "p-part 0 must be a Germ, got 5"),
        (lambda: Germ.from_p_parts((3, 10, 7), {0.5: Germ.zero((3, 10, 7))}),
         "p-degree must be a non-negative integer, got 0.5"),
        (lambda: Germ.from_p_parts((3, 10, 7), {True: Germ.zero((3, 10, 7))}),
         "p-degree must be a non-negative integer, got True"),
        (lambda: cyclotomic_polynomial(3.0), "n must be a positive integer, got 3.0"),
        (lambda: (cyclotomic_polynomial(1), cyclotomic_polynomial(True)), "n must be a positive integer, got True"),
        (lambda: Cyclotomic.zeta(2.5), "n must be a positive integer, got 2.5"),
        (lambda: Cyclotomic.zeta(4, 1.5), "power must be an integer, got 1.5"),
        (lambda: Cyclotomic.from_rational(4.0, 1), "n must be a positive integer, got 4.0"),
        (lambda: ExpansionContext(3, 10).entry((0, 1), 5), "monomial index must be a triple (i, j, l), got (0, 1)"),
        (lambda: ExpansionContext(3, 10).monomial_series((0, 1)),
         "monomial index must be a triple (i, j, l), got (0, 1)"),
        (lambda: ExpansionContext(3, 10).entry_closed_form((0, 1, 0, 0), 5),
         "monomial index must be a triple (i, j, l), got (0, 1, 0, 0)"),
        (lambda: Cyclotomic.from_rational(4, 0.5), "coefficient 0.5 is not rational"),
        (lambda: Cyclotomic.from_rational(4, True), "coefficient True is not rational"),
        (lambda: Cyclotomic.from_rational(4, "x"), "coefficient 'x' is not rational"),
        (lambda: generic_semigroup(3, None), "m must be an integer greater than n = 3, got None"),
        (lambda: free_indices(3, None), "m must be an integer greater than n = 3, got None"),
        (lambda: moduli_dimension(3, None), "m must be an integer greater than n = 3, got None"),
        (lambda: contact_weights(3, None), "m must be an integer greater than n = 3, got None"),
        (lambda: orbit_equivalent({"a": 1}, {"a": 1}, 3, 10), "exponent must be a non-negative integer, got 'a'"),
        (lambda: canonical_point({"a": 1}, 3, 10), "exponent must be a non-negative integer, got 'a'"),
        (lambda: rotate_point({11.5: 1}, 3, 10, 1), "exponent must be a non-negative integer, got 11.5"),
        (lambda: canonical_point({-4: 1}, 3, 10), "exponent must be a non-negative integer, got -4"),
        (lambda: NumericalSemigroup(2.5, (1,)), "conductor must be a non-negative integer, got 2.5"),
        (lambda: NumericalSemigroup.from_gaps(["a"]), "gap must be an integer, got 'a'"),
        (lambda: NumericalSemigroup.from_members([0, 2], 5.5), "bound must be an integer, got 5.5"),
        (lambda: NumericalSemigroup.from_members([0, 2.5], 5), "member must be an integer, got 2.5"),
        (lambda: default_accuracy(3, None), "m must be an integer greater than n = 3, got None"),
        (lambda: default_accuracy("3", 10), "multiplicity n must be an integer at least 2, got '3'"),
        (lambda: random_curve("3", 10, trial_rng(0, 0)), "multiplicity n must be an integer at least 2, got '3'"),
        (lambda: TruncatedSeries({1: 1}, 5) ** 1.5, "exponent must be an integer, got 1.5"),
        (lambda: Germ.variable((3, 10, 7), "x") ** True, "exponent must be an integer, got True"),
        (lambda: Poly.variable(("mu",), "mu") ** True, "exponent must be an integer, got True"),
        (lambda: random_curve(3, 10, trial_rng(0, 0), spread=1.5), "coefficient spread must be an integer, got 1.5"),
        (lambda: random_curve(3, 10, trial_rng(0, 0), spread="3"), "coefficient spread must be an integer, got '3'"),
        (lambda: random_curve(3, 10, trial_rng(0, 0), spread=True), "coefficient spread must be an integer, got True"),
        (lambda: random_germ(3, 10, trial_rng(0, 0), 3, 20, spread=1.5),
         "coefficient spread must be an integer, got 1.5"),
        (lambda: random_germ(3, 10, trial_rng(0, 0), 3, 20, spread="3"),
         "coefficient spread must be an integer, got '3'"),
        (lambda: random_germ(3, 10, trial_rng(0, 0), 3, 20, spread=True),
         "coefficient spread must be an integer, got True"),
    ],
    ids=["order-float", "order-str", "order-bool", "forget-order", "valuation-bound", "monomial-count",
         "rotation", "canonical-m", "orbit-m", "truncate", "as-polynomial",
         "conductor-float", "conductor-negative", "gap-float", "entry-column", "closed-form-i", "closed-form-l",
         "series-j", "series-j-cached", "series-j-negative", "family-q", "family-size", "family-row", "minor-low",
         "p-part-value", "p-degree-float", "p-degree-bool", "cyclotomic-float", "cyclotomic-bool-cached",
         "zeta-n", "zeta-power", "from-rational-n", "entry-pair", "series-pair", "closed-form-quadruple",
         "from-rational-float", "from-rational-bool", "from-rational-str",
         "generic-m-none", "free-indices-m-none", "moduli-dimension-m-none", "weights-m-none",
         "orbit-key-str", "canonical-key-str", "rotation-key-float", "canonical-key-negative",
         "conductor-float-direct", "gap-str", "members-bound-float", "member-float",
         "default-accuracy-m-none", "default-accuracy-n-str", "random-curve-n-str",
         "series-power-float", "germ-power-bool", "poly-power-bool",
         "curve-spread-float", "curve-spread-str", "curve-spread-bool",
         "germ-spread-float", "germ-spread-str", "germ-spread-bool"],
)
def test_a_malformed_integer_argument_is_named_where_it_enters(call, message):
    with pytest.raises(ValidationError) as excinfo:
        call()
    assert str(excinfo.value) == message
