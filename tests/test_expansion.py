"""Symbolic expansion coefficients over Z[a_m.., mu] and their determinants.

Hand fixtures for (3, 10), cutoff 18.  The twisted series is
p~ = mu*a10 t^7 + (mu+1)*a11 t^8 + ... so for the family (1+l, 1-l, l)
on columns 13, 14 the matrix is [[a10, a11], [mu*a10, (mu+1)*a11]]
with determinant a10*a11: the mu parts cancel.  The memoized series powers
are checked against term-by-term products in visiting orders drawn by
hypothesis, and the closed form against an unpruned multiset enumeration.
"""

import itertools
import math
import re
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legcurve import expansion
from legcurve.cli import _check_det_invariance, _check_direct_vs_closed
from legcurve.curves import PlaneCurveGerm
from legcurve.errors import ValidationError
from legcurve.expansion import ExpansionContext, determinant, leading_monomial
from legcurve.germs import Germ, contact_weights, evaluate_on_series, monomials_in_valuation_range
from legcurve.sympoly import EXPONENT_LIMIT, Poly


@pytest.fixture(scope="module")
def ctx():
    return ExpansionContext(3, 10)


def test_context_setup(ctx):
    assert ctx.cutoff == 18  # symbols a10 .. a17
    assert ctx.gens[0] == "mu"


def test_context_validation():
    with pytest.raises(ValidationError):
        ExpansionContext(2, 4)
    with pytest.raises(ValidationError):
        ExpansionContext(5, 12)  # default cutoff 44 over the cap
    for n, m in [(3.0, 10), (3, 10.0), (3, 9), (3, 2)]:
        with pytest.raises(ValidationError):
            ExpansionContext(n, m)


@pytest.mark.parametrize("s", [10.0, True, "10", None], ids=repr)
def test_coefficient_symbol_checks_its_index(ctx, s):
    with pytest.raises(ValidationError, match="coefficient index must be an integer"):
        ctx.coefficient_symbol(s)


def test_twisted_series(ctx):
    mu = ctx.mu()
    tw = ctx.twisted_p_series()
    assert tw[7] == mu * ctx.coefficient_symbol(10)
    assert tw[8] == (mu + 1) * ctx.coefficient_symbol(11)


def test_simple_entries(ctx):
    one = Poly.const(ctx.gens, 1)
    assert ctx.entry((1, 0, 0), 3) == one
    assert not ctx.entry((1, 0, 0), 4)
    assert ctx.entry((0, 1, 0), 10) == ctx.coefficient_symbol(10)
    assert not ctx.entry((0, 1, 0), 9)
    mu = ctx.mu()
    assert ctx.entry((0, 0, 1), 7) == mu * ctx.coefficient_symbol(10)
    assert ctx.entry((0, 0, 1), 8) == (mu + 1) * ctx.coefficient_symbol(11)


def test_quadratic_entries(ctx):
    mu = ctx.mu()
    a10 = ctx.coefficient_symbol(10)
    a11 = ctx.coefficient_symbol(11)
    assert ctx.entry((0, 0, 2), 14) == mu ** 2 * a10 ** 2
    assert ctx.entry((0, 0, 2), 15) == 2 * mu * (mu + 1) * a10 * a11


def test_negative_x_power(ctx):
    mu = ctx.mu()
    assert ctx.entry((-1, 0, 1), 4) == mu * ctx.coefficient_symbol(10)
    with pytest.raises(ValidationError, match="negative t-exponents"):
        ctx.entry((-4, 1, 0), 0)


def test_closed_form_agrees_with_direct(ctx):
    fam = [(0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1), (0, 0, 2), (0, 1, 1)]
    for index in fam:
        for k in range(ctx.cutoff):
            assert ctx.entry(index, k) == ctx.entry_closed_form(index, k), (index, k)


def test_closed_form_has_the_domain_of_entry(ctx):
    for index, k in [((0, -1, 0), 10), ((0, 0, -1), 10), ((-4, 1, 0), 0), ((-4, 1, 0), 5), ((0, 1, 0), 18)]:
        with pytest.raises(ValidationError) as direct:
            ctx.entry(index, k)
        with pytest.raises(ValidationError) as closed:
            ctx.entry_closed_form(index, k)
        assert str(closed.value) == str(direct.value)
    for index in itertools.product(range(-6, 3), range(4), range(4)):
        for k in range(ctx.cutoff):
            try:
                direct = ctx.entry(index, k)
            except ValidationError as error:
                with pytest.raises(ValidationError, match="negative t-exponents"):
                    ctx.entry_closed_form(index, k)
                assert "negative t-exponents" in str(error)
                break
            assert ctx.entry_closed_form(index, k) == direct, (index, k)


def test_direct_vs_closed_forms_each_power_and_each_multiset_list_once(monkeypatch):
    """On a fresh (5, 9) context the check convolves once per power
    y^j p~^l it visits, and enumerates the multisets of each (size, weight)
    of its closed-form entries once."""
    context = ExpansionContext(5, 9)
    convolutions, enumerations = [], Counter()
    convolve, multisets = ExpansionContext._convolve, expansion._multisets

    def counting_convolve(self, f, g, bound):
        convolutions.append(bound)
        return convolve(self, f, g, bound)

    def counting_multisets(low, high, size, weight):
        enumerations[size, weight] += 1
        return multisets(low, high, size, weight)

    monkeypatch.setattr(ExpansionContext, "_convolve", counting_convolve)
    monkeypatch.setattr(expansion, "_multisets", counting_multisets)
    assert _check_direct_vs_closed(context) == (1380, None)
    indices = monomials_in_valuation_range(5, 9, 0, context.cutoff)
    powers = {(j, l) for _, j, l in indices} - {(0, 0)}
    assert len(convolutions) == len(powers) == 19
    sizes_and_weights = {(j + l, k - (i - l) * 5) for i, j, l in indices for k in range(9, context.cutoff)}
    assert enumerations == Counter(dict.fromkeys(sizes_and_weights, 1))
    assert len(enumerations) == 304


def test_entries_far_above_the_cutoff_are_zero_without_recursion():
    ctx = ExpansionContext(3, 10)  # fresh: the first power asked for has a negative bound
    zero = Poly.const(ctx.gens, 0)
    assert ctx.entry((100, 1, 0), 5) == ctx.entry_closed_form((100, 1, 0), 5) == zero
    assert ctx.entry((1, 1, 0), 13) == ctx.coefficient_symbol(10)
    assert ctx.entry((0, 2000, 0), 5) == ctx.entry_closed_form((0, 2000, 0), 5) == zero
    assert ctx.entry((0, 0, 3000), 17) == zero
    with pytest.raises(ValidationError, match="exponent limit"):
        ctx.entry_closed_form((0, EXPONENT_LIMIT - 1, 1), 5)


# -- memoized powers against term-by-term products --------------------------------

TYPES = ((3, 10), (4, 9), (3, 7))
INDICES = st.tuples(st.integers(-3, 3), st.integers(0, 3), st.integers(0, 3))


def product_series(ctx, index):
    """x^i y^j p~^l below the cutoff, one factor series at a time."""
    i, j, l = index
    mu = Poly.variable(ctx.gens, "mu")
    y = {s: Poly.variable(ctx.gens, f"a{s}") for s in range(ctx.m, ctx.cutoff)}
    p = {s - ctx.n: (mu + (s - ctx.m)) * y[s] for s in y}
    series = {ctx.n * i: Poly.const(ctx.gens, 1)}
    for factor in [y] * j + [p] * l:
        out = {}
        for e1, c1 in series.items():
            for e2, c2 in factor.items():
                if e1 + e2 < ctx.cutoff:
                    out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        series = out
    return {e: c for e, c in series.items() if e < ctx.cutoff and c}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TYPES), st.lists(INDICES, min_size=1, max_size=8))
def test_memoized_series_match_fresh_contexts_and_products(nm, visits):
    ctx = ExpansionContext(*nm)
    for index in visits + visits[::-1]:
        expected = product_series(ctx, index)
        if min(expected, default=0) < 0:
            with pytest.raises(ValidationError, match="negative t-exponents"):
                ctx.monomial_series(index)
            continue
        assert ctx.monomial_series(index) == expected
        assert ExpansionContext(*nm).monomial_series(index) == expected
    ctx.y_series().clear()
    ctx.twisted_p_series().clear()
    assert ctx.monomial_series((0, 1, 1)) == product_series(ctx, (0, 1, 1))


# -- the closed form against an unpruned enumeration --------------------------------


def multinomial(counts):
    return math.factorial(sum(counts.values())) // math.prod(map(math.factorial, counts.values()))


def enumerated_entry(ctx, index, k):
    """Every multiset of j+l indices of weighted size k, each split every way
    into the y-factors and the twisted factors."""
    i, j, l = index
    mu = Poly.variable(ctx.gens, "mu")
    total = Poly.const(ctx.gens, 0)
    for alpha in itertools.combinations_with_replacement(range(ctx.m, ctx.cutoff), j + l):
        if ctx.n * (i - l) + sum(alpha) != k:
            continue
        for twisted in set(itertools.combinations(alpha, l)):
            gamma = Counter(twisted)
            term = Poly.const(ctx.gens, multinomial(Counter(alpha) - gamma) * multinomial(gamma))
            for s in alpha:
                term = term * Poly.variable(ctx.gens, f"a{s}")
            for s in twisted:
                term = term * (mu + (s - ctx.m))
            total = total + term
    return total


class NoSeries(Exception):
    pass


def refuse(*args):
    raise NoSeries


@settings(max_examples=80, deadline=None)
@example((3, 7), (0, 1, 0), 11)
@example((3, 7), (1, 0, 2), 11)
@example((4, 9), (0, 1, 1), 23)
@example((4, 9), (0, 2, 0), 18)
@given(st.sampled_from(TYPES), INDICES, st.integers(0, 23))
def test_closed_form_matches_the_unpruned_enumeration(nm, index, k):
    ctx = ExpansionContext(*nm)
    k %= ctx.cutoff
    i, j, l = index
    if ctx.n * i + ctx.m * j + (ctx.m - ctx.n) * l < 0:
        return
    with pytest.MonkeyPatch.context() as patch:  # the closed form builds no series
        for name in ("monomial_series", "_convolve"):
            patch.setattr(ExpansionContext, name, refuse)
        closed = ctx.entry_closed_form(index, k)
    assert closed == enumerated_entry(ctx, index, k)
    assert all(type(c) is int for c in closed.terms.values())


def test_mu_derivative_identity(ctx):
    for index in [(1, 0, 1), (2, 0, 1), (1, 0, 2), (1, 1, 1)]:
        for k in range(ctx.cutoff):
            assert ctx.mu_derivative_matches(index, k), (index, k)
    with pytest.raises(ValidationError):
        ctx.mu_derivative_matches((0, 1, 1), 10)
    with pytest.raises(ValidationError):
        ctx.mu_derivative_matches((1, 1, 0), 10)


def test_family_indices_and_valuation(ctx):
    assert ctx.family_indices(1, 1) == [(1, 1, 0), (2, 0, 1)]
    assert ctx.family_valuation(1, 1) == 13
    assert ctx.family_indices(2, 0) == [(2, 0, 0)]


def test_family_determinant_drops_mu(ctx):
    det = ctx.family_determinant(1, 1, [13, 14])
    expected = ctx.coefficient_symbol(10) * ctx.coefficient_symbol(11)
    assert det == expected
    assert ctx.family_determinant(1, 1, [13, 15]) == (
        2 * ctx.coefficient_symbol(10) * ctx.coefficient_symbol(12)
    )


@pytest.mark.parametrize("nm", [(3, 10), (4, 9), (4, 11), (5, 9)])
def test_det_invariance_draws_commute_with_each_twist(nm, monkeypatch):
    """Substituting mu = v is a ring homomorphism, so the determinant of the
    entry-wise substituted matrix is the symbolic determinant at v; that is
    why ``upsilon --check det-invariance`` forms one determinant per draw."""
    context = ExpansionContext(*nm)
    draws = []
    symbolic = context.family_determinant

    def recording(q, count, columns, rows=None):
        det = symbolic(q, count, columns, rows)
        draws.append((q, count, columns, det))
        return det

    monkeypatch.setattr(context, "family_determinant", recording)
    assert _check_det_invariance(context, 0) == (50, None)
    assert len(draws) == 50
    for q, count, columns, det in draws:
        matrix = context.family_matrix(q, count, columns)
        for v in (0, context.m):
            twisted = [[entry.substitute({"mu": v}) for entry in row] for row in matrix]
            assert determinant(twisted) == det.substitute({"mu": v})


def test_family_determinant_shape_check(ctx):
    with pytest.raises(ValidationError):
        ctx.family_determinant(1, 1, [13])


def test_minor_survives_twist(ctx):
    assert ctx.minor_survives_twist(0, 1, 1, [13, 14])
    assert ctx.minor_survives_twist(1, 1, 1, [13])
    assert ctx.minor_survives_twist(0, 1, 1, [0, 1])  # identically zero block
    with pytest.raises(ValidationError):
        ctx.minor_survives_twist(0, 1, 1, [13])


def test_the_block_shape_is_checked_once_by_the_determinant(ctx):
    """Neither ``family_determinant`` nor ``minor_survives_twist`` checks the
    block's shape: ``family_matrix`` names a row outside the family and
    ``determinant`` an empty or non-square block."""
    square = "^determinant needs a square block: 2 rows, a row of length 1$"
    for reject, message in [
        (lambda: ctx.family_determinant(1, 1, [13]), square),
        (lambda: ctx.minor_survives_twist(0, 1, 1, [13]), square),
        (lambda: ctx.minor_survives_twist(2, 1, 1, []), "^empty determinant$"),
        (lambda: ctx.minor_survives_twist(-1, 1, 1, [13, 14, 15]), "^row -1 outside the family 0..1$"),
    ]:
        with pytest.raises(ValidationError, match=message):
            reject()


def test_input_checks_of_symbols_families_and_determinants(ctx):
    for reject, message in [
        (lambda: ctx.coefficient_symbol(9), "no symbol a_9: indices run over [10, 18)"),
        (lambda: ctx.family_indices(1, -1), "family size must be non-negative"),
        (lambda: ctx.family_indices(-5, 1), "family valuation must be non-negative"),
        (lambda: ctx.family_matrix(1, 1, [13], rows=[2]), "row 2 outside the family 0..1"),
        (lambda: determinant([]), "empty determinant"),
    ]:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            reject()


def test_a_far_negative_x_power_forms_each_power_at_its_own_bound():
    """entry((-80, 25, 0), 17) on (3, 10) needs y^25 below 18 + 240, so
    y^k only below 8 + 10k, a few terms above its order 10k; formed at the
    whole bound 258, the chain took seconds and hundreds of MB."""
    ctx = ExpansionContext(3, 10)
    start = time.perf_counter()
    entry = ctx.entry((-80, 25, 0), 17)
    assert time.perf_counter() - start < 1
    assert entry == ctx.entry_closed_form((-80, 25, 0), 17) and entry
    assert {power: bound for power, (bound, _) in ctx._powers.items()} == {
        (0, 0): math.inf, **{(k, 0): 8 + 10 * k for k in range(1, 26)}
    }


def test_specialize_matches_restriction(ctx):
    curve = PlaneCurveGerm(3, {10: 2, 11: 3, 13: -1})
    values = {"mu": 10, "a10": 2, "a11": 3, "a13": -1}
    values.update({f"a{s}": 0 for s in (12, 14, 15, 16, 17)})
    w = contact_weights(3, 10)
    for index in [(0, 1, 0), (1, 0, 1), (0, 0, 2), (2, 1, 0)]:
        i, j, l = index
        g = Germ(w, {index: 1}, float("inf"))
        restricted = evaluate_on_series(g, *curve.triple())
        for k in range(ctx.cutoff):
            got = ctx.entry(index, k).substitute(values).as_constant()
            assert got == 3 ** l * restricted.coefficient(k), (index, k)


def test_determinant_helper():
    gens = ("u",)
    u = Poly.variable(gens, "u")
    one = Poly.const(gens, 1)
    two = Poly.const(gens, 2)
    assert determinant([[u, one], [two, u]]) == u * u - 2
    with pytest.raises(ValidationError):
        determinant([[u, one]])
    zero = Poly.const(gens, 0)
    with pytest.raises(ValidationError):
        determinant([[zero] * 7 for _ in range(7)])


def test_leading_monomial(ctx):
    a10 = ctx.coefficient_symbol(10)
    a11 = ctx.coefficient_symbol(11)
    named, coeff = leading_monomial(a10 ** 2 * a11 + 3 * a10 * a11 ** 2)
    assert named == {"a10": 1, "a11": 2}
    assert coeff == Fraction(3)
    with pytest.raises(ValidationError):
        leading_monomial(ctx.mu() * a10)
    with pytest.raises(ValidationError):
        leading_monomial(Poly.const(ctx.gens, 0))


def test_determinant_reads_generators_from_the_first_polynomial_entry():
    gens = ("u",)
    u = Poly.variable(gens, "u")
    assert determinant([[1, u], [u, 1]]) == 1 - u * u
    assert determinant([[0, Fraction(1, 2)], [2, u]]) == Poly.const(gens, -1)
    with pytest.raises(ValidationError, match="polynomial entry"):
        determinant([[1, 2], [3, 4]])


def test_both_entry_forms_share_the_exponent_limit_and_form_no_chain_outside_it(monkeypatch):
    ctx = ExpansionContext(3, 10)
    convolutions = []
    convolve = ExpansionContext._convolve
    monkeypatch.setattr(ExpansionContext, "_convolve",
                        lambda self, f, g, bound: convolutions.append(bound) or convolve(self, f, g, bound))
    message = f"x^0 y^{EXPONENT_LIMIT} p^0: j + l reaches the exponent limit {EXPONENT_LIMIT}"
    for form in (ctx.entry, ctx.entry_closed_form):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            form((0, EXPONENT_LIMIT, 0), 5)
    with pytest.raises(ValidationError, match="^x\\^-4 y\\^1 p\\^0 has surviving negative t-exponents"):
        ctx.entry((-4, 1, 0), 5)
    assert convolutions == [] and list(ctx._powers) == [(0, 0)]
    # an index outside both bounds is named by its negative t-exponent first
    with pytest.raises(ValidationError, match="negative t-exponents"):
        ctx._check_domain(-4 * EXPONENT_LIMIT, EXPONENT_LIMIT, 0)


def test_a_memoized_series_is_not_checked_again(monkeypatch):
    ctx = ExpansionContext(3, 10)
    checked = []
    check_domain = ExpansionContext._check_domain
    monkeypatch.setattr(ExpansionContext, "_check_domain",
                        lambda self, *index: checked.append(index) or check_domain(self, *index))
    first = ctx.monomial_series((1, 1, 1))
    assert ctx.monomial_series((1, 1, 1)) is first and ctx.entry((1, 1, 1), 13) == first.get(13, 0)
    assert checked == [(1, 1, 1)]
