"""Packed-exponent polynomials against a naive tuple-keyed reference.

``Poly`` packs the exponents of a monomial into one int.  The reference
below keeps them as tuples, the obvious way, and every operation is
compared on random sparse polynomials over 3 to 25 generators.
Ring results, built unchecked, must equal what the validating public
constructor makes of their terms, which it rejects when malformed.
``determinant`` and the sum-of-products kernel are compared with sympy,
``leading_monomial`` with the lex key read from the highest symbol down,
and the exponent guard is tested at its limit.
"""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legcurve.errors import ValidationError
from legcurve.expansion import determinant, leading_monomial
from legcurve.sympoly import EXPONENT_LIMIT, Poly, _sum_of_products


def gens_of(count):
    return ("mu",) + tuple(f"a{s}" for s in range(9, 8 + count))


# -- the reference: {exponent tuple: coefficient} ---------------------------------


def ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return ref_clean(out)


def ref_neg(f):
    return {e: -c for e, c in f.items()}


def ref_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return ref_clean(out)


def ref_pow(f, k, count):
    out = {(0,) * count: 1}
    for _ in range(k):
        out = ref_mul(out, f)
    return out


def ref_diff(f, idx):
    return {e[:idx] + (e[idx] - 1,) + e[idx + 1:]: c * e[idx] for e, c in f.items() if e[idx]}


def ref_substitute(f, values):
    out = {}
    for e, c in f.items():
        for idx, v in values.items():
            c = c * Fraction(v) ** e[idx]
        key = tuple(0 if i in values else k for i, k in enumerate(e))
        out[key] = out.get(key, 0) + c
    return ref_clean(out)


def ref_repr(gens, f):
    if not f:
        return "Poly(0)"
    pieces = []
    for e in sorted(f):
        factors = [name if k == 1 else f"{name}^{k}" for name, k in zip(gens, e) if k]
        c = f[e]
        if factors:
            head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            pieces.append(head + "*".join(factors))
        else:
            pieces.append(str(c))
    return "Poly(" + " + ".join(pieces) + ")"


def build(gens, terms):
    """The Poly of a reference dict, through the public constructors."""
    total = Poly.const(gens, 0)
    for e, c in terms.items():
        mono = Poly.const(gens, c)
        for name, k in zip(gens, e):
            if k:
                mono = mono * Poly.variable(gens, name) ** k
        total = total + mono
    return total


def as_ref(poly):
    return dict(zip(poly.exponents(), poly.terms.values()))


# -- strategies ---------------------------------------------------------------------

COEFFS = st.one_of(
    st.integers(-5, 5),
    st.integers(-(10**20), 10**20),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-9, 9)),  # integral Fraction
)
VALUES = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3)),
    st.builds(Fraction, st.integers(-5, 5), st.integers(2, 5)),
)


def sparse_terms(count, coeffs=COEFFS, max_terms=5, max_exp=6):
    monomials = st.dictionaries(
        st.integers(0, count - 1), st.integers(1, max_exp), max_size=4
    ).map(lambda d: tuple(d.get(i, 0) for i in range(count)))
    return st.dictionaries(monomials, coeffs, max_size=max_terms).map(ref_clean)


@st.composite
def poly_pair(draw):
    count = draw(st.integers(3, 25))
    return gens_of(count), draw(sparse_terms(count)), draw(sparse_terms(count))


LAST = (0,) * 24 + (6,)


@settings(max_examples=100, deadline=None)
@example((gens_of(25), {LAST: 3, (0,) * 25: Fraction(1, 2)}, {LAST: -1}))
@given(poly_pair())
def test_terms_exponents_degrees_and_repr_match_the_reference(pair):
    gens, f, _ = pair
    p = build(gens, f)
    assert as_ref(p) == f
    assert sorted(p.exponents()) == sorted(f)
    assert all(type(c) in (int, Fraction) and c for c in p.terms.values())
    for idx, name in enumerate(gens):
        assert p.degree_in(name) == max((e[idx] for e in f), default=0)
    assert repr(p) == ref_repr(gens, f)
    assert p == build(gens, dict(reversed(list(f.items()))))
    assert hash(p) == hash(build(gens, f))


@settings(max_examples=100, deadline=None)
@example((gens_of(25), {LAST: 3}, {LAST: -3}))
@given(poly_pair())
def test_ring_operations_match_the_reference(pair):
    gens, f, g = pair
    p, q = build(gens, f), build(gens, g)
    assert as_ref(p + q) == ref_add(f, g)
    assert as_ref(p - q) == ref_add(f, ref_neg(g))
    assert as_ref(-p) == ref_neg(f)
    assert as_ref(p * q) == ref_mul(f, g)
    assert as_ref(q * p) == ref_mul(f, g)
    assert as_ref(3 - p) == ref_add({(0,) * len(gens): 3}, ref_neg(f))
    assert as_ref(p * Fraction(2, 3)) == {e: c * Fraction(2, 3) for e, c in f.items()}
    assert (p * q == build(gens, ref_mul(f, g))) and not (p - p)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 25).flatmap(
        lambda count: st.tuples(st.just(count), sparse_terms(count, max_terms=3))
    ),
    st.integers(0, 4),
)
def test_power_matches_repeated_products(case, k):
    count, f = case
    gens = gens_of(count)
    assert as_ref(build(gens, f) ** k) == ref_pow(f, k, count)


@settings(max_examples=100, deadline=None)
@example((gens_of(25), {LAST: 3, (1,) + (0,) * 24: 2}, {}), 24)
@given(poly_pair(), st.integers(0, 24))
def test_diff_matches_the_reference(pair, idx):
    gens, f, _ = pair
    idx %= len(gens)
    assert as_ref(build(gens, f).diff(gens[idx])) == ref_diff(f, idx)


@settings(max_examples=120, deadline=None)
@example((gens_of(25), {LAST: 3, (2,) + (0,) * 23 + (1,): 5}, {}), [24], [2, 2, 2], False)
@given(
    poly_pair(),
    st.lists(st.integers(0, 24), min_size=1, max_size=6),
    st.lists(VALUES, min_size=3, max_size=3),
    st.booleans(),
)
def test_substitute_matches_the_reference(pair, picks, values, full):
    gens, f, _ = pair
    picked = range(len(gens)) if full else {i % len(gens) for i in picks}
    chosen = {i: values[i % 3] for i in picked}
    result = build(gens, f).substitute({gens[i]: v for i, v in chosen.items()})
    assert as_ref(result) == ref_substitute(f, chosen)
    if all(type(c) is int for c in f.values()) and all(
        Fraction(v).denominator == 1 for v in chosen.values()
    ):
        assert all(type(c) is int for c in result.terms.values())
    if full:
        assert result.as_constant() == sum(ref_substitute(f, chosen).values(), Fraction(0))


def test_integral_values_substitute_as_int():
    gens = gens_of(3)
    mu, a9 = Poly.variable(gens, "mu"), Poly.variable(gens, "a9")
    p = (mu + 2) * a9 ** 2 * 3
    for value in (0, 5, Fraction(5), Fraction(10, 2)):
        coeffs = p.substitute({"mu": value}).terms.values()
        assert all(type(c) is int for c in coeffs)
    half = p.substitute({"mu": Fraction(1, 2)})
    assert half == a9 ** 2 * Fraction(15, 2)


# -- unchecked results against the validating constructor ---------------------------

# (a9 + a10) * (a9 - a10) cancels its cross term
A_SUM = {(0, 1, 0): 1, (0, 0, 1): 1}
A_DIFFERENCE = {(0, 1, 0): 1, (0, 0, 1): -1}


def assert_well_formed(poly):
    assert poly == Poly(poly.gens, dict(poly.terms))
    assert all(poly.terms.values())


@settings(max_examples=100, deadline=None)
@example((gens_of(3), A_SUM, A_DIFFERENCE), 0, 1, 2, Fraction(1, 2))
@example((gens_of(25), {LAST: 3}, {LAST: -3}), Fraction(-2, 3), 24, 3, 0)
@given(poly_pair(), COEFFS, st.integers(0, 24), st.integers(0, 3), VALUES)
def test_unchecked_results_equal_the_public_constructor(pair, scalar, idx, k, value):
    gens, f, g = pair
    p, q = build(gens, f), build(gens, g)
    name = gens[idx % len(gens)]
    for result in (
        p + q, p - q, q - p, p - p, (p + q) - q, p * q, (p + q) * (p - q), p ** k, -p,
        p * scalar, scalar * p, p + scalar, scalar - p, p.diff(name), p.substitute({name: value}),
    ):
        assert_well_formed(result)


@pytest.mark.parametrize(
    "terms",
    [
        pytest.param({-1: 2}, id="negative key"),
        pytest.param({True: 1}, id="bool key"),
        pytest.param({1.0: 1}, id="float key"),
        pytest.param({1 << 15: 1}, id="guard bit"),
        pytest.param({1 << 47: 1}, id="last guard bit"),
        pytest.param({1 << 48: 1}, id="above the last field"),
        pytest.param({1: 0.5}, id="float coefficient"),
        pytest.param({1: True}, id="bool coefficient"),
        pytest.param({1: False}, id="false coefficient"),
    ],
)
def test_public_constructor_rejects_malformed_terms(terms):
    with pytest.raises(ValidationError):
        Poly(("mu", "a10", "a11"), terms)


@pytest.mark.parametrize(
    "gens",
    [("u", "u"), ["u", "v"], ("u", 1), ("u", None), "uv", None],
    ids=repr,
)
def test_constructors_reject_generators_that_are_not_a_tuple_of_distinct_names(gens):
    with pytest.raises(ValidationError, match="generators must be a tuple of distinct names"):
        Poly(gens, {})
    with pytest.raises(ValidationError, match="generators must be a tuple of distinct names"):
        Poly.const(gens, 1)
    with pytest.raises(ValidationError, match="generators must be a tuple of distinct names"):
        Poly.variable(gens, "u")


def test_public_constructor_accepts_well_formed_terms():
    gens, top = ("mu", "a10", "a11"), (1 << 15) - 1
    p = Poly(gens, {0: 0, top: Fraction(1, 2), top << 32: -3})
    assert p.terms == {top: Fraction(1, 2), top << 32: -3}
    assert list(p.exponents()) == [(top, 0, 0), (0, 0, top)]
    for value in (0.5, True):
        with pytest.raises(ValidationError):
            Poly.const(gens, value)
        with pytest.raises(TypeError):
            value - p


# -- determinant against sympy --------------------------------------------------------

DET_GENS = gens_of(3)
SYMBOLS = sp.symbols(DET_GENS)
SMALL = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


def to_sympy(terms):
    total = sp.Integer(0)
    for e, c in terms.items():
        c = Fraction(c)
        total += sp.Rational(c.numerator, c.denominator) * sp.Mul(*(s ** k for s, k in zip(SYMBOLS, e)))
    return total


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda d: st.lists(
        st.lists(sparse_terms(3, SMALL, max_terms=2, max_exp=2), min_size=d, max_size=d),
        min_size=d,
        max_size=d,
    )
))
def test_determinant_matches_sympy(rows):
    det = determinant([[build(DET_GENS, f) for f in row] for row in rows])
    expected = sp.Matrix([[to_sympy(f) for f in row] for row in rows]).det(method="berkowitz")
    assert sp.expand(expected - to_sympy(as_ref(det))) == 0


DET_TERMS = sparse_terms(3, SMALL, max_terms=3, max_exp=2)
A9, A10 = {(0, 1, 0): 1}, {(0, 0, 1): Fraction(-2, 3)}


@settings(max_examples=60, deadline=None)
@example([], False)
@example([(1, A9, A10), (-1, A9, A10)], False)
@example([(-1, A_SUM, A_DIFFERENCE), (1, A9, A9)], True)
@given(st.lists(st.tuples(st.sampled_from([1, -1]), DET_TERMS, DET_TERMS), max_size=6), st.booleans())
def test_sum_of_products_matches_sympy(triples, cancel):
    if cancel:  # append every product again with the opposite sign
        triples = triples + [(-sign, f, g) for sign, f, g in triples]
    result = _sum_of_products(
        DET_GENS, [(sign, build(DET_GENS, f), build(DET_GENS, g)) for sign, f, g in triples]
    )
    expected = sum((sign * to_sympy(f) * to_sympy(g) for sign, f, g in triples), sp.Integer(0))
    assert sp.expand(expected - to_sympy(as_ref(result))) == 0
    assert_well_formed(result)
    if cancel:
        assert not result


# -- leading monomial against the old lex key -------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.integers(3, 25).flatmap(
        lambda count: st.tuples(
            st.just(count),
            sparse_terms(count).map(lambda f: {(0,) + e[1:]: c for e, c in f.items()}),
        )
    )
)
def test_leading_monomial_matches_the_lex_key(case):
    count, f = case
    f = ref_clean(f)
    if not f:
        return
    gens = gens_of(count)
    best = max(f, key=lambda e: e[1:][::-1])
    named, coeff = leading_monomial(build(gens, f))
    assert named == {name: k for name, k in zip(gens, best) if k}
    assert coeff == f[best] and type(coeff) is Fraction


# -- the exponent guard -------------------------------------------------------------

GUARD_GENS = ("mu", "a10", "a11")


def test_power_reaching_the_limit_raises():
    with pytest.raises(ValidationError):
        Poly.variable(GUARD_GENS, "a10") ** (1 << 15)


def test_negative_powers_are_rejected():
    with pytest.raises(ValidationError, match="negative powers are not polynomials"):
        Poly.variable(GUARD_GENS, "mu") ** -1


@pytest.mark.parametrize("name", GUARD_GENS)
def test_product_reaching_the_limit_raises(name):
    x = Poly.variable(GUARD_GENS, name)
    half = x ** (1 << 14)
    with pytest.raises(ValidationError):
        half * half
    other = Poly.variable(GUARD_GENS, "a10" if name == "mu" else "mu")
    with pytest.raises(ValidationError):
        (x ** ((1 << 15) - 3) + other) * (x ** 3 * other + 1)


@pytest.mark.parametrize("name", GUARD_GENS)
def test_exponents_just_below_the_limit_work(name):
    x = Poly.variable(GUARD_GENS, name)
    top = (1 << 15) - 1
    expected = [tuple(top if g == name else 0 for g in GUARD_GENS)]
    for p in (x ** top, x ** (1 << 14) * x ** ((1 << 14) - 1)):
        assert list(p.exponents()) == expected
        assert list(p.terms.values()) == [1]
        assert [p.degree_in(g) for g in GUARD_GENS] == [e for e in expected[0]]
        assert list(p.diff(name).exponents()) == [tuple(k - 1 if k else 0 for k in expected[0])]


def test_determinant_raises_at_the_limit_even_when_its_terms_cancel():
    u = Poly.variable(GUARD_GENS, "a10") ** (EXPONENT_LIMIT - 1)
    with pytest.raises(ValidationError, match="packing limit"):
        determinant([[u, u], [u, u]])


def test_determinant_rejects_mixed_generator_tuples():
    u, v = Poly.variable(("u",), "u"), Poly.variable(("v",), "v")
    with pytest.raises(ValidationError, match="mixed"):
        determinant([[u, 1], [v, u]])


@pytest.mark.parametrize("entry", [None, 0.5, True, "1"], ids=repr)
def test_determinant_rejects_non_rational_entries(entry):
    u = Poly.variable(("u",), "u")
    with pytest.raises(ValidationError, match="entries"):
        determinant([[u, entry], [entry, u]])


def test_a_guard_bit_in_the_key_pretest_alone_does_not_raise():
    x, half = Poly.variable(GUARD_GENS, "a10"), EXPONENT_LIMIT >> 1
    # the operands' key ORs sum to x^EXPONENT_LIMIT, but no product reaches it
    assert (x ** half + x ** (half - 1)) * x == x ** (half + 1) + x ** half
    assert determinant([[x ** half + x ** (half - 1), 1], [0, x]]) == x ** (half + 1) + x ** half


# -- generator names and substituted values ------------------------------------------

NAMED = Poly.variable(GUARD_GENS, "mu") * Poly.variable(GUARD_GENS, "a10") + 1


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: Poly.variable(GUARD_GENS, "zz"), id="variable"),
        pytest.param(lambda: NAMED.diff("zz"), id="diff"),
        pytest.param(lambda: NAMED.degree_in("zz"), id="degree_in"),
        pytest.param(lambda: NAMED.substitute({"zz": 1}), id="substitute"),
    ],
)
def test_unknown_generator_is_named(call):
    with pytest.raises(ValidationError, match="'zz'"):
        call()


@pytest.mark.parametrize("value", [0.1, 0.5, "1/3", True, False, None], ids=repr)
def test_substitute_rejects_non_rational_values(value):
    with pytest.raises(ValidationError, match="mu"):
        NAMED.substitute({"mu": value})
