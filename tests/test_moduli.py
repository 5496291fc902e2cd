"""Normal forms, moduli coordinates, and the residual root-of-unity action."""

import json
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legcurve import moduli
from legcurve.contact import act_on_curve, homothety
from legcurve.curves import PlaneCurveGerm
from legcurve.cyclotomic import Cyclotomic
from legcurve.documents import load_curve
from legcurve.errors import (
    ContactDefectError,
    InsufficientPrecisionError,
    NonGenericCurveError,
    ValidationError,
)
from legcurve.moduli import (
    canonical_point,
    equivalent_curves,
    is_generic,
    is_short_form,
    moduli_point,
    normal_form,
    orbit_equivalent,
    rotate_point,
)
from legcurve.oracle import conormal_semigroup
from legcurve.sampling import random_curve, random_tangent_transform, trial_rng
from legcurve.semigroups import generic_semigroup


def short_form_accuracy(n, m):
    return max((n - 1) * (m - 1), m + 1)


def spy_on_steps(monkeypatch, corrupt=lambda image: image):
    """Record every image ``normal_form`` gets from ``act_on_curve``."""
    images = []

    def spy(phi, curve):
        image = corrupt(act_on_curve(phi, curve))
        images.append(image)
        return image

    monkeypatch.setattr(moduli, "act_on_curve", spy)
    return images


def test_is_generic():
    assert is_generic(PlaneCurveGerm(3, {10: 1, 11: 1}))
    assert not is_generic(PlaneCurveGerm(3, {10: 1, 12: 1}))
    assert is_generic(PlaneCurveGerm(3, {11: 1, 13: 1}))


def test_is_short_form():
    assert is_short_form(PlaneCurveGerm(3, {10: 1, 11: 5}))
    assert is_short_form(PlaneCurveGerm(3, {10: 1}))
    assert not is_short_form(PlaneCurveGerm(3, {10: 1, 12: 1}))
    assert not is_short_form(PlaneCurveGerm(3, {10: 1, 11: 1, 13: 2}))


def test_normal_form_already_short():
    nf = normal_form(PlaneCurveGerm(3, {10: 1, 11: 7}))
    assert nf.curve.coefficients == {10: 1, 11: 7}
    assert nf.unit == 1
    assert nf.steps == ()
    assert nf.free == (11,)
    assert nf.moduli_point() == {11: 7}


def test_normal_form_normalizes_leading_coefficient():
    nf = normal_form(PlaneCurveGerm(3, {10: 4, 11: 8}))
    assert nf.unit == Fraction(1, 4)
    assert nf.curve.coefficients == {10: 1, 11: 2}


def test_normal_form_reduction_steps():
    curve = PlaneCurveGerm(3, {10: 1, 11: 1, 13: 2, 14: -1}, 30)
    nf = normal_form(curve)
    assert nf.curve.coefficients == {10: 1, 11: 1}
    assert nf.steps[0].order == 13
    assert nf.steps[0].scale == -2
    assert [s.order for s in nf.steps] == [13, 14, 15, 16, 17]
    assert nf.moduli_point() == {11: 1}
    again = normal_form(nf.curve)
    assert again.curve == nf.curve and again.steps == ()


def test_normal_form_leaves_lower_free_value_alone():
    curve = PlaneCurveGerm(3, {10: 1, 11: 5, 13: 1}, 30)
    assert normal_form(curve).moduli_point() == {11: 5}


def test_normal_form_fixture_4_9():
    nf = normal_form(PlaneCurveGerm(4, {9: 1, 10: 1, 11: 1}, 30))
    assert nf.free == (11,)
    assert nf.steps[0].order == 10 and nf.steps[0].scale == -1
    assert nf.curve.coefficients == {9: 1, 11: Fraction(-1, 9)}
    assert nf.moduli_point() == {11: Fraction(-1, 9)}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_no_reduction_step_loses_accuracy(monkeypatch, n):
    images = spy_on_steps(monkeypatch)
    for m in range(2 * n + 1, 3 * n + 3):
        if math.gcd(n, m) != 1:
            continue
        keep = short_form_accuracy(n, m)
        images.clear()
        normal_form(random_curve(n, m, trial_rng(100 * n + m, 0)))
        assert [image.accuracy for image in images] == [keep] * len(images)
        # for n = 2 there is no removable order below the conductor
        assert images or n == 2


def test_a_step_that_loses_accuracy_is_reported(monkeypatch):
    keep = short_form_accuracy(3, 10)
    spy_on_steps(monkeypatch, lambda image: image.truncate(keep - 1))
    curve = PlaneCurveGerm(3, {10: 1, 11: 1, 13: 2, 14: -1}, 30)
    with pytest.raises(
        ContactDefectError,
        match="reduction at order 13 returned a curve exact below 17; "
        "the short form needs accuracy 18",
    ):
        normal_form(curve)


def add_term(k):
    """A corruption that adds t^k to every image."""

    def corrupt(image):
        coeffs = image.coefficients
        coeffs[k] = coeffs.get(k, 0) + 1
        return PlaneCurveGerm(image.n, coeffs, image.accuracy)

    return corrupt


# the first step clears t^13 of a curve of type (3, 10); a term at t^8 makes
# the image's type (3, 8), one at t^11 moves a lower coefficient, and one at
# t^13 leaves the target uncleared
@pytest.mark.parametrize("k", [8, 11, 13], ids=["below-m", "below-k", "at-k"])
def test_a_step_that_moves_the_wrong_coefficients_is_reported(monkeypatch, k):
    spy_on_steps(monkeypatch, add_term(k))
    curve = PlaneCurveGerm(3, {10: 1, 11: 1, 13: 2, 14: -1}, 30)
    with pytest.raises(ContactDefectError) as excinfo:
        normal_form(curve)
    assert str(excinfo.value) == (
        f"reduction at order 13 must clear t^13 alone below t^14, but the coefficients at [{k}] differ"
    )


@pytest.mark.parametrize("n, m", [(3, 10), (4, 11)])
def test_document_with_unrelated_denominators(n, m):
    """Every coefficient below the short form's accuracy has its own pair of
    large prime factors in the denominator, so no two denominators share a
    factor and the products inside the reduction carry their whole lcm."""
    keep = short_form_accuracy(n, m)
    rng = random.Random(100 * n + m)
    prime = 1 << 15
    terms = []
    for e in range(m, keep):
        p = prime = sympy.nextprime(prime)
        q = prime = sympy.nextprime(prime)
        num = rng.choice((-1, 1)) * rng.randrange(1 << 29, 1 << 30)
        terms.append({"e": e, "c": f"{num}/{p * q}"})
    curve = load_curve(json.dumps({"n": n, "terms": terms, "precision": keep}))
    denominators = [Fraction(c).denominator for c in curve.coefficients.values()]
    assert len(denominators) == keep - m
    assert math.lcm(*denominators) == math.prod(denominators)

    nf = normal_form(curve)
    assert is_short_form(nf.curve)
    assert conormal_semigroup(nf.curve) == generic_semigroup(n, m)
    phi = random_tangent_transform(n, m, trial_rng(100 * n + m, 1), keep)
    image = normal_form(act_on_curve(phi, curve))
    ok, _ = orbit_equivalent(nf.moduli_point(), image.moduli_point(), n, m)
    assert ok


def test_normal_form_rejects_non_generic():
    with pytest.raises(NonGenericCurveError, match="generic gaps"):
        normal_form(PlaneCurveGerm(3, {10: 1, 12: 1}, 30))


def test_normal_form_needs_enough_coefficients():
    with pytest.raises(InsufficientPrecisionError):
        normal_form(PlaneCurveGerm(3, {10: 1, 11: 1}, 15))


def test_moduli_point_shortcut():
    assert moduli_point(PlaneCurveGerm(3, {10: 1, 11: 3})) == {11: 3}


def test_rotate_point():
    rotated = rotate_point({11: 1}, 3, 10, 1)
    assert rotated == {11: Cyclotomic.zeta(3, 1)}
    assert rotate_point({11: 1}, 3, 10, 0) == {11: Cyclotomic.from_rational(3, 1)}
    assert rotate_point({13: Fraction(2, 3)}, 4, 11, 1) == {13: Cyclotomic.from_rational(4, Fraction(-2, 3))}


@pytest.mark.parametrize(
    "value",
    [Cyclotomic.zeta(3, 1), Cyclotomic.from_rational(5, 1), 0.5, True, "1/2"],
    ids=["cyclotomic", "wrong-order", "float", "bool", "str"],
)
def test_non_rational_coordinates_are_rejected(value):
    with pytest.raises(ValidationError, match="not rational"):
        rotate_point({11: value}, 3, 10, 1)
    with pytest.raises(ValidationError, match="not rational"):
        canonical_point({11: value}, 3, 10)
    with pytest.raises(ValidationError, match="not rational"):
        orbit_equivalent({11: 1}, {11: value}, 3, 10)


def test_orbit_equivalence():
    assert orbit_equivalent({11: 1}, {11: 1}, 3, 10) == (True, 0)
    assert orbit_equivalent({11: 0}, {11: Fraction(0)}, 3, 10) == (True, 0)
    assert orbit_equivalent({11: 1}, {11: -1}, 3, 10) == (False, None)
    assert orbit_equivalent({11: 1}, {11: 2}, 3, 10) == (False, None)
    assert orbit_equivalent({11: 1}, {14: 1}, 3, 10) == (False, None)
    # n even: t -> zeta_4 t multiplies a_13 by zeta_4^2 = -1
    assert orbit_equivalent({13: 2}, {13: -2}, 4, 11) == (True, 1)
    assert orbit_equivalent({13: 2}, {13: 2}, 4, 11) == (True, 0)


def test_orbit_equivalence_two_coordinates():
    # at (4, 11) the rotation k multiplies a_13 by (-1)^k and fixes a_15
    first = {13: Fraction(1), 15: Fraction(3)}
    assert orbit_equivalent(first, {13: -1, 15: 3}, 4, 11) == (True, 1)
    assert orbit_equivalent(first, {13: -1, 15: -3}, 4, 11) == (False, None)
    # at (5, 12) no non-trivial rotation keeps a non-zero coordinate rational
    assert orbit_equivalent({13: 1, 16: 2}, {13: 1, 16: 2}, 5, 12) == (True, 0)
    assert orbit_equivalent({13: 1, 16: 2}, {13: -1, 16: 2}, 5, 12) == (False, None)
    # a zero coordinate is fixed by every rotation, e.g. a_14 at (4, 11)
    assert orbit_equivalent({13: 1, 14: 0}, {13: -1, 14: 0}, 4, 11) == (True, 1)
    assert orbit_equivalent({13: 1, 14: 5}, {13: -1, 14: 5}, 4, 11) == (False, None)


def test_canonical_point_is_orbit_invariant():
    assert canonical_point({13: 2, 15: 3}, 4, 11) == canonical_point({13: -2, 15: 3}, 4, 11)
    assert canonical_point({13: 2, 15: 3}, 4, 11) != canonical_point({13: 2, 15: -3}, 4, 11)
    assert canonical_point({11: Fraction(2)}, 3, 10) != canonical_point({11: -2}, 3, 10)
    assert canonical_point({11: 0}, 3, 10) == {11: Cyclotomic.from_rational(3, 0)}


@st.composite
def rational_points(draw):
    n = draw(st.integers(2, 7))
    m = draw(st.integers(n + 1, 4 * n).filter(lambda m: math.gcd(n, m) == 1))
    indices = draw(st.lists(st.integers(m + 1, m + 2 * n), min_size=1, max_size=4, unique=True))
    values = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
    return n, m, {i: draw(values) for i in indices}


@settings(max_examples=200, deadline=None)
@given(rational_points())
@example((3, 10, {11: 0}))  # every rotation ties
@example((4, 11, {13: 2, 14: 0}))  # k and k + 2 tie
@example((6, 13, {16: -1, 19: Fraction(1, 2)}))
@example((2, 5, {7: 1, 9: -1}))
def test_canonical_point_is_the_first_least_rotation(data):
    n, m, point = data
    indices = sorted(point)
    rotations = [rotate_point(point, n, m, k) for k in range(n)]
    keys = [tuple(rotated[i].coeffs for i in indices) for rotated in rotations]
    expected = rotations[keys.index(min(keys))]
    canonical = canonical_point(point, n, m)
    assert canonical == expected and list(canonical) == list(point)


@pytest.mark.parametrize("n", [0, 1, -3, 3.0, True])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: rotate_point({11: 1}, n, 10, 1),
        lambda n: canonical_point({11: 1}, n, 10),
        lambda n: orbit_equivalent({11: 1}, {11: 1}, n, 10),
    ],
    ids=["rotate_point", "canonical_point", "orbit_equivalent"],
)
def test_point_functions_reject_a_multiplicity_below_2(call, n):
    with pytest.raises(ValidationError) as excinfo:
        call(n)
    assert str(excinfo.value) == f"multiplicity n must be an integer at least 2, got {n!r}"


@st.composite
def rational_point_pairs(draw):
    n = draw(st.integers(2, 7))
    m = draw(st.integers(n + 1, 4 * n).filter(lambda m: math.gcd(n, m) == 1))
    indices = draw(st.lists(st.integers(m + 1, m + 2 * n), min_size=1, max_size=4, unique=True))
    values = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
    first = {i: draw(values) for i in indices}
    # the second point keeps, negates or zeroes each coordinate, or draws a new one
    moves = [lambda v: v, lambda v: -v, lambda v: 0, lambda v: draw(values)]
    second = {i: draw(st.sampled_from(moves))(v) for i, v in first.items()}
    # or it is a rotation of the first whose coordinates all stay rational
    rotated = rotate_point(first, n, m, draw(st.integers(0, n - 1)))
    if draw(st.booleans()) and not any(any(x.coeffs[1:]) for x in rotated.values()):
        second = {i: x.coeffs[0] for i, x in rotated.items()}
    if draw(st.integers(0, 9)) == 0:
        second[m + 2 * n + 1] = 1
    return n, m, first, second


@settings(max_examples=300, deadline=None)
@given(rational_point_pairs())
@example((4, 11, {13: 2, 15: 3}, {13: -2, 15: 3}))
@example((6, 13, {16: 1, 19: 0}, {16: -1, 19: 0}))
def test_orbit_equivalence_agrees_with_canonical_points_and_rotation(data):
    n, m, first, second = data
    verdict, witness = orbit_equivalent(first, second, n, m)
    assert verdict == (canonical_point(first, n, m) == canonical_point(second, n, m))
    # the witness is the least k whose rotation, computed in Q(zeta_n), is the second point
    expected = {i: Cyclotomic.from_rational(n, v) for i, v in second.items()}
    matches = [k for k in range(n) if rotate_point(first, n, m, k) == expected]
    assert (verdict, witness) == ((True, matches[0]) if matches else (False, None))


@pytest.mark.parametrize("lam", [8, Fraction(1, 27), -1, -8])
def test_equivalence_divides_out_only_maps_with_linear_x_coefficient_1(lam):
    # x -> lam*x is a contact map outside the group divided out: it moves
    # a_11 relative to a_10, so c1 and its image are not equivalent, while
    # the verdicts among images of one such map are those of the originals
    c1 = PlaneCurveGerm(3, {10: 1, 11: 1}, 40)
    c2 = PlaneCurveGerm(3, {10: 1, 11: 2}, 40)
    c3 = act_on_curve(random_tangent_transform(3, 10, trial_rng(0, 1), 40), c1)
    assert (equivalent_curves(c1, c2)[0], equivalent_curves(c1, c3)[0]) == (False, True)
    d1, d2, d3 = (act_on_curve(homothety(3, 10, lam, 1), c) for c in (c1, c2, c3))
    assert (equivalent_curves(d1, d2)[0], equivalent_curves(d1, d3)[0]) == (False, True)
    assert equivalent_curves(c1, d1) == (False, None)


def test_equivalent_curves():
    a = PlaneCurveGerm(3, {10: 1, 11: 1})
    b = PlaneCurveGerm(3, {10: 4, 11: 4})
    assert equivalent_curves(a, b) == (True, 0)
    c = PlaneCurveGerm(3, {10: 1, 11: 2})
    assert equivalent_curves(a, c) == (False, None)
    d = PlaneCurveGerm(3, {11: 1, 13: 1})
    assert equivalent_curves(a, d) == (False, None)
    with pytest.raises(NonGenericCurveError):
        equivalent_curves(a, PlaneCurveGerm(3, {10: 1, 12: 1}, 30))


def test_equivalence_forgets_removable_terms():
    a = PlaneCurveGerm(3, {10: 1, 11: 1}, 30)
    b = PlaneCurveGerm(3, {10: 1, 11: 1, 13: 5}, 30)
    ok, witness = equivalent_curves(a, b)
    assert ok and witness == 0


def test_short_form_keeps_s_coordinate_nonzero():
    for coeffs in ({10: 1, 11: 5, 13: 1}, {10: 2, 11: 1, 16: -3}):
        nf = normal_form(PlaneCurveGerm(3, coeffs, 30))
        assert nf.moduli_point()[11] != 0
