"""Normal forms, moduli coordinates, and the residual root-of-unity action."""

import json
import math
import random
from fractions import Fraction

import pytest
import sympy

from legcurve import moduli
from legcurve.contact import act_on_curve
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
    with pytest.raises(ValidationError):
        rotate_point({11: Cyclotomic.from_rational(5, 1)}, 3, 10, 1)


def test_orbit_equivalence():
    assert orbit_equivalent({11: 1}, {11: 1}, 3, 10) == (True, 0)
    assert orbit_equivalent({11: 1}, {11: Cyclotomic.zeta(3, 1)}, 3, 10) == (True, 1)
    assert orbit_equivalent({11: 1}, {11: 2}, 3, 10) == (False, None)
    assert orbit_equivalent({11: 1}, {14: 1}, 3, 10) == (False, None)


def test_orbit_equivalence_two_coordinates():
    first = {13: Fraction(1), 16: Fraction(2)}
    second = {13: Cyclotomic.zeta(5, 1), 16: Cyclotomic.zeta(5, 4) * 2}
    assert orbit_equivalent(first, second, 5, 12) == (True, 1)
    off = {13: Cyclotomic.zeta(5, 1), 16: Cyclotomic.zeta(5, 3) * 2}
    assert orbit_equivalent(first, off, 5, 12) == (False, None)


def test_canonical_point_is_orbit_invariant():
    point = {11: Fraction(2)}
    base = canonical_point(point, 3, 10)
    for k in range(3):
        rotated = rotate_point(point, 3, 10, k)
        assert canonical_point(rotated, 3, 10) == base


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
