"""Contact transformations: the defining identity, the Cauchy-style solver,
composition, classification, and the action on curves.

The two solver fixtures are integrated by hand.  With alpha = 0 and
beta0 = -x^4 the dp equation forces beta = -x^4 and the dx equation gives
gamma = -4x^3.  With alpha = -2p, beta0 = 0 the recursion yields
beta = -p^2, gamma = 0, i.e. the lift of the shear (x, p) -> (x - 2p, p).
"""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import legcurve.contact
from legcurve.contact import (
    ContactMap,
    act_on_curve,
    classify,
    compose,
    decompose_triangular,
    forget_transform,
    homothety,
    identity_map,
    legendre_transformation,
    linear_symplectic,
    linear_symplectic_inverse,
    require_contact,
    solve_contact,
    verify_contact,
)
from legcurve.curves import PlaneCurveGerm, default_accuracy, reparametrize
from legcurve.errors import (
    ContactDefectError,
    InsufficientPrecisionError,
    LegcurveError,
    NotRealizableError,
    ValidationError,
)
from legcurve.germs import Germ, contact_weights, evaluate_on_series, invert_unit
from legcurve.oracle import conormal_semigroup, realize_order
from legcurve.sampling import (
    random_curve,
    random_germ,
    random_solvable_data,
    random_tangent_transform,
    trial_rng,
)

W = contact_weights(3, 10)
X, Y, P = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def germ(coeffs, accuracy=math.inf):
    return Germ(W, coeffs, accuracy)


def test_constructor_rejects_bad_displacements():
    with pytest.raises(ValidationError):
        ContactMap(germ({}), germ({(0, 0, 0): 1}), germ({}))
    other = Germ(contact_weights(4, 9), {}, math.inf)
    with pytest.raises(ValidationError):
        ContactMap(germ({}), other, germ({}))


def test_identity_and_homothety_verify():
    check = verify_contact(identity_map(3, 10))
    assert check.ok and not check.failures
    assert dict(check.multiplier.coeffs) == {(0, 0, 0): 1}

    h = homothety(3, 10, 2, 3)
    check = verify_contact(h)
    assert check.ok
    assert dict(check.multiplier.coeffs) == {(0, 0, 0): 3}
    assert h.gamma.coefficient(P) == Fraction(1, 2)
    with pytest.raises(ValidationError):
        homothety(3, 10, 0, 1)


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda: homothety(3, 10, True, 2), True),
        (lambda: homothety(3, 10, "2", 1), "2"),
        (lambda: homothety(3, 10, 2, 0.5), 0.5),
        (lambda: linear_symplectic(3, 10, "1", 0, 0, 1), "1"),
        (lambda: linear_symplectic(3, 10, 1, 0, 0, True), True),
    ],
    ids=["homothety-bool", "homothety-str", "homothety-float", "symplectic-str", "symplectic-bool"],
)
def test_a_linear_factor_that_is_not_rational_is_named(call, value):
    with pytest.raises(ValidationError, match=f"coefficient {re.escape(repr(value))} is not rational"):
        call()


def test_legendre_passes_and_squares_to_minus_one():
    leg = legendre_transformation(3, 10)
    check = verify_contact(leg)
    assert check.ok
    assert dict(check.multiplier.coeffs) == {(0, 0, 0): 1}
    twice = compose(leg, leg)
    assert twice.agrees_with(linear_symplectic(3, 10, -1, 0, 0, -1))


def test_linear_symplectic_needs_unit_determinant():
    with pytest.raises(ValidationError):
        linear_symplectic(3, 10, 1, 1, 1, 1)


def test_linear_symplectic_inverse():
    phi = linear_symplectic(3, 10, 2, 3, 1, 2)
    inv = linear_symplectic_inverse(3, 10, 2, 3, 1, 2)
    assert compose(phi, inv).agrees_with(identity_map(3, 10))
    assert compose(inv, phi).agrees_with(identity_map(3, 10))


def test_verify_catches_broken_map():
    bad = ContactMap(germ({P: -2}), germ({(0, 0, 2): 1}), germ({}))
    check = verify_contact(bad)
    assert not check.ok
    assert any("dp" in f for f in check.failures)
    with pytest.raises(ContactDefectError):
        require_contact(bad)


def test_solve_pure_y_translation():
    phi = solve_contact(germ({}), germ({(4, 0, 0): -1}), 24)
    assert dict(phi.beta.coeffs) == {(4, 0, 0): -1}
    assert dict(phi.gamma.coeffs) == {(3, 0, 0): -4}
    assert phi.alpha.is_zero()


def test_solve_recovers_shear():
    phi = solve_contact(germ({P: -2}), germ({}), 24)
    assert phi.agrees_with(linear_symplectic(3, 10, 1, -2, 0, 1))


def test_solve_beta_keeps_prescribed_p_free_part():
    alpha = germ({(2, 0, 0): 1})
    beta0 = germ({(0, 1, 0): Fraction(1, 2), (3, 0, 0): -2})
    phi = solve_contact(alpha, beta0, 30)
    assert verify_contact(phi).ok
    p_free = {mo: v for mo, v in phi.beta.coeffs.items() if mo[2] == 0}
    assert p_free == dict(beta0.coeffs)
    assert dict(phi.alpha.coeffs) == {(2, 0, 0): 1}


def test_solve_validations():
    with pytest.raises(ValidationError, match="involve p"):
        solve_contact(germ({}), germ({P: 1}), 20)
    with pytest.raises(ValidationError, match="linear x term"):
        solve_contact(germ({}), germ({X: 1}), 20)
    with pytest.raises(ValidationError, match="vanish at the origin"):
        solve_contact(germ({(0, 0, 0): 1}), germ({}), 20)
    with pytest.raises(ValidationError, match="finite accuracy"):
        solve_contact(germ({P: 1}), germ({}))
    other = Germ(contact_weights(4, 9), {}, math.inf)
    with pytest.raises(ValidationError, match="weighted"):
        solve_contact(germ({}), other, 20)
    with pytest.raises(ContactDefectError):
        solve_contact(germ({X: -1}), germ({}), 20)
    with pytest.raises(ContactDefectError, match="d_y"):
        solve_contact(germ({}), germ({(0, 1, 0): -1}), 20)


def _reference_solve_contact(alpha, beta0, accuracy):
    """The p-recursion of solve_contact term by term: every factor is rebuilt
    where it is used and every product is taken, exact zeros included.  The
    input checks are left out."""
    w = alpha.weights
    wp = w[2]
    target = min(accuracy, alpha.accuracy, beta0.accuracy)
    parts_a = alpha.p_parts()

    def a_part(j):
        if j in parts_a:
            return parts_a[j]
        if alpha.accuracy == math.inf:
            return Germ.zero(w)
        return Germ.zero(w, max(alpha.accuracy - j * wp, 0))

    def u_part(s):
        return a_part(s).partial("x") + a_part(s - 1).partial("y")

    unit_inv = invert_unit((Germ.constant(w, 1) + a_part(0).partial("x")).truncate(target))
    parts_b = {0: beta0}
    k = 0
    while (k + 1) * wp < target:
        total = a_part(k).scale(k)
        for j in range(1, k + 1):
            total = total + a_part(j).scale(j) * parts_b[k - j].partial("y")
        for j in range(0, k + 1):
            total = total + a_part(j + 1).scale(j + 1) * parts_b[k - j].partial("x")
        for r in range(0, k):
            total = total - u_part(k - r) * parts_b[r + 1].scale(r + 1)
        parts_b[k + 1] = (total * unit_inv).scale(Fraction(1, k + 1))
        k += 1
    beta = Germ.from_p_parts(w, parts_b).truncate(target)

    p = Germ.variable(w, "p")
    d_x = alpha.partial("x")
    d_y = alpha.partial("y")
    full_unit = Germ.constant(w, 1) + d_x + p * d_y
    gamma = invert_unit(full_unit.truncate(target)) * (
        beta.partial("x") + p * (beta.partial("y") - d_x - p * d_y)
    )
    result = ContactMap(alpha.truncate(target), beta, gamma.truncate(target))
    require_contact(result)
    return result


def _outcome(solver, alpha, beta0, accuracy):
    try:
        return solver(alpha, beta0, accuracy).components()
    except LegcurveError as err:
        return type(err), str(err)


def _witness_data(n, m, rng, accuracy):
    """forget_transform's exact input: a scaled witness of a realizable order."""
    curve = random_curve(n, m, rng, spread=5)
    semigroup = conormal_semigroup(curve)
    order = rng.choice([k for k in range(m + 1, m + 3 * n) if k in semigroup])
    b = realize_order(curve, order).scale(Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)))
    beta0 = Germ(b.weights, {mo: v for mo, v in b.coeffs.items() if mo[2] == 0}, b.accuracy)
    return -b.partial("p"), beta0, accuracy


def _solvable_data(n, m, rng, accuracy):
    return (*random_solvable_data(n, m, rng, accuracy), accuracy)


def _tangent_data(n, m, rng, accuracy):
    """The data random_tangent_transform integrates (for m > 2n)."""
    alpha = random_germ(n, m, rng, m - n, 2 * (m - n), accuracy=accuracy)
    beta0 = random_germ(n, m, rng, 2 * (m - n), 3 * (m - n), p_free=True, accuracy=accuracy)
    return alpha, beta0, accuracy


def _sparse_data(n, m, rng, accuracy):
    """Few terms, and accuracies of their own, so that whole p-parts of alpha
    are zeros of finite accuracy, which still bound the accuracy of a sum."""
    alpha = random_germ(n, m, rng, 1, 3 * m, spread=1, skip=(X,), accuracy=rng.randint(8, 40))
    beta0 = random_germ(
        n, m, rng, 2, 3 * m, spread=1, p_free=True, skip=(X, Y), accuracy=rng.randint(8, 40)
    )
    return alpha, beta0, accuracy


def _given(alpha, beta0):
    """Data for an @example: this alpha and beta0, at any type and seed."""
    return lambda n, m, rng, accuracy: (alpha, beta0, accuracy)


W411 = contact_weights(4, 11)


@settings(max_examples=200, deadline=None)
# alpha has no p term, so the p-recursion is skipped: alpha = 0 (the witness x^2 y),
# alpha = 2xy exactly (the witness -2xyp), alpha of finite accuracy, and 0 known below 20
@example(_given(Germ(W411, {}, math.inf), Germ(W411, {(2, 1, 0): 3}, math.inf)), (4, 11), 0, 30)
@example(_given(Germ(W411, {(1, 1, 0): 2}, math.inf), Germ(W411, {}, math.inf)), (4, 11), 0, 30)
@example(_given(Germ(W411, {(1, 1, 0): 2, (0, 1, 0): Fraction(1, 3), (3, 0, 0): Fraction(-1, 5)}, 26),
                Germ(W411, {(2, 1, 0): 3, (0, 2, 0): 1}, 33)), (4, 11), 0, 40)
@example(_given(Germ(W411, {}, 20), Germ(W411, {(2, 0, 0): Fraction(1, 7)}, 35)), (4, 11), 0, 40)
@given(
    st.sampled_from([_solvable_data, _tangent_data, _witness_data, _sparse_data]),
    st.sampled_from([(3, 7), (3, 10), (4, 11), (5, 7)]),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=8, max_value=40),
)
def test_solve_contact_matches_the_term_by_term_recursion(data, nm, seed, accuracy):
    """Same num, den and accuracy in all three components, or the same error;
    at a target accuracy up to m, the error that names it."""
    assume(data is not _tangent_data or nm[1] > 2 * nm[0])
    alpha, beta0, accuracy = data(*nm, random.Random(seed), accuracy)
    # the input checks, which the reference leaves out
    assume(alpha.in_maximal_ideal() and not beta0.coeffs.get(X))
    assume(alpha.coeffs.get(X) != -1 and beta0.coeffs.get(Y) != -1)
    target = min(accuracy, alpha.accuracy, beta0.accuracy)
    if target <= nm[1]:
        with pytest.raises(InsufficientPrecisionError, match=f"above m = {nm[1]}.*got {target}"):
            solve_contact(alpha, beta0, accuracy)
        return
    assert _outcome(solve_contact, alpha, beta0, accuracy) == _outcome(
        _reference_solve_contact, alpha, beta0, accuracy
    )


def test_solve_contact_at_an_accuracy_up_to_m_names_it():
    w = contact_weights(3, 10)
    with pytest.raises(InsufficientPrecisionError, match=r"accuracy above m = 10, the weight of y; got 10"):
        solve_contact(Germ.zero(w, 40), Germ.zero(w, 40), 10)
    assert solve_contact(Germ.zero(w, 40), Germ.zero(w, 40), 11).beta == Germ.zero(w, 11)


@pytest.mark.parametrize("accuracy", ["30", -5, True, 2.5])
def test_solve_contact_checks_an_explicit_accuracy(accuracy):
    message = f"accuracy must be a non-negative integer or infinity, got {accuracy!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        solve_contact(germ({}), germ({(4, 0, 0): -1}), accuracy)


def test_forget_transform_checks_an_explicit_accuracy():
    with pytest.raises(ValidationError, match="accuracy must be a non-negative integer or infinity, got '25'"):
        forget_transform(PlaneCurveGerm(3, {10: 1}), 13, 1, accuracy="25")


def test_zero_parts_of_finite_accuracy_still_bound_the_accuracy():
    """beta0 = 0 known below 33 has partials that are zeros of finite
    accuracy; their products bound the accuracy of beta and gamma, so
    skipping them would overstate it (14 and 9)."""
    w = contact_weights(5, 7)
    phi = solve_contact(Germ(w, {P: -1}, 34), Germ.zero(w, 33), 14)
    assert phi.beta == Germ(w, {(0, 0, 2): Fraction(-1, 2)}, 10)
    assert phi.gamma == Germ.zero(w, 5)


def test_compose_identity_is_neutral():
    ident = identity_map(3, 10)
    phi = linear_symplectic(3, 10, 1, -2, 0, 1)
    assert compose(ident, phi).agrees_with(phi)
    assert compose(phi, ident).agrees_with(phi)


def test_compose_is_associative():
    a = homothety(3, 10, 2, 3)
    b = linear_symplectic(3, 10, 1, 1, 0, 1)
    c = legendre_transformation(3, 10)
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert left.agrees_with(right)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.lists(st.integers(min_value=18, max_value=30), min_size=3, max_size=3),
)
def test_compose_is_associative_on_tangent_transforms(seed, accuracies):
    """Unequal accuracies make the result's accuracy come from substitute,
    so an accuracy it overstates shows up as a disagreement."""
    rng = random.Random(seed)
    a, b, c = (random_tangent_transform(3, 10, rng, acc) for acc in accuracies)
    assert compose(compose(a, b), c).agrees_with(compose(a, compose(b, c)))


def test_classify_homothety():
    cls = classify(homothety(3, 10, 2, 3))
    assert cls.triangular and cls.is_scaling and not cls.tangent_to_identity


def test_classify_legendre():
    cls = classify(legendre_transformation(3, 10))
    assert not cls.triangular
    assert not cls.is_scaling


def test_classify_shear_and_identity():
    cls = classify(linear_symplectic(3, 10, 1, 4, 0, 1))
    assert cls.triangular and cls.tangent_to_identity and not cls.is_scaling
    cls = classify(identity_map(3, 10))
    assert cls.triangular and cls.tangent_to_identity and cls.is_scaling


def test_decompose_triangular_round_trip():
    scaling = homothety(3, 10, 2, 3)
    shear = linear_symplectic(3, 10, 1, 5, 0, 1)
    tangent = solve_contact(germ({}), germ({(4, 0, 0): -1}), 24)
    phi = compose(scaling, compose(shear, tangent))
    dec = decompose_triangular(phi)
    assert dec.scaling.agrees_with(scaling)
    assert dec.shear.agrees_with(shear)
    assert dec.tangent.agrees_with(tangent)
    assert dec.recomposed().agrees_with(phi)
    assert classify(dec.tangent).tangent_to_identity


def test_decompose_rejects_non_triangular():
    with pytest.raises(ValidationError):
        decompose_triangular(legendre_transformation(3, 10))


def test_decompose_rejects_a_degenerate_linear_part():
    """-x in alpha makes the x-scaling lambda = 0: the map is triangular but
    not invertible."""
    with pytest.raises(ContactDefectError, match="^degenerate linear part; not a contact transformation$"):
        decompose_triangular(ContactMap(germ({X: -1}), germ({}), germ({})))


def test_act_beta_removes_a_term():
    curve = PlaneCurveGerm(3, {10: 1, 12: 1})
    phi = solve_contact(germ({}), germ({(4, 0, 0): -1}), 24)
    moved = act_on_curve(phi, curve)
    assert moved.coefficients == {10: 1}
    assert moved.equisingularity_type() == (3, 10)


def test_act_homothety_scales_y():
    curve = PlaneCurveGerm(3, {10: 1, 11: 1})
    moved = act_on_curve(homothety(3, 10, 1, 2), curve)
    assert moved.coefficients == {10: 2, 11: 2}


def test_act_homothety_rescales_parameter():
    curve = PlaneCurveGerm(3, {10: 1, 11: 1})
    moved = act_on_curve(homothety(3, 10, 8, 1), curve)
    assert moved.coefficients == {10: Fraction(1, 1024), 11: Fraction(1, 2048)}
    with pytest.raises(ValidationError, match="rational root"):
        act_on_curve(homothety(3, 10, 2, 1), curve)


def _restricted_one_at_a_time(phi, curve):
    X, Y, P = curve.triple()
    return reparametrize(X + evaluate_on_series(phi.alpha, X, Y, P), Y + evaluate_on_series(phi.beta, X, Y, P), curve.n)


def _acted(act, phi, curve):
    try:
        return act(phi, curve)
    except LegcurveError as err:
        return type(err), str(err)


@pytest.mark.parametrize("nm, trial", [((4, 11), 0), ((4, 11), 1), ((5, 12), 0)])
def test_act_on_curve_equals_the_restrictions_one_at_a_time(nm, trial):
    """alpha and beta restricted through one power table give the curve that
    two separate restrictions give, also where their accuracies differ: on a
    curve of finite accuracy, as in the steps of normal_form, and with beta
    known to a lower accuracy than alpha."""
    n, m = nm
    keep = default_accuracy(n, m)
    curve = random_curve(n, m, trial_rng(0, trial), spread=5, accuracy=keep)
    semigroup, unequal = conormal_semigroup(curve), 0
    for order in range(m + 1, keep):
        coeff = curve.coefficient(order)
        if not coeff or order not in semigroup:
            continue
        phi = forget_transform(curve, order, -coeff, accuracy=keep)
        values = curve.triple()
        unequal += evaluate_on_series(phi.alpha, *values).accuracy != evaluate_on_series(phi.beta, *values).accuracy
        for psi in (phi, ContactMap(phi.alpha, phi.beta.truncate(keep - 2 * n), phi.gamma)):
            assert _acted(act_on_curve, psi, curve) == _acted(_restricted_one_at_a_time, psi, curve)
    assert unequal


def test_act_rejects_chart_leaving_map():
    curve = PlaneCurveGerm(3, {10: 1, 11: 1})
    with pytest.raises(ValidationError, match="order 7, not 3"):
        act_on_curve(legendre_transformation(3, 10), curve)
    with pytest.raises(ValidationError, match="cannot act"):
        act_on_curve(homothety(4, 9, 1, 2), curve)


def test_forget_transform_p_free_witness():
    curve = PlaneCurveGerm(3, {10: 1})
    phi = forget_transform(curve, 12, 5)
    assert phi.alpha.is_zero()
    assert {mo: v for mo, v in phi.beta.coeffs.items() if mo[2] == 0} == {(4, 0, 0): 5}
    phi = forget_transform(curve, 13, 1)
    assert dict(phi.beta.coeffs) == {(1, 1, 0): 1}


def test_forget_transform_p_witness():
    curve = PlaneCurveGerm(3, {10: 1})
    phi = forget_transform(curve, 14, 2)
    assert dict(phi.alpha.coeffs) == {P: Fraction(-9, 25)}
    assert phi.beta.coefficient((0, 0, 2)) == Fraction(-9, 50)
    moved = phi.beta - Germ.variable(W, "p") * phi.alpha
    shift = evaluate_on_series(moved, *curve.triple())
    assert shift.order() == 14 and shift.coefficient(14) == 2


def test_forget_transform_shifts_every_usable_order():
    curve = PlaneCurveGerm(3, {10: 1})
    for order in (12, 13, 14, 15, 16, 17):
        phi = forget_transform(curve, order, 3)
        moved = phi.beta - Germ.variable(W, "p") * phi.alpha
        shift = evaluate_on_series(moved, *curve.triple())
        assert shift.order() == order and shift.coefficient(order) == 3


def test_forget_transform_rejections():
    curve = PlaneCurveGerm(3, {10: 1})
    with pytest.raises(ValidationError):
        forget_transform(curve, 12, 0)
    with pytest.raises(NotRealizableError):
        forget_transform(curve, 11, 1)


def _doubled(alpha, beta0, accuracy):
    return solve_contact(alpha.scale(2), beta0.scale(2), accuracy)


def _with_a_lower_term(alpha, beta0, accuracy):
    return solve_contact(alpha, beta0 + Germ(beta0.weights, {(4, 0, 0): 1}, beta0.accuracy), accuracy)


@pytest.mark.parametrize("wrong", [_doubled, _with_a_lower_term], ids=["wrong scale", "wrong order"])
def test_forget_transform_rejects_a_wrong_map(monkeypatch, wrong):
    monkeypatch.setattr(legcurve.contact, "solve_contact", wrong)
    with pytest.raises(ContactDefectError):
        forget_transform(PlaneCurveGerm(3, {10: 1, 11: 1}), 14, 2)


def test_forget_transform_rejects_a_map_that_does_not_move_the_curve(monkeypatch):
    def still(alpha, beta0, accuracy):
        return solve_contact(alpha.scale(0), beta0.scale(0), accuracy)

    monkeypatch.setattr(legcurve.contact, "solve_contact", still)
    with pytest.raises(ContactDefectError, match="not by 2\\*t\\^14"):
        forget_transform(PlaneCurveGerm(3, {10: 1, 11: 1}), 14, 2)


def test_compose_rejects_maps_over_different_weights():
    with pytest.raises(ValidationError, match="^cannot compose maps over different weight data$"):
        compose(identity_map(3, 10), identity_map(4, 9))


def test_verify_contact_reports_a_multiplier_that_vanishes_at_the_origin():
    # (x, y, p) -> (x, 0, p): the multiplier 1 + d_y(-y) is 0
    w = contact_weights(3, 10)
    phi = ContactMap(Germ.zero(w), Germ(w, {(0, 1, 0): -1}, math.inf), Germ.zero(w))
    check = verify_contact(phi)
    assert not check.ok and check.multiplier == Germ.zero(w)
    assert check.failures[-1] == "the multiplier of dy - p dx vanishes at the origin"
    with pytest.raises(ContactDefectError, match="the multiplier of dy - p dx vanishes at the origin$"):
        require_contact(phi)
