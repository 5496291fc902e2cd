"""Origin-preserving contact transformations of the (x, y, p) space.

A transformation is stored through its displacement germs
(x, y, p) -> (x + alpha, y + beta, p + gamma) and must preserve the
contact structure: the pullback of dy - p dx is a unit multiple of
dy - p dx.  Writing that identity out gives three scalar equations;
``verify_contact`` checks them and returns the unit, and
``solve_contact`` integrates them to recover a full transformation
from the data (alpha, beta at p = 0) that determines it.  All
coefficients are rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .curves import PlaneCurveGerm, reparametrize
from .errors import ContactDefectError, InsufficientPrecisionError, ValidationError, _check_accuracy, _check_rational
from .germs import Germ, _substitute, _zero_one_p, contact_weights, evaluate_on_series, invert_unit, substitute
from .oracle import realize_order

X_MONO = (1, 0, 0)
Y_MONO = (0, 1, 0)
P_MONO = (0, 0, 1)


class ContactMap:
    """Contact transformation fixing the origin, in displacement form."""

    __slots__ = ("weights", "alpha", "beta", "gamma")

    def __init__(self, alpha: Germ, beta: Germ, gamma: Germ):
        weights = alpha.weights
        for comp, name in ((alpha, "alpha"), (beta, "beta"), (gamma, "gamma")):
            if comp.weights != weights:
                raise ValidationError("displacement germs live in differently weighted rings")
            if not comp.in_maximal_ideal():
                raise ValidationError(f"{name} must vanish at the origin")
        self.weights = weights
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma

    @property
    def n(self) -> int:
        return self.weights[0]

    @property
    def m(self) -> int:
        return self.weights[1]

    def components(self) -> tuple[Germ, Germ, Germ]:
        return (self.alpha, self.beta, self.gamma)

    def agrees_with(self, other: "ContactMap") -> bool:
        return (
            self.alpha.agrees_with(other.alpha)
            and self.beta.agrees_with(other.beta)
            and self.gamma.agrees_with(other.gamma)
        )

    def __repr__(self) -> str:
        return (
            f"ContactMap(x + {self.alpha!r}, y + {self.beta!r}, p + {self.gamma!r})"
        )


# -- exact families ------------------------------------------------------------


def identity_map(n: int, m: int) -> ContactMap:
    w = contact_weights(n, m)
    return ContactMap(Germ.zero(w), Germ.zero(w), Germ.zero(w))


def homothety(n: int, m: int, lam, mu) -> ContactMap:
    """(x, y, p) -> (lam*x, mu*y, (mu/lam)*p)."""
    if not _check_rational(lam) or not _check_rational(mu):
        raise ValidationError("homothety factors must be non-zero")
    w = contact_weights(n, m)
    return ContactMap(
        Germ(w, {X_MONO: lam - 1}, math.inf),
        Germ(w, {Y_MONO: mu - 1}, math.inf),
        Germ(w, {P_MONO: Fraction(mu, lam) - 1}, math.inf),
    )


def linear_symplectic(n: int, m: int, a, b, c, d) -> ContactMap:
    """Contact lift of the unimodular plane map (x, p) -> (ax+bp, cx+dp).

    The y-coordinate picks up the quadratic correction that keeps
    dy - p dx invariant; the multiplier is exactly 1.
    """
    for value in (a, b, c, d):
        _check_rational(value)
    if a * d - b * c != 1:
        raise ValidationError("need a*d - b*c = 1")
    w = contact_weights(n, m)
    half = Fraction(1, 2)
    alpha = Germ(w, {X_MONO: a - 1, P_MONO: b}, math.inf)
    beta = Germ(
        w,
        {(2, 0, 0): half * a * c, (0, 0, 2): half * b * d, (1, 0, 1): b * c},
        math.inf,
    )
    gamma = Germ(w, {X_MONO: c, P_MONO: d - 1}, math.inf)
    return ContactMap(alpha, beta, gamma)


def linear_symplectic_inverse(n: int, m: int, a, b, c, d) -> ContactMap:
    return linear_symplectic(n, m, d, -b, -c, a)


def legendre_transformation(n: int, m: int) -> ContactMap:
    """(x, y, p) -> (-p, y - x*p, x), the classical involutive swap of x and p."""
    return linear_symplectic(n, m, 0, -1, 1, 0)


# -- the contact identity --------------------------------------------------------


@dataclass(frozen=True)
class ContactCheck:
    """Outcome of testing the contact identity on a map.

    ``multiplier`` is the unit by which the map rescales dy - p dx; it is
    reported even when the check fails.
    """

    ok: bool
    multiplier: Germ
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_contact(phi: ContactMap) -> ContactCheck:
    """Check the contact identity and report the multiplier germ.

    The pullback of dy - p dx under the map decomposes over dx, dy, dp;
    matching coefficients forces
        d_p(beta) = (p + gamma) * d_p(alpha)
        d_x(beta) - (p + gamma) * (1 + d_x(alpha)) = -p * multiplier
    with multiplier = 1 + d_y(beta) - (p + gamma) * d_y(alpha).
    All equations are tested within the stored accuracy of the germs.
    """
    alpha, beta, gamma = phi.components()
    _, one, p = _zero_one_p(alpha)
    p_shift = p + gamma
    multiplier = (one + beta.partial("y"))._accumulate(((-1, p_shift, alpha.partial("y")),))
    dp_residual = beta.partial("p")._accumulate(((-1, p_shift, alpha.partial("p")),))
    dx_residual = beta.partial("x")._accumulate(((-1, p_shift, one + alpha.partial("x")), (1, p, multiplier)))
    failures = []
    for residual, form in ((dp_residual, "dp"), (dx_residual, "dx")):
        if not residual.is_zero():
            failures.append(
                f"the {form} component of the pulled-back form does not cancel: "
                f"residual of weighted order {residual.valuation()} remains"
            )
    if multiplier.coefficient((0, 0, 0)) == 0:
        failures.append("the multiplier of dy - p dx vanishes at the origin")
    return ContactCheck(ok=not failures, multiplier=multiplier, failures=tuple(failures))


def require_contact(phi: ContactMap) -> Germ:
    """verify_contact, but failures raise and the multiplier is returned."""
    check = verify_contact(phi)
    if not check.ok:
        raise ContactDefectError("; ".join(check.failures))
    return check.multiplier


def solve_contact(alpha: Germ, beta0: Germ, accuracy=None) -> ContactMap:
    """Build the contact transformation with given alpha and p-free part of beta.

    The dp component of the contact identity is a linear first order
    differential relation in the p-direction; expanding everything in
    powers of p turns it into a recursion for the p-coefficients of beta,
    each step dividing by the unit 1 + d_x(alpha at p=0).  Each factor of
    the recursion is built once, and each step's sum of products is one
    ``_accumulate``, in which zero parts of finite accuracy still bound
    the accuracy of the sum.  When alpha has no p term the recursion is
    skipped: d_p(beta) = (p + gamma) * d_p(alpha) = 0, so beta = beta0
    below the target.  The recursion gives the same, as every part b_k,
    k >= 1, is then zero and known above target - k*wp (by induction on
    k: each term of its step is zero and known that far), so it neither
    adds a term nor lowers the accuracy.  gamma is then determined
    rationally.  Raises ContactDefectError when that unit
    vanishes at the origin, and ValidationError for data no contact
    transformation can have.
    """
    w = alpha.weights
    wp = w[2]
    if beta0.weights != w:
        raise ValidationError("alpha and beta0 live in differently weighted rings")
    if not beta0.partial("p").is_zero():
        raise ValidationError("beta0 must not involve p")
    if not alpha.in_maximal_ideal() or not beta0.in_maximal_ideal():
        raise ValidationError("displacements must vanish at the origin")
    accuracy = min(alpha.accuracy, beta0.accuracy) if accuracy is None else _check_accuracy(accuracy)
    if accuracy == math.inf:
        raise ValidationError("an explicit finite accuracy is required for exact input data")
    target = min(accuracy, alpha.accuracy, beta0.accuracy)
    if target <= w[1]:
        # the multiplier 1 + d_y(beta) would be unknown even at the origin
        raise InsufficientPrecisionError(
            f"solve_contact needs an accuracy above m = {w[1]}, the weight of y; got {target}"
        )
    if beta0.coefficient(X_MONO):
        raise ValidationError(
            "beta0 has a linear x term; the contact identity forces that term to vanish"
        )
    if beta0.coefficient(Y_MONO) == -1:
        raise ContactDefectError(
            "1 + d_y(beta0) vanishes at the origin; the multiplier would not be a unit"
        )

    if alpha.coefficient(X_MONO) == -1:
        raise ContactDefectError("1 + d_x(alpha) vanishes at the origin; no solution in this chart")
    # one inversion of 1 + d_x(alpha) + p*d_y(alpha) serves gamma, and its
    # p-free part is the inverse of the recursion's unit 1 + d_x(alpha at p=0)
    zero, one, p = _zero_one_p(alpha, target)
    d_x = alpha.partial("x")
    d_y = alpha.partial("y")
    full_unit_inv = invert_unit((one + d_x)._accumulate(((1, p, d_y),)))
    beta = beta0.truncate(target)  # the p-recursion's result when alpha has no p term
    if not alpha.partial("p").is_zero():
        unit_inv = full_unit_inv.p_parts()[0]
        # j*a_j and u_s = d_x a_s + d_y a_(s-1) for every step, and d_y b_r,
        # d_x b_r and r*b_r for each p-part b_r of beta as it is made (u_0 and
        # 0*b_0 are never read); for a finite alpha.accuracy >= target, p_parts
        # has a part of every degree up to steps
        steps = (target - 1) // wp  # the k with (k + 1) * wp < target
        parts_a = alpha.p_parts()
        a = [parts_a.get(j, zero) for j in range(steps + 1)]
        ja = [a[j].scale(j) for j in range(steps + 1)]
        u = [zero] + [a[s].partial("x") + a[s - 1].partial("y") for s in range(1, steps)]
        parts_b, dy_b, dx_b, rb = [beta0], [], [], [zero]
        for k in range(steps):
            dy_b.append(parts_b[k].partial("y"))
            dx_b.append(parts_b[k].partial("x"))
            total = ja[k]._accumulate(chain(
                ((1, ja[j], dy_b[k - j]) for j in range(1, k + 1)),
                ((1, ja[j + 1], dx_b[k - j]) for j in range(k + 1)),
                ((-1, u[k - r], rb[r + 1]) for r in range(k)),
            ))
            rb.append(total * unit_inv)  # (k + 1) * b_(k+1)
            parts_b.append(rb[k + 1].scale(Fraction(1, k + 1)))
        beta = Germ.from_p_parts(w, dict(enumerate(parts_b))).truncate(target)

    gamma = full_unit_inv * (
        beta.partial("x") + p * (beta.partial("y") - d_x - p * d_y)
    )
    result = ContactMap(alpha.truncate(target), beta, gamma.truncate(target))
    require_contact(result)
    return result


# -- composition and classification ----------------------------------------------


def compose(first: ContactMap, second: ContactMap) -> ContactMap:
    """The transformation 'apply first, then second'.

    The result is re-checked against the contact identity; a failure can
    only come from an internal defect, not from valid inputs.
    """
    if first.weights != second.weights:
        raise ValidationError("cannot compose maps over different weight data")
    w = first.weights
    x1 = Germ.variable(w, "x") + first.alpha
    y1 = Germ.variable(w, "y") + first.beta
    p1 = Germ.variable(w, "p") + first.gamma
    result = ContactMap(
        first.alpha + substitute(second.alpha, x1, y1, p1),
        first.beta + substitute(second.beta, x1, y1, p1),
        first.gamma + substitute(second.gamma, x1, y1, p1),
    )
    require_contact(result)
    return result


@dataclass(frozen=True)
class Classification:
    triangular: bool
    tangent_to_identity: bool
    is_scaling: bool


def classify(phi: ContactMap) -> Classification:
    """Where the map sits in the filtration of the contact group.

    triangular: the linear parts of the y and p components contain no
    pure x term, so the flag x-axis < (x, p)-plane is preserved to first
    order.  tangent_to_identity: all three displacement germs have zero
    diagonal first derivatives, i.e. the differential at the origin is
    the identity on each coordinate line.  is_scaling: the map is exactly
    a homothety (x, y, p) -> (lam*x, mu*y, (mu/lam)*p) within accuracy.
    """
    triangular = phi.beta.coefficient(X_MONO) == 0 and phi.gamma.coefficient(X_MONO) == 0
    tangent = all(
        comp.coefficient(mono) == 0
        for comp, mono in zip(phi.components(), (X_MONO, Y_MONO, P_MONO))
    )
    lam = 1 + phi.alpha.coefficient(X_MONO)
    mu = 1 + phi.beta.coefficient(Y_MONO)
    # a homothety has no term but (lam - 1) x, (mu - 1) y and (mu/lam - 1) p
    scaling = bool(lam) and bool(mu) and all(
        comp == Germ(phi.weights, {mono: factor - 1}, comp.accuracy)
        for comp, mono, factor in zip(
            phi.components(), (X_MONO, Y_MONO, P_MONO), (lam, mu, Fraction(mu, lam))
        )
    )
    return Classification(triangular=triangular, tangent_to_identity=tangent, is_scaling=scaling)


@dataclass(frozen=True)
class TriangularDecomposition:
    """phi = tangent o shear o scaling (scaling applied first)."""

    scaling: ContactMap
    shear: ContactMap
    tangent: ContactMap

    def recomposed(self) -> ContactMap:
        return compose(self.scaling, compose(self.shear, self.tangent))


def decompose_triangular(phi: ContactMap) -> TriangularDecomposition:
    """Split a triangular map into homothety * shear * (tangent to identity).

    The homothety carries the diagonal linear data (lambda, mu), the shear
    is the lift of (x, p) -> (x + b*p, p), and the remaining factor is
    tangent to the identity.  Raises ValidationError when the map is not
    triangular and ContactDefectError when the postconditions fail.
    """
    if not classify(phi).triangular:
        raise ValidationError("map is not triangular; no such decomposition exists")
    n, m = phi.n, phi.m
    lam = 1 + phi.alpha.coefficient(X_MONO)
    mu = 1 + phi.beta.coefficient(Y_MONO)
    if not lam or not mu:
        raise ContactDefectError("degenerate linear part; not a contact transformation")
    scaling = homothety(n, m, lam, mu)
    unscaled = compose(homothety(n, m, Fraction(1, lam), Fraction(1, mu)), phi)
    b = unscaled.alpha.coefficient(P_MONO)
    shear = linear_symplectic(n, m, 1, b, 0, 1)
    tangent = compose(linear_symplectic_inverse(n, m, 1, b, 0, 1), unscaled)
    if not classify(tangent).tangent_to_identity:
        raise ContactDefectError("residual factor is not tangent to the identity")
    result = TriangularDecomposition(scaling, shear, tangent)
    if not result.recomposed().agrees_with(phi):
        raise ContactDefectError("decomposition does not recompose to the original map")
    return result


# -- action on curves --------------------------------------------------------------


def act_on_curve(phi: ContactMap, curve: PlaneCurveGerm) -> PlaneCurveGerm:
    """The image of the curve under the map, back in the chart x = t^n.

    Restricts alpha and beta to the conormal lift of the curve through one
    table of powers (``germs._substitute``) and hands x + alpha, y + beta to
    ``reparametrize``, which renormalizes them: the moved x-series must keep
    order n, and its leading coefficient must admit an exact rational n-th root.
    """
    n, m = curve.n, curve.m
    if phi.weights != contact_weights(n, m):
        raise ValidationError(
            f"map built for weights {phi.weights} cannot act on a curve of type ({n}, {m})"
        )
    X, Y, P = curve.triple()
    alpha, beta = _substitute((phi.alpha, phi.beta), (X, Y, P), n)
    return reparametrize(X + alpha, Y + beta, n)


def forget_transform(curve: PlaneCurveGerm, order: int, scale, accuracy=None) -> ContactMap:
    """The transformation that adds scale * t^order to the y-series of the curve.

    A contact polynomial g with monic restriction of the given order is
    scaled, then split into the data (alpha, beta0) = (-d_p(g*scale),
    (g*scale) at p=0) and integrated to a full contact transformation.
    To first order the action changes the curve by
    y(t) -> y(t) + scale * t^order + higher terms; that first order
    statement is checked on the conormal lift below t^(order+1) before
    returning.
    """
    if not scale:
        raise ValidationError("the added term needs a non-zero coefficient")
    if accuracy is None:
        accuracy = curve.accuracy
    witness = realize_order(curve, order)
    b = witness.scale(scale)
    alpha = -b.partial("p")
    zero, _, p = _zero_one_p(b)
    beta0 = b.p_parts().get(0, zero)
    phi = solve_contact(alpha, beta0, accuracy)
    bound = order + 1
    moved = phi.beta.truncate(bound)._accumulate(((-1, p, phi.alpha),))
    shift = evaluate_on_series(moved, *curve.triple())
    if not shift.truncate(order).is_zero() or shift.coefficient(order) != scale:
        raise ContactDefectError(
            f"the built transformation moves the curve by {shift.items()} below t^{bound}, "
            f"not by {scale}*t^{order}"
        )
    return phi
