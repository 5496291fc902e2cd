"""Normal forms of generic curves and coordinates on their moduli.

A generic curve of type (n, m) can be taken by contact transformations to
a short form: y-support inside {m} union the free exponents (the gaps of
the generic semigroup above m, plus the extra order s).  The reduction
kills removable exponents bottom-up, each step using the transformation
built from a witness polynomial of that restriction order, and each step
is checked a posteriori: the target coefficient must vanish and nothing
below it may move.  The coefficients left at the free exponents are the
moduli coordinates, always rational.  Reparametrizations by n-th roots of
unity act on them; a rotated coordinate zeta^e * v is rational only when
v = 0 or zeta^e = +-1, so orbit equivalence is decided over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .contact import act_on_curve, forget_transform
from .curves import PlaneCurveGerm, default_accuracy
from .cyclotomic import Cyclotomic
from .errors import (ContactDefectError, InsufficientPrecisionError, NonGenericCurveError, _check_int, _check_rational,
                     _check_type)
from .oracle import conormal_semigroup
from .semigroups import free_indices, generic_semigroup


def is_generic(curve: PlaneCurveGerm) -> bool:
    """Does the conormal semigroup agree with the generic one for this type?"""
    return conormal_semigroup(curve) == generic_semigroup(curve.n, curve.m)


def is_short_form(curve: PlaneCurveGerm) -> bool:
    return curve.y_series().num.keys() <= {curve.m, *free_indices(curve.n, curve.m)}


@dataclass(frozen=True)
class ReductionStep:
    """One applied transformation: it added ``scale * t^order`` to y."""

    order: int
    scale: object


@dataclass(frozen=True)
class NormalForm:
    curve: PlaneCurveGerm
    unit: object
    steps: tuple[ReductionStep, ...]
    free: tuple[int, ...]

    def moduli_point(self) -> dict[int, object]:
        return {k: self.curve.coefficient(k) for k in self.free}


def normal_form(curve: PlaneCurveGerm) -> NormalForm:
    """Reduce a generic curve to its short form, working throughout at the
    accuracy keep = max((n-1)(m-1), m+1) the short form is read at.  The
    targets are the orders between m and keep outside ``free_indices``:
    each non-zero coefficient there is cleared, bottom-up, by one step.

    Raises NonGenericCurveError when the conormal semigroup is not the
    generic one, InsufficientPrecisionError when the input is exact below
    keep, and ContactDefectError when an applied step fails its
    postconditions, including an image exact below keep: the map is built
    at keep from a curve truncated to keep, so no input precision cures
    that.

    The result is a short form with no further test: a step clears its
    target and moves nothing below it, so every target stays zero once its
    turn has passed, and the orders below m stay empty.
    """
    n, m = curve.n, curve.m
    expected = generic_semigroup(n, m)
    actual = conormal_semigroup(curve)
    if actual != expected:
        raise NonGenericCurveError(
            f"curve of type ({n}, {m}) has conormal semigroup with gaps "
            f"{actual.gaps}, generic gaps are {expected.gaps}"
        )
    keep = default_accuracy(n, m)
    if curve.accuracy < keep:
        raise InsufficientPrecisionError(
            f"normal form needs the y-coefficients below {keep}; "
            f"curve is only exact below {curve.accuracy}"
        )
    # coefficients at or above the plane conductor sit at removable orders,
    # so dropping them stays inside the equivalence class
    working = curve.truncate(keep).as_polynomial(math.inf)

    unit = 1
    leading = working.coefficient(m)
    if leading != 1:
        unit = Fraction(1, leading)
        working = working.scale_y(unit)

    free = free_indices(n, m)
    steps: list[ReductionStep] = []
    for k in range(m + 1, keep):
        coeff = working.coefficient(k)
        if k in free or not coeff:
            continue
        phi = forget_transform(working, k, -coeff, accuracy=keep)
        candidate = act_on_curve(phi, working)
        if candidate.accuracy < keep:
            raise ContactDefectError(
                f"reduction at order {k} returned a curve exact below "
                f"{candidate.accuracy}; the short form needs accuracy {keep}"
            )
        # below t^(k+1) the step must clear t^k and move nothing else; as
        # working has a_m and no lower term, that also keeps the type (n, m)
        image = candidate.y_series().truncate(k + 1)
        y = working.y_series()
        wanted = y.truncate(k + 1) - y._unchecked({k: coeff.numerator}, coeff.denominator, math.inf)
        if image != wanted:
            moved = [j for j in range(k + 1) if image.coefficient(j) != wanted.coefficient(j)]
            raise ContactDefectError(
                f"reduction at order {k} must clear t^{k} alone below t^{k + 1}, "
                f"but the coefficients at {moved} differ"
            )
        steps.append(ReductionStep(k, -coeff))
        working = candidate

    return NormalForm(working.truncate(keep), unit, tuple(steps), free)


def moduli_point(curve: PlaneCurveGerm) -> dict[int, object]:
    return normal_form(curve).moduli_point()


# -- residual reparametrization action -----------------------------------------


def _checked_point(point: dict[int, object], n: int, m: int) -> dict[int, object]:
    _check_type(n, m)
    for i, v in point.items():
        _check_int(i, "exponent", 0)
        _check_rational(v)
    return point


def _rotates_to(v1, v2, e: int, n: int) -> bool:
    """Is zeta_n^e * v1 == v2, for rationals v1, v2 and 0 <= e < n?"""
    if e == 0:
        return v2 == v1
    if 2 * e == n:
        return v2 == -v1
    return v1 == v2 == 0


def rotate_point(point: dict[int, object], n: int, m: int, k: int) -> dict[int, Cyclotomic]:
    """Action of t -> zeta^k t (followed by re-normalizing a_m = 1) on a
    rational point: coordinate i becomes zeta^(k(i-m)) * v in Q(zeta_n)."""
    _check_int(k, "rotation exponent k")
    return {
        i: Cyclotomic.zeta(n, k * (i - m)) * v
        for i, v in _checked_point(point, n, m).items()
    }


def orbit_equivalent(point1: dict[int, object], point2: dict[int, object],
                     n: int, m: int) -> tuple[bool, int | None]:
    """Are two rational moduli points related by a root-of-unity
    reparametrization t -> zeta*t?

    The short form divides out the contact maps whose linear x-coefficient
    is 1, so on moduli points this decides equivalence under those maps and
    t -> zeta*t.  Other contact maps are not divided out: the homothety
    x -> lam*x, lam != 1, can move a point to one not related to it.

    zeta^e * v is rational only when v = 0, e = 0 or 2e = n (mod n), so this
    is decided over Q.  On success the least witness exponent k with
    point2 = rotate_point(point1, k) is returned alongside; k = 0 means the
    points are equal outright.
    """
    if set(_checked_point(point1, n, m)) != set(_checked_point(point2, n, m)):
        return (False, None)
    for k in range(n):
        if all(_rotates_to(v, point2[i], k * (i - m) % n, n) for i, v in point1.items()):
            return (True, k)
    return (False, None)


def canonical_point(point: dict[int, object], n: int, m: int) -> dict[int, Cyclotomic]:
    """Distinguished representative of the rotation orbit of a rational point.

    All n rotations are compared through the coefficient vectors of their
    values in the cyclotomic basis, smallest tuple first; this is an
    arbitrary but fixed choice, enough to make equality of canonical
    points decide orbit equivalence.
    """
    indices = sorted(_checked_point(point, n, m))
    zetas = [Cyclotomic.zeta(n, e) for e in range(n)]
    rotations = [{i: zetas[k * (i - m) % n] * v for i, v in point.items()} for k in range(n)]
    # min keeps the first of equal keys, so the least k wins a tie
    return min(rotations, key=lambda rotated: tuple(rotated[i].coeffs for i in indices))


def equivalent_curves(
    first: PlaneCurveGerm, second: PlaneCurveGerm
) -> tuple[bool, int | None]:
    """Equivalence of two generic curves under the contact maps whose linear
    x-coefficient is 1 and t -> zeta*t, with the witness exponent; other
    contact maps, such as x -> lam*x for lam != 1, are not divided out."""
    if first.equisingularity_type() != second.equisingularity_type():
        return (False, None)
    nf1 = normal_form(first)
    nf2 = normal_form(second)
    n, m = first.n, first.m
    return orbit_equivalent(nf1.moduli_point(), nf2.moduli_point(), n, m)
