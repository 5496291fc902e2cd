"""Deterministic random generators for Monte-Carlo drivers.

Trial k of a run with seed S draws from ``random.Random(S * 1000003 + k)``;
the mixing rule is part of the command-line contract, so a reported
failure can be replayed from its trial index alone.  All values produced
here are exact rationals.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .contact import (
    X_MONO,
    Y_MONO,
    ContactMap,
    compose,
    homothety,
    linear_symplectic,
    solve_contact,
)
from .curves import PlaneCurveGerm, default_accuracy
from .errors import ValidationError, _check_int
from .germs import Germ, contact_weights, monomials_in_valuation_range

SEED_STRIDE = 1_000_003


def trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(seed * SEED_STRIDE + trial)


def random_curve(
    n: int,
    m: int,
    rng: random.Random,
    spread: int = 10**6,
    accuracy: int | None = None,
) -> PlaneCurveGerm:
    """Integer-coefficient curve x = t^n, y = t^m + sum a_e t^e.

    The leading coefficient is fixed to 1; the others are uniform in
    [-spread, spread] with zeros simply left out.
    """
    if _check_int(spread, "coefficient spread") < 0:
        raise ValidationError(f"coefficient spread must be non-negative, got {spread}")
    if accuracy is None:
        accuracy = default_accuracy(n, m)
    coefficients = {m: Fraction(1)}
    for e in range(m + 1, accuracy):
        value = rng.randint(-spread, spread)
        if value:
            coefficients[e] = Fraction(value)
    return PlaneCurveGerm(n, coefficients, accuracy)


def random_germ(
    n: int,
    m: int,
    rng: random.Random,
    low: int,
    high: int,
    spread: int = 5,
    p_free: bool = False,
    skip: tuple[tuple[int, int, int], ...] = (),
    accuracy=None,
) -> Germ:
    """Polynomial germ with monomials of weighted valuation in [low, high)."""
    if _check_int(spread, "coefficient spread") < 0:
        raise ValidationError(f"coefficient spread must be non-negative, got {spread}")
    weights = contact_weights(n, m)
    coeffs = {}
    for mono in monomials_in_valuation_range(n, m, low, high):
        if mono in skip or (p_free and mono[2]):
            continue
        value = rng.randint(-spread, spread)
        if value:
            coeffs[mono] = Fraction(value)
    if accuracy is None:
        accuracy = math.inf
    return Germ(weights, coeffs, accuracy)


def random_unimodular(rng: random.Random) -> tuple[int, int, int, int]:
    """Integer matrix with determinant one, as a short product of shears."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(2, 6)):
        k = rng.randint(-3, 3)
        if rng.getrandbits(1):
            a, b, c, d = a + k * c, b + k * d, c, d
        else:
            a, b, c, d = a, b, c + k * a, d + k * b
    return a, b, c, d


def random_scaling(n: int, m: int, rng: random.Random) -> ContactMap:
    def factor() -> Fraction:
        value = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        return -value if rng.getrandbits(1) else value

    return homothety(n, m, factor(), factor())


def random_solvable_data(
    n: int, m: int, rng: random.Random, accuracy: int
) -> tuple[Germ, Germ]:
    """(alpha, beta0) the Cauchy solver accepts: alpha keeps 1 + d_x at the
    origin non-zero, beta0 is p-free with no linear x term and keeps the
    multiplier 1 + d_y a unit."""
    alpha = random_germ(n, m, rng, n, 2 * m, accuracy=accuracy)
    if alpha.coeffs.get(X_MONO) == -1:
        alpha = Germ(alpha.weights, {**alpha.coeffs, X_MONO: -2}, alpha.accuracy)
    beta0 = random_germ(
        n, m, rng, 2 * n, 2 * m, p_free=True, skip=(X_MONO,), accuracy=accuracy
    )
    if beta0.coeffs.get(Y_MONO) == -1:
        beta0 = Germ(beta0.weights, {**beta0.coeffs, Y_MONO: -2}, beta0.accuracy)
    return alpha, beta0


def random_tangent_transform(
    n: int, m: int, rng: random.Random, accuracy: int
) -> ContactMap:
    """A transformation whose differential at the origin is the identity.

    alpha has weighted valuation at least m - n and beta0 at least
    2(m - n); with m > 2n this keeps every diagonal linear term zero, so
    the result is tangent to the identity and acts on curves of type
    (n, m) without leaving the chart.
    """
    span = m - n
    alpha = random_germ(n, m, rng, m - n, m - n + span, accuracy=accuracy)
    beta0 = random_germ(
        n, m, rng, 2 * (m - n), 2 * (m - n) + span, p_free=True, accuracy=accuracy
    )
    return solve_contact(alpha, beta0, accuracy)


def random_triangular_transform(
    n: int, m: int, rng: random.Random, accuracy: int
) -> ContactMap:
    """scaling o shear o tangent, a generic element of the triangular group."""
    scaling = random_scaling(n, m, rng)
    shear = linear_symplectic(n, m, 1, Fraction(rng.randint(-4, 4)), 0, 1)
    tangent = random_tangent_transform(n, m, rng, accuracy)
    return compose(scaling, compose(shear, tangent))
