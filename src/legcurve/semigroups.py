"""Numerical semigroups and the generic semigroup of Legendrian curve germs.

A semigroup is stored as its conductor plus the tuple of gaps below it.
``generic_semigroup`` realizes the descent over trajectories: starting
from multiples of n together with everything at or above the conductor
of the plane semigroup <n, m>, the elements of <n, m-n> below the
conductor are visited in decreasing order and each adjoins a block
bounded by counting monomials of its weighted order.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ContactDefectError, ValidationError, _check_int, _check_type
from .germs import monomials_in_valuation_range


@dataclass(frozen=True)
class NumericalSemigroup:
    conductor: int
    gaps: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_int(self.conductor, "conductor", 0)
        for gap in self.gaps:
            _check_int(gap, "gap")
        if list(self.gaps) != sorted(set(self.gaps)):
            raise ValidationError("gaps must be strictly increasing")
        if any(g <= 0 or g >= self.conductor for g in self.gaps):
            raise ValidationError("gaps must lie strictly between 0 and the conductor")
        if self.conductor > 0 and self.conductor - 1 not in self.gaps:
            raise ValidationError("conductor is not minimal: conductor - 1 must be a gap")
        gap_set = set(self.gaps)
        members = [k for k in range(1, self.conductor) if k not in gap_set]
        for pos, a in enumerate(members):
            for b in members[pos:]:
                if a + b >= self.conductor:
                    break
                if a + b in gap_set:
                    raise ValidationError(f"the members {a} and {b} add up to the gap {a + b}: not a semigroup")

    @staticmethod
    def from_gaps(gaps) -> "NumericalSemigroup":
        gap_tuple = tuple(sorted({_check_int(gap, "gap") for gap in gaps}))
        conductor = gap_tuple[-1] + 1 if gap_tuple else 0
        return NumericalSemigroup(conductor, gap_tuple)

    @staticmethod
    def from_members(members, bound: int) -> "NumericalSemigroup":
        """Canonical semigroup given every member below ``bound``; all of
        [bound, infinity) is assumed to be contained."""
        _check_int(bound, "bound")
        member_set = {k for k in members if 0 <= _check_int(k, "member") < bound}
        if 0 not in member_set:
            raise ValidationError("a numerical semigroup contains 0")
        gaps = [k for k in range(bound) if k not in member_set]
        return NumericalSemigroup.from_gaps(gaps)

    def __contains__(self, k) -> bool:
        try:
            if k < 0 or k % 1:  # a non-integral number is not a member
                return False
        except TypeError:  # nor, as with range, a value that is not a number
            return False
        if k >= self.conductor:
            return True
        i = bisect.bisect_left(self.gaps, k)
        return i == len(self.gaps) or self.gaps[i] != k

    def members_below(self, bound: int) -> list[int]:
        gap_set = set(self.gaps)
        return [k for k in range(bound) if k >= 0 and k not in gap_set]

    def multiplicity(self) -> int:
        if self.conductor == 0:
            return 1
        return self.members_below(self.conductor + 1)[1]  # 0 and the conductor are members

    def generators(self) -> tuple[int, ...]:
        """Minimal generating set."""
        if self.conductor == 0:
            return (1,)
        bound = self.conductor + self.multiplicity()
        members = [k for k in self.members_below(bound) if k > 0]
        sums = set()
        for a in members:
            for b in members:
                if a + b >= bound:
                    break
                sums.add(a + b)
        return tuple(k for k in members if k not in sums)

    def genus(self) -> int:
        return len(self.gaps)


def two_generator_semigroup(a: int, b: int) -> NumericalSemigroup:
    """The semigroup <a, b> for coprime positive generators, from its
    definition: the sums i*a + j*b below its conductor (a-1)(b-1), each of
    which has i < b and j < a."""
    if type(a) is not int or type(b) is not int or a <= 0 or b <= 0 or math.gcd(a, b) != 1:
        raise ValidationError(f"generators must be coprime positive integers, got ({a!r}, {b!r})")
    return NumericalSemigroup.from_members({i * a + j * b for i in range(b) for j in range(a)},
                                           (a - 1) * (b - 1) + 1)


def weighted_monomial_count(value: int, n: int, m: int) -> int:
    """Number of monomials x^a y^b p^c of weighted order exactly ``value``
    for the weights (n, m, m-n)."""
    return len(monomials_in_valuation_range(n, m, _check_int(value, "value"), value + 1))


@dataclass(frozen=True)
class TrajectoryStep:
    """One descent step: visited order i, the monomial-count cap, the block
    end omega and the adjoined block tau."""

    i: int
    sharp: int
    omega: int
    tau: tuple[int, ...]


def _validate_pair(n: int, m: int) -> None:
    _check_type(n, m)
    if m < 2 * n + 1:
        raise ValidationError(
            f"strong generic position requires m >= 2n+1, got (n, m) = ({n}, {m})"
        )


@lru_cache(maxsize=None, typed=True)  # (3.0, 10) must not hit (3, 10)
def generic_semigroup_descent(n: int, m: int) -> tuple[NumericalSemigroup, tuple[TrajectoryStep, ...]]:
    """Generic conormal semigroup of curves of type (n, m), with the full
    descent table."""
    _validate_pair(n, m)
    conductor = (n - 1) * (m - 1)
    member = [k % n == 0 for k in range(conductor)]
    plane = two_generator_semigroup(n, m - n)
    pending = [j for j in range(conductor - 1, 0, -1) if j in plane and j % n != 0]
    steps: list[TrajectoryStep] = []
    for i in pending:
        if member[i]:
            raise ContactDefectError(f"descent for ({n}, {m}) revisited the realized order {i}")
        nonmembers = [k for k in range(i, conductor) if not member[k]]
        count = weighted_monomial_count(i, n, m)
        if count < 1:
            raise ContactDefectError(f"descent for ({n}, {m}) reached order {i} with no monomial")
        sharp = min(count, len(nonmembers))
        omega = nonmembers[sharp - 1]
        # omega <= i+n-2 except when this block takes every nonmember left
        # at or above i and adjoins an order outside <n, m-n>; then omega =
        # i+n-1 can occur, first at (3, 11) where i=11 has omega=13
        tau = tuple(k for k in range(i, omega + 1) if k % n != 0)
        for k in tau:
            member[k] = True
        steps.append(TrajectoryStep(i, sharp, omega, tau))
    semigroup = NumericalSemigroup.from_members(
        [k for k in range(conductor) if member[k]], conductor
    )
    return semigroup, tuple(steps)


def generic_semigroup(n: int, m: int) -> NumericalSemigroup:
    return generic_semigroup_descent(n, m)[0]


def try_s_invariant(n: int, m: int) -> int | None:
    """Least element of the generic semigroup outside the plane semigroup
    <n, m-n>, or None when the two coincide.  Only the orders below the
    plane conductor are scanned: every order from there on lies in
    <n, m-n>."""
    semigroup = generic_semigroup(n, m)
    plane = two_generator_semigroup(n, m - n)
    return next((k for k in range(plane.conductor) if k in semigroup and k not in plane), None)


def s_invariant(n: int, m: int) -> int:
    value = try_s_invariant(n, m)
    if value is None:
        raise ValidationError(
            f"the generic semigroup of ({n}, {m}) equals the plane semigroup; "
            "it has no extra order"
        )
    return value


def moduli_dimension(n: int, m: int) -> int:
    """Dimension of the moduli space of generic curves of type (n, m) up to
    contact maps whose linear x-coefficient is 1 and t -> zeta*t: the
    number of free coordinates of the short form."""
    return len(free_indices(n, m))


def free_indices(n: int, m: int) -> tuple[int, ...]:
    """Exponents whose coefficients are coordinates on the moduli space:
    the gaps of the generic semigroup above m, plus the extra order s."""
    indices = {g for g in generic_semigroup(n, m).gaps if g > m}
    s = try_s_invariant(n, m)
    if s is not None:
        indices.add(s)
    return tuple(sorted(indices))
