"""Numerical semigroups and the descent that produces the generic one."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legcurve.errors import ValidationError
from legcurve.oracle import conormal_semigroup
from legcurve.sampling import random_curve, trial_rng
from legcurve.semigroups import (
    NumericalSemigroup,
    free_indices,
    generic_semigroup,
    generic_semigroup_descent,
    moduli_dimension,
    s_invariant,
    try_s_invariant,
    two_generator_semigroup,
    weighted_monomial_count,
)

# gaps of the generic conormal semigroup, by curve type
GENERIC_GAPS = {
    (3, 7): (1, 2, 5),
    (3, 8): (1, 2, 4, 7),
    (3, 10): (1, 2, 4, 5, 8),
    (3, 11): (1, 2, 4, 5, 7, 10),
    (3, 14): (1, 2, 4, 5, 7, 8, 10, 13),
    (4, 9): (1, 2, 3, 6, 7),
    (4, 11): (1, 2, 3, 5, 6, 9, 10),
    (5, 12): (1, 2, 3, 4, 6, 8, 9, 11, 16),
}

S_VALUES = {(3, 10): 11, (3, 11): 13, (4, 9): 11, (4, 11): 13, (5, 12): 13}


def test_generic_semigroup_gap_tables():
    for (n, m), gaps in GENERIC_GAPS.items():
        assert generic_semigroup(n, m).gaps == gaps, (n, m)


def test_generic_semigroup_small_conductors():
    assert generic_semigroup(3, 10).conductor == 9
    assert generic_semigroup(5, 12).conductor == 17


def test_generic_semigroup_generators():
    assert generic_semigroup(3, 10).generators() == (3, 7, 11)
    assert generic_semigroup(4, 9).generators() == (4, 5, 11)


def test_multiplicity_two_collapses_to_plane():
    for m in (5, 7, 9, 11, 13):
        assert generic_semigroup(2, m) == two_generator_semigroup(2, m - 2)


def test_s_invariant_values():
    for (n, m), s in S_VALUES.items():
        assert s_invariant(n, m) == s


def test_s_invariant_undefined_when_descent_adds_nothing():
    assert try_s_invariant(3, 7) is None
    assert try_s_invariant(2, 9) is None
    with pytest.raises(ValidationError):
        s_invariant(3, 7)


def test_moduli_dimension_and_free_indices():
    assert moduli_dimension(3, 10) == 1 and free_indices(3, 10) == (11,)
    assert moduli_dimension(4, 9) == 1 and free_indices(4, 9) == (11,)
    assert moduli_dimension(5, 12) == 2 and free_indices(5, 12) == (13, 16)
    assert moduli_dimension(3, 7) == 0 and free_indices(3, 7) == ()
    for pair in S_VALUES:
        assert len(free_indices(*pair)) == moduli_dimension(*pair), pair


def test_trajectory_table_3_7():
    _, steps = generic_semigroup_descent(3, 7)
    assert [(s.i, s.sharp, s.omega, s.tau) for s in steps] == [
        (11, 1, 11, (11,)),
        (10, 1, 10, (10,)),
        (8, 1, 8, (8,)),
        (7, 1, 7, (7,)),
        (4, 1, 4, (4,)),
    ]


def test_trajectory_visits_plane_orders_descending():
    _, steps = generic_semigroup_descent(3, 10)
    visited = [s.i for s in steps]
    assert visited == sorted(visited, reverse=True)
    plane = two_generator_semigroup(3, 7)
    assert all(i in plane and i % 3 for i in visited)
    assert visited[-1] == 7


def test_block_bound_invariant_small_sweep():
    # the block end stays below i+n-1 in general; the sharper i+n-2 holds
    # for most types and fails only when a block swallows a later non-plane
    # order, first at (3, 11); 630 swallowing blocks with n <= 6, m <= 40
    # still keep it
    for n in range(2, 5):
        for m in range(2 * n + 1, 26):
            if math.gcd(n, m) != 1:
                continue
            _, steps = generic_semigroup_descent(n, m)
            for step in steps:
                assert step.omega <= step.i + n - 1, (n, m, step)
                assert step.sharp >= 1
                assert step.tau and step.tau[0] == step.i


def test_trajectory_3_11_swallows_the_extra_order():
    # regression pin: at i = 11 both nonmembers 11 and 13 are adjoined, which
    # is what puts the extra order 13 into the semigroup
    sg, steps = generic_semigroup_descent(3, 11)
    assert (11, 2, 13, (11, 13)) in [(s.i, s.sharp, s.omega, s.tau) for s in steps]
    assert 13 in sg


@pytest.mark.parametrize("n, m", [(3, 14), (5, 19)])
def test_block_bound_exceptions_are_orders_of_random_curves(n, m):
    # the blocks that exceed i+n-2 adjoin orders that the exact oracle,
    # which shares no code with the descent, finds on a random curve
    sg, steps = generic_semigroup_descent(n, m)
    exceeding = [s.omega for s in steps if s.omega > s.i + n - 2]
    assert exceeding
    oracle = conormal_semigroup(random_curve(n, m, trial_rng(100 * n + m, 0)))
    assert oracle == sg
    assert all(omega in oracle for omega in exceeding)


def test_weighted_monomial_count_fixtures():
    assert weighted_monomial_count(10, 3, 10) == 2  # y and x*p
    assert weighted_monomial_count(14, 3, 10) == 1  # p^2 only
    assert weighted_monomial_count(0, 3, 10) == 1
    assert weighted_monomial_count(1, 3, 10) == 0


def test_weighted_monomial_count_brute_force():
    n, m = 4, 11
    for value in range(0, 40):
        expected = sum(
            1
            for a in range(value // n + 1)
            for b in range(value // m + 1)
            for c in range(value // (m - n) + 1)
            if a * n + b * m + c * (m - n) == value
        )
        assert weighted_monomial_count(value, n, m) == expected, value


def test_pair_validation():
    with pytest.raises(ValidationError):
        generic_semigroup(4, 10)  # not coprime
    with pytest.raises(ValidationError):
        generic_semigroup(3, 5)  # not in strong generic position
    with pytest.raises(ValidationError):
        generic_semigroup(1, 5)
    for n, m in [(3, 10.0), (True, 10), (3, 2), (2, 2)]:
        with pytest.raises(ValidationError):
            generic_semigroup(n, m)
    # the cache is typed: (3.0, 10) does not hit the cached (3, 10)
    generic_semigroup(3, 10)
    with pytest.raises(ValidationError, match="multiplicity n must be an integer at least 2, got 3.0"):
        generic_semigroup(3.0, 10)


def test_two_generator_semigroup():
    s = two_generator_semigroup(3, 7)
    assert s.gaps == (1, 2, 4, 5, 8, 11)
    assert s.conductor == 12
    assert s.generators() == (3, 7)
    assert two_generator_semigroup(3, 10).gaps == (1, 2, 4, 5, 7, 8, 11, 14, 17)
    with pytest.raises(ValidationError):
        two_generator_semigroup(4, 6)
    for a, b in [(3.0, 7), (3, 7.0), (True, 7)]:
        with pytest.raises(ValidationError, match="coprime positive integers"):
            two_generator_semigroup(a, b)


def test_semigroup_containers():
    s = NumericalSemigroup.from_gaps([1, 2, 4, 5, 8])
    assert s.conductor == 9
    assert 7 in s and 8 not in s and 100 in s and -3 not in s
    assert s.members_below(10) == [0, 3, 6, 7, 9]
    assert s.multiplicity() == 3
    assert s.genus() == 5
    trivial = NumericalSemigroup(0, ())
    assert trivial.multiplicity() == 1 and trivial.generators() == (1,)


def test_a_non_integral_number_is_not_a_member():
    # as with range: 2.5 in range(10) is False, 9.0 in range(10) is True
    s = generic_semigroup(3, 10)
    assert 9.0 in s and 9 in s
    assert 2.5 not in s and Fraction(21, 2) not in s and 1000.5 not in s


def test_a_value_that_is_not_a_number_is_not_a_member():
    # as with range: 'a' in range(10) is False, where comparing 'a' < 0 raises
    s = generic_semigroup(3, 10)
    assert "a" not in s and None not in s and (0, 1) not in s
    assert 2.5 not in s and Fraction(8, 1) not in s
    assert Fraction(7, 1) in s


@pytest.mark.parametrize("n, m", [(2, 5), (3, 10), (3, 14), (4, 11), (5, 12), (6, 25), (7, 16)])
def test_membership_agrees_with_members_below(n, m):
    s = generic_semigroup(n, m)
    members = set(s.members_below(s.conductor + 3))
    assert [k for k in range(-2, s.conductor + 3) if k in s] == sorted(members)


def test_from_members_requires_zero():
    with pytest.raises(ValidationError):
        NumericalSemigroup.from_members([3, 6], 8)


def test_canonical_form_is_comparable():
    a = NumericalSemigroup.from_members([0, 3, 6, 7, 9, 10], 11)
    b = NumericalSemigroup.from_gaps((1, 2, 4, 5, 8))
    assert a == b


def test_gaps_not_closed_under_addition_are_rejected():
    with pytest.raises(ValidationError, match="^the members 1 and 1 add up to the gap 2: not a semigroup$"):
        NumericalSemigroup.from_gaps([2, 3])
    with pytest.raises(ValidationError, match="^the members 2 and 2 add up to the gap 4: not a semigroup$"):
        NumericalSemigroup.from_gaps([1, 3, 4, 6])
    with pytest.raises(ValidationError, match="^the members 3 and 5 add up to the gap 8: not a semigroup$"):
        NumericalSemigroup(9, (1, 2, 4, 7, 8))


@settings(max_examples=300, deadline=None)
@example(frozenset({1}))
@example(frozenset({3, 6, 7, 9, 10, 12, 13, 14, 15, 16, 17, 18, 19}))
@example(frozenset({2, 5}))
@given(st.frozensets(st.integers(1, 19)))
def test_members_are_accepted_exactly_when_closed_under_addition(members):
    # every order from 20 on is a member, so only sums below 20 can miss
    closed = all(a + b in members for a in members for b in members if a + b < 20)
    try:
        semigroup = NumericalSemigroup.from_members(members | {0}, 20)
    except ValidationError as error:
        assert not closed
        assert str(error).endswith(": not a semigroup")
    else:
        assert closed
        assert set(semigroup.members_below(20)) == members | {0}
