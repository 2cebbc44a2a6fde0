"""Exact combinatorics, scalar JSON, the exact solver, special functions."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfchaos.errors import DomainError, NumericError, SingularSystemError
from dfchaos.numeric import (
    binom,
    hyp1f1,
    multiplicity,
    occupation_lattice,
    occupation_vectors,
    scalar_from_json,
    scalar_to_json,
    sub_occupations,
    tuple_counts,
)
from dfchaos.validation import solve_exact

# reference values frozen from mpmath (30-digit working precision)
HYP1F1_REFERENCE = {
    (1, 2, 1.0): 1.7182818284590453,
    (0.5, 1.5, -1.0): 0.746824132812427,
    (2, 5, 0.75): 1.3653304981035232,
    (1.5, 4.0, 2.5): 2.9780330427030837,
    (1, 2, 2.0): 3.194528049465325,
    (3, 7, -2.0): 0.4504387282378557,
}


def test_binom_values():
    assert binom(6, 2) == 15
    assert binom(5, 0) == 1
    assert binom(5, 5) == 1
    assert binom(4, 7) == 0


def test_occupation_vectors_enumeration():
    vectors = list(occupation_vectors(3, 2))
    assert sorted(vectors) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert len(list(occupation_vectors(4, 3))) == binom(4 + 2, 2)
    assert all(sum(v) == 4 for v in occupation_vectors(4, 3))


def test_occupation_lattice_ranks_and_links():
    def step(v, j, by):
        return v[:j] + (v[j] + by,) + v[j + 1 :]

    for order, atoms in ((0, 3), (3, 1), (4, 3)):
        lattice = occupation_lattice(order, atoms)
        assert lattice is occupation_lattice(order, atoms)
        above = occupation_vectors(order + 1, atoms)
        below = occupation_vectors(order - 1, atoms) if order else ()
        for i, v in enumerate(lattice.vectors):
            assert lattice.rank[v] == i
            assert lattice.multiplicities[i] == multiplicity(v)
            assert [below[r] for r in lattice.down[i]] == [
                step(v, j, -1) for j in range(atoms) if v[j]
            ]
            assert [above[r] for r in lattice.up[i]] == [step(v, j, 1) for j in range(atoms)]
    for order, atoms in ((-1, 2), (2, 0)):
        with pytest.raises(DomainError):
            occupation_lattice(order, atoms)


def test_multiplicity_counts_orderings():
    assert multiplicity((1, 1)) == 2
    assert multiplicity((2, 0)) == 1
    assert multiplicity((2, 1, 1)) == math.factorial(4) // 2


def test_tuple_counts():
    assert tuple_counts((1, 2, 1), 2) == (2, 1)
    assert tuple_counts((), 3) == (0, 0, 0)


def test_sub_occupations_with_ways():
    subs = dict(sub_occupations((2, 1), 2))
    # choose 2 of the three draws (two of atom 1, one of atom 2)
    assert subs == {(2, 0): 1, (1, 1): 2}
    assert dict(sub_occupations((2, 1), 0)) == {(0, 0): 1}


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(counts=st.lists(st.integers(0, 4), min_size=1, max_size=5), data=st.data())
def test_sub_occupations_match_product_enumeration(counts, data):
    k = data.draw(st.integers(0, sum(counts) + 1))
    # first coordinate descending, then recursively the same on the rest
    expected = [
        (mu, math.prod(math.comb(c, m) for c, m in zip(counts, mu)))
        for mu in itertools.product(*(range(c, -1, -1) for c in counts))
        if sum(mu) == k
    ]
    assert list(sub_occupations(counts, k)) == expected


def test_scalar_json_round_trip():
    for value in (Fraction(3, 4), Fraction(-7, 2), 5, 0.125):
        assert scalar_from_json(scalar_to_json(value)) == value
    assert scalar_to_json(Fraction(3, 4)) == "3/4"
    assert scalar_from_json("3/4") == Fraction(3, 4)


NUMBER_TEXT = st.text(alphabet="0123456789-+/._ e", max_size=7) | st.from_regex(
    r"\A-?[0-9]{1,4}(/[0-9]{1,4})?\Z"
)


@settings(max_examples=300, deadline=None, database=None)
@given(text=NUMBER_TEXT | st.sampled_from(["1/0", "-0/5", "٣/٤", "³", "--3", "3/-4", " 3/4 "]))
def test_scalar_strings_read_as_fractions_parse_them(text):
    # the 'p/q' fast path reads and refuses exactly what Fraction(text) does
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(DomainError):
            scalar_from_json(text)
    else:
        got = scalar_from_json(text)
        assert type(got) is Fraction and got == want


def test_solve_exact_small_system():
    # x + 2y = 5, 3x + 4y = 11  ->  x = 1, y = 2
    solution = solve_exact(
        [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]],
        [Fraction(5), Fraction(11)],
    )
    assert solution == [Fraction(1), Fraction(2)]


def test_solve_exact_rejects_singular():
    with pytest.raises(SingularSystemError):
        solve_exact(
            [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
            [Fraction(1), Fraction(1)],
        )


def test_hyp1f1_matches_reference():
    for (a, b, z), expected in HYP1F1_REFERENCE.items():
        assert hyp1f1(a, b, z) == pytest.approx(expected, rel=1e-13)


def test_hyp1f1_rejects_nonpositive_integer_denominator():
    with pytest.raises(DomainError):
        hyp1f1(1.0, 0.0, 1.0)


def test_hyp1f1_negative_argument_matches_mpmath():
    # the plain alternating series returned 0.01793 and 24410 here
    assert hyp1f1(1, 2, -40.0) == pytest.approx(0.025, rel=1e-10)
    assert hyp1f1(0.5, 3, -60.0) == pytest.approx(0.19181822876120985, rel=1e-10)


def test_hyp1f1_negative_grid_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for a in (0.5, 1, 2.5, 4):
        for b in (1.5, 2, 5):
            for z in (-0.5, -3.0, -12.5, -40.0, -90.0):
                with mpmath.workdps(30):
                    expected = float(mpmath.hyp1f1(a, b, z))
                assert hyp1f1(a, b, z) == pytest.approx(expected, rel=1e-10), (a, b, z)


def test_hyp1f1_fails_loudly_when_digits_are_lost():
    # Kummer turns this into M(-29, 3/2, 40), whose terms reach 9e19
    # while the sum is 7e6: the float sum keeps no correct digit
    with pytest.raises(NumericError) as excinfo:
        hyp1f1(30.5, 1.5, -40.0)
    assert excinfo.value.partial is not None
    # e^z underflows and the transformed series overflows
    with pytest.raises(NumericError):
        hyp1f1(1, 2, -745.0)


def test_hyp1f1_overflow_is_reported_as_overflow():
    # the terms of 1F1(1; 2; 1600) pass the float range long before the
    # term limit; that is an overflow, not a series that failed to settle
    with pytest.raises(NumericError, match="leaves the float range") as excinfo:
        hyp1f1(1, 2, 1600.0)
    assert excinfo.value.partial == math.inf

