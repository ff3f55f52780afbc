"""The integer conventions of the exact layer.

``math.gcd`` is the coprime gate of the test grids, which rely on its
nonnegative result and gcd(0, 0) == 0, and the closed-form effectiveness
decision, which relies on gcd(r, 0) == |r|.  ``congruent`` is the
congruence predicate of the search reference in ``_witness_reference``.
"""

from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _witness_reference import congruent


def test_gcd_small():
    assert gcd(4, 6) == 2


def test_gcd_zero_convention():
    assert gcd(0, 7) == 7
    assert gcd(-6, 0) == 6
    assert gcd(0, 0) == 0


def test_coprime_gate():
    assert gcd(3, 5) == 1


def test_congruent_basic():
    assert congruent(7, 1, 3)
    assert not congruent(7, 2, 3)


def test_congruent_negative_operand():
    assert congruent(-5, 1, 3)


@pytest.mark.parametrize("modulus", [0, -1, -17])
def test_congruent_rejects_nonpositive_modulus(modulus):
    with pytest.raises(ValueError):
        congruent(1, 0, modulus)


i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@given(i64, i64)
def test_gcd_divides_and_recurses(a, b):
    g = gcd(a, b)
    assert g >= 0
    if g:
        assert a % g == 0 and b % g == 0
    if b:
        assert g == gcd(b, a % b)


@given(i64, i64, st.integers(min_value=1, max_value=10**9))
def test_congruent_shift_invariance(a, b, modulus):
    base = congruent(a, b, modulus)
    assert congruent(a + modulus, b, modulus) == base
    assert congruent(a, b + modulus, modulus) == base
