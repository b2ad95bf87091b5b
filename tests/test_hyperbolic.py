"""Overflow-safe hyperbolic evaluations against mpmath-frozen references."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steklov.hyperbolic import coth, csch2, sech2

# frozen high-precision references (40-digit evaluation, rounded to double)
COTH_REFS = {
    0.3: 3.4327384303217414,
    1.0: 1.3130352854993312,
    2.0: 1.0373147207275481,
    10.0: 1.0000000041223073,
}
SECH2_REFS = {
    0.0: 1.0,
    1.0: 0.41997434161402614,
    5.0: 0.00018158323094380646,
}


@pytest.mark.parametrize("x,ref", sorted(COTH_REFS.items()))
def test_coth_reference_values(x, ref):
    assert coth(x) == pytest.approx(ref, rel=1e-15)


@pytest.mark.parametrize("x,ref", sorted(SECH2_REFS.items()))
def test_sech2_reference_values(x, ref):
    assert sech2(x) == pytest.approx(ref, rel=1e-15)


def test_coth_limits_and_parity():
    assert coth(0.0) == math.inf
    assert coth(500.0) == 1.0
    assert coth(1e4) == 1.0  # no overflow past the clamp
    assert coth(-0.7) == -coth(0.7)


def test_coth_near_zero_matches_series():
    # coth(x) = 1/x + x/3 - x^3/45 + ...
    for x in (1e-8, 1e-6, 1e-4):
        assert coth(x) == pytest.approx(1.0 / x + x / 3.0, rel=1e-12)


def test_csch2_limits():
    assert csch2(0.0) == math.inf
    assert csch2(1e4) == 0.0
    assert csch2(-2.0) == csch2(2.0)


def test_sech2_no_overflow():
    assert sech2(1e6) == 0.0
    assert sech2(-3.0) == sech2(3.0)


def test_vectorized_shapes():
    x = np.linspace(0.1, 5.0, 11)
    assert coth(x).shape == x.shape
    assert csch2(x).shape == x.shape
    assert sech2(x).shape == x.shape


@given(st.floats(min_value=1e-3, max_value=300.0))
def test_coth_identity_with_tanh(x):
    assert coth(x) * math.tanh(x) == pytest.approx(1.0, rel=1e-13)


@given(st.floats(min_value=1e-3, max_value=20.0))
def test_squared_reciprocals_match_naive(x):
    assert sech2(x) == pytest.approx(1.0 / math.cosh(x) ** 2, rel=1e-13)
    assert csch2(x) == pytest.approx(1.0 / math.sinh(x) ** 2, rel=1e-12)


@given(st.floats(min_value=1e-2, max_value=300.0))
def test_coth_strictly_above_one(x):
    assert coth(x) >= 1.0
