"""The overflow-safe array `coth` of the crossing solver against frozen references."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steklov.crossings import coth

# frozen high-precision references (40-digit evaluation, rounded to double)
COTH_REFS = {
    0.3: 3.4327384303217414,
    1.0: 1.3130352854993312,
    2.0: 1.0373147207275481,
    10.0: 1.0000000041223073,
}


@pytest.mark.parametrize("x,ref", sorted(COTH_REFS.items()))
def test_coth_reference_values(x, ref):
    assert coth(x) == pytest.approx(ref, rel=1e-15)


def test_coth_limits_and_parity():
    assert coth(0.0) == math.inf
    assert coth(500.0) == 1.0
    assert coth(1e4) == 1.0  # no overflow past the clamp
    assert coth(-0.7) == -coth(0.7)


def test_coth_near_zero_matches_series():
    # coth(x) = 1/x + x/3 - x^3/45 + ...
    for x in (1e-8, 1e-6, 1e-4):
        assert coth(x) == pytest.approx(1.0 / x + x / 3.0, rel=1e-12)


def test_vectorized_shapes():
    x = np.linspace(0.1, 5.0, 11)
    assert coth(x).shape == x.shape


@given(st.floats(min_value=1e-3, max_value=300.0))
def test_coth_identity_with_tanh(x):
    assert coth(x) * math.tanh(x) == pytest.approx(1.0, rel=1e-13)


@given(st.floats(min_value=1e-2, max_value=300.0))
def test_coth_strictly_above_one(x):
    assert coth(x) >= 1.0


def test_coth_array_matches_scalar_bitwise():
    # sigma_bar_grid evaluates every odd branch in one array call, and the
    # solver's gap makes one scalar call per step: both must read the same bits
    rng = np.random.default_rng(20170)
    magnitudes = np.concatenate(
        [
            10.0 ** rng.uniform(math.log10(5e-324), 300.0, 20_000),
            np.nextafter(350.0, [0.0, np.inf] * 50) + rng.uniform(-1e-9, 1e-9, 100),
            [5e-324, 1e-320, 2.2250738585072014e-308, 349.0, 350.0, 351.0, 1e300],
        ]
    )
    x = np.concatenate([magnitudes, -magnitudes, [0.0, -0.0]])
    rng.shuffle(x)
    scalars = np.array([coth(float(v)) for v in x])
    assert coth(x).tobytes() == scalars.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [5e-324, 1e-320, -1e-320])
def test_coth_subnormal_is_infinite_without_warning(x):
    assert coth(x) == math.copysign(math.inf, x)
    assert coth(np.array([x, 1.0]))[0] == math.copysign(math.inf, x)
