"""Crossing solver: frozen roots, closed-form partials, auxiliary positivity."""

import hashlib
import math
import sys
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov import crossings
from steklov.branches import SurfaceKind, crossing_lattice
from steklov.crossings import (
    RESIDUAL_SCALE,
    aux_inequalities,
    crossing_partials,
    solve_crossing,
    solve_t10,
)
from steklov.exceptions import DomainError, NoCrossingError

# frozen 40-digit mpmath roots of a*tanh(a*x) = b*coth(b*x)
FROZEN_ROOTS = {
    (2.0, 1.0): (0.65847894846240835, 1.7320508075688773),
    (4.0, 1.0): (0.30640093736604065, 3.3651976643782396),
    (6.0, 1.0): (0.20182771967667219, 5.0218147126139538),
    (3.0, 1.0): (0.41572147276465527, 2.5424597568374125),
    (4.0, 3.0): (0.38680482494893227, 3.6533020716113085),
    (3.0, 2.0): (0.48121182505960345, 2.6832815729997476),
}

T10 = 1.1996786402577338


@pytest.mark.parametrize("ab,expected", sorted(FROZEN_ROOTS.items()))
def test_frozen_roots(ab, expected):
    point = solve_crossing(*ab)
    assert point.x == pytest.approx(expected[0], rel=1e-14)
    assert point.height == pytest.approx(expected[1], rel=1e-14)


def test_critical_crossing_closed_form():
    # a=2, b=1 solves in closed form: x = artanh(1/sqrt(3)), height sqrt(3)
    point = solve_crossing(2.0, 1.0)
    assert point.x == pytest.approx(math.atanh(1.0 / math.sqrt(3.0)), abs=1e-15)
    assert point.height == pytest.approx(math.sqrt(3.0), abs=1e-15)


def test_height_equality_both_branches():
    for a, b in FROZEN_ROOTS:
        p = solve_crossing(a, b)
        assert a * math.tanh(a * p.x) == pytest.approx(b / math.tanh(b * p.x), rel=1e-13)


def test_residual_small():
    for a, b in FROZEN_ROOTS:
        p = solve_crossing(a, b)
        assert p.residual <= 1e-13 * (a + b)


@pytest.mark.parametrize("kind", list(SurfaceKind))
def test_residuals_are_stored_not_recomputed(monkeypatch, kind):
    # a residual is the |F(x)| the solve measured for its refusal rule, or on
    # the linear branch the one _crossing computed; reading it solves nothing
    lattice, point = crossing_lattice(kind, 12), solve_crossing(40, 7)
    want = [point.residual] + [c.residual for c in lattice]
    assert point.residual == abs(crossings._gap(40.0, 7.0, point.x))

    def no_gap(*args):
        raise AssertionError("a residual read evaluated the gap again")

    monkeypatch.setattr(crossings, "_gap", no_gap)
    assert [point.residual] + [c.residual for c in lattice] == want


def test_no_crossing_when_a_leq_b():
    with pytest.raises(NoCrossingError):
        solve_crossing(1.0, 1.0)
    with pytest.raises(NoCrossingError):
        solve_crossing(1.0, 2.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        solve_crossing(-1.0, 0.5)
    with pytest.raises(DomainError):
        solve_crossing(2.0, 0.0)
    with pytest.raises(DomainError):
        solve_crossing(math.inf, 1.0)
    with pytest.raises(DomainError):  # past the double range, not OverflowError
        solve_crossing(10**400, 1)


def test_residual_bound_at_high_modes():
    # the root is ~1.2/a; the bracket starts at 1/a, so bisection ends on
    # adjacent doubles around the root at every scale
    for a in (10**e for e in range(9, 301)):
        p = solve_crossing(a, 1)
        assert p.x > 0.0 and p.residual <= RESIDUAL_SCALE * (a + 1), a


def test_solver_scales_with_the_modes():
    # F(x) = a*tanh(a*x) - b*coth(b*x) at (2^k a, 2^k b) is 2^k F(2^k x) exactly,
    # so a bracket that scales with 1/a yields a root scaled by 2^-k bit for bit
    # k samples [-1000, 1000], densely where a bracket fixed at 1.0 stops working
    ks = sorted({*range(-1000, 1001, 37), *range(-210, -190), 1000})
    for a, b in ((2.0, 1.0), (4.0, 3.0), (60.0, 59.0), (1.0, 1e-7)):
        x = solve_crossing(a, b).x
        for k in ks:
            got = solve_crossing(math.ldexp(a, k), math.ldexp(b, k)).x
            assert got == math.ldexp(x, -k), (a, b, k)


@pytest.mark.parametrize(
    "a,b", [(1e-61, 5e-62), (1e-300, 1e-301), (1.2e-308, 6e-309), (1e-308, 5e-309)]
)
def test_tiny_modes_meet_the_residual_bound(a, b):
    # the roots, ~1.3e61 to ~1.3e308, lie far past any fixed initial bracket; in the
    # last two lo + hi overflows, and in the last 2/a does, though the root is a double
    p = solve_crossing(a, b)
    assert 1e60 < p.x < math.inf and p.residual <= RESIDUAL_SCALE * (a + b)


def test_crossing_past_the_double_range_raises():
    # the branches cross (a > b), but 1/a, the bracket's lower end, is inf
    with pytest.raises(DomainError, match="past the double range"):
        solve_crossing(2e-323, 5e-324)
    # 1/a ~ 1.7e308 is a double, but the root, ~2.2e308, is not
    with pytest.raises(DomainError, match="past the double range"):
        solve_crossing(6e-309, 3e-309)


@pytest.mark.parametrize("a,b", [(1e300, 1e-300), (1e308, 1e-308)])
def test_mode_ratio_past_the_solver_range_raises(a, b):
    # the roots, ~t10/a, are doubles, but past a/b ~ 2e308 b*x underflows near
    # them, F reads -inf there and the bisection would end on that edge
    with pytest.raises(DomainError, match="range of mode ratios"):
        solve_crossing(a, b)


# sha256 of the float.hex of every modulus, height and value of
# crossing_lattice(kind, 60), Moebius band then annulus, one per line;
# each value is sigma_bar at the crossing's modulus, the lower branch value there
# recorded under NumPy 2.4.6 with X86_V4 (AVX-512) dispatch; without AVX-512 the
# bits differ: `_gap` reads the array `crossings.coth` (np.expm1)
LATTICE_60_SHA256 = "e47198025688ecff67c5dc4cae0f68008c4da9643884ed39d2532832bbd7bc8c"


def test_lattice_to_mode_60_matches_frozen_bits():
    text = "\n".join(
        v.hex()
        for kind in (SurfaceKind.MOBIUS_BAND, SurfaceKind.ANNULUS)
        for c in crossing_lattice(kind, 60)
        for v in (c.modulus, c.height, c.value)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == LATTICE_60_SHA256


def test_t10_frozen_value():
    t = solve_t10()
    assert t == pytest.approx(T10, rel=1e-15)
    assert math.tanh(t) == pytest.approx(1.0 / t, rel=1e-15)


def test_t10_stops_when_newton_repeats(monkeypatch):
    # Newton from 1.2 reaches its fixed point in three steps; one cosh call per step
    calls = []

    def counting_cosh(t):
        calls.append(t)
        return math.cosh(t)

    monkeypatch.setattr(crossings, "math", SimpleNamespace(**{**vars(math), "cosh": counting_cosh}))
    assert solve_t10.__wrapped__() == solve_t10()
    assert len(calls) <= 6


def test_t10_bits_pinned():
    # Newton in `math` alone: the same bits under every NumPy dispatch
    assert solve_t10().hex() == "0x1.331e23ad9de11p+0"


def test_t10_is_degenerate_crossing_limit():
    # a*tanh(a*x) = b*coth(b*x) with b -> 0 becomes tanh-type = 1/x; for a=1
    # the root is t10 itself, approached by shrinking b
    p = solve_crossing(1.0, 1e-7)
    assert p.x == pytest.approx(T10, rel=1e-6)


@settings(max_examples=60)
@given(
    st.floats(min_value=0.11, max_value=60.0),
    st.floats(min_value=0.1, max_value=50.0),
)
def test_root_properties(a, b):
    if a <= b * (1.0 + 1e-9):
        return
    p = solve_crossing(a, b)
    assert p.x > 0.0
    assert p.residual <= 1e-12 * (a + b)
    # height between the decreasing branch's limit b and the increasing cap a
    assert b < p.height < a
    # F changes sign across the root
    gap = lambda x: a * math.tanh(a * x) - b / math.tanh(b * x)  # noqa: E731
    assert gap(p.x * 0.9) < 0.0 < gap(p.x * 1.1)


@settings(max_examples=40)
@given(
    st.floats(min_value=1.2, max_value=30.0),
    st.floats(min_value=0.3, max_value=1.0),
)
def test_partials_match_finite_differences(a, b):
    if a <= b * 1.1:
        return
    part = crossing_partials(a, b)
    eps = 1e-6
    xa1, xa2 = solve_crossing(a + eps, b), solve_crossing(a - eps, b)
    xb1, xb2 = solve_crossing(a, b + eps), solve_crossing(a, b - eps)
    assert part.dx_da == pytest.approx((xa1.x - xa2.x) / (2 * eps), rel=1e-5, abs=1e-9)
    assert part.dx_db == pytest.approx((xb1.x - xb2.x) / (2 * eps), rel=1e-5, abs=1e-9)
    assert part.du_da == pytest.approx(
        (xa1.height - xa2.height) / (2 * eps), rel=1e-5, abs=1e-9
    )
    assert part.du_db == pytest.approx(
        (xb1.height - xb2.height) / (2 * eps), rel=1e-5, abs=1e-9
    )


def test_partial_signs():
    # the crossing moves left and down in a, right and up in b
    for a, b in FROZEN_ROOTS:
        part = crossing_partials(a, b)
        assert part.dx_da < 0.0
        assert part.dx_db > 0.0
        assert part.du_da > 0.0
        assert part.du_db > 0.0


def _mp_partials(a, b, x):
    # implicit differentiation of F(x; a, b) = a*tanh(a*x) - b*coth(b*x) = 0 at x
    a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
    sech2, csch2 = mpmath.sech(a * x) ** 2, mpmath.csch(b * x) ** 2
    f_x = a * a * sech2 + b * b * csch2
    dx_da = -(mpmath.tanh(a * x) + a * x * sech2) / f_x
    dx_db = (mpmath.coth(b * x) - b * x * csch2) / f_x
    return dx_da, dx_db, -b * b * csch2 * dx_da, a * a * sech2 * dx_db


@pytest.mark.parametrize(
    "a,b", [(1e150, 1.0), (1e160, 1.0), (1e200, 1.0), (1.0, 1e-170), (3.0, 3.0 * (1 - 1e-15)), (1e6, 1e6 - 1)]
)
def test_partials_hold_at_extreme_mode_ratios(a, b):
    # b*x ~ 1e-150 to 1e-200, where sinh(b*x)^2 underflows and csch(b*x)^2
    # overflows, and near-equal modes, where a*x ~ 7 to 18.  The reference sits
    # at the solver's modulus: next to equal modes F'(x) ~ 1e-14, so the double
    # root is off the exact one by ~1e-3 and the partials there by ~7%.
    # coth(y) - y*csch(y)^2 cancels about 2*log10(1/y) digits.
    x = solve_crossing(a, b).x
    p = crossing_partials(a, b)
    got = (p.dx_da, p.dx_db, p.du_da, p.du_db)
    assert all(math.isfinite(g) for g in got)
    with mpmath.workdps(60 + 2 * max(0, math.ceil(-math.log10(b * x)))):
        for g, exact in zip(got, _mp_partials(a, b, x)):
            if sys.float_info.min <= abs(exact) <= sys.float_info.max:
                assert float(abs(mpmath.mpf(g) - exact) / abs(exact)) <= 5e-14, (g, exact)


@given(st.floats(min_value=1e-100, max_value=20.0))
def test_aux_inequalities_positive(t):
    aux = aux_inequalities(t)
    assert aux.f_val > 0.0
    assert aux.g_prime > 0.0
    assert aux.tanh_gap > 0.0


def _mp_aux(t):
    # 50 digits beyond the 3*log10(1/t) that the differences cancel
    with mpmath.workdps(50 + max(0, int(-3 * math.log10(t)))):
        x = mpmath.mpf(t)
        sh, ch = mpmath.sinh(x), mpmath.cosh(x)
        return sh * ch - x, 2 * ch * (x * ch - sh) / x**3, x - mpmath.tanh(x)


def test_aux_inequalities_match_deep_mpmath():
    # below t = 1/2 the closed forms cancel (f_val and tanh_gap read 0.0 and
    # g_prime -3.31 at t = 1e-8), so all three are summed from series there;
    # past t ~ 355.6 (f_val) and ~361.1 (g_prime) the exact values pass the
    # largest double and read +inf, where sinh(2t) raised from t ~ 355.2
    large = [300.0, 354.0, 355.0, 356.0, 360.0, 363.0, 365.0, 1e3, 1e300, sys.float_info.max]
    for t in np.geomspace(1e-100, 20.0, 400).tolist() + [math.nextafter(0.5, 0.0), 0.5] + large:
        aux = aux_inequalities(t)
        for got, exact in zip((aux.f_val, aux.g_prime, aux.tanh_gap), _mp_aux(t)):
            if exact > sys.float_info.max:
                assert got == math.inf, t
            else:
                assert float(abs(mpmath.mpf(got) - exact) / exact) <= 1e-14, t


def test_aux_inequalities_domain():
    with pytest.raises(DomainError):
        aux_inequalities(0.0)
    with pytest.raises(DomainError):
        aux_inequalities(-1.0)


# float.hex of the outputs that sum coth(y) - y*csch(y)^2 from its series
# (y = b*x < 1/2), recorded when the partials moved to s = a*x and y = b*x
SERIES_PARTIALS = {
    (4.0, 1.0): ("0x1.b8b78de867216p-7", "0x1.0191892da30aap-4"),
    (6.0, 1.0): ("0x1.f52a039c997ddp-9", "0x1.51b3d41e82571p-5"),
    (40.0, 3.0): ("0x1.3c8501b4696aap-15", "0x1.2cbaee38f2a10p-6"),
}
SERIES_AUX = {
    1e-8: ("0x1.9ca58cce0be35p-81", "0x1.5555555555555p-1", "0x1.9ca58cce0be35p-82"),
    0.01: ("0x1.65ebcd304b649p-21", "0x1.555a93882bc58p-1", "0x1.65e64dd8e6f66p-22"),
    0.3: ("0x1.2c442213744a8p-6", "0x1.6807cec18bb36p-1", "0x1.1cab16b43c723p-7"),
    0.49: ("0x1.510b6ca4a11a2p-4", "0x1.886a4c12129f3p-1", "0x1.2523946ba52a3p-5"),
}


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("ab", sorted(SERIES_PARTIALS))
def test_series_partials_bitwise(ab):
    assert ab[1] * solve_crossing(*ab).x < 0.5  # the series branch
    p = crossing_partials(*ab)
    assert _bits([p.dx_db, p.du_db]) == _bits([float.fromhex(h) for h in SERIES_PARTIALS[ab]])


@pytest.mark.parametrize("t", sorted(SERIES_AUX))
def test_series_aux_inequalities_bitwise(t):
    aux = aux_inequalities(t)
    pinned = [float.fromhex(h) for h in SERIES_AUX[t]]
    assert _bits([aux.f_val, aux.g_prime, aux.tanh_gap]) == _bits(pinned)
