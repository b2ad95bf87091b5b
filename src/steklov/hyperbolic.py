"""Overflow-safe hyperbolic function evaluations.

All branch formulas in this package reduce to tanh, coth and the squared
secant/cosecant.  Large-mode crossings push the arguments of these functions
well past the range where the naive exp-based forms overflow, and coth
suffers catastrophic cancellation near zero, so everything here is written
in terms of expm1/exp(-|x|).
"""

from __future__ import annotations

import numpy as np

# tanh(x) and coth(x) are 1.0 to double precision far before this point;
# clamping keeps expm1 from overflowing.
SATURATION = 350.0


def coth(x):
    """Hyperbolic cotangent, odd, with coth(0) = +inf and coth(inf) = 1."""
    x = np.asarray(x, dtype=float)
    ax = np.minimum(np.abs(x), SATURATION)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (1.0 + 2.0 / np.expm1(2.0 * ax)) * np.sign(x)
    out = np.where(x == 0.0, np.inf, out)
    return out if out.shape else float(out)


def sech2(x):
    """1 / cosh(x)^2 without overflow for large |x|."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-2.0 * np.abs(x))
    out = 4.0 * e / (1.0 + e) ** 2
    return out if out.shape else float(out)


def csch2(x):
    """1 / sinh(x)^2 without overflow; csch2(0) = +inf."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    e = np.exp(-2.0 * ax)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        large = 4.0 * e / (1.0 - e) ** 2
        small = 1.0 / np.sinh(np.where(ax > 1.0, 0.5, x)) ** 2
    out = np.where(ax > 1.0, large, small)
    out = np.where(x == 0.0, np.inf, out)
    return out if out.shape else float(out)
