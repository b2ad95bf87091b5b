"""Suprema, critical moduli, and the inequality verification suites.

Suprema of the normalized eigenvalues over all S^1-invariant metrics reduce
to one-dimensional optimization over the conformal modulus, and every
extremum sits at a crossing of an increasing and a decreasing branch (or
escapes to infinity, for the second annulus eigenvalue).  Each supremum is
read off one crossing of the lattice (`branches._crossing`): on the Mobius
band sigma_bar_j peaks at T_{ceil(j/2),1}, on the annulus at t10/k for
j = 2k-1 and at t_{k,1} for j = 2k > 2.  `verify --suite suprema` checks
each one, bit for bit, against the best local maximum of `critical_set`;
the dense grid search `grid_supremum` runs only in the tests and the
benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .branches import (
    Branch,
    BranchKind,
    SurfaceKind,
    _crossing,
    branch_index,
    crossing_lattice,
    lambda_bar,
    sigma_bar_grid,
)
from .crossings import solve_t10
from .exceptions import _check_index

# Largest modulus on the default search grid.  Past T ~ 19 the even annulus
# branch saturates to exactly 4*pi in double precision, which would make the
# strict inequality sigma_bar_2 < 4*pi vacuously fail at float resolution.
GRID_T_MIN = 1e-2
GRID_T_MAX = 18.0
GRID_POINTS = 10**4


class Character(Enum):
    LOCAL_MAX = "local_max"
    LOCAL_MIN = "local_min"


@dataclass(frozen=True)
class SupremumResult:
    kind: SurfaceKind
    j: int
    value: float
    attained: bool
    attaining_modulus: float | None


@dataclass(frozen=True)
class CriticalMetric:
    kind: SurfaceKind
    modulus: float
    branches: tuple[Branch, ...]
    value: float
    character: Character
    eigen_multiplicity: int
    indices: tuple[int, ...]  # eigenvalue indices j for which T is critical


def grid_supremum(kind: SurfaceKind, j: int) -> tuple[float, float]:
    """(max value, argmax modulus) of sigma_bar_j over a log-spaced grid.

    The maximum sits at a kink (two branches crossing), so a single pass only
    locates it to first order in the grid spacing; a second linear pass over
    the bracketing coarse cells recovers ~1e-7 relative accuracy.
    """
    grid = np.geomspace(GRID_T_MIN, GRID_T_MAX, GRID_POINTS)
    values = sigma_bar_grid(kind, j, grid)[j - 1]
    i = int(np.argmax(values))
    lo = grid[max(i - 3, 0)]
    hi = grid[min(i + 3, GRID_POINTS - 1)]
    fine = np.linspace(lo, hi, GRID_POINTS)
    values = sigma_bar_grid(kind, j, fine)[j - 1]
    i = int(np.argmax(values))
    return float(values[i]), float(fine[i])


def sup_sigma_mobius(j: int) -> SupremumResult:
    """Supremum of the j-th Mobius eigenvalue; always attained, at T_{ceil(j/2),1}."""
    j = _check_index(j, "eigenvalue index")
    mb = SurfaceKind.MOBIUS_BAND
    c = _crossing(mb, (j + 1) // 2, 1)
    return SupremumResult(mb, j, c.value, attained=True, attaining_modulus=c.modulus)


def sup_sigma_annulus(j: int) -> SupremumResult:
    """Supremum of the j-th annulus eigenvalue.

    Odd j = 2k-1: attained at the linear/even crossing T = t10/k.  j = 2: the
    even branch increases to its limit 4*pi but never reaches it.  Even
    j = 2k > 2: attained at the even/odd crossing t_{k,1}.
    """
    j = _check_index(j, "eigenvalue index")
    an = SurfaceKind.ANNULUS
    if j == 2:
        limit = lambda_bar(an, 1, math.inf)
        return SupremumResult(an, 2, limit, attained=False, attaining_modulus=None)
    c = _crossing(an, (j + 1) // 2, 1 - j % 2)  # branch n = 0 is the linear one
    return SupremumResult(an, j, c.value, attained=True, attaining_modulus=c.modulus)


def critical_set(kind: SurfaceKind, max_mode: int) -> list[CriticalMetric]:
    """All critical moduli with modes up to max_mode, with classifications.

    Mobius: every even/odd crossing T_{k,l}, l <= k <= max_mode, carries a
    multiplicity-4 eigenspace.  Annulus: even/odd crossings t_{m,n} with
    n < m <= max_mode (multiplicity 4) plus the linear/even crossings at
    T = t10/m (multiplicity 3).

    The classification is exact.  Left of a crossing the increasing branch
    is the lower one and right of it the upper one, so the lowest
    min(multiplicities) indices of the cluster are local maxima and the top
    min(multiplicities) are local minima.  At a linear/even crossing the
    middle index follows the even branch on both sides and is not critical.
    """
    lattice = crossing_lattice(kind, max_mode)  # validates max_mode
    # the linear/even crossings come first, listed as (linear, even)
    lattice.sort(key=lambda c: c.decreasing.kind is not BranchKind.LINEAR)
    results: list[CriticalMetric] = []
    for c in lattice:
        branches = (c.increasing, c.decreasing)
        if c.decreasing.kind is BranchKind.LINEAR:
            branches = branches[::-1]
        width = min(c.increasing.multiplicity, c.decreasing.multiplicity)
        top = c.first_index + c.multiplicity - width
        for character, start in (
            (Character.LOCAL_MAX, c.first_index),
            (Character.LOCAL_MIN, top),
        ):
            results.append(
                CriticalMetric(
                    kind=kind,
                    modulus=c.modulus,
                    branches=branches,
                    value=c.value,
                    character=character,
                    eigen_multiplicity=c.multiplicity,
                    indices=tuple(range(start, start + width)),
                )
            )
    return results


@dataclass(frozen=True)
class InequalityRecord:
    label: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def verify_first_intersection_max(max_mode: int) -> list[InequalityRecord]:
    """Check that crossing values increase along antidiagonals of the lattice.

    For all integers k >= l > c > 0 with k + c <= max_mode, the crossing
    value at T_{k,l} is strictly below the value at T_{k+c,l-c}.
    """
    mb = SurfaceKind.MOBIUS_BAND
    max_mode = _check_index(max_mode, "max_mode")
    values = {
        (branch_index(mb, c.increasing), branch_index(mb, c.decreasing)): c.value
        for c in crossing_lattice(mb, max_mode)
    }
    records = []
    for (k, l), lhs in values.items():
        for c in range(1, min(l, max_mode - k + 1)):
            rhs = values[k + c, l - c]
            records.append(InequalityRecord(label=f"k={k},l={l},c={c}", lhs=lhs, rhs=rhs))
    return records


@dataclass(frozen=True)
class NoAsymptoteRecord:
    k: int
    limit_value: float  # even-branch limit at half the mode
    crossing_value: float  # the crossing value sigma_bar at T_{k,1}, its first crossing
    t_k: float  # solution of 2k*tanh(2kt) = 1/t
    t_k1: float  # first crossing modulus

    @property
    def margin(self) -> float:
        return self.crossing_value - self.limit_value


def verify_no_asymptote(max_even: int) -> list[NoAsymptoteRecord]:
    """For even k, the supremum at the first crossing beats the half-mode limit.

    Also replays the intermediate comparison point: T_k defined by
    2k*tanh(2k*T_k) = 1/T_k satisfies 2k*T_k = t10 and T_k < T_{k,1}.
    """
    max_even = _check_index(max_even, "max_even")
    mb = SurfaceKind.MOBIUS_BAND
    t10 = solve_t10()
    records = []
    for k in range(2, max_even + 1, 2):
        c = _crossing(mb, k, 1)
        records.append(
            NoAsymptoteRecord(
                k=k,
                limit_value=lambda_bar(mb, k // 2, math.inf),
                crossing_value=c.value,
                t_k=t10 / c.increasing.mode,
                t_k1=c.modulus,
            )
        )
    return records
