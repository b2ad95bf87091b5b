"""Closed-form normalized Steklov eigenvalue branches.

On the flat cylinder [-T, T] x S^1 separation of variables gives harmonic
functions alpha(t)*beta(theta) with alpha in {cosh(kt), sinh(kt), t, 1}.
Each profile yields one eigenvalue branch as a function of the conformal
modulus T; normalizing by total boundary length removes the conformal
factor entirely, so the branches below are functions of T alone.

Mobius band (quotient by (t, theta) ~ (-t, theta + pi)):
    even branch   4*pi*k * tanh(2kT)        theta-frequency 2k
    odd branch    2*pi*(2l-1) * coth((2l-1)T)  theta-frequency 2l-1
Annulus (no quotient, two boundary circles, length 4*pi*f(T)):
    even branch   4*pi*k * tanh(kT)
    odd branch    4*pi*n * coth(nT)
    linear branch 4*pi / T                  (profile t, frequency 0)
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .crossings import RESIDUAL_SCALE, solve_crossing, solve_t10
from .exceptions import DomainError, UnsupportedBranchError
from .hyperbolic import coth


class SurfaceKind(Enum):
    ANNULUS = "annulus"
    MOBIUS_BAND = "mobius"


class BranchKind(Enum):
    EVEN_HYPERBOLIC = "even_hyperbolic"  # cosh profile, increasing in T
    ODD_HYPERBOLIC = "odd_hyperbolic"  # sinh profile, decreasing in T
    LINEAR = "linear"  # profile t, annulus only


@dataclass(frozen=True)
class Branch:
    """One separated-variables eigenvalue family: parity plus Fourier mode."""

    kind: BranchKind
    mode: int  # Fourier frequency in theta; 0 for the linear branch

    @property
    def multiplicity(self) -> int:
        return 1 if self.kind is BranchKind.LINEAR else 2

    def label(self) -> str:
        return f"{self.kind.value}:{self.mode}"


@dataclass(frozen=True)
class EigenvalueEntry:
    """One entry of the ordered spectrum, possibly a merged crossing."""

    value: float
    branches: tuple[Branch, ...]
    index_range: tuple[int, int]  # positions occupied, counting multiplicity

    @property
    def branch(self) -> Branch:
        return self.branches[0]

    @property
    def multiplicity(self) -> int:
        return self.index_range[1] - self.index_range[0] + 1


def _check_modulus(T: float) -> float:
    T = float(T)
    if math.isnan(T) or T <= 0.0:
        raise DomainError(f"conformal modulus must be positive, got {T}")
    return T


def _check_integer(value, name: str, error: type[Exception] = DomainError) -> int:
    """`value` as an int; fractions, infinities and NaN raise `error`."""
    try:
        index = int(value)
    except (OverflowError, ValueError):  # inf, NaN
        raise error(f"{name} must be an integer, got {value}") from None
    if index != value:
        raise error(f"{name} must be an integer, got {value}")
    return index


def _check_index(value, name: str = "mode index") -> int:
    """`value` as an int >= 1, by the integer rule of `_check_integer`."""
    index = _check_integer(value, name)
    if index < 1:
        raise DomainError(f"{name} must be >= 1, got {index}")
    return index


def lambda_bar(kind: SurfaceKind, mode_index: int, T: float):
    """Even (cosh-profile) normalized eigenvalue; increasing in T."""
    k = _check_index(mode_index)
    T = _check_modulus(T)
    if math.isinf(T):
        return 4.0 * math.pi * k
    freq = 2 * k if kind is SurfaceKind.MOBIUS_BAND else k
    return 4.0 * math.pi * k * math.tanh(freq * T)


def mu_bar(kind: SurfaceKind, mode_index: int, T: float):
    """Odd (sinh-profile) normalized eigenvalue; decreasing in T, +inf at 0+."""
    l = _check_index(mode_index)
    T = _check_modulus(T)
    if kind is SurfaceKind.MOBIUS_BAND:
        freq = 2 * l - 1
        scale = 2.0 * math.pi * freq
    else:
        freq = l
        scale = 4.0 * math.pi * l
    if math.isinf(T):
        return scale
    return scale * coth(freq * T)


def nu_bar(T: float, kind: SurfaceKind = SurfaceKind.ANNULUS):
    """Linear-profile normalized eigenvalue 4*pi/T; annulus only."""
    if kind is SurfaceKind.MOBIUS_BAND:
        raise UnsupportedBranchError("the Mobius band has no linear branch")
    T = _check_modulus(T)
    if math.isinf(T):
        return 0.0
    return 4.0 * math.pi / T


def branch_value(kind: SurfaceKind, branch: Branch, T: float) -> float:
    """Evaluate a Branch descriptor at modulus T."""
    if branch.kind is BranchKind.LINEAR:
        return nu_bar(T, kind)
    if branch.kind is BranchKind.EVEN_HYPERBOLIC:
        return lambda_bar(kind, branch_index(kind, branch), T)
    return mu_bar(kind, branch_index(kind, branch), T)


def _even_branch(kind: SurfaceKind, k: int) -> Branch:
    mode = 2 * k if kind is SurfaceKind.MOBIUS_BAND else k
    return Branch(BranchKind.EVEN_HYPERBOLIC, mode)


def _odd_branch(kind: SurfaceKind, l: int) -> Branch:
    mode = 2 * l - 1 if kind is SurfaceKind.MOBIUS_BAND else l
    return Branch(BranchKind.ODD_HYPERBOLIC, mode)


def branch_index(kind: SurfaceKind, branch: Branch) -> int:
    """Inverse of _even_branch and _odd_branch: the k of mode 2k, the l of mode 2l-1.

    On the annulus the mode is its own index (0 for the linear branch).
    """
    return (branch.mode + 1) // 2 if kind is SurfaceKind.MOBIUS_BAND else branch.mode


def spectrum(kind: SurfaceKind, T: float, count: int) -> list[EigenvalueEntry]:
    """First `count` nonzero normalized eigenvalues, merged at crossings.

    Each branch family increases with the mode at fixed T, so the spectrum is
    a lazy merge of the even, odd and (annulus) linear sequences.  Two
    adjacent values share one entry only where the two branches cross (see
    `_crosses`); distinct branches that are merely close stay apart.
    """
    T = _check_modulus(T)
    if math.isinf(T):
        raise DomainError("spectrum requires a finite modulus")
    count = _check_index(count, "count")

    # the rank breaks exact ties in the order linear, even 1, odd 1, even 2, ...
    sequences = [
        ((lambda_bar(kind, m, T), 2 * m - 1, _even_branch(kind, m)) for m in itertools.count(1)),
        ((mu_bar(kind, m, T), 2 * m, _odd_branch(kind, m)) for m in itertools.count(1)),
    ]
    if kind is SurfaceKind.ANNULUS:
        sequences.append([(nu_bar(T), 0, Branch(BranchKind.LINEAR, 0))])
    merged = heapq.merge(*sequences)

    entries: list[EigenvalueEntry] = []
    position = 1
    value, _, branch = next(merged)
    while position <= count:
        next_value, _, next_branch = next(merged)
        group = (branch,)
        if _crosses(kind, branch, value, next_branch, next_value):
            group = (branch, next_branch)
            next_value, _, next_branch = next(merged)
        mult = sum(b.multiplicity for b in group)
        entries.append(
            EigenvalueEntry(
                value=value,
                branches=group,
                index_range=(position, position + mult - 1),
            )
        )
        position += mult
        value, branch = next_value, next_branch
    return entries


def _crosses(
    kind: SurfaceKind, first: Branch, v_first: float, second: Branch, v_second: float
) -> bool:
    """Whether adjacent spectrum values v_first <= v_second sit on a crossing.

    Only an increasing (even) branch meets a decreasing one, and only when
    the even frequency is the larger; every even branch meets the linear one.
    At the solved crossing the two values differ by at most the crossing
    solver's bound RESIDUAL_SCALE * (a + b), times the 2*pi or 4*pi that
    normalizes the heights a*tanh(a*x) = b*coth(b*x).
    """
    even = BranchKind.EVEN_HYPERBOLIC
    increasing, decreasing = (first, second) if first.kind is even else (second, first)
    if increasing.kind is not even or decreasing.kind is even:
        return False
    if increasing.mode <= decreasing.mode:  # the linear branch has mode 0
        return False
    scale = 2.0 * math.pi if kind is SurfaceKind.MOBIUS_BAND else 4.0 * math.pi
    return v_second - v_first <= scale * RESIDUAL_SCALE * (increasing.mode + decreasing.mode)


def sigma_bar(kind: SurfaceKind, j: int, T: float) -> float:
    """The j-th nonzero normalized eigenvalue, counted with multiplicity."""
    j = _check_index(j, "eigenvalue index")
    return spectrum(kind, T, j)[-1].value  # the last entry holds index j


def sigma_bar_grid(kind: SurfaceKind, j_max: int, T) -> np.ndarray:
    """Vectorized sigma_bar for j = 1..j_max over an array of moduli.

    Returns an array of shape (j_max, len(T)).  Used as an independent
    grid-search route; raises if the mode cutoff could have missed a value.
    """
    T = np.asarray(T, dtype=float)
    if np.any(T <= 0.0) or not np.all(np.isfinite(T)):
        raise DomainError("moduli must be positive and finite")
    j_max = _check_index(j_max, "j_max")
    # the even branches of modes 1..ceil(j_max/2) alone give j_max values,
    # and every branch of a higher mode lies above them
    n_modes = (j_max + 1) // 2
    rows = []
    if kind is SurfaceKind.ANNULUS:
        rows.append(4.0 * math.pi / T)
    for m in range(1, n_modes + 2):
        if kind is SurfaceKind.MOBIUS_BAND:
            lam = 4.0 * math.pi * m * np.tanh(2 * m * T)
            mus = 2.0 * math.pi * (2 * m - 1) * coth((2 * m - 1) * T)
        else:
            lam = 4.0 * math.pi * m * np.tanh(m * T)
            mus = 4.0 * math.pi * m * coth(m * T)
        if m <= n_modes:
            rows.extend([lam, lam, mus, mus])
    stacked = np.vstack(rows)
    stacked.sort(axis=0)  # in place: one buffer of all rows, not two
    out = stacked[:j_max].copy()  # the caller keeps only the rows returned
    # completeness: the omitted mode n_modes + 1, left in lam and mus, must
    # lie above row j_max
    if not np.all(np.minimum(lam, mus) > out[-1]):  # pragma: no cover - cutoff is generous
        raise RuntimeError("mode cutoff too small for requested j_max")
    return out


@dataclass(frozen=True)
class LatticeCrossing:
    """Where an increasing branch meets a decreasing one, and its eigenvalue cluster."""

    increasing: Branch  # even
    decreasing: Branch  # odd, or linear on the annulus
    modulus: float
    height: float  # common value of the unnormalized branch heights
    value: float  # normalized eigenvalue at the crossing
    residual: float  # crossing-equation residual at the solved modulus
    first_index: int  # lowest eigenvalue index of the cluster

    @property
    def multiplicity(self) -> int:
        return self.increasing.multiplicity + self.decreasing.multiplicity


def crossing_lattice(kind: SurfaceKind, max_mode: int) -> list[LatticeCrossing]:
    """Every crossing of an increasing and a decreasing branch up to max_mode.

    Mobius band: even mode 2k meets odd mode 2l-1 at T_{k,l}, l <= k.
    Annulus: even mode m meets the linear branch at t10/m, then odd mode n at
    t_{m,n}, n < m.  Either way the crossing solves a*tanh(a*x) = b*coth(b*x)
    with a, b the two modes.  The cluster's first index counts the values
    below it: each branch family increases with mode at fixed T, every odd
    annulus branch lies above the linear one, and the linear branch lies
    below even mode m exactly when T > t10/m.
    """
    max_mode = _check_index(max_mode, "max_mode")
    mobius = kind is SurfaceKind.MOBIUS_BAND
    scale = 2.0 * math.pi if mobius else 4.0 * math.pi
    t10 = solve_t10()
    lattice: list[LatticeCrossing] = []
    for m in range(1, max_mode + 1):
        even = _even_branch(kind, m)
        if not mobius:
            lattice.append(
                LatticeCrossing(
                    increasing=even,
                    decreasing=Branch(BranchKind.LINEAR, 0),
                    modulus=t10 / m,
                    height=m / t10,
                    value=scale * m / t10,
                    residual=0.0,
                    first_index=2 * m - 1,
                )
            )
        for n in range(1, m + 1 if mobius else m):
            odd = _odd_branch(kind, n)
            point = solve_crossing(float(even.mode), float(odd.mode))
            lattice.append(
                LatticeCrossing(
                    increasing=even,
                    decreasing=odd,
                    modulus=point.x,
                    height=point.height,
                    value=scale * point.height,
                    residual=point.residual,
                    # on the annulus the linear value is below the cluster too
                    first_index=2 * (m + n) - 3 + (not mobius and point.x > t10 / m),
                )
            )
    return lattice
