"""Discrete Dirichlet-to-Neumann oracle on the flat cylinder and its quotient.

This is the independent numerical check on every closed-form eigenvalue: a
second-order 5-point discretization of the flat Laplacian, a one-sided
second-order normal derivative, and a dense LAPACK eigensolve
(``numpy.linalg.eigvalsh``) of the resulting boundary operator.  The scheme
commutes with rotation in theta, so the harmonic extension separates into
theta-Fourier modes: in each mode it is a constant-coefficient recurrence in
t, solved in closed form, and each block of the operator is the circulant of
its per-mode symbol.  No linear system is solved and SciPy is not used.

The quotient surface is discretized on the fundamental domain [0, T] x S^1:
the stencil at the seam row t = 0 reaches across to the node shifted by half
a turn, which encodes the identification exactly at grid level.  The theta
node count must be even so the half-turn shift lands on grid nodes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .branches import _SCALE, SurfaceKind, spectrum
from .exceptions import DomainError, _check_integer, _check_positive

# Most boundary nodes n_b a grid may have, checked before any allocation: the
# dense operator holds n_b**2 doubles, and NumPy addresses at most
# sys.maxsize bytes.
_MAX_BOUNDARY = math.isqrt(sys.maxsize // 8)


@dataclass(frozen=True)
class OracleProblem:
    kind: SurfaceKind
    T: float
    grid: tuple[int, int]  # (n_t intervals, n_theta nodes)
    boundary_weight: float = 1.0  # conformal factor at the boundary

    def __post_init__(self):
        if not isinstance(self.kind, SurfaceKind):
            raise DomainError(f"kind must be a SurfaceKind, got {self.kind!r}")
        if len(self.grid) != 2:
            raise DomainError(f"grid must be two integers (n_t, n_theta), got {self.grid!r}")
        grid = n_t, n_theta = tuple(_check_integer(n, "grid size") for n in self.grid)
        _check_positive(self.T, "modulus")
        if n_t < 4 or n_theta < 4:
            raise DomainError(f"grid too coarse: {self.grid}")
        if n_theta % 2 != 0:
            raise DomainError("n_theta must be even (half-turn shift must be on-grid)")
        _check_positive(n_t, "grid size")  # h_t = T / n_t is a double
        _check_positive(self.boundary_weight, "boundary weight")
        object.__setattr__(self, "grid", grid)  # integral floats become ints
        if self.boundary_size > _MAX_BOUNDARY:
            raise DomainError(f"grid {n_t}x{n_theta} exceeds {_MAX_BOUNDARY} boundary nodes")

    @property
    def boundary_size(self) -> int:
        """Boundary node count: both circles of the annulus, one of the band."""
        n_theta = self.grid[1]
        return n_theta if self.kind is SurfaceKind.MOBIUS_BAND else 2 * n_theta


@dataclass(frozen=True)
class DtNMatrix:
    entries: np.ndarray  # symmetrized dense boundary operator
    asymmetry: float  # relative asymmetry of the raw assembly

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def assemble_dtn(p: OracleProblem) -> DtNMatrix:
    """Assemble the dense boundary operator from its exact per-mode symbols.

    Scaled by h_t^2, the scheme in mode q is the recurrence
    u[i+1] + d_q u[i] + u[i-1] = 0 with d_q = -(2 + 4 (h_t/h_theta)^2
    sin^2(q h_theta / 2)).  The roots of r^2 + d_q r + 1 = 0 are e^{+-kappa_q},
    kappa_q = 2 asinh((h_t/h_theta) sin(q h_theta / 2)), so the discrete
    harmonic extension is cosh or sinh of kappa_q times the steps from the
    centre row (t itself for the odd profile of mode 0).  The circle t = T is
    H steps away: n_t / 2 on the annulus, whose centre is its middle row, and
    n_t on the quotient, whose centre is the seam, where the half-turn keeps
    cosh in even modes and sinh in odd ones.  Each profile's eigenvalue is
    (3 u_n - 4 u_{n-1} + u_{n-2}) / (2 h_t w u_n), summed as
    3 (u_n - u_{n-1}) - (u_{n-1} - u_{n-2}) from closed-form differences so
    that no digits cancel.  The annulus takes both profiles, on the data
    (1, 1) and (-1, 1) over its two circles.  Each (boundary row, boundary
    data) block of the operator is the circulant of its symbol.
    """
    n_t, n_theta = p.grid
    mobius = p.kind is SurfaceKind.MOBIUS_BAND
    h_t = (p.T if mobius else 2.0 * p.T) / n_t
    q = np.arange(n_theta // 2 + 1)
    ratio = h_t * n_theta / (2.0 * math.pi)  # h_t / h_theta
    x = ratio * np.sin(math.pi * q / n_theta)  # sinh(kappa_q / 2)
    kappa = 2.0 * np.arcsinh(x)
    H = n_t if mobius else n_t / 2.0
    # 2 e^{-kappa H} cosh and sinh of kappa (H - k), k steps in from t = T:
    # the profile values at k = 0, and over 2 sinh(kappa / 2) the one-step
    # differences of the other profile at k = 1/2 and 3/2, with no overflow
    k = np.array([0.0, 0.5, 1.5])
    decay = np.exp(-np.outer(kappa, k))
    y = -2.0 * np.outer(kappa, H - k)
    c = decay * (1.0 + np.exp(y))
    s = -decay * np.expm1(y)
    scale = h_t * p.boundary_weight
    # at extreme moduli a denominator underflows to 0 (T below ~1e-160 on an
    # 8x8 grid) or h_t overflows; such symbols are refused, not solved
    with np.errstate(all="ignore"):
        e = x * (3.0 * s[:, 1] - s[:, 2]) / (scale * c[:, 0])
        o = np.full(q.size, 1.0) / (scale * H)  # the linear profile t of mode 0
        o[1:] = x[1:] * (3.0 * c[1:, 1] - c[1:, 2]) / (scale * s[1:, 0])

        # symbol[q, row circle, data circle], circles ordered t = -T, t = T
        if mobius:
            symbol = np.where(q % 2, o, e)[:, None, None]
        else:
            symbol = 0.5 * np.stack([e + o, e - o, e - o, e + o], axis=1).reshape(-1, 2, 2)
    if not np.isfinite(symbol).all():
        raise DomainError(f"boundary symbols not finite at T = {p.T} on grid {n_t}x{n_theta}")
    j = np.arange(n_theta)
    kernel = np.fft.irfft(symbol, n_theta, axis=0)[(j[:, None] - j) % n_theta]
    n_b = p.boundary_size
    A = kernel.transpose(2, 0, 3, 1).reshape(n_b, n_b)

    sym = 0.5 * (A + A.T)
    asym = float(np.max(np.abs(A - A.T)) / max(np.max(np.abs(A)), 1e-300))
    return DtNMatrix(entries=sym, asymmetry=asym)


def rayleigh_quotient(dtn: DtNMatrix, data: np.ndarray) -> float:
    """Rayleigh quotient of boundary data against the operator.

    The uniform boundary quadrature weights and the scale of the data cancel.
    """
    data = np.asarray(data, dtype=float)
    if data.shape != (dtn.size,) or not (np.all(np.isfinite(data)) and np.any(data)):
        raise DomainError(f"boundary data must be a finite, nonzero vector of {dtn.size} entries")
    data = data / np.max(np.abs(data))  # so that data @ data stays in the double range
    return float(data @ (dtn.entries @ data) / (data @ data))


def oracle_spectrum(p: OracleProblem, count: int) -> np.ndarray:
    """Smallest `count` eigenvalues of the discrete boundary operator."""
    count, size = _check_integer(count, "count"), p.boundary_size
    if not 1 <= count <= size:
        raise DomainError(f"count must be between 1 and {size} (the operator size), got {count}")
    return np.linalg.eigvalsh(assemble_dtn(p).entries)[:count]


def closed_form_sigma(kind: SurfaceKind, T: float, f: float, count: int) -> np.ndarray:
    """First `count` nonzero eigenvalues at a finite boundary factor f > 0, by the closed forms."""
    length = _SCALE[kind] * _check_positive(f, "boundary weight")
    values = []
    for entry in spectrum(kind, T, count):
        values.extend([entry.value / length] * entry.multiplicity)
    return np.array(values[:count])


# below this absolute error an eigenvalue is reproduced exactly (e.g. the
# linear annulus branch, which the scheme differentiates without truncation
# error) and a convergence order cannot be fitted
EXACT_FLOOR = 1e-10


@dataclass(frozen=True)
class ConvergenceReport:
    grids: tuple[tuple[int, int], ...]
    errors: np.ndarray  # (levels, eigenvalues) absolute error vs closed form
    orders: np.ndarray  # per-eigenvalue order; NaN where the error is exact
    observed_order: float  # median over eigenvalues with a fittable order


def convergence_study(
    p: OracleProblem, levels: list[tuple[int, int]], n_eigs: int = 5
) -> ConvergenceReport:
    """Richardson-style convergence order against the closed-form spectrum."""
    if len(levels) < 3:
        raise DomainError("need at least 3 grid levels")
    exact = closed_form_sigma(p.kind, p.T, p.boundary_weight, n_eigs)
    errors = []
    for grid in levels:
        eigs = oracle_spectrum(replace(p, grid=grid), n_eigs + 1)[1:]  # drop the constant mode
        errors.append(np.abs(eigs - exact))
    errors = np.array(errors)
    hs = np.array([2.0 * p.T / g[0] for g in levels])
    # least-squares slope of log(error) vs log(h) across all levels
    orders = np.full(n_eigs, math.nan)
    for i in range(n_eigs):
        if np.max(errors[:, i]) > EXACT_FLOOR:
            orders[i] = np.polyfit(np.log(hs), np.log(errors[:, i]), 1)[0]
    fitted = orders[np.isfinite(orders)]
    return ConvergenceReport(
        grids=tuple(tuple(g) for g in levels),
        errors=errors,
        orders=orders,
        observed_order=float(np.median(fitted)) if fitted.size else math.nan,
    )
