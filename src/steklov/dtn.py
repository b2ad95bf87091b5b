"""Discrete Dirichlet-to-Neumann oracle on the flat cylinder and its quotient.

This is the independent numerical check on every closed-form eigenvalue: a
second-order 5-point discretization of the flat Laplacian, a one-sided
second-order normal derivative, and a dense LAPACK eigensolve
(``numpy.linalg.eigvalsh``) of the resulting boundary operator.  The scheme
commutes with rotation in theta, so the harmonic extension is solved one
theta-Fourier mode at a time: each mode is a tridiagonal system in t, all
modes go into one banded solve, and each block of the operator is the
circulant of its per-mode symbol.  ``scipy.linalg`` is imported on the first
assembly, so ``import steklov`` does not load it.

The quotient surface is discretized on the fundamental domain [0, T] x S^1:
the stencil at the seam row t = 0 reaches across to the node shifted by half
a turn, which encodes the identification exactly at grid level.  The theta
node count must be even so the half-turn shift lands on grid nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branches import SurfaceKind, spectrum
from .exceptions import DomainError


@dataclass(frozen=True)
class OracleProblem:
    kind: SurfaceKind
    T: float
    grid: tuple[int, int]  # (n_t intervals, n_theta nodes)
    boundary_weight: float = 1.0  # conformal factor at the boundary

    def __post_init__(self):
        if len(self.grid) != 2 or not all(
            isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in self.grid
        ):
            raise DomainError(f"grid must be two integers (n_t, n_theta), got {self.grid!r}")
        n_t, n_theta = self.grid
        if self.T <= 0.0 or not math.isfinite(self.T):
            raise DomainError(f"modulus must be positive and finite, got {self.T}")
        if n_t < 4 or n_theta < 4:
            raise DomainError(f"grid too coarse: {self.grid}")
        if n_theta % 2 != 0:
            raise DomainError("n_theta must be even (half-turn shift must be on-grid)")
        w = self.boundary_weight
        if not (w > 0.0 and math.isfinite(w)):
            raise DomainError(f"boundary weight must be positive and finite, got {w}")

    @property
    def boundary_size(self) -> int:
        """Boundary node count: both circles of the annulus, one of the band."""
        n_theta = self.grid[1]
        return n_theta if self.kind is SurfaceKind.MOBIUS_BAND else 2 * n_theta


@dataclass(frozen=True)
class DtNMatrix:
    entries: np.ndarray  # symmetrized dense boundary operator
    weights: np.ndarray  # boundary quadrature weights (uniform)
    asymmetry: float  # relative asymmetry of the raw assembly

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def assemble_dtn(p: OracleProblem) -> DtNMatrix:
    """Assemble the dense boundary operator one theta-Fourier mode at a time.

    Scaled by h_t^2, the scheme in mode q is the recurrence
    u[i+1] + d_q u[i] + u[i-1] = 0 with d_q = -(2 + 4 (h_t/h_theta)^2
    sin^2(q h_theta / 2)), a tridiagonal system in t with one right-hand side
    per boundary circle.  The annulus solves for rows 1..n_t-1.  The quotient
    also keeps the seam row i = 0: u(-h_t) = u(h_t) in even modes, so it reads
    d_q u[0] + 2 u[1] = 0, and a half-turn-invariant seam carries no odd mode,
    so u[0] = 0 there.  Every mode block goes into one banded solve.  Each
    (boundary row, boundary data) pair of the operator is the circulant of its
    one-sided derivative symbol (3 u_b - 4 u_1 + u_2) / (2 h_t w).
    """
    from scipy.linalg import solve_banded

    n_t, n_theta = p.grid
    mobius = p.kind is SurfaceKind.MOBIUS_BAND
    h_t = (p.T if mobius else 2.0 * p.T) / n_t
    q = np.arange(n_theta // 2 + 1)
    ratio = h_t * n_theta / (2.0 * math.pi)  # h_t / h_theta
    # per boundary circle: the unknown t-row next to it and the one after
    ends = [(-1, -2)] if mobius else [(0, 1), (-1, -2)]
    m = n_t if mobius else n_t - 1  # unknown t-rows per mode

    band = np.ones((3, q.size, m))  # super-, main and sub-diagonal per mode
    band[1] = -(2.0 + (2.0 * ratio * np.sin(math.pi * q / n_theta)) ** 2)[:, None]
    band[0, :, 0] = band[2, :, -1] = 0.0  # no coupling between mode blocks
    rhs = np.zeros((q.size, m, len(ends)))
    rhs[:, -1, -1] = -1.0  # boundary value 1 on the circle t = T
    if mobius:
        band[0, :, 1] = np.where(q % 2, 0.0, 2.0)  # seam row d_q u[0] + 2 u[1]
        band[1, 1::2, 0] = 1.0  # seam row u[0] = 0 in odd modes
    else:
        rhs[:, 0, 0] = -1.0  # boundary value 1 on the circle t = -T
    u = solve_banded((1, 1), band.reshape(3, -1), rhs.reshape(q.size * m, -1))
    u = u.reshape(q.size, m, len(ends))

    # symbol[q, row circle, data circle]
    symbol = np.stack([u[:, b] - 4.0 * u[:, a] for a, b in ends], axis=1)
    symbol += 3.0 * np.eye(len(ends))
    symbol /= 2.0 * h_t * p.boundary_weight
    j = np.arange(n_theta)
    kernel = np.fft.irfft(symbol, n_theta, axis=0)[(j[:, None] - j) % n_theta]
    n_b = p.boundary_size
    A = kernel.transpose(2, 0, 3, 1).reshape(n_b, n_b)

    sym = 0.5 * (A + A.T)
    asym = float(np.max(np.abs(A - A.T)) / max(np.max(np.abs(A)), 1e-300))
    weights = np.full(n_b, 2.0 * math.pi / n_theta * p.boundary_weight)
    return DtNMatrix(entries=sym, weights=weights, asymmetry=asym)


def rayleigh_quotient(dtn: DtNMatrix, data: np.ndarray) -> float:
    """Weighted Rayleigh quotient of boundary data against the operator."""
    data = np.asarray(data, dtype=float)
    num = float(data @ (dtn.weights * (dtn.entries @ data)))
    den = float(data @ (dtn.weights * data))
    return num / den


def oracle_spectrum(p: OracleProblem, count: int) -> np.ndarray:
    """Smallest `count` eigenvalues of the discrete boundary operator."""
    if not 1 <= count <= p.boundary_size:
        raise DomainError(
            f"count must be between 1 and {p.boundary_size} (the operator size), got {count}"
        )
    return np.linalg.eigvalsh(assemble_dtn(p).entries)[:count]


def closed_form_sigma(kind: SurfaceKind, T: float, f: float, count: int) -> np.ndarray:
    """First `count` nonzero unnormalized eigenvalues from the branch formulas."""
    length = (2.0 if kind is SurfaceKind.MOBIUS_BAND else 4.0) * math.pi * f
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
        prob = OracleProblem(
            kind=p.kind, T=p.T, grid=grid, boundary_weight=p.boundary_weight
        )
        eigs = oracle_spectrum(prob, n_eigs + 1)[1:]  # drop the constant mode
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
