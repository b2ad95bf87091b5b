"""Discrete Dirichlet-to-Neumann oracle on the flat cylinder and its quotient.

This is the independent numerical check on every closed-form eigenvalue: a
second-order 5-point discretization of the flat Laplacian, one harmonic
extension solve per boundary node (direct sparse factorization, reused
across columns), a one-sided second-order normal derivative, and a dense
LAPACK eigensolve (``numpy.linalg.eigvalsh``) of the resulting boundary
operator.  SciPy's sparse modules are imported on the first assembly, so
``import steklov`` does not load them.

The quotient surface is discretized on the fundamental domain [0, T] x S^1:
the stencil at the seam row t = 0 reaches across to the node shifted by half
a turn, which encodes the identification exactly at grid level.  The theta
node count must be even so the half-turn shift lands on grid nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        n_t, n_theta = self.grid
        if self.T <= 0.0 or not math.isfinite(self.T):
            raise DomainError(f"modulus must be positive and finite, got {self.T}")
        if n_t < 4 or n_theta < 4:
            raise DomainError(f"grid too coarse: {self.grid}")
        if n_theta % 2 != 0:
            raise DomainError("n_theta must be even (half-turn shift must be on-grid)")
        if self.boundary_weight <= 0.0:
            raise DomainError("boundary weight must be positive")

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
    size: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(self, "size", self.entries.shape[0])


def _stencil(p: OracleProblem):
    """The 5-point Laplacian on the unknown nodes and its boundary coupling.

    Returns COO triplets of the Laplacian, the dense coupling ``C`` of the
    boundary nodes into the rows next to them, the index of the first interior
    node and h_t.  Interior row i (1 <= i <= n_t - 1)
    holds nodes ``offset + (i - 1) * n_theta + j``.  The annulus has both
    circles as boundary; the quotient has one, at i = n_t, and puts its
    n_theta / 2 seam nodes (t = 0) first.
    """
    n_t, n_theta = p.grid
    mobius = p.kind is SurfaceKind.MOBIUS_BAND
    h_t = (p.T if mobius else 2.0 * p.T) / n_t
    h_theta = 2.0 * math.pi / n_theta
    inv_t2 = 1.0 / (h_t * h_t)
    inv_th2 = 1.0 / (h_theta * h_theta)
    n_half = n_theta // 2
    offset = n_half if mobius else 0
    n_b = p.boundary_size
    centre = -2.0 * inv_t2 - 2.0 * inv_th2
    node = offset + np.arange((n_t - 1) * n_theta).reshape(n_t - 1, n_theta)
    j = np.arange(n_theta)

    rows = [node, node, node, node[1:], node[:-1]]
    cols = [node, np.roll(node, -1, axis=1), np.roll(node, 1, axis=1), node[:-1], node[1:]]
    vals = [centre, inv_th2, inv_th2, inv_t2, inv_t2]
    C = np.zeros((offset + node.size, n_b))
    C[node[-1], n_b - n_theta + j] = inv_t2
    if mobius:
        # seam row: the t = -h_t neighbour is the half-turn shifted node at t = +h_t
        s = np.arange(n_half)
        rows += [node[0], s, s, s, s, s]
        cols += [j % n_half, s, (s + 1) % n_half, (s - 1) % n_half]
        cols += [node[0, s], node[0, s + n_half]]
        vals += [inv_t2, centre, inv_th2, inv_th2, inv_t2, inv_t2]
    else:
        C[node[0], j] = inv_t2
    triplets = (
        np.concatenate([np.full(r.size, v) for r, v in zip(rows, vals)]),
        np.concatenate([r.ravel() for r in rows]),
        np.concatenate([c.ravel() for c in cols]),
    )
    return triplets, C, offset, h_t


def assemble_dtn(p: OracleProblem) -> DtNMatrix:
    """Assemble the dense boundary operator by harmonic extension columns."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    (vals, rows, cols), C, offset, h_t = _stencil(p)
    n_t, n_theta = p.grid
    n_b = p.boundary_size
    L = sp.coo_matrix((vals, (rows, cols)), shape=(C.shape[0],) * 2).tocsc()
    # interior values of each boundary basis extension, one t-row per slab
    U = -splu(L).solve(C)[offset:].reshape(n_t - 1, n_theta, n_b)

    eye = np.eye(n_b)
    scale = 2.0 * h_t * p.boundary_weight
    A = (3.0 * eye[-n_theta:] - 4.0 * U[-1] + U[-2]) / scale
    if p.kind is SurfaceKind.ANNULUS:
        bottom = (3.0 * eye[:n_theta] - 4.0 * U[0] + U[1]) / scale
        A = np.vstack([bottom, A])

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
