"""Independent reference routes the benchmark checks operation outputs against.

Every check runs outside the timed phase.  Each returns ``None`` when the
output is correct, or a short reason string when it is not.  A reason that
starts with ``known:`` names a documented defect (see ``KNOWN_DEFECTS``); it
still counts as a failed operation, but it does not make the run incorrect.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

import steklov

# ROADMAP open item 3, bug 1: ``branches._coincide`` compares with an
# absolute 1e-9 below magnitude 1 and a relative 1e-9 above it, so
# ``spectrum`` merges distinct branch values that are merely close (both tiny
# at T -> 0, or lambda_1 and mu_1 on the annulus for T >~ 11).
#
# convergence_study pairs the sorted discrete eigenvalues with the sorted
# closed forms.  Where two branches are closer than the coarsest grid's
# error, the coarse levels pair an eigenvalue with the wrong branch and the
# fitted order is meaningless (found with this benchmark; annulus T = 0.66
# on 20/30/40 grids fits order 3.5).
KNOWN_DEFECTS = {
    "coincide_merge": "spectrum merges distinct near-equal branch values (_coincide tolerance)",
    "crossing_misorder": "convergence_study pairs sorted eigenvalues across a near-crossing",
}

SIGMA_RTOL = 1e-12  # closed forms against sigma_bar_grid (ROADMAP figure)
CROSSING_RTOL = 1e-14  # crossings against 50-digit mpmath (tests/test_crossings.py)
RESIDUAL_SCALE = 1e-13  # |F(x)| <= 1e-13 (a + b)   (tests/test_crossings.py)
MERGE_RTOL = 1e-9  # the library's merge tolerance, used only to recognise bug 1


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# -- closed-form spectra ------------------------------------------------------


def grid_column(kind, j_max: int, T: float) -> list[float]:
    """sigma_bar_1..j_max at one modulus through the vectorised grid route."""
    return [float(v) for v in steklov.sigma_bar_grid(kind, j_max, np.array([T]))[:, 0]]


def compare_indexed(values: dict[int, float], grid: list[float]) -> str | None:
    """Check {index j: value} against grid[j-1]; recognise the merge defect."""
    for j, v in sorted(values.items()):
        g = grid[j - 1]
        if _close(v, g, SIGMA_RTOL):
            continue
        # bug 1 signature: the reported value is another index's exact value,
        # within a few merge tolerances of the correct one
        scale = max(abs(v), abs(g), 1.0)
        other = any(_close(v, h, SIGMA_RTOL) for i, h in enumerate(grid) if i != j - 1)
        if other and abs(v - g) <= 8 * MERGE_RTOL * scale:
            return f"known:coincide_merge sigma_bar_{j}={v!r} grid={g!r}"
        return f"sigma_bar_{j}={v!r} differs from grid {g!r}"
    return None


def reference_sigma(kind, j_max: int, T: float) -> list[float]:
    """sigma_bar_1..j_max from the branch formulas in plain ``math``.

    An independent route for checking ``sigma_bar_grid`` itself: scalar
    ``math.tanh`` instead of NumPy and ``1/tanh`` instead of the expm1 form.
    """
    mobius = kind.value == "mobius"
    values = [] if mobius else [4.0 * math.pi / T]
    for m in range(1, j_max + 3):
        if mobius:
            lam = 4.0 * math.pi * m * math.tanh(2 * m * T)
            mu = 2.0 * math.pi * (2 * m - 1) / math.tanh((2 * m - 1) * T)
        else:
            lam = 4.0 * math.pi * m * math.tanh(m * T)
            mu = 4.0 * math.pi * m / math.tanh(m * T)
        values += [lam, lam, mu, mu]
    return sorted(values)[:j_max]


def compare_reference(kind, T: float, column: list[float]) -> str | None:
    ref = reference_sigma(kind, len(column), T)
    for j, (v, r) in enumerate(zip(column, ref), start=1):
        if not _close(v, r, SIGMA_RTOL):
            return f"grid sigma_bar_{j}({T!r})={v!r} differs from reference {r!r}"
    return None


# -- crossings ------------------------------------------------------------------


def crossing_residual(a: float, b: float, x: float) -> str | None:
    gap = a * math.tanh(a * x) - b / math.tanh(b * x)
    if abs(gap) > RESIDUAL_SCALE * (a + b):
        return f"crossing ({a}, {b}) residual {gap:.3e}"
    return None


def crossing_mpmath(a: float, b: float, x: float, height: float | None = None) -> str | None:
    """Compare a crossing against a 50-digit root of a tanh(ax) = b coth(bx)."""
    with mpmath.workdps(50):
        A, B = mpmath.mpf(a), mpmath.mpf(b)
        root = mpmath.findroot(lambda s: A * mpmath.tanh(A * s) - B * mpmath.coth(B * s), mpmath.mpf(x))
        exact_x = float(root)
        exact_h = float(A * mpmath.tanh(A * root))
    if not _close(x, exact_x, CROSSING_RTOL):
        return f"crossing ({a}, {b}) x={x!r} vs mpmath {exact_x!r}"
    if height is not None and not _close(height, exact_h, CROSSING_RTOL):
        return f"crossing ({a}, {b}) height={height!r} vs mpmath {exact_h!r}"
    return None


# -- critical metrics and suprema ------------------------------------------------


def critical_records(kind, records) -> str | None:
    """Each record's value is sigma_bar_j at its modulus for every listed j."""
    if not records:
        return "no critical metrics returned"
    j_max = max(max(r[3]) for r in records)
    moduli = np.array([r[0] for r in records])
    grid = steklov.sigma_bar_grid(kind, j_max, moduli)
    for col, (modulus, value, _character, indices) in enumerate(records):
        for j in indices:
            if not _close(float(grid[j - 1, col]), value, SIGMA_RTOL):
                return f"critical value {value!r} at T={modulus!r} is not sigma_bar_{j}={grid[j - 1, col]!r}"
    return None


def supremum(kind, j: int, value: float, attained: bool, modulus) -> str | None:
    """A supremum either equals sigma_bar_j at its modulus, or is 4 pi (annulus j=2)."""
    if not attained:
        if kind.value == "annulus" and j == 2 and _close(value, 4.0 * math.pi, SIGMA_RTOL):
            return None
        return f"unattained supremum {value!r} for {kind.value} j={j}"
    at = grid_column(kind, j, modulus)[j - 1]
    if not _close(at, value, SIGMA_RTOL):
        return f"sup sigma_bar_{j}={value!r} but sigma_bar_{j}(T*)={at!r}"
    return None


# -- oracle ----------------------------------------------------------------------
#
# Two routes.  The first is exact: the five-point scheme on a grid periodic in
# theta is diagonalised by the Fourier modes cos(q theta), sin(q theta), so
# every eigenvalue of the discrete operator, and the Rayleigh quotient of each
# mode, is the normal derivative of a one-dimensional discrete solution that
# has a closed form.  The oracle must reproduce it to rounding.  The second is
# the continuum: the closed forms, within a small multiple of the scheme's
# second-order error.

DISCRETE_RTOL = 1e-9  # the oracle against the exact discrete symbol


def _steps(kind, T: float, grid: tuple[int, int]) -> tuple[float, float]:
    n_t, n_theta = grid
    return (2.0 * T if kind.value == "annulus" else T) / n_t, 2.0 * math.pi / n_theta


def discrete_symbol(kind, T: float, grid: tuple[int, int], q: int, odd_profile: bool) -> float:
    """Exact eigenvalue of the discrete operator on the mode cos(q theta).

    In t the scheme solves (u[i+1] - 2u[i] + u[i-1]) / h_t^2 = kappa^2 u[i],
    kappa^2 = 4 sin^2(q h_theta / 2) / h_theta^2, whose even and odd
    solutions are cosh and sinh of alpha * (steps from the centre), with
    cosh(alpha) = 1 + h_t^2 kappa^2 / 2.  The centre is t = 0: the middle of
    the annulus, the seam of the Mobius band (where the half-turn makes the
    profile odd for odd q).  The boundary derivative is the scheme's
    one-sided (3u[n] - 4u[n-1] + u[n-2]) / (2 h_t).
    """
    n_t, _ = grid
    h_t, h_theta = _steps(kind, T, grid)
    if kind.value == "mobius":
        odd_profile, half = q % 2 == 1, float(n_t)
    else:
        half = n_t / 2.0
    kappa2 = 4.0 * math.sin(q * h_theta / 2.0) ** 2 / (h_theta * h_theta)
    if kappa2 == 0.0:
        u = (lambda k: 1.0 - k / half) if odd_profile else (lambda k: 1.0)
    else:
        alpha = math.acosh(1.0 + h_t * h_t * kappa2 / 2.0)
        f = math.sinh if odd_profile else math.cosh
        u = lambda k: f(alpha * (half - k)) / f(alpha * half)  # noqa: E731
    return (3.0 * u(0) - 4.0 * u(1) + u(2)) / (2.0 * h_t)


def discrete_spectrum(kind, T: float, grid: tuple[int, int], count: int) -> list[tuple[float, int, bool]]:
    """The ``count`` smallest eigenvalues of the discrete operator, zero included,
    each as (value, Fourier mode q, odd t-profile)."""
    n_theta = grid[1]
    profiles = (False,) if kind.value == "mobius" else (False, True)
    values = []
    for q in range(n_theta // 2 + 1):
        copies = 1 if q in (0, n_theta // 2) else 2  # cos and sin
        for odd in profiles:
            values += [(discrete_symbol(kind, T, grid, q, odd), q, odd)] * copies
    return sorted(values)[:count]


def continuum_value(kind, T: float, q: int, odd_profile: bool) -> float:
    """Continuum DtN eigenvalue of the boundary data cos(q theta)."""
    if kind.value == "mobius":
        odd_profile = q % 2 == 1  # the half-turn fixes the t-parity
    if q == 0:
        return 1.0 / T if odd_profile else 0.0  # the linear and constant profiles
    return q / math.tanh(q * T) if odd_profile else q * math.tanh(q * T)


def oracle_tolerance(kind, T: float, grid: tuple[int, int], mode: int) -> float:
    """Relative bound 3 q^2 (h_t^2 + h_theta^2) / 12 on the continuum error.

    Three times the leading term of the second-order scheme.  Over the grids
    and moduli the benchmark draws, the measured error reaches 0.12 q^2
    (h_t^2 + h_theta^2) (Mobius band, q = 2), half of this bound.
    """
    h_t, h_theta = _steps(kind, T, grid)
    return 3.0 * max(mode, 1) ** 2 * (h_t * h_t + h_theta * h_theta) / 12.0


def _discrete_close(num: float, ref: float) -> bool:
    return abs(num - ref) <= DISCRETE_RTOL * max(abs(ref), 1.0)


def _continuum(kind, T: float, grid, q: int, odd_profile: bool, value: float, what: str) -> str | None:
    exact = continuum_value(kind, T, q, odd_profile)
    tol = oracle_tolerance(kind, T, grid, q)
    if abs(value - exact) > tol * exact:
        return f"{what}={value!r} vs closed form {exact!r} of mode {q} (rtol {tol:.2e})"
    return None


def oracle_eigenvalues(kind, T: float, grid, eigs: list[float]) -> str | None:
    """eigs match the exact discrete spectrum, and each nonzero one its own
    branch of closed_form_sigma.

    Each eigenvalue is compared with the continuum value of its own Fourier
    mode, not with the closed form of the same rank: where two branches are
    closer than the discretisation error their discrete values swap order.
    """
    if abs(eigs[0]) > 1e-10:  # tests/test_dtn.py
        return f"constant mode eigenvalue {eigs[0]!r}"
    closed = steklov.closed_form_sigma(kind, T, 1.0, 40)
    for i, (num, (ref, q, odd)) in enumerate(zip(eigs, discrete_spectrum(kind, T, grid, len(eigs)))):
        if i == 0:
            continue  # the constant mode, exactly zero
        if not _discrete_close(num, ref):
            return f"oracle eigenvalue {i}={num!r} vs exact discrete {ref!r}"
        exact = continuum_value(kind, T, q, odd)
        if not np.any(np.isclose(closed, exact, rtol=SIGMA_RTOL, atol=0.0)):
            return f"branch value {exact!r} of mode {q} is not in closed_form_sigma"
        reason = _continuum(kind, T, grid, q, odd, num, f"oracle sigma_{i}")
        if reason:
            return reason
    return None


def oracle_rayleigh(kind, T: float, grid, q: int, odd_profile: bool, value: float) -> str | None:
    """A Fourier mode's Rayleigh quotient: exact discrete symbol, then continuum."""
    ref = discrete_symbol(kind, T, grid, q, odd_profile)
    if not _discrete_close(value, ref):
        return f"Rayleigh quotient {value!r} vs exact discrete {ref!r}"
    return _continuum(kind, T, grid, q, odd_profile, value, "Rayleigh quotient")


def convergence(kind, T: float, levels, order: float, coarse, fine) -> str | None:
    """Finest-level errors within the scheme's bound and a second-order fit."""
    exact = steklov.closed_form_sigma(kind, T, 1.0, len(fine) + 2)
    modes = [e.branch.mode for e in steklov.spectrum(kind, T, len(fine)) for _ in range(e.multiplicity)]

    def misordered(i, err):
        # another branch closer to sigma_i than its error
        return any(0.0 < abs(e - exact[i]) < err for e in exact if abs(e - exact[i]) > 1e-9 * exact[i])

    for i, err in enumerate(fine):
        tol = oracle_tolerance(kind, T, levels[-1], modes[i])
        if err > tol * exact[i]:
            if misordered(i, err):
                return f"known:crossing_misorder finest-grid error {err:.3e} on sigma_{i + 1}, a branch is closer"
            return f"finest-grid error {err:.3e} on sigma_{i + 1} above rtol {tol:.2e}"
    if 1.5 <= order <= 2.5:  # the CLI's oracle suite rule
        return None
    gaps = [b - a for a, b in zip(exact, exact[1:]) if b - a > 1e-9 * b]
    if gaps and min(gaps) < max(coarse):
        return f"known:crossing_misorder order {order!r}, branch gap {min(gaps):.3e} < coarse error {max(coarse):.3e}"
    return f"observed order {order!r} outside [1.5, 2.5]"


# -- meshes and files --------------------------------------------------------------


def mesh_counts(is_quotient: bool, n_t: int, n_theta: int) -> tuple[int, int]:
    vertices = n_theta // 2 + n_t * n_theta if is_quotient else (n_t + 1) * n_theta
    return vertices, 2 * n_t * n_theta


def parse_counts(path: str, fmt: str) -> tuple[int, int]:
    """(vertices, faces) re-parsed from an exported OBJ, PLY or CSV file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if fmt == "obj":
        return data.count(b"\nv ") + data.startswith(b"v "), data.count(b"\nf ")
    if fmt == "ply":
        header, _, body = data.partition(b"end_header\n")
        fields = dict(
            (parts[1], int(parts[2]))
            for parts in (line.split() for line in header.splitlines())
            if len(parts) == 3 and parts[0] == b"element"
        )
        n_v, n_f = fields.get(b"vertex", -1), fields.get(b"face", -1)
        rows = body.splitlines()
        if len(rows) != n_v + n_f or not all(r.startswith(b"3 ") for r in rows[n_v:]):
            return -1, -1
        return n_v, n_f
    return data.count(b"\n") - 1, 0  # CSV: a header row, then one row per vertex
