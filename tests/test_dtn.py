"""Discrete Dirichlet-to-Neumann oracle against the closed-form branches."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import steklov
from steklov.branches import SurfaceKind
from steklov.dtn import (
    OracleProblem,
    assemble_dtn,
    closed_form_sigma,
    convergence_study,
    oracle_spectrum,
    rayleigh_quotient,
)
from steklov.exceptions import DomainError

MB = SurfaceKind.MOBIUS_BAND
AN = SurfaceKind.ANNULUS


def test_problem_validation():
    with pytest.raises(DomainError):
        OracleProblem(kind=AN, T=-1.0, grid=(40, 40))
    with pytest.raises(DomainError):
        OracleProblem(kind=AN, T=1.0, grid=(2, 40))
    with pytest.raises(DomainError):
        OracleProblem(kind=MB, T=1.0, grid=(40, 41))  # odd theta count
    with pytest.raises(DomainError):
        OracleProblem(kind=AN, T=1.0, grid=(40, 40), boundary_weight=0.0)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_problem_rejects_non_finite_weight(weight):
    # nan used to stall eigvalsh, inf to give an all-zero spectrum
    with pytest.raises(DomainError):
        OracleProblem(kind=AN, T=1.0, grid=(8, 8), boundary_weight=weight)


@pytest.mark.parametrize("kind", [AN, MB])
@pytest.mark.parametrize("weight", [0.0, -1.0, math.nan, math.inf])
def test_closed_form_sigma_rejects_a_bad_weight(kind, weight):
    # by the weight rule of OracleProblem; these raised ZeroDivisionError or
    # returned negative, NaN or zero eigenvalues
    with pytest.raises(DomainError, match="boundary weight must be positive and finite"):
        closed_form_sigma(kind, 1.0, weight, 4)


@pytest.mark.parametrize("grid", [(8.5, 8), (True, 8), (8,), (8, 8, 8)], ids=repr)
@pytest.mark.parametrize("kind", [AN, MB])
def test_problem_rejects_non_integer_grid(kind, grid):
    # True reads as 1, a grid too coarse to assemble
    with pytest.raises(DomainError):
        OracleProblem(kind=kind, T=1.0, grid=grid)


@pytest.mark.parametrize("grid, integers", [((8, 4.0), (8, 4)), ((8.0, 8), (8, 8))], ids=repr)
@pytest.mark.parametrize("kind", [AN, MB])
def test_integral_float_grid_assembles_as_the_integer_grid(kind, grid, integers):
    # the integer rule of build_mesh: an integral float is its integer
    problem = OracleProblem(kind=kind, T=1.0, grid=grid)
    assert problem.grid == integers and all(type(n) is int for n in problem.grid)
    reference = assemble_dtn(OracleProblem(kind=kind, T=1.0, grid=integers))
    assert assemble_dtn(problem).entries.tobytes() == reference.entries.tobytes()


def test_problem_accepts_numpy_integer_grid():
    problem = OracleProblem(kind=MB, T=1.0, grid=(np.int64(8), np.int64(8)))
    assert assemble_dtn(problem).size == 8


@pytest.mark.parametrize("kind,T", [(AN, 1.0), (MB, 0.7)])
def test_assembly_symmetric(kind, T):
    dtn = assemble_dtn(OracleProblem(kind=kind, T=T, grid=(40, 40)))
    assert dtn.asymmetry <= 1e-12
    assert np.array_equal(dtn.entries, dtn.entries.T)
    assert dtn.size == (80 if kind is AN else 40)
    assert dtn.size == OracleProblem(kind=kind, T=T, grid=(40, 40)).boundary_size


def test_constants_in_kernel():
    dtn = assemble_dtn(OracleProblem(kind=AN, T=1.0, grid=(40, 40)))
    ones = np.ones(dtn.size)
    # the harmonic extension of 1 is 1, so the normal derivative vanishes
    assert np.max(np.abs(dtn.entries @ ones)) <= 1e-10


def test_rayleigh_quotients_hit_branches():
    dtn = assemble_dtn(OracleProblem(kind=AN, T=1.0, grid=(80, 80)))
    th = np.linspace(0.0, 2.0 * math.pi, 80, endpoint=False)
    even = np.concatenate([np.cos(th), np.cos(th)])  # cosh profile
    odd = np.concatenate([-np.cos(th), np.cos(th)])  # sinh profile
    assert rayleigh_quotient(dtn, even) == pytest.approx(math.tanh(1.0), rel=1e-3)
    assert rayleigh_quotient(dtn, odd) == pytest.approx(1.0 / math.tanh(1.0), rel=1e-3)


def test_annulus_spectrum_matches_branches():
    eigs = oracle_spectrum(OracleProblem(kind=AN, T=1.0, grid=(80, 80)), 11)
    exact = closed_form_sigma(AN, 1.0, 1.0, 10)
    assert abs(eigs[0]) <= 1e-10  # constant mode
    assert np.max(np.abs(eigs[1:] - exact)) <= 2e-2
    # the linear branch (1/T) is reproduced exactly by the scheme
    assert eigs[3] == pytest.approx(1.0, abs=1e-10)


def test_mobius_spectrum_and_crossing_cluster():
    T = math.atanh(1.0 / math.sqrt(3.0))
    eigs = oracle_spectrum(OracleProblem(kind=MB, T=T, grid=(80, 80)), 5)
    # at the first crossing the two branch pairs merge into a 4-fold cluster
    # at sqrt(3), resolved only to discretization error
    assert abs(eigs[0]) <= 1e-10
    assert np.max(np.abs(eigs[1:5] - math.sqrt(3.0))) <= 5e-3
    assert np.max(eigs[1:5]) - np.min(eigs[1:5]) <= 5e-3


def test_mobius_parity_filter():
    # the quotient only admits even cosh-modes and odd sinh-modes: compare
    # against the Mobius closed forms, not the full cylinder spectrum
    T = 0.7
    eigs = oracle_spectrum(OracleProblem(kind=MB, T=T, grid=(80, 80)), 7)
    exact = closed_form_sigma(MB, T, 1.0, 6)
    assert np.max(np.abs(eigs[1:] - exact)) <= 2e-2
    # mode 1 cosh-branch value tanh(T) must NOT appear (wrong parity)
    assert np.min(np.abs(eigs - math.tanh(T))) > 0.1


def _scheme_spectrum(kind, T, grid, lib=math):
    """Every eigenvalue of the discrete operator, one theta-mode at a time.

    In theta-mode q the 5-point scheme reduces to the recurrence
    u[i+1] - 2 u[i] + u[i-1] = h_t^2 s_q u[i] with the discrete symbol
    s_q = 4/h_theta^2 sin^2(q h_theta / 2).  Its solutions are cosh(kappa t)
    and sinh(kappa t) (1 and t when q = 0) with sinh(kappa h_t / 2) =
    h_t sqrt(s_q) / 2, and the eigenvalue is the one-sided second-order
    derivative of that profile at the boundary over its boundary value.
    The annulus takes both profiles; the quotient keeps cosh for even q
    and sinh for odd q.  Modes 0 and n_theta/2 are simple, the rest double.
    ``lib`` is ``math``, or ``mpmath`` with T an ``mpf`` for the exact values.
    """
    n_t, n_theta = grid
    h = (T if kind is MB else 2.0 * T) / n_t
    h_theta = 2.0 * lib.pi / n_theta
    values = []
    for q in range(n_theta // 2 + 1):
        kappa = 2.0 / h * lib.asinh(h / h_theta * lib.sin(q * h_theta / 2.0))
        even = lambda t: lib.cosh(kappa * t)  # noqa: E731
        odd = (lambda t: lib.sinh(kappa * t)) if q else (lambda t: t)  # noqa: E731
        if kind is AN:
            profiles = (even, odd)
        else:
            profiles = (odd,) if q % 2 else (even,)
        for phi in profiles:
            sigma = (3.0 * phi(T) - 4.0 * phi(T - h) + phi(T - 2.0 * h)) / (2.0 * h * phi(T))
            values += [sigma] * (1 if q in (0, n_theta // 2) else 2)
    return np.sort(values)


@pytest.mark.parametrize("grid", [(4, 4), (7, 10), (40, 40)])
@pytest.mark.parametrize("kind,T", [(AN, 1.3), (MB, 0.7)])
def test_spectrum_matches_exact_scheme(kind, T, grid):
    # pins every stencil row (seam, first and last interior rows) to the
    # scheme itself, far below the discretization error
    problem = OracleProblem(kind=kind, T=T, grid=grid)
    exact = _scheme_spectrum(kind, T, grid)
    assert exact.size == problem.boundary_size
    count = min(7, problem.boundary_size)
    eigs = oracle_spectrum(problem, count)
    assert abs(eigs[0]) <= 1e-10  # constant mode
    np.testing.assert_allclose(eigs[1:], exact[1:count], rtol=1e-9)


@pytest.mark.parametrize("kind", [AN, MB])
@pytest.mark.parametrize("T,grid", [(0.7, (80, 80)), (1e-3, (300, 600))])
def test_spectrum_matches_exact_scheme_to_rounding(kind, T, grid):
    # the whole spectrum against the scheme's exact one at 60 digits: only
    # the eigensolve's rounding, relative to the largest eigenvalue, remains
    problem = OracleProblem(kind=kind, T=T, grid=grid)
    with mpmath.workdps(60):
        exact = _scheme_spectrum(kind, mpmath.mpf(T), grid, mpmath).astype(float)
    eigs = oracle_spectrum(problem, problem.boundary_size)
    assert np.max(np.abs(eigs - exact)) <= 1e-14 * np.max(exact)


def _reference_dtn(p):
    """The raw boundary operator from the 2-D sparse harmonic extension.

    An independent route to ``assemble_dtn``: the 5-point Laplacian on every
    unknown node of the grid, one sparse solve per boundary node.  Interior
    row i (1 <= i <= n_t - 1) holds nodes ``offset + (i - 1) * n_theta + j``.
    The annulus has both circles as boundary; the quotient has one, at
    i = n_t, and puts its n_theta / 2 seam nodes (t = 0) first, whose
    t = -h_t neighbour is the half-turn shifted node at t = +h_t.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    n_t, n_theta = p.grid
    mobius = p.kind is MB
    h_t = (p.T if mobius else 2.0 * p.T) / n_t
    inv_t2 = 1.0 / h_t**2
    inv_th2 = (n_theta / (2.0 * math.pi)) ** 2
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
        s = np.arange(n_half)
        rows += [node[0], s, s, s, s, s]
        cols += [j % n_half, s, (s + 1) % n_half, (s - 1) % n_half]
        cols += [node[0, s], node[0, s + n_half]]  # t = -h_t is t = +h_t half a turn on
        vals += [inv_t2, centre, inv_th2, inv_th2, inv_t2, inv_t2]
    else:
        C[node[0], j] = inv_t2
    L = sp.coo_matrix(
        (
            np.concatenate([np.full(r.size, v) for r, v in zip(rows, vals)]),
            (np.concatenate([r.ravel() for r in rows]), np.concatenate([c.ravel() for c in cols])),
        ),
        shape=(C.shape[0],) * 2,
    ).tocsc()
    U = -splu(L).solve(C)[offset:].reshape(n_t - 1, n_theta, n_b)

    eye = np.eye(n_b)
    scale = 2.0 * h_t * p.boundary_weight
    A = (3.0 * eye[-n_theta:] - 4.0 * U[-1] + U[-2]) / scale
    if not mobius:
        A = np.vstack([(3.0 * eye[:n_theta] - 4.0 * U[0] + U[1]) / scale, A])
    return A


@pytest.mark.parametrize("weight", [1.0, 2.0])
@pytest.mark.parametrize("T", [0.3, 1.3, 2.9])
@pytest.mark.parametrize("grid", [(4, 4), (7, 10), (40, 40), (80, 48)])
@pytest.mark.parametrize("kind", [AN, MB])
def test_assembly_matches_2d_reference(kind, grid, T, weight):
    problem = OracleProblem(kind=kind, T=T, grid=grid, boundary_weight=weight)
    dtn = assemble_dtn(problem)
    ref = _reference_dtn(problem)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(dtn.entries - ref)) <= 1e-10 * scale
    assert dtn.asymmetry <= 1e-12
    eigs, ref_eigs = np.linalg.eigvalsh(dtn.entries), np.linalg.eigvalsh(0.5 * (ref + ref.T))
    np.testing.assert_allclose(eigs, ref_eigs, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref_eigs)))


@pytest.mark.parametrize("count", [0, -3, 17])
def test_oracle_spectrum_rejects_bad_count(count):
    with pytest.raises(DomainError):
        oracle_spectrum(OracleProblem(kind=AN, T=1.0, grid=(8, 8)), count)


@pytest.mark.parametrize("T", [1e-300, 1e-200, 5e-324])
@pytest.mark.parametrize("kind", [AN, MB])
def test_tiny_modulus_is_refused_not_solved(kind, T):
    # a denominator underflows to 0 and a symbol is inf or NaN; eigvalsh
    # would then fail to converge.  No RuntimeWarning comes first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not finite"):
            oracle_spectrum(OracleProblem(kind=kind, T=T, grid=(8, 8)), 2)


def test_import_and_oracle_leave_scipy_unloaded():
    # neither the import nor the oracle spectrum of either surface loads
    # scipy.sparse or scipy.linalg
    src = str(Path(steklov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, steklov, steklov.cli\n"
        "print('scipy.sparse' in sys.modules, 'scipy.linalg' in sys.modules)\n"
        "for kind in steklov.SurfaceKind:\n"
        "    steklov.oracle_spectrum(steklov.OracleProblem(kind=kind, T=1.0, grid=(8, 8)), 3)\n"
        "print('scipy.sparse' in sys.modules, 'scipy.linalg' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False"] * 4


def test_surfaces_and_verify_run_on_numpy_alone(tmp_path):
    # injectivity reports (one injective, one a covering), mesh exports in
    # every format and the whole verify suite run with scipy blocked, and
    # load no scipy module when it is not blocked
    src = str(Path(steklov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import contextlib, io, sys\n"
        "if sys.argv[1] == 'block':\n"
        "    sys.modules['scipy'] = None\n"
        "import steklov, steklov.cli\n"
        "for m, n in ((3, 2), (6, 3)):\n"
        "    steklov.injectivity_scan(steklov.annulus_b4(m, n))\n"
        "for fmt in steklov.MeshFormat:\n"
        "    path = f'{sys.argv[2]}/mesh.{fmt.value}'\n"
        "    steklov.export_mesh(steklov.annulus_b4(3, 2), 8, 16, fmt, path)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = steklov.cli.run(['verify', '--suite', 'all', '--max-mode', '2'])\n"
        "print(code, [k for k in sys.modules if k.split('.')[0] == 'scipy'])\n"
    )
    for mode, loaded in (("block", "['scipy']"), ("free", "[]")):
        out = subprocess.run(
            [sys.executable, "-c", code, mode, str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        # the blocked run holds only the None placeholder under "scipy"
        assert out.stdout.split() == ["0", loaded]


def test_boundary_weight_scales_eigenvalues():
    T = 0.8
    base = oracle_spectrum(OracleProblem(kind=AN, T=T, grid=(40, 40)), 5)
    scaled = oracle_spectrum(
        OracleProblem(kind=AN, T=T, grid=(40, 40), boundary_weight=2.0), 5
    )
    assert np.allclose(scaled, base / 2.0, atol=1e-12)


def test_convergence_second_order():
    report = convergence_study(
        OracleProblem(kind=MB, T=0.7, grid=(40, 40)),
        [(20, 20), (40, 40), (80, 80)],
        n_eigs=4,
    )
    fitted = report.orders[np.isfinite(report.orders)]
    assert fitted.size == 4
    assert np.all((fitted >= 1.7) & (fitted <= 2.3))
    # errors shrink monotonically with refinement
    assert np.all(report.errors[2] < report.errors[0])


def test_convergence_needs_three_levels():
    with pytest.raises(DomainError):
        convergence_study(
            OracleProblem(kind=AN, T=1.0, grid=(40, 40)), [(20, 20), (40, 40)]
        )


def test_closed_form_sigma_multiplicities():
    values = closed_form_sigma(AN, 1.0, 1.0, 5)
    # tanh pair, linear singleton, coth pair
    assert values[0] == values[1] == pytest.approx(math.tanh(1.0), rel=1e-14)
    assert values[2] == pytest.approx(1.0, rel=1e-14)
    assert values[3] == values[4] == pytest.approx(1.0 / math.tanh(1.0), rel=1e-14)


@pytest.mark.parametrize(
    "data",
    [np.zeros(16), np.full(16, math.nan), np.ones(5), np.ones((4, 4))],
    ids=["zeros", "nan", "five-entries", "matrix"],
)
def test_rayleigh_quotient_refuses_bad_data(data):
    # zeros divided 0 by 0, NaN came back as NaN, a wrong length reached matmul
    dtn = assemble_dtn(OracleProblem(kind=AN, T=1.0, grid=(8, 8)))
    with pytest.raises(DomainError, match="finite, nonzero vector of 16 entries"):
        rayleigh_quotient(dtn, data)


@pytest.mark.parametrize(
    "data, unit",
    [
        (np.full(16, 1e200), np.ones(16)),
        (np.full(16, 1e-200), np.ones(16)),
        (np.concatenate([[1e200], np.ones(15)]), np.concatenate([[1.0], np.full(15, 1e-200)])),
    ],
    ids=["huge", "tiny", "mixed"],
)
def test_rayleigh_quotient_holds_across_the_double_range(data, unit):
    # data @ data overflowed to inf on the huge data and underflowed to a
    # NaN quotient on the tiny; the quotient is that of the unit-scaled data
    dtn = assemble_dtn(OracleProblem(kind=AN, T=1.0, grid=(8, 8)))
    want = float(unit @ (dtn.entries @ unit) / (unit @ unit))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rayleigh_quotient(dtn, data)
    assert abs(got - want) <= 1e-15 * abs(want)
