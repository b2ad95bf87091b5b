"""Explicit free boundary minimal immersions and their pointwise checks.

Three closed-form families, each parametrized on [-T*, T*] x S^1 and scaled
so the boundary lands on the unit sphere:

  * catenoid-type annuli in B^3:
        (cosh(nt)cos(n th), cosh(nt)sin(n th), n t) / r
    with n*T* equal to the root of tanh(s) = 1/s;
  * annuli in B^4 for integer m > n >= 1:
        (m sinh(nt)cos(n th), m sinh(nt)sin(n th),
         n cosh(mt)cos(m th), n cosh(mt)sin(m th)) / r
    with T* the root of m*tanh(mt) = n*coth(nt);
  * Mobius bands in B^4: the same four-component map with m even and n odd,
    which descends through the identification (t, th) ~ (-t, th + pi).

Each family is read off the lattice crossing that carries it
(``branches._crossing``): T* is the crossing's modulus, and r and the
ambient dimension come from ``_planes`` at t = T*.

Beside the catenoid's linear axis, every coordinate pair is a plane
c*h(k t) (cos j th, sin j th) / r, h = sinh or cosh; ``_planes`` is the one
table of them.  The plane's flat Laplacian is (k^2 - j^2) times the plane,
so harmonicity is exact from the table, as are conformality, the vanishing
total stress-energy and the double points (``injectivity_scan``); the plane
values at t = T* give the unit boundary norm, boundary orthogonality and the
boundary factor (``verify_identities``).  The vanishing summed
eigenvalue-perturbation form is integrated numerically (``q_form_sum``).

``_factors`` expands the planes per output into a t-factor and a theta-factor
per column.  Positions and derivatives are their products; the quadratic
form contracts the t-factors with the theta-factors by matrix products and
never builds an (n_t, n_theta, dim) grid, and it samples the variation in
blocks of t-rows, never on the whole (n_t, n_theta) grid at once.  It and
``make_admissible`` read the S^1-invariant metric lambda^2(t) (dt^2 + dth^2)
from ``_planes`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .branches import _EVEN, _MOBIUS, _ODD, LatticeCrossing, _crossing, _modes
from .exceptions import ConstraintError, DomainError, ParameterError, _check_integer
from .kinds import FamilyKind, SurfaceKind


@dataclass(frozen=True)
class ImmersionFamily:
    family: FamilyKind
    m: int  # cosh-profile frequency (unused for the catenoid)
    n: int  # sinh-profile frequency; winding number for the catenoid
    T_star: float
    radius: float
    ambient_dim: int

    @property
    def is_quotient(self) -> bool:
        return self.family is FamilyKind.MOBIUS_B4


def catenoid_b3(n: int) -> ImmersionFamily:
    n = _check_integer(n, "winding number", ParameterError)
    if n < 1:
        raise ParameterError(f"winding number must be >= 1, got {n}")
    # the linear/even crossing t10/n
    return _family(FamilyKind.CATENOID_B3, 0, n, _crossing(SurfaceKind.ANNULUS, n, 0))


def annulus_b4(m: int, n: int) -> ImmersionFamily:
    m, n = _check_integer(m, "m", ParameterError), _check_integer(n, "n", ParameterError)
    if not m > n >= 1:
        raise ParameterError(f"need m > n >= 1, got m={m}, n={n}")
    return _family(FamilyKind.ANNULUS_B4, m, n, _crossing(SurfaceKind.ANNULUS, m, n))


def mobius_b4(m: int, n: int) -> ImmersionFamily:
    m, n = _check_integer(m, "m", ParameterError), _check_integer(n, "n", ParameterError)
    # the band must carry the even branch of mode m and the odd one of mode n
    carried = m in _modes(_MOBIUS, _EVEN, m) and n in _modes(_MOBIUS, _ODD, n)
    if min(m, n) >= 1 and not carried:
        raise ParameterError(f"need m even and n odd, got m={m}, n={n}")
    if not m > n >= 1:
        raise ParameterError(f"need m > n >= 1, got m={m}, n={n}")
    # even branch k has mode 2k, odd branch l mode 2l - 1
    return _family(FamilyKind.MOBIUS_B4, m, n, _crossing(_MOBIUS, m // 2, (n + 1) // 2))


def _family(family: FamilyKind, m: int, n: int, crossing: LatticeCrossing) -> ImmersionFamily:
    """The family carried by ``crossing``: T* is its modulus, and r and the
    dimension are read from ``_planes`` at t = T*, with the catenoid's axial
    coordinate n T*, so that |u| = 1 on the boundary."""
    T = crossing.modulus
    fam = ImmersionFamily(family, m, n, T, radius=1.0, ambient_dim=0)  # _planes reads family, m, n
    planes = _planes(fam)
    r2 = sum(c * c * h(k * T) ** 2 for c, h, _, k, _ in planes)
    dim = 2 * len(planes)
    if family is FamilyKind.CATENOID_B3:
        r2, dim = r2 + (n * T) ** 2, dim + 1
    return replace(fam, radius=math.sqrt(r2), ambient_dim=dim)


def make_family(family: FamilyKind, m: int | None = None, n: int | None = None) -> ImmersionFamily:
    if family is FamilyKind.CATENOID_B3:
        if n is None:
            raise ParameterError("catenoid family requires n")
        if m is not None:
            raise ParameterError("catenoid family takes n alone, not m")
        return catenoid_b3(n)
    if family not in (FamilyKind.ANNULUS_B4, FamilyKind.MOBIUS_B4):
        raise ParameterError(f"family must be a FamilyKind, got {family!r}")
    if m is None or n is None:
        raise ParameterError("four-dimensional families require m and n")
    return (annulus_b4 if family is FamilyKind.ANNULUS_B4 else mobius_b4)(m, n)


_U, _U_T, _U_THETA = range(3)  # the outputs of evaluate, in order


def evaluate(fam: ImmersionFamily, t, theta):
    """Position and first derivatives of the immersion, broadcast over grids.

    Returns (u, du_dt, du_dtheta), each with a trailing axis of length
    ambient_dim; raises DomainError unless |t| <= T* and theta is finite.
    Every coordinate is a t-profile times a theta-mode: ``_factors`` computes
    the profiles on ``t`` and the modes on ``theta`` as given, and only their
    products broadcast, so a tensor grid ``t[:, None]``, ``theta[None, :]``
    costs O(n_t + n_theta) transcendental calls.  The routines below compute
    only the outputs they read, unchecked, through ``_outputs`` (or ``_position``
    for u alone), or contract the factor table itself.
    """
    try:
        t, theta = np.asarray(t, dtype=float), np.asarray(theta, dtype=float)
    except OverflowError:  # an integer past the double range, refused below
        t = theta = np.array(math.inf)
    # NaN fails the comparison, so it is refused too
    if not (np.all(np.abs(t) <= fam.T_star * (1.0 + 1e-12)) and np.all(np.isfinite(theta))):
        raise DomainError(f"need |t| <= T* = {fam.T_star} and finite theta")
    return tuple(_outputs(fam, t, theta, (_U, _U_T, _U_THETA)))


def _position(fam: ImmersionFamily, t, theta) -> np.ndarray:
    """u of ``evaluate`` alone, without the domain check."""
    return _outputs(fam, t, theta, (_U,))[0]


def _planes(fam: ImmersionFamily) -> list[tuple[int, Callable, Callable, int, int]]:
    """(c, h, h', k, j) of each plane c*h(k t) (cos j th, sin j th) / r, in
    column order.  The last is the cosh plane.  This is the one place the
    formulas live."""
    m, n = fam.m, fam.n
    if fam.family is FamilyKind.CATENOID_B3:
        return [(1, np.cosh, np.sinh, n, n)]
    return [(m, np.sinh, np.cosh, n, n), (n, np.cosh, np.sinh, m, m)]


def _factors(fam: ImmersionFamily, t, theta, outputs) -> list[tuple[np.ndarray, np.ndarray]]:
    """The factor table of the selected outputs (``_U``, ``_U_T``, ``_U_THETA``).

    For each output returns (a, x), a of shape ``t.shape + (dim,)`` and x of
    shape ``theta.shape + (dim,)``: column i of the output is
    a[..., i] * x[..., i] / r.  Each plane (c, h, h', k, j) of ``_planes``
    fills two columns with c*h(k t) (cos j th, sin j th) / r; its
    t-derivative is c*k*h'(k t) (cos, sin) / r and its theta-derivative
    c*j*h(k t) (-sin, cos) / r.  The catenoid's third column is its axial
    coordinate n t / r (x = 1).  The modes and each profile are computed once
    for all the outputs requested.
    """
    t = np.asarray(t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    dim = fam.ambient_dim
    table = [(np.empty(t.shape + (dim,)), np.empty(theta.shape + (dim,))) for _ in outputs]
    if fam.family is FamilyKind.CATENOID_B3:
        n = fam.n
        axial = {_U: n * t, _U_T: float(n), _U_THETA: 0.0}
        for out, (a, x) in zip(outputs, table):
            a[..., 2], x[..., 2] = axial[out], 1.0
    for col, (c, h, dh, k, j) in zip((0, 2), _planes(fam)):
        cos, sin = np.cos(j * theta), np.sin(j * theta)
        if _U in outputs or _U_THETA in outputs:
            profile = h(k * t)
        for out, (a, x) in zip(outputs, table):
            if out == _U:
                a[..., col], x[..., col], x[..., col + 1] = c * profile, cos, sin
            elif out == _U_T:
                a[..., col], x[..., col], x[..., col + 1] = c * k * dh(k * t), cos, sin
            else:
                a[..., col], x[..., col], x[..., col + 1] = c * j * profile, -sin, cos
            a[..., col + 1] = a[..., col]
    return table


def _outputs(fam: ImmersionFamily, t, theta, outputs) -> list[np.ndarray]:
    """The selected outputs of the immersion, multiplied out of ``_factors``.

    Each column is (a * x) / r, written into the output column by column, so
    no grid-sized temporary is made.
    """
    dim = fam.ambient_dim
    shape = np.broadcast_shapes(np.shape(t), np.shape(theta)) + (dim,)
    arrays = []
    for a, x in _factors(fam, t, theta, outputs):
        u = np.empty(shape)
        for i in range(dim):
            np.multiply(a[..., i], x[..., i], out=u[..., i])
        u /= fam.radius
        arrays.append(u)
    return arrays


def _conformal_factor(fam: ImmersionFamily, t) -> np.ndarray:
    """lambda^2(t) = |u_t|^2 = |u_theta|^2, shaped as ``t``: the sum over ``_planes``
    of (c k h'(k t))^2, plus n^2 for the catenoid's axis, over r^2."""
    t = np.asarray(t, dtype=float)
    f2 = sum((c * k * dh(k * t)) ** 2 for c, _, dh, k, _ in _planes(fam))
    if fam.family is FamilyKind.CATENOID_B3:
        f2 = f2 + fam.n**2
    return f2 / fam.radius**2


def boundary_eigenvalue_factor(fam: ImmersionFamily) -> float:
    """Scalar c with du/dt = c*u on the t = T* boundary circle.

    It is the cosh plane's k*tanh(k T*); the other coordinates agree at T*.
    """
    k = _planes(fam)[-1][3]
    return k * math.tanh(k * fam.T_star)


@dataclass(frozen=True)
class IdentityReport:
    """Pointwise identities of the immersion, each read from ``_planes``, T*
    and r; none samples a grid.

    A plane c*h(k t) (cos j th, sin j th) / r has <u_t, u_theta> = 0 (u_t is
    radial, u_theta angular) and |u_t|^2 - |u_theta|^2 = (+-c^2 k^2 +
    c^2 (k^2 - j^2) h^2) / r^2, as h'^2 - h^2 = +-1.  ``conformal_residual``
    and ``stress_energy_residual`` are both its bound
    (|sum +-c^2 k^2| + sum c^2 |k^2 - j^2| h(k T*)^2) / r^2, the catenoid's
    axis adding n^2 to the first sum: 0.0 where the integers cancel and k = j.
    At (T*, 0), which the rotations in theta and the mirror t -> -t carry to
    the whole boundary, ``boundary_norm_residual`` is ||u| - 1|,
    ``free_boundary_angle`` the sine of the angle between u_t and u, and
    ``boundary_factor_deviation`` |u_t - c u|, c = ``boundary_eigenvalue_factor``.
    ``harmonic_residual`` is max |k^2 - j^2|, 0.0 exactly when the map is
    harmonic; ``harmonic_order`` is then inf, else 0.0 (the limit of the log2
    ratio of five-point Laplacian residuals at steps h and h/2), so
    ``harmonic_order >= 1.8`` passes the harmonic maps alone."""

    conformal_residual: float
    harmonic_residual: float
    harmonic_order: float
    boundary_norm_residual: float
    free_boundary_angle: float
    stress_energy_residual: float
    boundary_factor_deviation: float


def verify_identities(fam: ImmersionFamily) -> IdentityReport:
    """Certify ``fam`` from its plane table, as ``IdentityReport`` states."""
    T, planes = fam.T_star, _planes(fam)
    # h'^2 - h^2 at t = 0 is exactly +1 for sinh and -1 for cosh
    exact = sum(c * c * k * k * (dh(0.0) ** 2 - h(0.0) ** 2) for c, h, dh, k, _ in planes)
    if fam.family is FamilyKind.CATENOID_B3:
        exact += fam.n**2  # the axis n t / r
    detuned = sum(c * c * abs(k * k - j * j) * h(k * T) ** 2 for c, h, _, k, j in planes)
    conformal = float(abs(exact) + detuned) / fam.radius**2

    u, ut = _outputs(fam, T, 0.0, (_U, _U_T))
    norm = float(np.linalg.norm(u))
    rejection = ut - (ut @ u) / norm**2 * u
    harmonic = float(max(abs(k * k - j * j) for _, _, _, k, j in planes))

    return IdentityReport(
        conformal_residual=conformal,
        harmonic_residual=harmonic,
        harmonic_order=math.inf if harmonic == 0.0 else 0.0,
        boundary_norm_residual=abs(norm - 1.0),
        free_boundary_angle=float(np.linalg.norm(rejection) / np.linalg.norm(ut)),
        stress_energy_residual=conformal,
        boundary_factor_deviation=float(np.linalg.norm(ut - boundary_eigenvalue_factor(fam) * u)),
    )


Component = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class QFormSample:
    """A symmetric 2-tensor variation h, given by its three flat components."""

    h_tt: Component
    h_ttheta: Component
    h_thetatheta: Component


# rectangle-rule nodes per boundary circle
_N_BOUNDARY = 512
# t-rows per block of the Q-form's interior: its 201 rows are sampled in
# three blocks, never as one 201 x 256 grid
_ROW_BLOCK = 67


def _boundary_terms(
    fam: ImmersionFamily, sample: QFormSample
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """h_thetatheta / f on both boundary circles t = -T*, T*.

    The boundary length element is f = sqrt(lambda^2(T*)), read from
    ``_planes`` by ``_conformal_factor`` and the same at every boundary point,
    so the length is 4 pi f.  Returns the circles as a (2, 1) column, their
    512 theta nodes, h_thetatheta / f on them, of shape (2, 512), and f.
    """
    theta = np.linspace(0.0, 2.0 * math.pi, _N_BOUNDARY, endpoint=False)
    sides = np.array([[-fam.T_star], [fam.T_star]])
    f = math.sqrt(_conformal_factor(fam, fam.T_star))
    hf = np.broadcast_to(sample.h_thetatheta(sides, theta), (2, _N_BOUNDARY)) / f
    return sides, theta, hf, f


def q_form_components(fam: ImmersionFamily, sample: QFormSample) -> np.ndarray:
    """Eigenvalue-perturbation quadratic form of each coordinate function.

    The form pairs the stress-energy tensor of each component with the
    variation h over the interior and adds the boundary term weighted by the
    Steklov eigenvalue of the induced metric; for an admissible h the sum
    over components must vanish.  The interior uses Simpson's rule in t on
    201 nodes (an odd count) and the rectangle rule on 256 theta nodes; the
    boundary term is the rectangle rule on 512 nodes per boundary circle
    (``_boundary_terms``).  The interior is sampled in blocks of 67 t-rows:
    each component is called on a block and summed over theta against the
    theta-factors of ``_factors`` by one matrix product, and h_tt - h_thth,
    the t-factors and the t-weight wt / lambda^2(t) are applied to those
    (n_t, dim) sums, not to grids.  The metric lambda^2(t) (dt^2 + dth^2)
    enters through ``_conformal_factor``, read from ``_planes`` on the t axis
    alone.
    """
    sides, theta_b, hf, f = _boundary_terms(fam, sample)
    wb = 2.0 * math.pi / _N_BOUNDARY
    residual = float(np.sum(hf) * wb)
    if abs(residual) > 1e-8 * (float(np.sum(np.abs(hf)) * wb) + 1.0):
        raise ConstraintError(f"variation violates the boundary length constraint: {residual:.3e}")
    boundary = np.einsum("st,sti->i", hf, _position(fam, sides, theta_b) ** 2) * wb

    n_t, n_theta, dim = 201, 256, fam.ambient_dim
    T = fam.T_star
    t = np.linspace(-T, T, n_t)
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    wt = np.ones(n_t)
    wt[1:-1:2] = 4.0
    wt[2:-1:2] = 2.0
    wt *= (t[1] - t[0]) / 3.0
    wth = 2.0 * math.pi / n_theta
    (a_t, x_t), (a_th, x_th) = _factors(fam, t, theta, (_U_T, _U_THETA))
    x_d = np.concatenate([x_t**2, x_th**2], axis=1)
    x_e = x_t * x_th

    # theta-sums of h against the squared and crossed theta-factors, row by
    # row: d against (x_t^2, x_th^2) for the diagonal components, e against
    # x_t x_th for the off-diagonal one
    d, e = np.empty((n_t, 2 * dim)), np.empty((n_t, dim))
    th = theta[None, :]
    for start in range(0, n_t, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        tt = t[rows, None]
        block = (len(tt), n_theta)
        h_tt = np.broadcast_to(sample.h_tt(tt, th), block)
        h_thth = np.broadcast_to(sample.h_thetatheta(tt, th), block)
        d[rows] = h_tt @ x_d - h_thth @ x_d
        e[rows] = np.broadcast_to(sample.h_ttheta(tt, th), block) @ x_e

    # per component the stress-energy tau_tt = (u_t^2 - u_theta^2) / 2 and
    # tau_ttheta = u_t u_theta, paired with h
    w = (wt / _conformal_factor(fam, t))[:, None]
    interior = (
        w * (0.5 * a_t**2 * d[:, :dim] - 0.5 * a_th**2 * d[:, dim:] + 2.0 * a_t * a_th * e)
    ).sum(axis=0) * (wth / fam.radius**2)

    # eigenvalue of the induced metric (equals 1 for these unit-ball surfaces)
    sigma = boundary_eigenvalue_factor(fam) / f
    return -interior - 0.5 * sigma * boundary


def q_form_sum(fam: ImmersionFamily, sample: QFormSample) -> float:
    """The sum over coordinates of ``q_form_components``: zero, to quadrature
    accuracy, for an admissible variation of a free boundary minimal surface,
    which is the first-order criticality of its metric for the normalized
    Steklov eigenvalue.  Raises ConstraintError unless ``sample`` keeps the
    boundary length fixed (see ``make_admissible``)."""
    return float(np.sum(q_form_components(fam, sample)))


def make_admissible(fam: ImmersionFamily, sample: QFormSample) -> QFormSample:
    """Project a variation onto the fixed-boundary-length constraint.

    Subtracts alpha times the induced metric lambda^2(t) (dt^2 + dth^2), its
    factor read from ``_planes`` by ``_conformal_factor``.  That leaves the
    interior pairing unchanged (the stress-energy tensor is trace-free) and
    shifts the boundary integral to zero: alpha is the integral of
    h_thetatheta / f over the boundary circles (``_boundary_terms``) over
    their length 4 pi f.
    """
    _, _, hf, f = _boundary_terms(fam, sample)
    alpha = float(np.sum(hf) * (2.0 * math.pi / _N_BOUNDARY)) / (4.0 * math.pi * f)
    return QFormSample(
        h_tt=lambda t, th: sample.h_tt(t, th) - alpha * _conformal_factor(fam, t),
        h_ttheta=sample.h_ttheta,
        h_thetatheta=lambda t, th: sample.h_thetatheta(t, th) - alpha * _conformal_factor(fam, t),
    )


@dataclass(frozen=True)
class InjectivityReport:
    """Double points of a family, exact from (family, m, n).

    ``injective``: no two parameters off the core circle t = 0 share an
    image point.  ``core_sheets``: the sheets that cross along the image of
    the core circle, beyond the covering.  A surface is embedded exactly
    when it is injective with one core sheet.
    """

    injective: bool
    covering_degree: int
    core_sheets: int


def covering_degree(fam: ImmersionFamily) -> int:
    """The g of the g-fold covering u(t, th) = u(t, th + 2*pi/g).

    g = gcd(m, n) on the four-dimensional families and n on the catenoid.
    Known defect: an annulus with m/g even (coprime: m even, n odd) also
    factors through the mirror (t, th) ~ (-t, th + pi/g), so every image
    point there has 2g preimages, yet it reads g (1, not 2, when coprime).
    """
    if fam.family is FamilyKind.CATENOID_B3:
        return fam.n
    return math.gcd(fam.m, fam.n)


def injectivity_scan(fam: ImmersionFamily) -> InjectivityReport:
    """The double points of ``fam`` by the rule below; evaluates no point.

    ``injective`` is g == 1 and, on the annulus, m odd; ``core_sheets`` is
    m/g on the annulus, m/(2g) on the Mobius band and 1 on the catenoid.
    """
    # Write u = (z1, z2) / r in complex planes, z1 = m sinh(nt) e^{in th},
    # z2 = n cosh(mt) e^{im th}, and d = th2 - th1.  Catenoid: the axial
    # coordinate n t / r fixes t, and cosh(nt) e^{in th} then agrees exactly
    # when n d = 0 (mod 2 pi): an n-fold covering with no other double
    # points, the core included.  Otherwise |z2| = n cosh(mt) is even and
    # increasing in |t|, so u(t1, th1) = u(t2, th2) forces t2 = +-t1.
    # (1) t2 = t1 != 0: sinh(nt) != 0, so n d = m d = 0 (mod 2 pi), that is
    #     d in (2 pi / g)Z: the g-fold covering.
    # (2) t2 = -t1 != 0: z1 changes sign, so n d = pi and m d = 0 (mod 2 pi).
    #     With m = g m', n = g n' coprime, m d = 2 pi k gives n d =
    #     2 pi k n' / m', odd times pi only if m' | 2k; for m' odd that makes
    #     it even times pi, for m' even (so n' odd) k in (m'/2)(2Z + 1) does
    #     it, that is d in pi/g + (2 pi / g)Z.
    #     Solvable exactly when m/g is even: on the band (m even, n odd, so
    #     g odd) it is the identification (t, th) ~ (-t, th + pi) composed
    #     with the covering; on the annulus it is a mirror double cover.
    # (3) t1 = t2 = 0: z1 = 0 and z2 = n e^{im th}, so the core circle meets
    #     itself at every d in (2 pi / m)Z: m preimages per image point on the
    #     annulus, m/2 on the band, where (0, th) ~ (0, th + pi); g of them
    #     are the covering's.
    g = covering_degree(fam)
    if fam.family is FamilyKind.CATENOID_B3:
        return InjectivityReport(injective=g == 1, covering_degree=g, core_sheets=1)
    if fam.is_quotient:
        return InjectivityReport(injective=g == 1, covering_degree=g, core_sheets=fam.m // (2 * g))
    return InjectivityReport(
        injective=g == 1 and fam.m % 2 == 1, covering_degree=g, core_sheets=fam.m // g
    )
