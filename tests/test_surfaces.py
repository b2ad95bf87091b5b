"""Explicit immersion families: identities, q-form, injectivity, coverings."""

import math
from dataclasses import replace

import numpy as np
import pytest

from steklov import cli, mesh, surfaces
from steklov.branches import SurfaceKind, crossing_lattice
from steklov.crossings import solve_crossing, solve_t10
from steklov.exceptions import ConstraintError, DomainError, ParameterError
from steklov.surfaces import (
    FamilyKind,
    QFormSample,
    annulus_b4,
    boundary_eigenvalue_factor,
    catenoid_b3,
    covering_degree,
    evaluate,
    injectivity_scan,
    make_admissible,
    mobius_b4,
    q_form_components,
    q_form_sum,
    verify_identities,
)
from steklov.surfaces import (
    _U,
    _U_T,
    _U_THETA,
    _conformal_factor,
    _factors,
    _outputs,
    _planes,
    _position,
)

FAMILIES = [
    catenoid_b3(1),
    catenoid_b3(2),
    catenoid_b3(3),
    annulus_b4(2, 1),
    annulus_b4(3, 1),
    annulus_b4(3, 2),
    mobius_b4(2, 1),
    mobius_b4(4, 1),
    mobius_b4(4, 3),
]


def _family_id(fam):
    return f"{fam.family.value}-{fam.m}-{fam.n}" if fam.ambient_dim == 4 else f"catenoid-{fam.n}"


IDS = [_family_id(f) for f in FAMILIES]


def test_parameter_validation():
    with pytest.raises(ParameterError):
        catenoid_b3(0)
    with pytest.raises(ParameterError):
        annulus_b4(2, 2)
    with pytest.raises(ParameterError):
        mobius_b4(3, 1)  # m odd
    with pytest.raises(ParameterError):
        mobius_b4(4, 2)  # n even
    with pytest.raises(ParameterError):
        mobius_b4(2, 3)  # m <= n


@pytest.mark.parametrize(
    "m, n, message",
    [
        (3, 1, "need m even and n odd, got m=3, n=1"),
        (4, 2, "need m even and n odd, got m=4, n=2"),
        (3, 5, "need m even and n odd, got m=3, n=5"),
        (2, 3, "need m > n >= 1, got m=2, n=3"),
        (0, 1, "need m > n >= 1, got m=0, n=1"),
        (4, -1, "need m > n >= 1, got m=4, n=-1"),
    ],
)
def test_mobius_b4_names_the_rule_it_breaks(m, n, message):
    # the band carries the even branch of mode m and the odd one of mode n
    # only for m even and n odd; other pairs fail the order rule
    with pytest.raises(ParameterError) as info:
        mobius_b4(m, n)
    assert str(info.value) == message


def test_critical_moduli_and_radii():
    t10 = solve_t10()
    cat = catenoid_b3(2)
    assert cat.T_star == pytest.approx(t10 / 2.0, rel=1e-14)
    assert cat.radius == pytest.approx(
        math.sqrt(t10**2 + math.cosh(t10) ** 2), rel=1e-14
    )
    mob = mobius_b4(2, 1)
    assert mob.T_star == pytest.approx(math.atanh(1.0 / math.sqrt(3.0)), abs=1e-13)
    ann = annulus_b4(3, 2)
    t = solve_crossing(3.0, 2.0).x
    assert ann.radius == pytest.approx(
        math.sqrt(9.0 * math.sinh(2 * t) ** 2 + 4.0 * math.cosh(3 * t) ** 2),
        rel=1e-14,
    )


def test_families_keep_the_solver_moduli_and_radii():
    # T* as the crossing solver gives it, bit for bit, and r as written out
    # per family with math's sinh and cosh, to the 2 ulp that NumPy's differ
    t10 = solve_t10()
    radius = math.sqrt(t10 * t10 + math.cosh(t10) ** 2)
    expected = [(catenoid_b3(n), t10 / n, radius) for n in range(1, 41)]
    for m in range(2, 41):
        for n in range(1, m):
            T = solve_crossing(float(m), float(n)).x
            radius = math.sqrt(m * m * math.sinh(n * T) ** 2 + n * n * math.cosh(m * T) ** 2)
            expected.append((annulus_b4(m, n), T, radius))
            if m % 2 == 0 and n % 2 == 1:
                expected.append((mobius_b4(m, n), T, radius))
    assert len(expected) == 1030
    for fam, T, radius in expected:
        assert fam.T_star == T, _family_id(fam)
        assert abs(fam.radius - radius) <= 2 * math.ulp(radius), _family_id(fam)


def test_each_lattice_crossing_carries_its_family():
    # the paper's correspondence: linear/even crossing m -> catenoid_b3(m),
    # annulus (m, n) -> annulus_b4(m, n), band (k, l) -> mobius_b4(2k, 2l - 1),
    # with T* the modulus, the boundary length the normalized eigenvalue and
    # the ambient dimension the cluster's multiplicity
    theta = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    count = 0
    for kind, circles in ((SurfaceKind.MOBIUS_BAND, 1), (SurfaceKind.ANNULUS, 2)):
        for c in crossing_lattice(kind, 20):
            a, b = c.increasing.mode, c.decreasing.mode
            if kind is SurfaceKind.MOBIUS_BAND:
                fam = mobius_b4(a, b)
            else:
                fam = annulus_b4(a, b) if b else catenoid_b3(a)
            assert fam.T_star == c.modulus
            _, _, u_theta = evaluate(fam, fam.T_star, theta)
            length = circles * 2.0 * math.pi * float(np.mean(np.linalg.norm(u_theta, axis=-1)))
            assert length == pytest.approx(c.value, rel=1e-15, abs=0.0)
            assert fam.ambient_dim == c.multiplicity == 4 - (b == 0)
            count += 1
    assert count == 420


@pytest.mark.parametrize(
    "build",
    [lambda: annulus_b4(10**400, 1), lambda: catenoid_b3(10**400), lambda: mobius_b4(2 * 10**400, 1)],
    ids=["annulus", "catenoid", "mobius"],
)
def test_modes_past_the_double_range_raise_domain_error(build):
    with pytest.raises(DomainError, match="^mode exceeds the double range$"):
        build()


def test_evaluate_center_point():
    u, ut, uth = evaluate(mobius_b4(2, 1), 0.0, 0.0)
    assert np.allclose(u * mobius_b4(2, 1).radius, [0.0, 0.0, 1.0, 0.0], atol=1e-15)
    assert u.shape == (4,)


def _reference_evaluate(fam, t, theta):
    # the broadcast-first evaluation: every transcendental call on the full grid
    t, theta = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(theta, dtype=float))
    r = fam.radius
    if fam.family is FamilyKind.CATENOID_B3:
        n = fam.n
        ch, sh = np.cosh(n * t), np.sinh(n * t)
        c, s = np.cos(n * theta), np.sin(n * theta)
        u = np.stack([ch * c, ch * s, n * t], axis=-1) / r
        ut = np.stack([n * sh * c, n * sh * s, np.full_like(t, float(n))], axis=-1) / r
        uth = np.stack([-n * ch * s, n * ch * c, np.zeros_like(t)], axis=-1) / r
        return u, ut, uth
    m, n = fam.m, fam.n
    shn, chn = np.sinh(n * t), np.cosh(n * t)
    shm, chm = np.sinh(m * t), np.cosh(m * t)
    cn, sn = np.cos(n * theta), np.sin(n * theta)
    cm, sm = np.cos(m * theta), np.sin(m * theta)
    u = np.stack([m * shn * cn, m * shn * sn, n * chm * cm, n * chm * sm], axis=-1) / r
    mn = m * n
    ut = np.stack([mn * chn * cn, mn * chn * sn, mn * shm * cm, mn * shm * sm], axis=-1) / r
    uth = np.stack(
        [-mn * shn * sn, mn * shn * cn, -mn * chm * sm, mn * chm * cm], axis=-1
    ) / r
    return u, ut, uth


def _evaluate_inputs(fam):
    rng = np.random.default_rng(11)
    T = fam.T_star
    t = np.concatenate([[-T, 0.0, T], rng.uniform(-T, T, 17)])
    th = np.concatenate([[0.0, math.pi], rng.uniform(0.0, 2.0 * math.pi, 22)])
    return [
        (0.4 * T, 1.3),  # scalar t, scalar theta
        (-0.4 * T, th),  # scalar t, theta array
        (t, 2.9),  # t array, scalar theta
        (t, th[: len(t)]),  # equal-length 1-D arrays
        (t[:, None], th[None, :]),  # tensor grid
    ]


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    # array_equal takes -0.0 == 0.0; exports print the sign
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize(
    "fam", [catenoid_b3(3), annulus_b4(5, 3), mobius_b4(6, 5)], ids=["catenoid", "annulus", "mobius"]
)
def test_separable_evaluate_matches_broadcast_reference(fam):
    for t, th in _evaluate_inputs(fam):
        want = _reference_evaluate(fam, t, th)
        got = evaluate(fam, t, th)
        for g, w in zip(got, want):
            _assert_bitwise(g, w)
        _assert_bitwise(_position(fam, t, th), want[0])
        for pair in ((_U, _U_T), (_U_T, _U_THETA)):
            for g, out in zip(_outputs(fam, t, th, pair), pair):
                _assert_bitwise(g, want[out])


class _CountingNumpy:
    """numpy, with the elements passed to sinh, cosh, sin and cos counted."""

    def __init__(self):
        self.elements = 0
        for name in ("sinh", "cosh", "sin", "cos"):
            setattr(self, name, self._counted(getattr(np, name)))

    def _counted(self, fn):
        def counted(x, *args, **kwargs):
            self.elements += np.size(x)
            return fn(x, *args, **kwargs)

        return counted

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize(
    "fam", [catenoid_b3(1), annulus_b4(3, 2), mobius_b4(4, 3)], ids=["catenoid", "annulus", "mobius"]
)
def test_transcendental_calls_scale_with_grid_sides(fam, monkeypatch):
    # the profiles see each t once and the modes each theta once, so the
    # count grows with n_t + n_theta; a broadcast-first evaluation would
    # pass every one of the n_t * n_theta grid points to each function
    counting = _CountingNumpy()
    monkeypatch.setattr(surfaces, "np", counting)
    mesh.build_mesh(fam, 128, 256)
    assert 0 < counting.elements <= 16 * (128 + 256)
    counting.elements = 0
    surfaces.verify_identities(fam)  # the plane table and one boundary point
    assert 0 < counting.elements <= 16
    counting.elements = 0
    # a 201 x 256 interior grid and two boundary circles of 512 nodes
    q_form_components(fam, make_admissible(fam, SAMPLES[0]))
    assert 0 < counting.elements <= 16 * (201 + 256 + 512)


def test_evaluate_domain_error():
    fam = catenoid_b3(1)
    with pytest.raises(DomainError):
        evaluate(fam, fam.T_star * 1.01, 0.0)


def test_quotient_identification():
    fam = mobius_b4(4, 3)
    rng = np.random.default_rng(7)
    t = rng.uniform(-fam.T_star, fam.T_star, 100)
    th = rng.uniform(0.0, 2.0 * math.pi, 100)
    u1 = evaluate(fam, t, th)[0]
    u2 = evaluate(fam, -t, th + math.pi)[0]
    assert np.max(np.abs(u1 - u2)) < 1e-14


@pytest.mark.parametrize("fam", FAMILIES, ids=IDS)
def test_pointwise_identities(fam):
    report = verify_identities(fam)
    assert report.conformal_residual <= 1e-12
    assert report.boundary_norm_residual <= 1e-12
    assert report.stress_energy_residual <= 1e-12
    assert report.free_boundary_angle <= 1e-10
    assert report.boundary_factor_deviation <= 1e-10
    assert report.harmonic_residual == 0.0
    assert report.harmonic_order >= 1.8


def _fd_laplacian_residual(fam, h):
    """Max flat 5-point Laplacian of the components over 40 x 40 interior samples."""
    T = fam.T_star
    t = np.linspace(-T + 2 * h, T - 2 * h, 40)[:, None]
    th = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)[None, :]

    def pos(dt, dth):
        return _position(fam, t + dt, th + dth)

    lap = (
        pos(h, 0.0) + pos(-h, 0.0) + pos(0.0, h) + pos(0.0, -h) - 4.0 * pos(0.0, 0.0)
    ) / (h * h)
    return float(np.max(np.abs(lap)))


@pytest.mark.parametrize("fam", FAMILIES, ids=IDS)
def test_finite_difference_laplacian_vanishes_at_second_order(fam):
    # the numerical evidence behind the exact rule: the five-point Laplacian
    # of the positions is pure truncation error, O(h^2)
    T = fam.T_star
    res_h = _fd_laplacian_residual(fam, T / 512.0)
    assert math.log2(res_h / _fd_laplacian_residual(fam, T / 1024.0)) >= 1.8


def _detuned(planes):
    # the first plane's theta frequency off k by a relative 2**-50: harmonic
    # no longer, yet every grid identity still holds to its tolerance
    def detuned(fam):
        (c, h, dh, k, j), *rest = planes(fam)
        return [(c, h, dh, k, j * (1.0 + 2.0**-50))] + rest

    return detuned


def test_non_harmonic_plane_fails_the_harmonic_rule(capsys, monkeypatch):
    monkeypatch.setattr(surfaces, "_planes", _detuned(_planes))
    for fam in FAMILIES:
        report = verify_identities(fam)
        assert report.harmonic_residual > 0.0
        assert report.harmonic_order == 0.0
        assert report.conformal_residual <= 1e-12  # the rule alone fails it
    assert cli.run(["verify", "--suite", "surfaces"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert "  [FAIL] surfaces     identities catenoid(1)" in lines
    # the suite prints one identities line per family, and nothing else
    assert all(" surfaces     identities " in line for line in lines[:-1])


def _passes_rules(report):
    # the rules of `verify --suite surfaces` and test_pointwise_identities
    return (
        report.conformal_residual <= 1e-12
        and report.boundary_norm_residual <= 1e-12
        and report.stress_energy_residual <= 1e-12
        and report.free_boundary_angle <= 1e-10
        and report.boundary_factor_deviation <= 1e-10
        and report.harmonic_order >= 1.8
    )


def _assert_every_identities_check_fails(capsys):
    assert cli.run(["verify", "--suite", "surfaces"]) == 2
    lines = [line for line in capsys.readouterr().out.splitlines() if " identities " in line]
    assert len(lines) == 6 and all(line.startswith("  [FAIL] ") for line in lines)


def test_detuned_plane_amplitude_fails_the_rules(capsys, monkeypatch):
    # the first plane's amplitude off by a relative 1e-9: the +-c^2 k^2 of
    # |u_t|^2 - |u_theta|^2 no longer cancel, though the map stays harmonic
    # and r, read from the same table, keeps the boundary on the sphere
    def detuned(fam):
        (c, h, dh, k, j), *rest = _planes(fam)
        return [(c * (1.0 + 1e-9), h, dh, k, j)] + rest

    monkeypatch.setattr(surfaces, "_planes", detuned)
    for fam in FAMILIES:
        report = verify_identities(fam)
        assert report.conformal_residual > 1e-10
        assert report.stress_energy_residual > 1e-10
        assert report.harmonic_residual == 0.0
        assert not _passes_rules(report)
    _assert_every_identities_check_fails(capsys)


def _detuned_t_star(fam):
    return replace(fam, T_star=fam.T_star * (1.0 + 1e-9))


def test_detuned_t_star_fails_the_rules(capsys, monkeypatch):
    # T* off by a relative 1e-9: the boundary leaves the sphere and meets it
    # at an angle, while the interior identities still hold
    for fam in FAMILIES:
        report = verify_identities(_detuned_t_star(fam))
        assert report.boundary_norm_residual > 1e-10
        assert report.free_boundary_angle > 1e-10
        assert report.boundary_factor_deviation > 1e-10
        assert report.conformal_residual == 0.0
    make_family = surfaces.make_family
    monkeypatch.setattr(surfaces, "make_family", lambda *a, **kw: _detuned_t_star(make_family(*a, **kw)))
    _assert_every_identities_check_fails(capsys)


def _families(max_mode, max_catenoid):
    # every family with modes <= max_mode, and the catenoids n <= max_catenoid
    return (
        [catenoid_b3(n) for n in range(1, max_catenoid + 1)]
        + [annulus_b4(m, n) for m in range(2, max_mode + 1) for n in range(1, m)]
        + [mobius_b4(m, n) for m in range(2, max_mode + 1, 2) for n in range(1, m, 2)]
    )


def test_every_family_to_mode_60_passes_the_rules():
    # the dense 200 x 400 grid route reads 934 of these past the rules on
    # rounding alone: every annulus and band of mode 42 or more, and every
    # catenoid from n = 48
    families = _families(60, 100)
    assert len(families) == 2335
    assert [_family_id(f) for f in families if not _passes_rules(verify_identities(f))] == []
    for fam in (annulus_b4(50, 1), mobius_b4(60, 29), catenoid_b3(100)):
        assert verify_identities(fam).conformal_residual == 0.0


@pytest.mark.parametrize("fam", FAMILIES, ids=IDS)
def test_plane_table_reads_keep_the_literal_formulas(fam):
    # the closed forms, written out per family, bit for bit
    m, n, T = fam.m, fam.n, fam.T_star
    k = n if fam.ambient_dim == 3 else m
    assert boundary_eigenvalue_factor(fam) == k * math.tanh(k * T)


def test_planes_read_numpy_at_call_time(monkeypatch):
    # so that _CountingNumpy sees the profiles of every routine
    counting = _CountingNumpy()
    monkeypatch.setattr(surfaces, "np", counting)
    for fam in (catenoid_b3(2), annulus_b4(3, 2), mobius_b4(4, 1)):
        for _, h, dh, _, _ in _planes(fam):
            assert {h, dh} == {counting.sinh, counting.cosh}


@pytest.mark.parametrize("fam", FAMILIES, ids=IDS)
def test_boundary_factor_formula(fam):
    c = boundary_eigenvalue_factor(fam)
    T = fam.T_star
    if fam.ambient_dim == 3:
        assert c == pytest.approx(fam.n * math.tanh(fam.n * T), rel=1e-14)
    else:
        # both branch values agree at the crossing
        assert c == pytest.approx(fam.n / math.tanh(fam.n * T), rel=1e-12)


SAMPLES = [
    QFormSample(
        h_tt=lambda t, th: np.cos(th) + 0.3 * t,
        h_ttheta=lambda t, th: np.sin(2.0 * th) * t,
        h_thetatheta=lambda t, th: np.cos(th) + 0.3 * t,
    ),
    QFormSample(
        h_tt=lambda t, th: np.sin(t) * np.cos(th),
        h_ttheta=lambda t, th: np.zeros(np.broadcast(t, th).shape),
        h_thetatheta=lambda t, th: np.zeros(np.broadcast(t, th).shape),
    ),
    QFormSample(
        h_tt=lambda t, th: t**2 + np.sin(th),
        h_ttheta=lambda t, th: np.cos(th) * t,
        h_thetatheta=lambda t, th: np.sin(3.0 * th) - t,
    ),
]


# SAMPLES are even in t and have mean-free theta terms, so several terms of
# the form integrate to 0 on them and make_admissible subtracts 0 from each;
# this one has neither symmetry and a nonzero projection
LOPSIDED = QFormSample(
    h_tt=lambda t, th: np.exp(t) * np.cos(th) ** 2 + 1.0,
    h_ttheta=lambda t, th: np.sin(th + t),
    h_thetatheta=lambda t, th: (t * t + t) * np.cos(2.0 * th) + 0.5 + t,
)
ALL_SAMPLES = SAMPLES + [LOPSIDED]


@pytest.mark.parametrize("fam", [catenoid_b3(1), annulus_b4(3, 2), mobius_b4(2, 1)])
@pytest.mark.parametrize("i", range(len(ALL_SAMPLES)))
def test_q_form_sum_vanishes(fam, i):
    sample = make_admissible(fam, ALL_SAMPLES[i])
    components = q_form_components(fam, sample)
    total = float(np.sum(components))
    # individual components are O(1); the sum cancels to quadrature accuracy
    assert np.max(np.abs(components)) < 50.0
    assert abs(total) <= 1e-8 * max(1.0, np.max(np.abs(components)))


def test_q_form_constraint_error():
    fam = catenoid_b3(1)
    bad = QFormSample(
        h_tt=lambda t, th: np.ones(np.broadcast(t, th).shape),
        h_ttheta=lambda t, th: np.zeros(np.broadcast(t, th).shape),
        h_thetatheta=lambda t, th: np.ones(np.broadcast(t, th).shape),
    )
    with pytest.raises(ConstraintError):
        q_form_sum(fam, bad)


def test_q_form_admissible_metric_variation():
    # h proportional to the induced metric, projected onto the constraint
    fam = mobius_b4(2, 1)

    def f2(t, th):
        _, ut, _ = evaluate(fam, t, th)
        return np.einsum("...i,...i->...", ut, ut)

    g_like = QFormSample(
        h_tt=lambda t, th: (1.0 + np.cos(th)) * f2(t, th),
        h_ttheta=lambda t, th: np.zeros(np.broadcast(t, th).shape),
        h_thetatheta=lambda t, th: (1.0 + np.cos(th)) * f2(t, th),
    )
    total = q_form_sum(fam, make_admissible(fam, g_like))
    assert abs(total) <= 1e-8


@pytest.mark.parametrize(
    "fam", [catenoid_b3(2), annulus_b4(3, 2), mobius_b4(4, 1)], ids=["catenoid", "annulus", "mobius"]
)
def test_constant_components_broadcast_against_the_grid(fam):
    # components that return Python floats, a t-column or a theta-row, not
    # grids: the projection adds a t-axis term and q_form_components samples
    # t-blocks and weights on the t axis, and each block must broadcast them
    # over its rows of the (t, theta) grid as the whole grid does
    shaped = [
        QFormSample(
            h_tt=lambda t, th: 1.0, h_ttheta=lambda t, th: 0.0, h_thetatheta=lambda t, th: 2.0
        ),
        QFormSample(h_tt=lambda t, th: t, h_ttheta=lambda t, th: t, h_thetatheta=lambda t, th: t * t),
        QFormSample(
            h_tt=lambda t, th: np.cos(th),
            h_ttheta=lambda t, th: np.sin(th),
            h_thetatheta=lambda t, th: np.cos(th) + 1.0,
        ),
    ]
    for raw in shaped:
        sample = make_admissible(fam, raw)
        components = q_form_components(fam, sample)
        assert components.shape == (fam.ambient_dim,)
        assert np.max(np.abs(components)) > 0.0
        assert abs(q_form_sum(fam, sample)) <= 1e-8 * np.max(np.abs(components))
        _assert_close(components, _reference_q_form_components(fam, sample))


def _dot(u, v):
    return np.einsum("...i,...i->...", u, v)


def test_conformal_factor_matches_the_grid_to_mode_20():
    # lambda^2(t) from the plane table against |u_t|^2 and |u_theta|^2 on a
    # (t, theta) grid; on the boundary sqrt(lambda^2) = |u_t| = c |u| = c
    for fam in _families(20, 20):
        T = fam.T_star
        t = np.linspace(-T, T, 41)[:, None]
        th = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)[None, :]
        ut, uth = _outputs(fam, t, th, (_U_T, _U_THETA))
        f2 = _conformal_factor(fam, t)
        assert f2.shape == t.shape
        for want in (_dot(ut, ut), _dot(uth, uth)):
            assert np.all(np.abs(f2 - want) <= 1e-13 * want), _family_id(fam)
        c = boundary_eigenvalue_factor(fam)
        assert abs(math.sqrt(_conformal_factor(fam, T)) - c) <= 4 * math.ulp(c), _family_id(fam)


def _reference_identity_residuals(fam):
    # the dense route: the fields of verify_identities as maxima over
    # (n_t, n_theta, dim) grids of u_t and u_theta and over both boundary
    # circles, keyed by field
    T = fam.T_star
    t = np.linspace(-T, T, 200)[:, None]
    th = np.linspace(0.0, 2.0 * math.pi, 400, endpoint=False)[None, :]
    ut, uth = _outputs(fam, t, th, (_U_T, _U_THETA))
    abs_cross = np.abs(_dot(ut, uth))
    abs_gap = np.abs(_dot(ut, ut) - _dot(uth, uth))
    # u_t = +-c u on the circles t = +-T*
    sides = np.array([[-T], [T]])
    u, ut = _outputs(fam, sides, th, (_U, _U_T))
    norms = np.linalg.norm(u, axis=-1)
    unit = u / norms[..., None]
    rejection = np.linalg.norm(ut - _dot(ut, unit)[..., None] * unit, axis=-1)
    c = boundary_eigenvalue_factor(fam) * np.sign(sides)[..., None]
    return {
        "conformal_residual": float(np.max(abs_cross + abs_gap)),
        "stress_energy_residual": float(np.max(abs_gap) + np.max(abs_cross)),
        "boundary_norm_residual": float(np.max(np.abs(norms - 1.0))),
        "free_boundary_angle": float(np.max(rejection / np.linalg.norm(ut, axis=-1))),
        "boundary_factor_deviation": float(np.max(np.linalg.norm(ut - c * u, axis=-1))),
    }


def _assert_identities_match_reference(fam, scale=1.0):
    # the grid route's conformal and stress-energy readings are rounding of
    # |u_t|^2; `scale` is the size they are compared at, 1.0 or |u_t(T*)|^2
    report = verify_identities(fam)
    for field, want in _reference_identity_residuals(fam).items():
        interior = field in ("conformal_residual", "stress_energy_residual")
        _assert_close(getattr(report, field), want, scale if interior else 1.0)


def _reference_boundary_sums(fam, sample):
    n_theta = 512
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    wth = 2.0 * math.pi / n_theta
    signed = length = 0.0
    weighted = np.zeros(fam.ambient_dim)
    for t_side in (-fam.T_star, fam.T_star):
        tt = np.full_like(theta, t_side)
        u, ut = _outputs(fam, tt, theta, (_U, _U_T))
        f = np.sqrt(_dot(ut, ut))
        hf = sample.h_thetatheta(tt, theta) / f
        signed += float(np.sum(hf) * wth)
        length += float(np.sum(f) * wth)
        weighted += (hf @ u**2) * wth
    return signed, length, weighted


def _reference_make_admissible(fam, sample):
    signed, length, _ = _reference_boundary_sums(fam, sample)
    alpha = signed / length

    def f2(t, th):
        ut = _outputs(fam, t, th, (_U_T,))[0]
        return _dot(ut, ut)

    return QFormSample(
        h_tt=lambda t, th: sample.h_tt(t, th) - alpha * f2(t, th),
        h_ttheta=sample.h_ttheta,
        h_thetatheta=lambda t, th: sample.h_thetatheta(t, th) - alpha * f2(t, th),
    )


def _reference_q_form_components(fam, sample):
    # the dense route: per-component stress-energy on (n_t, n_theta, dim) grids
    n_t, n_theta = 201, 256
    T = fam.T_star
    t = np.linspace(-T, T, n_t)
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    wt = np.ones(n_t)
    wt[1:-1:2] = 4.0
    wt[2:-1:2] = 2.0
    wt *= (t[1] - t[0]) / 3.0
    wth = 2.0 * math.pi / n_theta
    tt, th = t[:, None], theta[None, :]
    ut, uth = _outputs(fam, tt, th, (_U_T, _U_THETA))
    f2 = _dot(ut, ut)
    h_tt = np.broadcast_to(sample.h_tt(tt, th), f2.shape)
    h_tth = np.broadcast_to(sample.h_ttheta(tt, th), f2.shape)
    h_thth = np.broadcast_to(sample.h_thetatheta(tt, th), f2.shape)
    tau_tt = 0.5 * (ut**2 - uth**2)
    tau_tth = ut * uth
    integrand = (
        tau_tt * h_tt[..., None] + 2.0 * tau_tth * h_tth[..., None] - tau_tt * h_thth[..., None]
    ) / f2[..., None]
    interior = (wt[:, None, None] * integrand).sum(axis=(0, 1)) * wth
    (ut_b,) = _outputs(fam, T, 0.0, (_U_T,))
    sigma = boundary_eigenvalue_factor(fam) / float(np.linalg.norm(ut_b))
    return -interior - 0.5 * sigma * _reference_boundary_sums(fam, sample)[2]


def _assert_close(got, want, scale=1.0):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(scale, np.abs(want))), (got, want)


def _skewed_factors(fam, t, theta, outputs):
    # a table that is not conformal: u_theta stretched by 2% of cos(theta)
    # and tilted toward u_t by 1% of sin(theta), so the identity residuals
    # are O(1e-2), not rounding, and |u_t|^2 - |u_theta|^2 peaks where
    # <u_t, u_theta> does not
    table = _factors(fam, t, theta, outputs)
    if _U_THETA in outputs:
        ((_, x_t),) = _factors(fam, t, theta, (_U_T,))
        _, x = table[outputs.index(_U_THETA)]
        x *= 1.0 + 0.02 * np.cos(theta)[..., None]
        x += 0.01 * np.sin(theta)[..., None] * x_t
    return table


@pytest.mark.parametrize("skew", [False, True], ids=["exact", "skewed"])
@pytest.mark.parametrize("fam", FAMILIES, ids=IDS)
def test_factored_identities_match_dense_reference(fam, skew, monkeypatch):
    # exact: every field of the plane-table report against the grid route;
    # skewed: the q-form contracts the factor table, and a skewed table
    # moves it and its dense reference alike
    if not skew:
        _assert_identities_match_reference(fam)
        return
    monkeypatch.setattr(surfaces, "_factors", _skewed_factors)
    assert _reference_identity_residuals(fam)["conformal_residual"] > 1e-3
    lopsided = make_admissible(fam, LOPSIDED)
    want = _reference_q_form_components(fam, lopsided)
    _assert_close(q_form_components(fam, lopsided), want)


def test_identities_match_dense_reference_to_mode_20():
    # from mode 12 on the grid route's rounding passes 1e-13, so its
    # conformal and stress-energy readings are compared at the size of |u_t|^2
    for fam in _families(20, 20):
        (ut,) = _outputs(fam, fam.T_star, 0.0, (_U_T,))
        _assert_identities_match_reference(fam, float(_dot(ut, ut)))


@pytest.mark.parametrize("fam", FAMILIES, ids=IDS)
@pytest.mark.parametrize("i", range(len(ALL_SAMPLES)))
def test_factored_q_form_matches_dense_reference(fam, i):
    raw = ALL_SAMPLES[i]
    sample = make_admissible(fam, raw)
    _assert_close(q_form_components(fam, sample), _reference_q_form_components(fam, sample))
    # the projected variation itself, on a tensor grid and on a boundary circle
    want = _reference_make_admissible(fam, raw)
    T = fam.T_star
    t = np.linspace(-T, T, 21)[:, None]
    th = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    for tt, tht in ((t, th[None, :]), (np.full_like(th, T), th)):
        _assert_close(sample.h_tt(tt, tht), want.h_tt(tt, tht))
        _assert_close(sample.h_thetatheta(tt, tht), want.h_thetatheta(tt, tht))


@pytest.mark.parametrize(
    "fam", [catenoid_b3(2), annulus_b4(3, 2), mobius_b4(4, 1)], ids=["catenoid", "annulus", "mobius"]
)
def test_certificates_never_evaluate_the_interior_grid(fam, monkeypatch):
    # verify_identities reads the plane table and asks _outputs for the one
    # boundary point (T*, 0); q_form_components contracts t-profiles with
    # theta-modes, so every point set it asks _outputs for is of the order
    # of the grid's sides (boundary circles), never the n_t x n_theta interior;
    # the q-form stack reads |u_t|^2 from the plane table, never asking for u_t
    sizes, requested = [], []

    def spy(fam, t, theta, outputs):
        sizes.append(int(np.prod(np.broadcast_shapes(np.shape(t), np.shape(theta)))))
        requested.append(tuple(outputs))
        return _outputs(fam, t, theta, outputs)

    monkeypatch.setattr(surfaces, "_outputs", spy)
    surfaces.verify_identities(fam)
    assert sizes == [1]
    requested.clear()
    # make_admissible reads h_thetatheta on the boundary circles and lambda^2
    # from the plane table, and evaluates no point of the surface
    sizes.clear()
    calls = []
    sample = make_admissible(fam, _spy_sample(SAMPLES[0], calls))
    assert sizes == []
    calls.clear()
    q_form_components(fam, sample)  # 201 x 256 interior
    assert sizes and max(sizes) <= 4 * (201 + 256)
    assert requested and not any(_U_T in outputs for outputs in requested), requested
    # every component is sampled on t-blocks of the 256-node interior rows
    # that cover the 201 t-nodes once each, never on the whole grid at once
    T = fam.T_star
    for name in ("h_tt", "h_ttheta", "h_thetatheta"):
        blocks = [t for called, t, theta in calls if called == name and theta.size == 256]
        assert blocks and all(t.size < 201 for t in blocks), name
        covered = np.sort(np.concatenate([t.ravel() for t in blocks]))
        np.testing.assert_array_equal(covered, np.linspace(-T, T, 201))


def _spy_sample(sample, calls):
    # records (component, t, theta) of each call on `sample`
    def spied(name):
        component = getattr(sample, name)

        def call(t, th):
            calls.append((name, np.asarray(t), np.asarray(th)))
            return component(t, th)

        return call

    return QFormSample(*(spied(name) for name in ("h_tt", "h_ttheta", "h_thetatheta")))


def test_covering_degrees():
    assert covering_degree(catenoid_b3(1)) == 1
    assert covering_degree(catenoid_b3(3)) == 3
    assert covering_degree(annulus_b4(6, 3)) == 3
    assert covering_degree(annulus_b4(4, 2)) == 2
    assert covering_degree(mobius_b4(2, 1)) == 1
    assert covering_degree(mobius_b4(6, 3)) == 3


def test_injectivity_mobius_families():
    for m, n in ((2, 1), (4, 1)):
        fam = mobius_b4(m, n)
        report = injectivity_scan(fam)
        assert report.injective
        assert report.covering_degree == 1
        assert report.core_sheets == m // 2
        separation, threshold = _separation(fam, 48, 96)
        assert separation > threshold


def test_injectivity_covering_families():
    report = injectivity_scan(annulus_b4(6, 3))
    assert not report.injective
    assert report.covering_degree == 3
    assert report.core_sheets == 2
    report = injectivity_scan(catenoid_b3(2))
    assert not report.injective
    assert report.covering_degree == 2
    assert report.core_sheets == 1
    report = injectivity_scan(mobius_b4(6, 3))
    assert (report.injective, report.covering_degree, report.core_sheets) == (False, 3, 1)


def test_annulus_mirror_double_cover_detected():
    # m even, n odd: the annulus map is invariant under (t, th) -> (-t, th+pi)
    # and double-covers a Mobius band, so the report must flag it
    fam = annulus_b4(2, 1)
    u1 = evaluate(fam, 0.37, 1.1)[0]
    u2 = evaluate(fam, -0.37, 1.1 + math.pi)[0]
    assert np.max(np.abs(u1 - u2)) < 1e-15
    assert not injectivity_scan(fam).injective


def test_injectivity_annulus_coprime_opposite_parity():
    report = injectivity_scan(annulus_b4(3, 2))
    assert report.injective


def test_injectivity_scan_evaluates_no_point(monkeypatch):
    # the report follows from (family, m, n); the spies also see an
    # evaluation, so an empty record means none was made
    calls = []

    def spy(name, fn):
        def called(*args):
            calls.append(name)
            return fn(*args)

        return called

    monkeypatch.setattr(surfaces, "_outputs", spy("_outputs", _outputs))
    monkeypatch.setattr(surfaces, "_factors", spy("_factors", _factors))
    for fam in (catenoid_b3(2), annulus_b4(3, 2), annulus_b4(6, 3), mobius_b4(4, 1)):
        injectivity_scan(fam)
    assert calls == []
    surfaces._position(annulus_b4(3, 2), 0.0, 0.0)
    assert calls == ["_outputs", "_factors"]


# The grid scan below is the reference the exact report is checked against:
# image points at cell centres strictly inside the fundamental domain, and
# the least distance between two of them that are not grid neighbours.


def _adjacent(fam, t, theta, dt, dth):
    # mask of _separation's table: is (t[i2], theta[k]) a grid neighbour of
    # (t[i1], 0), across the theta seam and, on the quotient, the half-turn
    # (t, th) ~ (-t, th + pi)?
    def close(t2, shift):
        turn = np.abs(theta + shift) % (2.0 * math.pi)
        turn = np.minimum(turn, 2.0 * math.pi - turn)
        near = np.abs(t[:, None] - t2[None, :]) <= 1.5 * dt
        return near[:, :, None] & (turn <= 1.5 * dth)

    adjacent = close(t, 0.0)
    if fam.is_quotient:
        adjacent |= close(-t, math.pi)
    return adjacent


def _adjacent_pointwise(fam, p, q, dt, dth):
    # one pair at a time: neighbours across the theta seam and, on the
    # quotient, across the half-turn identification
    def close(a, b):
        ddth = abs(a[1] - b[1]) % (2.0 * math.pi)
        ddth = min(ddth, 2.0 * math.pi - ddth)
        return abs(a[0] - b[0]) <= 1.5 * dt and ddth <= 1.5 * dth

    if close(p, q):
        return True
    return fam.is_quotient and close(p, (-q[0], (q[1] + math.pi) % (2.0 * math.pi)))


def _cell_centres(fam, n_t, n_theta):
    # the sample grid of the injectivity scan, with its steps (dt, dth)
    T = fam.T_star
    if fam.is_quotient:
        dt = T / n_t
        t = (np.arange(n_t) + 0.5) * dt
    else:
        dt = 2.0 * T / n_t
        t = -T + (np.arange(n_t) + 0.5) * dt
    return t, np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False), dt, 2.0 * math.pi / n_theta


@pytest.mark.parametrize("fam", [annulus_b4(3, 2), mobius_b4(4, 1)], ids=["annulus", "mobius"])
def test_adjacent_mask_matches_pointwise(fam):
    # every entry (i1, i2, k) of the mask pairs (t[i1], 0) with (t[i2], theta[k]);
    # the 12 x 24 grid holds seam neighbours (k = 23) and, on the quotient,
    # half-turn neighbours (i1 = i2 = 0, k = 11..13)
    t, theta, dt, dth = _cell_centres(fam, 12, 24)
    got = _adjacent(fam, t, theta, dt, dth)
    expected = [
        [[_adjacent_pointwise(fam, (a, 0.0), (b, c), dt, dth) for c in theta] for b in t]
        for a in t
    ]
    assert got.tolist() == expected
    assert got[0, 0, 23] and got[5, 6, 1] and not got[0, 2, 0]
    assert got[0, 0, 12] == fam.is_quotient


def _separation(fam, n_t, n_theta):
    # least image distance of non-adjacent samples on an n_t x n_theta
    # cell-centre grid, and a tenth of the smallest image edge.  A theta
    # shift turns each plane of the map rigidly, an isometry of the image,
    # so sample (i1, j1) is as far from (i2, j2) as (i1, 0) from
    # (i2, j2 - j1 mod n_theta): one (n_t, n_t, n_theta) table of squared
    # distances holds every pair
    t, theta, dt, dth = _cell_centres(fam, n_t, n_theta)
    grid = _position(fam, t[:, None], theta)
    table = np.zeros((n_t, n_t, n_theta))
    for i in range(fam.ambient_dim):
        table += np.square(grid[:, 0, i, None, None] - grid[None, :, :, i])
    table[_adjacent(fam, t, theta, dt, dth)] = math.inf
    edge = min(
        np.min(np.linalg.norm(np.diff(grid, axis=0), axis=-1)),
        np.min(np.linalg.norm(grid - np.roll(grid, 1, axis=1), axis=-1)),
    )
    return math.sqrt(float(np.min(table))), 0.1 * float(edge)


def _brute_separation(fam, n_t, n_theta):
    # every pair of samples, its distance by np.linalg.norm and its adjacency
    # one pair at a time; returns the least non-adjacent distance and the
    # threshold, a tenth of the shortest image edge
    t, theta, dt, dth = _cell_centres(fam, n_t, n_theta)
    u = evaluate(fam, t[:, None], theta[None, :])[0]
    edge = min(
        np.min(np.linalg.norm(np.diff(u, axis=0), axis=-1)),
        np.min(np.linalg.norm(u - np.roll(u, 1, axis=1), axis=-1)),
    )
    pts = u.reshape(-1, fam.ambient_dim)
    params = [(a, b) for a in t for b in theta]
    first, second = np.triu_indices(len(pts), k=1)
    dist = np.linalg.norm(pts[first] - pts[second], axis=-1)
    for pair in np.argsort(dist, kind="stable"):
        p, q = params[first[pair]], params[second[pair]]
        if not _adjacent_pointwise(fam, p, q, dt, dth):
            return float(dist[pair]), 0.1 * float(edge)
    return math.inf, 0.1 * float(edge)


@pytest.mark.parametrize(
    "fam",
    [annulus_b4(3, 2), annulus_b4(2, 1), mobius_b4(4, 1), catenoid_b3(1)],
    ids=["annulus-3-2", "annulus-2-1", "mobius-4-1", "catenoid-1"],
)
def test_separation_matches_brute_force(fam):
    separation, threshold = _separation(fam, 12, 24)
    ref_separation, ref_threshold = _brute_separation(fam, 12, 24)
    assert abs(separation - ref_separation) <= 1e-15
    assert threshold == pytest.approx(ref_threshold, rel=1e-15)
    assert (separation > threshold) == (ref_separation > ref_threshold)


def _reference_scan(fam):
    # (injective, covering degree) by the grid.  The degree is the order D of
    # the group of theta shifts that fix the image, found numerically (the
    # shift 2 pi / d fixes it exactly when d divides D); a covering is not
    # injective, and otherwise the 48 x 96 scan decides
    T = fam.T_star
    t = np.linspace(-T, T, 17)[:, None]
    th = np.linspace(0.0, 2.0 * math.pi, 33)[None, :]
    u = _position(fam, t, th)

    def fixes(d):
        shifted = _position(fam, t, th + 2.0 * math.pi / d)
        return np.max(np.linalg.norm(shifted - u, axis=-1)) <= 1e-10

    degree = max(d for d in range(1, max(fam.m, fam.n) + 1) if fixes(d))
    if degree > 1:
        return False, degree
    separation, threshold = _separation(fam, 48, 96)
    return separation > threshold, 1


_PAIRS = [(m, n) for m in range(2, 13) for n in range(1, m)]
_ALL = (
    [catenoid_b3(n) for n in range(1, 5)]
    + [annulus_b4(m, n) for m, n in _PAIRS]
    + [mobius_b4(m, n) for m, n in _PAIRS if m % 2 == 0 and n % 2 == 1]
)


@pytest.mark.parametrize("fam", _ALL, ids=[_family_id(f) for f in _ALL])
def test_report_matches_reference_scan(fam):
    report = injectivity_scan(fam)
    assert (report.injective, report.covering_degree) == _reference_scan(fam)


@pytest.mark.parametrize("fam", _ALL, ids=[_family_id(f) for f in _ALL])
def test_predicted_double_points_coincide(fam):
    # the double points the report predicts, at seeded parameters: the
    # covering (t, th) ~ (t, th + 2 pi/g); for m/g even the mirror
    # (t, th) ~ (-t, th + pi/g), the band's own identification or the
    # annulus's double cover; and the core circle (0, th) ~ (0, th + 2 pi/m),
    # whose m preimages of a point (m/2 on the band, where th is taken mod
    # pi) are the report's core_sheets * g.  The rounding of cos and sin at
    # arguments up to about 75 reaches 2.5e-14.
    rng = np.random.default_rng(13)
    T = fam.T_star
    t = rng.uniform(-T, T, 64)
    th = rng.uniform(0.0, 2.0 * math.pi, 64)
    report = injectivity_scan(fam)
    g = report.covering_degree

    def gap(t1, th1, t2, th2):
        return float(np.max(np.abs(_position(fam, t1, th1) - _position(fam, t2, th2))))

    assert gap(t, th, t, th + 2.0 * math.pi / g) <= 1e-13
    if fam.ambient_dim == 4 and (fam.m // g) % 2 == 0:
        assert gap(t, th, -t, th + math.pi / g) <= 1e-13
    core = report.core_sheets * g * (2 if fam.is_quotient else 1)
    assert core == (fam.m if fam.ambient_dim == 4 else fam.n)
    zero = np.zeros_like(th)
    assert gap(zero, th, zero, th + 2.0 * math.pi / core) <= 1e-13


_COPRIME = [(m, n) for m in range(2, 9) for n in range(1, m) if math.gcd(m, n) == 1]
# injective off the core circle; of these only catenoid_b3(1) and
# mobius_b4(2, 1) have one core sheet
_INJECTIVE = (
    [catenoid_b3(1)]
    + [annulus_b4(m, n) for m, n in _COPRIME if m % 2 == 1]
    + [mobius_b4(m, n) for m, n in _COPRIME if m % 2 == 0]
)


def test_only_two_coprime_families_are_embedded():
    # the 30 coprime pairs with m <= 8 as annuli and (m even) as bands, and
    # the catenoid: embedded means injective with one core sheet
    families = (
        [catenoid_b3(1)]
        + [annulus_b4(m, n) for m, n in _COPRIME]
        + [mobius_b4(m, n) for m, n in _COPRIME if m % 2 == 0]
    )
    assert len(families) == 31
    reports = [injectivity_scan(fam) for fam in families]
    embedded = [f for f, r in zip(families, reports) if r.injective and r.core_sheets == 1]
    assert embedded == [catenoid_b3(1), mobius_b4(2, 1)]


@pytest.mark.parametrize(
    "fam", _INJECTIVE, ids=[f"{f.family.value}-{f.m}-{f.n}" for f in _INJECTIVE]
)
def test_embedded_separation_is_finite_and_clears_threshold(fam):
    report = injectivity_scan(fam)
    assert report.injective and report.covering_degree == 1
    separation, threshold = _separation(fam, 48, 96)
    assert threshold < separation < math.inf


@pytest.mark.parametrize("m, n", [(m, n) for m, n in _COPRIME if m % 2 == 0])
def test_mirror_double_cover_separation_vanishes(m, n):
    # the annulus factors through the half-turn (t, th) ~ (-t, th + pi), which
    # maps the cell centres onto themselves: two samples share an image point
    fam = annulus_b4(m, n)
    assert not injectivity_scan(fam).injective
    assert _separation(fam, 48, 96)[0] < 1e-15


@pytest.mark.parametrize("value", [2.5, math.inf, math.nan])
@pytest.mark.parametrize(
    "build",
    [
        catenoid_b3,
        lambda v: annulus_b4(v, 2),
        lambda v: annulus_b4(5, v),
        lambda v: mobius_b4(v, 1),
        lambda v: mobius_b4(4, v),
    ],
    ids=["catenoid_n", "annulus_m", "annulus_n", "mobius_m", "mobius_n"],
)
def test_family_modes_refuse_fractions_and_non_finite(build, value):
    # a fractional mode must not truncate to a different surface, and inf or
    # NaN must not escape as OverflowError or ValueError
    with pytest.raises(ParameterError, match="must be an integer"):
        build(value)


@pytest.mark.parametrize("family", ["annulus", None, 2], ids=repr)
def test_make_family_refuses_a_family_that_is_not_a_kind(family):
    # "annulus" used to fall through to mobius_b4 and its parity message
    with pytest.raises(ParameterError, match=f"^family must be a FamilyKind, got {family!r}$"):
        surfaces.make_family(family, 3, 2)
