"""Every public entry point refuses bad numbers with a SteklovError.

One table names each entry point's numeric parameters and the values each
must refuse.  A call changes one parameter at a time from valid arguments,
and must raise a SteklovError subclass: no other exception, no warning, no
NaN result.  The rules themselves live in `steklov.exceptions`.
"""

import math
import warnings

import pytest

from steklov.branches import (
    Branch,
    BranchKind,
    SurfaceKind,
    branch_value,
    crossing_lattice,
    lambda_bar,
    mu_bar,
    sigma_bar,
    sigma_bar_grid,
    spectrum,
)
from steklov.crossings import aux_inequalities, crossing_partials, solve_crossing
from steklov.dtn import OracleProblem, closed_form_sigma, convergence_study, oracle_spectrum
from steklov.exceptions import (
    DomainError,
    SteklovError,
    _check_index,
    _check_integer,
    _check_modulus,
    _check_positive,
)
from steklov.extrema import (
    critical_set,
    grid_supremum,
    sup_sigma_annulus,
    sup_sigma_mobius,
    verify_first_intersection_max,
    verify_no_asymptote,
)
from steklov.kinds import FamilyKind, MeshFormat
from steklov.mesh import build_mesh, export_mesh
from steklov.surfaces import annulus_b4, catenoid_b3, evaluate, make_family, mobius_b4

AN, MB = SurfaceKind.ANNULUS, SurfaceKind.MOBIUS_BAND

# No huge integers here: a count or a mode index of 10**400 is an integer the
# library would try to honour, allocating that many items.
INTEGER = [math.nan, math.inf, -math.inf, 0, -1, 2.5]
REAL = [math.nan, math.inf, -math.inf, 0.0, -1.0, 10**400]
# the closed forms have a limit as T -> inf, which `_check_modulus` allows
MODULUS = [v for v in REAL if v != math.inf]
# the catenoid takes n alone: any m at all is refused
CATENOID_M = [math.nan, 0, -3, 2.5, 7, 10**400]
# a mode that make_family's family takes must be given
FAMILY_MODE = INTEGER + [None]
# t and theta of a point: 0 and -1 lie in the domain (|t| <= T* > 1)
COORDINATE = [math.nan, math.inf, -math.inf, 10**400]

# an enum argument given by its value, by a member of another enum or by a
# number is refused, not read as some member
NOT_A_KIND = ["mobius", "annulus", FamilyKind.MOBIUS_B4, 1]
NOT_A_FORMAT = ["obj", "ply", "csv", "stl", 3, SurfaceKind.ANNULUS]

BAND = mobius_b4(2, 1)
CATENOID = catenoid_b3(1)


def _problem(kind, T=1.0, n_t=8, n_theta=8, boundary_weight=1.0):
    return OracleProblem(kind=kind, T=T, grid=(n_t, n_theta), boundary_weight=boundary_weight)


def _export(n_t=4, n_theta=6, axis=2, fmt=MeshFormat.OBJ, path=None):
    return export_mesh(BAND, n_t, n_theta, fmt, path, projection=(0, 1, axis))


# entry point -> (call taking keyword arguments, {parameter: values it refuses});
# each call's defaults are valid arguments
TABLE = {
    "lambda_bar": (
        lambda kind, mode_index=1, T=1.0: lambda_bar(kind, mode_index, T),
        {"mode_index": INTEGER, "T": MODULUS},
    ),
    "mu_bar": (
        lambda kind, mode_index=1, T=1.0: mu_bar(kind, mode_index, T),
        {"mode_index": INTEGER, "T": MODULUS},
    ),
    # odd mode 1 is carried by both kinds
    "branch_value": (
        lambda kind, mode=1, T=1.0: branch_value(kind, Branch(BranchKind.ODD_HYPERBOLIC, mode), T),
        {"mode": INTEGER, "T": MODULUS},
    ),
    "sigma_bar": (lambda kind, j=1, T=1.0: sigma_bar(kind, j, T), {"j": INTEGER, "T": REAL}),
    "spectrum": (
        lambda kind, T=1.0, count=3: spectrum(kind, T, count),
        {"T": REAL, "count": INTEGER},
    ),
    "sigma_bar_grid": (
        lambda kind, j_max=3, T=1.0: sigma_bar_grid(kind, j_max, T),
        {"j_max": INTEGER, "T": REAL},
    ),
    "crossing_lattice": (
        lambda kind, max_mode=2: crossing_lattice(kind, max_mode),
        {"max_mode": INTEGER},
    ),
    "critical_set": (
        lambda kind, max_mode=2: critical_set(kind, max_mode),
        {"max_mode": INTEGER},
    ),
    "grid_supremum": (lambda kind, j=1: grid_supremum(kind, j), {"j": INTEGER}),
    "sup_sigma_mobius": (lambda kind, j=1: sup_sigma_mobius(j), {"j": INTEGER}),
    "sup_sigma_annulus": (lambda kind, j=1: sup_sigma_annulus(j), {"j": INTEGER}),
    "verify_first_intersection_max": (
        lambda kind, max_mode=2: verify_first_intersection_max(max_mode),
        {"max_mode": INTEGER},
    ),
    "verify_no_asymptote": (
        lambda kind, max_even=2: verify_no_asymptote(max_even),
        {"max_even": INTEGER},
    ),
    "solve_crossing": (lambda kind, a=2.0, b=1.0: solve_crossing(a, b), {"a": REAL, "b": REAL}),
    "crossing_partials": (
        lambda kind, a=2.0, b=1.0: crossing_partials(a, b),
        {"a": REAL, "b": REAL},
    ),
    "aux_inequalities": (lambda kind, t=1.0: aux_inequalities(t), {"t": REAL}),
    "OracleProblem": (
        _problem,
        {"T": REAL, "n_t": INTEGER, "n_theta": INTEGER, "boundary_weight": REAL},
    ),
    # a grid past the double range, or whose dense operator NumPy cannot address
    "OracleProblem(grid)": (_problem, {"n_t": [10**400], "n_theta": [10**20]}),
    "oracle_spectrum": (
        lambda kind, count=3: oracle_spectrum(_problem(kind), count),
        {"count": INTEGER},
    ),
    "oracle_spectrum(kind)": (
        lambda kind, surface=MB: oracle_spectrum(_problem(surface), 3),
        {"surface": NOT_A_KIND},
    ),
    "closed_form_sigma": (
        lambda kind, T=1.0, f=1.0, count=3: closed_form_sigma(kind, T, f, count),
        {"T": REAL, "f": REAL, "count": INTEGER},
    ),
    "convergence_study": (
        lambda kind, n_t=8, n_eigs=2: convergence_study(
            _problem(kind), [(n_t, 8), (16, 16), (32, 32)], n_eigs=n_eigs
        ),
        {"n_t": INTEGER, "n_eigs": INTEGER},
    ),
    "catenoid_b3": (lambda kind, n=1: catenoid_b3(n), {"n": INTEGER}),
    "annulus_b4": (lambda kind, m=2, n=1: annulus_b4(m, n), {"m": INTEGER, "n": INTEGER}),
    "mobius_b4": (lambda kind, m=2, n=1: mobius_b4(m, n), {"m": INTEGER, "n": INTEGER}),
    "make_family(catenoid)": (
        lambda kind, m=None, n=1: make_family(FamilyKind.CATENOID_B3, m=m, n=n),
        {"m": CATENOID_M, "n": FAMILY_MODE},
    ),
    "make_family(annulus)": (
        lambda kind, m=2, n=1: make_family(FamilyKind.ANNULUS_B4, m=m, n=n),
        {"m": FAMILY_MODE, "n": FAMILY_MODE},
    ),
    "make_family(mobius)": (
        lambda kind, m=2, n=1: make_family(FamilyKind.MOBIUS_B4, m=m, n=n),
        {"m": FAMILY_MODE, "n": FAMILY_MODE},
    ),
    "evaluate": (
        lambda kind, t=0.5, theta=0.5: evaluate(CATENOID, t, theta),
        {"t": COORDINATE, "theta": COORDINATE},
    ),
    # a finite theta whose product with a theta-mode overflows: mode 2 on the band
    "evaluate(band)": (
        lambda kind, theta=0.5: evaluate(BAND, 0.5, theta),
        {"theta": [1e308, -1e308]},
    ),
    "build_mesh": (
        lambda kind, n_t=4, n_theta=6: build_mesh(BAND, n_t, n_theta),
        {"n_t": INTEGER, "n_theta": INTEGER},
    ),
    # axis 0 repeats the first axis, so every value below is refused
    "export_mesh": (
        lambda kind, **kwargs: _export(**kwargs),
        {"n_t": INTEGER, "n_theta": INTEGER, "axis": INTEGER, "fmt": NOT_A_FORMAT},
    ),
}

# the entry points that take no surface kind run once, on the band
KINDLESS = {
    "sup_sigma_mobius", "sup_sigma_annulus", "verify_first_intersection_max",
    "verify_no_asymptote", "solve_crossing", "crossing_partials", "aux_inequalities",
    "catenoid_b3", "annulus_b4", "mobius_b4", "make_family(catenoid)", "make_family(annulus)",
    "make_family(mobius)", "evaluate", "evaluate(band)", "build_mesh", "export_mesh",
    "oracle_spectrum(kind)",
}
KINDS = {name: (MB,) if name in KINDLESS else (AN, MB) for name in TABLE}

CASES = [
    pytest.param(name, kind, param, value, id=f"{name}-{kind.value}-{param}={value!r}")
    for name, (_, params) in TABLE.items()
    for kind in KINDS[name]
    for param, values in params.items()
    for value in values
]
# the kind column: every entry point that takes a surface kind refuses one
# that is not a SurfaceKind, its other arguments at their defaults
CASES += [
    pytest.param(name, value, "kind", value, id=f"{name}-kind={value!r}")
    for name in TABLE
    if name not in KINDLESS
    for value in NOT_A_KIND
]


@pytest.mark.parametrize("name, kind, param, value", CASES)
def test_entry_point_refuses_bad_value(tmp_path, name, kind, param, value):
    call, _ = TABLE[name]
    kwargs = {} if param == "kind" else {param: value}
    if name == "export_mesh":
        kwargs["path"] = str(tmp_path / "mesh.obj")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SteklovError):
            call(kind, **kwargs)
    if name == "export_mesh":
        assert not (tmp_path / "mesh.obj").exists()


@pytest.mark.parametrize(
    "name, kind", [(name, kind) for name in sorted(TABLE) for kind in KINDS[name]]
)
def test_entry_point_defaults_are_valid(tmp_path, name, kind):
    # the table's base arguments must pass, or every refusal above is vacuous
    call, _ = TABLE[name]
    kwargs = {"path": str(tmp_path / "mesh.obj")} if name == "export_mesh" else {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(kind, **kwargs)


def test_rules_return_plain_numbers():
    assert _check_integer(8.0, "n") == 8 and type(_check_integer(8.0, "n")) is int
    assert _check_index(True, "j") == 1
    assert _check_modulus(math.inf) == math.inf
    assert _check_positive(3, "x") == 3.0 and type(_check_positive(3, "x")) is float


@pytest.mark.parametrize(
    "rule, value, message",
    [
        (_check_positive, 10**400, "^x exceeds the double range$"),
        (_check_positive, math.nan, "^x must be positive and finite, got nan$"),
        (_check_positive, -math.inf, "^x must be positive and finite, got -inf$"),
        (_check_positive, 0, r"^x must be positive and finite, got 0\.0$"),
        (_check_integer, 2.5, r"^x must be an integer, got 2\.5$"),
        (_check_integer, math.inf, "^x must be an integer, got inf$"),
        (_check_index, 0, "^x must be >= 1, got 0$"),
    ],
)
def test_rule_messages(rule, value, message):
    with pytest.raises(DomainError, match=message):
        rule(value, "x")


@pytest.mark.parametrize(
    "T, message", [(10**400, "exceeds the double range$"), (0.0, r"must be positive, got 0\.0$")]
)
def test_modulus_rule_messages(T, message):
    with pytest.raises(DomainError, match=f"^conformal modulus {message}"):
        _check_modulus(T)
