"""Steklov eigenvalues of S^1-invariant metrics on the annulus and Mobius band.

Closed-form normalized eigenvalue branches on flat cylinders and their
half-turn quotients, the crossing lattice of increasing and decreasing
branches, suprema and critical metrics of the normalized eigenvalues,
explicit free boundary minimal immersions into the unit ball with their
certification identities, mesh export, and an independent finite-difference
Dirichlet-to-Neumann oracle.

``import steklov`` loads no submodule and no NumPy.  Each public name below
is imported from the module that owns it on first access (PEP 562) and then
bound here, so later accesses are plain attribute reads.
"""

import importlib

# Owning module of every public name.
_EXPORTS = {
    "branches": (
        "Branch",
        "BranchKind",
        "EigenvalueEntry",
        "LatticeCrossing",
        "branch_value",
        "crossing_lattice",
        "lambda_bar",
        "mu_bar",
        "nu_bar",
        "sigma_bar",
        "sigma_bar_grid",
        "spectrum",
    ),
    "crossings": (
        "AuxInequalities",
        "CrossingPartials",
        "CrossingPoint",
        "aux_inequalities",
        "crossing_partials",
        "solve_crossing",
        "solve_t10",
    ),
    "dtn": (
        "ConvergenceReport",
        "DtNMatrix",
        "OracleProblem",
        "assemble_dtn",
        "closed_form_sigma",
        "convergence_study",
        "oracle_spectrum",
        "rayleigh_quotient",
    ),
    "exceptions": (
        "ConstraintError",
        "DomainError",
        "NoCrossingError",
        "ParameterError",
        "SteklovError",
        "UnsupportedBranchError",
    ),
    "extrema": (
        "Character",
        "CriticalMetric",
        "SupremumResult",
        "critical_set",
        "grid_supremum",
        "sup_sigma_annulus",
        "sup_sigma_mobius",
        "verify_first_intersection_max",
        "verify_no_asymptote",
    ),
    "kinds": ("FamilyKind", "MeshFormat", "SurfaceKind"),
    "mesh": ("SurfaceMesh", "build_mesh", "export_mesh"),
    "surfaces": (
        "IdentityReport",
        "ImmersionFamily",
        "InjectivityReport",
        "QFormSample",
        "annulus_b4",
        "boundary_eigenvalue_factor",
        "catenoid_b3",
        "covering_degree",
        "evaluate",
        "injectivity_scan",
        "make_admissible",
        "make_family",
        "mobius_b4",
        "q_form_components",
        "q_form_sum",
        "verify_identities",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)

__version__ = "1.0.0"


def __getattr__(name):
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _OWNER.keys())
