"""The package namespace: public names load their modules on first access."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steklov

# Every public name and the module that defines it.
PUBLIC = {
    "AuxInequalities": "crossings",
    "Branch": "branches",
    "BranchKind": "branches",
    "Character": "extrema",
    "ConstraintError": "exceptions",
    "ConvergenceReport": "dtn",
    "CriticalMetric": "extrema",
    "CrossingPartials": "crossings",
    "CrossingPoint": "crossings",
    "DomainError": "exceptions",
    "DtNMatrix": "dtn",
    "EigenvalueEntry": "branches",
    "FamilyKind": "kinds",
    "IdentityReport": "surfaces",
    "ImmersionFamily": "surfaces",
    "InjectivityReport": "surfaces",
    "LatticeCrossing": "branches",
    "MeshFormat": "kinds",
    "NoCrossingError": "exceptions",
    "OracleProblem": "dtn",
    "ParameterError": "exceptions",
    "QFormSample": "surfaces",
    "SteklovError": "exceptions",
    "SupremumResult": "extrema",
    "SurfaceKind": "kinds",
    "SurfaceMesh": "mesh",
    "UnsupportedBranchError": "exceptions",
    "annulus_b4": "surfaces",
    "assemble_dtn": "dtn",
    "aux_inequalities": "crossings",
    "boundary_eigenvalue_factor": "surfaces",
    "branch_value": "branches",
    "build_mesh": "mesh",
    "catenoid_b3": "surfaces",
    "closed_form_sigma": "dtn",
    "convergence_study": "dtn",
    "covering_degree": "surfaces",
    "critical_set": "extrema",
    "crossing_lattice": "branches",
    "crossing_partials": "crossings",
    "evaluate": "surfaces",
    "export_mesh": "mesh",
    "grid_supremum": "extrema",
    "injectivity_scan": "surfaces",
    "lambda_bar": "branches",
    "make_admissible": "surfaces",
    "make_family": "surfaces",
    "mobius_b4": "surfaces",
    "mu_bar": "branches",
    "nu_bar": "branches",
    "oracle_spectrum": "dtn",
    "q_form_components": "surfaces",
    "q_form_sum": "surfaces",
    "rayleigh_quotient": "dtn",
    "sigma_bar": "branches",
    "sigma_bar_grid": "branches",
    "solve_crossing": "crossings",
    "solve_t10": "crossings",
    "spectrum": "branches",
    "sup_sigma_annulus": "extrema",
    "sup_sigma_mobius": "extrema",
    "verify_first_intersection_max": "extrema",
    "verify_identities": "surfaces",
    "verify_no_asymptote": "extrema",
}

LIBRARY = ("branches", "crossings", "dtn", "extrema", "mesh", "numtext", "surfaces")


def test_public_names_are_the_owning_modules_objects(monkeypatch):
    assert len(PUBLIC) == 64
    assert sorted(steklov.__all__) == sorted(PUBLIC)
    for name, module in PUBLIC.items():
        owner = importlib.import_module(f"steklov.{module}")
        # drop any binding an earlier access made, so this access is the first
        monkeypatch.delitem(vars(steklov), name, raising=False)
        assert getattr(steklov, name) is getattr(owner, name), name
        assert name in vars(steklov), name


def test_dir_and_star_import_cover_every_public_name():
    assert set(PUBLIC) <= set(dir(steklov))
    namespace: dict = {}
    exec("from steklov import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == {
        name: getattr(steklov, name) for name in PUBLIC
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        steklov.no_such_name


def test_enums_are_one_object_in_every_home():
    from steklov import branches, mesh, surfaces

    assert branches.SurfaceKind is steklov.SurfaceKind
    assert surfaces.FamilyKind is steklov.FamilyKind
    assert mesh.MeshFormat is steklov.MeshFormat


def test_import_and_cli_load_only_what_a_command_uses():
    # a fresh interpreter: the import, --help and a usage error load neither
    # NumPy nor a library module; a valid spectrum call loads only its own
    src = str(Path(steklov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import contextlib, io, json, sys\n"
        "import steklov, steklov.cli\n"
        f"names = ['numpy'] + ['steklov.' + m for m in {list(LIBRARY)!r}]\n"
        "def loaded():\n"
        "    return [m for m in names if m in sys.modules]\n"
        "out = {'import': loaded()}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    out['help_code'] = steklov.cli.run(['spectrum', '--help'])\n"
        "out['help'] = loaded()\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    out['usage_code'] = steklov.cli.run(['spectrum', '--kind', 'torus', '--T', '1'])\n"
        "out['usage'] = loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    out['spectrum_code'] = steklov.cli.run(['spectrum', '--kind', 'mobius', '--T', '1'])\n"
        "out['spectrum'] = loaded()\n"
        "print(json.dumps(out))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    out = json.loads(proc.stdout)
    assert out["import"] == []
    assert (out["help_code"], out["help"]) == (0, [])
    assert (out["usage_code"], out["usage"]) == (1, [])
    assert out["spectrum_code"] == 0
    assert "steklov.branches" in out["spectrum"]
    for module in ("dtn", "mesh", "numtext", "surfaces", "extrema"):
        assert f"steklov.{module}" not in out["spectrum"]
