"""CLI contract: exit codes, output formats, and value round-trips."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steklov
from steklov.branches import SurfaceKind, crossing_lattice, sigma_bar
from steklov.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, run
from steklov.crossings import solve_crossing
from steklov.dtn import OracleProblem, oracle_spectrum


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_csv(capsys):
    code, out, _ = _run(
        capsys, "spectrum", "--kind", "mobius", "--T", "0.7", "--count", "5", "--csv"
    )
    assert code == EXIT_OK
    rows = list(csv.reader(out.strip().splitlines()))
    assert rows[0] == ["index", "value", "branch", "mode", "multiplicity"]
    body = rows[1:]
    assert [r[0] for r in body] == ["1", "2", "3", "4", "5"]
    # indices 1,2 share the first coth branch value (mode 1, multiplicity 2)
    assert body[0][1] == body[1][1]
    assert float(body[0][1]) == pytest.approx(
        2.0 * math.pi / math.tanh(0.7), rel=1e-15
    )
    assert body[0][2] == "odd_hyperbolic" and body[0][3] == "1"


def test_spectrum_json_round_trip(capsys):
    code, out, _ = _run(
        capsys, "spectrum", "--kind", "annulus", "--T", "1.0", "--count", "6", "--json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    values = [r["value"] for r in payload["spectrum"]]
    # 17 significant digits make the JSON exact
    assert values[0] == 4.0 * math.pi * math.tanh(1.0)
    linear = [r for r in payload["spectrum"] if r["branch"] == "linear"]
    assert linear and linear[0]["value"] == 4.0 * math.pi / 1.0


def test_sweep_branch_switch(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, _, _ = _run(
        capsys,
        "sweep",
        "--kind",
        "mobius",
        "--j",
        "1",
        "--t-min",
        "0.3",
        "--t-max",
        "1.2",
        "--steps",
        "240",
        "--out",
        str(path),
    )
    assert code == EXIT_OK
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert set(rows[0]) == {"T", "sigma_bar_1", "branch_1"}
    t11 = solve_crossing(2.0, 1.0).x
    labels = [(float(r["T"]), r["branch_1"]) for r in rows]
    # below the first crossing the even branch leads; above it the odd branch
    switches = sum(
        1 for (_, a), (_, b) in zip(labels, labels[1:]) if a != b
    )
    assert switches == 1
    for T, label in labels:
        expected = "even_hyperbolic:2" if T < t11 else "odd_hyperbolic:1"
        assert label == expected
    # values round-trip through the 17g formatting
    first = rows[0]
    assert float(first["sigma_bar_1"]) == pytest.approx(
        4.0 * math.pi * math.tanh(2.0 * float(first["T"])), rel=1e-15
    )


def test_crossings_json(capsys):
    code, out, _ = _run(
        capsys, "crossings", "--kind", "mobius", "--max-mode", "2", "--json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    recs = {(r["k"], r["l"]): r for r in payload["crossings"]}
    assert set(recs) == {(1, 1), (2, 1), (2, 2)}
    assert recs[(1, 1)]["modulus"] == pytest.approx(
        math.atanh(1.0 / math.sqrt(3.0)), abs=1e-14
    )
    assert recs[(1, 1)]["normalized_value"] == pytest.approx(
        2.0 * math.pi * math.sqrt(3.0), rel=1e-14
    )
    assert all(abs(r["residual"]) < 1e-12 for r in recs.values())


def test_crossings_annulus_includes_linear(capsys):
    code, out, _ = _run(
        capsys, "crossings", "--kind", "annulus", "--max-mode", "3", "--json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    linear = [r for r in payload["crossings"] if r["n"] == 0]
    assert [r["m"] for r in linear] == [1, 2, 3]
    assert linear[0]["modulus"] == pytest.approx(1.1996786402577338, rel=1e-14)


def test_suprema_json(capsys):
    code, out, _ = _run(capsys, "suprema", "--kind", "mobius", "--j", "1", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(10.882796185405307, rel=1e-15)
    assert payload["attained"] is True
    assert payload["modulus"] == pytest.approx(0.65847894846240835, rel=1e-14)


def test_suprema_unattained_null_modulus(capsys):
    code, out, _ = _run(capsys, "suprema", "--kind", "annulus", "--j", "2", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert payload["attained"] is False
    assert payload["modulus"] is None


def test_critical_set_json(capsys):
    code, out, _ = _run(
        capsys, "critical-set", "--kind", "mobius", "--max-mode", "2", "--json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    records = payload["critical_set"]
    assert all(r["eigen_multiplicity"] == 4 for r in records)
    assert {r["character"] for r in records} == {"local_max", "local_min"}


def test_surface_export(capsys, tmp_path):
    path = tmp_path / "band.obj"
    code, _, err = _run(
        capsys,
        "surface",
        "--family",
        "mobius",
        "--m",
        "2",
        "--n",
        "1",
        "--grid",
        "16x32",
        "--out",
        str(path),
    )
    assert code == EXIT_OK
    assert path.exists()
    assert "vertices" in err


def test_oracle_json(capsys):
    code, out, _ = _run(
        capsys,
        "oracle",
        "--kind",
        "annulus",
        "--T",
        "1.0",
        "--grid",
        "40x40",
        "--count",
        "4",
        "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    eigs = payload["eigenvalues"]
    ref = payload["closed_form"]
    # the CLI prints the library's spectrum; 17 digits round-trip it exactly
    problem = OracleProblem(kind=SurfaceKind.ANNULUS, T=1.0, grid=(40, 40))
    assert np.array_equal(eigs, oracle_spectrum(problem, 4))
    assert abs(eigs[0]) <= 1e-10
    assert np.max(np.abs(np.array(eigs[1:]) - np.array(ref[1:]))) <= 5e-2


def test_verify_suite_passes(capsys):
    code, out, _ = _run(capsys, "verify", "--suite", "injectivity")
    assert code == EXIT_OK
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_usage_errors_exit_one(capsys):
    assert _run(capsys, "spectrum", "--kind", "mobius")[0] == EXIT_USAGE  # no --T
    assert _run(capsys, "nonsense")[0] == EXIT_USAGE
    assert (
        _run(capsys, "spectrum", "--kind", "mobius", "--T", "-1", "--csv")[0]
        == EXIT_USAGE
    )
    assert (
        _run(capsys, "suprema", "--kind", "mobius", "--j", "0", "--json")[0]
        == EXIT_USAGE
    )
    assert (
        _run(
            capsys,
            "oracle",
            "--kind",
            "annulus",
            "--T",
            "1.0",
            "--grid",
            "banana",
        )[0]
        == EXIT_USAGE
    )


def _assert_one_error_line(code, out, err):
    assert code == EXIT_USAGE
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("max_mode", ["0", "-2"])
def test_crossings_rejects_nonpositive_max_mode(capsys, max_mode):
    _assert_one_error_line(
        *_run(capsys, "crossings", "--kind", "mobius", "--max-mode", max_mode)
    )


@pytest.mark.parametrize("j", ["x", "1,,2", "0"])
def test_sweep_rejects_bad_indices(capsys, j):
    _assert_one_error_line(
        *_run(capsys, "sweep", "--kind", "annulus", "--j", j, "--steps", "3")
    )


def test_surface_rejects_bad_projection(capsys, tmp_path):
    _assert_one_error_line(
        *_run(
            capsys,
            "surface",
            "--family",
            "mobius",
            "--m",
            "2",
            "--n",
            "1",
            "--grid",
            "4x6",
            "--projection",
            "a",
            "--out",
            str(tmp_path / "band.obj"),
        )
    )
    assert not (tmp_path / "band.obj").exists()


@pytest.mark.parametrize(
    "family, projection, fmt",
    [
        (["catenoid", "--n", "2"], "0,1", "obj"),
        (["catenoid", "--n", "2"], "0,1,3", "ply"),
        (["catenoid", "--n", "2"], "2,2,0", "csv"),
        (["mobius", "--m", "2", "--n", "1"], "9,9,9", "csv"),
    ],
    ids=["catenoid-two-axes", "catenoid-axis-3", "catenoid-repeat", "band-csv-999"],
)
def test_surface_rejects_projection_outside_the_family(capsys, tmp_path, family, projection, fmt):
    out = tmp_path / f"mesh.{fmt}"
    argv = ["surface", "--family", *family, "--grid", "4x6", "--format", fmt]
    _assert_one_error_line(*_run(capsys, *argv, "--projection", projection, "--out", str(out)))
    assert not out.exists()


@pytest.mark.parametrize(
    "modes",
    [
        ("annulus", "--m", str(10**400), "--n", "1"),
        ("catenoid", "--n", str(10**400)),
        ("mobius", "--m", str(2 * 10**400), "--n", "1"),
    ],
    ids=["annulus", "catenoid", "mobius"],
)
def test_surface_rejects_modes_past_the_double_range(capsys, tmp_path, modes):
    out = tmp_path / "x.obj"
    code, stdout, err = _run(capsys, "surface", "--family", *modes, "--grid", "8x8", "--out", str(out))
    _assert_one_error_line(code, stdout, err)
    assert err == "error: mode exceeds the double range\n"
    assert not out.exists()


def test_surface_refuses_m_for_the_catenoid(capsys, tmp_path):
    # the catenoid has one frequency, n; an m used to be dropped unread
    out = tmp_path / "x.obj"
    argv = ["surface", "--family", "catenoid", "--m", "7", "--n", "2", "--grid", "4x6"]
    code, stdout, err = _run(capsys, *argv, "--out", str(out))
    _assert_one_error_line(code, stdout, err)
    assert err == "error: catenoid family takes n alone, not m\n"
    assert not out.exists()


def test_surface_permutes_catenoid_axes(capsys, tmp_path):
    first = {}
    for projection in ("0,1,2", "2,1,0"):
        out = tmp_path / f"cat-{projection}.obj"
        argv = ["surface", "--family", "catenoid", "--n", "2", "--grid", "4x6"]
        code, _, _ = _run(capsys, *argv, "--projection", projection, "--out", str(out))
        assert code == EXIT_OK
        first[projection] = out.read_text().splitlines()[0].split()[1:]
    assert first["2,1,0"] == first["0,1,2"][::-1]


def test_surface_rejects_mobius_grid_below_six_columns(capsys, tmp_path):
    # the half-turn weld of a 4-column grid makes the core a 2-gon
    out = tmp_path / "band.obj"
    argv = ["surface", "--family", "mobius", "--m", "2", "--n", "1", "--grid", "3x4"]
    _assert_one_error_line(*_run(capsys, *argv, "--out", str(out)))
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--kind", "annulus", "--steps", "1"],
        ["sweep", "--kind", "mobius", "--t-min", "2", "--t-max", "1"],
        ["surface", "--family", "catenoid", "--grid", "4x6"],
        ["surface", "--family", "annulus", "--n", "1", "--grid", "4x6"],
        ["surface", "--family", "mobius", "--m", "2", "--grid", "4x6"],
    ],
    ids=["sweep-one-step", "sweep-t-min-above-t-max", "catenoid-no-n", "annulus-no-m", "mobius-no-n"],
)
def test_refused_arguments_write_no_file(capsys, tmp_path, argv):
    out = tmp_path / "out"
    _assert_one_error_line(*_run(capsys, *argv, "--out", str(out)))
    assert not out.exists()


def _unwritable_paths(tmp_path, name):
    # a file in a missing directory, and an existing directory
    return [tmp_path / "missing" / name, tmp_path]


@pytest.mark.parametrize("which", [0, 1], ids=["missing-dir", "directory"])
def test_sweep_unwritable_out_exits_one(capsys, tmp_path, which):
    path = _unwritable_paths(tmp_path, "sweep.csv")[which]
    code, out, err = _run(
        capsys, "sweep", "--kind", "annulus", "--j", "1", "--steps", "3", "--out", str(path)
    )
    _assert_one_error_line(code, out, err)
    assert err.startswith(f"error: cannot write {path}: ")


@pytest.mark.parametrize("which", [0, 1], ids=["missing-dir", "directory"])
def test_surface_unwritable_out_exits_one(capsys, tmp_path, which):
    path = _unwritable_paths(tmp_path, "band.obj")[which]
    code, out, err = _run(
        capsys,
        "surface",
        "--family",
        "mobius",
        "--m",
        "2",
        "--n",
        "1",
        "--grid",
        "4x6",
        "--out",
        str(path),
    )
    _assert_one_error_line(code, out, err)
    assert err.startswith(f"error: cannot write {path}: ")


@pytest.mark.parametrize(
    "grid", ["3x100000000000000000", "100000000000000000x3", "100000000x100000000"]
)
def test_surface_refused_allocation_exits_one(capsys, tmp_path, grid):
    # the vertex count is checked before any grid-sized array is allocated
    path = tmp_path / "big.obj"
    argv = ["surface", "--family", "catenoid", "--n", "2", "--grid", grid, "--out", str(path)]
    code, out, err = _run(capsys, *argv)
    _assert_one_error_line(code, out, err)
    assert err.startswith(f"error: grid {grid} exceeds 2147483647 vertices")
    assert not path.exists()


_SWEEP = ["sweep", "--kind", "annulus", "--j", "1", "--steps"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (_SWEEP + ["100000000000000000000"], "steps must be <= 1152921504606846975"),
        (_SWEEP + ["9223372036854775807"], "steps must be <= 1152921504606846975"),
        (
            ["oracle", "--kind", "mobius", "--T", "1", "--grid", "4x100000000000000000000"],
            "grid 4x100000000000000000000 exceeds 1073741823 boundary nodes",
        ),
    ],
)
def test_oversized_size_exits_one(capsys, tmp_path, argv, message):
    # sizes past what NumPy can address are refused before any allocation
    path = tmp_path / "out.txt"
    code, out, err = _run(capsys, *argv, "--out", str(path))
    _assert_one_error_line(code, out, err)
    assert err.startswith(f"error: {message}")
    assert not path.exists()


def test_surface_memory_error_exits_one(capsys, monkeypatch, tmp_path):
    # a grid inside the vertex bound can still be more than the host holds;
    # the refusal is simulated, so nothing large is allocated
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 48.0 GiB")

    monkeypatch.setattr("steklov.mesh.export_mesh", refuse)
    path = tmp_path / "big.obj"
    grid = "40000x50000"
    argv = ["surface", "--family", "catenoid", "--n", "2", "--grid", grid, "--out", str(path)]
    code, out, err = _run(capsys, *argv)
    _assert_one_error_line(code, out, err)
    assert err == "error: not enough memory: Unable to allocate 48.0 GiB\n"
    assert not path.exists()


def test_verify_rejects_nonpositive_max_mode(capsys):
    _assert_one_error_line(*_run(capsys, "verify", "--suite", "lemmas", "--max-mode", "0"))


@pytest.mark.parametrize("count", ["-3", "0", "17", "40"])
def test_oracle_rejects_count_outside_operator(capsys, count):
    # an 8x8 annulus has 16 boundary nodes
    code, out, err = _run(
        capsys, "oracle", "--kind", "annulus", "--T", "1.0", "--grid", "8x8", "--count", count
    )
    _assert_one_error_line(code, out, err)
    assert err.startswith("error: count must be between 1 and 16 (the operator size)")


@pytest.mark.parametrize("kind", ["annulus", "mobius"])
def test_oracle_rejects_tiny_modulus(capsys, kind):
    # the symbols overflow below T ~ 1e-160 on this grid
    code, out, err = _run(
        capsys, "oracle", "--kind", kind, "--T", "1e-300", "--grid", "8x8", "--count", "2"
    )
    _assert_one_error_line(code, out, err)


def test_oracle_rejects_huge_modulus():
    # h_t * n_theta overflows; in a fresh interpreter, with Python's default
    # warning filters, the refusal is the one stderr line and no RuntimeWarning
    # is printed before it
    src = str(Path(steklov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["oracle", "--kind", "annulus", "--T", "1e308", "--grid", "8x8", "--count", "3"]
    proc = subprocess.run(
        [sys.executable, "-m", "steklov.cli", *argv], env=env, capture_output=True, text=True
    )
    _assert_one_error_line(proc.returncode, proc.stdout, proc.stderr)


@pytest.mark.parametrize("kind", ["annulus", "mobius"])
def test_suprema_at_a_mode_past_1e27(capsys, kind):
    # the root is ~1e-27: the bracket starts at 1/a, not at a fixed width, so
    # bisection narrows it to adjacent doubles around the root
    code, out, _ = _run(capsys, "suprema", "--kind", kind, "--j", str(10**27))
    assert code == EXIT_OK
    assert out.startswith(f"sup sigma_bar_{10**27} ({kind}) = ")


@pytest.mark.parametrize("j", [10**400, 10**400 + 1])
@pytest.mark.parametrize("kind", ["annulus", "mobius"])
def test_suprema_rejects_a_mode_past_the_double_range(capsys, kind, j):
    # odd j on the annulus reaches the linear branch, the others the solver
    _assert_one_error_line(*_run(capsys, "suprema", "--kind", kind, "--j", str(j)))


def test_oracle_full_count(capsys):
    code, out, _ = _run(
        capsys,
        "oracle",
        "--kind",
        "mobius",
        "--T",
        "0.7",
        "--grid",
        "8x8",
        "--count",
        "8",
        "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["eigenvalues"]) == len(payload["closed_form"]) == 8


def test_verify_failure_exits_two(capsys, monkeypatch):
    import steklov.cli as cli

    monkeypatch.setitem(
        cli._SUITES, "injectivity", lambda _m: [("forced failure", False)]
    )
    code, out, _ = _run(capsys, "verify", "--suite", "injectivity")
    assert code == EXIT_VERIFY
    assert "FAIL" in out


@pytest.mark.parametrize(
    "name, kind, j",
    [("sup_sigma_mobius", "mobius", 3), ("sup_sigma_annulus", "annulus", 5),
     ("sup_sigma_annulus", "annulus", 2)],
)
def test_verify_suprema_is_exact(capsys, monkeypatch, name, kind, j):
    # one supremum one ulp high fails its check alone: the suite compares
    # with the critical set bit for bit, where a 1e-9 tolerance would pass it
    import dataclasses

    import steklov.extrema as extrema

    sup = getattr(extrema, name)

    def nudged(i):
        result = sup(i)
        if i != j:
            return result
        return dataclasses.replace(result, value=math.nextafter(result.value, math.inf))

    monkeypatch.setattr(extrema, name, nudged)
    code, out, _ = _run(capsys, "verify", "--suite", "suprema")
    assert code == EXIT_VERIFY
    assert [line for line in out.splitlines() if "[FAIL]" in line] == [
        f"  [FAIL] suprema      {kind} sup sigma_bar_{j} vs critical set"
    ]


def test_verify_suprema_to_mode_20_passes(capsys):
    code, out, _ = _run(capsys, "verify", "--suite", "suprema", "--max-mode", "20")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 81 and lines[-1] == "all checks passed"


def test_verify_surfaces_checks_the_boundary_factor(capsys, monkeypatch):
    # a factor off by 1e-9 leaves every other identity field untouched, and
    # its deviation on annulus(3,2) reads 2.7e-9, past the suite's 1e-10 rule
    import steklov.surfaces as surfaces

    factor = surfaces.boundary_eigenvalue_factor
    monkeypatch.setattr(
        surfaces, "boundary_eigenvalue_factor", lambda fam: factor(fam) * (1.0 + 1e-9)
    )
    code, out, _ = _run(capsys, "verify", "--suite", "surfaces")
    assert code == EXIT_VERIFY
    assert "  [FAIL] surfaces     identities annulus(3,2)" in out.splitlines()
    assert "all checks passed" not in out


# sha256 of `<command> --kind <kind> --max-mode 12 [--json|--csv] --out <file>`,
# whose value columns are sigma_bar at each crossing's modulus, the lower
# branch value there
# recorded under NumPy 2.4.6 with X86_V4 (AVX-512) dispatch; without AVX-512 the
# bits differ: the moduli come from the crossing solver, whose `_gap` reads the
# array `crossings.coth` (np.expm1)
LATTICE_OUTPUT_SHA256 = {
    ("crossings", "mobius", "text"): "2387733ef6b7d7436f27692ade345245404672890d5b56dd0888c947bf068a55",
    ("crossings", "mobius", "json"): "894d65a314639248316b664b226b9e1f10ac4d112a8e839ed5133b0c4ce983b7",
    ("crossings", "mobius", "csv"): "e1f2f9bebd5d31f93bb93feed6c63810b8f45228d3131c8f698206323098133d",
    ("crossings", "annulus", "text"): "7504d53502bb0756de072cce603976cfd308b7b0ed6b94e66ecfd707ab05d602",
    ("crossings", "annulus", "json"): "7111c27dd72cbdfa77f4420623d926447f3f717cd22811679d8b5e67272c219c",
    ("crossings", "annulus", "csv"): "dcdb1e8857a2324ee05729bb58f4372eadad480db6c18af710c808f0ab0399a2",
    ("critical-set", "mobius", "text"): "00538c2bd56daa015128b9227dbcccd87c1dab2a81ee334674a2393f6813b7d5",
    ("critical-set", "mobius", "json"): "8cd3bf3444f221ceae6910d4336ea0cc02ce904e68e3897375f036bc87023d0d",
    ("critical-set", "mobius", "csv"): "7cdc29ffa0ab78a49156acb7c4c4fe28f732299cc16d1e303987c4c1020a5cdc",
    ("critical-set", "annulus", "text"): "aa04628ee771efed779458534da66d7f034af8f75c4f70f6e3adaff914c66d9f",
    ("critical-set", "annulus", "json"): "6ab33f3d3533b8f543e13bd6e95a37225fa7c660d17073e228e2a37eaf65b4c8",
    ("critical-set", "annulus", "csv"): "c3581f788886950fd1b79700911a989db2d6710d31e73712583de553c44d9456",
}


@pytest.mark.parametrize("command,kind,fmt", sorted(LATTICE_OUTPUT_SHA256))
def test_lattice_output_pinned(tmp_path, command, kind, fmt):
    path = tmp_path / "out"
    argv = [command, "--kind", kind, "--max-mode", "12", "--out", str(path)]
    if fmt != "text":
        argv.append(f"--{fmt}")
    assert run(argv) == EXIT_OK
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == LATTICE_OUTPUT_SHA256[command, kind, fmt]


# sha256 of `sweep --kind <kind> --j 8,1,3,2,5 --out <file>` on the default
# grid: each value cell is sigma_bar_j at its row's T, read off the same walk
# as the branch labels.  The moduli and values make no NumPy call (math.exp and
# math.log, math.tanh), so the bits are the same under every NumPy dispatch
SWEEP_SHA256 = {
    "mobius": "f717a333192b7e08fb7a024b8ca0cccabc8050f2cf87283e6760718b2359d89c",
    "annulus": "0a8ebbd178a398a3c73133ecd60e274c2603271e3f5332b10046140fcf8858e5",
}


@pytest.mark.parametrize("kind", sorted(SWEEP_SHA256))
def test_sweep_output_pinned(tmp_path, kind):
    path = tmp_path / "sweep.csv"
    assert run(["sweep", "--kind", kind, "--j", "8,1,3,2,5", "--out", str(path)]) == EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_SHA256[kind]


@pytest.mark.parametrize("kind", ["annulus", "mobius"])
def test_sweep_cells_are_sigma_bar_at_their_modulus(tmp_path, kind):
    path = tmp_path / "sweep.csv"
    assert run(["sweep", "--kind", kind, "--j", "1,2,3,4,5,6", "--out", str(path)]) == EXIT_OK
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 400
    for row in rows:
        T = float(row["T"])
        for j in range(1, 7):
            assert float(row[f"sigma_bar_{j}"]) == sigma_bar(SurfaceKind(kind), j, T), (T, j)


@pytest.mark.parametrize("kind", ["annulus", "mobius"])
def test_crossing_values_are_the_spectrum_at_their_modulus(capsys, kind):
    code, out, _ = _run(capsys, "crossings", "--kind", kind, "--max-mode", "12", "--json")
    assert code == EXIT_OK
    rows = json.loads(out)["crossings"]
    lattice = crossing_lattice(SurfaceKind(kind), 12)
    assert len(rows) == len(lattice) == 78
    for row, c in zip(rows, lattice):
        assert row["modulus"] == c.modulus
        j = c.first_index  # the lowest index of the crossing's cluster
        argv = ["spectrum", "--kind", kind, "--T", repr(row["modulus"]), "--count", str(j)]
        code, out, _ = _run(capsys, *argv, "--json")
        assert code == EXIT_OK
        values = {r["index"]: r["value"] for r in json.loads(out)["spectrum"]}
        assert row["normalized_value"] == values[j], (row, j)


def _pinned_digest(tmp_path, argv, fmt):
    path = tmp_path / "out"
    if fmt != "text":
        argv = [*argv, f"--{fmt}"]
    assert run([*argv, "--out", str(path)]) == EXIT_OK
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of `spectrum --kind <kind> --T <T> --count 12 [--json|--csv] --out <file>`,
# recorded while each subcommand still had its own format dispatch; the values
# come from math.tanh alone, so the bits are the same under every NumPy dispatch
SPECTRUM_SHA256 = {
    ("annulus", "0.7", "text"): "6cfdd901cd985e7c62437167fd7dfa0adbd212d26adaeaa2a93b7415a9595715",
    ("annulus", "0.7", "json"): "6284e166f67920853f34a961d985089c2d56962e07a82157f0d49fe4ac573a0e",
    ("annulus", "0.7", "csv"): "3e8f98bc1f54430b5887ce584b82aa5d57d914c1db3452e69aeb511757ef8d7c",
    ("annulus", "1e-14", "text"): "8e2740ac09937c3768af01d3947b95a68444aa9f516c02ab5373a9a9d543a8b9",
    ("annulus", "1e-14", "json"): "ca83d848fc71364623753643965e42a08dbf95249fba5d0a47d7fefe91bb0e23",
    ("annulus", "1e-14", "csv"): "a3436df7d0eda0793bd2cafdcdd00203773a3e2af7e4a3361f7a96f913059509",
    ("mobius", "0.7", "text"): "1fca670ca821a9f24fe73bb820aa69cad3d87f5a78b8abdc4da83be75c4eb2da",
    ("mobius", "0.7", "json"): "f015cd3aec148d9c30f8f7e6d9d0b9f32d551eee845a8a1ccb79ef9e4c477d9d",
    ("mobius", "0.7", "csv"): "1870c43df36dd08c2bf08dce5d13a06ae603fcaa4021d79245a105e2b9dcb76d",
    ("mobius", "1e-14", "text"): "538c74a5b2b7e8c36eea618bcb5a6a29974abfa47f04dba5f983599906048dcd",
    ("mobius", "1e-14", "json"): "001d7550ee8b1246978a7be31b2659835e2e6ce529d86f5f6bf26605b3d8323b",
    ("mobius", "1e-14", "csv"): "d5bd87acb84c771cf4ba679ab3e9717f7e485065c690728ef7a4f7fd930ff010",
}


@pytest.mark.parametrize("kind,T,fmt", sorted(SPECTRUM_SHA256))
def test_spectrum_output_pinned(tmp_path, kind, T, fmt):
    argv = ["spectrum", "--kind", kind, "--T", T, "--count", "12"]
    assert _pinned_digest(tmp_path, argv, fmt) == SPECTRUM_SHA256[kind, T, fmt]


# sha256 of `suprema --kind <kind> --j <j> [--json] --out <file>`, recorded with
# the spectrum pins; annulus j = 1 again once its value was sigma_bar_1 at
# t10, one ulp below 4*pi/t10.  The values make no NumPy call; the moduli come
# from the crossing solver, and at these j they are the same under every NumPy
# dispatch
SUPREMA_SHA256 = {
    ("annulus", 1, "text"): "b87b6cf34b074d6cefbdaa98b217548c1b6f529d929297708cf6850ceb94fa26",
    ("annulus", 1, "json"): "f9d96f6057b4057ebca8d377beb054d14e2e36c8b6b84fc9d79fd883079138da",
    ("annulus", 2, "text"): "071a79b3ae7a75c05582cd0295d5def31ea5c763f396931f77e4f87b6696188f",
    ("annulus", 2, "json"): "2290a5827b9ec27d28d71fb43e054874d0b4b4256c221b337278d116b3c60b70",
    ("annulus", 8, "text"): "4c90d90d4ca422b47ff7efbed47ae3a05e5324b561288f42e38b763923bf2b74",
    ("annulus", 8, "json"): "6733045d3639a9af952c79ad892067e15d75b633b8741ac5d8f12f31ad25cef7",
    ("mobius", 1, "text"): "d80ddd0575faa71dce692b4d723e6e4f70cfda2fb38117581cf3e21c9e407aab",
    ("mobius", 1, "json"): "0a5978af464c5f54d91f1f960c94eb23b08080d20fa364e42ebb92b03a0df136",
    ("mobius", 2, "text"): "33ad3812f319c7d9367a6bceb37eea4e82b3c93d2a8a1603b867d1d90865355e",
    ("mobius", 2, "json"): "85b3b73a6b35c5f39b65021ca390a1fdb94802ea0620a7dd0e9ac3a0cdb65993",
    ("mobius", 8, "text"): "ac7d7fcdc942aa99a1e07e2122af56d468e460b73e506c2d3546489d1b4cc606",
    ("mobius", 8, "json"): "ae6d3eafba929ff13cd42eaba6d19de45734b509a90a17cf4bf7f6be8c1f3e0d",
}


@pytest.mark.parametrize("kind,j,fmt", sorted(SUPREMA_SHA256))
def test_suprema_output_pinned(tmp_path, kind, j, fmt):
    argv = ["suprema", "--kind", kind, "--j", str(j)]
    assert _pinned_digest(tmp_path, argv, fmt) == SUPREMA_SHA256[kind, j, fmt]


def _has_x86_v4() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy before 2.0
        return False
    return bool(__cpu_features__.get("X86_V4"))


_NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
_DISPATCH_FREE_ARGV = [
    [command, "--kind", kind, *argv]
    for kind in ("annulus", "mobius")
    for command, *argv in (
        ["spectrum", "--T", "0.7", "--count", "40", "--json"],
        ["spectrum", "--T", "1e-14", "--count", "40", "--json"],
        ["suprema", "--j", "1", "--json"],
        ["suprema", "--j", "8", "--json"],
        ["sweep", "--j", "8,1,3,2,5", "--steps", "200"],
    )
]


@pytest.mark.skipif(not _has_x86_v4(), reason="NumPy has no X86_V4 (AVX-512) dispatch to disable")
def test_spectrum_suprema_sweep_bytes_do_not_depend_on_numpy_dispatch():
    # the values come from math.tanh and the sweep moduli from math.exp and
    # math.log, so turning NumPy's AVX-512 paths off changes no output byte
    src = str(Path(steklov.__file__).resolve().parents[1])
    code = (
        "import json, sys\n"
        "from steklov.cli import run\n"
        "codes = [run(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes)\n"
    )
    outputs = []
    for disabled in ("", _NO_AVX512):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(_DISPATCH_FREE_ARGV)],
            env=env,
            capture_output=True,
            check=True,
        )
        assert proc.stdout.endswith(b"[0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n")
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# sha256 of `oracle --kind <kind> --T 0.7 --grid 12x12 --count 5 [--json] --out
# <file>`, recorded once the output stopped reporting the assembly asymmetry
# recorded under NumPy 2.4.6 with X86_V4 (AVX-512) dispatch; without AVX-512 the
# bits differ, through the arcsinh, exp and expm1 of `dtn.assemble_dtn`
ORACLE_SHA256 = {
    ("annulus", "text"): "d5d752d15054e632dd707a58c63f97b60b0e98ab28f6b9eac5edb5ea5e405c9e",
    ("annulus", "json"): "2132504d136bf49ce23e80a251a1e09c2e7e350ecd4debb3d5c9378c4cea49c8",
    ("mobius", "text"): "6a3b81cd75d6f850e4eb434c3d72db8892dfdc975222e702de52a7fedc79c32d",
    ("mobius", "json"): "5d05fc6225e268ee9e37544adeacbeecbcdc4026f8277f0eafa3853f13f43078",
}


@pytest.mark.parametrize("kind,fmt", sorted(ORACLE_SHA256))
def test_oracle_output_pinned(tmp_path, kind, fmt):
    argv = ["oracle", "--kind", kind, "--T", "0.7", "--grid", "12x12", "--count", "5"]
    assert _pinned_digest(tmp_path, argv, fmt) == ORACLE_SHA256[kind, fmt]


_FORMATS = {"text": [], "json": ["--json"], "csv": ["--csv"]}
_OUT_CASES = [
    (["spectrum", "--kind", "annulus", "--T", "1.3", "--count", "7"], ("text", "json", "csv")),
    (["sweep", "--kind", "mobius", "--j", "3,1", "--steps", "9"], ("text",)),
    # mode * T overflows a double: the output must come without a warning
    (["spectrum", "--kind", "annulus", "--T", "1e308", "--count", "4"], ("text",)),
    (["sweep", "--kind", "mobius", "--j", "1,2", "--t-min", "1", "--t-max", "1e308", "--steps", "3"], ("text",)),
    (["crossings", "--kind", "annulus", "--max-mode", "3"], ("text", "json", "csv")),
    (["critical-set", "--kind", "mobius", "--max-mode", "2"], ("text", "json", "csv")),
    (["suprema", "--kind", "annulus", "--j", "2"], ("text", "json")),
    (["oracle", "--kind", "mobius", "--T", "0.7", "--grid", "8x8", "--count", "3"], ("text", "json")),
    (["verify", "--suite", "injectivity"], ("text",)),
]


@pytest.mark.parametrize(
    "argv", [[*argv, *_FORMATS[fmt]] for argv, fmts in _OUT_CASES for fmt in fmts], ids=" ".join
)
def test_out_file_matches_stdout(capsys, tmp_path, argv):
    code, out, _ = _run(capsys, *argv)
    assert code == EXIT_OK and out
    path = tmp_path / "out"
    assert _run(capsys, *argv, "--out", str(path)) == (EXIT_OK, "", "")
    assert path.read_bytes() == out.encode()
    assert _run(capsys, *argv, "--out", "-") == (EXIT_OK, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--kind", "mobius", "--T", "0.7"],
        ["crossings", "--kind", "annulus"],
        ["critical-set", "--kind", "mobius"],
    ],
)
def test_json_and_csv_are_exclusive(capsys, argv):
    code, out, err = _run(capsys, *argv, "--json", "--csv")
    assert code == EXIT_USAGE
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: argument --csv: not allowed with argument --json"
    ]


def test_run_does_not_build_a_parser(capsys, monkeypatch):
    import steklov.cli as cli

    built = []
    original = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    code, _, _ = _run(capsys, "spectrum", "--kind", "mobius", "--T", "0.7")
    assert code == EXIT_OK
    assert _run(capsys, "suprema", "--kind", "mobius", "--j", "0")[0] == EXIT_USAGE
    assert built == []


# one process, calls in this order: a parser reused across them must answer
# each exactly as a parser built for that call alone
_SEQUENCE = [
    ["spectrum", "--kind", "annulus", "--T", "1.3", "--count", "7", "--json"],
    ["spectrum", "--kind", "annulus", "--T", "1.3", "--count", "7"],
    ["spectrum", "--kind", "annulus", "--count", "7"],
    ["--help"],
    ["crossings", "--kind", "mobius", "--max-mode", "3", "--csv"],
]


def test_reused_parser_matches_a_fresh_one(capsys, monkeypatch):
    import steklov.cli as cli

    shared = [_run(capsys, *argv) for argv in _SEQUENCE]
    fresh = []
    for argv in _SEQUENCE:
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        fresh.append(_run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]
    assert shared[2][2].splitlines()[-1] == "error: the following arguments are required: --T"



@pytest.mark.filterwarnings("error")  # a NumPy warning would be a second stderr line
@pytest.mark.parametrize("t_max", ["inf", "1e309"])
def test_sweep_rejects_infinite_t_max(capsys, t_max):
    _assert_one_error_line(
        *_run(capsys, "sweep", "--kind", "annulus", "--t-min", "0.1", "--t-max", t_max)
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["annulus", "mobius"])
def test_subnormal_moduli_write_nothing_to_stderr(capsys, kind):
    code, out, err = _run(capsys, "spectrum", "--kind", kind, "--T", "1e-320", "--count", "3")
    assert (code, err) == (EXIT_OK, "") and out
    code, out, err = _run(
        capsys, "sweep", "--kind", kind, "--t-min", "1e-320", "--t-max", "1e-300", "--steps", "3"
    )
    assert (code, err) == (EXIT_OK, "") and len(out.splitlines()) == 4
