"""CLI contract: exit codes, output formats, and value round-trips."""

import csv
import hashlib
import json
import math

import numpy as np
import pytest

from steklov.branches import SurfaceKind
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


@pytest.mark.parametrize("kind", ["annulus", "mobius"])
def test_suprema_at_a_mode_past_1e27(capsys, kind):
    # unless bisection narrows the bracket to the root (~1e-27), Newton's
    # derivative at its midpoint underflows to 0
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


# sha256 of `<command> --kind <kind> --max-mode 12 [--json|--csv] --out <file>`,
# recorded before the lattice enumerator replaced the per-command loops; the
# annulus json/csv pins again when the linear crossings' residual column
# began to report |m tanh(m x) - 1/x| at the float modulus instead of 0
LATTICE_OUTPUT_SHA256 = {
    ("crossings", "mobius", "text"): "38857b4712ca7592ba4ec96a221ebe034a53bfab1a79e4a1620eb8da2376744f",
    ("crossings", "mobius", "json"): "2e56999b696b8c8e4c19084f8271d70bff4d47166eb4f54505274ae3d5f34ef8",
    ("crossings", "mobius", "csv"): "2ed0d1e04166b471a36c47ac106a8e498be77a1df256affe1be96d1ae7c92a6a",
    ("crossings", "annulus", "text"): "a71fb59a6d29833a5eeb1ce81284d45c8ba6363d6d52e4400a8da65587e45ed1",
    ("crossings", "annulus", "json"): "267cbe4bb70cbeab8ca64fbae05d315e115b83822dcaed33498cde2c9822678d",
    ("crossings", "annulus", "csv"): "aae85de168453a76b1098edfcdcdf50af293abc0e71d3ab0f3d3a058d9c0ad24",
    ("critical-set", "mobius", "text"): "20c9ce05c2388907aa4befd374749a16e3664f8668459abea597c1726894e3cb",
    ("critical-set", "mobius", "json"): "d904eef6dbc2021e01f844a9f6652ccb92e96b73f31a187b642e781da2117fad",
    ("critical-set", "mobius", "csv"): "0932d43372b88ed2a46ac31cc9929a907a6d3e62b05c801902071eef8bac6fe3",
    ("critical-set", "annulus", "text"): "3d1126166bc88e2f21c2334f2e4fbb44edfc84b9f8d84db54c6212e5f30e604d",
    ("critical-set", "annulus", "json"): "7c792141a5323d1c9d4ad01740381cd18c2795998a1da969662c3343581ecb2d",
    ("critical-set", "annulus", "csv"): "6883d87c5d1b29df44ce3d0eb8d33ff0a97151437fbb84355b46e9e30e7385d2",
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
# grid, recorded while sweep still called spectrum once per (T, j)
SWEEP_SHA256 = {
    "mobius": "ae2c7d7b881ce507dcf14c9a4574a13bb71db89496098b9900a01d86ba639d26",
    "annulus": "4cb020024144abc497db2cb196a5ce4fa64c6ad30db917b7dc9b4209142a5920",
}


@pytest.mark.parametrize("kind", sorted(SWEEP_SHA256))
def test_sweep_output_pinned(tmp_path, kind):
    path = tmp_path / "sweep.csv"
    assert run(["sweep", "--kind", kind, "--j", "8,1,3,2,5", "--out", str(path)]) == EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_SHA256[kind]


def _pinned_digest(tmp_path, argv, fmt):
    path = tmp_path / "out"
    if fmt != "text":
        argv = [*argv, f"--{fmt}"]
    assert run([*argv, "--out", str(path)]) == EXIT_OK
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of `spectrum --kind <kind> --T <T> --count 12 [--json|--csv] --out <file>`,
# recorded while each subcommand still had its own format dispatch
SPECTRUM_SHA256 = {
    ("annulus", "0.7", "text"): "3877429b3c35cd111b29b06aac1d433c0f8b0897e04dff7722494875901788c9",
    ("annulus", "0.7", "json"): "def0ffa627fadf6cd299d59d755876571201a01a04085026625a453e9872be1c",
    ("annulus", "0.7", "csv"): "3037b867757650ba84e69ec3cebe3cb43c752d28a6b91b3d37e85754762d91fc",
    ("annulus", "1e-14", "text"): "8e2740ac09937c3768af01d3947b95a68444aa9f516c02ab5373a9a9d543a8b9",
    ("annulus", "1e-14", "json"): "ca83d848fc71364623753643965e42a08dbf95249fba5d0a47d7fefe91bb0e23",
    ("annulus", "1e-14", "csv"): "a3436df7d0eda0793bd2cafdcdd00203773a3e2af7e4a3361f7a96f913059509",
    ("mobius", "0.7", "text"): "5aec9a13708163006164b176b4e46c48c015d6776a0264ce5a98cc04a7baaa57",
    ("mobius", "0.7", "json"): "bcaf9803c9dc7d919c5bfbd2da9ad898c40592123022e7269ad38af884a94f63",
    ("mobius", "0.7", "csv"): "ee2df6ad43fb60649cf5ffdf006191074aeed8f3a668c1090cd1c880b653d4bb",
    ("mobius", "1e-14", "text"): "538c74a5b2b7e8c36eea618bcb5a6a29974abfa47f04dba5f983599906048dcd",
    ("mobius", "1e-14", "json"): "001d7550ee8b1246978a7be31b2659835e2e6ce529d86f5f6bf26605b3d8323b",
    ("mobius", "1e-14", "csv"): "d5bd87acb84c771cf4ba679ab3e9717f7e485065c690728ef7a4f7fd930ff010",
}


@pytest.mark.parametrize("kind,T,fmt", sorted(SPECTRUM_SHA256))
def test_spectrum_output_pinned(tmp_path, kind, T, fmt):
    argv = ["spectrum", "--kind", kind, "--T", T, "--count", "12"]
    assert _pinned_digest(tmp_path, argv, fmt) == SPECTRUM_SHA256[kind, T, fmt]


# sha256 of `suprema --kind <kind> --j <j> [--json] --out <file>`, recorded with
# the spectrum pins
SUPREMA_SHA256 = {
    ("annulus", 1, "text"): "c1fe5004c88bbb1de166366032d2618036e4b6816daa103af8e7ac220d602408",
    ("annulus", 1, "json"): "458e6eb29a86e7040e21e2565939385e5a9c5fd445ee9054bde280248943017b",
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


# sha256 of `oracle --kind <kind> --T 0.7 --grid 12x12 --count 5 [--json] --out
# <file>`, recorded once the output stopped reporting the assembly asymmetry
ORACLE_SHA256 = {
    ("annulus", "text"): "2e6ba82eb8da239409e87dbcc6720c8c2ad83edde6a5c15eeacfb07a3a8a679f",
    ("annulus", "json"): "c50237454e3aa2d4c8abaf4f1c270f46db4b414bf9c4bd7320e0c6df8535c0d6",
    ("mobius", "text"): "3092a951dc5f6e4721eedd48bc8a746b33be38b70f94bc529acb020eb14716d7",
    ("mobius", "json"): "ac0e6e430c8a4ad40c3a8dc0be4a027355388843e4db26e01f4f98c89ece4ec1",
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
