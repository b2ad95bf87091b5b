"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import steklov  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PREFIX = {"point_queries": 60, "lattice": 12, "oracle": 8, "surface_export": 11}


def _ops(name: str, seed: int, n: int) -> list:
    ops = []
    for round_ in workloads.op_stream(name, seed):
        ops.extend(round_)
        if len(ops) >= n:
            return ops[:n]
    raise AssertionError("stream ended")  # pragma: no cover - streams are endless


def _context():
    tmp = ROOT / ".perfbench" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    return tmp


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_operations(name):
    assert _ops(name, 11, 40) == _ops(name, 11, 40)
    assert _ops(name, 11, 40) != _ops(name, 12, 40)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_identical(name):
    ops = _ops(name, 5, PREFIX[name])
    tmp = _context()
    plain, _ = run._run_ops([ops], 0.0, workloads.Context(str(tmp), tracing.NullTracer()), tracing.NullTracer(), workloads)

    workloads.clear_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, rounds = run._run_ops([ops], 0.0, workloads.Context(str(tmp), tracer), tracer, workloads)
    finally:
        tracer.remove()

    assert [repr(r[2]) for r in traced] == [repr(r[2]) for r in plain]
    assert all(r[3] is None for r in traced)
    wall = rounds[0][1]

    # self times telescope: over the span tree they sum to the root durations,
    # and the roots (one per operation) fit inside the traced wall time
    total_self = sum(st.self_time for st in tracer.stats.values())
    assert math.isclose(total_self, tracer.root_time, rel_tol=1e-9)
    assert tracer.root_time <= wall
    assert tracer.stats["op." + ops[0].cls].calls >= 1
    metrics = tracing.per_layer_metrics(tracer, wall)
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert metrics["uncovered_s"] >= 0.0
    assert math.isclose(layers + metrics["uncovered_s"], wall, rel_tol=1e-12)


def test_tracer_restores_every_binding():
    before = {name: getattr(steklov, name) for name in steklov.__all__}
    coth = steklov.branches.coth
    euler = vars(steklov.SurfaceMesh)["euler_characteristic"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert steklov.branches.coth is not coth
        assert steklov.crossings.coth is steklov.branches.coth  # one wrapper, every namespace
        assert vars(steklov.SurfaceMesh)["euler_characteristic"] is not euler
    finally:
        tracer.remove()
    assert {name: getattr(steklov, name) for name in steklov.__all__} == before
    assert steklov.branches.coth is coth
    assert vars(steklov.SurfaceMesh)["euler_characteristic"] is euler


def test_checks_reject_wrong_outputs():
    AN = steklov.SurfaceKind.ANNULUS
    value = steklov.sigma_bar(AN, 3, 1.0)
    assert workloads.check_op(workloads.Op("sigma_bar", ("annulus", 3, 1.0)), value) is None
    reason = workloads.check_op(workloads.Op("sigma_bar", ("annulus", 3, 1.0)), value * (1 + 1e-8))
    assert reason and not reason.startswith("known:")
    point = steklov.solve_crossing(8.0, 3.0)
    op = workloads.Op("solve_crossing", (8.0, 3.0, True))
    assert workloads.check_op(op, (point.x, point.height)) is None
    assert workloads.check_op(op, (point.x * (1 + 1e-12), point.height)) is not None
    assert workloads.check_op(workloads.Op("euler_characteristic", ("mobius", 2, 1)), 1) is not None
    assert workloads.check_op(workloads.Op("boundary_loops", ("mobius", 2, 1)), 2) is not None


def test_oracle_checks_reject_perturbed_values():
    for kind, n_theta in (("annulus", 24), ("mobius", 48)):
        op = workloads.Op("oracle_spectrum", (kind, 1.3, (40, n_theta)))
        eigs = workloads.run_op(op, None)
        assert workloads.check_op(op, eigs) is None
        for i in range(1, 6):
            perturbed = list(eigs)
            perturbed[i] *= 1.2
            assert workloads.check_op(op, perturbed) is not None
        assert workloads.check_op(op, [e * (1 + 1e-7) for e in eigs]) is not None

    # near a crossing the discrete values of modes 1 and 4 swap order; each
    # is still judged against its own branch
    op = workloads.Op("oracle_spectrum", ("mobius", 0.3076115085817202, (80, 48)))
    assert workloads.check_op(op, workloads.run_op(op, None)) is None

    ctx = workloads.Context(str(_context()), tracing.NullTracer())
    for q in range(1, 5):
        for odd in (False, True):
            args = ("annulus", 0.9, (80, 24), q, odd)
            workloads.run_op(workloads.Op("assemble_dtn", args[:3]), ctx)
            op = workloads.Op("rayleigh_quotient", args)
            value = workloads.run_op(op, ctx)
            assert workloads.check_op(op, value) is None
            assert workloads.check_op(op, value * 1.2) is not None
            assert workloads.check_op(op, value * 0.8) is not None


def test_oracle_continuum_bound_is_tight():
    # the continuum route alone, on the exact discrete values: the bound
    # holds them and rejects a 20% error at the grids of the repo's tests
    AN = steklov.SurfaceKind.ANNULUS
    for q in range(1, 5):
        for odd in (False, True):
            exact = checks.continuum_value(AN, 1.0, q, odd)
            tol = checks.oracle_tolerance(AN, 1.0, (80, 80), q)
            error = abs(checks.discrete_symbol(AN, 1.0, (80, 80), q, odd) - exact) / exact
            assert error <= tol / 2 and tol < 0.1


def test_known_defect_is_recognised_not_hidden():
    # sigma_bar on the Mobius band at T = 1e-14: lambda_1 and lambda_2 are
    # both below 1e-9 and are merged (ROADMAP open item 3, bug 1)
    op = workloads.Op("sigma_bar", ("mobius", 3, 1e-14))
    reason = workloads.check_op(op, workloads.run_op(op, None))
    assert reason is not None and reason.startswith("known:coincide_merge")


def test_known_defects_are_counted_apart_from_failures():
    defect = workloads.Op("sigma_bar", ("mobius", 3, 1e-14))
    good = workloads.Op("sigma_bar", ("mobius", 3, 1.0))
    records = [
        (defect, 0.0, workloads.run_op(defect, None), None),
        (good, 0.0, workloads.run_op(good, None), None),
        (good, 0.0, None, "ValueError: raised"),
        (good, 0.0, workloads.run_op(good, None) * (1 + 1e-8), None),
    ]
    failures, _examples, failed, known = run._judge(records, workloads)
    assert (failed, known) == (2, 1)
    assert failures["sigma_bar"] == {"known:coincide_merge": 1, "unexplained": 2}


def test_host_speed_scales_bracket_each_operation(monkeypatch):
    monkeypatch.setattr(calibrate, "WINDOW", 3)
    speed = calibrate.HostSpeed()
    # kernel timings after 0, 2, 3, 4 and 9 operations; the window is 3
    speed.points = [(0, 1e-3), (2, 3e-3), (3, 2e-3), (4, 4e-3), (9, 5e-3)]
    ref = calibrate.REFERENCE_S
    # operations 0 and 1 run between the first two timings: the median of
    # the one before them and the three after; operations 4-8 see the three
    # timings before them and the one after
    assert speed.scales(9) == pytest.approx([ref / 2.5e-3] * 2 + [ref / 3e-3] * 2 + [ref / 3.5e-3] * 5)
    assert 0.0 < calibrate.kernel_s() < 1.0


def test_declared_metrics_match_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(tracing.per_layer_metrics(tracing.Tracer(), 1.0))
    produced |= {"import.self_s", "import.modules", "import.scipy_sparse_loaded", "trace_overhead", "error_rate", "oracle_tta_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"
    }


def test_exported_file_counts_are_reparsed():
    fam = steklov.mobius_b4(2, 1)
    tmp = _context()
    for fmt in ("obj", "ply", "csv"):
        path = str(tmp / f"mesh.{fmt}")
        mesh = steklov.export_mesh(fam, 6, 8, steklov.MeshFormat(fmt), path)
        faces = 0 if fmt == "csv" else len(mesh.faces)
        assert checks.parse_counts(path, fmt) == (len(mesh.vertices), faces)


def test_fails_without_sources():
    bare = _context() / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_queries", "--seed", "1", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
