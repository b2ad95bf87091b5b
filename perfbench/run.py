#!/usr/bin/env python3
"""Run one steklov benchmark workload and print its metrics.

    python3 perfbench/run.py --workload point_queries --seed 1 --seconds 15 --trace 0

One fresh single-threaded process runs one workload as a closed loop with a
single client: each operation starts when the previous one has returned.
The operations come from ``--seed`` alone.  With ``--trace 0`` the run
reports the end-to-end metrics, its operation times calibrated to a
reference host speed (see calibrate.py); with ``--trace 1`` it runs the
same operations untraced and then traced, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
including the environment and the failures by operation class, is written
to ``.perfbench/results/`` under the checkout root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# One BLAS thread: the run is a single-threaded process, and a shared
# machine gives steadier timings this way.  Set before NumPy loads.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# A probe is a fresh interpreter that times ``import steklov, steklov.cli``
# and, when asked, the oracle time-to-accuracy ladder.  An untraced run
# starts SETUP_PROBES import probes, half before the timed phase and half
# after it, and reports the median of their timings and its own.  A traced
# run starts one probe that also runs the ladder: a fresh process keeps the
# ladder's memory and warm-up out of the workload's own figures.
_PROBE_CODE = """
import json, sys, time
sys.path[:0] = sys.argv[1:3]
t = time.perf_counter()
import steklov, steklov.cli
out = {"import_s": time.perf_counter() - t}
if sys.argv[3] == "tta":
    import workloads
    out["tta_s"], out["levels"] = workloads.oracle_time_to_accuracy()
print(json.dumps(out))
"""
SETUP_PROBES = 10


def _probe(tta: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE_CODE, str(SRC), str(Path(__file__).parent), "tta" if tta else "import"],
        capture_output=True,
        text=True,
        timeout=150,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# op_tail_ms is a fixed percentile per workload; a run that leaves fewer
# samples than this beyond it is flagged in its record and on stderr.
MIN_TAIL_SAMPLES = 10


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def _environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def _run_ops(rounds, budget_s, ctx, tracer, workloads, speed=None):
    """Closed loop: run whole rounds until the op time reaches budget_s.

    Each round starts, untimed, with the package's caches emptied: a round
    is one session, so it pays the same lazy costs as every other round and
    a round costs the same early and late in a run.  With ``speed`` (a
    ``calibrate.HostSpeed``) the host-speed kernel is timed between
    operations, outside their timing.
    Returns the records and, per round, (operations, seconds busy).
    """
    records = []
    per_round = []
    busy = 0.0
    for ops in rounds:
        workloads.clear_caches()
        round_busy = 0.0
        for op in ops:
            if speed is not None:
                speed.between(len(records), force=not records)
            t0 = time.perf_counter()
            try:
                with tracer.op(len(records), op.cls):
                    out = workloads.run_op(op, ctx)
                error = None
            except Exception as exc:  # a failed operation is recorded, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if error is None:
                out = workloads.post_op(op, out)
            records.append((op, latency, out, error))
            round_busy += latency
        per_round.append((len(ops), round_busy))
        busy += round_busy
        if busy >= budget_s:
            break
    if speed is not None:
        speed.between(len(records), force=True)
    return records, per_round


def _judge(records, workloads):
    """Check every output.

    Returns (wrong outputs by class and tag, an example of each, the count
    of failed operations, the count of known-defect outputs).  An operation
    fails if it raised or if its output is wrong in a way no documented
    defect explains; an output with a ``known:`` signature is counted apart.
    """
    failures: dict[str, dict[str, int]] = {}
    examples: dict[str, str] = {}
    failed = known = 0
    for op, _latency, out, error in records:
        reason = error if error is not None else workloads.check_op(op, out)
        if reason is None:
            continue
        tag = reason.split()[0] if reason.startswith("known:") else "unexplained"
        if tag == "unexplained":
            failed += 1
        else:
            known += 1
        failures.setdefault(op.cls, {}).setdefault(tag, 0)
        failures[op.cls][tag] += 1
        examples.setdefault(f"{op.cls}/{tag}", f"{op.args!r}: {reason}"[:400])
    return failures, examples, failed, known


def _percentile(sorted_values, pct):
    import numpy as np

    value = float(np.percentile(sorted_values, pct))
    beyond = sum(1 for v in sorted_values if v > value)
    return value, beyond


def _declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "steklov" / "__init__.py").is_file():
        return _fail(f"no steklov sources under {SRC}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    # -- set-up: the import a user pays before the first call -------------------
    sys.path.insert(0, str(SRC))
    modules_before = len(sys.modules)
    t0 = time.perf_counter()
    import steklov
    import steklov.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    import_modules = len(sys.modules) - modules_before
    scipy_sparse_loaded = int("scipy.sparse" in sys.modules)
    if not Path(steklov.__file__).resolve().is_relative_to(SRC):
        return _fail(f"imported steklov from {steklov.__file__}, not {SRC}")

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    end_to_end, per_layer = _declared()
    spec = workloads.WORKLOADS[args.workload]
    env = _environment()

    if args.trace:
        probes = [_probe(tta=True)]
    else:
        probes = [_probe(tta=False) for _ in range(SETUP_PROBES // 2)]

    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    report: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": spec.why,
        "environment": env,
    }
    try:
        if args.trace:
            result = _traced(args, tmpdir, workloads, tracing, report)
        else:
            result = _untraced(args, tmpdir, workloads)
            probes += [_probe(tta=False) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    records, per_round, extra = result
    busy = sum(seconds for _n, seconds in per_round)

    failures, examples, failed, known = _judge(records, workloads)
    attempted = len(records)
    setup = [import_s] + [p["import_s"] for p in probes]
    ladder = next((p for p in probes if "tta_s" in p), None)
    reached = ladder is None or all(level is not None for level, _err in ladder["levels"].values())
    correct = failed == 0 and reached and extra.pop("_correct", True)
    by_class: dict[str, list[float]] = {}
    for op, latency, *_ in records:
        by_class.setdefault(op.cls, []).append(latency)
    counts = {cls: len(v) for cls, v in by_class.items()}
    report.update(
        attempted=attempted,
        failed=failed,
        known_defects=known,
        error_rate=(failed + known) / attempted,
        failures=failures,
        failure_examples=examples,
        op_counts=counts,
        op_median_ms={cls: 1e3 * statistics.median(v) for cls, v in by_class.items()},
        setup_samples_s=setup,
        import_modules=import_modules,
        scipy_sparse_loaded=scipy_sparse_loaded,
    )

    if args.trace:
        values = extra
        values.update(
            {
                "import.self_s": import_s,
                "import.modules": import_modules,
                "import.scipy_sparse_loaded": scipy_sparse_loaded,
                "error_rate": (failed + known) / attempted,
                "oracle_tta_s": ladder["tta_s"],
            }
        )
        report["oracle_tta_ladder"] = ladder
        wanted = per_layer
    else:
        scales = extra["scales"]
        latencies = sorted(r[1] * k for r, k in zip(records, scales))
        tail, beyond = _percentile(latencies, spec.tail_percentile)
        raw = sorted(r[1] for r in records)
        values = {
            # not calibrated: an import is file access as much as CPU work, and
            # scaling it by the kernel widened its spread
            "setup_s": statistics.median(setup),
            "ops_per_s": attempted / sum(latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail,
            "peak_rss_mb": extra["peak_rss_mb"],
        }
        if beyond < MIN_TAIL_SAMPLES:
            sys.stderr.write(
                f"perfbench: warning: only {beyond} samples beyond p{spec.tail_percentile:g}; "
                f"op_tail_ms is not resolved (needs {MIN_TAIL_SAMPLES})\n"
            )
        report.update(
            op_tail_percentile=spec.tail_percentile,
            op_tail_samples_beyond=beyond,
            op_tail_resolved=beyond >= MIN_TAIL_SAMPLES,
            timed_s=busy,
            raw_metrics={
                "ops_per_s": attempted / busy,
                "op_p50_ms": 1e3 * statistics.median(raw),
                "op_tail_ms": 1e3 * _percentile(raw, spec.tail_percentile)[0],
            },
            kernel_s=[k for _done, k in extra["speed"].points],
            round_seconds=[seconds for _n, seconds in per_round],
            latencies_s=[(op.cls, latency, k) for (op, latency, *_), k in zip(records, scales)],
        )
        wanted = end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report["metrics"] = metrics

    results = OUT / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ({spec.why})")
    for name, m in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{spec.tail_percentile:g}, {report['op_tail_samples_beyond']} samples beyond)"
            if not report["op_tail_resolved"]:
                note += "  UNRESOLVED"
        if name in report.get("raw_metrics", {}):
            note += f"  (raw {report['raw_metrics'][name]:.6g})"
        print(f"  {name:<44s} {m['value']:.6g} {m['unit']}{note}")
    print(
        f"  operations {attempted}, failed {failed}, known defects {known} "
        f"(error_rate {(failed + known) / attempted:.4g}), by class: {failures}"
    )
    print(f"  environment {json.dumps(env)}")
    print(f"  report {results / (stem + '.json')}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _untraced(args, tmpdir, workloads):
    from calibrate import HostSpeed
    from tracing import NullTracer

    ctx = workloads.Context(tmpdir, NullTracer())
    speed = HostSpeed()
    stream = workloads.op_stream(args.workload, args.seed)
    records, per_round = _run_ops(stream, args.seconds, ctx, ctx.tracer, workloads, speed)
    return records, per_round, {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "speed": speed,
        "scales": speed.scales(len(records)),
    }


def _traced(args, tmpdir, workloads, tracing, report):
    """Untraced for half the budget, then the same operations traced, then
    untraced once more.

    The first pass warms the process (lazy imports, first-call costs) and
    fixes the rounds; the two replays run the same rounds, each from empty
    caches, so ``trace_overhead`` compares like with like.
    """
    from tracing import NullTracer

    ctx = workloads.Context(tmpdir, NullTracer())
    plain, plain_rounds = _run_ops(workloads.op_stream(args.workload, args.seed), args.seconds / 2, ctx, ctx.tracer, workloads)
    rounds, start = [], 0
    for n, _seconds in plain_rounds:
        rounds.append([r[0] for r in plain[start : start + n]])
        start += n

    tracer = tracing.Tracer()
    ctx = workloads.Context(tmpdir, tracer)
    tracer.install()
    try:
        traced, traced_rounds = _run_ops(rounds, math.inf, ctx, tracer, workloads)
    finally:
        tracer.remove()
    traced_busy = sum(seconds for _n, seconds in traced_rounds)

    ctx = workloads.Context(tmpdir, NullTracer())
    _, replay_rounds = _run_ops(rounds, math.inf, ctx, ctx.tracer, workloads)
    plain_busy = sum(seconds for _n, seconds in replay_rounds)

    mismatched = [
        i for i, (a, b) in enumerate(zip(plain, traced)) if repr(a[2]) != repr(b[2]) or a[3] != b[3]
    ]
    report["trace_output_mismatches"] = mismatched[:20]
    report["layer_table"] = tracer.layer_table()
    report["spans_kept"] = len(tracer.spans)
    report["spans_dropped"] = tracer.spans_dropped
    tracer.write_spans(str(OUT / "results" / f"{args.workload}-seed{args.seed}-spans.json"))
    values = tracing.per_layer_metrics(tracer, traced_busy)
    values["trace_overhead"] = traced_busy / plain_busy - 1.0
    values["_correct"] = not mismatched
    return traced, traced_rounds, values


if __name__ == "__main__":
    sys.exit(main())
