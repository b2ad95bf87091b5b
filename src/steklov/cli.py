"""Command-line interface over the eigenvalue, surface, and oracle modules.

Exit codes: 0 success, 1 usage/domain errors, 2 verification-suite failure.
Each subcommand builds one payload and its text lines from library calls
(`oracle` prints `dtn.oracle_spectrum`), and one writer renders them: the
payload as JSON, its record list as CSV, or the lines as text. JSON output
renders every float with 17 significant digits so values round-trip
exactly; CSV output does the same.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys

# Only the standard library, `exceptions` and `kinds` load with this module.
# Each subcommand and suite imports the library names it calls, NumPy
# included, so a command loads only its own modules and a usage error or
# --help loads none.
from .exceptions import SteklovError, _check_index, _check_positive
from .kinds import FamilyKind, MeshFormat, SurfaceKind

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _jsonify(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_jsonify(v, indent + 1)}' for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[" + ", ".join(_jsonify(v, indent + 1) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return "null"
        return _fmt(value)
    return '"' + str(value).replace('"', '\\"') + '"'


def _cell(value):
    """One CSV field: floats as `_fmt`, label lists joined by "+", index lists by spaces."""
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, list):
        if all(isinstance(v, str) for v in value):
            return "+".join(value)
        return " ".join(str(v) for v in value)
    return value


def _emit(args, payload, lines=()) -> None:
    """Write one result to `--out`, or to stdout when it is absent or "-".

    `--json` writes `payload`; `--csv` writes the payload's last entry, a list
    of flat records, one row each under a header of its keys; otherwise the
    text `lines` are written.
    """
    to_file = args.out not in (None, "-")
    with open(args.out, "w", newline="") if to_file else contextlib.nullcontext(sys.stdout) as fh:
        if getattr(args, "json", False):
            fh.write(_jsonify(payload) + "\n")
        elif getattr(args, "csv", False):
            records = list(payload.values())[-1]
            writer = csv.writer(fh)
            writer.writerow(list(records[0]))
            writer.writerows([_cell(v) for v in r.values()] for r in records)
        else:
            fh.write("\n".join(lines) + "\n")


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except ValueError as exc:
        raise SteklovError(f"grid must look like 160x160, got {text!r}") from exc


def _parse_ints(text: str, option: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise SteklovError(
            f"{option} must be comma-separated integers, got {text!r}"
        ) from exc


# --------------------------------------------------------------------------
# subcommands


def _cmd_spectrum(args) -> int:
    from .branches import spectrum

    entries = spectrum(SurfaceKind(args.kind), args.T, args.count)
    rows = [
        {
            "index": j,
            "value": entry.value,
            "branch": entry.branch.kind.value,
            "mode": entry.branch.mode,
            "multiplicity": entry.multiplicity,
        }
        for entry in entries
        for j in range(entry.index_range[0], min(entry.index_range[1], args.count) + 1)
    ]
    lines = [f"normalized spectrum  kind={args.kind}  T={_fmt(args.T)}"]
    lines += [
        f"  sigma_bar_{r['index']:<3d} = {_fmt(r['value']):<24s}"
        f" {r['branch']}:{r['mode']} (mult {r['multiplicity']})"
        for r in rows
    ]
    _emit(args, {"kind": args.kind, "T": args.T, "spectrum": rows}, lines)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from .branches import spectrum

    kind = SurfaceKind(args.kind)
    j_list = sorted(set(_parse_ints(args.j, "--j")))
    _check_index(j_list[0], "--j")
    if args.steps < 2:
        raise SteklovError(f"steps must be >= 2, got {args.steps}")
    # refused before any row is built: each row holds at least one 8-byte
    # double, and no process addresses more than sys.maxsize bytes
    if args.steps > sys.maxsize // 8:
        raise SteklovError(f"steps must be <= {sys.maxsize // 8}, got {args.steps}")
    # positive and finite, so both logarithms are finite
    t_min, t_max = _check_positive(args.t_min, "t-min"), _check_positive(args.t_max, "t-max")
    if t_min >= t_max:
        raise SteklovError("need t-min < t-max")
    # geometric moduli from scalar math, not np.geomspace, whose bits depend on
    # NumPy's SIMD dispatch; both ends are exactly t_min and t_max
    last = args.steps - 1
    lo = math.log(t_min)
    span = math.log(t_max) - lo
    inner = (math.exp(lo + i * span / last) for i in range(1, last))
    rows = []
    for T in (t_min, *inner, t_max):
        cells = [e for e in spectrum(kind, T, j_list[-1]) for _ in range(e.multiplicity)]
        rows.append(
            {"T": T}
            | {f"sigma_bar_{j}": cells[j - 1].value for j in j_list}
            | {f"branch_{j}": cells[j - 1].branch.label() for j in j_list}
        )
    _emit(args, {"sweep": rows})
    return EXIT_OK


def _cmd_crossings(args) -> int:
    from .branches import branch_index, crossing_lattice

    kind = SurfaceKind(args.kind)
    _check_index(args.max_mode, "--max-mode")
    # on the annulus n = 0 is the linear branch
    first, second = ("k", "l") if kind is SurfaceKind.MOBIUS_BAND else ("m", "n")
    records = [
        {
            first: branch_index(kind, c.increasing),
            second: branch_index(kind, c.decreasing),
            "modulus": c.modulus,
            "height": c.height,
            "normalized_value": c.value,
            "residual": c.residual,
        }
        for c in crossing_lattice(kind, args.max_mode)
    ]
    lines = [f"branch crossings  kind={args.kind}  max_mode={args.max_mode}"]
    lines += [
        f"  {f'({r[first]},{r[second]})':>8s}  T = {_fmt(r['modulus']):<24s}"
        f" value = {_fmt(r['normalized_value'])}"
        for r in records
    ]
    _emit(args, {"kind": args.kind, "crossings": records}, lines)
    return EXIT_OK


def _cmd_suprema(args) -> int:
    from .extrema import sup_sigma_annulus, sup_sigma_mobius

    if SurfaceKind(args.kind) is SurfaceKind.MOBIUS_BAND:
        result = sup_sigma_mobius(args.j)
    else:
        result = sup_sigma_annulus(args.j)
    payload = {
        "kind": args.kind,
        "j": result.j,
        "value": result.value,
        "attained": result.attained,
        "modulus": result.attaining_modulus,
    }
    where = (
        f"attained at T = {_fmt(result.attaining_modulus)}"
        if result.attained
        else "not attained (limit as T -> infinity)"
    )
    line = f"sup sigma_bar_{result.j} ({args.kind}) = {_fmt(result.value)}  {where}"
    _emit(args, payload, [line])
    return EXIT_OK


def _cmd_critical_set(args) -> int:
    from .extrema import critical_set

    records = [
        {
            "modulus": r.modulus,
            "value": r.value,
            "branches": [b.label() for b in r.branches],
            "character": r.character.value,
            "eigen_multiplicity": r.eigen_multiplicity,
            "indices": list(r.indices),
        }
        for r in critical_set(SurfaceKind(args.kind), args.max_mode)
    ]
    lines = [f"critical metrics  kind={args.kind}  max_mode={args.max_mode}"]
    lines += [
        f"  T = {_fmt(p['modulus']):<24s} value = {_fmt(p['value']):<24s}"
        f" {p['character']} for j in {p['indices']} (mult {p['eigen_multiplicity']})"
        for p in records
    ]
    _emit(args, {"kind": args.kind, "critical_set": records}, lines)
    return EXIT_OK


def _cmd_surface(args) -> int:
    from .mesh import export_mesh
    from .surfaces import make_family

    family = FamilyKind(args.family)
    fam = make_family(family, m=args.m, n=args.n)
    n_t, n_theta = _parse_grid(args.grid)
    projection = tuple(_parse_ints(args.projection, "--projection"))
    mesh = export_mesh(
        fam, n_t, n_theta, MeshFormat(args.format), args.out, projection=projection
    )
    sys.stderr.write(
        f"wrote {args.out}: {len(mesh.vertices)} vertices, {len(mesh.faces)} faces, "
        f"T* = {_fmt(fam.T_star)}\n"
    )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from .dtn import OracleProblem, closed_form_sigma, oracle_spectrum

    kind = SurfaceKind(args.kind)
    n_t, n_theta = _parse_grid(args.grid)
    problem = OracleProblem(kind=kind, T=args.T, grid=(n_t, n_theta))
    eigs = oracle_spectrum(problem, args.count)
    exact = closed_form_sigma(kind, args.T, 1.0, max(args.count - 1, 1))
    closed = [0.0] + list(exact[: args.count - 1])
    payload = {
        "kind": args.kind,
        "T": args.T,
        "grid": [n_t, n_theta],
        "eigenvalues": list(eigs),
        "closed_form": closed,
    }
    lines = [
        f"discrete boundary operator  kind={args.kind}  T={_fmt(args.T)}"
        f"  grid={n_t}x{n_theta}"
    ]
    lines += [
        f"  sigma_{i:<3d} oracle = {_fmt(num):<24s} closed form = {_fmt(ref)}"
        for i, (num, ref) in enumerate(zip(eigs, closed))
    ]
    _emit(args, payload, lines)
    return EXIT_OK


# --------------------------------------------------------------------------
# verification suites


def _suite_lemmas(max_mode: int):
    import numpy as np

    from .branches import _crossing, sigma_bar_grid, spectrum
    from .crossings import aux_inequalities
    from .extrema import verify_first_intersection_max, verify_no_asymptote

    checks = []
    grid = np.geomspace(0.05, 10.0, 64)
    for t in (0.3, 1.0, 2.5):
        aux = aux_inequalities(t)
        checks.append((f"auxiliary positivity at t={t}", min(aux.f_val, aux.g_prime, aux.tanh_gap) > 0))
    # spectrum's merged branch order must agree with the sorted dense grid
    mb, count = SurfaceKind.MOBIUS_BAND, 2 * max_mode
    listed = []
    for T in grid:
        values = [e.value for e in spectrum(mb, float(T), count) for _ in range(e.multiplicity)]
        listed.append(values[:count])
    dense = sigma_bar_grid(mb, count, grid).T
    checks.append(("spectrum ordering on grid", np.allclose(listed, dense, rtol=1e-12, atol=0.0)))
    for k in range(1, max_mode + 1):
        residual = _crossing(SurfaceKind.MOBIUS_BAND, k, 1).residual
        checks.append((f"crossing residual T_{{{k},1}}", residual <= 1e-12))
    margins = [r.margin for r in verify_first_intersection_max(max_mode)]
    checks.append(("first-intersection margins positive", all(m > 0 for m in margins) if margins else True))
    records = verify_no_asymptote(min(2 * max_mode, 20))
    # t_k = t10/(2k) is the annulus crossing of even mode 2k with the linear
    # branch, and must solve 2k tanh(2k t_k) = 1/t_k
    linear = [_crossing(SurfaceKind.ANNULUS, 2 * r.k, 0) for r in records]
    ok = all(
        r.margin > 0 and c.modulus == r.t_k and c.residual <= 1e-13 * 2 * r.k and r.t_k < r.t_k1
        for r, c in zip(records, linear)
    )
    checks.append(("no-asymptote margins and identity", ok))
    return checks


def _suite_suprema(max_mode: int):
    from .extrema import Character, critical_set, sup_sigma_annulus, sup_sigma_mobius

    # No crossing of even branch m carries an index below 2m - 1, so
    # critical_set(kind, max_mode) holds every crossing that can carry
    # j <= 2 max_mode, and sup_*(j) must be the best local max carrying j.
    checks = []
    for kind in SurfaceKind:
        band = kind is SurfaceKind.MOBIUS_BAND
        sup = sup_sigma_mobius if band else sup_sigma_annulus
        maxima = [r for r in critical_set(kind, max_mode) if r.character is Character.LOCAL_MAX]
        for j in range(1, 2 * max_mode + 1):
            value = sup(j).value
            best = max((r.value for r in maxima if j in r.indices), default=None)
            if not band and j == 2:
                # the one unattained supremum: no crossing carries j = 2, and
                # sigma_bar_2 rises to its T -> infinity limit 4*pi
                ok = best is None and value == 4.0 * math.pi
            else:
                # on the band the T -> infinity limit lies below the supremum
                ok = value == best and (not band or 2.0 * math.pi * math.ceil(j / 2) < value)
            checks.append((f"{kind.value} sup sigma_bar_{j} vs critical set", ok))
    return checks


_SURFACE_SET = (
    (FamilyKind.CATENOID_B3, None, 1),
    (FamilyKind.CATENOID_B3, None, 2),
    (FamilyKind.ANNULUS_B4, 2, 1),
    (FamilyKind.ANNULUS_B4, 3, 2),
    (FamilyKind.MOBIUS_B4, 2, 1),
    (FamilyKind.MOBIUS_B4, 4, 3),
)


def _suite_surfaces(_max_mode: int):
    from .surfaces import make_family, verify_identities

    checks = []
    for family, m, n in _SURFACE_SET:
        rep = verify_identities(make_family(family, m=m, n=n))
        name = f"{family.value}({m},{n})" if m else f"{family.value}({n})"
        ok = (
            rep.conformal_residual <= 1e-12
            and rep.boundary_norm_residual <= 1e-12
            and rep.stress_energy_residual <= 1e-12
            and rep.free_boundary_angle <= 1e-10
            and rep.boundary_factor_deviation <= 1e-10
            and rep.harmonic_order >= 1.8
        )
        checks.append((f"identities {name}", ok))
    return checks


def _suite_injectivity(_max_mode: int):
    from .surfaces import annulus_b4, injectivity_scan, mobius_b4

    checks = []
    for m, n in ((2, 1), (4, 1)):
        rep = injectivity_scan(mobius_b4(m, n))
        checks.append((f"mobius({m},{n}) injective off the core circle", rep.injective))
    rep = injectivity_scan(annulus_b4(6, 3))
    checks.append(("annulus(6,3) covering degree 3", rep.covering_degree == 3))
    return checks


def _suite_oracle(_max_mode: int):
    from .dtn import OracleProblem, convergence_study

    checks = []
    for kind, T in ((SurfaceKind.ANNULUS, 1.0), (SurfaceKind.MOBIUS_BAND, 0.7)):
        problem = OracleProblem(kind=kind, T=T, grid=(40, 40))
        report = convergence_study(problem, [(20, 20), (40, 40), (80, 80)], n_eigs=4)
        checks.append(
            (f"oracle order {kind.value} T={T}", 1.5 <= report.observed_order <= 2.5)
        )
    return checks


_SUITES = {
    "lemmas": _suite_lemmas,
    "suprema": _suite_suprema,
    "surfaces": _suite_surfaces,
    "injectivity": _suite_injectivity,
    "oracle": _suite_oracle,
}


def _cmd_verify(args) -> int:
    _check_index(args.max_mode, "--max-mode")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    lines = []
    failed = 0
    for name in names:
        for label, ok in _SUITES[name](args.max_mode):
            status = "pass" if ok else "FAIL"
            if not ok:
                failed += 1
            lines.append(f"  [{status}] {name:<12s} {label}")
    lines.append(f"{'all checks passed' if failed == 0 else f'{failed} check(s) FAILED'}")
    _emit(args, None, lines)
    return EXIT_OK if failed == 0 else EXIT_VERIFY


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="steklov", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--kind", choices=[k.value for k in SurfaceKind], required=True)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def formats(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--json", action="store_true")
        group.add_argument("--csv", action="store_true")

    p = sub.add_parser("spectrum", help="normalized spectrum at one modulus")
    common(p)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--count", type=int, default=6)
    formats(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("sweep", help="eigenvalues over a log-spaced modulus grid")
    common(p)
    p.add_argument("--j", default="1", help="comma-separated eigenvalue indices")
    p.add_argument("--t-min", type=float, default=0.05)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--steps", type=int, default=400)
    p.set_defaults(func=_cmd_sweep, csv=True)  # sweep always writes CSV

    p = sub.add_parser("crossings", help="branch-crossing lattice")
    common(p)
    p.add_argument("--max-mode", type=int, default=4)
    formats(p)
    p.set_defaults(func=_cmd_crossings)

    p = sub.add_parser("suprema", help="supremum of one normalized eigenvalue")
    common(p)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_suprema)

    p = sub.add_parser("critical-set", help="critical moduli with classification")
    common(p)
    p.add_argument("--max-mode", type=int, default=3)
    formats(p)
    p.set_defaults(func=_cmd_critical_set)

    p = sub.add_parser("surface", help="export a mesh of an explicit family")
    p.add_argument("--family", choices=[f.value for f in FamilyKind], required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--grid", default="128x256")
    p.add_argument("--format", choices=[f.value for f in MeshFormat], default="obj")
    p.add_argument("--projection", default="0,1,2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("oracle", help="discrete boundary-operator spectrum")
    common(p)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--grid", default="80x80")
    p.add_argument("--count", type=int, default=6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="run the invariant verification suites")
    p.add_argument("--suite", choices=["all"] + list(_SUITES), default="all")
    p.add_argument("--max-mode", type=int, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


# built at import, once per process: in-process run() calls reuse it
_PARSER = build_parser()


def run(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SteklovError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        target = exc.filename if exc.filename is not None else "output"
        sys.stderr.write(f"error: cannot write {target}: {exc.strerror or exc}\n")
        return EXIT_USAGE
    except MemoryError as exc:
        sys.stderr.write(f"error: not enough memory: {str(exc) or 'allocation failed'}\n")
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
