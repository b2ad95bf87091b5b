"""Mesh construction, topology invariants, and export formats."""

import csv
import hashlib
import io
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov import mesh as mesh_module
from steklov.exceptions import DomainError
from steklov.mesh import MeshFormat, build_mesh, export_mesh
from steklov.numtext import _g17_cells, _int_cells, _text
from steklov.surfaces import annulus_b4, catenoid_b3, evaluate, mobius_b4


def test_annulus_mesh_topology():
    mesh = build_mesh(catenoid_b3(1), 64, 128)
    assert mesh.euler_characteristic == 0
    assert mesh.boundary_loops() == 2
    assert len(mesh.vertices) == 65 * 128
    assert len(mesh.faces) == 2 * 64 * 128


def test_mobius_mesh_topology():
    mesh = build_mesh(mobius_b4(2, 1), 64, 128)
    assert mesh.euler_characteristic == 0
    assert mesh.boundary_loops() == 1
    # half-sized core row plus full rows
    assert len(mesh.vertices) == 64 + 64 * 128


def test_mobius_core_weld_is_consistent():
    fam = mobius_b4(2, 1)
    mesh = build_mesh(fam, 8, 16)
    # each core vertex represents both (0, th) and (0, th+pi); the immersion
    # must agree on the two representatives
    for j in range(8):
        t, th = mesh.params[j]
        u1 = evaluate(fam, t, th)[0]
        u2 = evaluate(fam, -t, th + math.pi)[0]
        assert np.max(np.abs(u1 - u2)) < 1e-14


def test_vertices_lie_in_closed_unit_ball():
    for fam in (catenoid_b3(2), annulus_b4(3, 2), mobius_b4(4, 3)):
        mesh = build_mesh(fam, 24, 48)
        norms = np.linalg.norm(mesh.vertices, axis=1)
        assert np.max(norms) <= 1.0 + 1e-12
        # boundary rows touch the sphere
        assert np.max(norms) >= 1.0 - 1e-12


@pytest.mark.parametrize(
    "fam, n_t, n_theta",
    [
        (catenoid_b3(1), 2, 64),
        (mobius_b4(2, 1), 16, 15),  # odd theta count cannot weld
        (catenoid_b3(1), 8.5, 16),  # sizes pass the integer rule first
        (mobius_b4(2, 1), 8, 16.5),
        (annulus_b4(3, 2), math.nan, 16),
        (catenoid_b3(1), 8, math.inf),
        (mobius_b4(2, 1), -math.inf, 16),
    ],
    ids=["cat-short", "band-odd-theta", "cat-fraction", "band-fraction", "ann-nan", "cat-inf", "band-minus-inf"],
)
def test_grid_validation(tmp_path, fam, n_t, n_theta):
    with pytest.raises(DomainError):
        build_mesh(fam, n_t, n_theta)
    path = tmp_path / "mesh.obj"
    with pytest.raises(DomainError):
        export_mesh(fam, n_t, n_theta, MeshFormat.OBJ, str(path))
    assert not path.exists()


@pytest.mark.parametrize("fmt", list(MeshFormat), ids=lambda f: f.value)
def test_integral_float_sizes_and_axes_write_the_same_bytes(tmp_path, fmt):
    fam = mobius_b4(2, 1)
    exact, floats = tmp_path / f"exact.{fmt.value}", tmp_path / f"floats.{fmt.value}"
    export_mesh(fam, 8, 16, fmt, str(exact), projection=(0, 1, 3))
    export_mesh(fam, 8.0, np.float64(16), fmt, str(floats), projection=(0, 1.0, np.float32(3)))
    assert exact.read_bytes() == floats.read_bytes()


@pytest.mark.parametrize(
    "n_t, n_theta",
    [
        (2**31 // 6, 6),  # (n_t + 1) * n_theta = 2**31 + 4, just past the bound
        (3, 2**30),
        (10**8, 10**8),
        (np.int64(2**61), np.int64(8)),  # the product would wrap in int64
    ],
)
def test_grid_past_ply_index_range_is_refused(tmp_path, n_t, n_theta):
    # refused before any allocation, so none of these grids touches memory
    for fam in (catenoid_b3(1), mobius_b4(2, 1)):
        with pytest.raises(DomainError, match="exceeds 2147483647 vertices"):
            build_mesh(fam, n_t, n_theta)
    path = tmp_path / "big.ply"
    with pytest.raises(DomainError, match="exceeds"):
        export_mesh(catenoid_b3(1), n_t, n_theta, MeshFormat.PLY, str(path))
    assert not path.exists()


def test_csv_round_trip(tmp_path):
    fam = mobius_b4(2, 1)
    path = tmp_path / "band.csv"
    mesh = export_mesh(fam, 12, 24, MeshFormat.CSV, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "theta", "x1", "x2", "x3", "x4"]
    values = np.array([[float(x) for x in row] for row in rows[1:]])
    assert np.array_equal(values[:, 2:], mesh.vertices)  # exact round trip
    assert np.array_equal(values[:, :2], mesh.params)


def test_obj_export(tmp_path):
    path = tmp_path / "cat.obj"
    mesh = export_mesh(catenoid_b3(1), 8, 16, MeshFormat.OBJ, str(path))
    lines = path.read_text().splitlines()
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(v_lines) == len(mesh.vertices)
    assert len(f_lines) == len(mesh.faces)
    # 1-based indices within range
    idx = [int(tok) for l in f_lines for tok in l.split()[1:]]
    assert min(idx) == 1 and max(idx) == len(mesh.vertices)


def test_ply_export(tmp_path):
    path = tmp_path / "band.ply"
    mesh = export_mesh(mobius_b4(2, 1), 8, 16, MeshFormat.PLY, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "ply"
    assert f"element vertex {len(mesh.vertices)}" in text
    assert f"element face {len(mesh.faces)}" in text


def test_projection_choice(tmp_path):
    fam = mobius_b4(2, 1)
    path = tmp_path / "proj.obj"
    export_mesh(fam, 8, 16, MeshFormat.OBJ, str(path), projection=(0, 1, 3))
    first = path.read_text().splitlines()[0].split()[1:]
    mesh = build_mesh(fam, 8, 16)
    assert [float(x) for x in first] == list(mesh.vertices[0, [0, 1, 3]])
    with pytest.raises(DomainError):
        export_mesh(fam, 8, 16, MeshFormat.OBJ, str(path), projection=(0, 1, 4))
    with pytest.raises(DomainError):
        export_mesh(fam, 8, 16, MeshFormat.OBJ, str(path), projection=(0, 1, 1))


@pytest.mark.parametrize("fmt", list(MeshFormat), ids=lambda f: f.value)
def test_projection_permutes_catenoid(tmp_path, fmt):
    fam = catenoid_b3(2)
    path = tmp_path / f"cat.{fmt.value}"
    export_mesh(fam, 8, 16, fmt, str(path), projection=(2, 1, 0))
    mesh = build_mesh(fam, 8, 16)
    lines = path.read_text().splitlines()
    if fmt is MeshFormat.CSV:  # CSV carries every coordinate, unprojected
        assert [float(x) for x in lines[1].split(",")[2:]] == list(mesh.vertices[0])
        return
    first = lines[0 if fmt is MeshFormat.OBJ else lines.index("end_header") + 1]
    assert [float(x) for x in first.split()[-3:]] == list(mesh.vertices[0, [2, 1, 0]])


@pytest.mark.parametrize("fmt", list(MeshFormat), ids=lambda f: f.value)
@pytest.mark.parametrize(
    "fam, projection",
    [
        (catenoid_b3(2), (0, 1)),
        (catenoid_b3(2), (0, 1, 3)),
        (catenoid_b3(2), (0, 0, 1)),
        (mobius_b4(2, 1), (9, 9, 9)),
        (mobius_b4(2, 1), (0, 1, 2, 3)),
        (annulus_b4(3, 2), (-1, 1, 2)),
        (catenoid_b3(2), (0, 1, 2.5)),
        (mobius_b4(2, 1), (0.5, 1, 2)),
        (annulus_b4(3, 2), (0, math.nan, 2)),
        (catenoid_b3(2), (0, 1, math.inf)),
    ],
    ids=[
        "cat-two-axes", "cat-axis-3", "cat-repeat", "band-999", "band-four-axes", "ann-negative",
        "cat-fraction", "band-fraction", "ann-nan", "cat-inf",
    ],
)
def test_projection_checked_for_every_family_and_format(tmp_path, fam, projection, fmt):
    path = tmp_path / f"mesh.{fmt.value}"
    with pytest.raises(DomainError, match="projection"):
        export_mesh(fam, 8, 16, fmt, str(path), projection=projection)
    assert not path.exists()  # checked before the mesh is built or the file opened


def test_boundary_loops_vertex_counts():
    # annulus boundary loops have n_theta vertices each; Mobius has one loop
    # of 2*n_theta edges worth of boundary (single circle of length 2 pi f)
    mesh = build_mesh(mobius_b4(2, 1), 16, 32)
    count = Counter()
    for a, b, c in mesh.faces:
        for e in ((a, b), (b, c), (c, a)):
            count[(min(e), max(e))] += 1
    boundary_edges = [e for e, n in count.items() if n == 1]
    assert len(boundary_edges) == 32


# sha256 of exports taken from per-value format(x, ".17g") writers (csv.writer
# for CSV); the block writers must reproduce them byte for byte.  The digests
# depend on the libm behind NumPy's cosh/sin; these were taken on x86-64 Linux.
_FAMILIES = {
    "catenoid2": lambda: catenoid_b3(2),
    "catenoid1": lambda: catenoid_b3(1),
    "annulus32": lambda: annulus_b4(3, 2),
    "mobius21": lambda: mobius_b4(2, 1),
}
# recorded under NumPy 2.4.6 with X86_V4 (AVX-512) dispatch; without AVX-512 the bits differ
_EXPORT_SHA256 = [
    ("catenoid2", (8, 16), (0, 1, 2), {
        "obj": "a4505253b92e82b788e4d1a0fedd67add2930ed52c0f7ac6ece38b9d931fd33e",
        "ply": "a48d20431bf4300b857afba3d92a9d823a84a569faf64b2fd635081fade29403",
        "csv": "7fc86dfc5ec443d74a61fd315addb88a31bd304278005d5dc8c7950db44a849e",
    }),
    ("annulus32", (8, 16), (0, 1, 3), {
        "obj": "c54113dd243165023a2097b898cda2ceb30e2518ed6deeae152f0574c65384d4",
        "ply": "3f590f7bb06e5508a9d5e808ff1b923e80197a08485c08b85eee32cc9f0f8db0",
        "csv": "0bc927c9ff6d60dd3b4eb82eab759995f82f5d832457f3a8a19aece7f5fc1235",
    }),
    ("mobius21", (8, 16), (0, 1, 2), {
        "obj": "1a65abd578611170d0941dea5b1e56db1f730ef0faa4ee4f9b4cf3d3d3a1fd04",
        "ply": "8786bdbcd27adce8bc14aef9eeb0333cf6e43dd239dbd42a8a4bfbfaac77283f",
        "csv": "e30878709186a82f620e56a7c07e5e5a152b8457ae6eb43276c361c8b2451233",
    }),
    # 8320 vertex rows and 16384 face rows: several writer blocks
    ("catenoid1", (64, 128), (0, 1, 2), {
        "obj": "c60fdb8462e89a6abeafb9ee69ae0b899a5328633d72c279b94be7330f6bf020",
        "ply": "c88cd98346c3edc9cf0ea0e1d5cec7233988ca9391b7775209dde3b40e7999b5",
        "csv": "90537147eb54c3f1bd787cb9d6c783049e77a1e8fad8ebdb9dd5e0e6efd049c3",
    }),
    # 10496 vertices: face ids of up to five digits, 1-based in OBJ, 0-based in PLY
    ("catenoid2", (40, 256), (0, 1, 2), {
        "obj": "ef4b41902a1210318c0eff7efc8ed38d518ce21d7e9392f556a45f2d4fc91835",
        "ply": "1691265a0c0e14afc92246d6a8160ea577f549077873229387b6dc9541b97977",
        "csv": "ffed9bfc071fd139fdba07d13a851d395b19da6326ad48d963d2de94baa6e643",
    }),
]


@pytest.mark.parametrize(
    "name, grid, projection, digests",
    _EXPORT_SHA256,
    ids=[f"{case[0]}-{case[1][0]}x{case[1][1]}" for case in _EXPORT_SHA256],
)
@pytest.mark.parametrize("fmt", list(MeshFormat), ids=lambda f: f.value)
def test_export_bytes_pinned(tmp_path, name, grid, projection, digests, fmt):
    path = tmp_path / f"mesh.{fmt.value}"
    export_mesh(_FAMILIES[name](), *grid, fmt, str(path), projection=projection)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digests[fmt.value]


def test_pinned_exports_span_several_blocks():
    n_t, n_theta = _EXPORT_SHA256[-2][1]
    assert 3 * (n_t + 1) * n_theta > 2 * mesh_module._BLOCK_VALUES  # vertex values
    n_t, n_theta = _EXPORT_SHA256[-1][1]
    assert (n_t + 1) * n_theta > 10**4


def _reference_faces(n_t, n_theta, quotient):
    # the cell-by-cell construction: two triangles per cell, seam column
    # welded to column 0, the Mobius core row welded through the half turn
    half = n_theta // 2

    def vid(i, j):
        j %= n_theta
        if not quotient:
            return i * n_theta + j
        return j % half if i == 0 else half + (i - 1) * n_theta + j

    faces = []
    for i in range(n_t):
        for j in range(n_theta):
            v00, v01 = vid(i, j), vid(i, j + 1)
            v10, v11 = vid(i + 1, j), vid(i + 1, j + 1)
            faces += [(v00, v01, v11), (v00, v11, v10)]
    return faces


def _reference_topology(faces, n_vertices):
    """Euler characteristic and boundary loop count from a per-face edge count."""
    count = Counter()
    for a, b, c in faces:
        for e in ((a, b), (b, c), (c, a)):
            count[(min(e), max(e))] += 1
    parent = list(range(n_vertices))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    boundary = [e for e, k in count.items() if k == 1]
    for a, b in boundary:
        parent[root(a)] = root(b)
    loops = len({root(v) for e in boundary for v in e})
    return n_vertices - len(count) + len(faces), loops


@pytest.mark.parametrize(
    "fam",
    [catenoid_b3(2), annulus_b4(3, 2), mobius_b4(2, 1), mobius_b4(8, 3)],
    ids=["catenoid2", "annulus32", "mobius21", "mobius83"],
)
@pytest.mark.parametrize("grid", [(3, 4), (5, 6), (9, 20)])
def test_topology_matches_per_face_count(fam, grid):
    if fam.is_quotient and grid[1] < 6:
        # a 4-column Mobius grid would weld its core into a 2-gon
        with pytest.raises(DomainError):
            build_mesh(fam, *grid)
        return
    mesh = build_mesh(fam, *grid)
    faces = _reference_faces(*grid, fam.is_quotient)
    assert mesh.faces.tolist() == [list(f) for f in faces]
    euler, loops = _reference_topology(faces, len(mesh.vertices))
    assert mesh.euler_characteristic == euler
    assert mesh.boundary_loops() == loops
    assert euler == 0
    assert loops == (1 if fam.is_quotient else 2)


@pytest.mark.parametrize(
    "fam", [catenoid_b3(2), mobius_b4(8, 3)], ids=["catenoid2", "mobius83"]
)
def test_edge_counts_match_per_face_count(fam):
    # every distinct edge, in key order, with the number of faces it borders
    rng = np.random.default_rng(5)
    mesh = build_mesh(fam, 9, 20)
    n_vertices = len(mesh.vertices)
    soup = rng.integers(0, 12, size=(40, 3))  # repeated and degenerate edges
    for faces, n in ((mesh.faces, n_vertices), (soup, 12)):
        count = Counter()
        for a, b, c in faces.tolist():
            for e in ((a, b), (b, c), (c, a)):
                count[min(e) * n + max(e)] += 1
        edges, counts = mesh_module._edge_counts(faces, n)
        assert edges.tolist() == sorted(count)
        assert counts.tolist() == [count[k] for k in sorted(count)]


def test_edges_are_counted_once_per_mesh(monkeypatch):
    calls = []
    counts = mesh_module._edge_counts
    monkeypatch.setattr(mesh_module, "_edge_counts", lambda *a: calls.append(1) or counts(*a))
    mesh = build_mesh(mobius_b4(2, 1), 9, 20)
    for _ in range(2):
        assert mesh.euler_characteristic == 0
        assert mesh.boundary_loops() == 1
    assert len(calls) == 1


def _reference_params(fam, n_t, n_theta):
    # the (t, theta) of every vertex built row by row: the welded core circle
    # first on the quotient, then one full row per t
    T = fam.T_star
    th = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    if fam.is_quotient:
        core = np.column_stack([np.zeros(n_theta // 2), th[: n_theta // 2]])
        t_rows = np.linspace(0.0, T, n_t + 1)[1:]
    else:
        core = np.empty((0, 2))
        t_rows = np.linspace(-T, T, n_t + 1)
    rows = np.column_stack([np.repeat(t_rows, n_theta), np.tile(th, len(t_rows))])
    return np.concatenate([core, rows])


@pytest.mark.parametrize(
    "fam",
    [catenoid_b3(2), annulus_b4(3, 2), mobius_b4(4, 1)],
    ids=["catenoid2", "annulus32", "mobius41"],
)
@pytest.mark.parametrize("grid", [(3, 6), (8, 16), (9, 20), (40, 256)])
def test_grid_params_reproduce_mesh_params(fam, grid):
    mesh = build_mesh(fam, *grid)
    params = mesh.params
    assert params.tobytes() == _reference_params(fam, *grid).tobytes()
    t_vals, th_vals, n_first = mesh.grid
    n_t, n_theta = grid
    n = len(params)
    # the (row, col) rule on blocks that start and end inside, at and just
    # past row 0
    for start, stop in [(0, 1), (0, n_first), (1, n_first + 1), (n_first, n_first + 3),
                        (n_first - 1, n), (n // 3, n // 2), (n - 1, n), (0, n)]:
        row, col = mesh_module._grid_nodes(np.arange(start, stop), n_theta, n_first)
        got = np.column_stack([t_vals[row], th_vals[col]])
        assert got.tobytes() == params[start:stop].tobytes()
    # the faces' vertex ids laid back on the grid nodes (i, j), j = 0..n_theta:
    # cell (i, j) holds the triangles (v00, v01, v11) and (v00, v11, v10)
    upper = mesh.faces[0::2].reshape(n_t, n_theta, 3)
    lower = mesh.faces[1::2].reshape(n_t, n_theta, 3)
    assert np.array_equal(lower[..., :2], upper[..., [0, 2]])
    vid = np.empty((n_t + 1, n_theta + 1), dtype=mesh.faces.dtype)
    vid[:-1, :-1], vid[:-1, 1:], vid[1:, 1:] = upper[..., 0], upper[..., 1], upper[..., 2]
    vid[1:, :-1] = lower[..., 2]
    assert np.array_equal(np.unique(vid), np.arange(n))
    # the rule inverts them: the seam column n_theta is column 0, and on the
    # band row 0 wraps at the core weld, n_first
    i, j = np.indices(vid.shape)
    j %= n_theta
    j[0] %= n_first
    row, col = mesh_module._grid_nodes(vid, n_theta, n_first)
    assert np.array_equal(row, i) and np.array_equal(col, j)
    assert params[vid].tobytes() == np.stack([t_vals[i], th_vals[j]], axis=-1).tobytes()


# ---------------------------------------------------------------------------
# The block formatter against CPython's own ``%`` conversions.


def _g17_text(rows, leads):
    """``leads[c] + '%.17g' % rows[i, c]`` over the 2-D ``rows``, row by row."""
    return _text(_g17_cells(np.asarray(rows, dtype=float), leads)).decode("ascii")


def _percent(template, values):
    return "".join(template % v for v in values)


def _dyadic_ties():
    """Doubles odd / 2**(17 - k) in [10**k, 10**(k + 1)): their exact decimal
    has 18 significant digits ending in 5, a tie for 17 digits.  Such doubles
    exist for k in -8..12 (a smaller k leaves no odd numerator in range, a
    larger one needs more than 53 bits)."""
    ties = []
    for k in range(-8, 13):
        den = 2 ** (17 - k)
        low, high = Fraction(10) ** k * den, Fraction(10) ** (k + 1) * den
        for odd in {math.ceil(low) | 1, (math.ceil(low) | 1) + 2, (math.ceil(high) - 1) | 1}:
            if low <= odd < high:
                x = odd / den
                assert (Fraction(x) * Fraction(10) ** (16 - k)).denominator == 2
                ties.append(x)
    return ties


def _float_cases():
    cases = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    cases += [math.inf, -math.inf, math.nan, 0.1, 0.5, 1.5, 100.0, 120.0, 123.456]
    for k in range(-30, 31):
        p = float(f"1e{k}")  # the double nearest 10**k
        cases += [p, -p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
        cases += [math.nextafter(math.nextafter(p, 0.0), 0.0)]
    cases += _dyadic_ties()
    # integers at and above 2**53, where doubles are spaced 2 apart or more
    cases += [2.0**53, 2.0**53 + 2, 2.0**60, 1e16, 1e16 - 2, 99999999999999984.0, 1e17]
    # 1e-14 lies below 10**-14 yet rounds up to 10**17 at 17 digits, and its
    # product with 10**30 rounds to 1e16 from below
    cases += [1e-14, 9.9999999999999995e-15]
    return cases


def test_g17_fixed_cases():
    cases = _float_cases()
    assert _g17_text(np.asarray(cases)[:, None], ["\n"]) == _percent("\n%.17g", cases)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=64))
def test_g17_matches_percent(values):
    assert _g17_text(np.asarray(values)[:, None], ["\n"]) == _percent("\n%.17g", values)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-32, 32)),
        min_size=1,
        max_size=64,
    )
)
def test_g17_matches_percent_across_the_array_range(values):
    # |x| in 1e-32..1e33: the table-driven path and both of its borders
    assert _g17_text(np.asarray(values)[:, None], ["\n"]) == _percent("\n%.17g", values)


def _id_text(ids, rows, head):
    """The id writer's text for index rows into ``ids``."""
    buf = io.BytesIO()
    mesh_module._write_ids(buf, np.asarray(rows), np.asarray(ids), head)
    return buf.getvalue().decode("ascii")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=64))
def test_d_matches_percent(values):
    rows = np.arange(len(values))[:, None]
    assert _id_text(values, rows, "\n") == _percent("\n%d", values)


@pytest.mark.parametrize(
    "values",
    [[0], [0, 0, 7], [9999, 10000, 10001], [0, 1], [2**53, 2**53 + 1, 2**63 - 1]],
)
def test_d_fixed_cases(values):
    rows = np.arange(len(values))[:, None]
    assert _id_text(values, rows, "\n") == _percent("\n%d", values)


# ids of every length from 1 to 10 digits, up to PLY's largest index
_SPREAD_IDS = sorted({10**d + o for d in range(10) for o in (-1, 0, 7)} | {2**31 - 1})


@pytest.mark.parametrize("base", [0, 1])
@pytest.mark.parametrize("head", ["\nf ", "\n3 "])
def test_id_writer_matches_percent(base, head):
    ids = np.array(_SPREAD_IDS) + base
    block = mesh_module._block_rows(3)
    rng = np.random.default_rng(base)
    for n_rows in (1, block - 1, block, block + 1, 2 * block + 5):
        rows = rng.integers(0, len(ids), (n_rows, 3))
        want = "".join(head + "%d %d %d" % tuple(ids[r].tolist()) for r in rows)
        assert _id_text(ids, rows, head) == want
    assert len(str(ids.max())) == 10


def test_id_cells_refuse_negative_and_float_values():
    with pytest.raises(ValueError):
        _int_cells(np.array([3, -1]), 1)
    with pytest.raises(TypeError):
        _int_cells(np.zeros(2), 1)


@pytest.mark.parametrize(
    "leads", [["\nv ", " ", " "], ["\n", " ", " "], ["\r\n"] + [","] * 5], ids=["obj", "ply", "csv"]
)
def test_g17_rows_match_row_templates(leads):
    rng = np.random.default_rng(7)
    n_cols = len(leads)
    rows = rng.standard_normal((50, n_cols)) * 10.0 ** rng.integers(-20, 20, (50, n_cols))
    rows[3] = 0.0
    template = "%.17g".join(leads) + "%.17g"
    assert _g17_text(rows, leads) == (template * 50) % tuple(rows.ravel().tolist())


# ---------------------------------------------------------------------------
# Exports at the benchmark's grids against the per-row ``%`` writers that the
# block formatter replaced.


def _reference_export(fam, n_t, n_theta, fmt, path, projection):
    mesh = build_mesh(fam, n_t, n_theta)
    if fmt is MeshFormat.CSV:
        dim = fam.ambient_dim
        row = ",".join(["%.17g"] * (2 + dim)) + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["t", "theta"] + [f"x{i + 1}" for i in range(dim)]) + "\r\n")
            for values in np.concatenate([mesh.params, mesh.vertices], axis=1).tolist():
                fh.write(row % tuple(values))
        return
    pts = mesh.vertices[:, list(projection)].tolist()
    faces = mesh.faces.tolist()
    with open(path, "w") as fh:
        if fmt is MeshFormat.OBJ:
            for p in pts:
                fh.write("v %.17g %.17g %.17g\n" % tuple(p))
            for a, b, c in faces:
                fh.write("f %d %d %d\n" % (a + 1, b + 1, c + 1))
            return
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(pts)}\n")
        fh.write("property double x\nproperty double y\nproperty double z\n")
        fh.write(f"element face {len(faces)}\n")
        fh.write("property list uchar int vertex_indices\nend_header\n")
        for p in pts:
            fh.write("%.17g %.17g %.17g\n" % tuple(p))
        for f in faces:
            fh.write("3 %d %d %d\n" % tuple(f))


@pytest.mark.parametrize("fmt", list(MeshFormat), ids=lambda f: f.value)
@pytest.mark.parametrize(
    "fam, grid, projection",
    [
        (catenoid_b3(3), (32, 64), (0, 1, 2)),  # exact zeros on every theta = 0 row
        (mobius_b4(8, 5), (96, 192), (3, 1, 0)),
        (annulus_b4(7, 4), (128, 256), (0, 1, 2)),
    ],
    ids=["catenoid3-32x64", "mobius85-96x192", "annulus74-128x256"],
)
def test_export_matches_per_row_writer(tmp_path, fam, grid, projection, fmt):
    got, want = tmp_path / f"block.{fmt.value}", tmp_path / f"rows.{fmt.value}"
    export_mesh(fam, *grid, fmt, str(got), projection=projection)
    _reference_export(fam, *grid, fmt, str(want), projection)
    assert got.read_bytes() == want.read_bytes()


def test_mesh_equality_is_identity_and_hashable():
    fam = mobius_b4(2, 1)
    a, b = build_mesh(fam, 3, 6), build_mesh(fam, 3, 6)
    assert a == a and a != b  # NumPy fields are never compared
    assert len({a, b, a}) == 2
