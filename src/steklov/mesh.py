"""Triangulated parameter-grid meshes of the immersion families.

Annulus-type families mesh the full cylinder [-T*, T*] x S^1 with the theta
seam welded.  Mobius families mesh the fundamental domain [0, T*] x S^1 and
weld the core circle t = 0 through the half-turn identification, which
leaves a single boundary loop at t = T*.  Four-dimensional families are
written to OBJ/PLY through an orthogonal projection onto three chosen
coordinates; CSV always carries the full coordinates.  The projection axes are
checked against the family's dimension for every format.

Exports are ``%.17g`` text (``%d`` for face indices), byte for byte what
``template % row`` gives, formatted by ``numtext.format_rows`` a block of rows
at a time.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import DomainError
from .numtext import format_rows
from .surfaces import ImmersionFamily, _position

# Rows formatted per write call: bounds the size of each formatted string, so
# peak memory does not grow with the mesh.
_BLOCK_ROWS = 4096

# Most vertices a grid may have, checked as (n_t + 1) * n_theta before any
# allocation: PLY writes face vertex indices as signed 32-bit "int".
_MAX_VERTICES = 2**31 - 1


class MeshFormat(Enum):
    OBJ = "obj"
    PLY = "ply"
    CSV = "csv"


@dataclass(frozen=True)
class SurfaceMesh:
    vertices: np.ndarray  # (V, ambient_dim)
    faces: np.ndarray  # (F, 3), 0-based
    params: np.ndarray  # (V, 2) representative (t, theta) per vertex

    @property
    def euler_characteristic(self) -> int:
        n_vertices = len(self.vertices)
        edges, _ = _edge_counts(self.faces, n_vertices)
        return n_vertices - len(edges) + len(self.faces)

    def boundary_loops(self) -> int:
        """Count closed loops of edges that belong to exactly one face."""
        n_vertices = len(self.vertices)
        edges, counts = _edge_counts(self.faces, n_vertices)
        boundary = edges[counts == 1]
        adj = defaultdict(list)
        for a, b in zip((boundary // n_vertices).tolist(), (boundary % n_vertices).tolist()):
            adj[a].append(b)
            adj[b].append(a)
        seen = set()
        loops = 0
        for start in adj:
            if start in seen:
                continue
            loops += 1
            stack = [start]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                stack.extend(adj[v])
        return loops


def _edge_counts(faces: np.ndarray, n_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct undirected edges, keyed lo * n_vertices + hi, with face counts.

    The keys of the edges (a, b), (b, c), (c, a) of every face are sorted
    once; each run of equal keys is one edge, its length the count.
    """
    keys = np.empty((3, len(faces)), dtype=np.int64)
    for key, (i, j) in zip(keys, ((0, 1), (1, 2), (2, 0))):
        a, b = faces[:, i], faces[:, j]
        np.minimum(a, b, out=key)
        key *= n_vertices
        key += np.maximum(a, b)
    keys = keys.ravel()
    keys.sort()
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[starts], np.diff(np.r_[starts, len(keys)])


def build_mesh(fam: ImmersionFamily, n_t: int, n_theta: int) -> SurfaceMesh:
    if n_t < 3 or n_theta < 3:
        raise DomainError("grid must be at least 3x3")
    if fam.is_quotient and n_theta % 2 != 0:
        raise DomainError("the half-turn weld requires an even theta count")
    if fam.is_quotient and n_theta < 6:
        # the weld leaves n_theta / 2 core vertices; two make a 2-gon, not a circle
        raise DomainError(f"the half-turn weld needs n_theta >= 6, got {n_theta}")
    if (int(n_t) + 1) * int(n_theta) > _MAX_VERTICES:
        raise DomainError(f"grid {n_t}x{n_theta} exceeds {_MAX_VERTICES} vertices, PLY's limit")
    T = fam.T_star
    th_vals = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    # vertex id of grid node (i, j) for j = 0..n_theta; column n_theta is the
    # seam, welded to column 0
    i = np.arange(n_t + 1)[:, None]
    j = np.arange(n_theta + 1)[None, :] % n_theta

    if fam.is_quotient:
        # row 0 is the core circle: (0, th) ~ (0, th + pi) leaves half a row
        half = n_theta // 2
        vid = half + (i - 1) * n_theta + j
        vid[0] = j[0] % half
        core = np.column_stack([np.zeros(half), th_vals[:half]])
        t_rows = np.linspace(0.0, T, n_t + 1)[1:]
    else:
        vid = i * n_theta + j
        core = np.empty((0, 2))
        t_rows = np.linspace(-T, T, n_t + 1)
    rows = np.column_stack([np.repeat(t_rows, n_theta), np.tile(th_vals, len(t_rows))])
    params = np.concatenate([core, rows])

    # the (row, theta) tensor grid, flattened row-major, is in the order of rows
    grid = _position(fam, t_rows[:, None], th_vals)
    vertices = np.concatenate(
        [_position(fam, core[:, 0], core[:, 1]), grid.reshape(-1, fam.ambient_dim)]
    )

    # two triangles per cell (i, j), cells in row-major order
    v00, v01 = vid[:-1, :-1], vid[:-1, 1:]
    v10, v11 = vid[1:, :-1], vid[1:, 1:]
    faces = np.stack([v00, v01, v11, v00, v11, v10], axis=-1).reshape(-1, 3)
    return SurfaceMesh(vertices=vertices, faces=faces, params=params)


def export_mesh(
    fam: ImmersionFamily,
    n_t: int,
    n_theta: int,
    fmt: MeshFormat,
    path: str,
    projection: tuple[int, int, int] = (0, 1, 2),
) -> SurfaceMesh:
    dim = fam.ambient_dim
    axes = tuple(projection)
    if len(axes) != 3 or len(set(axes)) != 3 or not all(0 <= a < dim for a in axes):
        raise DomainError(
            f"invalid projection axes {projection}: need 3 distinct axes in 0..{dim - 1}"
        )
    mesh = build_mesh(fam, n_t, n_theta)
    if fmt is MeshFormat.CSV:
        _write_csv(mesh, path, dim)
    else:
        pts = mesh.vertices[:, list(axes)]
        if fmt is MeshFormat.OBJ:
            _write_obj(pts, mesh.faces, path)
        else:
            _write_ply(pts, mesh.faces, path)
    return mesh


def _write_rows(fh, template: str, rows: np.ndarray) -> None:
    """Write ``template % row`` for each row, a block of rows per write."""
    for start in range(0, len(rows), _BLOCK_ROWS):
        fh.write(format_rows(template, rows[start : start + _BLOCK_ROWS]))


def _write_csv(mesh: SurfaceMesh, path: str, dim: int) -> None:
    # the dialect of csv.writer: comma-separated, \r\n line ends; numbers
    # never need quoting
    header = ["t", "theta"] + [f"x{i + 1}" for i in range(dim)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        rows = np.concatenate([mesh.params, mesh.vertices], axis=1)
        _write_rows(fh, ",".join(["%.17g"] * (2 + dim)) + "\r\n", rows)


def _write_obj(pts: np.ndarray, faces: np.ndarray, path: str) -> None:
    with open(path, "w") as fh:
        _write_rows(fh, "v %.17g %.17g %.17g\n", pts)
        _write_rows(fh, "f %d %d %d\n", faces + 1)


def _write_ply(pts: np.ndarray, faces: np.ndarray, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(pts)}\n")
        fh.write("property double x\nproperty double y\nproperty double z\n")
        fh.write(f"element face {len(faces)}\n")
        fh.write("property list uchar int vertex_indices\nend_header\n")
        _write_rows(fh, "%.17g %.17g %.17g\n", pts)
        _write_rows(fh, "3 %d %d %d\n", faces)
