"""Triangulated parameter-grid meshes of the immersion families.

Annulus-type families mesh the full cylinder [-T*, T*] x S^1 with the theta
seam welded.  Mobius families mesh the fundamental domain [0, T*] x S^1 and
weld the core circle t = 0 through the half-turn identification, which
leaves a single boundary loop at t = T*.  Four-dimensional families are
written to OBJ/PLY through an orthogonal projection onto three chosen
coordinates; CSV always carries the full coordinates.  The projection axes are
checked against the family's dimension for every format.

A mesh keeps its grid: the t of each row, the theta of each column, and the
vertex count n_first of row 0 (n_theta, or the n_theta / 2 vertices of the
welded core circle on the quotient).  Grid node (i, j) is vertex
i * n_theta + j - (n_theta - n_first) * [i > 0], taken mod n_first in row 0;
the faces are built by this rule, and ``_grid_nodes`` inverts it for
``SurfaceMesh.params`` and the CSV parameter columns.

Exports are ``%.17g`` text (``%d`` for face indices), byte for byte what
``template % row`` gives, built by ``steklov.numtext`` and written as bytes a
block of about ``_BLOCK_VALUES`` values at a time.  Each distinct number is
formatted once per export: the ``%d`` text of every vertex id is one table
that the faces gather three cells a row from, and the CSV parameters gather
the text of the grid's t and theta values at each vertex's node.  Every row
is written with the line break that ends the row before it, laid into the
free leading bytes of its first cell; the writers drop the first one or let
the header end on it, and write the file's last line break themselves.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DomainError, _check_integer
from .kinds import MeshFormat
from .numtext import _g17_cells, _gather, _int_cells, _items, _text
from .surfaces import ImmersionFamily, _position

# Values formatted per write call: bounds the size of each block of text, so
# peak memory does not grow with the mesh.  The formatter's cost per value is
# least near this size and about doubles by 3 * 10**4 values, where its
# working arrays outgrow the cache (2-vCPU x86-64 VM).
_BLOCK_VALUES = 8192

# Most vertices a grid may have, checked as (n_t + 1) * n_theta before any
# allocation: PLY writes face vertex indices as signed 32-bit "int".
_MAX_VERTICES = 2**31 - 1


@dataclass(frozen=True, eq=False)  # NumPy fields: equality is identity, hashing by id
class SurfaceMesh:
    vertices: np.ndarray  # (V, ambient_dim)
    faces: np.ndarray  # (F, 3), 0-based
    # (t_vals, th_vals, n_first) of ``_grid_axes``: the t of each row, the
    # theta of each column, the vertex count of row 0
    grid: tuple[np.ndarray, np.ndarray, int]

    @cached_property
    def params(self) -> np.ndarray:
        """(V, 2) representative (t, theta) per vertex, read off the grid."""
        t_vals, th_vals, n_first = self.grid
        row, col = _grid_nodes(np.arange(len(self.vertices)), len(th_vals), n_first)
        return np.column_stack([t_vals[row], th_vals[col]])

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        # computed once per mesh; cached_property stores it in the instance
        # dict, which the frozen dataclass's __setattr__ does not guard
        return _edge_counts(self.faces, len(self.vertices))

    @property
    def euler_characteristic(self) -> int:
        edges, _ = self._edges
        return len(self.vertices) - len(edges) + len(self.faces)

    def boundary_loops(self) -> int:
        """Count closed loops of edges that belong to exactly one face."""
        n_vertices = len(self.vertices)
        edges, counts = self._edges
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


def _grid_axes(fam: ImmersionFamily, n_t: int, n_theta: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The t of each grid row, the theta of each column, and the vertex count
    of row 0: the n_theta / 2 vertices of the welded core circle t = 0 on the
    quotient, a full row otherwise."""
    T = fam.T_star
    th_vals = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    if fam.is_quotient:
        return np.linspace(0.0, T, n_t + 1), th_vals, n_theta // 2
    return np.linspace(-T, T, n_t + 1), th_vals, n_theta


def _grid_nodes(v: np.ndarray, n_theta: int, n_first: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) of the grid node each vertex id in ``v`` stands for: the
    inverse of the faces' rule in ``build_mesh``."""
    return np.divmod(v + (n_theta - n_first) * (v >= n_first), n_theta)


def build_mesh(fam: ImmersionFamily, n_t: int, n_theta: int) -> SurfaceMesh:
    n_t, n_theta = _check_integer(n_t, "n_t"), _check_integer(n_theta, "n_theta")
    if n_t < 3 or n_theta < 3:
        raise DomainError("grid must be at least 3x3")
    if fam.is_quotient and n_theta % 2 != 0:
        raise DomainError("the half-turn weld requires an even theta count")
    if fam.is_quotient and n_theta < 6:
        # the weld leaves n_theta / 2 core vertices; two make a 2-gon, not a circle
        raise DomainError(f"the half-turn weld needs n_theta >= 6, got {n_theta}")
    if (n_t + 1) * n_theta > _MAX_VERTICES:
        raise DomainError(f"grid {n_t}x{n_theta} exceeds {_MAX_VERTICES} vertices, PLY's limit")
    t_vals, th_vals, n_first = _grid_axes(fam, n_t, n_theta)
    # the (t, theta) tensor grid, flattened row-major, less the nodes past
    # n_first in row 0
    nodes = _position(fam, t_vals[:, None], th_vals).reshape(-1, fam.ambient_dim)
    vertices = np.concatenate([nodes[:n_first], nodes[n_theta:]])

    # vertex id of grid node (i, j) for j = 0..n_theta; column n_theta is the
    # seam, welded to column 0, and row 0 wraps at n_first, which on the
    # quotient is the core weld (0, th) ~ (0, th + pi)
    i = np.arange(n_t + 1)[:, None]
    j = np.arange(n_theta + 1)[None, :] % n_theta
    vid = i * n_theta + j - (n_theta - n_first) * (i > 0)
    vid[0] %= n_first

    # two triangles per cell (i, j), cells in row-major order
    v00, v01 = vid[:-1, :-1], vid[:-1, 1:]
    v10, v11 = vid[1:, :-1], vid[1:, 1:]
    faces = np.stack([v00, v01, v11, v00, v11, v10], axis=-1).reshape(-1, 3)
    return SurfaceMesh(vertices=vertices, faces=faces, grid=(t_vals, th_vals, n_first))


def export_mesh(
    fam: ImmersionFamily,
    n_t: int,
    n_theta: int,
    fmt: MeshFormat,
    path: str,
    projection: tuple[int, int, int] = (0, 1, 2),
) -> SurfaceMesh:
    if not isinstance(fmt, MeshFormat):
        raise DomainError(f"format must be a MeshFormat, got {fmt!r}")
    dim = fam.ambient_dim
    axes = tuple(_check_integer(a, "projection axis") for a in projection)
    if len(axes) != 3 or len(set(axes)) != 3 or not all(0 <= a < dim for a in axes):
        raise DomainError(
            f"invalid projection axes {projection}: need 3 distinct axes in 0..{dim - 1}"
        )
    mesh = build_mesh(fam, n_t, n_theta)
    if fmt is MeshFormat.CSV:
        _write_csv(mesh, path)
    else:
        pts = mesh.vertices[:, list(axes)]
        if fmt is MeshFormat.OBJ:
            _write_obj(pts, mesh.faces, path)
        else:
            _write_ply(pts, mesh.faces, path)
    return mesh


def _block_rows(n_cols: int) -> int:
    """Rows of ``n_cols`` values per block."""
    return max(1, _BLOCK_VALUES // n_cols)


def _write_floats(fh, rows: np.ndarray, leads: list[str], skip: int = 0) -> None:
    """Write ``leads[0] + '%.17g' % row[0] + leads[1] + ...`` for each row,
    less the first ``skip`` bytes."""
    step = _block_rows(rows.shape[1])
    for start in range(0, len(rows), step):
        fh.write(memoryview(_text(_g17_cells(rows[start : start + step], leads)))[skip:])
        skip = 0


def _write_ids(fh, rows: np.ndarray, ids: np.ndarray, head: str) -> None:
    """Write ``head + '%d %d ...' % tuple(ids[row])`` for each row of indices.

    The text of each id is made once, then gathered a cell per index.
    """
    table = _int_cells(ids, len(head))
    leads = [head] + [" "] * (rows.shape[1] - 1)
    step = _block_rows(rows.shape[1])
    for start in range(0, len(rows), step):
        fh.write(_text(_gather(table, rows[start : start + step], leads)))


def _write_csv(mesh: SurfaceMesh, path: str) -> None:
    # the dialect of csv.writer: comma-separated, \r\n line ends; numbers
    # never need quoting
    t_vals, th_vals, n_first = mesh.grid
    n_vertices, dim = mesh.vertices.shape
    # t and theta formatted in one call, the shorter column padded with zeros
    # that no vertex gathers
    axes = np.zeros((max(len(t_vals), len(th_vals)), 2))
    axes[: len(t_vals), 0] = t_vals
    axes[: len(th_vals), 1] = th_vals
    axis_cells = _items(_g17_cells(axes, ["\r\n", ","]))
    t_cells, th_cells = axis_cells[: len(t_vals), 0], axis_cells[: len(th_vals), 1]
    step = _block_rows(2 + dim)
    with open(path, "wb") as fh:
        # the header's line break comes with the first row
        fh.write(",".join(["t", "theta"] + [f"x{i + 1}" for i in range(dim)]).encode("ascii"))
        for start in range(0, n_vertices, step):
            stop = min(start + step, n_vertices)
            row, col = _grid_nodes(np.arange(start, stop), len(th_vals), n_first)
            cells = np.empty((stop - start, 2 + dim), t_cells.dtype)
            cells[:, 0], cells[:, 1] = t_cells[row], th_cells[col]
            cells[:, 2:] = _items(_g17_cells(mesh.vertices[start:stop], [","] * dim))
            fh.write(_text(cells))
        fh.write(b"\r\n")


def _write_obj(pts: np.ndarray, faces: np.ndarray, path: str) -> None:
    with open(path, "wb") as fh:
        # the file starts with a vertex, not with the line break before it
        _write_floats(fh, pts, ["\nv ", " ", " "], skip=1)
        _write_ids(fh, faces, np.arange(1, len(pts) + 1), "\nf ")
        fh.write(b"\n")


def _write_ply(pts: np.ndarray, faces: np.ndarray, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(
            (
                "ply\nformat ascii 1.0\n"
                f"element vertex {len(pts)}\n"
                "property double x\nproperty double y\nproperty double z\n"
                f"element face {len(faces)}\n"
                "property list uchar int vertex_indices\nend_header"  # its \n leads the first vertex
            ).encode("ascii")
        )
        _write_floats(fh, pts, ["\n", " ", " "])
        _write_ids(fh, faces, np.arange(len(pts)), "\n3 ")
        fh.write(b"\n")
