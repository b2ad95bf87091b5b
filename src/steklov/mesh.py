"""Triangulated parameter-grid meshes of the immersion families.

Annulus-type families mesh the full cylinder [-T*, T*] x S^1 with the theta
seam welded.  Mobius families mesh the fundamental domain [0, T*] x S^1 and
weld the core circle t = 0 through the half-turn identification, which
leaves a single boundary loop at t = T*.  Four-dimensional families are
written to OBJ/PLY through an orthogonal projection onto three chosen
coordinates; CSV always carries the full coordinates.  The projection axes are
checked against the family's dimension for every format.

Exports are ``%.17g`` text (``%d`` for face indices), byte for byte what
``template % row`` gives, built by ``steklov.numtext`` and written as bytes a
block of about ``_BLOCK_VALUES`` values at a time.  Each distinct number is
formatted once per export: the ``%d`` text of every vertex id is one table
that the faces gather three cells a row from, and the CSV parameters gather
the text of the grid's t and theta values through ``_grid_params``, the
helper that makes ``SurfaceMesh.params``.  Every row is written with the
line break that ends the row before it, laid into the free leading bytes of
its first cell; the writers drop the first one or let the header end on it,
and write the file's last line break themselves.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DomainError
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


@dataclass(frozen=True)
class SurfaceMesh:
    vertices: np.ndarray  # (V, ambient_dim)
    faces: np.ndarray  # (F, 3), 0-based
    params: np.ndarray  # (V, 2) representative (t, theta) per vertex

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


def _grid_params(t_items: np.ndarray, th_items: np.ndarray, n_first: int, start: int, stop: int) -> np.ndarray:
    """``(t_items[row], th_items[col])`` of the vertices start..stop - 1, in
    vertex order: row 0 holds vertices 0..n_first - 1 at columns
    0..n_first - 1, every later row one vertex per column.

    With the grid's t and theta values this is ``SurfaceMesh.params``; with
    their text cells, the CSV parameter columns.
    """
    n_theta = len(th_items)
    # the rows r0..r1 - 1 that hold the vertices, laid out whole
    r0 = 0 if start < n_first else 1 + (start - n_first) // n_theta
    r1 = 1 if stop <= n_first else 1 - (n_first - stop) // n_theta
    n_head = n_first if r0 == 0 else 0
    full = max(r0, 1)
    out = np.empty((n_head + (r1 - full) * n_theta, 2), t_items.dtype)
    out[:n_head, 0] = t_items[0]
    out[:n_head, 1] = th_items[:n_head]
    rows = out[n_head:].reshape(r1 - full, n_theta, 2)
    rows[:, :, 0] = t_items[full:r1, None]
    rows[:, :, 1] = th_items
    offset = 0 if r0 == 0 else n_first + (r0 - 1) * n_theta
    return out[start - offset : stop - offset]


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
    t_vals, th_vals, n_first = _grid_axes(fam, n_t, n_theta)
    params = _grid_params(t_vals, th_vals, n_first, 0, n_first + n_t * n_theta)
    # vertex id of grid node (i, j) for j = 0..n_theta; column n_theta is the
    # seam, welded to column 0
    i = np.arange(n_t + 1)[:, None]
    j = np.arange(n_theta + 1)[None, :] % n_theta

    if fam.is_quotient:
        # row 0 is the core circle: (0, th) ~ (0, th + pi) leaves half a row
        vid = n_first + (i - 1) * n_theta + j
        vid[0] = j[0] % n_first
        core = params[:n_first]
        t_rows = t_vals[1:]
    else:
        vid = i * n_theta + j
        core = params[:0]
        t_rows = t_vals

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
        _write_csv(mesh, _grid_axes(fam, n_t, n_theta), path)
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


def _write_csv(mesh: SurfaceMesh, grid: tuple[np.ndarray, np.ndarray, int], path: str) -> None:
    # the dialect of csv.writer: comma-separated, \r\n line ends; numbers
    # never need quoting
    t_vals, th_vals, n_first = grid
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
            cells = np.empty((stop - start, 2 + dim), t_cells.dtype)
            cells[:, :2] = _grid_params(t_cells, th_cells, n_first, start, stop)
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
