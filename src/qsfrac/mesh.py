"""Structured triangle meshes with boundary-part labels and a brittle edge set.

The mesh is the fixed reference configuration of the crack model: a rectangle
triangulated into positively oriented triangles.  Every edge is classified as
interior (two adjacent triangles) or boundary (one), boundary edges carry
exactly one of the labels DIRICHLET / NEUMANN / SURFACE_FORCE, and a per-edge
``brittle`` flag marks the region where cracks are allowed to live.  Surface
forces and the brittle region must not meet, so cracked edges never interfere
with the traction data.

Meshes are immutable after construction; all queries are pure functions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

__all__ = [
    "BoundaryLabel",
    "EdgeGeometry",
    "Mesh",
    "MeshError",
    "MeshGeometryError",
    "build_structured_mesh",
    "crackable_edges",
    "edge_geometry",
    "mesh_fingerprint",
]

_SIDES = ("left", "right", "bottom", "top")
_GEOM_TOL = 1e-12


class MeshError(ValueError):
    """Raised when mesh construction or validation fails."""


class MeshGeometryError(MeshError):
    """Raised when the derived geometry of a mesh is not finite and normal."""


class BoundaryLabel(IntEnum):
    """Edge classification; INTERIOR is used for non-boundary edges."""

    INTERIOR = 0
    DIRICHLET = 1
    NEUMANN = 2
    SURFACE_FORCE = 3


@dataclass(frozen=True)
class EdgeGeometry:
    """Geometric data of a single edge.

    The unit normal of an interior edge points from the lower-index adjacent
    triangle toward the higher-index one; on boundary edges it points outward.
    """

    edge_id: int
    length: float
    unit_normal: np.ndarray
    midpoint: np.ndarray


@dataclass
class Mesh:
    """Immutable triangulated rectangle with labeled boundary decomposition.

    Attributes
    ----------
    vertices : (n_vertices, 2) float array of positions.
    triangles : (n_triangles, 3) int array, positively oriented vertex triples.
    edges : (n_edges, 2) int array of vertex pairs, each row sorted, rows in
        lexicographic order (this fixes the edge ids).
    edge_tris : (n_edges, 2) int array of adjacent triangle ids in increasing
        order; the second entry is -1 for boundary edges.
    boundary_label : (n_edges,) int array of ``BoundaryLabel`` codes.
    brittle : (n_edges,) bool array, True where the edge lies in the brittle
        region.

    Derived tables include ``edge_corner``, an (n_edges, 2, 2) int array:
    entry ``[e, s, j]`` is the flat corner id ``3 * t + i`` at which endpoint
    ``edges[e, j]`` sits in the adjacent triangle ``t = edge_tris[e, s]``, or
    -1 where the edge has no second triangle; ``crackable_mask``, True on
    the edges ``crackable_edges`` returns; and ``surface_edges``, the ids of
    the surface-force edges in increasing order.

    Construction checks every invariant and raises ``MeshError`` on the
    first that fails: ``edges`` and ``edge_tris`` must be the edge table of
    the triangles, exactly as described above, triangle areas and edge
    lengths must be finite normal floats and the other derived geometry
    finite (``MeshGeometryError``), and ``validate`` runs last.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    edge_tris: np.ndarray
    boundary_label: np.ndarray
    brittle: np.ndarray

    # derived geometry, filled in __post_init__
    tri_area: np.ndarray = field(init=False, repr=False)
    tri_centroid: np.ndarray = field(init=False, repr=False)
    grad_op: np.ndarray = field(init=False, repr=False)
    edge_length: np.ndarray = field(init=False, repr=False)
    edge_midpoint: np.ndarray = field(init=False, repr=False)
    edge_normal: np.ndarray = field(init=False, repr=False)
    edge_corner: np.ndarray = field(init=False, repr=False)
    crackable_mask: np.ndarray = field(init=False, repr=False)
    surface_edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=int)
        self.edges = np.asarray(self.edges, dtype=int)
        self.edge_tris = np.asarray(self.edge_tris, dtype=int)
        self.boundary_label = np.asarray(self.boundary_label, dtype=int)
        self.brittle = np.asarray(self.brittle, dtype=bool)

        tri, v = self.triangles, self.vertices
        if (v.ndim != 2 or v.shape[1] != 2 or not np.isfinite(v).all() or tri.ndim != 2
                or tri.shape[1] != 3 or not len(tri) or tri.min() < 0 or tri.max() >= len(v)):
            raise MeshError("need finite (n, 2) vertices and a nonempty (m, 3) array of vertex ids")
        edges, edge_tris, side_edge = _edge_table(tri)
        if not (np.array_equal(self.edges, edges) and np.array_equal(self.edge_tris, edge_tris)):
            raise MeshError("edges and edge_tris are not the edge table of the triangles")
        if self.boundary_label.shape != (len(edges),) or self.brittle.shape != (len(edges),):
            raise MeshError("boundary_label and brittle need one entry per edge")

        p = v[tri]  # (m, 3, 2)
        with np.errstate(all="ignore"):   # a degenerate geometry fails below
            d1 = p[:, 1] - p[:, 0]
            d2 = p[:, 2] - p[:, 0]
            self.tri_area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
            self.tri_centroid = p.mean(axis=1)

            # P1 shape-function gradients: grad u|_T = grad_op[T] @ corner values
            opposite = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]   # the side facing each corner
            g = np.empty((len(tri), 2, 3))
            g[:, 0], g[:, 1] = -opposite[..., 1], opposite[..., 0]
            g /= (2.0 * self.tri_area)[:, None, None]
            self.grad_op = g

            ep = self.vertices[self.edges]  # (E, 2, 2)
            tangent = ep[:, 1] - ep[:, 0]
            self.edge_length = np.hypot(tangent[:, 0], tangent[:, 1])
            self.edge_midpoint = ep.mean(axis=1)

            normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
            normal /= self.edge_length[:, None]
            # orient: interior edges low->high adjacent triangle, boundary outward
            ref_tri = np.where(self.edge_tris[:, 1] >= 0, self.edge_tris[:, 1], self.edge_tris[:, 0])
            toward = self.tri_centroid[ref_tri] - self.edge_midpoint
            sign = np.sign(np.einsum("ij,ij->i", toward, normal))
            sign = np.where(self.edge_tris[:, 1] >= 0, sign, -sign)
            self.edge_normal = normal * sign[:, None]
        if np.any(self.tri_area <= 0):
            bad = np.flatnonzero(self.tri_area <= 0)
            raise MeshError(f"non-positive triangle areas at {bad.tolist()}")
        tiny = np.finfo(float).tiny
        if not (np.all(self.tri_area >= tiny) and np.all(self.edge_length >= tiny) and all(
                np.isfinite(a).all() for a in (self.tri_area, self.tri_centroid, self.grad_op,
                                               self.edge_length, self.edge_midpoint, self.edge_normal))):
            raise MeshGeometryError("triangle areas and edge lengths must be finite normal floats, "
                                    "and centroids, midpoints, normals and gradients finite")

        # side i of triangle t joins corners i and i + 1; its edge lists the
        # lower vertex first, and t is the edge's second triangle unless it
        # is the first
        t, i = np.divmod(np.arange(tri.size), 3)
        ends = np.stack([i, (i + 1) % 3], axis=1)
        ends = np.where((tri[t, ends[:, 0]] < tri[t, ends[:, 1]])[:, None], ends, ends[:, ::-1])
        e = side_edge.ravel()
        self.edge_corner = np.full((len(edges), 2, 2), -1)
        self.edge_corner[e, (edge_tris[e, 0] != t).astype(int)] = 3 * t[:, None] + ends

        lbl = self.boundary_label
        eligible = (lbl == BoundaryLabel.INTERIOR) | (lbl == BoundaryLabel.DIRICHLET)
        self.crackable_mask = self.brittle & eligible
        self.surface_edges = self.edges_with_label(BoundaryLabel.SURFACE_FORCE)

        for arr in (self.vertices, self.triangles, self.edges, self.edge_tris,
                    self.boundary_label, self.brittle, self.tri_area,
                    self.tri_centroid, self.grad_op, self.edge_length,
                    self.edge_midpoint, self.edge_normal, self.edge_corner,
                    self.crackable_mask, self.surface_edges):
            arr.setflags(write=False)
        self.validate()

    # -- queries -----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def interior_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_tris[:, 1] >= 0)

    @property
    def boundary_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_tris[:, 1] < 0)

    def edges_with_label(self, label: BoundaryLabel) -> np.ndarray:
        return np.flatnonzero(self.boundary_label == int(label))

    @property
    def dirichlet_edges(self) -> np.ndarray:
        return self.edges_with_label(BoundaryLabel.DIRICHLET)

    def non_crackable(self, ids) -> list[int]:
        """The ids among ``ids`` that name no crackable edge, sorted."""
        mask = self.crackable_mask
        n = len(mask)
        return sorted({e for e in ids if not (0 <= e < n and mask[e])})

    def validate(self) -> None:
        """Check the invariants beyond the areas and the edge table; raise
        ``MeshError``.  Construction calls it, so every ``Mesh`` passes it.
        """
        if len(np.unique(np.sort(self.triangles, axis=1), axis=0)) < self.n_triangles:
            raise MeshError("two triangles share all three vertices")

        interior = self.edge_tris[:, 1] >= 0
        lbl = self.boundary_label
        if np.any(lbl[interior] != BoundaryLabel.INTERIOR):
            raise MeshError("interior edge carries a boundary label")
        if np.any(lbl[~interior] == BoundaryLabel.INTERIOR):
            raise MeshError("boundary edge without a label")

        clash = self.brittle & (lbl == BoundaryLabel.SURFACE_FORCE)
        if np.any(clash):
            raise MeshError(
                "brittle region meets the surface-force boundary at edges "
                f"{np.flatnonzero(clash).tolist()}"
            )

        norms = np.hypot(self.edge_normal[:, 0], self.edge_normal[:, 1])
        if np.any(np.abs(norms - 1.0) > _GEOM_TOL):
            raise MeshError("edge normal not unit length")


def _edge_table(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edge table of a triangle list: ``(edges, edge_tris, side_edge)``.

    Side ``i`` of triangle ``t`` joins corners ``i`` and ``(i + 1) % 3``.
    ``edges`` holds the sorted vertex pairs of the sides, rows in
    lexicographic order, which fixes the edge ids; ``edge_tris`` the adjacent
    triangles of each edge in increasing order, -1 for none; ``side_edge``
    the (n_triangles, 3) edge id of every side.  An edge with a third
    triangle raises ``MeshError``.
    """
    n = int(triangles.max()) + 1
    ends = np.stack([triangles, np.roll(triangles, -1, axis=1)])
    keys, side_edge = np.unique(ends.min(axis=0) * n + ends.max(axis=0), return_inverse=True)
    side_edge = side_edge.reshape(triangles.shape)
    count = np.bincount(side_edge.ravel())
    if np.any(count > 2):
        raise MeshError(f"edges {np.flatnonzero(count > 2).tolist()} meet more than two triangles")
    tri_of_side = np.argsort(side_edge.ravel(), kind="stable") // 3   # grouped by edge
    first = np.cumsum(count) - count
    edge_tris = np.full((len(keys), 2), -1)
    edge_tris[:, 0] = tri_of_side[first]
    edge_tris[count == 2, 1] = tri_of_side[first[count == 2] + 1]
    return np.stack(np.divmod(keys, n), axis=1), edge_tris, side_edge


def _resolve_sides(value) -> tuple[str, ...]:
    if value is None:
        return ()
    if value == "all":
        return _SIDES
    if isinstance(value, str):
        value = [s.strip() for s in value.split(",") if s.strip()]
    sides = tuple(value)
    for s in sides:
        if s not in _SIDES:
            raise MeshError(f"unknown boundary side {s!r}; expected one of {_SIDES}")
    return sides


def build_structured_mesh(
    nx: int,
    ny: int,
    width: float,
    height: float,
    labeling: dict | None = None,
    brittle="all",
    diagonal: str = "main",
) -> Mesh:
    """Triangulate the rectangle [0,width]x[0,height] on an nx-by-ny cell grid.

    Parameters
    ----------
    labeling : dict with optional keys ``dirichlet`` and ``surface``, each a
        side list (subset of left/right/bottom/top) or ``"all"``.  Sides not
        listed under either key are labeled NEUMANN.  Default: all Dirichlet.
    brittle : ``"all"``, ``"none"``, ``("rect", (x0, y0, x1, y1))`` tagging
        edges with both endpoints inside the closed rectangle, or
        ``("edges", ids)``.
    diagonal : ``"main"`` (one diagonal per cell, lower-left to upper-right)
        or ``"crossed"`` (four triangles per cell around a center vertex).
    """
    if nx < 1 or ny < 1:
        raise MeshError("nx and ny must be at least 1")
    if width <= 0 or height <= 0:
        raise MeshError("width and height must be positive")
    if diagonal not in ("main", "crossed"):
        raise MeshError(f"unknown diagonal rule {diagonal!r}")

    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    verts = np.column_stack([gx.ravel(), gy.ravel()])

    # cells row by row; each cell's corners v00, v10, v11, v01 counterclockwise
    j, i = np.divmod(np.arange(nx * ny), nx)
    v00 = j * (nx + 1) + i
    v10, v01 = v00 + 1, v00 + nx + 1
    v11 = v01 + 1
    if diagonal == "main":
        triangles = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    else:
        c = len(verts) + np.arange(nx * ny)
        triangles = np.stack([v00, v10, c, v10, v11, c, v11, v01, c, v01, v00, c],
                             axis=1).reshape(-1, 3)
        # halved before the sum: the bits of (a + b) / 2 where that does not overflow
        centers = np.column_stack([xs[i] / 2.0 + xs[i + 1] / 2.0, ys[j] / 2.0 + ys[j + 1] / 2.0])
        verts = np.vstack([verts, centers])
    edges, edge_tris, _ = _edge_table(triangles)

    labeling = dict(labeling or {"dirichlet": "all"})
    unknown = set(labeling) - {"dirichlet", "surface"}
    if unknown:
        raise MeshError(f"unknown labeling keys {sorted(unknown)}")
    dir_sides = _resolve_sides(labeling.get("dirichlet"))
    surf_sides = _resolve_sides(labeling.get("surface"))
    overlap = set(dir_sides) & set(surf_sides)
    if overlap:
        raise MeshError(f"sides {sorted(overlap)} listed both as dirichlet and surface")

    # a boundary edge lies on the rectangle side both its endpoints lie on
    x, y = verts[edges, 0], verts[edges, 1]
    tol = _GEOM_TOL * (1.0 + max(width, height))
    on_side = {"left": np.abs(x) <= tol, "right": np.abs(x - width) <= tol,
               "bottom": np.abs(y) <= tol, "top": np.abs(y - height) <= tol}
    boundary = edge_tris[:, 1] < 0
    label = np.where(boundary, int(BoundaryLabel.NEUMANN), int(BoundaryLabel.INTERIOR))
    for s in dir_sides:
        label[boundary & on_side[s].all(axis=1)] = int(BoundaryLabel.DIRICHLET)
    for s in surf_sides:
        label[boundary & on_side[s].all(axis=1)] = int(BoundaryLabel.SURFACE_FORCE)
    return Mesh(vertices=verts, triangles=triangles, edges=edges, edge_tris=edge_tris,
                boundary_label=label, brittle=_resolve_brittle(brittle, verts, edges))


def _resolve_brittle(spec, verts: np.ndarray, edges: np.ndarray) -> np.ndarray:
    n = len(edges)
    if isinstance(spec, str):
        if spec == "all":
            return np.ones(n, dtype=bool)
        if spec == "none":
            return np.zeros(n, dtype=bool)
        raise MeshError(f"unknown brittle spec {spec!r}")
    kind, payload = spec
    if kind == "rect":
        x0, y0, x1, y1 = payload
        tol = _GEOM_TOL
        p = verts[edges]  # (E, 2, 2)
        inside = (
            (p[..., 0] >= x0 - tol) & (p[..., 0] <= x1 + tol)
            & (p[..., 1] >= y0 - tol) & (p[..., 1] <= y1 + tol)
        )
        return np.all(inside, axis=1)
    if kind == "edges":
        mask = np.zeros(n, dtype=bool)
        ids = np.asarray(list(payload), dtype=int)
        bad = ids[(ids < 0) | (ids >= n)]
        if len(bad):
            raise MeshError(f"brittle edge ids out of range: {bad.tolist()} ({n} edges)")
        mask[ids] = True
        return mask
    raise MeshError(f"unknown brittle spec kind {kind!r}")


def crackable_edges(mesh: Mesh) -> np.ndarray:
    """Edges where a crack may open: brittle interior or brittle Dirichlet edges.

    Neumann and surface-force boundary edges are excluded: a crack inside the
    traction-free boundary would change no energy term and would only create
    spurious tied minimizers.
    """
    return np.flatnonzero(mesh.crackable_mask)


def edge_geometry(mesh: Mesh, edge_id: int) -> EdgeGeometry:
    """Length, oriented unit normal and midpoint of one edge."""
    if not 0 <= edge_id < mesh.n_edges:
        raise MeshError(f"unknown edge id {edge_id}")
    return EdgeGeometry(
        edge_id=int(edge_id),
        length=float(mesh.edge_length[edge_id]),
        unit_normal=mesh.edge_normal[edge_id].copy(),
        midpoint=mesh.edge_midpoint[edge_id].copy(),
    )


def mesh_fingerprint(mesh: Mesh) -> str:
    """Deterministic hex digest of the full mesh content."""
    h = hashlib.sha256()
    for arr in (mesh.vertices, mesh.triangles, mesh.edges,
                mesh.boundary_label, mesh.brittle.astype(np.uint8)):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()
