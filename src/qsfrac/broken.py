"""Piecewise-linear fields that may jump exactly across cracked edges.

A crack set is a subset of the mesh's crackable edges.  Given a crack set,
corner degrees of freedom of the triangles are merged around every vertex
through the uncracked interior edges, which yields the finest partition for
which every representable field is continuous across uncracked edges.  Corner
groups touching an uncracked Dirichlet edge are pinned to the boundary datum.
A vertex where a crack ends mid-fan keeps a single degree of freedom: an
isolated endpoint does not split the field.  Whole Dirichlet edges are either
constrained or, when cracked, released; partial release of an edge is not
representable with linear elements.

A layout depends on the crack set only, the datum psi(t) on time only, so
every query that reads the datum takes it as an argument.  Layouts are frozen
with read-only arrays, fields are snapshots; all queries are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .mesh import BoundaryLabel, Mesh

__all__ = [
    "CrackSet",
    "DofTopology",
    "BrokenField",
    "build_topology",
    "corner_gradients",
    "corner_trace",
    "jump_across_edge",
    "jump_support",
    "trace_on_surface_part",
    "embed_field",
    "default_jump_tol",
]


@dataclass(frozen=True)
class CrackSet:
    """Sorted, deduplicated set of cracked edge ids; equality is set equality."""

    edge_ids: tuple[int, ...] = ()

    @classmethod
    def of(cls, ids: Iterable[int]) -> "CrackSet":
        return cls(tuple(sorted({int(i) for i in ids})))

    @classmethod
    def empty(cls) -> "CrackSet":
        return cls(())

    def union(self, ids: Iterable[int]) -> "CrackSet":
        return CrackSet.of(set(self.edge_ids) | {int(i) for i in ids})

    def issubset(self, other: "CrackSet") -> bool:
        return set(self.edge_ids) <= set(other.edge_ids)

    def as_set(self) -> frozenset:
        return frozenset(self.edge_ids)

    def __contains__(self, edge_id: int) -> bool:
        return int(edge_id) in set(self.edge_ids)

    def __iter__(self):
        return iter(self.edge_ids)

    def __len__(self) -> int:
        return len(self.edge_ids)

    def total_length(self, mesh: Mesh) -> float:
        return float(np.sum(mesh.edge_length[list(self.edge_ids)])) if self.edge_ids else 0.0


@dataclass(frozen=True, eq=False)
class DofTopology:
    """Degree-of-freedom layout of the broken space for one crack set.

    ``corner_dof[t, i]`` is the DOF index of corner ``i`` of triangle ``t``.
    DOF numbering is deterministic (first occurrence scanning triangles in
    index order), so identical inputs always yield identical layouts.
    """

    mesh: Mesh
    crack: CrackSet
    corner_dof: np.ndarray          # (n_triangles, 3) int
    n_dofs: int
    dof_vertex: np.ndarray          # (n_dofs,) vertex id of each DOF
    constrained: np.ndarray         # (n_dofs,) bool
    free_dofs: np.ndarray = field(init=False, repr=False)
    constrained_dofs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "free_dofs", np.flatnonzero(~self.constrained))
        object.__setattr__(self, "constrained_dofs", np.flatnonzero(self.constrained))
        for arr in (self.corner_dof, self.dof_vertex, self.constrained, self.free_dofs,
                    self.constrained_dofs):
            arr.setflags(write=False)

    def dirichlet_values(self, psi) -> np.ndarray:
        """(n_dofs,) new array: the boundary datum ``psi`` (any form
        ``BrokenField.from_nodal`` accepts) where constrained, else 0."""
        return np.where(self.constrained, _nodal_array(self.mesh, psi)[self.dof_vertex], 0.0)

    @property
    def n_free(self) -> int:
        return len(self.free_dofs)


def _components(n_nodes: int, links: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of the undirected graph on ``n_nodes`` nodes with
    the (k, 2) edge list ``links``.

    Returns ``(label, first)``: components are numbered in the order of their
    smallest node, ``label[v]`` is the component of node ``v`` and
    ``first[c]`` the smallest node of component ``c``.
    """
    graph = scipy.sparse.coo_matrix(
        (np.ones(len(links)), (links[:, 0], links[:, 1])), shape=(n_nodes, n_nodes))
    n_comp, raw = connected_components(graph, directed=False)
    _, first = np.unique(raw, return_index=True)
    first.sort()
    rank = np.empty(n_comp, dtype=int)
    rank[raw[first]] = np.arange(n_comp)
    return rank[raw], first


def _corner_structure(mesh: Mesh, crack: CrackSet):
    """Merge triangle corners through uncracked interior edges.

    Returns (corner_dof, n_dofs, dof_vertex, constrained_mask).
    """
    uncracked = np.ones(mesh.n_edges, dtype=bool)
    uncracked[list(crack.edge_ids)] = False
    inner = mesh.edge_corner[uncracked & (mesh.edge_tris[:, 1] >= 0)]   # (k, 2, 2)
    links = inner.transpose(0, 2, 1).reshape(-1, 2)   # same endpoint, both sides
    label, first = _components(3 * mesh.n_triangles, links)
    corner_dof = label.reshape(-1, 3)
    n_dofs = len(first)

    constrained = np.zeros(n_dofs, dtype=bool)
    pinned = uncracked & (mesh.boundary_label == BoundaryLabel.DIRICHLET)
    constrained[label[mesh.edge_corner[pinned, 0]]] = True
    return corner_dof, n_dofs, mesh.triangles.ravel()[first], constrained


def _nodal_array(mesh: Mesh, psi) -> np.ndarray:
    if psi is None:
        return np.zeros(mesh.n_vertices)
    if callable(psi):
        return np.asarray(psi(mesh.vertices[:, 0], mesh.vertices[:, 1]), dtype=float)
    arr = np.asarray(psi, dtype=float)
    if arr.ndim == 0:
        return np.full(mesh.n_vertices, float(arr))
    if arr.shape != (mesh.n_vertices,):
        raise ValueError(f"boundary datum has shape {arr.shape}, expected ({mesh.n_vertices},)")
    return arr


def build_topology(mesh: Mesh, crack: CrackSet) -> DofTopology:
    """Build the DOF layout for ``crack``.  Raises if the crack set leaves
    the crackable edge set."""
    extra = mesh.non_crackable(crack.edge_ids)
    if extra:
        raise ValueError(f"crack contains non-crackable edges {extra}")

    corner_dof, n_dofs, dof_vertex, constrained = _corner_structure(mesh, crack)
    return DofTopology(
        mesh=mesh,
        crack=crack,
        corner_dof=corner_dof,
        n_dofs=n_dofs,
        dof_vertex=dof_vertex,
        constrained=constrained,
    )


@dataclass
class BrokenField:
    """Scalar field over a ``DofTopology``: one value per degree of freedom."""

    topology: DofTopology
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.topology.n_dofs,):
            raise ValueError("DOF value array does not match topology")

    @classmethod
    def zeros(cls, topology: DofTopology, psi) -> "BrokenField":
        """Free DOFs at zero, pinned DOFs at the boundary datum ``psi``."""
        return cls(topology, topology.dirichlet_values(psi))

    @classmethod
    def from_nodal(cls, topology: DofTopology, nodal) -> "BrokenField":
        """The field taking ``nodal`` at every DOF's vertex: a nodal array,
        a callable of (x, y), a scalar, or None (zero)."""
        arr = _nodal_array(topology.mesh, nodal)
        return cls(topology, arr[topology.dof_vertex])

    def corner_values(self) -> np.ndarray:
        return self.values[self.topology.corner_dof]

    def tri_means(self) -> np.ndarray:
        return self.corner_values().mean(axis=1)

    def gradients(self) -> np.ndarray:
        """Per-triangle constant gradient vectors of the broken field."""
        return corner_gradients(self.topology.mesh, self.corner_values())


def corner_gradients(mesh: Mesh, cv: np.ndarray) -> np.ndarray:
    """Per-triangle gradients of the linear interpolants of the
    (n_triangles, 3) corner values ``cv``."""
    return np.einsum("tki,ti->tk", mesh.grad_op, cv)


def corner_trace(mesh: Mesh, cv: np.ndarray) -> np.ndarray:
    """Midpoint traces on the surface-force edges of the (n_triangles, 3)
    corner values ``cv``, ordered like ``mesh.surface_edges``."""
    return cv.ravel()[mesh.edge_corner[mesh.surface_edges, 0]].mean(axis=1)


def _scatter_corner(mesh: Mesh, topo: DofTopology, per_corner: np.ndarray,
                    surf: np.ndarray) -> np.ndarray:
    """The DOF vector summing ``per_corner`` (one value per triangle corner)
    and ``surf[k]`` at both endpoint DOFs of surface-force edge k: one
    ``np.bincount`` over the corners, then every first endpoint, then every
    second one."""
    index, weights = topo.corner_dof.ravel(), per_corner.ravel()
    if len(surf):
        ends = index[mesh.edge_corner[mesh.surface_edges, 0]]
        index = np.concatenate([index, ends[:, 0], ends[:, 1]])
        weights = np.concatenate([weights, surf, surf])
    return np.bincount(index, weights, topo.n_dofs)


def jump_across_edge(u: BrokenField, edge_id: int, psi) -> tuple[float, float]:
    """Jump of ``u`` across one edge at its two endpoints (sorted vertex order).

    Interior edges: trace from the higher-index adjacent triangle minus the
    trace from the lower-index one (the direction of the edge normal).
    Dirichlet edges: single-sided trace minus the boundary datum ``psi``.
    Uncracked interior edges return exactly (0, 0): the corners share DOFs.
    """
    mesh = u.topology.mesh
    if not 0 <= edge_id < mesh.n_edges:
        raise ValueError(f"unknown edge id {edge_id}")
    cd = u.topology.corner_dof.ravel()
    low, high = mesh.edge_corner[edge_id]   # endpoint corners in each adjacent triangle
    if mesh.edge_tris[edge_id, 1] >= 0:
        ja, jb = u.values[cd[high]] - u.values[cd[low]]
    elif mesh.boundary_label[edge_id] != BoundaryLabel.DIRICHLET:
        raise ValueError(f"edge {edge_id} is not interior and not Dirichlet; jump undefined")
    else:
        ja, jb = u.values[cd[low]] - _nodal_array(mesh, psi)[mesh.edges[edge_id]]
    return float(ja), float(jb)


def default_jump_tol(psi: np.ndarray) -> float:
    """Separates exact-zero shared-DOF jumps from genuine opening."""
    scale = float(np.max(np.abs(psi))) if len(psi) else 0.0
    return 1e-9 * (1.0 + scale)


def jump_support(u: BrokenField, psi, tol: float | None = None) -> CrackSet:
    """Edges where the field actually jumps (or departs from the Dirichlet
    datum ``psi`` on released boundary edges) by more than ``tol``.

    Only cracked edges can carry a nonzero jump, so the support is always a
    subset of the field's crack set.
    """
    psi = _nodal_array(u.topology.mesh, psi)
    if tol is None:
        tol = default_jump_tol(psi)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    open_edges = []
    for e in u.topology.crack:
        ja, jb = jump_across_edge(u, e, psi)
        if max(abs(ja), abs(jb)) > tol:
            open_edges.append(e)
    return CrackSet.of(open_edges)


def trace_on_surface_part(u: BrokenField) -> np.ndarray:
    """Midpoint trace values on the surface-force edges (single-sided).

    Surface-force edges are never crackable, so the trace is unambiguous.
    Ordered like ``mesh.surface_edges``.
    """
    return corner_trace(u.topology.mesh, u.corner_values())


def embed_field(u: BrokenField, target: DofTopology) -> BrokenField:
    """Re-express ``u`` on the topology of a larger crack set.

    Valid whenever the target crack contains the source crack: the target DOF
    partition then refines the source partition, so values, gradients and
    jumps are all preserved.
    """
    if not u.topology.crack.issubset(target.crack):
        raise ValueError("target topology must crack a superset of the source edges")
    if target.mesh is not u.topology.mesh:
        raise ValueError("topologies live on different meshes")
    src = u.values[u.topology.corner_dof].ravel()
    values = np.zeros(target.n_dofs)
    values[target.corner_dof.ravel()] = src  # consistent: partition refinement
    return BrokenField(target, values)
