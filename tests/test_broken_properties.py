"""Property tests of the corner structure: DOF numbering, jumps and embedding
over random small structured meshes and random crack sets."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsfrac.broken import (
    BrokenField,
    CrackSet,
    build_topology,
    embed_field,
    jump_across_edge,
    trace_on_surface_part,
)
from qsfrac.energy import Toughness, surface_energy
from qsfrac.mesh import BoundaryLabel, MeshError, build_structured_mesh, crackable_edges

_LABELINGS = (
    {"dirichlet": "all"},
    {"dirichlet": "left, right"},
    {"dirichlet": "left", "surface": "right"},
    {"dirichlet": "bottom", "surface": "top"},
)
_PROPS = settings(max_examples=60, deadline=None)


@st.composite
def cracked_meshes(draw):
    """A structured mesh with a random brittle rectangle, a random crack set
    and a random subset of it, as (mesh, small, large)."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    x0 = draw(st.integers(0, nx))
    x1 = draw(st.integers(x0, nx))
    y0 = draw(st.integers(0, ny))
    y1 = draw(st.integers(y0, ny))
    try:
        mesh = build_structured_mesh(
            nx, ny, float(nx), float(ny),
            labeling=draw(st.sampled_from(_LABELINGS)),
            brittle=("rect", (x0, y0, x1, y1)),
            diagonal=draw(st.sampled_from(["main", "crossed"])),
        )
    except MeshError:
        assume(False)   # the brittle rectangle meets the surface-force side
    ids = crackable_edges(mesh).tolist()
    large = [e for e in ids if draw(st.booleans())]
    small = [e for e in large if draw(st.booleans())]
    return mesh, CrackSet.of(small), CrackSet.of(large)


def _reference_structure(mesh, crack):
    """Loop version of the corner merge: union the two corners at each
    endpoint of every uncracked interior edge, number the groups in order of
    first occurrence, pin the groups on uncracked Dirichlet edges."""
    tris = mesh.triangles.tolist()
    parent = list(range(3 * len(tris)))

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    def corner(t, v):
        return 3 * t + tris[t].index(v)

    for e in range(mesh.n_edges):
        t1, t2 = (int(t) for t in mesh.edge_tris[e])
        if t2 >= 0 and e not in crack:
            for v in mesh.edges[e].tolist():
                a, b = find(corner(t1, v)), find(corner(t2, v))
                parent[max(a, b)] = min(a, b)
    dof_of_root, corner_dof, dof_vertex = {}, [], []
    for c in range(len(parent)):
        root = find(c)
        if root not in dof_of_root:
            dof_of_root[root] = len(dof_vertex)
            dof_vertex.append(tris[c // 3][c % 3])
        corner_dof.append(dof_of_root[root])
    constrained = np.zeros(len(dof_vertex), dtype=bool)
    for e in mesh.dirichlet_edges.tolist():
        if e not in crack:
            t = int(mesh.edge_tris[e, 0])
            for v in mesh.edges[e].tolist():
                constrained[corner_dof[corner(t, v)]] = True
    return np.reshape(corner_dof, (-1, 3)), np.asarray(dof_vertex), constrained


def _random_field(topo, seed):
    rng = np.random.default_rng(seed)
    values = np.where(topo.constrained, topo.dirichlet_values(_psi), rng.normal(size=topo.n_dofs))
    return BrokenField(topo, values)


def _psi(x, y):
    return 0.3 * x - 0.2 * y


@_PROPS
@given(cracked_meshes())
def test_dof_ids_in_first_occurrence_order_and_at_their_vertex(case):
    mesh, _, crack = case
    topo = build_topology(mesh, crack)
    ids, first = np.unique(topo.corner_dof.ravel(), return_index=True)
    assert np.array_equal(ids, np.arange(topo.n_dofs))
    assert np.all(np.diff(first) > 0)
    assert np.array_equal(topo.dof_vertex[topo.corner_dof], mesh.triangles)


@_PROPS
@given(cracked_meshes())
def test_corner_structure_matches_loop_reference(case):
    mesh, _, crack = case
    topo = build_topology(mesh, crack)
    corner_dof, dof_vertex, constrained = _reference_structure(mesh, crack)
    assert topo.n_dofs == len(dof_vertex)
    assert np.array_equal(topo.corner_dof, corner_dof)
    assert np.array_equal(topo.dof_vertex, dof_vertex)
    assert np.array_equal(topo.constrained, constrained)


@_PROPS
@given(cracked_meshes(), st.integers(0, 2**32 - 1))
def test_uncracked_edges_have_exact_zero_jump(case, seed):
    mesh, _, crack = case
    topo = build_topology(mesh, crack)
    u = _random_field(topo, seed)
    dirichlet = mesh.boundary_label == BoundaryLabel.DIRICHLET
    for e in np.flatnonzero((mesh.edge_tris[:, 1] >= 0) | dirichlet):
        if int(e) not in crack:
            assert jump_across_edge(u, int(e), _psi) == (0.0, 0.0)


@_PROPS
@given(cracked_meshes())
def test_dof_count_monotone_under_crack_inclusion(case):
    mesh, small, large = case
    assert build_topology(mesh, small).n_dofs <= build_topology(mesh, large).n_dofs


@_PROPS
@given(cracked_meshes(), st.integers(0, 2**32 - 1))
def test_embed_field_preserves_gradients_and_jumps(case, seed):
    mesh, small, large = case
    u = _random_field(build_topology(mesh, small), seed)
    w = embed_field(u, build_topology(mesh, large))
    assert np.array_equal(u.gradients(), w.gradients())
    dirichlet = mesh.boundary_label == BoundaryLabel.DIRICHLET
    for e in np.flatnonzero((mesh.edge_tris[:, 1] >= 0) | dirichlet):
        assert jump_across_edge(u, int(e), _psi) == jump_across_edge(w, int(e), _psi)


@_PROPS
@given(cracked_meshes(), st.integers(0, 2**32 - 1))
def test_surface_trace_of_nodal_field_is_endpoint_mean(case, seed):
    mesh, _, crack = case
    nodal = np.random.default_rng(seed).normal(size=mesh.n_vertices)
    u = BrokenField.from_nodal(build_topology(mesh, crack), nodal)
    ends = mesh.edges[mesh.surface_edges]
    assert np.array_equal(trace_on_surface_part(u), 0.5 * (nodal[ends[:, 0]] + nodal[ends[:, 1]]))


@pytest.mark.parametrize("which", ["negative", "past_the_end"])
def test_out_of_range_edge_ids_rejected(which):
    # every edge of this mesh is crackable, so an id that wrapped around
    # would name a crackable edge
    mesh = build_structured_mesh(1, 1, 1.0, 1.0, brittle="all")
    assert len(crackable_edges(mesh)) == mesh.n_edges
    crack = CrackSet.of([-1 if which == "negative" else mesh.n_edges])
    with pytest.raises(ValueError, match="non-crackable"):
        build_topology(mesh, crack)
    with pytest.raises(ValueError, match="non-crackable"):
        surface_energy(Toughness(), mesh, crack)
