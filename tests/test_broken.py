import numpy as np
import pytest

from qsfrac.broken import (
    BrokenField,
    CrackSet,
    build_topology,
    embed_field,
    jump_across_edge,
    jump_support,
    trace_on_surface_part,
)
from qsfrac.corpus import build_config
from qsfrac.mesh import BoundaryLabel, build_structured_mesh, crackable_edges
from qsfrac.minimize import ElasticSolver
from qsfrac.vtkio import write_field_vtk

from conftest import make_strip_mesh


def unit_square():
    return build_structured_mesh(1, 1, 1.0, 1.0, brittle="all")


def test_fully_pinned_uncracked_topology():
    m = unit_square()
    topo = build_topology(m, CrackSet.empty())
    assert topo.n_dofs == m.n_vertices == 4
    assert topo.n_free == 0
    u = BrokenField.zeros(topo, lambda x, y: x + 2 * y)
    expected = m.vertices[:, 0][topo.dof_vertex] + 2 * m.vertices[:, 1][topo.dof_vertex]
    assert np.array_equal(u.values, expected)


def test_cracked_diagonal_splits_both_endpoints():
    # hand count: no merges remain, so six corner DOFs (up from four)
    m = unit_square()
    topo0 = build_topology(m, CrackSet.empty())
    diag = int(m.interior_edges[0])
    topo1 = build_topology(m, CrackSet.of([diag]))
    assert topo0.n_dofs == 4
    assert topo1.n_dofs == 6


def test_fully_broken_dof_count():
    m = build_structured_mesh(2, 2, 1.0, 1.0, brittle="all")
    all_interior = CrackSet.of(m.interior_edges.tolist())
    topo = build_topology(m, all_interior)
    assert topo.n_dofs == 3 * m.n_triangles


def test_dof_count_monotone_under_cracking():
    m = build_structured_mesh(3, 2, 2.0, 1.0, brittle="all")
    rng = np.random.default_rng(2)
    ids = [int(e) for e in crackable_edges(m)]
    crack = CrackSet.empty()
    prev = build_topology(m, crack).n_dofs
    for e in rng.permutation(ids):
        crack = crack.union([int(e)])
        n = build_topology(m, crack).n_dofs
        assert n >= prev
        prev = n


def test_uncracked_edge_jump_is_exactly_zero():
    m = make_strip_mesh()
    psi = lambda x, y: 0.3 * x
    topo = build_topology(m, CrackSet.empty())
    u = BrokenField.from_nodal(topo, lambda x, y: 0.3 * x + 0.1 * y)
    for e in m.interior_edges:
        assert jump_across_edge(u, int(e), psi) == (0.0, 0.0)


def test_split_fields_jump_by_their_offset():
    m = make_strip_mesh()
    topo = build_topology(m, CrackSet.of([4]))
    values = np.where(m.vertices[:, 0][topo.dof_vertex] >= 1.0, 1.0, 0.0)
    # the split puts the x=1 vertices on both sides; assign by wedge side
    values = np.zeros(topo.n_dofs)
    for t in range(m.n_triangles):
        side = 1.0 if m.tri_centroid[t, 0] > 1.0 else 0.0
        for i in range(3):
            values[topo.corner_dof[t, i]] = side
    u = BrokenField(topo, values)
    assert jump_across_edge(u, 4, 0.0) == (1.0, 1.0)
    assert jump_support(u, 0.0, 1e-9).edge_ids == (4,)


def test_released_dirichlet_edge_matching_datum_has_no_jump():
    m = build_structured_mesh(1, 1, 1.0, 1.0, brittle="all")
    dir_edge = int(m.dirichlet_edges[0])
    psi = lambda x, y: x
    topo = build_topology(m, CrackSet.of([dir_edge]))
    u = BrokenField.from_nodal(topo, lambda x, y: x)  # trace equals the datum
    assert jump_across_edge(u, dir_edge, psi) == (0.0, 0.0)
    assert len(jump_support(u, psi)) == 0


def test_jump_on_plain_neumann_boundary_rejected():
    m = make_strip_mesh()
    topo = build_topology(m, CrackSet.empty())
    u = BrokenField.zeros(topo, 0.0)
    with pytest.raises(ValueError):
        jump_across_edge(u, 0, 0.0)  # bottom Neumann edge


def test_gradient_reproduces_linear_fields():
    m = build_structured_mesh(3, 2, 2.0, 1.0)
    topo = build_topology(m, CrackSet.empty())
    u = BrokenField.from_nodal(topo, lambda x, y: x)
    assert np.allclose(u.gradients(), [1.0, 0.0], atol=1e-14)
    c = BrokenField.from_nodal(topo, 3.7)
    assert np.allclose(c.gradients(), 0.0, atol=1e-14)


def test_gradient_chain_rule_against_finite_differences():
    # directional derivative of a per-triangle energy through the gradients
    m = make_strip_mesh()
    topo = build_topology(m, CrackSet.of([4]))
    rng = np.random.default_rng(5)
    u = BrokenField(topo, rng.normal(size=topo.n_dofs))
    v = rng.normal(size=topo.n_dofs)

    def energy(vals):
        g = BrokenField(topo, vals).gradients()
        return float(np.sum(m.tri_area * np.sum(g * g, axis=1)))

    g_u = u.gradients()
    g_v = BrokenField(topo, v).gradients()
    analytic = float(np.sum(m.tri_area * 2.0 * np.sum(g_u * g_v, axis=1)))
    h = 1e-6
    fd = (energy(u.values + h * v) - energy(u.values - h * v)) / (2 * h)
    assert abs(fd - analytic) <= 1e-10 * (1 + abs(analytic)) + 1e-9


def test_trace_on_surface_part():
    m = build_structured_mesh(2, 1, 2.0, 1.0,
                              labeling={"dirichlet": ("left",), "surface": ("right",)},
                              brittle="none")
    topo = build_topology(m, CrackSet.empty())
    c = BrokenField.from_nodal(topo, 2.5)
    assert np.allclose(trace_on_surface_part(c), 2.5)
    u = BrokenField.from_nodal(topo, lambda x, y: x)
    assert np.allclose(trace_on_surface_part(u), 2.0)  # right side sits at x = 2


def test_monotone_refinement_embedding_preserves_everything():
    m = build_structured_mesh(2, 2, 2.0, 1.0, brittle="all")
    ids = [int(e) for e in crackable_edges(m) if m.edge_tris[e, 1] >= 0]
    small = CrackSet.of(ids[:1])
    large = CrackSet.of(ids[:3])
    psi = lambda x, y: 0.25 * x
    topo_s = build_topology(m, small)
    topo_l = build_topology(m, large)
    rng = np.random.default_rng(11)
    u = BrokenField(topo_s, rng.normal(size=topo_s.n_dofs))
    w = embed_field(u, topo_l)
    assert np.array_equal(u.corner_values(), w.corner_values())
    assert np.array_equal(u.gradients(), w.gradients())
    for e in small:
        assert jump_across_edge(u, e, psi) == jump_across_edge(w, e, psi)
    with pytest.raises(ValueError):
        embed_field(BrokenField(topo_l, np.zeros(topo_l.n_dofs)), topo_s)


def test_embedding_that_releases_a_dirichlet_edge_keeps_every_jump():
    # debond: the one crackable edge is the clamped right edge.  The uncracked
    # minimizer at t = 1, embedded into the layout that releases that edge,
    # keeps every jump measured from the datum psi(1), so nothing opens
    problem = build_config("debond", 9).build_problem()
    mesh, t = problem.mesh, 1.0
    psi = problem.model.boundary.value(t)
    released = CrackSet.of(crackable_edges(mesh))
    assert len(released) and set(released) <= set(mesh.dirichlet_edges.tolist())
    u, _ = ElasticSolver(problem.model, mesh).solve(CrackSet.empty(), t)
    w = embed_field(u, build_topology(mesh, released))
    dirichlet = mesh.boundary_label == BoundaryLabel.DIRICHLET
    for e in np.flatnonzero((mesh.edge_tris[:, 1] >= 0) | dirichlet):
        assert jump_across_edge(w, int(e), psi) == jump_across_edge(u, int(e), psi)
    assert len(jump_support(w, psi)) == 0


def test_the_datum_is_a_required_argument():
    m = make_strip_mesh()
    with pytest.raises(TypeError):
        build_topology(m, CrackSet.of([4]), 0.0)
    topo = build_topology(m, CrackSet.of([4]))
    with pytest.raises(TypeError):
        BrokenField.zeros(topo)
    u = BrokenField.zeros(topo, 0.0)
    with pytest.raises(TypeError):
        jump_across_edge(u, 4)
    with pytest.raises(TypeError):
        jump_support(u)


def test_topology_construction_deterministic():
    m = build_structured_mesh(3, 2, 2.0, 1.0, brittle="all")
    crack = CrackSet.of([int(e) for e in crackable_edges(m)[:4]])
    t1 = build_topology(m, crack)
    t2 = build_topology(m, crack)
    assert np.array_equal(t1.corner_dof, t2.corner_dof)
    assert np.array_equal(t1.dof_vertex, t2.dof_vertex)
    assert np.array_equal(t1.constrained, t2.constrained)


def test_non_crackable_edges_rejected():
    m = make_strip_mesh()
    with pytest.raises(ValueError, match="non-crackable"):
        build_topology(m, CrackSet.of([0]))


def test_crackset_semantics():
    a = CrackSet.of([3, 1, 3])
    assert a.edge_ids == (1, 3)
    assert a == CrackSet.of((1, 3))
    assert a.issubset(CrackSet.of([1, 2, 3]))
    assert not CrackSet.of([1, 2, 3]).issubset(a)
    assert a.union([2]) == CrackSet.of([1, 2, 3])
    assert 3 in a and 2 not in a


def test_field_vtk_dump(tmp_path):
    m = make_strip_mesh()
    topo = build_topology(m, CrackSet.of([4]))
    u = BrokenField.zeros(topo, 0.0)
    path = tmp_path / "field.vtk"
    write_field_vtk(u, path, name="displacement")
    text = path.read_text().splitlines()
    assert f"POINTS {3 * m.n_triangles} double" in text
    assert "SCALARS displacement double 1" in text


def test_jump_support_always_inside_the_crack_set():
    m = build_structured_mesh(3, 2, 2.0, 1.0, brittle="all")
    rng = np.random.default_rng(17)
    ids = [int(e) for e in crackable_edges(m)]
    for _ in range(10):
        crack = CrackSet.of(rng.choice(ids, size=rng.integers(0, 6), replace=False).tolist())
        psi = lambda x, y: 0.1 * x
        topo = build_topology(m, crack)
        u = BrokenField(topo, rng.normal(size=topo.n_dofs))
        assert jump_support(u, psi, tol=0.0).issubset(crack)
