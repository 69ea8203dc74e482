import numpy as np
import pytest

from qsfrac.mesh import (
    BoundaryLabel,
    MeshError,
    build_structured_mesh,
    crackable_edges,
    edge_geometry,
    mesh_fingerprint,
)
from qsfrac.vtkio import write_mesh_vtk


def test_minimal_triangulation_counts():
    m = build_structured_mesh(1, 1, 1.0, 1.0)
    assert m.n_triangles == 2
    assert m.n_edges == 5
    assert len(m.interior_edges) == 1


def test_two_by_one_strip_enumeration():
    # hand enumeration of the 2x1 strip: 6 vertices, 4 triangles, 9 edges
    m = build_structured_mesh(2, 1, 2.0, 1.0)
    assert m.n_vertices == 6
    assert m.n_triangles == 4
    assert m.n_edges == 9
    expected_edges = [
        (0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5), (2, 5), (3, 4), (4, 5),
    ]
    assert [tuple(e) for e in m.edges] == expected_edges
    assert sorted(m.interior_edges.tolist()) == [2, 4, 5]
    assert sorted(m.boundary_edges.tolist()) == [0, 1, 3, 6, 7, 8]


@pytest.mark.parametrize("nx,ny,w,h,diag", [
    (1, 1, 1.0, 1.0, "main"),
    (3, 2, 2.5, 0.75, "main"),
    (2, 2, 1.0, 2.0, "crossed"),
    (5, 4, 3.0, 1.0, "crossed"),
])
def test_areas_partition_the_rectangle(nx, ny, w, h, diag):
    m = build_structured_mesh(nx, ny, w, h, diagonal=diag)
    assert abs(m.tri_area.sum() - w * h) <= 1e-12 * (1 + w * h)


def test_crossed_mesh_counts():
    m = build_structured_mesh(2, 1, 2.0, 1.0, diagonal="crossed")
    assert m.n_vertices == (3 * 2) + 2      # grid plus one center per cell
    assert m.n_triangles == 8


def test_boundary_partition_property():
    m = build_structured_mesh(3, 2, 2.0, 1.0,
                              labeling={"dirichlet": ("left",), "surface": ("right",)},
                              brittle="none")
    interior = set(m.interior_edges.tolist())
    for e in range(m.n_edges):
        lbl = BoundaryLabel(m.boundary_label[e])
        if e in interior:
            assert lbl == BoundaryLabel.INTERIOR
        else:
            assert lbl in (BoundaryLabel.DIRICHLET, BoundaryLabel.NEUMANN,
                           BoundaryLabel.SURFACE_FORCE)
    # DIRICHLET is the complement of NEUMANN and SURFACE_FORCE on the boundary
    boundary = set(m.boundary_edges.tolist())
    labeled = (set(m.dirichlet_edges.tolist())
               | set(m.edges_with_label(BoundaryLabel.NEUMANN).tolist())
               | set(m.surface_edges.tolist()))
    assert labeled == boundary


def test_surface_edges_are_stored_read_only():
    m = build_structured_mesh(3, 2, 2.0, 1.0,
                              labeling={"dirichlet": ("left",), "surface": ("right", "top")},
                              brittle="none")
    assert np.array_equal(m.surface_edges, m.edges_with_label(BoundaryLabel.SURFACE_FORCE))
    assert len(m.surface_edges) == 5 and m.surface_edges is m.surface_edges
    assert not m.surface_edges.flags.writeable
    with pytest.raises(ValueError):
        m.surface_edges[0] = 0


def test_crackable_all_brittle_unit_square():
    m = build_structured_mesh(1, 1, 1.0, 1.0, brittle="all")
    # interior diagonal plus the four Dirichlet boundary edges
    assert len(crackable_edges(m)) == 5


def test_crackable_empty_without_brittle():
    m = build_structured_mesh(1, 1, 1.0, 1.0, brittle="none")
    assert len(crackable_edges(m)) == 0


def test_crackable_middle_column_only():
    m = build_structured_mesh(2, 1, 2.0, 1.0,
                              labeling={"dirichlet": ("left", "right")},
                              brittle=("rect", (1.0, 0.0, 1.0, 1.0)))
    ids = crackable_edges(m).tolist()
    assert len(ids) == 1
    (e,) = ids
    assert tuple(m.vertices[m.edges[e][0]]) == (1.0, 0.0)
    assert tuple(m.vertices[m.edges[e][1]]) == (1.0, 1.0)


def test_crackable_excludes_neumann_and_surface_boundary():
    m = build_structured_mesh(2, 1, 2.0, 1.0,
                              labeling={"dirichlet": ("left",), "surface": ("right",)},
                              brittle=("rect", (1.0, 0.0, 1.0, 1.0)))
    ids = set(crackable_edges(m).tolist())
    assert ids.isdisjoint(set(m.surface_edges.tolist()))
    assert ids.isdisjoint(set(m.edges_with_label(BoundaryLabel.NEUMANN).tolist()))


def test_edge_geometry_values():
    m = build_structured_mesh(2, 1, 2.0, 1.0)
    g0 = edge_geometry(m, 0)  # (0,0)-(1,0) bottom edge
    assert g0.length == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(np.abs(g0.unit_normal), [0.0, 1.0])
    assert g0.unit_normal[1] == -1.0  # boundary normals point outward
    m1 = build_structured_mesh(1, 1, 1.0, 1.0)
    diag = m1.interior_edges[0]
    assert edge_geometry(m1, int(diag)).length == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_normals_unit_and_oriented_low_to_high():
    m = build_structured_mesh(3, 2, 2.0, 1.5)
    norms = np.hypot(m.edge_normal[:, 0], m.edge_normal[:, 1])
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    for e in m.interior_edges:
        hi = m.edge_tris[e, 1]
        toward = m.tri_centroid[hi] - m.edge_midpoint[e]
        assert np.dot(toward, m.edge_normal[e]) > 0


def test_unknown_edge_id_rejected():
    m = build_structured_mesh(1, 1, 1.0, 1.0)
    with pytest.raises(MeshError):
        edge_geometry(m, 99)


def test_zero_cells_rejected():
    with pytest.raises(MeshError):
        build_structured_mesh(0, 1, 1.0, 1.0)
    with pytest.raises(MeshError):
        build_structured_mesh(1, 1, 0.0, 1.0)


def test_brittle_meeting_surface_part_rejected():
    with pytest.raises(MeshError, match="surface-force"):
        build_structured_mesh(2, 1, 2.0, 1.0,
                              labeling={"dirichlet": ("left",), "surface": ("right",)},
                              brittle="all")


def test_side_listed_twice_rejected():
    with pytest.raises(MeshError):
        build_structured_mesh(1, 1, 1.0, 1.0,
                              labeling={"dirichlet": ("left",), "surface": ("left",)})


def test_interior_edges_share_exactly_their_endpoints():
    m = build_structured_mesh(4, 3, 2.0, 1.0, diagonal="crossed")
    for e in m.interior_edges:
        t1, t2 = m.edge_tris[e]
        shared = set(m.triangles[t1]) & set(m.triangles[t2])
        assert shared == set(m.edges[e])


def test_fingerprint_deterministic_and_sensitive():
    m1 = build_structured_mesh(2, 2, 1.0, 1.0)
    m2 = build_structured_mesh(2, 2, 1.0, 1.0)
    m3 = build_structured_mesh(2, 2, 1.0, 1.0, brittle="none")
    assert mesh_fingerprint(m1) == mesh_fingerprint(m2)
    assert mesh_fingerprint(m1) != mesh_fingerprint(m3)


def test_vtk_dump_sections(tmp_path):
    m = build_structured_mesh(2, 1, 2.0, 1.0, brittle=("rect", (1.0, 0.0, 1.0, 1.0)))
    path = tmp_path / "mesh.vtk"
    write_mesh_vtk(m, path)
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert f"POINTS {m.n_vertices} double" in text
    assert f"CELLS {m.n_triangles + m.n_edges} {4 * m.n_triangles + 3 * m.n_edges}" in text
    assert f"CELL_DATA {m.n_triangles + m.n_edges}" in text
    assert "SCALARS boundary_label int 1" in text
    assert "SCALARS brittle int 1" in text


def test_degenerate_geometry_rejected_at_construction():
    m = build_structured_mesh(1, 1, 1.0, 1.0)
    verts = m.vertices.copy()
    verts[1] = verts[0]  # collapse an edge to zero length
    from qsfrac.mesh import Mesh

    with pytest.raises(MeshError, match="areas"):
        Mesh(vertices=verts, triangles=m.triangles.copy(),
             edges=m.edges.copy(), edge_tris=m.edge_tris.copy(),
             boundary_label=m.boundary_label.copy(), brittle=m.brittle.copy())
