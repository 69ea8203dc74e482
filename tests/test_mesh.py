import hashlib

import numpy as np
import pytest

from qsfrac.mesh import (
    BoundaryLabel,
    Mesh,
    MeshError,
    _edge_table,
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

    with pytest.raises(MeshError, match="areas"):
        Mesh(vertices=verts, triangles=m.triangles.copy(),
             edges=m.edges.copy(), edge_tris=m.edge_tris.copy(),
             boundary_label=m.boundary_label.copy(), brittle=m.brittle.copy())


# ---------------------------------------------------------------------------
# the edge table: golden hashes and construction checks
# ---------------------------------------------------------------------------

_STRIP = {"labeling": {"dirichlet": ("left", "right")}, "brittle": ("rect", (1.0, 0.0, 1.0, 1.0))}
_SURFACE = {"labeling": {"dirichlet": ("left",), "surface": ("right",)},
            "brittle": ("rect", (0.0, 0.0, 1.0, 1.0))}


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.int64).tobytes()).hexdigest()[:16]


# (nx, ny, width, height), keywords, then the first 16 hex digits of
# mesh_fingerprint, and of the SHA-256 of edge_tris and of edge_corner as int64
@pytest.mark.parametrize("size, kw, fingerprint, edge_tris, edge_corner", [
    ((1, 1, 1.0, 1.0), {}, "f5b64ed45bbae525", "7c34a853f2cbb158", "68bf815b36e528b1"),
    ((2, 1, 2.0, 1.0), {}, "a77a7d26377bc389", "4bf59d63ca5347ef", "c9470cb25889aa84"),
    ((3, 2, 2.0, 1.0), {}, "b4d49bd244d14357", "4b15de6acbcfc96b", "937e6e924947e75a"),
    ((20, 10, 2.0, 1.0), {}, "28d7847ce775daad", "3642640b8284c248", "5c67c07b0242b775"),
    ((30, 15, 2.0, 1.0), {}, "441f4ad9febf03b3", "5909b11343c44e04", "1dc33f1361ae5813"),
    ((1, 1, 1.0, 1.0), {"diagonal": "crossed"},
     "b7c432531d6570ee", "a5f142e8a4a146b1", "12e8c9b3ace0b9b7"),
    ((2, 1, 2.0, 1.0), {"diagonal": "crossed"},
     "775e4dd69f98cf19", "169a577f6c57e64f", "2ebbfeeb138a0c1a"),
    ((3, 2, 2.0, 1.0), {"diagonal": "crossed"},
     "e458d71660cc0c7c", "d355bd403334402d", "cb77e8d06864cdea"),
    ((20, 10, 2.0, 1.0), {"diagonal": "crossed"},
     "622327f302fb8d52", "33d399f1c5551c88", "bdfeb7a6da2b7bdf"),
    ((30, 15, 2.0, 1.0), {"diagonal": "crossed"},
     "1487739347f56505", "9a366b61a4250390", "562b839cf4fba2cc"),
    ((3, 2, 2.0, 1.0), _SURFACE, "1157675948f26e97", "4b15de6acbcfc96b", "937e6e924947e75a"),
    ((20, 10, 2.0, 1.0), _STRIP, "c0f8b8f21c1d2842", "3642640b8284c248", "5c67c07b0242b775"),
    ((2, 1, 2.0, 1.0), {"diagonal": "crossed", "brittle": ("edges", (2, 4, 5, 9))},
     "d226c7b605b62df5", "169a577f6c57e64f", "2ebbfeeb138a0c1a"),
], ids=["main1x1", "main2x1", "main3x2", "main20x10", "main30x15", "crossed1x1", "crossed2x1",
        "crossed3x2", "crossed20x10", "crossed30x15", "surface", "rect", "edges"])
def test_edge_table_matches_golden_hashes(size, kw, fingerprint, edge_tris, edge_corner):
    m = build_structured_mesh(*size, **kw)
    assert mesh_fingerprint(m)[:16] == fingerprint
    assert _digest(m.edge_tris) == edge_tris
    assert _digest(m.edge_corner) == edge_corner


@pytest.mark.parametrize("seed", range(4))
def test_edge_table_of_shuffled_triangles_matches_a_loop_reference(seed):
    # the triangles of a crossed mesh in random order, each rotated at random
    rng = np.random.default_rng(seed)
    base = build_structured_mesh(3, 2, 2.0, 1.0, diagonal="crossed")
    tris = base.triangles[rng.permutation(base.n_triangles)]
    tris = np.array([np.roll(t, k) for t, k in zip(tris, rng.integers(0, 3, len(tris)))])
    sides = {}
    for t, tri in enumerate(tris.tolist()):
        for i in range(3):
            sides.setdefault(tuple(sorted((tri[i], tri[(i + 1) % 3]))), []).append((t, i))
    edges, edge_tris, side_edge = _edge_table(tris)
    assert edges.tolist() == [list(e) for e in sorted(sides)]
    for e, key in enumerate(sorted(sides)):
        adjacent = [t for t, _ in sides[key]]
        assert edge_tris[e].tolist() == adjacent + [-1] * (2 - len(adjacent))
        assert all(side_edge[t, i] == e for t, i in sides[key])
    # the corners Mesh places from side_edge, against a search of each triangle
    m = Mesh(vertices=base.vertices, triangles=tris, edges=edges, edge_tris=edge_tris,
             boundary_label=np.where(edge_tris[:, 1] < 0, 1, 0), brittle=np.ones(len(edges), bool))
    for e, (a, b) in enumerate(edges):
        for s, t in enumerate(edge_tris[e]):
            expected = [3 * t + tris[t].tolist().index(v) for v in (a, b)] if t >= 0 else [-1, -1]
            assert m.edge_corner[e, s].tolist() == expected


def _arrays(**kw):
    m = build_structured_mesh(2, 1, 2.0, 1.0, **kw)
    return {k: getattr(m, k).copy() for k in
            ("vertices", "triangles", "edges", "edge_tris", "boundary_label", "brittle")}


def _drop_edge_row():
    a = _arrays()
    return {k: (np.delete(v, 3, axis=0) if k in ("edges", "edge_tris", "boundary_label", "brittle")
                else v) for k, v in a.items()}


def _swap_edge_rows():
    a = _arrays()
    for k in ("edges", "edge_tris", "boundary_label", "brittle"):
        a[k][[1, 2]] = a[k][[2, 1]]
    return a


def _reverse_edge_tris():
    a = _arrays()
    a["edge_tris"][2] = a["edge_tris"][2, ::-1]   # edge 2 is interior
    return a


def _third_triangle():
    # three triangles above and below one edge (0, 1)
    return dict(vertices=[[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]],
                triangles=[[0, 1, 2], [0, 3, 1], [0, 1, 4]],
                edges=np.zeros((0, 2)), edge_tris=np.zeros((0, 2)),
                boundary_label=[], brittle=[])


def _repeated_vertex_triple():
    # two triangles on one vertex triple: every edge is shared, all interior
    return dict(vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                triangles=[[0, 1, 2], [1, 2, 0]],
                edges=[[0, 1], [0, 2], [1, 2]], edge_tris=[[0, 1], [0, 1], [0, 1]],
                boundary_label=[0, 0, 0], brittle=[False, False, False])


def _labeled_interior_edge():
    a = _arrays()
    a["boundary_label"][2] = BoundaryLabel.DIRICHLET
    return a


def _brittle_surface_edge():
    a = _arrays(labeling={"dirichlet": ("left",), "surface": ("right",)}, brittle="none")
    a["brittle"][np.flatnonzero(a["boundary_label"] == BoundaryLabel.SURFACE_FORCE)[0]] = True
    return a


def _missing_vertex():
    a = _arrays()
    a["triangles"][0, 0] = -1
    return a


def _nan_vertex():
    a = _arrays()
    a["vertices"][0, 0] = np.nan
    return a


@pytest.mark.parametrize("make, message", [
    (_drop_edge_row, "edge table"),
    (_swap_edge_rows, "edge table"),
    (_reverse_edge_tris, "edge table"),
    (_third_triangle, "meet more than two triangles"),
    (_repeated_vertex_triple, "share all three vertices"),
    (_labeled_interior_edge, "interior edge carries a boundary label"),
    (_brittle_surface_edge, "surface-force"),
    (_missing_vertex, "vertex ids"),
    (_nan_vertex, "finite"),
], ids=["dropped_edge_row", "swapped_edge_rows", "reversed_edge_tris", "third_triangle",
        "repeated_vertex_triple", "labeled_interior_edge", "brittle_surface_edge",
        "missing_vertex", "nan_vertex"])
def test_bad_mesh_rejected_at_construction(make, message):
    with pytest.raises(MeshError, match=message):
        Mesh(**make())


def test_construction_validates_once(monkeypatch):
    calls = []
    validate = Mesh.validate
    monkeypatch.setattr(Mesh, "validate", lambda self: calls.append(1) or validate(self))
    m = build_structured_mesh(2, 1, 2.0, 1.0)
    assert calls == [1]
    Mesh(**{k: getattr(m, k) for k in
            ("vertices", "triangles", "edges", "edge_tris", "boundary_label", "brittle")})
    assert calls == [1, 1]
