"""Property tests of the elastic energy, the stress triple and the power
samples: each reads the field's corner values once, and each equals, bit for
bit, its composition from the per-quantity functions, over random small
meshes, crack sets, fields, exponents, loads and stiffnesses."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsfrac.broken import build_topology, trace_on_surface_part
from qsfrac.energy import (
    BodyPotential,
    BulkLaw,
    EnergyModel,
    SurfacePotential,
    TimeTable,
    Toughness,
    body_rate,
    body_value_and_gradient,
    bulk_energy_density,
    elastic_energy,
    stress,
    stress_triple,
    surface_rate,
    surface_value_and_gradient,
)
from qsfrac.evolution import sample_power_terms

from test_broken_properties import _random_field, cracked_meshes

_PROPS = settings(max_examples=60, deadline=None)


@st.composite
def energy_cases(draw):
    """(mesh, model, t, u): a cracked mesh with a random field, p in
    {1.5, 2, 4}, q in {1.5, 2, 3}, a scalar or per-triangle mu, random body
    and surface load tables and a time on or between their knots."""
    mesh, _, crack = draw(cracked_meshes())
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    p = draw(st.sampled_from([1.5, 2.0, 4.0]))
    q = draw(st.sampled_from([1.5, 2.0, 3.0]))
    mu = rng.uniform(0.5, 2.0, mesh.n_triangles) if draw(st.booleans()) else 1.3
    nv, nt, ns = mesh.n_vertices, mesh.n_triangles, len(mesh.surface_edges)
    knots = (0.0, 0.4, 1.0)
    model = EnergyModel(
        bulk=BulkLaw(p=p, mu=mu, epsilon=0.1 if p < 2 else 0.0),
        toughness=Toughness("isotropic", (0.05,)),
        body=BodyPotential(TimeTable.build([(k, rng.normal(size=nt)) for k in knots], nt),
                           lam=draw(st.sampled_from([0.0, 1e-3, 0.5])), q=q),
        surface=SurfacePotential(TimeTable.build([(k, rng.normal(size=ns)) for k in knots], ns)),
        boundary=TimeTable.build([(k, rng.normal(size=nv)) for k in knots], nv),
    )
    t = draw(st.sampled_from(knots) | st.floats(0.0, 1.0))
    u = _random_field(build_topology(mesh, crack), seed)
    if draw(st.booleans()):   # a midpoint mean of exactly 0, where q < 2 has its kink
        u.values[u.topology.corner_dof[0]] = 0.0
    return mesh, model, t, u


@_PROPS
@given(energy_cases())
def test_elastic_energy_is_its_composition(case):
    mesh, model, t, u = case
    value, parts = elastic_energy(model, mesh, t, u)
    w = float(np.sum(mesh.tri_area * bulk_energy_density(
        model.bulk, np.arange(mesh.n_triangles), u.gradients())))
    f, _ = body_value_and_gradient(model.body, t, u)
    g, _ = surface_value_and_gradient(model.surface, t, trace_on_surface_part(u), mesh)
    assert parts == {"W": w, "F": f, "G": g}
    assert value == w - f - g


@_PROPS
@given(energy_cases())
def test_stress_triple_is_its_composition(case):
    mesh, model, t, u = case
    sig, body, surf = stress_triple(model, mesh, t, u)
    _, density = body_value_and_gradient(model.body, t, u)
    _, g = surface_value_and_gradient(model.surface, t, trace_on_surface_part(u), mesh)
    assert np.array_equal(sig, stress(model.bulk, np.arange(mesh.n_triangles), u.gradients()))
    assert np.array_equal(body, -density)
    assert surf.shape == (len(mesh.surface_edges),) and np.array_equal(surf, -g)


@_PROPS
@given(energy_cases())
def test_power_samples_are_their_composition(case):
    mesh, model, t, u = case
    psi_dot = model.boundary.rate(t)
    grads_psi_dot = np.einsum("tki,ti->tk", mesh.grad_op, psi_dot[mesh.triangles])
    sig, body, surf = stress_triple(model, mesh, t, u)
    ids = mesh.surface_edges
    expected = {
        "stress_power": float(np.sum(mesh.tri_area * np.einsum("tk,tk->t", sig, grads_psi_dot))),
        "body_coupling": float(np.sum(mesh.tri_area * -body * psi_dot[mesh.triangles].mean(axis=1))),
        "body_rate": body_rate(model.body, t, u),
        "surface_coupling": 0.0,
        "surface_rate": 0.0,
    }
    if len(ids):
        psi_dot_edge = psi_dot[mesh.edges[ids]].mean(axis=1)
        expected["surface_coupling"] = float(np.sum(mesh.edge_length[ids] * -surf * psi_dot_edge))
        expected["surface_rate"] = surface_rate(model.surface, t, trace_on_surface_part(u), mesh)
    assert sample_power_terms(model, mesh, t, u) == expected


@_PROPS
@given(energy_cases())
def test_one_gather_gives_the_gradients_means_and_trace_of_a_gather_each(case):
    mesh, _, _, u = case
    corner_dof = u.topology.corner_dof
    grads = np.einsum("tki,ti->tk", mesh.grad_op, u.values[corner_dof])
    trace = u.values[corner_dof.ravel()[mesh.edge_corner[mesh.surface_edges, 0]]].mean(axis=1)
    assert np.array_equal(u.gradients(), grads)
    assert np.array_equal(u.tri_means(), u.values[corner_dof].mean(axis=1))
    assert np.array_equal(trace_on_surface_part(u), trace)
