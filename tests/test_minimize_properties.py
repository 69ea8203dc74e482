"""Property tests of the quadratic solve's energy identity and load memo.

For p = q = 2 a candidate's elastic energy comes from its own linear solve,
E_el(u) = 1/2 u.(K u) - b.u + c_eps, instead of a quadrature pass, and the
loads of the last time solved are memoized.  Over random small quadratic
problems built from config texts (epsilon >= 0, a stiffness expression,
positive confinement, body and surface load tables) and random crack sets and
times, the identity must agree with the quadrature of ``elastic_energy``, the
search score with ``total_energy``, and a reused solver with a fresh one.

Agreement is to rounding: 1e-12 (1 + |E|), widened by 1e-14 |u|.|K||u|,
the scale of the rounding error of the quadratic form u.(K u).  The second
term matters where a piece cut off from the Dirichlet boundary drifts to
f / lambda under weak confinement (|u| ~ 2000 at lambda = 1e-3): the form
then cancels and the identity misses the quadrature by up to about
4 eps |u|.|K||u|, which was 2.4e-12 (1 + |E|) in the worst of 3,000 random
cases tried.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsfrac.broken import CrackSet
from qsfrac.config import parse_config
from qsfrac.energy import elastic_energy, total_energy
from qsfrac.evolution import _Search
from qsfrac.mesh import crackable_edges
from qsfrac.minimize import ElasticSolver, assemble_forms

_LABELINGS = (
    "mesh.dirichlet = all",
    "mesh.dirichlet = left, right",
    "mesh.dirichlet = left\nmesh.surface = right",
    "mesh.dirichlet = bottom\nmesh.surface = top",
)


def _close(p, u, a: float, b: float) -> bool:
    """``a`` and ``b`` agree to rounding (see the module docstring)."""
    mesh = p.mesh
    mu = p.model.bulk.mu_at(np.arange(mesh.n_triangles))
    k = abs(assemble_forms(mesh, u.topology, mesh.tri_area * mu, mesh.tri_area * p.model.body.lam))
    scale = np.abs(u.values) @ (k @ np.abs(u.values))
    return abs(a - b) <= 1e-12 * (1.0 + abs(b)) + 1e-14 * scale


@st.composite
def quadratic_cases(draw):
    """(problem, crack set, time) for a random quadratic config text on a
    mesh of at most 3 x 2 cells; the brittle rectangle stays clear of the
    right and top sides, where a surface load may act."""
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    labeling = draw(st.sampled_from(_LABELINGS))
    num = st.floats(-2.0, 2.0)
    text = f"""
version = 1
mesh.nx = {nx}
mesh.ny = {ny}
mesh.width = {float(nx)}
mesh.height = {float(ny)}
mesh.diagonal = {draw(st.sampled_from(["main", "crossed"]))}
{labeling}
mesh.brittle = rect: 0, 0, {nx - 0.5}, {ny - 0.5}
energy.mu = {draw(st.floats(0.5, 2.0))!r} + {draw(st.floats(0.0, 1.0))!r} * x * (1 + y)
energy.epsilon = {draw(st.sampled_from([0.0, draw(st.floats(0.0, 1.0))]))!r}
energy.lambda = {draw(st.floats(1e-3, 1.0))!r}
toughness.weight = {draw(st.floats(0.01, 1.0))!r}
boundary.psi = 0: 0; 0.4: ({draw(num)!r}) * x + ({draw(num)!r}) * y; 1: ({draw(num)!r}) * x
body.force = 0: {draw(num)!r}; 1: ({draw(num)!r}) * (x - y)
time.horizon = 1.0
time.knots = 3
"""
    if "surface" in labeling:
        text += f"surface.force = 0: 0; 1: ({draw(num)!r}) * (1 + x + y)\n"
    problem = parse_config(text).build_problem()
    edges = [int(e) for e in crackable_edges(problem.mesh)]
    crack = CrackSet.of(e for e, keep in zip(edges, draw(st.lists(
        st.booleans(), min_size=len(edges), max_size=len(edges)))) if keep)
    return problem, crack, draw(st.floats(0.0, 1.0))


@given(quadratic_cases())
@settings(max_examples=60, deadline=None)
def test_solve_energy_identity_matches_the_quadrature(case):
    p, crack, t = case
    u, report = ElasticSolver(p.model, p.mesh).solve(crack, t)
    quadrature, _ = elastic_energy(p.model, p.mesh, t, u)
    assert _close(p, u, report.energy, quadrature), (report.energy, quadrature)


@given(quadratic_cases())
@settings(max_examples=60, deadline=None)
def test_search_total_matches_total_energy(case):
    p, crack, t = case
    search = _Search(p.model, p.mesh)
    score = search.total(crack, t)
    u, _ = search.solver.solve(crack, t)
    expected, _ = total_energy(p.model, p.mesh, t, u, crack)
    assert _close(p, u, score, expected), (score, expected)


@given(quadratic_cases(), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_load_memo_does_not_leak_between_times(case, t2):
    p, crack, t1 = case
    reused = ElasticSolver(p.model, p.mesh)
    for t in (t1, t2, t1):
        u, report = reused.solve(crack, t)
        fresh_u, fresh = ElasticSolver(p.model, p.mesh).solve(crack, t)
        assert u.values.tobytes() == fresh_u.values.tobytes()
        assert u.topology.psi_nodal.tobytes() == fresh_u.topology.psi_nodal.tobytes()
        assert report.energy == fresh.energy
