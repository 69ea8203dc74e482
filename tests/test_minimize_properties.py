"""Property tests of the quadratic solve's energy identity and load vector.

For p = q = 2 a candidate's elastic energy comes from its own linear solve,
E_el(u) = 1/2 u.(K u) - b.u + c_eps, instead of a quadrature pass.  Over
random small quadratic problems built from config texts (epsilon >= 0, a
stiffness expression, positive confinement, body and surface load tables)
and random crack sets and times, the identity must agree with the quadrature
of ``elastic_energy``, the search score with ``total_energy``, and a reused
solver with a fresh one.  Every solve path takes its datum and load vector b
from ``ElasticSolver._system``, which must equal the boundary interpolant
and ``assemble_pairing`` of a zero stress with the loads, bit for bit.

Agreement is to rounding: 1e-12 (1 + |E|), widened by 1e-14 |u|.|K||u|,
the scale of the rounding error of the quadratic form u.(K u).  The second
term matters where a piece cut off from the Dirichlet boundary drifts to
f / lambda under weak confinement (|u| ~ 2000 at lambda = 1e-3): the form
then cancels and the identity misses the quadrature by up to about
4 eps |u|.|K||u|, which was 2.4e-12 (1 + |E|) in the worst of 3,000 random
cases tried.

The quadratic solve scatters every stiffness product straight onto the free
DOFs from the per-triangle forms; its free stiffness, right-hand side,
residual and energy must agree with a stiffness assembled here on all DOFs by
COO and then sliced, to the same rounding.

The open-space score of a crack set (the all-open minimum plus a Schur
complement over the tie rows the set keeps, plus its surface energy) must
agree with the solve of that crack set to the same rounding, for every
subset of the crackable edges, wherever the solver offers the score.

Above the dense limit a quadratic solve interpolates, within the load
segment holding t, the CG solutions at its two ends, which the crack set's
cache entry keeps.  On the notched 20 x 10 strip with a kinked datum, any
order of solves, and any evictions, must give every field bit for bit as a
fresh solver does.

For other exponents the damped Newton loop, with the secant trial after each
full step that lowers the energy, must reach its tolerance on the 2 x 1 and
2 x 3 strips for p from 1.1 to 20 (epsilon = 1e-6 below 2), q in {2, 3},
lambda in {0, 1e-2, 0.5}, any t in (0, 1] and no crack, the first crackable
edge or all of them.  The dual certificate of each field, which does not use
the solver, must close: an annihilation residual of at most 1e-8 and a gap
of at most 1e-8 (1 + |primal|).
"""

import dataclasses
import functools
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsfrac import evolution, minimize
from qsfrac.audit import dual_certificate
from qsfrac.broken import CrackSet
from qsfrac.config import parse_config
from qsfrac.corpus import config_text
from qsfrac.energy import TimeTable, Toughness, elastic_energy, surface_energy, total_energy
from qsfrac.evolution import _Search
from qsfrac.mesh import crackable_edges
from qsfrac.minimize import ElasticSolver, FloatingComponentError

from conftest import KINKED, make_model, make_strip_mesh
from test_evolution_properties import _mesh, _mesh_choices

_LABELINGS = (
    "mesh.dirichlet = all",
    "mesh.dirichlet = left, right",
    "mesh.dirichlet = left\nmesh.surface = right",
    "mesh.dirichlet = bottom\nmesh.surface = top",
)


def _coo_stiffness(mesh, model, topo):
    """The stiffness-plus-confinement matrix K on all DOFs of ``topo``:
    sum_T |T| (mu Gt G + lam/9 ones(3, 3)), assembled by COO."""
    g = mesh.grad_op
    stiff = mesh.tri_area * model.bulk.mu_at(np.arange(mesh.n_triangles))
    local = (np.einsum("t,tki,tkj->tij", stiff, g, g)
             + (mesh.tri_area * model.body.lam / 9.0)[:, None, None])
    rows = np.repeat(topo.corner_dof, 3, axis=1).ravel()
    cols = np.tile(topo.corner_dof, (1, 3)).ravel()
    return scipy.sparse.coo_matrix((local.ravel(), (rows, cols)),
                                   shape=(topo.n_dofs, topo.n_dofs)).tocsr()


def _load_vector(mesh, model, topo, t):
    """The load vector b on all DOFs: |T| f / 3 at each corner of T and
    |e| g / 2 at both endpoints of each surface-force edge e."""
    b = np.zeros(topo.n_dofs)
    np.add.at(b, topo.corner_dof, (mesh.tri_area * model.body.table.value(t) / 3.0)[:, None])
    ends = topo.corner_dof.ravel()[mesh.edge_corner[mesh.surface_edges, 0]]
    np.add.at(b, ends, (mesh.edge_length[mesh.surface_edges] * model.surface.table.value(t) / 2.0)[:, None])
    return b


def _close(p, u, a: float, b: float) -> bool:
    """``a`` and ``b`` agree to rounding (see the module docstring)."""
    k = abs(_coo_stiffness(p.mesh, p.model, u.topology))
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
@settings(max_examples=40, deadline=None)
def test_quadratic_solve_matches_a_coo_assembly(case):
    # the free stiffness the solve factors, its right-hand side at the
    # boundary interpolant, and the residual and energy it reports
    p, crack, t = case
    mesh, model = p.mesh, p.model
    solver = ElasticSolver(model, mesh)
    factored, rhs = [], []
    with pytest.MonkeyPatch.context() as patch:
        spd_solver = minimize._spd_solver
        patch.setattr(minimize, "_spd_solver", lambda m: factored.append(m) or spd_solver(m))
        data = solver._data(crack)
    solve = data.solve
    data.solve = lambda b, atol: rhs.append(b) or solve(b, atol)
    u, report = solver.solve(crack, t)
    topo = u.topology
    free, cons = topo.free_dofs, topo.constrained_dofs
    k = _coo_stiffness(mesh, model, topo).toarray()   # at most 3 x 2 cells
    b = _load_vector(mesh, model, topo, t)
    ku = k @ u.values
    scale = 1.0 + np.max(np.abs(k) @ np.abs(u.values)) + np.max(np.abs(b))
    assert len(factored) == 1 and len(rhs) >= 1
    kff = k[np.ix_(free, free)]
    assert np.max(np.abs(factored[0] - kff), initial=0.0) <= 1e-14 * np.max(np.abs(k))
    expected_rhs = b[free] - k[np.ix_(free, cons)] @ u.values[cons]
    assert np.max(np.abs(rhs[0] - expected_rhs), initial=0.0) <= 1e-14 * scale
    assert abs(report.residual - np.linalg.norm((ku - b)[free])) <= 1e-14 * scale
    c_eps = 0.5 * model.bulk.epsilon**2 * float(mesh.tri_area @ model.bulk.mu_at(np.arange(mesh.n_triangles)))
    expected = 0.5 * float(u.values @ ku) - float(b @ u.values) + c_eps
    assert _close(p, u, report.energy, expected), (report.energy, expected)


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
def test_a_reused_solver_solves_like_a_fresh_one_at_t1_t2_t1(case, t2):
    p, crack, t1 = case
    reused = ElasticSolver(p.model, p.mesh)
    for t in (t1, t2, t1):
        u, report = reused.solve(crack, t)
        fresh_u, fresh = ElasticSolver(p.model, p.mesh).solve(crack, t)
        assert u.values.tobytes() == fresh_u.values.tobytes()
        assert report.energy == fresh.energy


@functools.cache
def _kinked_strip():
    return parse_config(KINKED.format(nx=20, ny=10, knots=3, kind="greedy")).build_problem()


@st.composite
def system_cases(draw):
    """(model, mesh, crack set, times) for ``ElasticSolver._system``: a
    problem of ``quadratic_cases`` (signed body loads, a surface load on two
    labelings) solved directly, or with p = 3 by Newton, or the kinked
    notched strip, solved by CG; the times mix its load breakpoints and
    points between them, in a drawn order."""
    kind = draw(st.sampled_from(["dense", "newton", "cg"]))
    if kind == "cg":
        p = _kinked_strip()
        crack = draw(st.sampled_from([p.initial_crack, CrackSet.empty()]))
    else:
        p, crack, _ = draw(quadratic_cases())
    model = p.model
    if kind == "newton":
        model = dataclasses.replace(model, bulk=dataclasses.replace(model.bulk, p=3.0))
    breaks = [float(t) for t in model.breakpoints]
    times = draw(st.lists(st.one_of(st.sampled_from(breaks), st.floats(0.0, 1.0)), min_size=2, max_size=6))
    return model, p.mesh, crack, times


@given(system_cases())
@settings(max_examples=40, deadline=None)
def test_system_is_the_datum_and_the_pairing_of_the_loads_bit_for_bit(case):
    # the solver's load vector and the pairing of a zero stress with f(t)
    # and g(t) are two quadratures of one functional: they must not drift
    # apart by a bit, at any time and in any order of times
    model, mesh, crack, times = case
    solver = ElasticSolver(model, mesh)
    data = solver._data(crack)
    topo = data.topology
    assert (data.method == "cg") == (mesh.n_triangles == 400)
    zeros = np.zeros((mesh.n_triangles, 2))
    for t in times:
        u, b = solver._system(data, t)
        assert u.tobytes() == topo.dirichlet_values(model.boundary.value(t)).tobytes()
        pairing = minimize.assemble_pairing(mesh, topo, zeros, model.body.table.value(t),
                                            model.surface.table.value(t))
        assert b.tobytes() == pairing.tobytes(), t


@st.composite
def open_space_cases(draw):
    """(model, mesh, two times) on a mesh of ``test_evolution_properties``
    (at most 3 x 2 cells, either diagonal, the four labelings, one to five
    crackable edges) with a stiffness expression, epsilon >= 0, positive
    confinement and load tables.  Each load is zero in about half the draws:
    a loaded piece of the all-open body without Dirichlet constraint turns
    the score off."""
    mesh = _mesh(*draw(st.sampled_from(_mesh_choices())))
    x, y = mesh.tri_centroid.T
    amp = st.floats(-2.0, 2.0)
    load = st.one_of(st.just(0.0), amp)
    psi_x, psi_y = mesh.vertices.T
    surf_x, surf_y = mesh.edge_midpoint[mesh.surface_edges].T
    nv, nt, ns = mesh.n_vertices, mesh.n_triangles, len(mesh.surface_edges)
    model = make_model(
        mesh,
        mu=draw(st.floats(0.5, 2.0)) + draw(st.floats(0.0, 1.0)) * x * (1 + y),
        eps=draw(st.sampled_from([0.0, draw(st.floats(0.0, 1.0))])),
        lam=draw(st.floats(1e-3, 1.0)),
        kappa=Toughness("isotropic", (draw(st.floats(0.01, 1.0)),)),
        psi=TimeTable.build([(0.0, 0.0), (0.4, draw(amp) * psi_x + draw(amp) * psi_y),
                             (1.0, draw(amp) * psi_x)], nv),
        f=TimeTable.build([(0.0, draw(load)), (1.0, draw(load) * (x - y))], nt),
        g=TimeTable.build([(0.0, 0.0), (1.0, draw(load) * (1 + surf_x + surf_y))], ns),
    )
    return model, mesh, (draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))


def _assert_every_subset_scores_like_its_solve(model, mesh, times):
    search = _Search(model, mesh)
    solver = ElasticSolver(model, mesh)   # independent of the open space
    edges = search.crackable
    p = SimpleNamespace(mesh=mesh, model=model)
    for k in range(len(edges) + 1):
        for subset in itertools.combinations(edges, k):
            crack = CrackSet.of(subset)
            for t in times:   # alternating times exercises the per-time memo
                u, report = solver.solve(crack, t)
                expected = report.energy + surface_energy(model.toughness, mesh, crack)
                score = search.total(crack, t)
                assert _close(p, u, score, expected), (crack, t, score, expected)


@given(open_space_cases())
@settings(max_examples=40, deadline=None)
def test_open_space_score_of_every_subset_matches_its_solve(case):
    model, mesh, times = case
    loaded = np.any(model.body.table.samples) or np.any(model.surface.table.samples)
    scores = ElasticSolver(model, mesh).scores
    assert scores or loaded
    if scores:
        _assert_every_subset_scores_like_its_solve(model, mesh, times)


@pytest.mark.parametrize("labeling, rect", [(2, (0, 0, 1, 1)), (3, (1, 0, 2, 1))])
def test_open_space_score_drops_redundant_tie_rows(labeling, rect):
    # uncracked, these brittle cells tie the corners around a vertex in a
    # cycle, or pin two corners that a tie also joins, so G over the kept
    # rows is singular; the pivoted solve must stop at its rank
    mesh = _mesh(3, 2, labeling, rect, "main")
    psi = TimeTable.build([(0.0, 0.0), (1.0, 0.7 * mesh.vertices[:, 0] - 0.3 * mesh.vertices[:, 1] ** 2)],
                          mesh.n_vertices)
    model = make_model(mesh, psi=psi, eps=0.5)
    solver = ElasticSolver(model, mesh)
    assert solver.scores
    rows = solver._open.kept_rows(CrackSet.empty())
    assert np.linalg.matrix_rank(solver._open.gram[np.ix_(rows, rows)]) < len(rows)
    _assert_every_subset_scores_like_its_solve(model, mesh, (0.3, 1.0))


def test_zero_confinement_with_a_floating_open_piece_keeps_the_solve_path():
    # cracking the column floats the right half of a strip clamped on the
    # left: without confinement the all-open stiffness is singular, so
    # candidates are solved, and the floating one still raises
    mesh = make_strip_mesh(labeling={"dirichlet": ("left",)})
    model = make_model(mesh, lam=0.0)
    search = _Search(model, mesh)
    assert not search.solver.scores
    assert search.total(CrackSet.empty(), 0.5) == search._scored(CrackSet.empty(), 0.5)[1]
    with pytest.raises(FloatingComponentError):
        search.energies([CrackSet.empty(), CrackSet.of([4])], 0.5)


_KINKED_TIMES = (0.0, 0.25, 0.4, 0.5, 0.8, 1.0)


@pytest.fixture(scope="module")
def kinked():
    """(the kinked notched 20 x 10 strip, where every crack set solves by
    CG; four crack sets: the notch, it grown by one and two column edges,
    none; the fields of a fresh solver, filled on demand)."""
    p = parse_config(KINKED.format(nx=20, ny=10, knots=3, kind="greedy")).build_problem()
    x, y = p.mesh.edge_midpoint.T
    column = sorted((e for e in crackable_edges(p.mesh) if abs(x[e] - 1.0) < 1e-9), key=lambda e: y[e])
    notch = len(p.initial_crack.edge_ids)
    cracks = [CrackSet.of(column[:k]) for k in (notch, notch + 1, notch + 2, 0)]
    assert cracks[0] == p.initial_crack
    return p, cracks, {}


@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(_KINKED_TIMES)), min_size=1, max_size=8),
       st.sampled_from([None, 1]))
@settings(max_examples=25, deadline=None)
def test_cg_fields_do_not_depend_on_solve_order(kinked, order, cache_size):
    p, cracks, fresh = kinked
    with pytest.MonkeyPatch.context() as patch:
        if cache_size:
            patch.setattr(minimize, "_CACHE_SIZE", cache_size)
        solver = ElasticSolver(p.model, p.mesh)
        for k, t in order:
            u, report = solver.solve(cracks[k], t)
            assert report.method == "cg"
            if (k, t) not in fresh:
                fresh[k, t] = ElasticSolver(p.model, p.mesh).solve(cracks[k], t)[0].values
            assert np.array_equal(u.values, fresh[k, t])
            assert len(solver._cache) <= (cache_size or minimize._CACHE_SIZE)


_NEWTON_TIMES = (0.0, 0.2, 0.4, 0.55, 0.9, 1.0)


def _kinked_newton_strip():
    """The 2 x 3 strip at p = 1.5, q = 3 with a datum nonzero at t = 0 and
    kinked at the breakpoint 0.4, so its times fall in two load segments."""
    mesh = make_strip_mesh(3)
    x = mesh.vertices[:, 0]
    psi = TimeTable.build([(0.0, 0.05 * x), (0.4, x / 2.0), (1.0, x / 3.0)], mesh.n_vertices)
    return make_model(mesh, p=1.5, q=3.0, eps=1e-6, lam=0.5, psi=psi), mesh


@pytest.fixture(scope="module")
def newton_cases():
    """Per case (the three Newton corpus texts at 9 knots, the kinked 2 x 3
    strip): (model, mesh, crack sets, the fields of a fresh solver filled
    on demand, None where it fails)."""
    cases = []
    for name in ("quartic", "subquadratic", "cubic_body"):
        model, mesh, edges, _ = _corpus9(name)
        cases.append((model, mesh, [CrackSet.empty(), CrackSet.of(edges)], {}))
    model, mesh = _kinked_newton_strip()
    edges = [int(e) for e in crackable_edges(mesh)]
    cases.append((model, mesh, [CrackSet.empty(), CrackSet.of(edges[:1]), CrackSet.of(edges)], {}))
    return cases


def _newton_field(solver, crack, t):
    try:
        return solver.solve(crack, t)[0].values
    except minimize.SolveError:
        return None


@given(st.integers(0, 3), st.lists(st.tuples(st.integers(0, 2), st.sampled_from(_NEWTON_TIMES)),
                                   min_size=1, max_size=10),
       st.sampled_from([None, 1]))
@settings(max_examples=40, deadline=None)
def test_newton_fields_do_not_depend_on_solve_order(newton_cases, case, order, cache_size):
    # a Newton solve starts from its crack set's solutions at the load
    # breakpoints, which the cache entry keeps: any order of solves on one
    # solver, with its ends kept, evicted by a third breakpoint or dropped
    # with the entry (an LRU of 1), gives every field bit for bit as a fresh
    # solver does
    model, mesh, cracks, fresh = newton_cases[case]
    with pytest.MonkeyPatch.context() as patch:
        if cache_size:
            patch.setattr(minimize, "_CACHE_SIZE", cache_size)
        solver = ElasticSolver(model, mesh)
        for k, t in order:
            k %= len(cracks)
            u = _newton_field(solver, cracks[k], t)
            if (k, t) not in fresh:
                fresh[k, t] = _newton_field(ElasticSolver(model, mesh), cracks[k], t)
            assert (u is None) is (fresh[k, t] is None)
            assert u is None or np.array_equal(u, fresh[k, t])


def test_an_anchored_newton_solve_succeeds_where_the_interpolant_does():
    # a reduced sweep: on the 2 x 1 and 2 x 3 strips, for each exponent pair,
    # confinement and crack set, one solver sweeps t; each of its solves
    # that the loop from the interpolant of psi(t) alone solves succeeds
    # too, with the same energy to 1e-12 (1 + |E|) and a dual certificate
    # within 1e-8
    times = np.linspace(0.125, 1.0, 8)
    for ny, p, q, lam in itertools.product((1, 3), (1.5, 4.0, 10.0), (2.0, 3.0), (1e-2, 0.5)):
        mesh = _STRIPS[ny]
        model = make_model(mesh, p=p, q=q, lam=lam, eps=1e-6 if p < 2.0 else 0.0)
        edges = [int(e) for e in crackable_edges(mesh)]
        for crack in (CrackSet.empty(), CrackSet.of(edges[:ny]), CrackSet.of(edges)):
            solver, cold = ElasticSolver(model, mesh), ElasticSolver(model, mesh)
            for t in times:
                with np.errstate(all="ignore"):
                    _, x, _, _, energy = cold._newton(cold._data(crack), t)
                if x is None:
                    continue
                u, rep = solver.solve(crack, t)
                assert rep.residual <= 1e-10
                assert abs(rep.energy - energy) <= 1e-12 * (1.0 + abs(energy)), (ny, p, q, lam, crack, t)
                c = dual_certificate(model, mesh, crack, t, u)
                assert c.annihilation_residual <= 1e-8
                assert abs(c.fenchel_gap) <= 1e-8 * (1.0 + abs(c.primal_value))


@functools.cache
def _corpus9(name):
    p = parse_config(config_text(name, 9)).build_problem()
    return p.model, p.mesh, [int(e) for e in crackable_edges(p.mesh)], p.grid.knots


def _reference_score(model, mesh, crack, t):
    """The open-space score of ``crack`` at ``t`` from a fresh solver, with
    its kept rows factored here by ``dpstrf``."""
    fresh = ElasticSolver(model, mesh)
    assert fresh.scores
    space = fresh._open
    with np.errstate(all="ignore"):
        u, _, _, _, e_open = fresh._solve_quadratic(space, t)
        r = space.residual(u.values, model.boundary.value(t))
        rows = space.kept_rows(crack)
        if not len(rows):
            return e_open
        c, piv, rank, _ = scipy.linalg.lapack.dpstrf(space.gram[np.ix_(rows, rows)])
        w, _ = scipy.linalg.lapack.dtrtrs(c[:rank, :rank], r[rows[piv[:rank] - 1]][:, None], trans=1)
        return e_open + 0.5 * float(w[:, 0] @ w[:, 0])


def _assert_factor_cache_within_budget(space):
    factors = space._factors
    assert factors.held == sum(minimize._factor_bytes(kept) for kept in factors._entries.values())
    assert factors.held <= minimize._FACTOR_BYTES
    assert len(factors) <= minimize._CACHE_SIZE


@given(st.sampled_from(("lattice", "pair")), st.data(), st.sampled_from((None, 0, 600, 4000)))
@settings(max_examples=30, deadline=None)
def test_a_cached_score_is_the_fresh_factorization_bit_for_bit(name, data, budget):
    # each crack set scored cold, then warm at other times; a tiny budget
    # evicts (0 keeps no factor, 600 bytes keeps few), so a crack set is
    # factored again after its eviction
    model, mesh, edges, knots = _corpus9(name)
    cracks = data.draw(st.lists(st.sets(st.sampled_from(edges)).map(CrackSet.of), min_size=1, max_size=6))
    times = data.draw(st.lists(st.sampled_from(knots.tolist()), min_size=2, max_size=4))
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(minimize, "_FACTOR_BYTES", budget)
        solver = ElasticSolver(model, mesh)
        for t in times:
            for crack in cracks:
                assert solver.score(crack, t) == _reference_score(model, mesh, crack, t), (crack, t)
                _assert_factor_cache_within_budget(solver._open)


def test_the_factor_cache_holds_at_most_its_byte_budget(monkeypatch):
    # every subset of the lattice's crackable edges at two times, through a
    # budget of three of its largest factors: entries are evicted all along
    model, mesh, edges, knots = _corpus9("lattice")
    probe = ElasticSolver(model, mesh)
    assert probe.scores
    largest = minimize._factor_bytes(probe._open.kept_factor(CrackSet.empty()))
    monkeypatch.setattr(minimize, "_FACTOR_BYTES", 3 * largest)
    solver = ElasticSolver(model, mesh)
    subsets = [CrackSet.of(c) for k in range(len(edges) + 1) for c in itertools.combinations(edges, k)]
    for t in knots[1::4]:
        for crack in subsets:
            solver.score(crack, t)
            _assert_factor_cache_within_budget(solver._open)
    assert 1 < len(solver._open._factors) < len(subsets)


@given(st.sampled_from(("lattice", "pair")), st.data(), st.sampled_from((None, 1)))
@settings(max_examples=20, deadline=None)
def test_a_memoized_surface_energy_is_the_numpy_sum_bit_for_bit(name, data, cache_size):
    model, mesh, edges, _ = _corpus9(name)
    cracks = data.draw(st.lists(st.sets(st.sampled_from(edges)).map(CrackSet.of), min_size=1, max_size=6))
    with pytest.MonkeyPatch.context() as patch:
        if cache_size:
            patch.setattr(evolution, "_CACHE_SIZE", cache_size)
        search = _Search(model, mesh)
        for crack in cracks + cracks:
            expected = float(np.sum(search._edge_es[list(crack.edge_ids)]))
            assert search._surface(crack) == expected
            assert len(search._surfaces) <= (cache_size or minimize._CACHE_SIZE)


_STRIPS = {ny: make_strip_mesh(ny) for ny in (1, 3)}


@given(st.sampled_from((1, 3)), st.sampled_from((1.1, 1.3, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 12.0, 20.0)),
       st.sampled_from((2.0, 3.0)), st.sampled_from((0.0, 1e-2, 0.5)),
       st.floats(0.0, 1.0, exclude_min=True), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_newton_solve_closes_its_dual_certificate(ny, p, q, lam, t, which):
    assume(not p == q == 2.0)
    mesh = _STRIPS[ny]
    edges = [int(e) for e in crackable_edges(mesh)]
    crack = CrackSet.of([[], edges[:1], edges][which])
    model = make_model(mesh, p=p, q=q, lam=lam, eps=1e-6 if p < 2.0 else 0.0)
    u, rep = ElasticSolver(model, mesh).solve(crack, t)
    assert rep.method == "newton" and rep.residual <= 1e-10
    c = dual_certificate(model, mesh, crack, t, u)
    assert c.annihilation_residual <= 1e-8
    assert abs(c.fenchel_gap) <= 1e-8 * (1.0 + abs(c.primal_value))
