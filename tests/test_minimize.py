import dataclasses
import inspect
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from qsfrac import minimize
from qsfrac.broken import BrokenField, CrackSet, build_topology
from qsfrac.config import parse_config
from qsfrac.corpus import config_text
from qsfrac.energy import KnotEvaluation, TimeTable, body_hessian_coeff, elastic_energy, stress_jacobian
from qsfrac.mesh import build_structured_mesh, crackable_edges
from qsfrac.minimize import (
    ElasticSolver,
    FloatingComponentError,
    euler_residual,
    minimize_elastic,
)

from conftest import KINKED, NOTCHED, cli_env, make_model, make_strip_mesh


def dense_oracle(model, mesh, crack, t):
    """Independent quadratic oracle: finite-difference Hessian and gradient of
    the assembled elastic energy over the free DOFs, solved densely.

    Unit steps make the second differences exact for a quadratic energy.
    """
    topo = build_topology(mesh, crack)
    base = BrokenField.zeros(topo, model.boundary.value(t)).values
    free = topo.free_dofs
    nf = len(free)

    def e(v):
        vals = base.copy()
        vals[free] += v
        val, _ = elastic_energy(model, mesh, t, BrokenField(topo, vals))
        return val

    e0 = e(np.zeros(nf))
    a = np.empty((nf, nf))
    ei = np.eye(nf)
    e_single = np.array([e(ei[i]) for i in range(nf)])
    for i in range(nf):
        for j in range(i, nf):
            val = e(ei[i] + ei[j]) - e_single[i] - e_single[j] + e0
            a[i, j] = a[j, i] = val
    g = e_single - e0 - 0.5 * np.diag(a)
    x = np.linalg.solve(a, -g)
    vals = base.copy()
    vals[free] += x
    field = BrokenField(topo, vals)
    value, _ = elastic_energy(model, mesh, t, field)
    return field, value, a


def test_zero_loads_give_zero_minimizer():
    mesh = make_strip_mesh()
    model = make_model(mesh, psi=TimeTable.constant(0.0, mesh.n_vertices), lam=1.0)
    for crack in (CrackSet.empty(), CrackSet.of([4])):
        u, rep = minimize_elastic(model, mesh, crack, 0.7)
        assert np.allclose(u.values, 0.0, atol=1e-14)
        assert rep.energy == pytest.approx(0.0, abs=1e-16)


def test_affine_boundary_data_reproduced_exactly():
    mesh = build_structured_mesh(2, 2, 1.0, 1.0, brittle="none")  # all Dirichlet
    psi = TimeTable.build([(0.0, np.zeros(mesh.n_vertices)),
                           (1.0, mesh.vertices[:, 0])], mesh.n_vertices)
    model = make_model(mesh, psi=psi, lam=0.0)
    t = 0.6
    u, rep = minimize_elastic(model, mesh, CrackSet.empty(), t)
    assert np.allclose(u.values, t * mesh.vertices[:, 0][u.topology.dof_vertex], atol=1e-13)
    assert rep.energy == pytest.approx(t * t / 2.0, rel=1e-13)
    assert rep.residual <= 1e-10


def test_confined_problem_matches_dense_oracle():
    mesh = build_structured_mesh(2, 2, 1.0, 1.0, brittle="none")
    psi = TimeTable.build([(0.0, np.zeros(mesh.n_vertices)),
                           (1.0, mesh.vertices[:, 0])], mesh.n_vertices)
    model = make_model(mesh, psi=psi, lam=1e-3)
    t = 0.6
    u, rep = minimize_elastic(model, mesh, CrackSet.empty(), t)
    oracle_field, oracle_value, _ = dense_oracle(model, mesh, CrackSet.empty(), t)
    assert np.max(np.abs(u.values - oracle_field.values)) <= 1e-10
    assert rep.energy == pytest.approx(oracle_value, abs=1e-10)
    # confinement pulls the interior down, which costs extra gradient energy:
    # the minimum sits strictly above the pure-Dirichlet value t^2/2 and below
    # the energy of the affine interpolant itself
    affine = BrokenField.from_nodal(u.topology, lambda x, y: t * x)
    affine_energy, _ = elastic_energy(model, mesh, t, affine)
    assert t * t / 2.0 < rep.energy < affine_energy


def test_cracked_problem_matches_dense_oracle():
    mesh = make_strip_mesh()
    rng = np.random.default_rng(21)
    f = TimeTable.constant(rng.normal(size=mesh.n_triangles) * 0.2, mesh.n_triangles)
    model = make_model(mesh, lam=0.05, f=f)
    for crack in (CrackSet.empty(), CrackSet.of([4])):
        u, rep = minimize_elastic(model, mesh, crack, 0.8)
        oracle_field, oracle_value, _ = dense_oracle(model, mesh, crack, 0.8)
        assert np.max(np.abs(u.values - oracle_field.values)) <= 1e-10
        assert rep.energy == pytest.approx(oracle_value, abs=1e-10)


def test_surface_load_matches_dense_oracle():
    mesh = build_structured_mesh(2, 1, 2.0, 1.0,
                                 labeling={"dirichlet": ("left",), "surface": ("right",)},
                                 brittle=("rect", (1.0, 0.0, 1.0, 1.0)))
    g = TimeTable.build([(0.0, 0.0), (1.0, 0.5)], len(mesh.surface_edges))
    model = make_model(mesh, lam=0.5, g=g,
                       psi=TimeTable.constant(0.0, mesh.n_vertices))
    for crack in (CrackSet.empty(), CrackSet.of([4])):
        u, rep = minimize_elastic(model, mesh, crack, 0.9)
        oracle_field, oracle_value, _ = dense_oracle(model, mesh, crack, 0.9)
        assert np.max(np.abs(u.values - oracle_field.values)) <= 1e-10
        assert rep.energy == pytest.approx(oracle_value, abs=1e-12)


def test_minimum_decreases_with_larger_cracks():
    mesh = build_structured_mesh(2, 2, 2.0, 1.0, brittle="all")
    model = make_model(mesh, lam=0.2)
    rng = np.random.default_rng(23)
    solver = ElasticSolver(model, mesh)
    from qsfrac.mesh import crackable_edges

    ids = [int(e) for e in crackable_edges(mesh)]
    for _ in range(10):
        k = rng.integers(0, len(ids))
        small = CrackSet.of(rng.choice(ids, size=k, replace=False).tolist())
        extra = [e for e in ids if e not in small]
        big = small.union(rng.choice(extra, size=min(2, len(extra)), replace=False).tolist()) if extra else small
        _, rs = solver.solve(small, 0.7)
        _, rb = solver.solve(big, 0.7)
        assert rb.energy <= rs.energy + 1e-12 * (1.0 + abs(rs.energy))


def test_energy_residual_consistency():
    # a field with gradient-norm tau sits within tau^2 / (2 lambda_min) of the optimum
    mesh = make_strip_mesh()
    model = make_model(mesh, lam=0.3)
    crack = CrackSet.of([4])
    t = 0.8
    u, rep = minimize_elastic(model, mesh, crack, t)
    _, e_star, a = dense_oracle(model, mesh, crack, t)
    lam_min = np.linalg.eigvalsh(a).min()
    rng = np.random.default_rng(24)
    for scale in (1e-5, 1e-3, 1e-1):
        vals = u.values.copy()
        vals[u.topology.free_dofs] += scale * rng.normal(size=u.topology.n_free)
        w = BrokenField(u.topology, vals)
        tau = euler_residual(model, mesh, crack, t, w)
        e_w, _ = elastic_energy(model, mesh, t, w)
        assert e_w - e_star <= tau**2 / (2 * lam_min) + 1e-12


def test_euler_residual_behaviour():
    mesh = make_strip_mesh()
    f = TimeTable.constant(1.0, mesh.n_triangles)
    model = make_model(mesh, lam=0.5, f=f, psi=TimeTable.constant(0.0, mesh.n_vertices))
    crack = CrackSet.empty()
    t = 0.5
    u, rep = minimize_elastic(model, mesh, crack, t, tol=1e-11)
    assert euler_residual(model, mesh, crack, t, u) <= 1e-10

    # grows linearly in the size of an admissible perturbation
    rng = np.random.default_rng(25)
    v = np.zeros(u.topology.n_dofs)
    v[u.topology.free_dofs] = rng.normal(size=u.topology.n_free)
    r1 = euler_residual(model, mesh, crack, t, BrokenField(u.topology, u.values + 1e-4 * v))
    r2 = euler_residual(model, mesh, crack, t, BrokenField(u.topology, u.values + 2e-4 * v))
    assert r2 / r1 == pytest.approx(2.0, rel=1e-6)

    # at u = 0 with a pure body load the residual is the load vector norm,
    # checked against central differences of the assembled energy
    zero = BrokenField.zeros(u.topology, model.boundary.value(t))
    r0 = euler_residual(model, mesh, crack, t, zero)
    free = u.topology.free_dofs
    h = 1e-6
    fd = np.empty(len(free))
    for k, dof in enumerate(free):
        vp, vm = zero.values.copy(), zero.values.copy()
        vp[dof] += h
        vm[dof] -= h
        ep, _ = elastic_energy(model, mesh, t, BrokenField(u.topology, vp))
        em, _ = elastic_energy(model, mesh, t, BrokenField(u.topology, vm))
        fd[k] = (ep - em) / (2 * h)
    assert r0 == pytest.approx(float(np.linalg.norm(fd)), rel=1e-6)


def test_euler_residual_rejects_mismatched_field():
    mesh = make_strip_mesh()
    model = make_model(mesh)
    u, _ = minimize_elastic(model, mesh, CrackSet.empty(), 0.5)
    with pytest.raises(ValueError):
        euler_residual(model, mesh, CrackSet.of([4]), 0.5, u)
    with pytest.raises(ValueError):
        euler_residual(model, mesh, CrackSet.empty(), 0.9, u)  # wrong time datum


def test_floating_component_detected():
    mesh = build_structured_mesh(2, 1, 2.0, 1.0,
                                 labeling={"dirichlet": ("left",)},
                                 brittle=("rect", (1.0, 0.0, 1.0, 1.0)))
    model = make_model(mesh, lam=0.0, psi=TimeTable.constant(0.0, mesh.n_vertices))
    with pytest.raises(FloatingComponentError, match="vertices"):
        minimize_elastic(model, mesh, CrackSet.of([4]), 0.5)
    # with confinement the same problem is well posed
    model2 = make_model(mesh, lam=0.5, psi=TimeTable.constant(0.0, mesh.n_vertices))
    u, rep = minimize_elastic(model2, mesh, CrackSet.of([4]), 0.5)
    assert rep.residual <= 1e-10


def test_newton_path_at_zero_confinement():
    # the quartic instance without confinement, clamped on the left only:
    # the cracked interface floats the right piece, while the uncracked body
    # solves by Newton with a zero body curvature
    text = config_text("quartic", 9).replace("energy.lambda = 1e-2", "energy.lambda = 0")
    text = text.replace("mesh.dirichlet = left, right", "mesh.dirichlet = left")
    problem = parse_config(text).build_problem()
    mesh = problem.mesh
    assert problem.model.body.lam == 0.0 and len(mesh.dirichlet_edges) == 1
    solver = ElasticSolver(problem.model, mesh)
    with pytest.raises(FloatingComponentError, match=r"vertices \[1, 2, 4, 5\]"):
        solver.solve(CrackSet.of(crackable_edges(mesh)), 0.5)
    u, rep = solver.solve(CrackSet.empty(), 0.5)
    assert rep.method == "newton"
    assert rep.residual <= 1e-10


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_solved_fields_share_one_read_only_layout(p):
    # a layout holds no datum: every time solved on one crack set returns
    # the cached layout itself, which no caller can change
    mesh = make_strip_mesh()
    solver = ElasticSolver(make_model(mesh, p=p), mesh)
    crack = CrackSet.of([4])
    u1, _ = solver.solve(crack, 0.3)
    u2, _ = solver.solve(crack, 0.7)
    assert u1.topology is u2.topology
    for name in ("corner_dof", "constrained", "dof_vertex"):
        arr = getattr(u1.topology, name)
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        u1.topology.n_dofs = 0


def test_newton_path_quartic_against_scipy():
    import scipy.optimize

    mesh = make_strip_mesh()
    model = make_model(mesh, p=4.0, lam=1e-2)
    crack = CrackSet.empty()
    t = 0.9
    u, rep = minimize_elastic(model, mesh, crack, t, tol=1e-11)
    assert rep.method == "newton"
    assert rep.residual <= 1e-11

    topo = u.topology
    base = BrokenField.zeros(topo, model.boundary.value(t)).values
    free = topo.free_dofs

    def fun(v):
        vals = base.copy()
        vals[free] += v
        val, _ = elastic_energy(model, mesh, t, BrokenField(topo, vals))
        return val

    rng = np.random.default_rng(26)
    res = scipy.optimize.minimize(fun, rng.normal(size=len(free)), method="Nelder-Mead",
                                  options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000})
    assert np.max(np.abs(base[free] + res.x - u.values[free])) <= 1e-6
    assert rep.energy <= res.fun + 1e-12


def test_repeated_solves_are_identical():
    mesh = make_strip_mesh()
    model = make_model(mesh, p=4.0, lam=1e-2)
    u1, _ = minimize_elastic(model, mesh, CrackSet.of([4]), 0.8)
    u2, _ = minimize_elastic(model, mesh, CrackSet.of([4]), 0.8)
    assert np.array_equal(u1.values, u2.values)


def test_solver_cache_evicts_the_least_recent_crack_set(monkeypatch):
    # a cache of 2 over 4 crack sets evicts on every cold solve; a crack set
    # rebuilt after eviction must solve exactly as in a fresh solver
    monkeypatch.setattr(minimize, "_CACHE_SIZE", 2)
    mesh = make_strip_mesh(brittle="all")
    model = make_model(mesh, f=TimeTable.constant(0.3, mesh.n_triangles), lam=1e-2)
    e1, e2 = crackable_edges(mesh)[:2]
    cracks = [CrackSet.empty(), CrackSet.of([e1]), CrackSet.of([e2]), CrackSet.of([e1, e2])]
    solver = ElasticSolver(model, mesh)
    for t in (0.4, 0.8):
        for crack in cracks:
            u, rep = solver.solve(crack, t)
            assert len(solver._cache) <= 2
            u_ref, rep_ref = ElasticSolver(model, mesh).solve(crack, t)
            assert np.array_equal(u.values, u_ref.values)
            assert rep.energy == rep_ref.energy
        assert list(solver._cache) == [c.edge_ids for c in cracks[2:]]


class _CountingMatrix:
    """A sparse matrix that counts its products with a vector, and the
    right-hand side of the CG solve it serves."""

    def __init__(self, matrix, rhs):
        self.matrix, self.rhs, self.products = matrix, rhs, 0

    def __matmul__(self, v):
        self.products += 1
        return self.matrix @ v


def _count_cg(monkeypatch):
    """Route every CG solve through a ``_CountingMatrix``; returns the list
    of them, one per solve."""
    calls = []
    jacobi_cg = minimize._jacobi_cg

    def counted(kff, inv_diag, rhs, atol):
        calls.append(_CountingMatrix(kff, rhs))
        return jacobi_cg(calls[-1], inv_diag, rhs, atol)

    monkeypatch.setattr(minimize, "_jacobi_cg", counted)
    return calls


def _uncracked_square():
    mesh = build_structured_mesh(16, 16, 1.0, 1.0, brittle="none")
    psi = TimeTable.build([(0.0, np.zeros(mesh.n_vertices)),
                           (1.0, mesh.vertices[:, 0] * mesh.vertices[:, 1])],
                          mesh.n_vertices)
    return make_model(mesh, psi=psi, lam=1e-2), mesh


def test_cg_path_beyond_dense_limit(monkeypatch):
    # one CG pass reaches the tolerance the solve checks, with no refinement
    # pass, and the report counts its steps: one product with the free block each
    model, mesh = _uncracked_square()
    calls = _count_cg(monkeypatch)
    u, rep = minimize_elastic(model, mesh, CrackSet.empty(), 0.7)
    assert rep.method == "cg"
    assert rep.n_free > 200
    assert rep.residual <= 1e-10
    assert euler_residual(model, mesh, CrackSet.empty(), 0.7, u) <= 1e-8
    assert len(calls) == 1
    assert rep.iterations == calls[0].products > 1


def _free_blocks():
    """The CG free blocks of the uncracked 16 x 16 square and of the notched
    20 x 10 and 30 x 15 strips with their notch, each with a right-hand side
    of its own loads."""
    model, mesh = _uncracked_square()
    cases = [(model, mesh, CrackSet.empty(), 0.7)]
    for nx, ny in ((20, 10), (30, 15)):
        p = parse_config(NOTCHED.format(nx=nx, ny=ny, knots=3, kind="greedy")).build_problem()
        cases.append((p.model, p.mesh, p.initial_crack, 0.5))
    for model, mesh, crack, t in cases:
        with pytest.MonkeyPatch.context() as patch:
            calls = _count_cg(patch)
            _, rep = ElasticSolver(model, mesh).solve(crack, t)
        assert rep.method == "cg"
        yield calls[0].matrix, calls[0].rhs   # the solve at the load breakpoint t = 1


def _scipy_cg(kff, rhs, atol):
    """scipy's Jacobi-preconditioned CG to the absolute ``atol``: (x, steps, converged)."""
    steps = []
    x, info = scipy.sparse.linalg.cg(kff, rhs, rtol=0.0, atol=atol, M=scipy.sparse.diags(
        1.0 / kff.diagonal()), callback=lambda xk: steps.append(0))
    return x, len(steps), info == 0


def test_jacobi_cg_follows_scipy_bit_for_bit():
    # the bare loop is scipy's recurrence: the same bits of x, the same
    # number of steps and the same outcome, converged or capped at 10 n
    blocks = list(_free_blocks())
    assert [len(rhs) for _, rhs in blocks] == [225, 212, 468]
    for kff, rhs in blocks:
        inv_diag = 1.0 / kff.diagonal()
        for b, atol in ((rhs, 5e-11), (rhs, 1e-6 * np.linalg.norm(rhs)), (np.zeros_like(rhs), 5e-11)):
            x, steps = minimize._jacobi_cg(kff, inv_diag, b, atol)
            x_ref, steps_ref, converged = _scipy_cg(kff, b, atol)
            assert np.array_equal(x, x_ref)
            assert steps == steps_ref and converged and steps < 10 * len(b)
            assert (steps == 0) == (not b.any())
    # on the blocks above the residual underflows within about 2.5 n steps,
    # long before the cap; a matrix with a skew part, on which CG never
    # converges, reaches it
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 5))
    kff = scipy.sparse.csr_matrix(2.0 * np.eye(5) + 0.5 * (a - a.T))
    rhs = rng.normal(size=5)
    x, steps = minimize._jacobi_cg(kff, 1.0 / kff.diagonal(), rhs, 1e-12)
    x_ref, steps_ref, converged = _scipy_cg(kff, rhs, 1e-12)
    assert np.array_equal(x, x_ref)
    assert steps == steps_ref == 50 and not converged


def test_cg_refuses_a_non_finite_right_hand_side_at_once(monkeypatch):
    # a datum of 1e300 overflows the residual of the notched strip's CG
    # solve: a SolveError (CLI exit 3) before any product with the free block
    p = parse_config(NOTCHED.format(nx=20, ny=10, knots=3, kind="greedy")
                     .replace("1: x / 2", "1: 1e300 * x")).build_problem()
    calls = _count_cg(monkeypatch)
    with pytest.raises(minimize.SolveError, match="not finite"):
        ElasticSolver(p.model, p.mesh).solve(p.initial_crack, 1.0)
    assert [c.products for c in calls] == [0]


def test_cg_interpolates_across_a_load_breakpoint():
    # the datum of the notched strip is nonzero at t = 0 and kinked at the
    # breakpoint 0.4, with a body force: on both sides of it and at it, the
    # field interpolated between the CG solves at the segment ends is the
    # sparse LU solution of the same free block, to rounding
    p = parse_config(KINKED.format(nx=20, ny=10, knots=3, kind="greedy")).build_problem()
    solver = ElasticSolver(p.model, p.mesh)
    assert list(solver._breaks) == [0.0, 0.4, 1.0]
    data = solver._data(p.initial_crack)
    lu = minimize._spd_solver(data.block.matrix(solver._forms, keep=False))
    free = data.topology.free_dofs
    for t in (0.3, 0.4, 0.45, 0.7):
        u, rep = solver.solve(p.initial_crack, t)
        exact = lu(solver._rhs(data, *solver._system(data, t)))
        assert rep.method == "cg" and rep.residual <= 1e-10
        assert np.max(np.abs(u.values[free] - exact)) <= 1e-10 * (1.0 + np.max(np.abs(u.values)))
        # 0.3 solves both ends of [0, 0.4], 0.4 has them, 0.45 solves 1.0,
        # and 0.7 lies in the same segment
        assert (rep.iterations > 0) == (t in (0.3, 0.45)), (t, rep.iterations)
    assert sorted(data.ends) == [1, 2]


# Newton steps per solve of the 2 x 1 strip at lambda = 1e-2 without secant
# trials, for (no crack, t = 0.3), ({4}, 0.3), (no crack, 0.9), ({4}, 0.9)
_PLAIN_NEWTON_STEPS = {1.2: (2, 34, 2, 40), 1.5: (2, 23, 2, 25), 3.0: (2, 12, 2, 13),
                       4.0: (3, 8, 2, 11), 6.0: (6, 8, 2, 8), 10.0: (6, 7, 5, 7)}


def test_subquadratic_bulk_solves_to_tolerance():
    # p < 2: decaying curvature; the damped Newton steps must still reach
    # the requested residual on cracked and uncracked states, as for p > 2.
    # The cracked-off half relaxes to zero gradient, where full Newton steps
    # of a power law converge only linearly: the secant step length brings
    # the cracked p = 1.5 solves to at most 12 steps, and costs no solve of
    # the table a step.  The steps counted are those of the loop from the
    # interpolant of psi(t) (``ElasticSolver._newton``), which a solve at a
    # load breakpoint runs as it is; a solve between two breakpoints also
    # counts the steps of its ends
    mesh = make_strip_mesh()
    for p, plain in _PLAIN_NEWTON_STEPS.items():
        model = make_model(mesh, p=p, eps=1e-6, lam=1e-2)
        steps = []
        for t in (0.3, 0.9):
            for crack in (CrackSet.empty(), CrackSet.of([4])):
                u, rep = minimize_elastic(model, mesh, crack, t, tol=1e-10)
                assert rep.residual <= 1e-10
                assert euler_residual(model, mesh, crack, t, u) <= 1e-8
                solver = ElasticSolver(model, mesh)
                with np.errstate(all="ignore"):
                    _, x, n, res, _ = solver._newton(solver._data(crack), t)
                assert x is not None and res <= 1e-10
                steps.append(n)
        assert all(n <= m for n, m in zip(steps, plain)), (p, steps)
        if p == 1.5:
            assert max(steps[1], steps[3]) <= 12, steps


def test_subquadratic_body_kink_raises_honestly():
    # q < 2 leaves the body potential non-smooth at z = 0; a cracked-off
    # piece relaxing exactly onto the kink is outside the solver's reach and
    # must fail loudly instead of returning garbage
    from qsfrac.minimize import SolveError

    mesh = make_strip_mesh()
    model = make_model(mesh, q=1.5, lam=1e-2)
    u, rep = minimize_elastic(model, mesh, CrackSet.empty(), 0.3)  # smooth case fine
    assert rep.residual <= 1e-10
    with pytest.raises(SolveError):
        minimize_elastic(model, mesh, CrackSet.of([4]), 0.3)


def test_fully_pinned_problem_returns_the_interpolant():
    # the direct solve, and the Newton loop, which returns at its first
    # evaluation with that evaluation's energy
    mesh = build_structured_mesh(1, 1, 1.0, 1.0, brittle="none")  # all Dirichlet, no interior vertex
    psi = TimeTable.build([(0.0, np.zeros(mesh.n_vertices)),
                           (1.0, mesh.vertices[:, 0])], mesh.n_vertices)
    for p in (2.0, 4.0):
        model = make_model(mesh, psi=psi, lam=0.1, p=p)
        u, rep = minimize_elastic(model, mesh, CrackSet.empty(), 0.5)
        assert rep.n_free == 0 and rep.residual == 0.0
        assert np.allclose(u.values, 0.5 * mesh.vertices[:, 0][u.topology.dof_vertex])
        energy, _ = elastic_energy(model, mesh, 0.5, u)
        assert abs(rep.energy - energy) <= 1e-13 * abs(energy)


@pytest.mark.parametrize("n", [2, minimize._DENSE_LIMIT + 1])
def test_open_space_factorization_failure_is_a_solve_error(n):
    # dense Cholesky up to the dense limit, sparse LU above: a singular
    # matrix (the all-open stiffness among others) is the solver's numeric error
    with pytest.raises(minimize.SolveError, match="factorization failed"):
        minimize._spd_solver(scipy.sparse.csr_matrix((n, n)))


def test_dense_spd_solver_matches_scipy_cholesky_bit_for_bit():
    rng = np.random.default_rng(13)
    for n in (1, 5, minimize._DENSE_LIMIT):
        a = rng.normal(size=(n, n))
        a = a @ a.T + n * np.eye(n)
        factor = scipy.linalg.cho_factor(a)
        solve = minimize._spd_solver(a)
        for rhs in (rng.normal(size=n), rng.normal(size=(n, 3))):
            assert np.array_equal(solve(rhs), scipy.linalg.cho_solve(factor, rhs))


def test_dense_spd_solver_refuses_non_finite_input():
    # a SolveError, which the CLI reports with exit code 3
    with pytest.raises(minimize.SolveError, match="not finite"):
        minimize._spd_solver(np.array([[np.nan]]))
    solve = minimize._spd_solver(np.array([[4.0]]))
    with pytest.raises(minimize.SolveError, match="not finite"):
        solve(np.array([np.inf]))
    assert solve(np.array([2.0])).tolist() == [0.5]


def test_empty_spd_solver_answers_with_an_empty_array():
    solve = minimize._spd_solver(np.zeros((0, 0)))
    for shape in ((0,), (0, 3)):
        x = solve(np.zeros(shape))
        assert x.shape == shape and x.dtype == float


def _singular_q3_case(nx, ny):
    """A strip held on its left side only, with its x = 1 column cracked,
    q = 3 and a body load: the cracked-off right piece starts at z = 0, where
    the q = 3 body curvature vanishes, so the free-block Hessian of the
    boundary-interpolant start is singular (constants on that piece)."""
    mesh = build_structured_mesh(nx, ny, 2.0, 1.0, labeling={"dirichlet": ("left",)},
                                 brittle=("rect", (1.0, 0.0, 1.0, 1.0)))
    model = make_model(mesh, q=3.0, lam=0.5, psi=TimeTable.constant(0.0, mesh.n_vertices),
                       f=TimeTable.constant(10.0, mesh.n_triangles))
    return mesh, model, CrackSet.of(crackable_edges(mesh))


def _start_hessian(model, mesh, crack, t):
    solver = ElasticSolver(model, mesh)
    ev = minimize._Evaluator(solver, solver._data(crack), t)
    topo = ev.topo
    *_, terms = ev.evaluate(BrokenField.from_nodal(topo, model.boundary.value(t)).values[topo.free_dofs])
    return ev.hessian(terms)


def test_newton_on_a_singular_sparse_hessian_raises_no_warning():
    # above the dense limit: the damped steps leave the singular start, and
    # no factorization or wild trial point emits a warning on the way
    mesh, model, crack = _singular_q3_case(18, 14)
    h = _start_hessian(model, mesh, crack, 0.5)
    assert not isinstance(h, np.ndarray) and h.shape[0] > minimize._DENSE_LIMIT
    topo = build_topology(mesh, crack)
    label, pinned = minimize._pieces(topo)
    kernel = (~pinned[label])[topo.free_dofs].astype(float)   # constants on the loose piece
    assert np.max(np.abs(h @ kernel)) <= 1e-12 * abs(h).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, rep = minimize_elastic(model, mesh, crack, 0.5)
    assert rep.residual <= 1e-10


def test_newton_on_a_singular_dense_hessian_damps_the_step(monkeypatch):
    # the dense twin of the test above: the Cholesky factorization of the
    # singular start fails without a warning, and the damped steps factor
    # again until the solve reaches its tolerance
    mesh, model, crack = _singular_q3_case(2, 1)
    with pytest.raises(minimize.SolveError, match="factorization failed"):
        minimize._spd_solver(_start_hessian(model, mesh, crack, 0.5))
    factored = []
    spd_solver = minimize._spd_solver
    monkeypatch.setattr(minimize, "_spd_solver", lambda h: factored.append(h) or spd_solver(h))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, rep = minimize_elastic(model, mesh, crack, 0.5)
    assert len(factored) >= 2 and all(isinstance(h, np.ndarray) for h in factored)
    assert rep.residual <= 1e-10


def full_hessian_reference(model, mesh, t, u):
    """The Hessian of the elastic energy assembled on all DOFs, then sliced
    to the free ones: the free-block assembly must match it."""
    d = stress_jacobian(model.bulk, np.arange(mesh.n_triangles), u.gradients())
    g = mesh.grad_op
    local = mesh.tri_area[:, None, None] * np.einsum("tki,tkl,tlj->tij", g, d, g)
    c = mesh.tri_area * body_hessian_coeff(model.body, u.tri_means())
    local = local + (c / 9.0)[:, None, None] * np.ones((3, 3))
    topo = u.topology
    rows = np.repeat(topo.corner_dof, 3, axis=1).ravel()
    cols = np.tile(topo.corner_dof, (1, 3)).ravel()
    full = scipy.sparse.coo_matrix((local.ravel(), (rows, cols)),
                                   shape=(topo.n_dofs, topo.n_dofs)).tocsr()
    free = topo.free_dofs
    return full[free][:, free].toarray()


@pytest.mark.parametrize("p, q", [(4.0, 2.0), (1.5, 2.0), (2.0, 3.0)])
@pytest.mark.parametrize("nx, ny", [(2, 1), (18, 14)])
def test_free_block_hessian_matches_the_sliced_full_assembly(p, q, nx, ny):
    # random fields on the uncracked body and on one with a cracked-off piece
    mesh = build_structured_mesh(nx, ny, 2.0, 1.0, labeling={"dirichlet": ("left",)},
                                 brittle=("rect", (1.0, 0.0, 1.0, 1.0)))
    model = make_model(mesh, p=p, q=q, eps=1e-6, lam=0.5)
    rng = np.random.default_rng(10)
    for crack in (CrackSet.empty(), CrackSet.of(crackable_edges(mesh))):
        topo = build_topology(mesh, crack)
        u = BrokenField(topo, rng.normal(size=topo.n_dofs))
        h = minimize._free_hessian(model, mesh, u, minimize._FreeBlock(topo))
        assert isinstance(h, np.ndarray) is (topo.n_free <= minimize._DENSE_LIMIT)
        dense = h if isinstance(h, np.ndarray) else h.toarray()
        ref = full_hessian_reference(model, mesh, 0.6, u)
        assert np.max(np.abs(dense - ref)) <= 1e-13 * np.max(np.abs(ref))


def _loaded_strip(nx, ny, p, q, rng):
    """(mesh, model) of an nx x ny strip pinned on the left, under random
    body and surface loads (drawn from ``rng``) and a random mu."""
    mesh = build_structured_mesh(nx, ny, 2.0, 1.0,
                                 labeling={"dirichlet": ("left",), "surface": ("right",)},
                                 brittle=("rect", (1.0, 0.0, 1.0, 1.0)))
    f = TimeTable.build([(0.0, 0.0), (1.0, rng.normal(size=mesh.n_triangles))], mesh.n_triangles)
    g = TimeTable.build([(0.0, 0.0), (1.0, rng.normal(size=len(mesh.surface_edges)))],
                        len(mesh.surface_edges))
    model = make_model(mesh, p=p, q=q, eps=1e-6, lam=0.5, f=f, g=g,
                       mu=rng.uniform(0.5, 2.0, mesh.n_triangles))
    return mesh, model


@pytest.mark.parametrize("p, q", [(4.0, 2.0), (1.5, 2.0), (2.0, 3.0), (2.0, 1.5)])
@pytest.mark.parametrize("nx, ny", [(2, 1), (18, 14)])
def test_newton_evaluator_matches_the_reference_functions(p, q, nx, ny):
    # random fields under body and surface loads, on the uncracked body and
    # on one with a cracked-off piece, on both sides of the dense limit
    rng = np.random.default_rng(11)
    mesh, model = _loaded_strip(nx, ny, p, q, rng)
    solver = ElasticSolver(model, mesh)
    t = 0.6
    for crack in (CrackSet.empty(), CrackSet.of(crackable_edges(mesh))):
        data = solver._data(crack)
        topo, block = data.topology, data.block
        ev = minimize._Evaluator(solver, data, t)
        for _ in range(3):
            v = rng.normal(size=topo.n_free)
            u = BrokenField(topo, ev.values(v))
            energy, _ = elastic_energy(model, mesh, t, u)
            e, g, res, terms = ev.evaluate(v)
            assert abs(e - energy) <= 1e-13 * abs(energy)
            grad = minimize.assemble_gradient(model, mesh, t, u)[topo.free_dofs]
            assert np.max(np.abs(g - grad)) <= 1e-13 * np.max(np.abs(grad))
            assert res == float(np.linalg.norm(g))   # the same bits
            h, ref = ev.hessian(terms), minimize._free_hessian(model, mesh, u, block)
            assert isinstance(h, np.ndarray) is (topo.n_free <= minimize._DENSE_LIMIT)
            diff = h - ref if isinstance(h, np.ndarray) else (h - ref).toarray()
            assert np.max(np.abs(diff)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("p, q", [(1.5, 2.0), (1.5, 3.0), (3.0, 2.0), (3.0, 3.0), (4.0, 2.0), (4.0, 3.0)])
@pytest.mark.parametrize("nx, ny", [(2, 1), (18, 14)])
def test_newton_report_energy_is_the_evaluators_at_the_returned_field(p, q, nx, ny):
    # the loaded strips of the evaluator test above: the report energy is the
    # last evaluation, bit for bit the evaluator's energy at the returned
    # field, and the quadrature of elastic_energy there up to rounding
    mesh, model = _loaded_strip(nx, ny, p, q, np.random.default_rng(11))
    solver = ElasticSolver(model, mesh)
    t = 0.6
    for crack in (CrackSet.empty(), CrackSet.of(crackable_edges(mesh))):
        u, rep = solver.solve(crack, t)
        assert rep.method == "newton" and rep.residual <= 1e-10
        assert (rep.n_free <= minimize._DENSE_LIMIT) is (nx == 2)
        ev = minimize._Evaluator(solver, solver._data(crack), t)
        assert rep.energy == ev.evaluate(u.values[u.topology.free_dofs])[0]
        energy, _ = elastic_energy(model, mesh, t, u)
        assert abs(rep.energy - energy) <= 1e-13 * abs(energy)


def test_damping_shifts_a_copy_of_the_hessian_diagonal():
    # h + delta m I entry for entry, m the mean of diag h (1 where it is 0),
    # dense and CSR; a write-protected h is left as it was, and delta = 0
    # gives h itself
    rng = np.random.default_rng(13)
    a = rng.normal(size=(7, 7))
    for dense in (a @ a.T + np.eye(7), a - np.diag(np.diag(a))):
        for h in (dense.copy(), scipy.sparse.csr_matrix(dense)):
            values = h if isinstance(h, np.ndarray) else h.data
            values.setflags(write=False)
            before = values.tobytes()
            m = float(np.mean(dense.diagonal())) or 1.0
            for delta in (1e-4, 1.0, 1e3):
                damped = minimize._damped(h, delta)
                assert isinstance(damped, np.ndarray) is isinstance(h, np.ndarray)
                out = damped if isinstance(damped, np.ndarray) else damped.toarray()
                assert np.array_equal(out, dense + delta * m * np.eye(7))
                assert values.tobytes() == before
            assert minimize._damped(h, 0.0) is h


def test_newton_evaluator_at_a_wild_point_raises_no_warning():
    # the sparse LU of the singular q = 3 block of a cracked-off piece gives
    # an undamped step of about 1e14; far beyond, the energy overflows (at 1e308 every
    # term does, and W - F - G would be NaN): an infinite energy, so a
    # rejected step.  The evaluator runs under the np.errstate that
    # ElasticSolver.solve holds, so a solve of the same problem returns or
    # raises SolveError with no numpy warning on the way
    mesh = make_strip_mesh(labeling={"dirichlet": ("left",)})
    model = make_model(mesh, q=3.0, lam=0.5, f=TimeTable.constant(10.0, mesh.n_triangles))
    solver = ElasticSolver(model, mesh)
    ev = minimize._Evaluator(solver, solver._data(CrackSet.of([4])), 0.5)
    topo = ev.topo
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("error")
        for scale, finite in ((1e12, True), (1e120, False), (1e308, False)):
            v = scale * (1.0 + 0.5 * np.linspace(-1.0, 1.0, topo.n_free))
            energy, _, _, terms = ev.evaluate(v)
            assert math.isfinite(energy) is finite
            assert energy > 0.0
            ev.hessian(terms)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ElasticSolver(model, mesh).solve(CrackSet.of([4]), 0.5)
        except minimize.SolveError:
            pass


def _count_energies(monkeypatch):
    """Record every energy evaluation of the Newton path: the evaluator's
    passes, whose last one also gives the report energy of a solve."""
    evaluations = []
    evaluate = minimize._Evaluator.evaluate
    monkeypatch.setattr(minimize._Evaluator, "evaluate",
                        lambda self, v: evaluations.append(1) or evaluate(self, v))
    return evaluations


def test_a_repeated_solve_returns_the_last_result(monkeypatch):
    mesh = make_strip_mesh()
    model = make_model(mesh, p=4.0, lam=1e-2)
    evaluations = _count_energies(monkeypatch)
    solver = ElasticSolver(model, mesh)
    u, rep = solver.solve(CrackSet.of([4]), 0.8)
    data = u.values.tobytes()
    assert evaluations and not u.values.flags.writeable
    evaluations.clear()
    again = solver.solve(CrackSet.of([4]), 0.8)
    assert again[0] is u and again[1] is rep and u.values.tobytes() == data
    assert not evaluations
    for crack, t in ((CrackSet.of([4]), 0.7), (CrackSet.empty(), 0.7)):
        solver.solve(crack, t)
        assert evaluations
        evaluations.clear()


def test_a_failed_solve_is_not_memoized(monkeypatch):
    # the cracked-off piece relaxes onto the kink of the q < 2 body potential
    mesh = make_strip_mesh()
    solver = ElasticSolver(make_model(mesh, q=1.5, lam=1e-2), mesh)
    evaluations = _count_energies(monkeypatch)
    for _ in range(2):
        evaluations.clear()
        with pytest.raises(minimize.SolveError):
            solver.solve(CrackSet.of([4]), 0.3)
        assert evaluations


def test_newton_hessian_assembles_once_per_iterate(monkeypatch):
    # the Hessian is assembled once per accepted iterate, at that iterate and
    # from the terms its evaluation gave: a rejected step reuses it, the
    # returned iterate needs none, and after a rejected secant trial it is
    # the full step's Hessian, not the trial's.
    # Each accepted iterate x is the point whose gradient g gives the
    # right-hand side -g of the Newton directions solved from x.  A solve
    # runs one loop per evaluator (the ends at the load breakpoints 0 and 1,
    # then the loop at t), so the points are grouped per evaluator and every
    # loop is checked.  Two cases above the dense limit, and the dense
    # cracked 2 x 1 strip at p = 1.5, whose solve rejects secant trials
    mesh = build_structured_mesh(18, 14, 2.0, 1.0, labeling={"dirichlet": ("left", "right")},
                                 brittle=("rect", (1.0, 0.0, 1.0, 1.0)))
    p15 = (mesh, make_model(mesh, p=1.5, eps=1e-6, lam=1e-2), CrackSet.of(crackable_edges(mesh)[:7]))
    strip = make_strip_mesh()
    dense = (strip, make_model(strip, p=1.5, eps=1e-6, lam=1e-2), CrackSet.of([4]))
    for mesh, model, crack in (p15, _singular_q3_case(18, 14), dense):
        assert (build_topology(mesh, crack).n_free > minimize._DENSE_LIMIT) is (mesh is not strip)
        loops, last = {}, []   # evaluator -> (points, evaluated, hessians, starts); its last Hessian's
        evaluate, hessian = minimize._Evaluator.evaluate, minimize._Evaluator.hessian
        spd_solver = minimize._spd_solver

        def on_evaluate(self, v):
            out = evaluate(self, v)
            points, evaluated, _, _ = loops.setdefault(self, ({}, [], [], {}))
            points[out[1].tobytes()] = v.copy()
            evaluated.append((v.tobytes(), out[3]))
            return out

        def on_hessian(self, terms):
            _, evaluated, hessians, _ = loops[self]
            (owner,) = [point for point, given in evaluated if given is terms]
            hessians.append((hessian(self, terms), evaluated[-1][0], owner))
            last[:] = [self]
            return hessians[-1][0]

        def on_spd_solver(matrix):
            solve = spd_solver(matrix)
            _, _, hessians, starts = loops[last[0]]

            def direction(rhs):   # -g at the iterate of the last Hessian
                starts.setdefault(len(hessians) - 1, -rhs)
                return solve(rhs)
            return direction

        monkeypatch.setattr(minimize._Evaluator, "evaluate", on_evaluate)
        monkeypatch.setattr(minimize._Evaluator, "hessian", on_hessian)
        monkeypatch.setattr(minimize, "_spd_solver", on_spd_solver)
        u, rep = ElasticSolver(model, mesh).solve(crack, 0.9)
        monkeypatch.undo()
        assert rep.residual <= 1e-10
        assert len(loops) == 3
        longest, rejected = 0, False
        for ev, (points, _, hessians, starts) in loops.items():
            assert sorted(starts) == list(range(len(hessians)))
            iterates = [points[starts[k].tobytes()] for k in range(len(hessians))]
            assert len({x.tobytes() for x in iterates}) == len(iterates)
            longest = max(longest, len(iterates))
            for (h, _, owner), x in zip(hessians, iterates):
                assert owner == x.tobytes()   # the terms of the iterate itself
                ref = minimize._free_hessian(model, mesh, BrokenField(ev.topo, ev.values(x)), ev.block)
                diff = h - ref if isinstance(h, np.ndarray) else (h - ref).toarray()
                assert np.max(np.abs(diff)) <= 1e-13 * np.max(np.abs(ref))
            rejected |= any(seen != x.tobytes() for (_, seen, _), x in zip(hessians, iterates))
        assert longest >= 2
        if mesh is strip:   # a secant trial was evaluated after a full step and rejected
            assert rejected


def _cold_newton(model, mesh, crack, t):
    """(free solution or None, steps, energy) of the Newton loop from the
    interpolant of psi(t) alone, on a fresh solver."""
    solver = ElasticSolver(model, mesh)
    with np.errstate(all="ignore"):
        _, x, steps, _, energy = solver._newton(solver._data(crack), t)
    return x, steps, energy


def test_newton_starts_from_the_solutions_at_the_load_breakpoints():
    # between the breakpoints 0 and 1 the loop starts from (1 - w) x_0 + w x_1,
    # each end solved once from its own interpolant; at a breakpoint the
    # solve is that end, and a later solve there costs no step
    mesh = make_strip_mesh()
    model, crack = make_model(mesh, p=4.0, lam=1e-2), CrackSet.of([4])
    solver = ElasticSolver(model, mesh)
    data = solver._data(crack)
    x1, n1, e1 = _cold_newton(model, mesh, crack, 1.0)
    u, rep = solver.solve(crack, 1.0)
    assert rep.iterations == n1 > 0 and rep.energy == e1
    assert np.array_equal(u.values[data.topology.free_dofs], x1)
    x0, n0, _ = _cold_newton(model, mesh, crack, 0.0)
    assert n0 == 0 and not x0.any()
    _, cold, _ = _cold_newton(model, mesh, crack, 0.6)
    assert solver.solve(crack, 0.6)[1].iterations < cold
    assert sorted(data.ends) == [0, 1]
    assert np.array_equal(data.ends[1], x1)
    again, rep = solver.solve(crack, 1.0)
    assert rep.iterations == 0 and np.array_equal(again.values, u.values)


def test_a_failed_newton_end_leaves_the_interpolant_start(monkeypatch):
    # an end whose solve fails is kept as unavailable: the solves of its
    # segment start from the interpolant of psi(t), as the loop alone does,
    # and its steps are counted once
    mesh = make_strip_mesh()
    model, crack = make_model(mesh, p=4.0, lam=1e-2), CrackSet.of([4])
    newton_end, calls = ElasticSolver._newton_end, []

    def failing_end(self, data, j):
        calls.append(j)
        return (None, 7) if j == 1 else newton_end(self, data, j)

    monkeypatch.setattr(ElasticSolver, "_newton_end", failing_end)
    solver = ElasticSolver(model, mesh)
    free = solver._data(crack).topology.free_dofs
    for t, ends in ((0.6, 7), (0.7, 0)):
        x, steps, energy = _cold_newton(model, mesh, crack, t)
        u, rep = solver.solve(crack, t)
        assert np.array_equal(u.values[free], x) and rep.energy == energy
        assert rep.iterations == steps + ends
    assert calls == [0, 1] and solver._data(crack).ends[1] is None


def test_a_failed_anchored_newton_solve_is_run_from_the_interpolant(monkeypatch):
    # a loop that fails from the interpolated start runs once more from the
    # interpolant of psi(t), and returns that loop's bits, with every step
    # of the call counted; a retry that fails too raises its SolveError
    mesh = make_strip_mesh()
    model, crack = make_model(mesh, p=4.0, lam=1e-2), CrackSet.of([4])
    newton, starts = ElasticSolver._newton, []

    def anchored_fails(self, data, t, x=None):
        starts.append(x is None)
        ev, out, steps, res, energy = newton(self, data, t, x)
        return ev, (out if x is None else None), steps, res, energy

    monkeypatch.setattr(ElasticSolver, "_newton", anchored_fails)
    u, rep = ElasticSolver(model, mesh).solve(crack, 0.6)
    monkeypatch.undo()
    x, steps, energy = _cold_newton(model, mesh, crack, 0.6)
    x1, n1, _ = _cold_newton(model, mesh, crack, 1.0)
    assert starts == [True, True, False, True]   # the ends at 0 and 1, the anchored loop, the retry
    assert np.array_equal(u.values[u.topology.free_dofs], x) and rep.energy == energy
    assert rep.iterations > steps + n1
    bad = make_model(mesh, q=1.5, lam=1e-2)   # the cracked-off piece relaxes onto the kink
    with pytest.raises(minimize.SolveError, match="within 200 steps"):
        ElasticSolver(bad, mesh).solve(crack, 0.3)


def test_a_subquadratic_solve_does_not_load_scipy_optimize():
    # the damped Newton loop is the only globalization: scipy.optimize,
    # which the trust-region start used to import, stays unloaded
    code = ("import sys\n"
            "from qsfrac.broken import CrackSet\n"
            "from qsfrac.corpus import build_config\n"
            "from qsfrac.minimize import minimize_elastic\n"
            "p = build_config('subquadratic', 5).build_problem()\n"
            "u, rep = minimize_elastic(p.model, p.mesh, CrackSet.empty(), 0.9)\n"
            "assert rep.method == 'newton' and rep.residual <= 1e-10\n"
            "print('scipy.optimize' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_fully_pinned_problem_scores_without_free_dofs():
    # no free DOF in the all-open space: the score is the interpolant's energy
    mesh = build_structured_mesh(1, 1, 1.0, 1.0, brittle="none")
    psi = TimeTable.build([(0.0, np.zeros(mesh.n_vertices)),
                           (1.0, mesh.vertices[:, 0])], mesh.n_vertices)
    solver = ElasticSolver(make_model(mesh, psi=psi, lam=0.1), mesh)
    assert solver.scores
    assert solver.score(CrackSet.empty(), 0.5) == solver.solve(CrackSet.empty(), 0.5)[1].energy


def test_score_on_a_fresh_solver_reads_scores_itself():
    # a score needs no prior read of ``scores``: on the lattice it equals the
    # score of a solver that read it first, and where the exponents are not
    # both 2 it names the precondition instead of failing on a missing space
    p = parse_config(config_text("lattice", 9)).build_problem()
    crack = CrackSet.of(crackable_edges(p.mesh)[:2])
    read = ElasticSolver(p.model, p.mesh)
    assert read.scores
    for c in (CrackSet.empty(), crack):
        assert ElasticSolver(p.model, p.mesh).score(c, 0.5) == read.score(c, 0.5)
    q = parse_config(config_text("quartic", 9)).build_problem()
    with pytest.raises(ValueError, match="p or q is not 2"):
        ElasticSolver(q.model, q.mesh).score(CrackSet.empty(), 0.5)


def test_score_depends_on_its_tolerance():
    # a score is solved to the tolerance its solver is built at: one no
    # solve reaches fails, and a default solver scores as it did before and
    # after it, to the bit
    p = parse_config(config_text("lattice", 9)).build_problem()
    crack = CrackSet.of(crackable_edges(p.mesh)[:1])
    e = ElasticSolver(p.model, p.mesh).score(crack, 0.5)
    strict = ElasticSolver(p.model, p.mesh, tol=1e-300)
    assert strict.scores and strict.tol == 1e-300
    with pytest.raises(minimize.SolveError, match="stalled"):
        strict.score(crack, 0.5)
    solver = ElasticSolver(p.model, p.mesh)
    assert solver.tol == minimize.TOL == 1e-10
    assert solver.score(crack, 0.5) == solver.score(crack, 0.5) == e


def test_every_default_tolerance_is_the_solver_default():
    # the default tolerance is declared once, as ``minimize.TOL``: the
    # solver's, the one-shot solve's, the search's, the run's and the
    # step's, and the config key's
    from qsfrac import evolution
    defaults = [inspect.signature(fn).parameters[name].default for fn, name in (
        (ElasticSolver, "tol"), (minimize.minimize_elastic, "tol"), (evolution._Search, "tol"),
        (evolution.run_evolution, "solver_tol"), (evolution.incremental_step, "tol"))]
    assert defaults == [minimize.TOL] * 5 and minimize.TOL == 1e-10
    assert parse_config(config_text("strip", 5)).build_problem().solver_tol == minimize.TOL


def test_energy_gaps_are_how_far_a_field_lies_above_the_minimum():
    # 1/2 g.K_ff^-1 g is the elastic energy a field holding its datum has
    # above the minimizer over its crack set (p = q = 2, direct factor);
    # other exponents and the CG path have no factor to solve with
    p = parse_config(config_text("lattice", 9)).build_problem()
    solver = ElasticSolver(p.model, p.mesh)
    crack, t = CrackSet.of(crackable_edges(p.mesh)[:3]), 0.7
    u, _ = solver.solve(crack, t)
    rng = np.random.default_rng(5)
    fields = []
    for _ in range(3):
        vals = u.values.copy()
        vals[u.topology.free_dofs] += 1e-3 * rng.normal(size=u.topology.n_free)
        fields.append(BrokenField(u.topology, vals))
    g = np.column_stack([KnotEvaluation(p.model, p.mesh, t, v, crack).pairing for v in fields])
    e_min, _ = elastic_energy(p.model, p.mesh, t, u)
    excess = [elastic_energy(p.model, p.mesh, t, v)[0] - e_min for v in fields]
    np.testing.assert_allclose(solver.energy_gaps(crack, g), excess, rtol=1e-6)
    for text in (config_text("quartic", 9), NOTCHED.format(nx=20, ny=10, knots=3, kind="greedy")):
        q = parse_config(text).build_problem()
        with pytest.raises(ValueError, match="direct factor"):
            ElasticSolver(q.model, q.mesh).energy_gaps(q.initial_crack, np.zeros((1, 1)))


@pytest.mark.parametrize("nx, brittle, scores", [
    (10, ("rect", (0.8, 0.0, 1.2, 1.0)), True),    # dense solves, 66 rows
    (8, "all", False),                             # dense solves, 184 rows
    (20, ("rect", (0.9, 0.0, 1.1, 1.0)), True),    # CG solves, 136 rows
    (20, "all", False),                            # CG solves, 1,180 rows
])
def test_open_space_scores_only_up_to_the_row_limit(nx, brittle, scores, monkeypatch):
    # strips loaded by their datum only: past the row limit of its solve
    # regime one score would cost more than a solve, so every candidate is
    # solved.  The open space builds one free block, for its stiffness, where
    # it scores; past the limit it builds none and factors nothing
    from qsfrac.evolution import _Search
    mesh = build_structured_mesh(nx, nx // 2, 2.0, 1.0, labeling={"dirichlet": ("left", "right")},
                                 brittle=brittle)
    built, factored = [], []
    free_block, spd_solver = minimize._FreeBlock, minimize._spd_solver
    monkeypatch.setattr(minimize, "_FreeBlock", lambda topo: built.append(topo) or free_block(topo))
    monkeypatch.setattr(minimize, "_spd_solver", lambda m: factored.append(m) or spd_solver(m))
    search = _Search(make_model(mesh), mesh)
    assert search.solver.scores is scores
    assert len(built) == (1 if scores else 0)
    assert len(factored) == (1 if scores else 0)
    solves = []
    solve = search.solver.solve
    search.solver.solve = lambda *a: solves.append(a[0]) or solve(*a)
    cracks = [CrackSet.of([e]) for e in search.crackable[:3]]
    search.energies(cracks, 0.5)
    assert solves == ([] if scores else cracks)
