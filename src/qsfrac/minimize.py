"""Inner convex solves: minimize the elastic energy at a fixed crack set.

Every direct solve of a symmetric positive definite system goes through
``_spd_solver``: dense Cholesky up to ``_DENSE_LIMIT`` unknowns, by LAPACK's
``dpotrf`` and ``dpotrs`` called directly, sparse LU above.  A failed
factorization, or a non-finite matrix or right-hand side of a dense solve,
raises ``SolveError``.  For the quadratic exponent pair (p = q = 2) each
crack set's cached solve structure carries one ``solve(rhs, atol)`` on its
free block: the direct solve up to ``_DENSE_LIMIT`` free DOFs, and beyond
that (only for these per-crack-set solves) a bare loop of
Jacobi-preconditioned conjugate gradients, ``_jacobi_cg``, which follows
scipy's ``cg`` recurrence step for step.  Its residual is minus the free
gradient the solve checks against its tolerance, so one pass stops at half
that tolerance; a refinement pass guards against drift between the
recursive and the true residual, and a non-finite right-hand side is a
``SolveError`` before any product with the matrix.  The loads are affine in t
between the load breakpoints (``EnergyModel.breakpoints``), and so is the
minimizer over a fixed crack set.  A CG solve at t therefore takes the load
segment [tau_a, tau_b] holding t (``energy.segment``), solves the crack set
from zero at both ends, keeps the two solutions on its cache entry and
returns (1 - w) x_a + w x_b; the residual check at t and its refinement pass
follow as above.  An end of weight 0 is not solved, and one whose right-hand
side is zero is 0.  A field thus never depends on the order of solves, and
re-solving a crack set at a later knot of the same segment costs no CG step.
Where the tables have several breakpoints between two knots, a knot can cost
two CG solves instead of one.  The elastic energy W - F - G of the solution is then the quadratic
form itself,

    E_el(u) = 1/2 u.(K u) - b.u + c_eps,   c_eps = 1/2 eps^2 sum_T |T| mu_T,

with K the stiffness-plus-confinement matrix and b the load vector; the
residual check already forms K u, so scoring a candidate crack set costs no
quadrature.  For any other exponents one damped Newton loop
(Levenberg-Marquardt, a trust-region method) runs on the free DOFs.  The
minimizer is no longer affine in t, but it moves little along a load
segment, so the loop starts from the same interpolation, a secant predictor
in the load parameter: (1 - w) x_a + w x_b, with x_a and x_b the crack set's
Newton solutions at the two ends, each solved from the interpolant of psi
there and kept on the cache entry.  At w = 0 or 1 the start is that end.  An
end that fails leaves the start at the interpolant of psi(t), and a loop
that fails from an interpolated start runs once more from that interpolant,
so every solve that succeeds from it still succeeds.  A knot between two
breakpoints costs two more solves where its ends are not kept yet.  Each step solves (H + delta m I) d = -g through ``_spd_solver``
and may try one secant step length after it; the damping delta and the
secant trial are ``ElasticSolver._newton``'s.  A non-finite gradient ends
the solve with a ``SolveError``.  Energy, gradient and Hessian come from one
``_Evaluator`` per loop, which fixes the loads at t; its per-triangle
constants, like the quadratic forms, are built once per ``ElasticSolver``.
One pass per trial point gives the energy, the gradient, its norm and the
point's per-triangle terms, from which the loop assembles the Hessian after
a step is accepted, at the point kept, so a rejected step reuses it.  The
reported energy is the evaluator's at the returned field, from the pass that
evaluated it: the midpoint quadrature of ``energy.elastic_energy``, summed
in another order.  ``solve`` and ``score`` each hold the one ``np.errstate``
of their work, so an overflow is a ``SolveError`` or a rejected Newton step,
never a numpy warning.

One map, the crack set's ``_FreeBlock``, says where a triangle corner lands
among the free DOFs.  Its ``matrix`` scatters per-triangle 3x3 matrices (the
solver's stiffness-plus-mass forms into K_ff, the Newton Hessians, the dual
certificate's Gram matrix), its ``vector`` per-corner values (the Newton
gradient, and K u as each form applied to its corner values), each by one
``np.bincount``; so is each vector on all DOFs (loads, and
``energy.assemble_pairing``), by ``broken._scatter_corner``.

Every crack set X of a quadratic problem is the all-open space (every
crackable edge cracked) with time-independent rows added: a tie per endpoint
of each crackable edge X leaves uncracked, or a pin to the datum on a
Dirichlet edge.  Its minimum is therefore the open-space identity

    E_el(X, t) = E_open(t) + 1/2 r_X(t).G_X^+ r_X(t),   G = R K_open^-1 R^T,

a constrained-QP Schur complement over the rows X keeps, with r(t) the
row residual of the open minimizer (``_OpenSpace``).  ``ElasticSolver.score``
evaluates it from one factorization of the open stiffness: no topology, no
assembly and no solve per crack set.  It applies (``ElasticSolver.scores``)
when the open stiffness is positive definite and no loaded piece of the open
body floats: such a piece drifts to load / lambda, and the identity would
then cancel two energies of that size in rounding.  It also needs few
enough rows (``_SCORE_ROWS_DENSE`` where the uncracked body solves densely,
``_SCORE_ROWS_CG`` above): the first score of a crack set factors the rows
it keeps, at a cost cubic in their number, while a solve grows with the
DOFs, so a wide brittle region is solved candidate by candidate as before.
G and the kept rows do not depend on t, so that factor serves every later
score of the crack set, at any time: a score then costs one triangular
solve.

The first variation of the elastic energy is the stress triple of
``energy.stress_triple`` paired with (grad v, v, v);
``energy.assemble_pairing`` is the one routine that scatters such a pairing
onto the DOFs.  It gives the reference gradient (``assemble_gradient``) the
Newton evaluator is tested against, and the free-DOF pairing of
``energy.KnotEvaluation``, whose norm is both the Euler residual of the
stability audit and the dual certificate's annihilation residual.

An ``ElasticSolver`` solves to the one free-gradient norm ``tol`` it is built
at (``TOL`` unless given), so its results depend on the crack set and t
alone.  It keeps four caches: an LRU of at most ``_CACHE_SIZE``
per-crack-set solve structures (DOF layout and free-block scatter, with the
linear solve for p = q = 2 and, on the CG and Newton paths, the solutions at
the two load breakpoints used last), a one-entry memo of the last successful
solve (crack set and time, with its field and report), so the state a
search has just chosen is not solved again, and, from the first ``scores``
or ``score``, the open space with a one-entry memo of E_open and r at the
time scored last, and its LRU of kept-row factors, at most ``_CACHE_SIZE``
crack sets and ``_FACTOR_BYTES`` bytes.  Each keys on the crack set, the time
or the breakpoint alone and holds a pure function of its key, so no cache
changes a bit of a result.  It keeps no loads: ``_system`` builds a crack
set's datum and load vector at t from psi(t), f(t) and g(t), which each
``TimeTable`` memoizes, so the candidates of one knot share one
interpolation per table.

A run with zero confinement and a crack that isolates a piece of the body
from the Dirichlet boundary has no bounded minimizer; this surfaces as a
``FloatingComponentError`` naming the component rather than a pseudo-inverse
solution, keeping the coercivity requirement of the model visible: raised
by ``ElasticSolver.solve`` alone, for every exponent pair, and for the open
space by ``_OpenSpace``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from ._util import LRU
from .broken import BrokenField, CrackSet, DofTopology, _components, _scatter_corner, build_topology
from .energy import (
    EnergyModel,
    KnotEvaluation,
    assemble_pairing,
    body_hessian_coeff,
    segment,
    stress_jacobian,
    stress_triple,
)
from .mesh import Mesh, crackable_edges

__all__ = [
    "SolveReport",
    "SolveError",
    "FloatingComponentError",
    "ElasticSolver",
    "TOL",
    "minimize_elastic",
    "euler_residual",
    "assemble_gradient",
]

TOL = 1e-10   # the free-gradient norm a solver reaches unless built at another
_DENSE_LIMIT = 200
_CACHE_SIZE = 8192   # crack sets whose solve structure ElasticSolver keeps
# bytes of the kept-row factors the open space keeps (``_OpenSpace.kept_factor``):
# a factor over the 320 rows ``_SCORE_ROWS_CG`` allows takes 0.8 MB, so the
# one-edge moves of a wide brittle band cannot fill memory; about 40 of the
# largest fit
_FACTOR_BYTES = 32 << 20
# most rows of the all-open space that ``ElasticSolver.score`` takes on.  The
# first score of a crack set factors the rows it keeps, at a cost growing with
# the cube of their number; a candidate solve is a cached dense Cholesky solve
# when the uncracked body has at most ``_DENSE_LIMIT`` free DOFs, a CG solve
# above.  Measured before scores kept their factors: on
# greedy runs of brittle bands (run + audit), scores beat dense solves up to
# about 100 rows and lose from about 170.  On 20 x 10 strips (5 knots, one-edge
# audit) they beat CG solves at 252 rows (1.5 s against 1.75 s) and lose at 368
# (4.2-4.6 s against 2.0-2.4 s) and at 484 (10 s against 2.6 s).
_SCORE_ROWS_DENSE = 96
_SCORE_ROWS_CG = 320
_NEWTON_CAP = 200
# The secant trial of a Newton step (``ElasticSolver._newton``) is
# skipped where its step length alpha is within _SECANT_SKIP of 1; alpha is
# capped at _SECANT_MAX.  Measured with every solve started from the
# interpolant of psi(t), on 630 strip solves (2 x 1 and 2 x 3,
# 1.1 <= p <= 20, q in {2, 3}) and the seed-0 Newton instances of the
# benchmark (2,094 steps without secant trials): 1/4 and 4 take 4,540 sweep
# steps (5,722 without) and 1,343 instance steps, the worst solve slowing
# from 32 to 48 steps.  A skip of 1/10 saves 64 more steps but costs 79 more
# evaluations and slows one solve from 43 to 95 steps; 1/2 leaves 1,599
# instance steps; a cap of 2 slows one solve from 83 to 159 steps, and no
# cap takes 4,596 sweep steps.  Started from the solutions at the load
# breakpoints, the instances take 868 steps and 1,265 evaluations with 1/4
# and 4 (their 36 end solves included); a skip of 1/10 takes 835 and 1,292,
# 1/2 918 and 1,243, a cap of 2 865 and 1,269, no cap 871 and 1,271.
_SECANT_SKIP = 0.25
_SECANT_MAX = 4.0


class SolveError(RuntimeError):
    """Solver failed to reach the requested residual."""


class FloatingComponentError(SolveError):
    """A connected piece of the broken body has no constraint and no confinement."""


@dataclass
class SolveReport:
    """How a solve went, a function of (crack set, t).  ``energy`` is the
    elastic energy W - F - G of the returned field: the quadratic form
    1/2 u.(K u) - b.u + c_eps for p = q = 2 (K u formed per triangle),
    otherwise the Newton evaluator's energy there (``_Evaluator.evaluate``),
    which agrees with the quadrature of ``energy.elastic_energy`` up to
    rounding.  Stored totals come from ``energy.total_energy`` either way.
    ``iterations`` counts the CG steps a CG solve spent in this call (at
    the load breakpoints it had not solved yet, and in a refinement pass),
    so 0 when both ends were cached; one per linear solve of a direct one;
    and on the Newton path every damped step of every loop the call ran (at
    the load breakpoints it had not solved yet, at t, and a retry from the
    interpolant), rejected ones included, with the secant trial of a step
    counted in that step, so 0 at a breakpoint whose end was cached."""

    iterations: int
    residual: float
    energy: float
    method: str
    n_free: int


# ---------------------------------------------------------------------------
# assembly helpers
# ---------------------------------------------------------------------------

def _local_forms(mesh: Mesh, stiff_coef, mass_coef) -> np.ndarray:
    """The per-triangle 3x3 corner forms stiff[T] * (Gt G) + mass[T]/9 * ones(3,3).

    With stiff = area * mu and mass = area * lam they sum to the Hessian of
    the quadratic elastic energy; other coefficients give e.g. the Gram
    operator of the dual-certificate projection."""
    m = mesh.n_triangles
    stiff = np.broadcast_to(np.asarray(stiff_coef, dtype=float), (m,))
    mass = np.broadcast_to(np.asarray(mass_coef, dtype=float), (m,))
    g = mesh.grad_op
    local = np.einsum("t,tki,tkj->tij", stiff, g, g)
    return local + (mass / 9.0)[:, None, None] * np.ones((3, 3))


class _FreeBlock:
    """Where the triangle corners of a topology land among its ``n`` free
    DOFs: ``slot`` holds, per raveled (triangle, corner), the free position
    of its DOF, or n where that DOF is constrained.  ``vector`` and
    ``matrix`` are each one ``np.bincount`` in raveled order."""

    __slots__ = ("n", "slot", "_entries")

    def __init__(self, topo: DofTopology):
        self.n = n = topo.n_free
        pos = np.full(topo.n_dofs, n)
        pos[topo.free_dofs] = np.arange(n)
        self.slot = pos[topo.corner_dof.ravel()]
        self._entries = None

    def vector(self, per_corner: np.ndarray) -> np.ndarray:
        """The free-DOF vector summing ``per_corner``, one value per corner."""
        return np.bincount(self.slot, per_corner.ravel(), self.n + 1)[:self.n]

    def matrix(self, local: np.ndarray, keep: bool = True):
        """Sum the per-triangle 3x3 corner matrices ``local`` onto the free block,
        dense up to ``_DENSE_LIMIT`` free DOFs, CSR above; ``keep`` keeps the
        entry positions for the next call (a quadratic block assembles once)."""
        n, entries = self.n, self._entries
        if entries is None:
            corner = self.slot.reshape(-1, 3)
            rows = np.repeat(corner, 3, axis=1).ravel()
            cols = np.tile(corner, (1, 3)).ravel()
            take = np.flatnonzero((rows < n) & (cols < n))
            entries = take, rows[take] * n + cols[take]
        self._entries = entries if keep else None
        take, flat = entries
        values = local.ravel()[take]
        if n <= _DENSE_LIMIT:
            return np.bincount(flat, values, n * n).reshape(n, n)
        return scipy.sparse.csr_matrix((values, divmod(flat, n)), shape=(n, n))


def _spd_solver(matrix):
    """Factor a symmetric positive definite matrix once and return
    ``solve(rhs)``: dense Cholesky up to ``_DENSE_LIMIT`` unknowns, sparse LU
    above (``matrix`` is then sparse; below it may be a dense array).  A
    failed factorization raises ``SolveError``.

    The dense branch calls LAPACK's ``dpotrf`` and ``dpotrs`` directly: the
    calls scipy's Cholesky wrappers make after their per-call checks.  A
    non-finite matrix or right-hand side is a ``SolveError`` too, and an
    empty right-hand side (any of a 0 x 0 matrix) gets an empty answer."""
    if matrix.shape[0] > _DENSE_LIMIT:
        try:
            return scipy.sparse.linalg.splu(matrix.tocsc()).solve
        except RuntimeError as exc:
            raise SolveError(f"SPD factorization failed: {exc}") from exc
    dense = matrix if isinstance(matrix, np.ndarray) else matrix.toarray()
    if not np.isfinite(dense).all():
        raise SolveError("SPD factorization failed: the matrix is not finite")
    if len(dense):
        factor, info = scipy.linalg.lapack.dpotrf(dense, lower=False, clean=False)
        if info > 0:
            raise SolveError(f"SPD factorization failed: {info}-th leading minor "
                             "of the array is not positive definite")

    def solve(rhs):
        if not np.isfinite(rhs).all():
            raise SolveError("SPD solve failed: the right-hand side is not finite")
        if rhs.size == 0:
            return np.empty_like(rhs, dtype=float)
        return scipy.linalg.lapack.dpotrs(factor, rhs, lower=False)[0]
    return solve


def _jacobi_cg(kff, inv_diag: np.ndarray, rhs: np.ndarray, atol: float):
    """Conjugate gradients on ``kff x = rhs`` from x = 0, preconditioned by
    ``inv_diag``, the inverse of the diagonal of ``kff``: scipy's ``cg``
    recurrence step for step, without its per-call and per-step dispatch.
    Stops once the norm of the recursive residual falls below ``atol`` (or
    is 0, as for a zero ``rhs``) or after 10 n steps, and returns
    (x, steps); a non-finite residual raises ``SolveError`` at once."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = rho_prev = None
    for step in range(10 * len(rhs)):
        norm = math.sqrt(r @ r)
        if norm < atol or norm == 0.0:
            return x, step
        if not math.isfinite(norm):
            raise SolveError("CG failed: the residual is not finite")
        z = inv_diag * r
        rho = r @ z
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = kff @ p
        alpha = rho / (p @ q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, 10 * len(rhs)


def assemble_gradient(model: EnergyModel, mesh: Mesh, t: float, u: BrokenField) -> np.ndarray:
    """Full DOF gradient of the elastic energy W - F - G at ``u``: the
    pairing of its stress triple."""
    return assemble_pairing(mesh, u.topology, *stress_triple(model, mesh, t, u))


def _free_hessian(model: EnergyModel, mesh: Mesh, u: BrokenField, block: _FreeBlock):
    """Hessian of the elastic energy at ``u`` on the free block ``block``."""
    d = stress_jacobian(model.bulk, np.arange(mesh.n_triangles), u.gradients())   # (m, 2, 2)
    g = mesh.grad_op
    local = mesh.tri_area[:, None, None] * np.einsum("tki,tkl,tlj->tij", g, d, g)
    c = mesh.tri_area * body_hessian_coeff(model.body, u.tri_means())
    return block.matrix(local + (c / 9.0)[:, None, None] * np.ones((3, 3)))


class _Evaluator:
    """Energy, free gradient and free Hessian of the elastic energy for one
    Newton loop: one topology, one time t with its datum psi, one free block.

    The body and surface loads are linear in u, so with b the load vector at
    t (``ElasticSolver._system``, with the datum) and z the midpoint means,

        E(u)      = sum_T |T| (mu/p s^(p/2) + lam/q |z|^q) - b.u,
        s         = |xi|^2 + eps^2,   xi = G u the gradient on T,
        grad E(u) = sum_T |T| (mu s^((p-2)/2) G^T xi + lam |z|^(q-2) z / 3) - b,
        hess E(u) = sum_T |T| (a G^T G + b' (G^T xi)(G^T xi)^T + c/9 ones(3, 3)),

    with a I + b' xi xi^T the stress Jacobian and c the body curvature.
    Construction fixes the embedding of the free values and b (|T| mu and
    G^T G are the solver's); the crack set's ``_FreeBlock`` scatters the
    gradient and the Hessian.
    ``evaluate(v)`` gives the energy, the gradient and its norm at the free
    values ``v`` from one pass, with s, z, the stress coefficient and G^T xi
    of that point as its ``terms``, and ``hessian(terms)`` assembles at the
    point they belong to; the evaluator keeps no point.  A wild trial point
    gives an infinite energy, and it raises no numpy warning under the
    ``np.errstate`` that ``ElasticSolver.solve`` holds around the loop.
    ``energy.elastic_energy``, ``assemble_gradient`` and ``_free_hessian``
    are the reference implementations it is tested against.
    """

    def __init__(self, solver: ElasticSolver, data: _CrackData, t: float):
        topo = data.topology
        self.model, self.topo, self.block = solver.model, topo, data.block
        self.free = topo.free_dofs
        self.base, self.b = solver._system(data, t)
        self.b_free = self.b[self.free]
        self.grad_op, self.area = solver.mesh.grad_op, solver.mesh.tri_area
        self.area_mu, self.gtg = solver._area_mu, solver._gtg

    def values(self, v: np.ndarray) -> np.ndarray:
        """The DOF values with free values ``v``."""
        vals = self.base.copy()
        vals[self.free] = v
        return vals

    def evaluate(self, v: np.ndarray) -> tuple[float, np.ndarray, float, tuple]:
        """(E, gradient g of E on the free DOFs, |g|, terms) at the free
        values ``v``; E is +inf where it is not finite."""
        p, body = self.model.p, self.model.body
        vals = self.values(v)
        cv = vals[self.topo.corner_dof]
        xi = np.einsum("tki,ti->tk", self.grad_op, cv)
        s = np.add.reduce(xi * xi, axis=1) + self.model.bulk.epsilon**2
        z = cv.sum(axis=1) / 3.0
        a = self.area_mu if p == 2.0 else self.area_mu * s ** ((p - 2.0) / 2.0)
        gx = np.einsum("tki,tk->ti", self.grad_op, xi)
        e = float(self.area_mu @ s ** (p / 2.0)) / p - float(self.b @ vals)
        local = a[:, None] * gx
        if body.lam:
            e += body.lam / body.q * float(self.area @ np.abs(z) ** body.q)
            dz = z if body.q == 2.0 else np.abs(z) ** (body.q - 1.0) * np.sign(z)
            local += (self.area * body.lam / 3.0 * dz)[:, None]
        grad = self.block.vector(local) - self.b_free
        res = math.sqrt(grad @ grad)   # the ddot of np.linalg.norm, which can overflow
        return (e if math.isfinite(e) else math.inf), grad, res, (s, z, a, gx)

    def hessian(self, terms: tuple):
        """The Hessian of E on the free block at the point ``evaluate`` gave
        ``terms`` for: dense up to ``_DENSE_LIMIT`` free DOFs, CSR above."""
        p = self.model.p
        s, z, a, gx = terms
        local = a[:, None, None] * self.gtg
        if p != 2.0:
            rank_one = np.where(s > 0.0, self.area_mu * (p - 2.0) * s ** ((p - 4.0) / 2.0), 0.0)
            local += rank_one[:, None, None] * gx[:, :, None] * gx[:, None, :]
        c = self.area * body_hessian_coeff(self.model.body, z)
        local += (c / 9.0)[:, None, None]
        return self.block.matrix(local)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

class _CrackData:
    """Per-crack-set immutable solve structure, cached inside ElasticSolver.

    Its DOF layout holds no datum, so every field solved on the crack set
    shares it, and so does its ``_FreeBlock``.  For p = q = 2 the block
    scatters the solver's per-triangle ``forms`` once into K_ff, for the one
    linear solve, ``solve(rhs, atol) -> (x, iterations)``, labelled by
    ``method``: the direct ``_spd_solver`` up to ``_cg_above`` free DOFs (one
    iteration, ``atol`` unused), ``_jacobi_cg`` above, run until its residual
    norm is below ``atol`` (its steps as the count).  On the CG and Newton
    paths ``ends`` maps a load breakpoint's index to the free solution
    there, None for a Newton end that failed, for at most the two ends used
    last (``ElasticSolver._end``); it is None on the direct path.
    Only for other exponents (no forms) does the block keep its matrix
    positions, for the Newton Hessians.  ``floating`` names a piece that
    nothing holds (zero confinement only): that entry factors nothing.
    """

    __slots__ = ("topology", "solve", "method", "floating", "block", "ends")
    _cg_above = _DENSE_LIMIT

    def __init__(self, model: EnergyModel, mesh: Mesh, crack: CrackSet, forms: np.ndarray | None):
        topo = self.topology = build_topology(mesh, crack)   # validated once here
        # only a run without confinement can float a piece of the body
        self.floating = _floating_message(topo) if model.body.lam == 0.0 else None
        self.solve = self.method = self.block = self.ends = None
        if forms is None:
            self.block, self.ends = _FreeBlock(topo), {}
        elif not self.floating:
            self._factor(model, mesh, forms)

    def _factor(self, model: EnergyModel, mesh: Mesh, forms: np.ndarray) -> None:
        """Scatter the stiffness onto the free block and set up its solve."""
        self.block = _FreeBlock(self.topology)
        kff = self.block.matrix(forms, keep=False)
        if kff.shape[0] <= self._cg_above:
            solve = _spd_solver(kff)
            self.solve, self.method = lambda rhs, atol: (solve(rhs), 1), "direct"
        else:
            diag = kff.diagonal()
            inv_diag = 1.0 / np.where(diag > 0, diag, 1.0)
            self.solve, self.method = lambda rhs, atol: _jacobi_cg(kff, inv_diag, rhs, atol), "cg"
            self.ends = {}


class _OpenSpace(_CrackData):
    """The all-open space of a quadratic problem, and the rows that carve
    every crack set out of it.

    Cracking every crackable edge gives the largest broken space.  A crack
    set X is that space with, for each crackable edge X leaves uncracked, a
    tie row per endpoint (the corner values on both sides agree) or, on a
    Dirichlet edge, a pin row (the corner value equals the datum).  A row
    that two edges ask for is kept once and owned by both; a row the layout
    already satisfies (both corners on one DOF, or on pinned DOFs) is
    dropped.  The rows do not depend on t.  With K the stiffness on the free
    DOFs, one direct factorization of K (``_spd_solver``, at every size)
    gives the Gram matrix G = R K^-1 R^T of the rows, and the
    constrained minimum over X is

        E_el(X, t) = E_open(t) + 1/2 r_X(t).G_X^+ r_X(t),

    with E_open(t) and u_open(t) the open minimum and minimizer, and
    r(t) = R u_open(t) - d(t) the row residual, restricted to the rows X
    keeps.  Ties around one vertex can be redundant, so G_X may be singular;
    ``kept_factor`` factors it by pivoted Cholesky, which stops at its
    numerical rank (consistent rows lose nothing).  G_X does not depend on t,
    so the factor is kept per crack set, in an LRU of at most
    ``_CACHE_SIZE`` crack sets whose factors hold at most ``_FACTOR_BYTES``
    bytes, and ``excess`` is one triangular solve with it.  Only G and these
    factors are kept: the score needs neither K^-1 R^T nor the open field.
    A piece of the open body with no constrained DOF is refused with
    ``FloatingComponentError`` where nothing confines it (its constructor,
    from ``floating``), and where it is loaded (before the factorization):
    it drifts to load / lambda, and the identity would cancel energies of
    that size in rounding.  Above the row limit nothing is factored, no G
    is formed (``gram`` is None) and the space does not score.
    """

    __slots__ = ("rows", "owner_edge", "owner_row", "gram", "_factors")
    _cg_above = math.inf   # a direct solve at every size, for many right-hand sides at once

    def __init__(self, model: EnergyModel, mesh: Mesh, forms: np.ndarray):
        self._factors = LRU(_CACHE_SIZE, _FACTOR_BYTES, _factor_bytes)   # edge ids -> kept_factor
        super().__init__(model, mesh, CrackSet.of(crackable_edges(mesh)), forms)
        if self.floating:
            raise FloatingComponentError(self.floating)

    def _factor(self, model: EnergyModel, mesh: Mesh, forms: np.ndarray) -> None:
        """Carve out the rows; within the row limit, factor the stiffness and
        form G."""
        topo = self.topology
        label, held = _pieces(topo)
        loose = ~held[label[topo.corner_dof[:, 0]]]       # per triangle
        surf = loose[mesh.edge_tris[mesh.surface_edges, 0]]   # per surface-force edge
        if np.any(model.body.table.samples[:, loose]) or np.any(model.surface.table.samples[:, surf]):
            raise FloatingComponentError("a loaded piece of the all-open body has no Dirichlet constraint")
        ids = np.asarray(topo.crack.edge_ids, dtype=int)
        cd = topo.corner_dof.ravel()
        corners = mesh.edge_corner[ids]                   # [edge, side, endpoint]
        tie = corners[:, 1] >= 0                          # else a Dirichlet edge: pin rows
        a, b = cd[corners[:, 0]], cd[corners[:, 1]]
        lo = np.where(tie, np.minimum(a, b), a)
        hi = np.where(tie, np.maximum(a, b), -1)
        pinned = topo.constrained
        live = (lo != hi) & ~(pinned[lo] & (~tie | pinned[hi]))
        self.rows, owner = np.unique(np.stack([lo[live], hi[live]], axis=1), axis=0,
                                     return_inverse=True)
        self.owner_edge = np.broadcast_to(ids[:, None], live.shape)[live]
        self.owner_row = owner.ravel()
        n = len(self.rows)
        self.gram = None
        # the free DOFs of the uncracked body say whether candidate solves are dense
        n_free = mesh.n_vertices - len(np.unique(topo.dof_vertex[topo.constrained_dofs]))
        if n > (_SCORE_ROWS_DENSE if n_free <= _DENSE_LIMIT else _SCORE_ROWS_CG):
            return
        super()._factor(model, mesh, forms)
        # R^T on the free DOFs: +1 at the first DOF of each row, -1 at the second of a tie
        ties = np.flatnonzero(self.rows[:, 1] >= 0)
        rt = np.zeros((topo.n_dofs, n))
        rt[self.rows[:, 0], np.arange(n)] = 1.0
        rt[self.rows[ties, 1], ties] = -1.0
        rt = rt[topo.free_dofs]
        gram = rt.T @ self.solve(rt, 0.0)[0]
        self.gram = 0.5 * (gram + gram.T)

    def residual(self, u: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """r = R u - d for the DOF values ``u`` and the nodal datum ``psi``."""
        lo, hi = self.rows[:, 0], self.rows[:, 1]
        other = np.where(hi >= 0, u[hi], psi[self.topology.dof_vertex[lo]])
        return u[lo] - other

    def kept_rows(self, crack: CrackSet) -> np.ndarray:
        """The rows ``crack`` keeps: those owned by an edge it leaves uncracked."""
        cracked = np.zeros(self.topology.mesh.n_edges, dtype=bool)
        cracked[list(crack.edge_ids)] = True
        return np.flatnonzero(np.bincount(self.owner_row, ~cracked[self.owner_edge], len(self.rows)))

    def kept_factor(self, crack: CrackSet) -> tuple[np.ndarray, np.ndarray] | None:
        """(U, rows) of the rows ``crack`` keeps, from the pivoted Cholesky
        factorization P^T G_X P = U^T U: U cut at its numerical rank, and the
        rows in pivot order, the first rank of them; None where ``crack``
        keeps no row."""
        return self._factors.get(crack.edge_ids, lambda: _pivoted_factor(self.gram, self.kept_rows(crack)))

    def excess(self, crack: CrackSet, r: np.ndarray) -> float:
        """1/2 r_X.G_X^+ r_X over the rows ``crack`` keeps: one triangular
        solve with its ``kept_factor``."""
        kept = self.kept_factor(crack)
        if kept is None:
            return 0.0
        c, rows = kept
        w, _ = scipy.linalg.lapack.dtrtrs(c, r[rows][:, None], trans=1)
        return 0.5 * float(w[:, 0] @ w[:, 0])


def _pivoted_factor(gram: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``_OpenSpace.kept_factor`` of ``rows``, by LAPACK's ``dpstrf``; U is a
    Fortran-ordered copy, so it holds no more than its rank x rank block."""
    if not len(rows):
        return None
    c, piv, rank, _ = scipy.linalg.lapack.dpstrf(gram[np.ix_(rows, rows)])
    return c[:rank, :rank].copy(order="F"), rows[piv[:rank] - 1]


def _factor_bytes(kept: tuple[np.ndarray, np.ndarray] | None) -> int:
    """The bytes a ``kept_factor`` holds."""
    return 0 if kept is None else kept[0].nbytes + kept[1].nbytes


def _pieces(topo: DofTopology) -> tuple[np.ndarray, np.ndarray]:
    """Connected pieces of the DOF graph (DOFs sharing a triangle): the piece
    of each DOF, and for each piece whether it holds a constrained DOF."""
    cd = topo.corner_dof
    links = np.concatenate([cd[:, [0, 1]], cd[:, [0, 2]]])
    label, first = _components(topo.n_dofs, links)
    pinned = np.zeros(len(first), dtype=bool)
    pinned[label[topo.constrained]] = True
    return label, pinned


def _floating_message(topo: DofTopology) -> str | None:
    """Describe the first piece of the DOF graph that holds no constrained
    DOF, or None when every piece does."""
    label, pinned = _pieces(topo)
    if pinned.all():
        return None
    comp = int(np.argmin(pinned))
    verts = sorted({int(v) for v in topo.dof_vertex[label == comp]})
    return ("component with no Dirichlet constraint and zero confinement "
            f"(vertices {verts}); the minimum is unbounded below or non-unique")


class ElasticSolver:
    """Minimizes the elastic energy over the broken space at fixed cracks.

    Solve structures (DOF layout and linear solve) are cached per crack
    set, so sweeping many candidate cracks over many times reuses the
    expensive parts; the fields of one crack set share its read-only layout.
    The cache is an LRU of ``_CACHE_SIZE``, and the last solve is memoized.
    Every solve path (direct, CG, Newton, and their breakpoint ends) takes
    its datum and load vector from ``_system``.  Where ``scores`` holds,
    ``score`` gives the energy of any crack set from the all-open space
    instead.
    """

    def __init__(self, model: EnergyModel, mesh: Mesh, tol: float = TOL):
        model.validate(mesh)
        self.model = model
        self.mesh = mesh
        self.tol = tol
        self.quadratic = model.p == 2.0 and model.q == 2.0
        self._cache = LRU(_CACHE_SIZE)   # edge ids -> _CrackData
        self._open: _OpenSpace | bool | None = None   # built when ``scores`` is first read
        self._open_at: tuple | None = None     # (t, E_open, r) of the last score
        self._last: tuple | None = None        # ((edge ids, t), (field, report)) of the last solve
        # per-triangle constants: |T| mu and G^T G (Newton), the forms (p = q = 2)
        self._area_mu = mesh.tri_area * model.bulk.mu_at(np.arange(mesh.n_triangles))
        self._gtg = np.einsum("tki,tkj->tij", mesh.grad_op, mesh.grad_op)
        self._forms = (_local_forms(mesh, self._area_mu, mesh.tri_area * model.body.lam)
                       if self.quadratic else None)
        # the constant of the quadratic energy identity: the bulk energy at zero gradient
        self._c_eps = 0.5 * model.bulk.epsilon**2 * float(np.sum(self._area_mu))
        self._breaks = model.breakpoints

    def _data(self, crack: CrackSet) -> _CrackData:
        return self._cache.get(crack.edge_ids, lambda: _CrackData(self.model, self.mesh, crack, self._forms))

    @property
    def scores(self) -> bool:
        """Whether ``score`` applies: p = q = 2, some confinement or no piece
        of the all-open body left without a Dirichlet constraint, and few
        enough rows that a score costs less than a solve."""
        if self._open is None:
            try:
                space = _OpenSpace(self.model, self.mesh, self._forms) if self.quadratic else None
            except FloatingComponentError:
                space = None
            self._open = False if space is None or space.gram is None else space
        return self._open is not False

    def score(self, crack: CrackSet, t: float) -> float:
        """Elastic energy of the minimizer over ``crack`` at time ``t`` from
        the all-open space (see ``_OpenSpace``): no topology, no assembly and
        no linear solve per crack set.  The open minimizer is solved to the
        solver's ``tol`` once per t, so a score depends on the crack set and
        t alone, as a solve does.  Where ``scores`` does not hold
        (p or q is not 2, or the all-open space is refused) it raises
        ``ValueError``."""
        if not self.scores:
            why = "the all-open space is refused" if self.quadratic else "p or q is not 2"
            raise ValueError(f"no open-space score: {why}")
        space = self._open
        memo = self._open_at
        with np.errstate(all="ignore"):   # an overflow is the SolveError below
            if memo is None or memo[0] != t:
                u, _, _, _, e_open = self._solve_quadratic(space, t)
                memo = self._open_at = (t, e_open, space.residual(u.values, self.model.boundary.value(t)))
            energy = memo[1] + space.excess(crack, memo[2])
        if not math.isfinite(energy):
            raise SolveError(f"non-finite energy score at t={t}")
        return energy

    def solve(self, crack: CrackSet, t: float):
        """(field, report) with the free gradient's norm at most ``tol``.

        The last successful solve is memoized: asking for it again returns
        the same (field, report), whose field values are read-only."""
        key = (crack.edge_ids, t)
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        data = self._data(crack)
        if data.floating:
            raise FloatingComponentError(data.floating)
        # the one guard of a solve: an overflow is a SolveError, a wild Newton
        # step is rejected and an overflowing Hessian fails to factor
        with np.errstate(all="ignore"):
            if self.quadratic:
                field, iters, res, method, energy = self._solve_quadratic(data, t)
            else:
                field, iters, res, method, energy = self._solve_newton(data, t)
        report = SolveReport(iterations=iters, residual=res, energy=energy, method=method,
                             n_free=data.topology.n_free)
        field.values.setflags(write=False)
        self._last = (key, (field, report))
        return field, report

    def _system(self, data: _CrackData, t: float):
        """(DOF values u holding the datum psi(t), 0 on the free DOFs, load
        vector b at ``t``) of ``data``: the body load a third of |T| f(t) at
        each corner, the surface load half of |e| g(t) at each endpoint."""
        mesh, model, topo = self.mesh, self.model, data.topology
        body = np.repeat(mesh.tri_area * model.body.table.value(t) / 3.0, 3)
        surf = mesh.edge_length[mesh.surface_edges] * model.surface.table.value(t) / 2.0
        return topo.dirichlet_values(model.boundary.value(t)), _scatter_corner(mesh, topo, body, surf)

    def _rhs(self, data: _CrackData, u: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The free right-hand side b_f - K_fc u_c of ``_system``'s (u, b)."""
        topo = data.topology
        return b[topo.free_dofs] - data.block.vector(np.einsum("tij,tj->ti", self._forms, u[topo.corner_dof]))

    def _end(self, data: _CrackData, j: int, solve_end):
        """(free solution at load breakpoint ``j``, steps this call spent):
        the one ``data.ends`` keeps, at no step, or else
        ``solve_end(data, j)``'s, which it keeps.  The entry keeps the two
        ends used last; a Newton end that failed is kept as None."""
        ends = data.ends
        if j in ends:
            x, steps = ends.pop(j), 0
        else:
            x, steps = solve_end(data, j)
        ends[j] = x
        if len(ends) > 2:
            del ends[next(iter(ends))]
        return x, steps

    def _interpolated(self, data: _CrackData, t: float, solve_end):
        """(free solution at ``t``, steps spent) from the ends of the load
        segment [tau_a, tau_b] holding ``t`` (``segment``): (1 - w) x_a +
        w x_b.  An end of weight 0 is not solved; the solution is None where
        an end it needs is."""
        i, w = segment(self._breaks, t)
        if w == 0.0 or w == 1.0:
            return self._end(data, i + int(w), solve_end)
        (xa, na), (xb, nb) = self._end(data, i, solve_end), self._end(data, i + 1, solve_end)
        if xa is None or xb is None:
            return None, na + nb
        return (1.0 - w) * xa + w * xb, na + nb

    def _cg_end(self, data: _CrackData, j: int):
        """``_end``'s CG solve from zero, to ``_solve_quadratic``'s target; a
        zero right-hand side costs no step (its solution is 0)."""
        rhs = self._rhs(data, *self._system(data, float(self._breaks[j])))
        return data.solve(rhs, 0.5 * self.tol) if rhs.any() else (np.zeros_like(rhs), 0)

    def _newton_end(self, data: _CrackData, j: int):
        """``_end``'s Newton solve from the interpolant of psi there; None
        where it fails."""
        _, x, steps, _, _ = self._newton(data, float(self._breaks[j]))
        return x, steps

    def _solve_quadratic(self, data: _CrackData, t: float):
        """The linear solve of ``data`` at ``t``: one block forms K u, the
        free gradient and its norm, and runs again after the one refinement
        pass that a residual above ``tol`` gets."""
        topo = data.topology
        free, corner_dof = topo.free_dofs, topo.corner_dof
        u, b = self._system(data, t)
        b_free = b[free]
        # the CG residual is minus the free gradient checked below, so CG
        # stops at a fixed fraction of ``tol`` (a direct solve ignores it)
        tol, target = self.tol, 0.5 * self.tol
        if data.method == "cg":
            u[free], iters = self._interpolated(data, t, self._cg_end)
        else:
            u[free], iters = data.solve(self._rhs(data, u, b), target)
        for refined in (False, True):
            cv = u[corner_dof]
            ku = np.einsum("tij,tj->ti", self._forms, cv)
            grad = data.block.vector(ku) - b_free
            res = float(np.linalg.norm(grad))
            if refined or not res > tol:   # a NaN residual is not refined either
                break
            # rounding, CG's drift between its recursive and true residuals,
            # or an interpolation off by rounding
            step, more = data.solve(-grad, target)
            u[free] += step
            iters += more
        energy = 0.5 * float(np.sum(cv * ku)) - float(b @ u) + self._c_eps
        if not (math.isfinite(res) and math.isfinite(energy)):
            raise SolveError(f"non-finite residual or energy at t={t}")
        if res > tol:
            raise SolveError(f"linear solve stalled at residual {res:.3e} > tol {tol:.3e}")
        return BrokenField(topo, u), iters, res, data.method, energy

    def _solve_newton(self, data: _CrackData, t: float):
        """Damped Newton (``_newton``) on the free DOFs, started as the
        module docstring says: from (1 - w) x_a + w x_b (``_interpolated``),
        the crack set's Newton solutions at the ends of the load segment
        holding t, each solved from the interpolant of psi there and kept on
        ``data.ends``; where t is a breakpoint, the loop returns that end at
        its first evaluation.  A failed end leaves the interpolant of psi(t)
        as the start, and a loop that fails from an interpolated start runs
        once more from it.  The iterations reported are every step of this
        call: the ends it solved, the loop and its retry."""
        start, steps = self._interpolated(data, t, self._newton_end)
        ev, x, more, res, energy = self._newton(data, t, start)
        if x is None and start is not None:   # once more from the interpolant of psi(t)
            steps += more
            ev, x, more, res, energy = self._newton(data, t)
        if x is None:
            raise SolveError(f"Newton did not reach tol {self.tol:.3e} within {_NEWTON_CAP} steps"
                             if more == _NEWTON_CAP else f"non-finite gradient at t={t}")
        return BrokenField(data.topology, ev.values(x)), steps + more, res, "newton", energy

    def _newton(self, data: _CrackData, t: float, x: np.ndarray | None = None):
        """Damped Newton (Levenberg-Marquardt) on the free DOFs at ``t`` from
        the free values ``x``, or the interpolant of psi(t) where None; run
        under the ``np.errstate`` of ``solve``.  Returns (evaluator, free
        solution, steps, residual, energy); the solution is None where the
        gradient turns non-finite or ``_NEWTON_CAP`` steps do not reach
        the solver's ``tol``.

        Each step solves (H + delta m I) d = -g, with m the mean of diag H,
        and the ratio rho of the actual to the predicted decrease of the
        energy steers delta, as a trust region steers its radius: a step
        that halves the gradient norm or has rho > 0.75 divides it by 10,
        and one with rho < 0.25 or a failed factorization raises it to
        max(10 delta, 1).  A step is taken when rho > 1e-4 or it halves the
        gradient norm (near the minimum the energy decrease falls below
        rounding while the step still contracts the gradient; a NaN norm
        does not).  delta starts at 0, so where full steps contract this is
        plain Newton.

        A taken step that lowered the energy also gives the secant step
        length alpha = phi'(0) / (phi'(0) - phi'(1)) of
        phi(alpha) = E(x + alpha d), from the slopes g.d and g_new.d at both
        ends.  Where alpha > 0 and |alpha - 1| > ``_SECANT_SKIP``, the point
        x + min(alpha, ``_SECANT_MAX``) d is evaluated once and replaces the
        full step only if both its energy and its gradient norm are lower
        (a cracked-off piece relaxing to zero gradient keeps 2/3 of its
        error per full step at p = 4, and overshoots by half at p = 1.5).
        delta follows the full step alone, the Hessian is assembled at the
        point kept, from the terms its evaluation gave, and the secant
        evaluation counts with its step.

        The energy reported is the one the evaluator gave at the point
        returned, so a loop evaluates no energy beyond its steps; one
        with no free DOF, or started at the solution, returns at its first
        evaluation.
        """
        ev = _Evaluator(self, data, t)
        if x is None:
            x = self.model.boundary.value(t)[data.topology.dof_vertex[ev.free]]
        energy, g, res, terms = ev.evaluate(x)
        h, delta, tol = None, 0.0, self.tol
        for it in range(_NEWTON_CAP):
            if res <= tol:   # at once where no DOF is free
                return ev, x, it, res, energy
            if not math.isfinite(res):   # no step can solve for a non-finite -g
                return ev, None, it, res, energy
            if h is None:   # x is the start or an accepted step, ``terms`` its own
                h = ev.hessian(terms)
            try:
                d = _spd_solver(_damped(h, delta))(-g)
            except SolveError:
                delta = max(10.0 * delta, 1.0)
                continue
            trial = x + d
            slope = float(g @ d)   # phi'(0) of phi(alpha) = E(x + alpha d)
            predicted = -slope - 0.5 * float(d @ (h @ d))
            e_new, g_new, res_new, terms_new = ev.evaluate(trial)
            rho = (energy - e_new) / predicted if predicted > 0.0 else -math.inf
            contracted = res_new <= 0.5 * res
            if contracted or rho > 0.75:
                delta /= 10.0
            elif rho < 0.25:
                delta = max(10.0 * delta, 1.0)
            if contracted or rho > 1e-4:
                # the secant step length from phi'(0) and phi'(1) = g_new.d
                drop = slope - float(g_new @ d)
                alpha = slope / drop if drop < 0.0 else 0.0
                if e_new < energy and alpha > 0.0 and abs(alpha - 1.0) > _SECANT_SKIP:
                    point = x + min(alpha, _SECANT_MAX) * d
                    e_sec, g_sec, res_sec, terms_sec = ev.evaluate(point)
                    if e_sec < e_new and res_sec < res_new:
                        trial, e_new, g_new, res_new, terms_new = point, e_sec, g_sec, res_sec, terms_sec
                x, energy, g, res, terms, h = trial, e_new, g_new, res_new, terms_new, None
        return ev, None, _NEWTON_CAP, res, energy


def _damped(h, delta: float):
    """h + delta m I, with m the mean of diag h (1 where that is 0).  A dense
    h is copied and its copy's diagonal shifted; ``h`` itself is unchanged."""
    if not delta:
        return h
    diag = h.diagonal()
    shift = delta * (float(np.add.reduce(diag)) / len(diag) or 1.0)
    if not isinstance(h, np.ndarray):
        return h + shift * scipy.sparse.identity(len(diag))
    out = h.copy()
    out.flat[::len(diag) + 1] += shift
    return out


def minimize_elastic(model: EnergyModel, mesh: Mesh, crack: CrackSet, t: float,
                     tol: float = TOL):
    """One-shot minimization of the elastic energy over the broken space.

    Returns (field, report); the report's residual is the Euclidean norm of
    the energy gradient on the free DOFs.  Long sweeps should construct an
    ``ElasticSolver`` once and reuse it.
    """
    return ElasticSolver(model, mesh, tol).solve(crack, t)


def euler_residual(model: EnergyModel, mesh: Mesh, crack: CrackSet, t: float,
                   u: BrokenField) -> float:
    """Stationarity defect of ``u``: norm of the energy gradient over the
    admissible variations (free DOFs) at fixed crack set.

    The variation space contains exactly the fields vanishing on the uncracked
    Dirichlet boundary with jumps inside the crack set, i.e. the free DOFs.
    A field that is not admissible raises a ValueError
    (``energy.KnotEvaluation.pairing``).
    """
    return KnotEvaluation(model, mesh, t, u, crack).residual
