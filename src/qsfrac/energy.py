"""Energy densities, load potentials and their growth certificates.

The concrete material family is the simplest one satisfying every structural
hypothesis of the model:

* bulk density      W(x, xi) = (mu(x)/p) (|xi|^2 + eps^2)^(p/2), convex and C1;
  eps > 0 is required when p < 2 so the stress stays C1 near xi = 0,
* toughness         kappa(x, nu): a norm in nu for every x, bounded between
  K1 |nu| and K2 |nu|,
* body potential    F(t, x, z) = f(t, x) z - (lam/q) |z|^q, with -F strictly
  convex whenever the confinement lam is positive,
* surface potential G(t, x, z) = g(t, x) z on the surface-force boundary.

The loads and the boundary datum psi are ``TimeTable``s, piecewise linear in
time, which makes the time-regularity hypotheses exact: rates are piecewise
constant, and at a grid knot the rate takes the left-interval value.  This
module owns the time axis: the knot check (``check_knots``), the segment
rule (``segment``) and the load breakpoints (``EnergyModel.breakpoints``).

Quadrature is one-point (midpoint) per triangle and per boundary edge; with
linear elements this is exact for every integrand that is linear on the
element, and it *defines* the discrete functionals elsewhere.

All operations are pure: their inputs are immutable, and the arrays a
``TimeTable`` memoizes (its last value and its last rate) are read-only, so
a memoized answer is bit for bit what a fresh table computes.  A field at a
time is evaluated by a ``KnotEvaluation``: it reads the field's corner
values once and derives from them, on first use, the gradients, midpoint
means and surface trace, the energy parts, the stress triple, its pairing
with the admissible variations and the power terms.  ``elastic_energy``,
``stress_triple`` and ``total_energy`` each read one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .broken import BrokenField, CrackSet, DofTopology, _scatter_corner, corner_gradients, corner_trace
from .mesh import Mesh

__all__ = [
    "TimeTable",
    "check_knots",
    "segment",
    "BulkLaw",
    "Toughness",
    "BodyPotential",
    "SurfacePotential",
    "EnergyModel",
    "bulk_energy_density",
    "stress",
    "stress_jacobian",
    "bulk_conjugate_density",
    "surface_energy",
    "edge_surface_energies",
    "body_value_and_gradient",
    "body_rate",
    "body_conjugate_density",
    "surface_value_and_gradient",
    "surface_rate",
    "KnotEvaluation",
    "elastic_energy",
    "stress_triple",
    "total_energy",
    "assemble_pairing",
    "validate_growth",
    "GrowthCheck",
    "GrowthReport",
    "lq_norm_tri",
    "lr_norm_surface",
]

_TOUGHNESS_KINDS = ("isotropic", "weighted_l1", "elliptic")


# ---------------------------------------------------------------------------
# piecewise-linear-in-time tables
# ---------------------------------------------------------------------------

def check_knots(times) -> np.ndarray:
    """``times`` as a float array, checked to start at 0 and to increase
    strictly: the knots of every ``TimeTable`` and of an evolution's grid."""
    times = np.asarray(times, dtype=float)
    if not len(times) or times[0] != 0.0:
        raise ValueError("time knots must start at t = 0")
    if np.any(np.diff(times) <= 0):
        raise ValueError("time knots must be strictly increasing")
    return times


def segment(times: np.ndarray, t: float) -> tuple[int, float]:
    """(i, w): ``t`` = (1 - w) times[i] + w times[i+1], with t in the interval
    ending at it when it is a knot (left-interval rule), except at the first
    knot, which only the first interval holds."""
    if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
        raise ValueError(f"time {t} outside table range [{times[0]}, {times[-1]}]")
    i = min(max(int(np.searchsorted(times, t, side="left")) - 1, 0), len(times) - 2)
    return i, (t - times[i]) / (times[i + 1] - times[i])


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeTable:
    """Piecewise-linear interpolation of spatial arrays over time knots.

    Rates are piecewise constant; at a knot the rate is taken from the
    interval ending there (``segment``).  ``value`` and ``rate`` return
    read-only arrays, and each keeps its last time and array (a one-entry
    memo), so the queries of all callers at one time share one
    interpolation.  The memo is neither compared nor shown in the repr, and
    a copy of the table (``dataclasses.replace``) starts without it.  Two
    tables are equal when their times and samples are (``np.array_equal``);
    a table is not hashable.
    """

    times: np.ndarray    # (k,)
    samples: np.ndarray  # (k, n)
    _value_at: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _rate_at: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, pairs: Sequence[tuple[float, object]], size: int) -> "TimeTable":
        """From [(t, value)] pairs, at least two; each value is a scalar or an
        (size,) array.  The rate over every interval must be finite."""
        if len(pairs) < 2:
            raise ValueError("a time table needs at least two (t, value) pairs")
        times = check_knots([float(t) for t, _ in pairs])
        rows = []
        for _, v in pairs:
            arr = np.asarray(v, dtype=float)
            rows.append(np.full(size, float(arr)) if arr.ndim == 0 else arr)
            if rows[-1].shape != (size,):
                raise ValueError(f"table value has shape {rows[-1].shape}, expected ({size},)")
        samples = np.vstack(rows)
        with np.errstate(all="ignore"):   # an overflowing rate is the ValueError below
            rates = np.diff(samples, axis=0) / np.diff(times)[:, None]
        bad = np.flatnonzero(~np.isfinite(rates).all(axis=1))
        if len(bad):
            i = int(bad[0])
            raise ValueError(f"the rate over [{float(times[i])!r}, {float(times[i + 1])!r}] is not finite")
        return cls(times, samples)

    @classmethod
    def constant(cls, value, size: int, horizon: float = 1.0) -> "TimeTable":
        return cls.build([(0.0, value), (float(horizon), value)], size)

    def value(self, t: float) -> np.ndarray:
        memo = self._value_at
        if memo is None or memo[0] != t:
            i, w = segment(self.times, t)
            memo = (t, _read_only((1.0 - w) * self.samples[i] + w * self.samples[i + 1]))
            object.__setattr__(self, "_value_at", memo)
        return memo[1]

    def rate(self, t: float) -> np.ndarray:
        memo = self._rate_at
        if memo is None or memo[0] != t:
            i, _ = segment(self.times, t)
            rate = (self.samples[i + 1] - self.samples[i]) / (self.times[i + 1] - self.times[i])
            memo = (t, _read_only(rate))
            object.__setattr__(self, "_rate_at", memo)
        return memo[1]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.times, other.times) and np.array_equal(self.samples, other.samples)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


# ---------------------------------------------------------------------------
# bulk law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BulkLaw:
    """Power-law bulk density W(x, xi) = (mu(x)/p) (|xi|^2 + eps^2)^(p/2).

    Two laws are equal when p, epsilon and mu are, a per-triangle mu by
    value (``np.array_equal``)."""

    p: float
    mu: object = 1.0         # scalar or per-triangle array
    epsilon: float = 0.0

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError("bulk exponent p must exceed 1")
        mu = np.asarray(self.mu, dtype=float)
        if np.any(mu <= 0):
            raise ValueError("stiffness mu must be positive")
        if self.p < 2 and self.epsilon <= 0:
            raise ValueError("p < 2 requires a positive regularization epsilon")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.epsilon) == (other.p, other.epsilon) and np.array_equal(self.mu, other.mu)

    def mu_at(self, tri) -> np.ndarray:
        mu = np.asarray(self.mu, dtype=float)
        return mu if mu.ndim == 0 else mu[tri]

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)


def bulk_energy_density(law: BulkLaw, tri, xi) -> np.ndarray:
    """W(x, xi) for triangle index/array ``tri`` and gradients ``xi`` (..., 2)."""
    xi = np.asarray(xi, dtype=float)
    s = np.sum(xi * xi, axis=-1) + law.epsilon**2
    return law.mu_at(tri) / law.p * s ** (law.p / 2.0)


def stress(law: BulkLaw, tri, xi) -> np.ndarray:
    """d W / d xi = mu (|xi|^2 + eps^2)^((p-2)/2) xi."""
    xi = np.asarray(xi, dtype=float)
    s = np.sum(xi * xi, axis=-1) + law.epsilon**2
    if law.p < 2 and law.epsilon == 0:
        raise ValueError("stress is singular at xi = 0 for p < 2 without regularization")
    factor = law.mu_at(tri) * s ** ((law.p - 2.0) / 2.0)
    return np.asarray(factor)[..., None] * xi


def stress_jacobian(law: BulkLaw, tri, xi) -> np.ndarray:
    """Second derivative of W in xi: (..., 2, 2), positive semidefinite."""
    xi = np.asarray(xi, dtype=float)
    s = np.sum(xi * xi, axis=-1) + law.epsilon**2
    mu = np.broadcast_to(np.asarray(law.mu_at(tri), dtype=float), s.shape)
    a = mu * s ** ((law.p - 2.0) / 2.0)
    if law.p == 2.0:
        b = np.zeros_like(a)
    else:
        # the rank-one coefficient blows up at s = 0 for p < 4, but its
        # product with xi xi^T vanishes there; s > 0 is guaranteed for p < 2
        with np.errstate(divide="ignore"):
            b = mu * (law.p - 2.0) * s ** ((law.p - 4.0) / 2.0)
        b = np.where(s > 0.0, b, 0.0)
    eye = np.eye(2)
    return a[..., None, None] * eye + b[..., None, None] * (xi[..., :, None] * xi[..., None, :])


def bulk_conjugate_density(law: BulkLaw, tri, sigma) -> np.ndarray:
    """Pointwise convex conjugate W*(x, sigma).

    Closed form for eps = 0; for eps > 0 the radial profile is strictly
    monotone and the maximizer is found by a vectorized bisection of at most
    200 steps.  Every 8 steps it tests whether each midpoint has rounded onto
    an end of its bracket, and stops if so: no later step could change the
    result, which has the bits of all 200 steps.  A zero stress starts
    settled, with the bracket [0, 0]: its 200 steps would leave r^2 below
    the rounding of eps^2, and |sigma| r is 0 either way.
    """
    sigma = np.asarray(sigma, dtype=float)
    smag = np.sqrt(np.sum(sigma * sigma, axis=-1))
    mu = np.broadcast_to(np.asarray(law.mu_at(tri), dtype=float), smag.shape)
    pc = law.p_conj
    if law.epsilon == 0.0:
        return mu ** (-pc / law.p) / pc * smag**pc

    # solve mu r (r^2 + eps^2)^((p-2)/2) = |sigma| for the radial maximizer
    lo = np.zeros_like(smag)
    hi = np.maximum((smag / mu) ** (1.0 / (law.p - 1.0)), law.epsilon) + law.epsilon
    def h(r):
        return mu * r * (r * r + law.epsilon**2) ** ((law.p - 2.0) / 2.0)
    grow = h(hi) < smag
    while np.any(grow):
        hi = np.where(grow, 2.0 * hi, hi)
        grow = h(hi) < smag
    hi = np.where(smag == 0.0, 0.0, hi)
    for step in range(200):
        mid = 0.5 * (lo + hi)
        # once every mid rounds onto an end of its bracket, no later step
        # moves (lo, hi) where |sigma| > 0 (h(lo) < |sigma| <= h(hi)), and
        # none changes 0.5 (lo + hi) anywhere; tested every 8 steps
        if step % 8 == 7 and np.all((mid == lo) | (mid == hi)):
            break
        below = h(mid) < smag
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    r = 0.5 * (lo + hi)
    w = mu / law.p * (r * r + law.epsilon**2) ** (law.p / 2.0)
    return smag * r - w


# ---------------------------------------------------------------------------
# toughness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Toughness:
    """Crack energy per unit length, possibly anisotropic in the normal.

    kind:
      * ``isotropic``    kappa = w(x) |nu|
      * ``weighted_l1``  kappa = wx(x) |nu_1| + wy(x) |nu_2|
      * ``elliptic``     kappa = sqrt(wx(x) nu_1^2 + wy(x) nu_2^2)

    Weights are positive scalars or callables of (x, y).
    """

    kind: str = "isotropic"
    weights: tuple = (1.0,)

    def __post_init__(self):
        if self.kind not in _TOUGHNESS_KINDS:
            raise ValueError(f"unknown toughness kind {self.kind!r}")
        need = 1 if self.kind == "isotropic" else 2
        if len(self.weights) != need:
            raise ValueError(f"toughness kind {self.kind!r} needs {need} weight(s)")
        for w in self.weights:
            if not callable(w) and float(w) <= 0:
                raise ValueError("toughness weights must be positive")

    def _weight_values(self, points: np.ndarray) -> list[np.ndarray]:
        x, y = points[..., 0], points[..., 1]
        out = []
        for w in self.weights:
            vals = np.asarray(w(x, y), dtype=float) if callable(w) else np.full(x.shape, float(w))
            if np.any(vals <= 0):
                raise ValueError("toughness weight is nonpositive at a sample point")
            out.append(vals)
        return out

    def kappa(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """Evaluate kappa(x, nu) at points (..., 2) with normals (..., 2)."""
        points = np.asarray(points, dtype=float)
        normals = np.asarray(normals, dtype=float)
        ws = self._weight_values(points)
        n1, n2 = normals[..., 0], normals[..., 1]
        if self.kind == "isotropic":
            return ws[0] * np.hypot(n1, n2)
        if self.kind == "weighted_l1":
            return ws[0] * np.abs(n1) + ws[1] * np.abs(n2)
        return np.sqrt(ws[0] * n1 * n1 + ws[1] * n2 * n2)

    def norm_bounds(self, points: np.ndarray) -> tuple[float, float]:
        """Constants K1 <= kappa(x, nu)/|nu| <= K2 over the given points."""
        ws = self._weight_values(np.asarray(points, dtype=float))
        if self.kind == "isotropic":
            return float(np.min(ws[0])), float(np.max(ws[0]))
        if self.kind == "weighted_l1":
            lo = float(np.min(np.minimum(ws[0], ws[1])))
            hi = float(np.max(np.sqrt(ws[0] ** 2 + ws[1] ** 2)))
            return lo, hi
        lo = float(np.sqrt(np.min(np.minimum(ws[0], ws[1]))))
        hi = float(np.sqrt(np.max(np.maximum(ws[0], ws[1]))))
        return lo, hi


def surface_energy(tough: Toughness, mesh: Mesh, crack: CrackSet) -> float:
    """Total crack energy: sum of kappa(midpoint, normal) * length over the set.

    Additive over disjoint sets and strictly increasing under inclusion, since
    kappa is a norm and every edge has positive length.  The value does not
    depend on the normal orientation because kappa is even in its second
    argument.
    """
    extra = mesh.non_crackable(crack.edge_ids)
    if extra:
        raise ValueError(f"crack contains non-crackable edges {extra}")
    if len(crack) == 0:
        return 0.0
    return float(np.sum(edge_surface_energies(tough, mesh, crack.edge_ids)))


def edge_surface_energies(tough: Toughness, mesh: Mesh, edge_ids) -> np.ndarray:
    """kappa(midpoint, normal) * length of each given edge: the terms of
    ``surface_energy``."""
    ids = np.asarray(list(edge_ids), dtype=int)
    if len(ids) == 0:
        return np.zeros(0)
    return tough.kappa(mesh.edge_midpoint[ids], mesh.edge_normal[ids]) * mesh.edge_length[ids]


# ---------------------------------------------------------------------------
# body and surface potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BodyPotential:
    """F(t, x, z) = f(t, x) z - (lam/q) |z|^q with per-triangle load f.

    Exponents q < 2 keep the potential C1 but not C2 at z = 0; inner solves
    then converge only when the minimizer stays away from that kink (with a
    pinned piece relaxing exactly to zero they fail with a solver error).
    """

    table: TimeTable     # per-triangle load samples
    lam: float = 1e-3
    q: float = 2.0

    def __post_init__(self):
        if self.q <= 1:
            raise ValueError("body exponent q must exceed 1")
        if self.lam < 0:
            raise ValueError("confinement lam must be nonnegative")

    @property
    def q_conj(self) -> float:
        return self.q / (self.q - 1.0)


def _confinement_slope(lam: float, q: float, z: np.ndarray) -> np.ndarray:
    """lam |z|^(q-2) z, the z-derivative of (lam/q) |z|^q; 0 at z = 0, even where q < 2."""
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = lam * np.abs(z) ** (q - 2.0) * z
    return slope if q >= 2.0 else np.where(z == 0.0, 0.0, slope)


def _body_value(pot: BodyPotential, f: np.ndarray, area: np.ndarray, z: np.ndarray) -> float:
    """F(t)(u) from the load ``f`` = f(t) and the midpoint means ``z``."""
    return float(np.sum(area * (f * z - pot.lam / pot.q * np.abs(z) ** pot.q)))


def _body_density(pot: BodyPotential, f: np.ndarray, z: np.ndarray) -> np.ndarray:
    """dF/dz per triangle (a new array) from f(t) and the midpoint means."""
    return f - _confinement_slope(pot.lam, pot.q, z) if pot.lam else f.copy()


def _body_rate(pot: BodyPotential, t: float, area: np.ndarray, z: np.ndarray) -> float:
    """Integral of fdot(t) u from the midpoint means ``z``."""
    return float((area * pot.table.rate(t) * z).sum())


def body_value_and_gradient(pot: BodyPotential, t: float, u: BrokenField):
    """Returns (F(t)(u), dF/dz as a per-triangle density).

    The value integrates F at triangle midpoints; the density is the exact
    derivative of that discrete value with respect to the midpoint values.
    """
    z, f = u.tri_means(), pot.table.value(t)
    return _body_value(pot, f, u.topology.mesh.tri_area, z), _body_density(pot, f, z)


def body_rate(pot: BodyPotential, t: float, u: BrokenField) -> float:
    """Time derivative of the body potential at fixed field: integral of fdot u."""
    return _body_rate(pot, t, u.topology.mesh.tri_area, u.tri_means())


def body_conjugate_density(pot: BodyPotential, t: float, sigma) -> np.ndarray:
    """Pointwise conjugate of z -> (lam/q)|z|^q - f z evaluated at sigma.

    For lam = 0 the conjugate is the indicator of {sigma = -f}; infinite
    entries are returned where the constraint fails.
    """
    sigma = np.asarray(sigma, dtype=float)
    f = pot.table.value(t)
    shifted = sigma + f
    if pot.lam == 0.0:
        tol = 1e-12 * (1.0 + np.abs(f))
        return np.where(np.abs(shifted) <= tol, 0.0, np.inf)
    qc = pot.q_conj
    return pot.lam ** (-qc / pot.q) / qc * np.abs(shifted) ** qc


def body_hessian_coeff(pot: BodyPotential, z: np.ndarray) -> np.ndarray:
    """Per-triangle curvature of -F in z: lam (q-1) |z|^(q-2)."""
    if pot.lam == 0.0:
        return np.zeros_like(z)
    if pot.q == 2.0:
        return np.full_like(z, pot.lam)
    zz = np.abs(z)
    if pot.q < 2.0:
        zz = np.maximum(zz, 1e-12 * (1.0 + np.max(zz)))  # keep the Newton Hessian finite
    return pot.lam * (pot.q - 1.0) * zz ** (pot.q - 2.0)


@dataclass(frozen=True)
class SurfacePotential:
    """G(t, x, z) = g(t, x) z on the surface-force boundary edges."""

    table: TimeTable     # per surface-edge load samples, ordered like mesh.surface_edges
    r: float = 2.0

    def __post_init__(self):
        if self.r <= 1:
            raise ValueError("surface exponent r must exceed 1")

    @property
    def r_conj(self) -> float:
        return self.r / (self.r - 1.0)


def surface_value_and_gradient(pot: SurfacePotential, t: float, trace: np.ndarray, mesh: Mesh):
    """Returns (G(t)(u), dG/dz per surface edge) for midpoint trace values."""
    ids = mesh.surface_edges
    trace = np.asarray(trace, dtype=float)
    if trace.shape != (len(ids),):
        raise ValueError("trace length does not match the surface-force edge count")
    g = pot.table.value(t)
    return _surface_value(g, mesh.edge_length[ids], trace), g.copy()


def _surface_value(g: np.ndarray, lengths: np.ndarray, trace: np.ndarray) -> float:
    """G(t)(u) from the load ``g`` = g(t), the edge lengths and the trace."""
    return float(np.sum(lengths * g * trace))


def surface_rate(pot: SurfacePotential, t: float, trace: np.ndarray, mesh: Mesh) -> float:
    ids = mesh.surface_edges
    return float((mesh.edge_length[ids] * pot.table.rate(t) * np.asarray(trace)).sum())


# ---------------------------------------------------------------------------
# the assembled model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyModel:
    """Bundle of bulk law, toughness, load potentials and boundary datum.

    The boundary datum psi(t) is a table of nodal arrays: piecewise linear in
    space (the usual hat-function interpolant) and in time, hence Lipschitz
    with a rate on every interval.
    """

    bulk: BulkLaw
    toughness: Toughness
    body: BodyPotential
    surface: SurfacePotential
    boundary: TimeTable   # per-vertex samples of psi

    @property
    def p(self) -> float:
        return self.bulk.p

    @property
    def q(self) -> float:
        return self.body.q

    @property
    def r(self) -> float:
        return self.surface.r

    @property
    def breakpoints(self) -> np.ndarray:
        """The load breakpoints: the sorted union of the knots of psi and of
        the body and surface loads.  Every load is affine in t between two
        of them."""
        return np.unique(np.concatenate(
            [self.boundary.times, self.body.table.times, self.surface.table.times]))

    def validate(self, mesh: Mesh) -> list[str]:
        """Shape checks against the mesh; returns non-conformance warnings.

        A zero confinement does not block a run (a fully pinned problem is
        still solvable) but the model then misses the coercivity constant the
        theory requires, so the run is flagged.
        """
        mu = np.asarray(self.bulk.mu, dtype=float)
        if mu.ndim == 1 and mu.shape != (mesh.n_triangles,):
            raise ValueError("per-triangle mu has the wrong length")
        if self.body.table.samples.shape[1] != mesh.n_triangles:
            raise ValueError("body load table does not match the triangle count")
        if self.surface.table.samples.shape[1] != len(mesh.surface_edges):
            raise ValueError("surface load table does not match the surface edge count")
        if self.boundary.samples.shape[1] != mesh.n_vertices:
            raise ValueError("boundary datum does not match the vertex count")
        horizons = {self.body.table.horizon, self.surface.table.horizon, self.boundary.horizon}
        if len(horizons) > 1:
            raise ValueError(f"load tables cover different time horizons: {sorted(horizons)}")
        warnings = []
        if self.body.lam == 0.0:
            warnings.append(
                "non-conforming: confinement lam = 0, the coercivity constant "
                "of the body potential vanishes"
            )
        return warnings


class KnotEvaluation:
    """The field ``u`` on crack set ``crack`` at time t, evaluated from one
    gather of its corner values.  Each quantity below is computed on first
    use from that gather and kept while the object lives; it keeps nothing
    else, so a caller builds one per (field, time) and drops it with its
    call.  A record's row reads ``energies``, the audits read ``energies``,
    ``powers`` (the balance), ``residual`` and, for the dual certificate,
    ``triple``, ``pairing`` and ``elastic``.  Its sums are ``ndarray.sum``
    and its means sums divided by the count: the bits of ``np.sum`` and
    ``mean`` at less Python-level cost per call, which on the small meshes
    of the corpus is most of the cost.
    """

    def __init__(self, model: EnergyModel, mesh: Mesh, t: float, u: BrokenField, crack: CrackSet):
        self.model, self.mesh, self.t, self.u, self.crack = model, mesh, t, u, crack
        self.cv = u.corner_values()

    @cached_property
    def grads(self) -> np.ndarray:
        return corner_gradients(self.mesh, self.cv)

    @cached_property
    def means(self) -> np.ndarray:
        return self.cv.sum(axis=1) / 3

    @cached_property
    def trace(self) -> np.ndarray:
        return corner_trace(self.mesh, self.cv)

    @cached_property
    def elastic(self) -> tuple[float, dict]:
        """(W - F - G, {"W", "F", "G"}): ``elastic_energy``."""
        model, mesh, t = self.model, self.mesh, self.t
        w_val = float((mesh.tri_area * bulk_energy_density(model.bulk, np.arange(mesh.n_triangles), self.grads)).sum())
        f_val = _body_value(model.body, model.body.table.value(t), mesh.tri_area, self.means)
        g_val = _surface_value(model.surface.table.value(t), mesh.edge_length[mesh.surface_edges], self.trace)
        return w_val - f_val - g_val, {"W": w_val, "F": f_val, "G": g_val}

    @cached_property
    def energies(self) -> dict:
        """W, F, G, Es and total: the parts of ``total_energy``."""
        el, parts = self.elastic
        es = surface_energy(self.model.toughness, self.mesh, self.crack)
        return dict(parts, Es=es, total=el + es)

    @cached_property
    def triple(self) -> tuple:
        """``stress_triple``; G is linear, so its part needs no trace."""
        model, t = self.model, self.t
        sig = stress(model.bulk, np.arange(self.mesh.n_triangles), self.grads)
        return sig, -_body_density(model.body, model.body.table.value(t), self.means), -model.surface.table.value(t)

    @cached_property
    def pairing(self) -> np.ndarray:
        """The stress triple paired with the admissible variations, the free
        DOFs: the free gradient of the elastic energy.  A field that is not
        admissible at t, built on another crack set or with a pinned DOF off
        the boundary datum by more than 1e-8 (1 + max |psi(t)|), raises a
        ValueError instead."""
        topo = self.u.topology
        if topo.crack != self.crack:
            raise ValueError("field was built on a different crack set")
        psi = self.model.boundary.value(self.t)
        cons = topo.constrained_dofs
        off = np.abs(self.u.values[cons] - psi[topo.dof_vertex[cons]]).max(initial=0.0)
        # the bound is at least 1e-8, so the datum's size is read only past it
        if off > 1e-8 and off > 1e-8 * (1.0 + np.abs(psi).max(initial=0.0)):
            raise ValueError("field does not match the boundary datum at time t")
        return assemble_pairing(self.mesh, topo, *self.triple)[topo.free_dofs]

    @cached_property
    def residual(self) -> float:
        """The Euclidean norm of ``pairing``: the Euler residual."""
        return float(np.linalg.norm(self.pairing))

    @cached_property
    def powers(self) -> dict:
        """The five power terms driving the energy balance.  Rates of the
        boundary datum and of the loads take their left-interval values at
        knots.  The net external power is stress_power - body_coupling -
        body_rate - surface_coupling - surface_rate."""
        model, mesh, t = self.model, self.mesh, self.t
        psi_dot = model.boundary.rate(t)
        psi_dot_corner = psi_dot[mesh.triangles]
        sig, body, surf = self.triple
        ids = mesh.surface_edges
        surface = (0.0, 0.0)
        if len(ids):
            surface = (float((mesh.edge_length[ids] * -surf * (psi_dot[mesh.edges[ids]].sum(axis=1) / 2)).sum()),
                       surface_rate(model.surface, t, self.trace, mesh))
        grads_psi_dot = corner_gradients(mesh, psi_dot_corner)
        return {
            "stress_power": float((mesh.tri_area * np.einsum("tk,tk->t", sig, grads_psi_dot)).sum()),
            "body_coupling": float((mesh.tri_area * -body * (psi_dot_corner.sum(axis=1) / 3)).sum()),
            "body_rate": _body_rate(model.body, t, mesh.tri_area, self.means),
            "surface_coupling": surface[0],
            "surface_rate": surface[1],
        }


def elastic_energy(model: EnergyModel, mesh: Mesh, t: float, u: BrokenField):
    """Elastic part W - F - G at time t; returns (value, parts dict)."""
    return KnotEvaluation(model, mesh, t, u, u.topology.crack).elastic


def stress_triple(model: EnergyModel, mesh: Mesh, t: float, u: BrokenField):
    """The stress triple of ``u`` at time t: (bulk stress per triangle, minus
    dF/dz per triangle, minus dG/dz per surface edge).

    Paired with (grad v, v, v) it is the first variation of the elastic
    energy W - F - G in the direction v (``assemble_pairing``).
    """
    return KnotEvaluation(model, mesh, t, u, u.topology.crack).triple


def total_energy(model: EnergyModel, mesh: Mesh, t: float, u: BrokenField, crack: CrackSet):
    """Total energy: elastic part plus crack surface energy; (value, parts)."""
    parts = KnotEvaluation(model, mesh, t, u, crack).energies
    return parts["total"], parts


def assemble_pairing(mesh: Mesh, topo: DofTopology, sig: np.ndarray, body: np.ndarray,
                     surf: np.ndarray) -> np.ndarray:
    """The DOF vector of v -> sum_T |T| (sig.grad v + body v) + sum_e |e| surf v,
    for a triple of densities per triangle (``sig``, ``body``) and per
    surface edge (``surf``), with midpoint quadrature."""
    area = mesh.tri_area
    per_corner = area[:, None] * np.einsum("tk,tki->ti", sig, mesh.grad_op) + (area * body / 3.0)[:, None]
    return _scatter_corner(mesh, topo, per_corner, mesh.edge_length[mesh.surface_edges] * surf / 2.0)


# ---------------------------------------------------------------------------
# growth validation
# ---------------------------------------------------------------------------

def lq_norm_tri(mesh: Mesh, values: np.ndarray, q: float) -> float:
    """Discrete L^q norm of per-triangle midpoint values."""
    return float(np.sum(mesh.tri_area * np.abs(values) ** q) ** (1.0 / q))


def lr_norm_surface(mesh: Mesh, values: np.ndarray, r: float) -> float:
    ids = mesh.surface_edges
    if len(ids) == 0:
        return 0.0
    return float(np.sum(mesh.edge_length[ids] * np.abs(values) ** r) ** (1.0 / r))


@dataclass
class GrowthCheck:
    name: str
    constants: dict
    worst_margin: float
    passed: bool
    note: str = ""


@dataclass
class GrowthReport:
    checks: list[GrowthCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> GrowthCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            consts = ", ".join(f"{k}={v:.6g}" for k, v in c.constants.items())
            status = "ok" if c.passed else "VIOLATED"
            note = f"  [{c.note}]" if c.note else ""
            lines.append(f"{c.name:24s} {status:9s} margin={c.worst_margin: .3e}  ({consts}){note}")
        return "\n".join(lines)


_MARGIN_SLACK = 1e-12


def _margin_check(name, constants, margins, scale=1.0, note=""):
    worst = float(np.min(margins)) if np.size(margins) else 0.0
    return GrowthCheck(name, constants, worst, worst >= -_MARGIN_SLACK * (1.0 + abs(scale)), note)


def validate_growth(model: EnergyModel, mesh: Mesh, samples: int = 2000, seed: int = 0) -> GrowthReport:
    """Certify the growth and bound hypotheses of the model on sampled data.

    Every inequality of the model family is evaluated on deterministic plus
    seeded random samples, at the load breakpoints (where every load norm and
    rate norm takes its maximum) and at 5 random times; each check reports
    the constants used and the worst margin (left side minus right side,
    oriented so nonnegative means the bound holds).  A zero confinement makes the coercivity check fail, which
    marks the model non-conforming without blocking its use.
    """
    if samples < 1:
        raise ValueError("sample count must be at least 1")
    rng = np.random.default_rng(seed)
    checks: list[GrowthCheck] = []
    law, body, surf = model.bulk, model.body, model.surface
    p, q, r = law.p, body.q, surf.r

    # gradient samples across magnitudes, plus deterministic axis vectors
    mags = np.concatenate([[0.0, 1e-6, 1e-3, 1.0, 1e3], 10.0 ** rng.uniform(-6, 3, samples)])
    dirs = rng.normal(size=(len(mags), 2))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    xi = dirs * mags[:, None]
    xi[:4] = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    tri = rng.integers(0, mesh.n_triangles, size=len(xi))

    mu = np.asarray(law.mu, dtype=float)
    mu_min, mu_max = float(np.min(mu)), float(np.max(mu))
    ss = np.sum(xi * xi, axis=1)           # |xi|^2, the same reduction the density uses
    xi_p = ss ** (p / 2.0)
    w = bulk_energy_density(law, tri, xi)

    a0w, b0w = mu_min / p, 0.0
    checks.append(_margin_check(
        "bulk_lower", {"a0_W": a0w, "b0_W": b0w}, w - (a0w * xi_p - b0w), scale=np.max(w)))

    a1w = mu_max / p * 2 ** (p / 2.0)
    b1w = a1w * law.epsilon**p
    checks.append(_margin_check(
        "bulk_upper", {"a1_W": a1w, "b1_W": b1w}, (a1w * xi_p + b1w) - w, scale=np.max(w)))

    if p >= 2 or law.epsilon > 0:
        sig = stress(law, tri, xi)
        signorm = np.linalg.norm(sig, axis=1)
        boost = 2.0 ** (max(p - 2.0, 0.0) / 2.0)
        a2w = mu_max * boost
        b2w = mu_max * boost * law.epsilon ** (p - 1.0)
        checks.append(_margin_check(
            "bulk_stress_bound", {"a2_W": a2w, "b2_W": b2w},
            (a2w * ss ** ((p - 1.0) / 2.0) + b2w) - signorm, scale=np.max(signorm)))

    # toughness: norm bounds on the brittle edge midpoints (the only points
    # where kappa is ever evaluated in the discrete model)
    brittle_ids = np.flatnonzero(mesh.brittle)
    pts = mesh.edge_midpoint[brittle_ids] if len(brittle_ids) else mesh.edge_midpoint
    k1, k2 = model.toughness.norm_bounds(pts)
    nu = rng.normal(size=(samples, 2))
    nu /= np.maximum(np.linalg.norm(nu, axis=1, keepdims=True), 1e-300)
    pick = rng.integers(0, len(pts), size=samples)
    kv = model.toughness.kappa(pts[pick], nu)
    checks.append(_margin_check("toughness_lower", {"K1": k1}, kv - k1, scale=k2))
    checks.append(_margin_check("toughness_upper", {"K2": k2}, k2 - kv, scale=k2))

    # body potential bounds; norms and functionals share the same quadrature
    t_samples = np.unique(np.concatenate([model.breakpoints, rng.uniform(0.0, model.boundary.horizon, 5)]))
    t_samples = t_samples[(t_samples >= 0) & (t_samples <= model.boundary.horizon)]
    f_dual = max(
        lq_norm_tri(mesh, body.table.value(t), body.q_conj) for t in t_samples
    )
    lam = body.lam
    if lam > 0:
        a0f = lam / (2.0 * q)
        b0f = f_dual ** body.q_conj / (body.q_conj * (lam / 2.0) ** (body.q_conj / q))
    else:
        a0f, b0f = 0.0, 0.0
    a1f, b1f = (1.0 + lam) / q, f_dual ** body.q_conj / body.q_conj
    a2f, b2f = lam, f_dual

    margins_lo, margins_hi, margins_gr = [], [], []
    n_fields = max(3, samples // 200)
    for t in t_samples:
        f = body.table.value(t)
        for scale in (1e-2, 1.0, 1e2):
            for _ in range(n_fields):
                z = scale * rng.normal(size=mesh.n_triangles)
                v = rng.normal(size=mesh.n_triangles)
                fz = _body_value(body, f, mesh.tri_area, z)
                uq = lq_norm_tri(mesh, z, q)
                vq = lq_norm_tri(mesh, v, q)
                if lam > 0:
                    margins_lo.append(-fz - (a0f * uq**q - b0f))
                margins_hi.append((a1f * uq**q + b1f) - (-fz))
                dens = _body_density(body, f, z)
                pairing = abs(float(np.sum(mesh.tri_area * dens * v)))
                margins_gr.append((a2f * uq ** (q - 1.0) + b2f) * vq - pairing)
    if lam > 0:
        checks.append(_margin_check("body_coercivity", {"a0_F": a0f, "b0_F": b0f},
                                    np.asarray(margins_lo), scale=b0f + 1))
    else:
        checks.append(GrowthCheck(
            "body_coercivity", {"a0_F": 0.0}, worst_margin=-np.inf, passed=False,
            note="confinement lam = 0: no positive coercivity constant exists"))
    checks.append(_margin_check("body_upper", {"a1_F": a1f, "b1_F": b1f},
                                np.asarray(margins_hi), scale=b1f + 1))
    checks.append(_margin_check("body_gradient_bound", {"a2_F": a2f, "b2_F": b2f},
                                np.asarray(margins_gr), scale=b2f + 1))

    # body rate: |Fdot(u)| <= a3 (||u||^qdot + 1) with qdot = (1+q)/2 < q
    qdot = (1.0 + q) / 2.0
    qdot_c = qdot / (qdot - 1.0)
    fdot_dual = max(
        lq_norm_tri(mesh, body.table.rate(t), qdot_c) for t in t_samples
    )
    margins_rate = []
    for t in t_samples:
        for _ in range(n_fields):
            z = rng.normal(size=mesh.n_triangles) * 10.0 ** rng.uniform(-2, 2)
            rate_val = abs(_body_rate(body, t, mesh.tri_area, z))
            margins_rate.append(fdot_dual * (lq_norm_tri(mesh, z, qdot) ** qdot + 1.0) - rate_val)
    checks.append(_margin_check("body_rate_bound", {"a3_F": fdot_dual, "b3_F": fdot_dual, "qdot": qdot},
                                np.asarray(margins_rate), scale=fdot_dual + 1))

    # surface potential bounds (linear potential: linear lower bound suffices)
    n_surf = len(mesh.surface_edges)
    if n_surf:
        g_dual = max(lr_norm_surface(mesh, surf.table.value(t), surf.r_conj) for t in t_samples)
        gdot_dual = max(lr_norm_surface(mesh, surf.table.rate(t), surf.r_conj) for t in t_samples)
        lengths = mesh.edge_length[mesh.surface_edges]
        m_lo, m_hi, m_gr, m_rt = [], [], [], []
        for t in t_samples:
            g = surf.table.value(t)
            for _ in range(n_fields):
                z = rng.normal(size=n_surf) * 10.0 ** rng.uniform(-2, 2)
                v = rng.normal(size=n_surf)
                gz = _surface_value(g, lengths, z)
                ur = lr_norm_surface(mesh, z, r)
                m_lo.append(-gz + g_dual * ur + 0.0)
                m_hi.append((ur**r / r + g_dual**surf.r_conj / surf.r_conj) - (-gz))
                pairing = abs(_surface_value(g, lengths, v))
                m_gr.append(g_dual * lr_norm_surface(mesh, v, r) - pairing)
                rate_val = abs(surface_rate(surf, t, z, mesh))
                m_rt.append(gdot_dual * (ur**r + 1.0) - rate_val)
        checks.append(_margin_check("surface_lower", {"a0_G": g_dual, "b0_G": 0.0},
                                    np.asarray(m_lo), scale=g_dual + 1))
        checks.append(_margin_check("surface_upper", {"a1_G": 1.0 / r, "b1_G": g_dual**surf.r_conj / surf.r_conj},
                                    np.asarray(m_hi), scale=g_dual + 1))
        checks.append(_margin_check("surface_gradient_bound", {"a2_G": 0.0, "b2_G": g_dual},
                                    np.asarray(m_gr), scale=g_dual + 1))
        checks.append(_margin_check("surface_rate_bound", {"a3_G": gdot_dual, "b3_G": gdot_dual},
                                    np.asarray(m_rt), scale=gdot_dual + 1))

    return GrowthReport(checks)
