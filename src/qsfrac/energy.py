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

All loads and the boundary program are piecewise linear in time ("time
tables"), which makes the time-regularity hypotheses exact: rates are
piecewise constant, and at a grid knot the rate takes the left-interval
value.  Quadrature is one-point (midpoint) per triangle and per boundary
edge; with linear elements this is exact for every integrand that is linear
on the element, and it *defines* the discrete functionals elsewhere.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .broken import BrokenField, CrackSet, trace_on_surface_part
from .mesh import Mesh

__all__ = [
    "TimeTable",
    "BulkLaw",
    "Toughness",
    "BodyPotential",
    "SurfacePotential",
    "BoundaryProgram",
    "EnergyModel",
    "bulk_energy_density",
    "stress",
    "stress_jacobian",
    "bulk_conjugate_density",
    "toughness_values",
    "surface_energy",
    "edge_surface_energies",
    "body_value_and_gradient",
    "body_rate",
    "body_conjugate_density",
    "surface_value_and_gradient",
    "surface_rate",
    "elastic_energy",
    "stress_triple",
    "total_energy",
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

@dataclass(frozen=True)
class TimeTable:
    """Piecewise-linear interpolation of spatial arrays over time knots.

    Rates are piecewise constant; at a knot the rate is taken from the
    interval ending there (left-interval convention), except at t = 0 where
    only the first interval exists.
    """

    times: np.ndarray    # (k,)
    samples: np.ndarray  # (k, n)

    @classmethod
    def build(cls, pairs: Sequence[tuple[float, object]], size: int) -> "TimeTable":
        """From [(t, value)] pairs; each value is a scalar or an (size,) array."""
        if not pairs:
            raise ValueError("time table needs at least one (t, value) pair")
        times = np.asarray([float(t) for t, _ in pairs])
        if len(times) == 1:
            times = np.array([times[0], times[0] + 1.0])
            pairs = [pairs[0], pairs[0]]
        if times[0] != 0.0:
            raise ValueError("time tables must start at t = 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("time table knots must be strictly increasing")
        rows = []
        for _, v in pairs:
            arr = np.asarray(v, dtype=float)
            rows.append(np.full(size, float(arr)) if arr.ndim == 0 else arr)
            if rows[-1].shape != (size,):
                raise ValueError(f"table value has shape {rows[-1].shape}, expected ({size},)")
        return cls(times, np.vstack(rows))

    @classmethod
    def constant(cls, value, size: int, horizon: float = 1.0) -> "TimeTable":
        return cls.build([(0.0, value), (float(horizon), value)], size)

    def _segment(self, t: float) -> int:
        ts = self.times
        if t < ts[0] - 1e-12 or t > ts[-1] + 1e-12:
            raise ValueError(f"time {t} outside table range [{ts[0]}, {ts[-1]}]")
        i = int(np.searchsorted(ts, t, side="left")) - 1
        return min(max(i, 0), len(ts) - 2)

    def value(self, t: float) -> np.ndarray:
        i = self._segment(t)
        w = (t - self.times[i]) / (self.times[i + 1] - self.times[i])
        return (1.0 - w) * self.samples[i] + w * self.samples[i + 1]

    def rate(self, t: float) -> np.ndarray:
        i = self._segment(t)
        return (self.samples[i + 1] - self.samples[i]) / (self.times[i + 1] - self.times[i])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


# ---------------------------------------------------------------------------
# bulk law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BulkLaw:
    """Power-law bulk density W(x, xi) = (mu(x)/p) (|xi|^2 + eps^2)^(p/2)."""

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
    200 steps, which stops once further steps cannot change the result.
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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # once every mid rounds onto an end of its bracket, the result
        # 0.5 (lo + hi) keeps its value whatever the remaining steps do
        settled = np.all((mid == lo) | (mid == hi))
        below = h(mid) < smag
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if settled:
            break
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


def toughness_values(tough: Toughness, mesh: Mesh, edge_ids) -> np.ndarray:
    """kappa at edge midpoints with the edge normals, for the given edges."""
    ids = np.asarray(list(edge_ids), dtype=int)
    if len(ids) == 0:
        return np.zeros(0)
    return tough.kappa(mesh.edge_midpoint[ids], mesh.edge_normal[ids])


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
    return toughness_values(tough, mesh, ids) * mesh.edge_length[ids]


# ---------------------------------------------------------------------------
# body and surface potentials, boundary program
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


def _tri_values(u: BrokenField) -> tuple[Mesh, np.ndarray, np.ndarray]:
    mesh = u.topology.mesh
    return mesh, mesh.tri_area, u.tri_means()


def body_value_and_gradient(pot: BodyPotential, t: float, u: BrokenField):
    """Returns (F(t)(u), dF/dz as a per-triangle density).

    The value integrates F at triangle midpoints; the density is the exact
    derivative of that discrete value with respect to the midpoint values.
    """
    mesh, area, z = _tri_values(u)
    f = pot.table.value(t)
    value = float(np.sum(area * (f * z - pot.lam / pot.q * np.abs(z) ** pot.q)))
    density = f - pot.lam * np.abs(z) ** (pot.q - 2.0) * z if pot.lam else f.copy()
    return value, density


def body_rate(pot: BodyPotential, t: float, u: BrokenField) -> float:
    """Time derivative of the body potential at fixed field: integral of fdot u."""
    mesh, area, z = _tri_values(u)
    return float(np.sum(area * pot.table.rate(t) * z))


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


def body_hessian_coeff(pot: BodyPotential, t: float, z: np.ndarray) -> np.ndarray:
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
    lengths = mesh.edge_length[ids]
    return float(np.sum(lengths * g * trace)), g.copy()


def surface_rate(pot: SurfacePotential, t: float, trace: np.ndarray, mesh: Mesh) -> float:
    ids = mesh.surface_edges
    return float(np.sum(mesh.edge_length[ids] * pot.table.rate(t) * np.asarray(trace)))


@dataclass(frozen=True)
class BoundaryProgram:
    """Imposed boundary deformation and its extension to the whole mesh.

    Stored as a time table of nodal arrays: piecewise linear in space (the
    usual hat-function interpolant) and piecewise linear in time, hence
    Lipschitz with a rate defined on every subinterval.
    """

    table: TimeTable     # per-vertex samples

    def value(self, t: float) -> np.ndarray:
        return self.table.value(t)

    def rate(self, t: float) -> np.ndarray:
        return self.table.rate(t)

    @property
    def horizon(self) -> float:
        return self.table.horizon


# ---------------------------------------------------------------------------
# the assembled model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyModel:
    """Bundle of bulk law, toughness, load potentials and boundary program."""

    bulk: BulkLaw
    toughness: Toughness
    body: BodyPotential
    surface: SurfacePotential
    boundary: BoundaryProgram

    @property
    def p(self) -> float:
        return self.bulk.p

    @property
    def q(self) -> float:
        return self.body.q

    @property
    def r(self) -> float:
        return self.surface.r

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
        if self.boundary.table.samples.shape[1] != mesh.n_vertices:
            raise ValueError("boundary program does not match the vertex count")
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


def elastic_energy(model: EnergyModel, mesh: Mesh, t: float, u: BrokenField):
    """Elastic part W - F - G at time t; returns (value, parts dict)."""
    grads = u.gradients()
    w_val = float(np.sum(mesh.tri_area * bulk_energy_density(model.bulk, np.arange(mesh.n_triangles), grads)))
    f_val, _ = body_value_and_gradient(model.body, t, u)
    g_val, _ = surface_value_and_gradient(model.surface, t, trace_on_surface_part(u), mesh)
    parts = {"W": w_val, "F": f_val, "G": g_val}
    return w_val - f_val - g_val, parts


def stress_triple(model: EnergyModel, mesh: Mesh, t: float, u: BrokenField):
    """The stress triple of ``u`` at time t: (bulk stress per triangle, minus
    dF/dz per triangle, minus dG/dz per surface edge).

    Paired with (grad v, v, v) it is the first variation of the elastic
    energy W - F - G in the direction v (``minimize.assemble_pairing``).
    """
    sig = stress(model.bulk, np.arange(mesh.n_triangles), u.gradients())
    _, body = body_value_and_gradient(model.body, t, u)
    surf = np.zeros(0)
    if len(mesh.surface_edges):
        _, surf = surface_value_and_gradient(model.surface, t, trace_on_surface_part(u), mesh)
    return sig, -body, -surf


def total_energy(model: EnergyModel, mesh: Mesh, t: float, u: BrokenField, crack: CrackSet):
    """Total energy: elastic part plus crack surface energy; (value, parts)."""
    el, parts = elastic_energy(model, mesh, t, u)
    es = surface_energy(model.toughness, mesh, crack)
    parts = dict(parts, Es=es, total=el + es)
    return el + es, parts


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
    seeded random samples; each check reports the constants used and the worst
    margin (left side minus right side, oriented so nonnegative means the
    bound holds).  A zero confinement makes the coercivity check fail, which
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
    t_samples = np.unique(np.concatenate([
        model.boundary.table.times,
        rng.uniform(0.0, model.boundary.horizon, 5),
    ]))
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
                fz = float(np.sum(mesh.tri_area * (f * z - lam / q * np.abs(z) ** q)))
                uq = lq_norm_tri(mesh, z, q)
                vq = lq_norm_tri(mesh, v, q)
                if lam > 0:
                    margins_lo.append(-fz - (a0f * uq**q - b0f))
                margins_hi.append((a1f * uq**q + b1f) - (-fz))
                dens = f - (lam * np.abs(z) ** (q - 2.0) * z if lam else 0.0)
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
        fd = body.table.rate(t)
        for _ in range(n_fields):
            z = rng.normal(size=mesh.n_triangles) * 10.0 ** rng.uniform(-2, 2)
            rate_val = abs(float(np.sum(mesh.tri_area * fd * z)))
            margins_rate.append(fdot_dual * (lq_norm_tri(mesh, z, qdot) ** qdot + 1.0) - rate_val)
    checks.append(_margin_check("body_rate_bound", {"a3_F": fdot_dual, "b3_F": fdot_dual, "qdot": qdot},
                                np.asarray(margins_rate), scale=fdot_dual + 1))

    # surface potential bounds (linear potential: linear lower bound suffices)
    n_surf = len(mesh.surface_edges)
    if n_surf:
        g_dual = max(lr_norm_surface(mesh, surf.table.value(t), surf.r_conj) for t in t_samples)
        gdot_dual = max(lr_norm_surface(mesh, surf.table.rate(t), surf.r_conj) for t in t_samples)
        m_lo, m_hi, m_gr, m_rt = [], [], [], []
        for t in t_samples:
            g = surf.table.value(t)
            gd = surf.table.rate(t)
            for _ in range(n_fields):
                z = rng.normal(size=n_surf) * 10.0 ** rng.uniform(-2, 2)
                v = rng.normal(size=n_surf)
                gz = float(np.sum(mesh.edge_length[mesh.surface_edges] * g * z))
                ur = lr_norm_surface(mesh, z, r)
                m_lo.append(-gz + g_dual * ur + 0.0)
                m_hi.append((ur**r / r + g_dual**surf.r_conj / surf.r_conj) - (-gz))
                pairing = abs(float(np.sum(mesh.edge_length[mesh.surface_edges] * g * v)))
                m_gr.append(g_dual * lr_norm_surface(mesh, v, r) - pairing)
                rate_val = abs(float(np.sum(mesh.edge_length[mesh.surface_edges] * gd * z)))
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
