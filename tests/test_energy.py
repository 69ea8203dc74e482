import dataclasses
import warnings

import numpy as np
import pytest

from qsfrac.broken import BrokenField, CrackSet, build_topology, trace_on_surface_part
from qsfrac.config import parse_config
from qsfrac.corpus import CORPUS, build_config, config_text
from qsfrac.energy import (
    BodyPotential,
    BulkLaw,
    TimeTable,
    Toughness,
    body_conjugate_density,
    body_rate,
    body_value_and_gradient,
    bulk_conjugate_density,
    bulk_energy_density,
    lq_norm_tri,
    lr_norm_surface,
    segment,
    stress,
    surface_energy,
    surface_rate,
    surface_value_and_gradient,
    validate_growth,
)
from qsfrac.evolution import TimeGrid, run_evolution
from qsfrac.mesh import build_structured_mesh
from qsfrac.minimize import ElasticSolver

from conftest import make_model, make_strip_mesh


# ---------------------------------------------------------------------------
# bulk law
# ---------------------------------------------------------------------------

def test_bulk_density_values():
    assert bulk_energy_density(BulkLaw(2.0, 1.0), 0, [0.0, 0.0]) == 0.0
    assert bulk_energy_density(BulkLaw(2.0, 1.0), 0, [3.0, 4.0]) == pytest.approx(12.5)
    assert bulk_energy_density(BulkLaw(4.0, 2.0), 0, [1.0, 1.0]) == pytest.approx(2.0)


def test_stress_values():
    assert np.allclose(stress(BulkLaw(2.0, 1.0), 0, [3.0, 4.0]), [3.0, 4.0])
    assert np.allclose(stress(BulkLaw(4.0, 1.0), 0, [1.0, 0.0]), [1.0, 0.0])


@pytest.mark.parametrize("p,mu,eps", [(2.0, 1.0, 0.0), (4.0, 2.5, 0.0),
                                      (3.0, 0.7, 0.0), (1.5, 1.0, 1e-3)])
def test_stress_matches_finite_differences(p, mu, eps):
    law = BulkLaw(p, mu, eps)
    rng = np.random.default_rng(0)
    xi = rng.normal(size=(500, 2)) * 10.0 ** rng.uniform(-2, 2, size=(500, 1))
    sig = stress(law, 0, xi)
    for k in range(2):
        h = 1e-6 * (1.0 + np.abs(xi[:, k]))
        step = np.zeros_like(xi)
        step[:, k] = h
        fd = (bulk_energy_density(law, 0, xi + step)
              - bulk_energy_density(law, 0, xi - step)) / (2 * h)
        assert np.max(np.abs(fd - sig[:, k]) / (1.0 + np.abs(sig[:, k]))) <= 1e-6


def test_stress_needs_regularization_below_quadratic():
    with pytest.raises(ValueError):
        BulkLaw(1.5, 1.0, 0.0)


def test_bulk_midpoint_convexity():
    rng = np.random.default_rng(3)
    for law in (BulkLaw(2.0, 1.0), BulkLaw(4.0, 2.0), BulkLaw(1.5, 1.0, 1e-6)):
        a = rng.normal(size=(10_000, 2)) * 10.0 ** rng.uniform(-2, 2, (10_000, 1))
        b = rng.normal(size=(10_000, 2)) * 10.0 ** rng.uniform(-2, 2, (10_000, 1))
        wm = bulk_energy_density(law, 0, 0.5 * (a + b))
        wa = bulk_energy_density(law, 0, a)
        wb = bulk_energy_density(law, 0, b)
        assert np.all(wm <= 0.5 * (wa + wb) + 1e-12 * (1.0 + wa + wb))


def test_bulk_conjugate_closes_fenchel_young():
    rng = np.random.default_rng(4)
    for law in (BulkLaw(2.0, 1.0), BulkLaw(4.0, 0.5), BulkLaw(1.5, 2.0, 1e-2),
                BulkLaw(2.0, 1.0, 0.1)):
        xi = rng.normal(size=(200, 2))
        sig = stress(law, 0, xi)
        w = bulk_energy_density(law, 0, xi)
        wstar = bulk_conjugate_density(law, 0, sig)
        pairing = np.sum(sig * xi, axis=1)
        assert np.max(np.abs(w + wstar - pairing)) <= 1e-10 * (1.0 + np.max(np.abs(pairing)))


def _conjugate_200_steps(law, tri, sigma):
    """``bulk_conjugate_density`` with its bisection always run for 200 steps."""
    smag = np.sqrt(np.sum(sigma * sigma, axis=-1))
    mu = np.broadcast_to(np.asarray(law.mu_at(tri), dtype=float), smag.shape)
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
        below = h(mid) < smag
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    r = 0.5 * (lo + hi)
    return smag * r - mu / law.p * (r * r + law.epsilon**2) ** (law.p / 2.0)


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
@pytest.mark.parametrize("eps", [1e-6, 1e-3, 0.5])
def test_bulk_conjugate_bisection_stops_with_the_same_bits(p, eps):
    # the bisection stops once every midpoint rounds onto an end of its
    # bracket; the result equals that of all 200 steps, bit for bit, with or
    # without a zero stress (whose bracket [0, 0] is settled from the start)
    rng = np.random.default_rng(12)
    law = BulkLaw(p, 1.0, eps)
    tri = np.arange(60)
    sig = rng.normal(size=(60, 2)) * 10.0 ** rng.uniform(-8.0, 3.0, size=(60, 1))
    assert np.array_equal(bulk_conjugate_density(law, tri, sig), _conjugate_200_steps(law, tri, sig))
    sig[[0, 7]] = 0.0
    assert np.array_equal(bulk_conjugate_density(law, tri, sig), _conjugate_200_steps(law, tri, sig))
    # elements that settle at different steps in one call, with and without
    # a zero stress among them, and one-element calls
    ramp = 10.0 ** np.linspace(-12.0, 3.0, 46)[:, None] * np.array([0.6, -0.8])
    for sig in (ramp, np.insert(ramp, 20, 0.0, axis=0)):
        tri = np.arange(len(sig))
        assert np.array_equal(bulk_conjugate_density(law, tri, sig), _conjugate_200_steps(law, tri, sig))
    for sig in ramp[[0, 17, 45]]:
        one = sig[None, :]
        assert np.array_equal(bulk_conjugate_density(law, [0], one), _conjugate_200_steps(law, [0], one))
    # a call whose every stress is zero, as at an unloaded knot
    zero = np.zeros((5, 2))
    assert np.array_equal(bulk_conjugate_density(law, np.arange(5), zero),
                          _conjugate_200_steps(law, np.arange(5), zero))


# ---------------------------------------------------------------------------
# toughness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tough", [
    Toughness("isotropic", (0.7,)),
    Toughness("weighted_l1", (1.0, 2.0)),
    Toughness("elliptic", (0.25, 4.0)),
    Toughness("isotropic", (lambda x, y: 1.0 + x,)),
])
def test_toughness_norm_axioms(tough):
    rng = np.random.default_rng(6)
    pts = rng.uniform(0.1, 1.0, size=(300, 2))
    nu = rng.normal(size=(300, 2))
    mu = rng.normal(size=(300, 2))
    alpha = rng.normal(size=300)
    k_nu = tough.kappa(pts, nu)
    # absolute homogeneity, exact
    assert np.max(np.abs(tough.kappa(pts, alpha[:, None] * nu) - np.abs(alpha) * k_nu)) <= 1e-12 * np.max(k_nu + 1)
    # symmetry in the normal
    assert np.array_equal(tough.kappa(pts, -nu), k_nu)
    # triangle inequality
    lhs = tough.kappa(pts, nu + mu)
    rhs = k_nu + tough.kappa(pts, mu)
    assert np.all(lhs <= rhs + 1e-12 * (1.0 + rhs))
    # positivity off zero
    assert np.all(k_nu[np.linalg.norm(nu, axis=1) > 1e-12] > 0)


def test_toughness_bounds_frame_the_values():
    tough = Toughness("weighted_l1", (0.3, 2.0))
    pts = np.zeros((50, 2))
    k1, k2 = tough.norm_bounds(pts)
    rng = np.random.default_rng(8)
    nu = rng.normal(size=(2000, 2))
    nrm = np.linalg.norm(nu, axis=1)
    kv = tough.kappa(np.zeros((2000, 2)), nu)
    assert np.all(kv >= k1 * nrm - 1e-12)
    assert np.all(kv <= k2 * nrm + 1e-12)


def test_surface_energy_examples():
    mesh = make_strip_mesh()
    t1 = Toughness("isotropic", (1.0,))
    assert surface_energy(t1, mesh, CrackSet.empty()) == 0.0
    # one edge of length 0.25
    m = build_structured_mesh(2, 1, 2.0, 0.25,
                              labeling={"dirichlet": ("left", "right")},
                              brittle=("rect", (1.0, 0.0, 1.0, 0.25)))
    (e,) = [int(i) for i in np.flatnonzero(m.brittle)]
    assert surface_energy(t1, m, CrackSet.of([e])) == pytest.approx(0.25)
    # kappa = |n1| + 2 |n2| on a horizontal edge of length 0.5 costs 1.0
    m2 = build_structured_mesh(1, 2, 0.5, 2.0,
                               labeling={"dirichlet": ("bottom", "top")},
                               brittle=("rect", (0.0, 1.0, 0.5, 1.0)))
    (e2,) = [int(i) for i in np.flatnonzero(m2.brittle)]
    assert np.allclose(np.abs(m2.edge_normal[e2]), [0.0, 1.0])
    t2 = Toughness("weighted_l1", (1.0, 2.0))
    assert surface_energy(t2, m2, CrackSet.of([e2])) == pytest.approx(1.0)


def test_surface_energy_additive_and_strictly_increasing():
    m = build_structured_mesh(2, 2, 2.0, 1.0, brittle="all")
    tough = Toughness("isotropic", (0.4,))
    ids = [int(e) for e in m.interior_edges]
    a, b = CrackSet.of(ids[:2]), CrackSet.of(ids[2:4])
    both = a.union(b)
    ea, eb, eboth = (surface_energy(tough, m, c) for c in (a, b, both))
    assert eboth == pytest.approx(ea + eb, rel=1e-14)
    assert surface_energy(tough, m, a.union([ids[4]])) > ea


def test_surface_energy_rejects_uncrackable_edges():
    m = make_strip_mesh()
    with pytest.raises(ValueError, match="non-crackable"):
        surface_energy(Toughness(), m, CrackSet.of([0]))


# ---------------------------------------------------------------------------
# body and surface potentials
# ---------------------------------------------------------------------------

def _field(mesh, crack, values=None, psi=0.0):
    topo = build_topology(mesh, crack)
    if values is None:
        return BrokenField.zeros(topo, psi)
    return BrokenField(topo, np.asarray(values, dtype=float))


def test_body_zero_field_zero_load():
    mesh = make_strip_mesh()
    pot = BodyPotential(TimeTable.constant(0.0, mesh.n_triangles), lam=1.0, q=2.0)
    u = _field(mesh, CrackSet.empty())
    value, dens = body_value_and_gradient(pot, 0.5, u)
    assert value == 0.0
    assert np.allclose(dens, 0.0)


def test_body_constant_field_closed_form():
    mesh = make_strip_mesh()
    lam = 1e-6
    pot = BodyPotential(TimeTable.constant(1.0, mesh.n_triangles), lam=lam, q=2.0)
    topo = build_topology(mesh, CrackSet.empty())
    u = BrokenField.from_nodal(topo, 3.0)
    value, dens = body_value_and_gradient(pot, 0.3, u)
    area = mesh.tri_area.sum()
    assert value == pytest.approx(3.0 * area - lam / 2 * 9.0 * area, rel=1e-14)
    assert np.allclose(dens, 1.0 - lam * 3.0)


def test_body_gradient_matches_finite_differences():
    mesh = make_strip_mesh()
    rng = np.random.default_rng(9)
    pot = BodyPotential(
        TimeTable.build([(0.0, rng.normal(size=mesh.n_triangles)),
                         (1.0, rng.normal(size=mesh.n_triangles))], mesh.n_triangles),
        lam=0.8, q=3.0)
    topo = build_topology(mesh, CrackSet.of([4]))
    u = BrokenField(topo, rng.normal(size=topo.n_dofs))
    v = rng.normal(size=topo.n_dofs)
    t = 0.37
    value0, dens = body_value_and_gradient(pot, t, u)
    vbar = BrokenField(topo, v).tri_means()
    analytic = float(np.sum(mesh.tri_area * dens * vbar))
    h = 1e-6
    vp, _ = body_value_and_gradient(pot, t, BrokenField(topo, u.values + h * v))
    vm, _ = body_value_and_gradient(pot, t, BrokenField(topo, u.values - h * v))
    fd = (vp - vm) / (2 * h)
    assert abs(fd - analytic) <= 1e-6 * (1.0 + abs(analytic))


@pytest.mark.parametrize("q", [1.2, 1.5, 2.0, 3.0])
def test_body_density_is_the_load_where_the_midpoint_mean_vanishes(q):
    # lam |z|^(q-2) z is continuous for q > 1 and 0 at z = 0, where the
    # power of a q < 2 is infinite: the density there is f, with no warning,
    # and every other entry keeps the bits of the plain expression
    mesh = make_strip_mesh()
    rng = np.random.default_rng(12)
    f = rng.normal(size=mesh.n_triangles)
    pot = BodyPotential(TimeTable.constant(f, mesh.n_triangles), lam=0.7, q=q)
    topo = build_topology(mesh, CrackSet.of([4]))
    values = rng.normal(size=topo.n_dofs)
    values[topo.corner_dof[:2]] = 0.0   # z = 0 on the first two triangles
    u = BrokenField(topo, values)
    z = u.tri_means()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, dens = body_value_and_gradient(pot, 0.5, u)
    assert np.array_equal(dens[:2], f[:2])
    z = z[2:]
    assert dens[2:].tobytes() == (f[2:] - 0.7 * np.abs(z) ** (q - 2.0) * z).tobytes()


def test_body_rate_static_and_ramp():
    mesh = make_strip_mesh()
    static = BodyPotential(TimeTable.constant(2.0, mesh.n_triangles), lam=1.0)
    topo = build_topology(mesh, CrackSet.empty())
    u = BrokenField.from_nodal(topo, 1.0)
    assert body_rate(static, 0.5, u) == 0.0
    ramp = BodyPotential(
        TimeTable.build([(0.0, 0.0), (1.0, 1.0)], mesh.n_triangles), lam=1.0)
    assert body_rate(ramp, 0.5, u) == pytest.approx(mesh.tri_area.sum())


def test_body_fundamental_theorem_in_time():
    # F(t2)(u) - F(t1)(u) equals the integral of the rate for piecewise-linear loads
    mesh = make_strip_mesh()
    rng = np.random.default_rng(10)
    table = TimeTable.build(
        [(0.0, rng.normal(size=mesh.n_triangles)),
         (0.4, rng.normal(size=mesh.n_triangles)),
         (1.0, rng.normal(size=mesh.n_triangles))], mesh.n_triangles)
    pot = BodyPotential(table, lam=0.3, q=2.0)
    topo = build_topology(mesh, CrackSet.empty())
    u = BrokenField(topo, rng.normal(size=topo.n_dofs))
    t1, t2 = 0.1, 0.9
    v1, _ = body_value_and_gradient(pot, t1, u)
    v2, _ = body_value_and_gradient(pot, t2, u)
    # integrate the piecewise-constant rate exactly by sampling subinterval midpoints
    cut = np.unique(np.concatenate([[t1, t2], table.times[(table.times > t1) & (table.times < t2)]]))
    integral = sum(
        body_rate(pot, 0.5 * (a + b), u) * (b - a) for a, b in zip(cut[:-1], cut[1:])
    )
    assert abs((v2 - v1) - integral) <= 1e-10 * (1.0 + abs(v2 - v1))


def surface_mesh():
    return build_structured_mesh(2, 1, 2.0, 1.0,
                                 labeling={"dirichlet": ("left",), "surface": ("right",)},
                                 brittle=("rect", (1.0, 0.0, 1.0, 1.0)))


def test_surface_examples_and_fd():
    from qsfrac.energy import SurfacePotential

    mesh = surface_mesh()
    ns = len(mesh.surface_edges)
    zero = SurfacePotential(TimeTable.constant(0.0, ns), r=2.0)
    topo = build_topology(mesh, CrackSet.empty())
    u = BrokenField.from_nodal(topo, 4.0)
    tr = trace_on_surface_part(u)
    v, dens = surface_value_and_gradient(zero, 0.2, tr, mesh)
    assert v == 0.0 and np.allclose(dens, 0.0)

    one = SurfacePotential(TimeTable.constant(1.0, ns), r=2.0)
    total_len = mesh.edge_length[mesh.surface_edges].sum()
    v, dens = surface_value_and_gradient(one, 0.2, tr, mesh)
    assert v == pytest.approx(4.0 * total_len)
    assert np.allclose(dens, 1.0)

    ramp = SurfacePotential(TimeTable.build([(0.0, 0.0), (1.0, 2.0)], ns), r=2.0)
    assert surface_rate(ramp, 0.5, tr, mesh) == pytest.approx(2.0 * 4.0 * total_len)

    # value gradient vs finite differences in the trace values
    rng = np.random.default_rng(12)
    g = SurfacePotential(TimeTable.constant(rng.normal(size=ns), ns), r=2.0)
    w = rng.normal(size=ns)
    v0, dens = surface_value_and_gradient(g, 0.1, tr, mesh)
    analytic = float(np.sum(mesh.edge_length[mesh.surface_edges] * dens * w))
    h = 1e-6
    vp, _ = surface_value_and_gradient(g, 0.1, tr + h * w, mesh)
    vm, _ = surface_value_and_gradient(g, 0.1, tr - h * w, mesh)
    assert abs((vp - vm) / (2 * h) - analytic) <= 1e-6 * (1.0 + abs(analytic))


def test_body_minus_f_midpoint_convexity():
    rng = np.random.default_rng(13)
    for lam, q in ((1.0, 2.0), (0.5, 3.0), (2.0, 1.5)):
        f = 0.7
        z1 = rng.normal(size=10_000) * 10.0 ** rng.uniform(-2, 2, 10_000)
        z2 = rng.normal(size=10_000) * 10.0 ** rng.uniform(-2, 2, 10_000)

        def neg_f(z):
            return lam / q * np.abs(z) ** q - f * z

        mid = neg_f(0.5 * (z1 + z2))
        avg = 0.5 * (neg_f(z1) + neg_f(z2))
        assert np.all(mid <= avg + 1e-12 * (1.0 + np.abs(avg)))


def test_body_conjugate_shifted_power():
    pot = BodyPotential(TimeTable.constant(0.3, 4), lam=0.7, q=2.0)
    sigma = np.array([0.1, -0.2, 0.0, 1.5])
    expected = (sigma + 0.3) ** 2 / (2 * 0.7)
    assert np.allclose(body_conjugate_density(pot, 0.0, sigma), expected)
    free = BodyPotential(TimeTable.constant(0.3, 2), lam=0.0, q=2.0)
    vals = body_conjugate_density(free, 0.0, np.array([-0.3, 0.5]))
    assert vals[0] == 0.0 and np.isinf(vals[1])


# ---------------------------------------------------------------------------
# time tables
# ---------------------------------------------------------------------------

def test_time_table_left_interval_rates():
    tab = TimeTable.build([(0.0, 0.0), (0.5, 1.0), (1.0, 1.0)], 1)
    assert tab.value(0.25)[0] == pytest.approx(0.5)
    assert tab.rate(0.25)[0] == pytest.approx(2.0)
    # at an interior knot the rate comes from the interval ending there
    assert tab.rate(0.5)[0] == pytest.approx(2.0)
    assert tab.rate(0.75)[0] == pytest.approx(0.0)
    assert tab.rate(1.0)[0] == pytest.approx(0.0)
    assert tab.rate(0.0)[0] == pytest.approx(2.0)  # t = 0 has only the first interval
    with pytest.raises(ValueError):
        tab.value(1.5)
    with pytest.raises(ValueError):
        TimeTable.build([(0.1, 0.0), (1.0, 1.0)], 1)


@pytest.mark.parametrize("knots, message", [
    ([0.1, 0.5], "must start at t = 0"),
    ([-1.0, 0.0], "must start at t = 0"),
    ([0.0, 0.5, 0.5], "strictly increasing"),
    ([0.0, 0.6, 0.5], "strictly increasing"),
])
def test_time_grid_and_time_table_check_their_knots_alike(knots, message):
    with pytest.raises(ValueError, match=message) as grid_err:
        TimeGrid(np.array(knots))
    with pytest.raises(ValueError, match=message) as table_err:
        TimeTable.build([(t, 0.0) for t in knots], 1)
    assert str(grid_err.value) == str(table_err.value)


def test_a_one_pair_time_table_raises():
    # a single entry has no horizon of its own: the config extends it to
    # time.horizon before it builds the table
    with pytest.raises(ValueError, match="at least two"):
        TimeTable.build([(0.0, 1.0)], 3)


def test_segment_is_the_left_interval_rule_of_every_table():
    tab = TimeTable.build([(0.0, 0.0), (0.5, 1.0), (1.0, 3.0)], 1)
    assert segment(tab.times, 0.0) == (0, 0.0)
    assert segment(tab.times, 0.5) == (0, 1.0)     # a knot ends its interval
    assert segment(tab.times, 0.75) == (1, 0.5)
    assert segment(tab.times, 1.0) == (1, 1.0)
    for t in (0.0, 0.2, 0.5, 0.9, 1.0):
        i, w = segment(tab.times, t)
        assert tab.value(t)[0] == (1.0 - w) * tab.samples[i, 0] + w * tab.samples[i + 1, 0]
    with pytest.raises(ValueError, match="outside table range"):
        segment(tab.times, -0.1)


def test_breakpoints_are_the_sorted_union_of_the_table_knots():
    mesh = make_strip_mesh()
    nv, nt = mesh.n_vertices, mesh.n_triangles
    model = make_model(
        mesh, psi=TimeTable.build([(0.0, 0.0), (0.4, 1.0), (1.0, 1.0)], nv),
        f=TimeTable.build([(0.0, 0.0), (0.7, 1.0), (0.9, 1.0), (1.0, 0.0)], nt))
    assert model.breakpoints.tolist() == [0.0, 0.4, 0.7, 0.9, 1.0]
    assert ElasticSolver(model, mesh)._breaks.tolist() == model.breakpoints.tolist()


def _memo_table():
    rng = np.random.default_rng(3)
    return TimeTable.build([(t, rng.normal(size=4)) for t in (0.0, 0.3, 0.7, 1.0)], 4)


def test_memoized_queries_equal_a_fresh_table_bit_for_bit():
    tab = _memo_table()
    queries = [("value", 0.0), ("rate", 0.0), ("value", 0.0), ("rate", 0.3), ("value", 0.3),
               ("value", 0.5), ("rate", 0.5), ("rate", 0.5), ("value", 0.7), ("value", 1.0),
               ("rate", 1.0), ("value", 0.5), ("rate", 0.0), ("value", 0.0)]
    for name, t in queries:
        fresh = TimeTable(tab.times, tab.samples)
        assert getattr(tab, name)(t).tobytes() == getattr(fresh, name)(t).tobytes(), (name, t)


def test_memoized_arrays_are_read_only():
    tab = _memo_table()
    for arr in (tab.value(0.5), tab.rate(0.5), tab.value(0.5)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_equal_tables_share_no_memo():
    a = _memo_table()
    b = TimeTable(a.times, a.samples)
    assert a == b
    va, ra = a.value(0.2), a.rate(0.2)
    assert a.value(0.2) is va and a.rate(0.2) is ra   # the memo answers a repeated time
    vb = b.value(0.2)
    assert vb is not va and vb.tobytes() == va.tobytes()
    b.value(0.9)
    b.rate(0.9)
    assert a.value(0.2) is va and a.rate(0.2) is ra
    copy = dataclasses.replace(a)
    assert copy.value(0.2) is not va


def test_the_memo_changes_neither_equality_nor_repr():
    a = _memo_table()
    b = TimeTable(a.times, a.samples)
    before = repr(a)
    assert before == f"TimeTable(times={a.times!r}, samples={a.samples!r})"
    a.value(0.4)
    a.rate(0.4)
    assert repr(a) == before
    assert a == b and b == a
    assert [f.name for f in dataclasses.fields(TimeTable) if f.compare] == ["times", "samples"]


def test_models_built_twice_from_a_config_are_equal():
    # tables and a per-triangle mu compare by value, so two builds of one
    # config hold equal but distinct arrays and still compare equal; a model
    # stays unhashable
    for name in CORPUS:
        a, b = (build_config(name, 5).build_problem().model for _ in range(2))
        assert a.boundary.samples is not b.boundary.samples
        assert (a == b) is True and (a != b) is False, name
        with pytest.raises(TypeError):
            hash(a)
    model = build_config("crossed", 5).build_problem().model
    mu = np.asarray(model.bulk.mu)
    assert mu.ndim == 1
    samples = model.body.table.samples.copy()
    samples[-1, 0] += 1.0
    changed = [
        dataclasses.replace(model, bulk=dataclasses.replace(model.bulk, mu=mu * np.r_[2.0, np.ones(len(mu) - 1)])),
        dataclasses.replace(model, bulk=dataclasses.replace(model.bulk, mu=1.0)),
        dataclasses.replace(model, body=dataclasses.replace(
            model.body, table=TimeTable(model.body.table.times, samples))),
        dataclasses.replace(model, boundary=TimeTable(model.boundary.times / 2.0, model.boundary.samples)),
    ]
    for other in changed:
        assert (model == other) is False and (other == model) is False
    assert model.bulk != "bulk" and model.boundary != "psi"


def test_a_run_between_two_runs_of_a_config_leaves_its_record_unchanged(tmp_path):
    first = build_config("surface_pull", 9).build_problem()
    other = build_config("body_pull", 9).build_problem()

    def record_bytes(p, name):
        rec = run_evolution(p.model, p.mesh, p.grid, p.initial_crack, p.strategy,
                            config_hash=p.config_hash)
        rec.save(tmp_path / name)
        return (tmp_path / name).read_bytes()

    a1 = record_bytes(first, "a1.json")
    record_bytes(other, "b.json")
    assert record_bytes(first, "a2.json") == a1
    assert record_bytes(build_config("surface_pull", 9).build_problem(), "a3.json") == a1


# ---------------------------------------------------------------------------
# growth validation
# ---------------------------------------------------------------------------

def test_growth_quadratic_constants():
    mesh = make_strip_mesh()
    model = make_model(mesh)
    report = validate_growth(model, mesh, samples=500)
    assert report.passed
    assert report["bulk_lower"].constants["a0_W"] == pytest.approx(0.5)
    assert report["bulk_lower"].constants["b0_W"] == 0.0


def test_growth_isotropic_weight_bounds():
    mesh = make_strip_mesh()
    model = make_model(mesh, kappa=Toughness("isotropic", (3.0,)))
    report = validate_growth(model, mesh, samples=200)
    assert report["toughness_lower"].constants["K1"] == pytest.approx(3.0)
    assert report["toughness_upper"].constants["K2"] == pytest.approx(3.0)


def test_growth_zero_confinement_flagged():
    mesh = make_strip_mesh()
    model = make_model(mesh, lam=0.0)
    report = validate_growth(model, mesh, samples=100)
    assert not report.passed
    check = report["body_coercivity"]
    assert not check.passed
    assert "lam" in check.note


@pytest.mark.parametrize("name, key", [("strip", "body.force"), ("surface_pull", "surface.force")])
def test_growth_constants_are_the_load_maxima_over_the_breakpoints(name, key):
    # a load that jumps on [0.7, 0.75] and nowhere else: the rate constants
    # must see that segment, whatever the seed draws.  Each rate is constant
    # on a segment and taken at the knot ending it, and each value norm is
    # largest at a knot, so the maxima over the breakpoints are exact
    text = "\n".join(line for line in config_text(name, 9).splitlines()
                     if not line.startswith(key))
    p = parse_config(text + f"\n{key} = 0: 0; 0.7: 0.1; 0.75: 5; 1: 5\n").build_problem()
    model, mesh = p.model, p.mesh
    ts = model.breakpoints
    assert ts.tolist() == [0.0, 0.7, 0.75, 1.0]
    body, surf = model.body, model.surface
    qdot = (1.0 + body.q) / 2.0
    f_dual = max(lq_norm_tri(mesh, body.table.value(t), body.q_conj) for t in ts)
    fdot_dual = max(lq_norm_tri(mesh, body.table.rate(t), qdot / (qdot - 1.0)) for t in ts)
    g_dual = max(lr_norm_surface(mesh, surf.table.value(t), surf.r_conj) for t in ts)
    gdot_dual = max(lr_norm_surface(mesh, surf.table.rate(t), surf.r_conj) for t in ts)
    for seed in range(6):
        report = validate_growth(model, mesh, seed=seed)
        assert report.passed, report.summary()
        assert report["body_gradient_bound"].constants["b2_F"] == f_dual
        assert report["body_rate_bound"].constants["a3_F"] == fdot_dual
        if len(mesh.surface_edges):
            assert report["surface_gradient_bound"].constants["b2_G"] == g_dual
            assert report["surface_rate_bound"].constants["a3_G"] == gdot_dual
    # the steep segment sets the rate constant of the jumping load
    rate = fdot_dual if key == "body.force" else gdot_dual
    assert rate > 50.0


def test_growth_passes_on_the_corpus():
    for name in CORPUS:
        cfg = build_config(name, 8)
        problem = cfg.build_problem()
        report = validate_growth(problem.model, problem.mesh, samples=300)
        assert report.passed, f"{name}: {report.summary()}"


def test_surface_fundamental_theorem_in_time():
    from qsfrac.energy import SurfacePotential

    mesh = surface_mesh()
    ns = len(mesh.surface_edges)
    rng = np.random.default_rng(14)
    table = TimeTable.build(
        [(0.0, rng.normal(size=ns)), (0.3, rng.normal(size=ns)), (1.0, rng.normal(size=ns))], ns)
    pot = SurfacePotential(table, r=2.0)
    topo = build_topology(mesh, CrackSet.empty())
    tr = trace_on_surface_part(BrokenField(topo, rng.normal(size=topo.n_dofs)))
    t1, t2 = 0.05, 0.85
    v1, _ = surface_value_and_gradient(pot, t1, tr, mesh)
    v2, _ = surface_value_and_gradient(pot, t2, tr, mesh)
    cut = np.unique(np.concatenate([[t1, t2], table.times[(table.times > t1) & (table.times < t2)]]))
    integral = sum(
        surface_rate(pot, 0.5 * (a + b), tr, mesh) * (b - a) for a, b in zip(cut[:-1], cut[1:])
    )
    assert abs((v2 - v1) - integral) <= 1e-10 * (1.0 + abs(v2 - v1))
