import dataclasses
import gc
import json
import sys
import warnings
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qsfrac import audit
from qsfrac.audit import (
    CHECKS,
    EULER,
    ONE_EDGE,
    ORACLE,
    AuditError,
    AuditReport,
    audit_record,
    check_certificates,
    check_energy_balance,
    check_global_stability,
    check_irreversibility,
    check_structure,
    dual_certificate,
    stress_continuity_probe,
)
from qsfrac.broken import BrokenField, CrackSet, build_topology
from qsfrac.corpus import CORPUS, build_config, config_text, strip_crackfree
from qsfrac.config import parse_config
from qsfrac.energy import TimeTable, Toughness, elastic_energy
from qsfrac.evolution import (
    BRUTE_FORCE,
    GREEDY,
    EvolutionRecord,
    SearchStrategy,
    TimeGrid,
    _Search,
    run_evolution,
    sample_power_terms,
    tie_tolerance,
)
from qsfrac.mesh import build_structured_mesh
from qsfrac.minimize import _FreeBlock, _local_forms, _spd_solver, euler_residual, minimize_elastic

from conftest import NOTCHED, make_model, make_strip_mesh


@pytest.fixture(scope="module")
def crackfree_run():
    p = parse_config(strip_crackfree(64)).build_problem()
    rec = run_evolution(p.model, p.mesh, p.grid, p.initial_crack, p.strategy,
                        config_hash=p.config_hash)
    return p, rec


def doctor(record):
    return record.shallow_copy()


# ---------------------------------------------------------------------------
# irreversibility
# ---------------------------------------------------------------------------

def test_irreversibility_passes_on_monotone_record(strip_record):
    assert check_irreversibility(strip_record).verdict == "PASS"


def test_irreversibility_names_the_offending_knot(strip_problem, strip_record):
    bad = doctor(strip_record)
    j = bad.jump_knots()[0]
    bad.cracks[j + 2] = CrackSet.empty()  # an edge disappears two knots later
    res = check_irreversibility(bad)
    assert res.verdict == "FAIL"
    assert f"knot {j + 2}" in res.details


def test_irreversibility_single_knot_record(strip_problem, strip_record):
    solo = doctor(strip_record)
    solo.grid = TimeGrid(np.array([0.0]))
    solo.cracks = solo.cracks[:1]
    solo.fields = solo.fields[:1]
    solo.energies = solo.energies[:1]
    assert check_irreversibility(solo).verdict == "PASS"


# ---------------------------------------------------------------------------
# energy balance
# ---------------------------------------------------------------------------

def test_balance_zero_loads_exact(corpus_runs):
    p, rec = corpus_runs["zero_load"]
    bal = check_energy_balance(rec, p.model, p.mesh)
    assert bal.gap == 0.0
    assert bal.result.verdict == "PASS"


def test_balance_detects_tampered_energies(strip_problem, strip_record):
    bad = doctor(strip_record)
    bad.energies[5] = dict(bad.energies[5], total=bad.energies[5]["total"] + 1e-6)
    bal = check_energy_balance(bad, strip_problem.model, strip_problem.mesh)
    assert bal.result.verdict == "FAIL"
    assert "knot 5" in bal.result.details


def test_balance_fails_when_the_recomputed_total_overflows(strip_problem, strip_record):
    # a guard scaled by the recomputed total passed an infinite one, since
    # inf <= inf; the audit then reported only the ordinary trapezoid gap
    bad = doctor(strip_record)
    u = bad.fields[2]
    vals = u.values.copy()
    vals[1] = 1e308
    bad.fields[2] = BrokenField(u.topology, vals)
    res = check_energy_balance(bad, strip_problem.model, strip_problem.mesh).result
    assert res.verdict == "FAIL"
    assert res.details == "stored total energy at knot 2 does not match the model"
    assert res.margins["recompute_mismatch"] == np.inf


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_balance_integrates_the_power_of_each_loaded_field(corpus_runs, tmp_path, name):
    # a record stores no power: the balance of a saved and loaded record is
    # the trapezoid over the power terms of each loaded field at its time,
    # bit for bit
    p, rec = corpus_runs[name]
    path = tmp_path / "rec.json"
    rec.save(path)
    loaded = EvolutionRecord.load(path, p.mesh, p.model)
    excluded = tuple(j - 1 for j in loaded.jump_knots())
    bal = check_energy_balance(loaded, p.model, p.mesh, exclude_intervals=excluded)
    terms = [sample_power_terms(p.model, p.mesh, float(t), u) for t, u in zip(loaded.times, loaded.fields)]
    power = np.array([w["stress_power"] - w["body_coupling"] - w["body_rate"] - w["surface_coupling"]
                      - w["surface_rate"] for w in terms])
    totals = np.array([e["total"] for e in loaded.energies])
    mismatch = np.diff(totals) - 0.5 * np.diff(loaded.times) * (power[:-1] + power[1:])
    kept = np.ones(len(mismatch), dtype=bool)
    kept[list(excluded)] = False
    deviations = np.concatenate([[0.0], np.cumsum(np.where(kept, mismatch, 0.0))])
    assert bal.interval_mismatch.tobytes() == mismatch.tobytes()
    assert bal.deviations.tobytes() == deviations.tobytes()
    assert bal.gap == float(np.max(np.abs(deviations)))


def test_balance_first_order_gap_halves_under_refinement():
    gaps = {}
    for knots in (64, 128):
        p = build_config("strip", knots).build_problem()
        rec = run_evolution(p.model, p.mesh, p.grid, p.initial_crack, p.strategy)
        excl = tuple(j - 1 for j in rec.jump_knots())
        gaps[knots] = check_energy_balance(rec, p.model, p.mesh,
                                           exclude_intervals=excl).gap
    ratio = gaps[64] / gaps[128]
    assert 1.6 <= ratio <= 2.4


def test_balance_crackfree_near_exact(crackfree_run):
    p, rec = crackfree_run
    bal = check_energy_balance(rec, p.model, p.mesh)
    assert bal.gap <= 1e-8 * (1.0 + abs(rec.total_energy(len(rec) - 1)))


def test_balance_exclusion_removes_the_nucleation_spike(strip_problem, strip_record):
    p, rec = strip_problem, strip_record
    full = check_energy_balance(rec, p.model, p.mesh)
    j = rec.jump_knots()[0]
    excl = check_energy_balance(rec, p.model, p.mesh, exclude_intervals=(j - 1,))
    assert excl.gap < full.gap
    assert np.argmax(np.abs(full.interval_mismatch)) == j - 1


# ---------------------------------------------------------------------------
# global stability
# ---------------------------------------------------------------------------

def test_oracle_stability_certifies_brute_force_records(strip_problem, strip_record):
    res = check_global_stability(strip_record, strip_problem.model, strip_problem.mesh,
                                 level=ORACLE)
    assert res.result.verdict == "PASS"
    e0 = abs(strip_record.total_energy(0))
    assert res.worst_margin >= -1e-9 * (1.0 + e0)


def test_euler_level_flags_suboptimal_fields(strip_problem, strip_record):
    bad = doctor(strip_record)
    u = bad.fields[7]
    vals = u.values.copy()
    vals[u.topology.free_dofs] += 1e-3
    bad.fields[7] = BrokenField(u.topology, vals)
    res = check_global_stability(bad, strip_problem.model, strip_problem.mesh, level=EULER)
    assert res.result.verdict == "FAIL"
    assert "knot 7" in res.result.details


@pytest.mark.parametrize("dof", ["free", "constrained"])
def test_a_non_finite_field_fails_stability_and_balance(strip_problem, strip_record, dof):
    # every comparison with NaN is false, so a NaN must fail explicitly
    bad = doctor(strip_record)
    u = bad.fields[7]
    vals = u.values.copy()
    vals[getattr(u.topology, f"{dof}_dofs")[0]] = np.nan
    bad.fields[7] = BrokenField(u.topology, vals)
    p = strip_problem
    res = check_global_stability(bad, p.model, p.mesh, level=EULER)
    assert res.result.verdict == "FAIL"
    assert "knot 7" in res.result.details
    assert check_energy_balance(bad, p.model, p.mesh).result.verdict == "FAIL"


def test_certification_hierarchy_on_cooperative_instance(corpus_runs):
    # greedy stalls where only the pair pays off: the single-edge necessary
    # condition holds but the exhaustive check exposes the missed extension
    p, _ = corpus_runs["pair"]
    greedy = run_evolution(p.model, p.mesh, p.grid, p.initial_crack,
                           SearchStrategy(GREEDY))
    one_edge = check_global_stability(greedy, p.model, p.mesh, level=ONE_EDGE)
    assert one_edge.level_passed
    assert one_edge.result.verdict == "INCONCLUSIVE"  # necessary conditions only
    oracle = check_global_stability(greedy, p.model, p.mesh, level=ORACLE)
    assert oracle.result.verdict == "FAIL"
    assert oracle.violations
    knot, edges, margin = oracle.violations[0]
    assert set(edges) == {4, 11}
    assert margin < 0


def test_certificate_ordering(corpus_runs, strip_problem, strip_record):
    # oracle PASS implies the weaker levels pass on the same record
    for name in ("strip", "pair", "surface_pull"):
        p, rec = corpus_runs[name]
        oracle = check_global_stability(rec, p.model, p.mesh, level=ORACLE)
        assert oracle.result.verdict == "PASS"
        assert check_global_stability(rec, p.model, p.mesh, level=ONE_EDGE).level_passed
        assert check_global_stability(rec, p.model, p.mesh, level=EULER).level_passed
    # and a record failing a weak level fails every stronger one
    bad = doctor(strip_record)
    u = bad.fields[3]
    vals = u.values.copy()
    vals[u.topology.free_dofs] += 5e-2
    bad.fields[3] = BrokenField(u.topology, vals)
    bad.energies[3] = _recomputed_row(strip_problem, bad, 3)
    for level in (EULER, ONE_EDGE, ORACLE):
        assert not check_global_stability(bad, strip_problem.model, strip_problem.mesh,
                                          level=level).level_passed


def _recomputed_row(problem, record, i):
    from qsfrac.energy import surface_energy

    el, parts = elastic_energy(problem.model, problem.mesh, float(record.times[i]),
                               record.fields[i])
    es = surface_energy(problem.model.toughness, problem.mesh, record.cracks[i])
    return {"W": parts["W"], "Es": es, "F": parts["F"], "G": parts["G"], "total": el + es}


def test_oracle_refuses_oversized_instances(strip_problem, strip_record):
    with pytest.raises(AuditError, match="limit"):
        check_global_stability(strip_record, strip_problem.model, strip_problem.mesh,
                               level=ORACLE, max_oracle_edges=0)


# ---------------------------------------------------------------------------
# structure identity
# ---------------------------------------------------------------------------

def test_structure_zero_load(corpus_runs):
    p, rec = corpus_runs["zero_load"]
    res = check_structure(rec, p.model.boundary)
    assert res.result.verdict == "PASS"
    assert all(len(s) == 0 for s in res.jump_sets)


def test_structure_nucleation_opens_at_the_jump_knot(strip_problem, strip_record):
    res = check_structure(strip_record, strip_problem.model.boundary)
    assert res.result.verdict == "PASS"
    j = strip_record.jump_knots()[0]
    assert res.jump_sets[j].edge_ids == (4,)
    assert all(len(s) == 0 for s in res.jump_sets[:j])


def test_structure_flags_never_opening_edges(strip_problem, strip_record):
    bad = doctor(strip_record)
    # claim the edge cracked two knots early, while the stored fields are
    # still continuous there: the set identity must fail at those knots
    j = bad.jump_knots()[0]
    bad.cracks[j - 2] = CrackSet.of([4])
    bad.cracks[j - 1] = CrackSet.of([4])
    res = check_structure(bad, strip_problem.model.boundary)
    assert res.result.verdict == "FAIL"
    assert res.never_opened[j - 2] == (4,)
    assert f"knot {j - 2}" in res.result.details


LATE_PEAK = """
version = 1
mesh.nx = 2
mesh.ny = 1
mesh.width = 2.0
mesh.height = 1.0
mesh.dirichlet = left, right
mesh.brittle = rect: 1, 0, 1, 1
energy.lambda = 1e-3
toughness.weight = 0.05
boundary.psi = 0: 0; 0.5: x / 2; 1: 1e9 * x
body.force = 0: 0; 1: 0
surface.force = 0: 0; 1: 0
time.horizon = 0.5
time.knots = 9
"""


def test_structure_tolerance_follows_the_datum_of_each_knot():
    # the datum table peaks at 2e9 after the last knot; a tolerance from the
    # whole table (2.0) would call the opened crack never opened
    p = parse_config(LATE_PEAK).build_problem()
    rec = run_evolution(p.model, p.mesh, p.grid, p.initial_crack, p.strategy)
    assert rec.complete and rec.jump_knots()
    res = check_structure(rec, p.model.boundary)
    assert res.result.verdict == "PASS", res.result.details
    assert res.result.tolerances["jump"] == pytest.approx(2e-9)   # 1e-9 (1 + max |psi(0.5)|)


# ---------------------------------------------------------------------------
# duality certificates
# ---------------------------------------------------------------------------

def test_dual_certificate_zero_state():
    mesh = make_strip_mesh()
    model = make_model(mesh, psi=TimeTable.constant(0.0, mesh.n_vertices))
    u, _ = minimize_elastic(model, mesh, CrackSet.empty(), 0.5)
    cert = dual_certificate(model, mesh, CrackSet.empty(), 0.5, u)
    assert cert.annihilation_residual == 0.0
    assert cert.fenchel_gap == 0.0


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_dual_certificate_without_free_dofs(p):
    # every vertex pinned: the Gram solve of the projection is 0 x 0
    mesh = build_structured_mesh(1, 1, 1.0, 1.0, brittle="none")
    psi = TimeTable.build([(0.0, np.zeros(mesh.n_vertices)),
                           (1.0, mesh.vertices[:, 0])], mesh.n_vertices)
    model = make_model(mesh, psi=psi, lam=0.1, p=p)
    u, rep = minimize_elastic(model, mesh, CrackSet.empty(), 0.5)
    assert rep.n_free == 0
    cert = dual_certificate(model, mesh, CrackSet.empty(), 0.5, u)
    assert cert.annihilation_residual == 0.0 and cert.projection_norm == 0.0
    assert abs(cert.fenchel_gap) <= 1e-15 * (1.0 + abs(cert.primal_value))


def test_dual_certificate_at_solver_tolerance(strip_problem, strip_record):
    p, rec = strip_problem, strip_record
    for i in (0, 10, rec.jump_knots()[0], len(rec) - 1):
        cert = dual_certificate(p.model, p.mesh, rec.cracks[i], float(rec.times[i]),
                                rec.fields[i])
        assert cert.annihilation_residual <= 1e-8
        assert abs(cert.fenchel_gap) <= 1e-8 * (1.0 + abs(cert.primal_value))
        assert cert.post_residual <= 1e-12


def test_dual_certificate_quadratic_growth(strip_problem, strip_record):
    p, rec = strip_problem, strip_record
    i = len(rec) - 1
    u = rec.fields[i]
    rng = np.random.default_rng(31)
    v = np.zeros(u.topology.n_dofs)
    v[u.topology.free_dofs] = rng.normal(size=u.topology.n_free)
    v /= np.linalg.norm(v)
    deltas = np.logspace(-4, -2, 5)
    gaps, resids = [], []
    for d in deltas:
        cert = dual_certificate(p.model, p.mesh, rec.cracks[i], float(rec.times[i]),
                                BrokenField(u.topology, u.values + d * v))
        gaps.append(cert.fenchel_gap)
        resids.append(cert.annihilation_residual)
    slope_gap = np.polyfit(np.log(deltas), np.log(gaps), 1)[0]
    slope_res = np.polyfit(np.log(deltas), np.log(resids), 1)[0]
    assert abs(slope_gap - 2.0) <= 0.1
    assert abs(slope_res - 1.0) <= 0.1


def test_dual_certificate_bounds_the_suboptimality(strip_problem, strip_record):
    # the projected certificate proves: elastic(w) >= elastic(u) - gap for all
    # admissible w; spot-check against random admissible fields
    p, rec = strip_problem, strip_record
    i = 20
    u = rec.fields[i]
    t = float(rec.times[i])
    vals = u.values.copy()
    rng = np.random.default_rng(32)
    vals[u.topology.free_dofs] += 1e-3 * rng.normal(size=u.topology.n_free)
    ud = BrokenField(u.topology, vals)
    cert = dual_certificate(p.model, p.mesh, rec.cracks[i], t, ud)
    e_d, _ = elastic_energy(p.model, p.mesh, t, ud)
    for _ in range(20):
        w_vals = u.values.copy()
        w_vals[u.topology.free_dofs] += rng.normal(size=u.topology.n_free)
        e_w, _ = elastic_energy(p.model, p.mesh, t, BrokenField(u.topology, w_vals))
        assert e_w >= e_d - cert.fenchel_gap - 1e-12 * (1 + abs(e_w))


def test_dual_certificate_newton_instance(corpus_runs):
    p, rec = corpus_runs["quartic"]
    i = len(rec) - 1
    cert = dual_certificate(p.model, p.mesh, rec.cracks[i], float(rec.times[i]),
                            rec.fields[i])
    assert cert.annihilation_residual <= 1e-8
    assert abs(cert.fenchel_gap) <= 1e-8 * (1.0 + abs(cert.primal_value))


def _fresh_gram_solver(mesh, topo, use_mass):
    area = mesh.tri_area
    return _spd_solver(_FreeBlock(topo).matrix(_local_forms(mesh, area**2, area**2 if use_mass else 0.0)))


@pytest.fixture()
def empty_gram_memo(monkeypatch):
    monkeypatch.setattr(audit, "_gram_entry", (lambda: None, lambda: None, False, None))


def _certify_all(p, rec):
    return [dual_certificate(p.model, p.mesh, rec.cracks[i], float(rec.times[i]), rec.fields[i])
            for i in range(len(rec))]


def test_dual_certificate_through_the_gram_memo_is_bit_identical(monkeypatch, strip_problem,
                                                                  strip_record):
    # two knots of the cracked strip layout (dense Cholesky), two of a
    # notched 20 x 10 layout (sparse LU, above the dense limit), two of the
    # strip again, two under a model without the body term (lam = 0), one
    # with it, and the uncracked strip layout
    p, rec = strip_problem, strip_record
    j = rec.jump_knots()[0]
    no_body = dataclasses.replace(p.model, body=dataclasses.replace(p.model.body, lam=0.0))
    notched = parse_config(NOTCHED.format(nx=20, ny=10, knots=3, kind="greedy")).build_problem()
    topo = build_topology(notched.mesh, notched.initial_crack)
    rng = np.random.default_rng(33)
    notched_knots = []
    for t in (0.5, 1.0):
        vals = topo.dirichlet_values(notched.model.boundary.value(t))
        vals[topo.free_dofs] = rng.normal(size=topo.n_free)
        notched_knots.append((notched, notched.model, topo.crack, t, BrokenField(topo, vals)))
    assert topo.n_free > 200

    def knot(model, i):
        return p, model, rec.cracks[i], rec.times[i], rec.fields[i]

    calls = [knot(p.model, j), knot(p.model, j + 1), *notched_knots,
             knot(p.model, j + 2), knot(p.model, j + 3), knot(no_body, j + 4),
             knot(no_body, j + 5), knot(p.model, j + 6), knot(p.model, 0)]
    factored = []

    def certify():
        return [repr(dual_certificate(model, q.mesh, crack, float(t), u))
                for q, model, crack, t, u in calls]

    def counting(matrix):
        factored.append(matrix.shape)
        return _spd_solver(matrix)

    monkeypatch.setattr(audit, "_spd_solver", counting)
    cached = certify()
    assert len(factored) == 6
    monkeypatch.setattr(audit, "_gram_solver", _fresh_gram_solver)
    assert cached == certify()


def test_dual_certificates_factor_the_gram_once_per_crack_set(tmp_path, monkeypatch, empty_gram_memo,
                                                              strip_problem, strip_record):
    factored = []

    def counting(matrix):
        factored.append(matrix.shape)
        return _spd_solver(matrix)

    strip_record.save(tmp_path / "rec.json")
    loaded = EvolutionRecord.load(tmp_path / "rec.json", strip_problem.mesh, strip_problem.model)
    monkeypatch.setattr(audit, "_spd_solver", counting)
    for rec in (strip_record, loaded):
        factored.clear()
        _certify_all(strip_problem, rec)
        assert len(factored) == len(set(rec.cracks)) == 2


def test_the_gram_memo_keeps_no_layout_alive(tmp_path, strip_problem, strip_record):
    strip_record.save(tmp_path / "rec.json")
    rec = EvolutionRecord.load(tmp_path / "rec.json", strip_problem.mesh, strip_problem.model)
    _certify_all(strip_problem, rec)
    layout = weakref.ref(rec.fields[-1].topology)
    assert audit._gram_entry[0]() is layout()
    del rec
    gc.collect()
    assert layout() is None


def test_dual_certificates_from_racing_threads_match_a_serial_pass(strip_problem, strip_record):
    # four threads on two cores certify the knots of both layouts in four
    # orders, so the one-entry memo is replaced under them; a lost or mixed
    # entry would give some knot the other layout's factor
    p, rec = strip_problem, strip_record
    serial = [repr(c) for c in _certify_all(p, rec)]
    n = len(rec)
    orders = [range(n), range(n - 1, -1, -1), [*range(0, n, 2), *range(1, n, 2)],
              np.random.default_rng(34).permutation(n).tolist()]

    def certify(order):
        return {i: repr(dual_certificate(p.model, p.mesh, rec.cracks[i], float(rec.times[i]),
                                         rec.fields[i])) for i in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(certify, o) for o in orders * 2]]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert all(got[i] == serial[i] for i in got)


def test_dual_certificate_refuses_a_field_off_the_datum_of_its_time(lattice17):
    # knot 3's field at knot 2's time, on the same crack set: its pinned DOFs
    # hold psi(t_3), so it has no certificate at t_2, as it has no Euler
    # residual there
    p, rec = lattice17
    assert rec.cracks[2] == rec.cracks[3]
    for fn in (dual_certificate, euler_residual):
        with pytest.raises(ValueError, match="boundary datum"):
            fn(p.model, p.mesh, rec.cracks[2], float(rec.times[2]), rec.fields[3])


# ---------------------------------------------------------------------------
# one evaluation per knot
# ---------------------------------------------------------------------------

def _loaded_run(tmp_path_factory, name, knots, text=None):
    """The corpus instance's problem, or that of the config ``text``, and its
    record, saved and read back."""
    p = parse_config(text or config_text(name, knots)).build_problem()
    rec = run_evolution(p.model, p.mesh, p.grid, p.initial_crack, p.strategy, config_hash=p.config_hash)
    path = tmp_path_factory.mktemp(name) / "rec.json"
    rec.save(path)
    return p, EvolutionRecord.load(path, p.mesh, p.model)


@pytest.fixture(scope="module")
def lattice17(tmp_path_factory):
    return _loaded_run(tmp_path_factory, "lattice", 17)


@pytest.fixture(scope="module")
def quartic9(tmp_path_factory):
    return _loaded_run(tmp_path_factory, "quartic", 9)


def _gathers(monkeypatch):
    """Corner gathers counted per field object."""
    calls = Counter()
    gather = BrokenField.corner_values

    def counted(self):
        calls[id(self)] += 1
        return gather(self)

    monkeypatch.setattr(BrokenField, "corner_values", counted)
    return calls


def test_audit_record_gathers_each_knot_once(monkeypatch, lattice17):
    p, rec = lattice17
    calls = _gathers(monkeypatch)
    checks = ["balance", "stability", "certificates"]
    report = audit_record(rec, p.model, p.mesh, checks, level=ORACLE)
    assert [calls[id(u)] for u in rec.fields] == [1] * len(rec)
    assert [r.verdict for r in report.results] == ["PASS"] * 3
    # where each check builds its own evaluation, each knot is gathered per check
    calls.clear()
    check_energy_balance(rec, p.model, p.mesh)
    check_global_stability(rec, p.model, p.mesh, level=EULER)
    check_certificates(rec, p.model, p.mesh)
    assert [calls[id(u)] for u in rec.fields] == [3] * len(rec)


@pytest.mark.parametrize("run", ["lattice17", "quartic9"])
def test_audit_record_reports_what_the_public_checks_report(request, run):
    p, rec = request.getfixturevalue(run)
    shared = audit_record(rec, p.model, p.mesh, list(CHECKS), level=ORACLE)
    separate = AuditReport([
        check_irreversibility(rec),
        check_energy_balance(rec, p.model, p.mesh).result,
        check_global_stability(rec, p.model, p.mesh, level=ORACLE).result,
        check_structure(rec, p.model.boundary).result,
        check_certificates(rec, p.model, p.mesh),
    ])
    assert shared.to_text() == separate.to_text()
    assert json.dumps(shared.to_payload(), sort_keys=True) == json.dumps(separate.to_payload(), sort_keys=True)
    assert shared.ok(inconclusive_ok=False)


def test_audit_record_auto_level_is_the_oracle_on_a_small_instance(lattice17):
    p, rec = lattice17
    (auto,) = audit_record(rec, p.model, p.mesh, ["stability"]).results
    (capped,) = audit_record(rec, p.model, p.mesh, ["stability"], max_oracle_edges=0).results
    assert auto.name == "global_stability[oracle]" and capped.name == "global_stability[one_edge]"


@pytest.mark.parametrize("checks", [[], ["balance", "bogus"]])
def test_audit_record_refuses_an_empty_or_unknown_check_list(lattice17, checks):
    p, rec = lattice17
    with pytest.raises(AuditError, match="available"):
        audit_record(rec, p.model, p.mesh, checks)


def test_the_euler_residual_is_the_certificates_annihilation_residual(tmp_path_factory):
    for name in CORPUS:
        p, rec = _loaded_run(tmp_path_factory, name, 17)
        stab = check_global_stability(rec, p.model, p.mesh, level=EULER)
        certs = _certify_all(p, rec)
        assert stab.max_euler_residual == max(c.annihilation_residual for c in certs), name


def test_certificates_fail_naming_the_first_knot_off_the_solver_tolerance(lattice17):
    p, rec = lattice17
    bad = doctor(rec)
    for i in (5, 9):
        u = bad.fields[i]
        vals = u.values.copy()
        vals[u.topology.free_dofs] += 1e-3
        bad.fields[i] = BrokenField(u.topology, vals)
    res = check_certificates(bad, p.model, p.mesh)
    assert res.verdict == "FAIL"
    assert res.details.startswith("knot 5: annihilation residual ")
    assert res.margins["max_annihilation_residual"] > 1e-8


def test_certificates_fail_at_a_field_that_is_not_admissible(lattice17):
    p, rec = lattice17
    bad = doctor(rec)
    bad.fields[2] = rec.fields[3]
    res = check_certificates(bad, p.model, p.mesh)
    assert res.verdict == "FAIL"
    assert res.details == "knot 2: field does not match the boundary datum at time t"
    assert res.margins["max_annihilation_residual"] == np.inf


def test_certificates_raise_a_warning_of_the_certificate_arithmetic(monkeypatch, lattice17):
    # only the knot's own numbers overflow quietly: an overflow in the
    # conjugate densities reaches a caller that raises warnings
    p, rec = lattice17
    monkeypatch.setattr(audit, "bulk_conjugate_density", lambda bulk, tri, sig: np.full(len(tri), 1e308) * 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow"):
            check_certificates(rec, p.model, p.mesh)
        with pytest.raises(RuntimeWarning, match="overflow"):
            audit_record(rec, p.model, p.mesh, ["balance", "stability", "certificates"])


# ---------------------------------------------------------------------------
# stability between knots
# ---------------------------------------------------------------------------

# the lattice's datum kinked at t = 0.5, inside the run of its first crack set
KINKED_LATTICE = config_text("lattice", 17).replace("boundary.psi = 0: 0; 1: x / 3",
                                                    "boundary.psi = 0: 0; 0.5: x / 4; 1: x / 3")


@pytest.fixture(scope="module")
def kinked17(tmp_path_factory):
    return _loaded_run(tmp_path_factory, "kinked", 17, KINKED_LATTICE)


@pytest.fixture(scope="module")
def unconfined9(tmp_path_factory):
    # no confinement and a floating middle column once every crackable edge
    # is cracked: the all-open space is refused; greedy, so no run solves it
    text = config_text("lattice", 9).replace("energy.lambda = 1e-3", "energy.lambda = 0")
    return _loaded_run(tmp_path_factory, "unconfined", 9, text + "strategy.kind = greedy\n")


def _searched_times(monkeypatch):
    """The times ``_Search.rivals`` is called at, in order."""
    times = []
    rivals = _Search.rivals

    def counted(self, base, t, stored, tol=None):
        times.append(t)
        return rivals(self, base, t, stored, tol)

    monkeypatch.setattr(_Search, "rivals", counted)
    return times


def _at_every_knot(monkeypatch, rec, p, level):
    """The stability check with every knot its own run: a search at every knot."""
    with monkeypatch.context() as m:
        m.setattr(audit, "_runs", lambda record, breaks: [(i, i) for i in range(len(record))])
        return check_global_stability(rec, p.model, p.mesh, level=level)


def _report_bytes(res):
    report = AuditReport([res.result])
    return report.to_text(), json.dumps(report.to_payload(), sort_keys=True)


@pytest.mark.parametrize("level", [ONE_EDGE, ORACLE])
def test_stability_searches_the_ends_of_runs_split_at_a_load_breakpoint(monkeypatch, kinked17, level):
    # the crack set of knots 6-16 spans the kink at t = 0.5 (knot 8): its run
    # splits there, and each run is searched at its two end knots only
    p, rec = kinked17
    assert rec.jump_knots() == [6] and rec.times[8] == 0.5
    searched = _searched_times(monkeypatch)
    res = check_global_stability(rec, p.model, p.mesh, level=level)
    assert res.stable_runs == [(0, 5), (6, 8), (8, 16)]
    # knot 8 ends one run and begins the next; its first search serves both
    assert searched == [rec.times[k] for k in (0, 5, 6, 8, 16)]
    searched.clear()
    ref = _at_every_knot(monkeypatch, rec, p, level)
    assert searched == list(rec.times) and ref.stable_runs == []
    assert (res.level_passed, res.worst_margin, res.worst_knot, res.violations) == \
        (ref.level_passed, ref.worst_margin, ref.worst_knot, ref.violations)
    assert _report_bytes(res) == _report_bytes(ref)


@pytest.mark.parametrize("run, level", [("quartic9", ORACLE), ("unconfined9", ONE_EDGE)])
def test_stability_searches_every_knot_where_margins_need_not_be_concave(monkeypatch, request, run, level):
    # p = 4, and no confinement with a piece of the all-open body that has
    # no Dirichlet constraint, keep the search at every knot
    p, rec = request.getfixturevalue(run)
    assert len(set(rec.cracks)) == 1 or p.model.p != 2.0
    searched = _searched_times(monkeypatch)
    res = check_global_stability(rec, p.model, p.mesh, level=level)
    assert searched == list(rec.times) and res.stable_runs == []
    assert res.level_passed


def test_a_loaded_piece_that_floats_in_the_open_space_is_certified_between_knots(monkeypatch, tmp_path_factory):
    # cracking frees the loaded right piece of surface_pull: the open space
    # scores nothing, yet lam > 0 keeps every K_ff positive definite
    p, rec = _loaded_run(tmp_path_factory, "surface_pull", 17)
    assert not _Search(p.model, p.mesh).solver.scores
    res = check_global_stability(rec, p.model, p.mesh, level=ORACLE)
    assert res.stable_runs == [(0, 10), (11, 16)]
    assert _report_bytes(res) == _report_bytes(_at_every_knot(monkeypatch, rec, p, ORACLE))


@pytest.mark.parametrize("raised, certified", [(0.3, True), (0.6, False)])
def test_an_end_margin_inside_the_guard_band_falls_back_to_a_search_at_every_knot(monkeypatch, lattice17,
                                                                                   raised, certified):
    # the stored totals of the run 8-16 sit ``raised`` tie tolerances above
    # the fields' own: no knot violates, and the guard band reaches 1 -
    # ``raised`` tie tolerances below them.  Each end's own crack set lies
    # above the band at 0.3 and inside it at 0.6.  Knot 3 sits 2 tie
    # tolerances above, a violation no end of its run shows
    p, rec = lattice17
    assert rec.jump_knots() == [8]
    bad = doctor(rec)
    for k, by in [(3, 2.0)] + [(k, raised) for k in range(8, 17)]:
        e = bad.energies[k]["total"]
        bad.energies[k]["total"] = e + by * tie_tolerance(e)
    searched = _searched_times(monkeypatch)
    res = check_global_stability(bad, p.model, p.mesh, level=ORACLE)
    if certified:
        assert res.stable_runs == [(8, 16)] and searched == list(rec.times[:9]) + [rec.times[16]]
    else:
        assert res.stable_runs == [] and searched == list(rec.times)
    assert res.result.verdict == "FAIL" and res.result.details.startswith("knot 3: ")
    assert [k for k, _, _ in res.violations] == [3]
    ref = _at_every_knot(monkeypatch, bad, p, ORACLE)
    assert (res.worst_margin, res.worst_knot, res.violations) == (ref.worst_margin, ref.worst_knot, ref.violations)
    assert _report_bytes(res) == _report_bytes(ref)


# ---------------------------------------------------------------------------
# stress/deformation continuity probe
# ---------------------------------------------------------------------------

def test_probe_static_loads_all_zero():
    mesh = make_strip_mesh()
    model = make_model(mesh, psi=TimeTable.constant(0.0, mesh.n_vertices),
                       kappa=Toughness("isotropic", (1e9,)))
    rec = run_evolution(model, mesh, TimeGrid.uniform(1.0, 9), CrackSet.empty(),
                        SearchStrategy(BRUTE_FORCE))
    probe = stress_continuity_probe(rec, model, mesh, t_index=8, window=4)
    assert probe.verdict == "PASS"
    for row in probe.rows:
        for col in ("stress_dual", "gradient", "body", "trace"):
            assert row[col] == 0.0


def test_probe_linear_ramp_exactly_linear(crackfree_run):
    p, rec = crackfree_run
    probe = stress_continuity_probe(rec, p.model, p.mesh, t_index=50, window=5)
    assert probe.verdict == "PASS"
    for col in ("stress_dual", "gradient", "body"):
        d = [row[col] for row in probe.rows[:3]]
        assert abs(d[1] - 0.5 * (d[0] + d[2])) <= 1e-10


def test_probe_straddling_a_jump_is_inconclusive(strip_problem, strip_record):
    j = strip_record.jump_knots()[0]
    probe = stress_continuity_probe(strip_record, strip_problem.model,
                                    strip_problem.mesh, t_index=j + 2, window=5)
    assert probe.verdict == "INCONCLUSIVE"
    assert "hypothesis" in probe.result.details
