import numpy as np
import pytest

from qsfrac import evolution, minimize
from qsfrac.audit import ORACLE, check_global_stability
from qsfrac.broken import CrackSet
from qsfrac.config import parse_config
from qsfrac.corpus import build_config
from qsfrac.energy import (
    BodyPotential,
    BulkLaw,
    EnergyModel,
    SurfacePotential,
    TimeTable,
    Toughness,
    elastic_energy,
    surface_energy,
)
from qsfrac.evolution import (
    BRUTE_FORCE,
    GREEDY,
    GREEDY_WITH_PAIRS,
    EvolutionError,
    EvolutionRecord,
    SearchStrategy,
    TimeGrid,
    _Search,
    check_initial_minimality,
    incremental_step,
    left_envelope,
    right_envelope,
    run_evolution,
)
from qsfrac.mesh import crackable_edges
from qsfrac.minimize import ElasticSolver

from conftest import NOTCHED, make_model, make_strip_mesh


def crossing_time(model, mesh, crack, lo=0.0, hi=1.0, tol=1e-10):
    """Bisection of the total-energy crossing between the uncracked state and
    the given crack; the independent nucleation-threshold oracle."""
    solver = ElasticSolver(model, mesh)
    es = surface_energy(model.toughness, mesh, crack)

    def diff(t):
        _, r0 = solver.solve(CrackSet.empty(), t)
        _, r1 = solver.solve(crack, t)
        return r0.energy - (r1.energy + es)

    assert diff(lo) < 0 < diff(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if diff(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# initial minimality
# ---------------------------------------------------------------------------

def test_initial_minimality_zero_state_passes():
    mesh = make_strip_mesh()
    model = make_model(mesh, psi=TimeTable.constant(0.0, mesh.n_vertices))
    solver = ElasticSolver(model, mesh)
    u0, _ = solver.solve(CrackSet.empty(), 0.0)
    res = check_initial_minimality(model, mesh, CrackSet.empty(), u0,
                                   SearchStrategy(BRUTE_FORCE))
    assert res.passed and res.exhaustive
    assert res.margin >= 0.0


def test_initial_minimality_fails_far_above_threshold():
    mesh = make_strip_mesh()
    model = make_model(mesh)
    tstar = crossing_time(model, mesh, CrackSet.of([4]))
    t = min(1.0, 2.0 * tstar)
    solver = ElasticSolver(model, mesh)
    u0, _ = solver.solve(CrackSet.empty(), t)
    res = check_initial_minimality(model, mesh, CrackSet.empty(), u0,
                                   SearchStrategy(BRUTE_FORCE), t=t)
    assert not res.passed
    assert res.witness_crack == CrackSet.of([4])
    e0, _ = elastic_energy(model, mesh, t, u0)
    assert res.witness_energy == pytest.approx(e0 + res.margin, rel=1e-12)
    assert res.margin < 0


def test_initial_minimality_full_crack_with_huge_toughness():
    mesh = make_strip_mesh()
    model = make_model(mesh, kappa=Toughness("isotropic", (1e9,)),
                       psi=TimeTable.constant(0.0, mesh.n_vertices))
    solver = ElasticSolver(model, mesh)
    crack = CrackSet.of([4])
    u0, _ = solver.solve(crack, 0.0)
    res = check_initial_minimality(model, mesh, crack, u0, SearchStrategy(BRUTE_FORCE))
    assert res.passed  # the paid surface energy is sunk; no extension helps


# ---------------------------------------------------------------------------
# incremental step
# ---------------------------------------------------------------------------

def test_incremental_step_respects_the_energy_crossing():
    mesh = make_strip_mesh()
    model = make_model(mesh)
    tstar = crossing_time(model, mesh, CrackSet.of([4]))
    strategy = SearchStrategy(BRUTE_FORCE)
    _, below = incremental_step(model, mesh, CrackSet.empty(), 0.9 * tstar, strategy)
    assert below == CrackSet.empty()
    _, above = incremental_step(model, mesh, CrackSet.empty(), 1.1 * tstar, strategy)
    assert above == CrackSet.of([4])


def test_incremental_step_huge_toughness_never_cracks():
    mesh = make_strip_mesh()
    model = make_model(mesh, kappa=Toughness("isotropic", (1e9,)))
    _, crack = incremental_step(model, mesh, CrackSet.empty(), 1.0,
                                SearchStrategy(BRUTE_FORCE))
    assert crack == CrackSet.empty()


def test_incremental_step_keeps_previous_crack():
    mesh = make_strip_mesh(ny=2)
    model = make_model(mesh, kappa=Toughness("isotropic", (1e9,)))
    ids = [int(e) for e in crackable_edges(mesh)]
    prev = CrackSet.of(ids[:1])
    _, crack = incremental_step(model, mesh, prev, 0.5, SearchStrategy(BRUTE_FORCE))
    assert crack == prev  # irreversible even when energetically unfavorable


def test_brute_force_edge_cap():
    mesh = make_strip_mesh(ny=2, brittle="all")
    model = make_model(mesh)
    with pytest.raises(EvolutionError, match="limit"):
        incremental_step(model, mesh, CrackSet.empty(), 0.5,
                         SearchStrategy(BRUTE_FORCE, max_bruteforce_edges=3))


BAND = """
version = 1
mesh.nx = 4
mesh.ny = 2
mesh.width = 2.0
mesh.height = 1.0
mesh.dirichlet = left, right
mesh.brittle = rect: 0.5, 0, 1.5, 1
energy.lambda = 1e-3
toughness.weight = 0.05
boundary.psi = 0: 0; 1: x / 2
strategy.max_edges = 12
time.horizon = 1.0
time.knots = 9
"""


def test_brute_force_on_twelve_edges_solves_few_crack_sets(monkeypatch):
    # every edge of a 2 x 2 block of cells is brittle; the whole run, and
    # then the whole oracle audit, each solve fewer crack sets than one
    # enumeration of the 2^12 supersets of a single knot would
    p = parse_config(BAND).build_problem()
    assert len(crackable_edges(p.mesh)) == 12
    solved = []
    solve = ElasticSolver.solve

    def counted(self, crack, *args, **kwargs):
        solved.append(crack)
        return solve(self, crack, *args, **kwargs)

    monkeypatch.setattr(ElasticSolver, "solve", counted)
    rec = run_evolution(p.model, p.mesh, p.grid, p.initial_crack, p.strategy)
    n_run = len(solved)
    res = check_global_stability(rec, p.model, p.mesh, level=ORACLE)
    assert rec.jump_knots() and res.result.verdict == "PASS", res.result.details
    assert n_run < 2 ** 12 and len(solved) - n_run < 2 ** 12


def test_exact_search_on_the_notched_strip_scores_like_the_solve(tmp_path, monkeypatch):
    # brute force over the notch column of a 900-triangle strip: the record
    # passes the oracle audit and keeps its bytes when every candidate is
    # solved instead of scored from the open space
    p = parse_config(NOTCHED.format(nx=30, ny=15, knots=5, kind=BRUTE_FORCE)).build_problem()
    assert ElasticSolver(p.model, p.mesh).scores

    def record_bytes(name):
        rec = run_evolution(p.model, p.mesh, p.grid, p.initial_crack, p.strategy,
                            config_hash=p.config_hash)
        rec.save(tmp_path / name)
        return rec, (tmp_path / name).read_bytes()

    rec, scored = record_bytes("scored.json")
    assert rec.jump_knots()
    res = check_global_stability(rec, p.model, p.mesh, level=ORACLE)
    assert res.result.verdict == "PASS", res.result.details
    monkeypatch.setattr(_Search, "total", lambda self, crack, t: self._scored(crack, t)[1])
    assert record_bytes("solved.json")[1] == scored


def test_greedy_solves_only_the_state_and_the_tie_window(monkeypatch):
    # per later knot the greedy solves its current state and the run re-solves
    # the chosen one; every other candidate is scored without a solve
    p = parse_config(NOTCHED.format(nx=20, ny=10, knots=17, kind=GREEDY)).build_problem()
    solves, window = [], []
    solve = ElasticSolver.solve

    def counted_solve(self, crack, *args, **kwargs):
        solves.append(crack)
        return solve(self, crack, *args, **kwargs)

    def counted_map(fn, items):
        window.extend(items)
        return [fn(x) for x in items]

    monkeypatch.setattr(ElasticSolver, "solve", counted_solve)
    monkeypatch.setattr(evolution, "parallel_map", counted_map)
    rec = run_evolution(p.model, p.mesh, p.grid, p.initial_crack, p.strategy)
    assert rec.jump_knots()
    # the tie-window re-solves: the initial check's own state
    assert window == [p.initial_crack]
    assert len(solves) == 1 + 2 * (len(p.grid) - 1) + len(window)


@pytest.mark.parametrize("name", ["strip", "quartic"])
def test_one_search_solves_and_scores_at_the_run_tolerance(name, monkeypatch):
    # the run builds exactly one solver, at the run's tolerance, and its
    # initial solve, its initial check and every step solve and score on it
    p = build_config(name, 9).build_problem()
    calls, solvers = [], []
    init, solve, score = ElasticSolver.__init__, ElasticSolver.solve, ElasticSolver.score

    def counted_init(self, *args):
        solvers.append(self)
        init(self, *args)

    def counted(kind, method):
        return lambda self, crack, t: calls.append((kind, self)) or method(self, crack, t)

    monkeypatch.setattr(ElasticSolver, "__init__", counted_init)
    monkeypatch.setattr(ElasticSolver, "solve", counted("solve", solve))
    monkeypatch.setattr(ElasticSolver, "score", counted("score", score))
    run_evolution(p.model, p.mesh, p.grid, p.initial_crack, p.strategy, solver_tol=1e-7)
    assert len(solvers) == 1 and solvers[0].tol == 1e-7
    assert {solver for _, solver in calls} == set(solvers)
    assert {kind for kind, _ in calls} == ({"solve", "score"} if name == "strip" else {"solve"})


def test_brute_force_run_solves_the_initial_state_the_rivals_and_each_step(monkeypatch):
    # one solve of the initial state, one per candidate the searches send
    # through ``parallel_map``, and one per later knot, of the chosen state
    # (``test_greedy_solves_only_the_state_and_the_tie_window`` pins the
    # greedy count: two per later knot)
    p = build_config("lattice", 9).build_problem()
    assert p.strategy.kind == BRUTE_FORCE
    solves, items = [], []
    solve = ElasticSolver.solve
    monkeypatch.setattr(ElasticSolver, "solve", lambda self, *a: solves.append(a) or solve(self, *a))
    monkeypatch.setattr(evolution, "parallel_map", lambda fn, xs: items.extend(xs) or [fn(x) for x in xs])
    rec = run_evolution(p.model, p.mesh, p.grid, p.initial_crack, p.strategy)
    assert rec.jump_knots() and items
    assert len(solves) == 1 + len(items) + (len(p.grid) - 1)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_zero_load_run_is_static(corpus_runs):
    _, rec = corpus_runs["zero_load"]
    assert rec.jump_knots() == []
    totals = [rec.total_energy(i) for i in range(len(rec))]
    assert np.allclose(totals, 0.0, atol=1e-15)
    for u in rec.fields:
        assert np.allclose(u.values, 0.0, atol=1e-12)


def test_strip_cracks_once_at_first_knot_past_threshold(strip_problem, strip_record):
    p, rec = strip_problem, strip_record
    jumps = rec.jump_knots()
    assert len(jumps) == 1
    j = jumps[0]
    tstar = crossing_time(p.model, p.mesh, CrackSet.of([4]))
    assert rec.times[j] >= tstar - 1e-9
    assert rec.times[j - 1] < tstar
    # the crack never disappears
    assert all(rec.cracks[i] == CrackSet.of([4]) for i in range(j, len(rec)))


def test_halving_the_grid_moves_nucleation_by_at_most_one_spacing():
    recs = {}
    for knots in (33, 65):
        p = build_config("strip", knots).build_problem()
        recs[knots] = (p, run_evolution(p.model, p.mesh, p.grid, p.initial_crack, p.strategy))
    t_coarse = recs[33][1].times[recs[33][1].jump_knots()[0]]
    t_fine = recs[65][1].times[recs[65][1].jump_knots()[0]]
    dt_coarse = recs[33][0].grid.knots[1] - recs[33][0].grid.knots[0]
    assert abs(t_coarse - t_fine) <= dt_coarse + 1e-12


def test_record_invariants(strip_problem, strip_record):
    p, rec = strip_problem, strip_record
    from qsfrac.energy import elastic_energy

    for i in range(1, len(rec)):
        assert rec.cracks[i - 1].issubset(rec.cracks[i])
    for i in range(len(rec)):
        el, _ = elastic_energy(p.model, p.mesh, float(rec.times[i]), rec.fields[i])
        es = surface_energy(p.model.toughness, p.mesh, rec.cracks[i])
        assert abs(el + es - rec.total_energy(i)) <= 1e-12 * (1 + abs(el + es))


def test_run_requires_initial_minimality_unless_overridden():
    mesh = make_strip_mesh()
    # start already above the nucleation threshold at t = 0
    psi = TimeTable.build([(0.0, 0.6 * mesh.vertices[:, 0]),
                           (1.0, 0.8 * mesh.vertices[:, 0])], mesh.n_vertices)
    model = make_model(mesh, psi=psi)
    grid = TimeGrid.uniform(1.0, 5)
    with pytest.raises(EvolutionError, match="not minimal"):
        run_evolution(model, mesh, grid, CrackSet.empty(), SearchStrategy(BRUTE_FORCE))
    rec = run_evolution(model, mesh, grid, CrackSet.empty(), SearchStrategy(BRUTE_FORCE),
                        require_initial_minimality=False)
    assert any("override" in a for a in rec.annotations)
    assert rec.cracks[1] == CrackSet.of([4])  # cracks at the very next knot


def test_step_failure_yields_partial_record(monkeypatch):
    p = build_config("strip", 9).build_problem()
    orig = ElasticSolver.solve

    def failing(self, crack, t):
        if t > 0.5:
            raise RuntimeError("synthetic failure")
        return orig(self, crack, t)

    monkeypatch.setattr(ElasticSolver, "solve", failing)
    with pytest.raises(EvolutionError) as err:
        run_evolution(p.model, p.mesh, p.grid, p.initial_crack, p.strategy)
    partial = err.value.partial_record
    assert partial is not None
    assert not partial.complete
    assert 0 < len(partial) < len(p.grid)


def test_zero_confinement_annotated():
    mesh = make_strip_mesh()
    model = make_model(mesh, lam=0.0, kappa=Toughness("isotropic", (1e9,)))
    rec = run_evolution(model, mesh, TimeGrid.uniform(1.0, 5), CrackSet.empty(),
                        SearchStrategy(BRUTE_FORCE))
    assert any("non-conforming" in a for a in rec.annotations)


# ---------------------------------------------------------------------------
# strategies against each other
# ---------------------------------------------------------------------------

def test_greedy_never_beats_brute_force(corpus_runs):
    p, brute = corpus_runs["pair"]
    greedy = run_evolution(p.model, p.mesh, p.grid, p.initial_crack,
                           SearchStrategy(GREEDY))
    pairs = run_evolution(p.model, p.mesh, p.grid, p.initial_crack,
                          SearchStrategy(GREEDY_WITH_PAIRS))
    for i in range(len(brute)):
        assert greedy.total_energy(i) >= brute.total_energy(i) - 1e-12
        assert pairs.total_energy(i) == pytest.approx(brute.total_energy(i), abs=1e-12)
        assert pairs.cracks[i] == brute.cracks[i]
    # the cooperative window exists: greedy misses the pair nucleation entirely
    assert greedy.jump_knots() == []
    assert brute.jump_knots() != []
    assert greedy.certification == "single-edge-stable"
    assert brute.certification == "exhaustive"


def test_scaling_consistency(strip_problem, strip_record):
    # scaling stiffness, confinement, loads and toughness by c scales every
    # recorded energy by c and leaves the selected crack sets unchanged
    p, rec = strip_problem, strip_record
    c = 3.7
    m = p.model
    scaled = EnergyModel(
        bulk=BulkLaw(p=m.bulk.p, mu=c * np.asarray(m.bulk.mu), epsilon=m.bulk.epsilon),
        toughness=Toughness("isotropic", (c * m.toughness.weights[0],)),
        body=BodyPotential(TimeTable(m.body.table.times, c * m.body.table.samples),
                           lam=c * m.body.lam, q=m.body.q),
        surface=SurfacePotential(TimeTable(m.surface.table.times, c * m.surface.table.samples),
                                 r=m.surface.r),
        boundary=m.boundary,
    )
    rec_c = run_evolution(scaled, p.mesh, p.grid, p.initial_crack, p.strategy)
    for i in range(len(rec)):
        assert rec_c.cracks[i] == rec.cracks[i]
        assert rec_c.total_energy(i) == pytest.approx(c * rec.total_energy(i), rel=1e-11)


def test_competing_interfaces_resolve_deterministically(corpus_runs):
    # two near-identical columns compete; repeated runs agree exactly and the
    # winner is one whole column (the triangulation slightly favors one side)
    p, rec = corpus_runs["lattice"]
    p2 = build_config("lattice", 64).build_problem()
    rec2 = run_evolution(p2.model, p2.mesh, p2.grid, p2.initial_crack, p2.strategy)
    assert [c.edge_ids for c in rec.cracks] == [c.edge_ids for c in rec2.cracks]
    j = rec.jump_knots()[0]
    mids = p.mesh.edge_midpoint[list(rec.cracks[j].edge_ids)]
    assert len(set(mids[:, 0])) == 1  # a single column, cut top to bottom


def test_brute_force_tie_breaking_order():
    # controlled energies: within the tie window the search prefers fewer
    # cracked edges, then the lexicographically smallest edge-id set
    from qsfrac.evolution import _Search

    mesh = make_strip_mesh(ny=2)
    model = make_model(mesh)
    search = _Search(model, mesh, SearchStrategy(BRUTE_FORCE))
    ids = [int(e) for e in crackable_edges(mesh)]
    e1, e2 = sorted(ids)[:2]

    fake = {(): 1.0, (e1,): 1.0 - 1e-12, (e2,): 1.0 - 2e-12, (e1, e2): 1.0 - 3e-12}
    search.total = lambda crack, t: fake[crack.edge_ids]
    assert search._brute(CrackSet.empty(), 0.5) == CrackSet.empty()

    fake = {(): 1.0, (e1,): 0.5 + 1e-12, (e2,): 0.5, (e1, e2): 0.5 + 2e-12}
    search.total = lambda crack, t: fake[crack.edge_ids]
    assert search._brute(CrackSet.empty(), 0.5) == CrackSet.of([e1])

    fake = {(): 1.0, (e1,): 0.9, (e2,): 0.5, (e1, e2): 0.5 - 1e-12}
    search.total = lambda crack, t: fake[crack.edge_ids]
    assert search._brute(CrackSet.empty(), 0.5) == CrackSet.of([e2])


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

def test_envelopes_of_constant_record_are_identity(corpus_runs):
    p, rec = corpus_runs["zero_load"]
    left = left_envelope(rec, p.model, p.mesh)
    right = right_envelope(rec, p.model, p.mesh)
    for out in (left, right):
        assert [c.edge_ids for c in out.cracks] == [c.edge_ids for c in rec.cracks]
        for i in range(len(rec)):
            assert out.total_energy(i) == rec.total_energy(i)


def test_left_envelope_moves_the_jump(strip_problem, strip_record):
    p, rec = strip_problem, strip_record
    j = rec.jump_knots()[0]
    left = left_envelope(rec, p.model, p.mesh)
    assert left.cracks[j] == rec.cracks[j - 1]
    assert left.cracks[j + 1] == rec.cracks[j + 1]
    for i in range(len(rec)):
        if i != j:
            assert left.total_energy(i) == pytest.approx(rec.total_energy(i), rel=1e-14)
    # left replaces the state by the minimizer on the smaller crack, which has
    # larger total energy at the jump knot (that is why the jump happened)
    assert left.total_energy(j) >= rec.total_energy(j) - 1e-12


def test_envelope_sandwich(strip_problem, strip_record):
    p, rec = strip_problem, strip_record
    left = left_envelope(rec, p.model, p.mesh)
    right = right_envelope(rec, p.model, p.mesh)
    for i in range(len(rec)):
        assert left.cracks[i].issubset(rec.cracks[i])
        assert rec.cracks[i].issubset(right.cracks[i])


def test_envelope_composition_runs(strip_problem, strip_record):
    p, rec = strip_problem, strip_record
    both = right_envelope(left_envelope(rec, p.model, p.mesh), p.model, p.mesh)
    assert len(both) == len(rec)


# ---------------------------------------------------------------------------
# record serialization
# ---------------------------------------------------------------------------

def test_record_roundtrip_bit_exact(tmp_path, strip_problem, strip_record):
    p, rec = strip_problem, strip_record
    path1 = tmp_path / "a.json"
    path2 = tmp_path / "b.json"
    rec.save(path1)
    rec2 = EvolutionRecord.load(path1, p.mesh, p.model)
    rec2.save(path2)
    assert path1.read_bytes() == path2.read_bytes()
    for i in range(len(rec)):
        assert np.array_equal(rec.fields[i].values, rec2.fields[i].values)
        assert rec.cracks[i] == rec2.cracks[i]
        assert rec.energies[i] == rec2.energies[i]


def test_record_save_writes_the_sorted_unindented_payload(tmp_path, strip_record):
    import io
    import json

    path = tmp_path / "rec.json"
    strip_record.save(path)
    text = json.dumps(strip_record.to_payload(), sort_keys=True) + "\n"
    assert path.read_bytes() == text.encode()
    assert text.count("\n") == 1
    # the same bytes as the streaming encoder writes chunk by chunk
    stream = io.StringIO()
    json.dump(strip_record.to_payload(), stream, sort_keys=True)
    assert stream.getvalue() + "\n" == text


def test_record_load_builds_no_solve_structure(tmp_path, monkeypatch, strip_problem, strip_record):
    # loading reads DOF layouts only: no stiffness is assembled or factored
    def refuse(*args, **kwargs):
        raise AssertionError("EvolutionRecord.load built a solve structure")

    monkeypatch.setattr(minimize._CrackData, "__init__", refuse)
    path1, path2 = tmp_path / "a.json", tmp_path / "b.json"
    strip_record.save(path1)
    EvolutionRecord.load(path1, strip_problem.mesh, strip_problem.model).save(path2)
    assert path1.read_bytes() == path2.read_bytes()


def test_record_csv_columns(tmp_path, strip_record):
    path = tmp_path / "trace.csv"
    strip_record.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,W,Es,F,G,E_total,crack_length,dof_count"
    assert len(lines) == len(strip_record) + 1
    row = lines[1].split(",")
    assert len(row) == 8
    float(row[0])  # parseable full-precision values
    j = strip_record.jump_knots()[0]
    crack_len = [float(l.split(",")[6]) for l in lines[1:]]
    assert crack_len[j - 1] == 0.0 and crack_len[j] == 1.0


def test_record_format_version_checked(tmp_path, strip_problem, strip_record):
    import json

    p = strip_problem
    path = tmp_path / "rec.json"
    strip_record.save(path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="format version"):
        EvolutionRecord.load(path, p.mesh, p.model)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.1, 0.5]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.5]))
    g = TimeGrid.uniform(2.0, 5)
    assert g.horizon == 2.0 and len(g) == 5


def test_debond_releases_the_clamped_edge(corpus_runs):
    # the crack is a Dirichlet boundary edge: past the threshold the clamp is
    # released and the trace departs from the boundary datum
    from qsfrac.broken import jump_across_edge
    from qsfrac.mesh import BoundaryLabel

    p, rec = corpus_runs["debond"]
    j = rec.jump_knots()[0]
    (edge,) = rec.cracks[-1].edge_ids
    assert p.mesh.boundary_label[edge] == BoundaryLabel.DIRICHLET
    psi = p.model.boundary.value(float(rec.times[j]))
    ja, jb = jump_across_edge(rec.fields[j], edge, psi)
    assert max(abs(ja), abs(jb)) > 0.1  # the released side visibly lets go
