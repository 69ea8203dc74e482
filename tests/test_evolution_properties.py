"""Property tests of the crack search: the extension enumerator, the tie
rule, branch and bound against enumeration, brute force against the oracle
audit and the greedy strategies, and the record's save/load round trip, over
random small meshes, brittle rectangles and load tables."""

import functools
import itertools
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsfrac.audit import EULER, ONE_EDGE, ORACLE, check_global_stability
from qsfrac.broken import CrackSet
from qsfrac.energy import TimeTable, Toughness, total_energy
from qsfrac.evolution import (
    BRUTE_FORCE,
    GREEDY,
    GREEDY_WITH_PAIRS,
    EvolutionRecord,
    SearchStrategy,
    TimeGrid,
    _first_min,
    _Search,
    check_initial_minimality,
    extensions,
    incremental_step,
    run_evolution,
    tie_tolerance,
)
from qsfrac.mesh import MeshError, build_structured_mesh, crackable_edges

from conftest import make_model

_LABELINGS = (
    {"dirichlet": "all"},
    {"dirichlet": "left, right"},
    {"dirichlet": "left", "surface": "right"},
    {"dirichlet": "bottom", "surface": "top"},
)
_KNOTS = 5


# ---------------------------------------------------------------------------
# the enumerator and the tie rule
# ---------------------------------------------------------------------------

@given(base=st.sets(st.integers(0, 9), max_size=4),
       edges=st.sets(st.integers(10, 16), max_size=6),
       sizes=st.sets(st.integers(0, 7)))
@settings(max_examples=100, deadline=None)
def test_extensions_enumerate_each_subset_once_in_size_then_lexicographic_order(base, edges, sizes):
    base, edges, sizes = CrackSet.of(base), sorted(edges), sorted(sizes)
    out = extensions(base, edges, sizes)
    added = [tuple(e for e in c.edge_ids if e not in base) for c in out]
    expected = sorted((s for k in sizes for s in itertools.combinations(edges, k)),
                      key=lambda s: (len(s), s))
    assert added == expected
    assert len(set(out)) == len(out)
    assert all(base.issubset(c) for c in out)
    if 0 in sizes:
        assert out[0] == base
    else:
        assert base not in out


@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12)
       .map(lambda xs: [x + k * 1e-11 for k, x in enumerate(xs)]))
@settings(max_examples=100, deadline=None)
def test_first_min_is_argmin_then_first_within_the_tie_window(energies):
    best = int(np.argmin(energies))
    window = energies[best] + tie_tolerance(energies[best])
    assert _first_min(energies) == next(k for k, e in enumerate(energies) if e <= window)


# ---------------------------------------------------------------------------
# brute force against the oracle audit and the greedy strategies
# ---------------------------------------------------------------------------

def _mesh(nx, ny, labeling, rect, diagonal):
    return build_structured_mesh(nx, ny, float(nx), float(ny), labeling=_LABELINGS[labeling],
                                 brittle=("rect", rect), diagonal=diagonal)


@functools.cache
def _mesh_choices() -> list[tuple]:
    """Every mesh of at most 3 x 2 cells, labeling, diagonal and brittle
    rectangle with corners on the grid that has one to five crackable edges
    (a rectangle meeting the surface-force side is not a mesh).  Drawing from
    this list instead of filtering random draws keeps Hypothesis from giving
    up on the filter rate."""
    out = []
    for nx, ny, labeling, diagonal in itertools.product(
            (1, 2, 3), (1, 2), range(len(_LABELINGS)), ("main", "crossed")):
        for x0, x1 in itertools.combinations_with_replacement(range(nx + 1), 2):
            for y0, y1 in itertools.combinations_with_replacement(range(ny + 1), 2):
                args = (nx, ny, labeling, (x0, y0, x1, y1), diagonal)
                try:
                    if 1 <= len(crackable_edges(_mesh(*args))) <= 5:
                        out.append(args)
                except MeshError:
                    pass
    return out


@st.composite
def problems(draw):
    """A quadratic model on a small structured mesh with a random brittle
    rectangle (one to five crackable edges) and random load tables that all
    vanish at t = 0, so the uncracked initial state is minimal."""
    args = draw(st.sampled_from(_mesh_choices()))
    nx, ny = args[:2]
    mesh = _mesh(*args)

    amp = st.floats(-2.0, 2.0)
    t_mid = draw(st.sampled_from([0.3, 0.5, 0.8]))
    pattern = mesh.vertices[:, 0] / nx + draw(st.floats(-0.5, 0.5)) * mesh.vertices[:, 1] / ny
    nv, nt, ns = mesh.n_vertices, mesh.n_triangles, len(mesh.surface_edges)
    psi = TimeTable.build([(0.0, 0.0), (t_mid, draw(amp) * pattern), (1.0, draw(amp) * pattern)], nv)
    f = TimeTable.build([(0.0, 0.0), (1.0, draw(amp))], nt)
    g = TimeTable.build([(0.0, 0.0), (1.0, draw(amp))], ns)
    kappa = Toughness("isotropic", (draw(st.floats(0.005, 0.1)),))
    return make_model(mesh, kappa=kappa, psi=psi, f=f, g=g), mesh


def _run(model, mesh, kind):
    return run_evolution(model, mesh, TimeGrid.uniform(1.0, _KNOTS), CrackSet.empty(),
                         SearchStrategy(kind))


@given(problems())
@settings(max_examples=40, deadline=None)
def test_brute_force_record_passes_the_oracle_audit(case):
    model, mesh = case
    rec = _run(model, mesh, BRUTE_FORCE)
    res = check_global_stability(rec, model, mesh, level=ORACLE)
    assert res.result.verdict == "PASS", res.result.details


@given(problems(), st.sampled_from([GREEDY, GREEDY_WITH_PAIRS]))
@settings(max_examples=40, deadline=None)
def test_greedy_totals_bound_the_brute_force_step_from_above(case, kind):
    # Greedy never beats the exhaustive minimum over the same admissible
    # set: the crack sets containing the greedy crack of the knot before.
    model, mesh = case
    greedy = _run(model, mesh, kind)
    for i in range(1, _KNOTS):
        t = float(greedy.times[i])
        u, crack = incremental_step(model, mesh, greedy.cracks[i - 1], t, SearchStrategy(BRUTE_FORCE))
        e_min, _ = total_energy(model, mesh, t, u, crack)
        assert greedy.total_energy(i) >= e_min - tie_tolerance(e_min)


# ---------------------------------------------------------------------------
# branch and bound against enumeration
# ---------------------------------------------------------------------------

def _enumerated(search, base, t, stored=None):
    """Reference: every superset of ``base`` in ``extensions`` order, scored."""
    cand = search.candidates(base)
    cracks = extensions(base, cand, range(len(cand) + 1))
    return cracks, search.energies(cracks, t, stored)


def _solved_during(search, call):
    """The crack sets ``call()`` scores through ``search.energies``, in order."""
    solved, energies = [], search.energies

    def counted(cracks, t, stored=None):
        solved.extend(cracks)
        return energies(cracks, t, stored)

    search.energies = counted
    try:
        return call(), solved
    finally:
        search.energies = energies


@given(problems(), st.sampled_from([BRUTE_FORCE, GREEDY]))
@settings(max_examples=30, deadline=None)
def test_branch_and_bound_decides_like_enumeration(case, kind):
    # the crack chosen, the initial-minimality verdict and the oracle
    # stability verdict all equal those of a search over every superset;
    # greedy records give other bases, the uncracked copy gives violations
    model, mesh = case
    rec = _run(model, mesh, kind)
    search = _Search(model, mesh)
    n_cand = len(search.crackable)

    for i in range(1, _KNOTS):
        t, base = float(rec.times[i]), rec.cracks[i - 1]
        chosen, solved = _solved_during(search, lambda: search._brute(base, t))
        cracks, energies = _enumerated(search, base, t)
        assert chosen == cracks[_first_min(energies)]
        assert len(set(solved)) == len(solved) <= 2 ** n_cand

    t = float(rec.times[-1])
    u, _ = search.solver.solve(CrackSet.empty(), t)
    init = check_initial_minimality(model, mesh, CrackSet.empty(), u, SearchStrategy(BRUTE_FORCE), t=t)
    e0, _ = total_energy(model, mesh, t, u, CrackSet.empty())
    cracks, energies = _enumerated(search, CrackSet.empty(), t, stored=e0)
    worst = int(np.argmin(energies))
    passed = energies[worst] >= e0 - tie_tolerance(e0)
    assert (init.passed, init.margin, init.witness_crack) == \
        (passed, energies[worst] - e0, None if passed else cracks[worst])

    for audited in (rec, _uncracked(rec, model, mesh, search.solver)):
        res = check_global_stability(audited, model, mesh, level=ORACLE)
        assert (res.worst_margin, res.worst_knot, res.violations) == _oracle_reference(search, audited)


def _uncracked(rec, model, mesh, solver):
    """``rec`` with every knot re-solved on the empty crack: once cracking
    pays, the oracle audit lists violations."""
    out = rec.shallow_copy()
    for i, t in enumerate(rec.times):
        u, _ = solver.solve(CrackSet.empty(), float(t))
        out.cracks[i], out.fields[i] = CrackSet.empty(), u
        out.energies[i] = total_energy(model, mesh, float(t), u, CrackSet.empty())[1]
    return out


def _oracle_reference(search, rec):
    """(worst margin, worst knot, violations) of the oracle audit by
    enumeration; branch and bound solves at most 2^n crack sets per knot and
    returns its supersets in enumeration order."""
    worst_margin, worst_knot, violations = np.inf, -1, []
    for i in range(len(rec)):
        t, e_rec = float(rec.times[i]), rec.total_energy(i)
        (found, _), solved = _solved_during(
            search, lambda: search.branch_and_bound(rec.cracks[i], t, stored=e_rec))
        assert len(set(solved)) == len(solved) <= 2 ** len(search.crackable)
        cracks, energies = _enumerated(search, rec.cracks[i], t, stored=e_rec)
        assert found == [c for c in cracks if c in set(found)]
        for crack, e in zip(cracks, energies):
            if e - e_rec < worst_margin:
                worst_margin, worst_knot = e - e_rec, i
            if e - e_rec < -tie_tolerance(e_rec):
                violations.append((i, crack.edge_ids, float(e - e_rec)))
    return float(worst_margin), worst_knot, violations


def _one_edge_reference(search, rec):
    """(worst margin, worst knot, violations) of the one-edge audit by a
    search at every knot: the base and each single-edge extension."""
    worst_margin, worst_knot, violations = np.inf, -1, []
    for i in range(len(rec)):
        t, e_rec = float(rec.times[i]), rec.total_energy(i)
        cracks = extensions(rec.cracks[i], search.candidates(rec.cracks[i]), (0, 1))
        for crack, e in zip(cracks, search.energies(cracks, t, stored=e_rec)):
            if e - e_rec < worst_margin:
                worst_margin, worst_knot = e - e_rec, i
            if e - e_rec < -tie_tolerance(e_rec):
                violations.append((i, crack.edge_ids, float(e - e_rec)))
    return float(worst_margin), worst_knot, violations


@given(problems(), st.sampled_from([BRUTE_FORCE, GREEDY]))
@settings(max_examples=40, deadline=None)
def test_stability_audits_decide_like_a_search_at_every_knot(case, kind):
    # at 9 knots a run of one crack set has interior knots, and the psi
    # breakpoint at 0.3, 0.5 or 0.8 falls inside some: the audits search
    # only the end knots of the runs they certify, yet decide, and give the
    # worst margin and knot, as a search at every knot
    model, mesh = case
    rec = run_evolution(model, mesh, TimeGrid.uniform(1.0, 9), CrackSet.empty(), SearchStrategy(kind))
    search = _Search(model, mesh)
    breaks = model.breakpoints
    for audited in (rec, _uncracked(rec, model, mesh, search.solver)):
        euler_ok = check_global_stability(audited, model, mesh, level=EULER).level_passed
        for level, reference in ((ORACLE, _oracle_reference), (ONE_EDGE, _one_edge_reference)):
            res = check_global_stability(audited, model, mesh, level=level)
            worst_margin, worst_knot, violations = reference(search, audited)
            verdict = "FAIL" if violations or not euler_ok else "PASS" if level == ORACLE else "INCONCLUSIVE"
            assert (res.result.verdict, res.worst_margin, res.worst_knot, res.violations) == \
                (verdict, worst_margin, worst_knot, violations)
            for first, last in res.stable_runs:
                lo, hi = audited.times[first], audited.times[last]
                assert last - first > 1 and len(set(audited.cracks[first:last + 1])) == 1
                assert not ((breaks > lo) & (breaks < hi)).any()


# ---------------------------------------------------------------------------
# the record's save/load round trip
# ---------------------------------------------------------------------------

def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@given(problems(), st.sampled_from([BRUTE_FORCE, GREEDY, GREEDY_WITH_PAIRS]))
@settings(max_examples=20, deadline=None)
def test_save_load_save_is_byte_identical_and_loads_every_field_bit_exactly(case, kind):
    model, mesh = case
    rec = _run(model, mesh, kind)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
        rec.save(first)
        loaded = EvolutionRecord.load(first, mesh, model)
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()
    assert _bits(loaded.times) == _bits(rec.times)
    assert loaded.cracks == rec.cracks
    for got, saved in zip(loaded.fields, rec.fields, strict=True):
        assert _bits(got.values) == _bits(saved.values)
    # all knots of one crack set share one layout
    layouts = {}
    for crack, got in zip(loaded.cracks, loaded.fields, strict=True):
        assert layouts.setdefault(crack, got.topology) is got.topology
    assert len({id(topo) for topo in layouts.values()}) == len(set(loaded.cracks))
    for got, saved in zip(loaded.energies, rec.energies, strict=True):
        keys = sorted(saved)
        assert sorted(got) == keys
        assert _bits([got[k] for k in keys]) == _bits([saved[k] for k in keys])
    assert (loaded.strategy, loaded.certification, loaded.complete, loaded.annotations) == \
        (rec.strategy, rec.certification, rec.complete, rec.annotations)
