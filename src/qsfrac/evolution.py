"""Time-incremental global minimization and crack-envelope post-processing.

At every knot of the time grid the state jumps to a global minimizer of the
total energy among crack sets containing the previous one, each candidate
paired with its own elastic minimizer.  The search over candidate edge
subsets is exact under the brute-force strategy (the discrete minimizer,
with deterministic tie-breaking) and move-limited under the greedy
strategies (stable under single-edge, optionally pair, additions).  Brute
force is a branch and bound over the supersets: the elastic energy only
falls as the crack grows and the surface energy adds up over edges, so a
partial decision has a lower bound, and only the supersets that can still
win are solved.  It decides exactly as enumerating every superset would,
and the initial-minimality check and the oracle stability audit use it too.

Candidates are scored, states are solved.  Where the solver offers the
open-space score (p = q = 2 and few enough tie rows, see ``minimize``), a
candidate's total energy is that score plus its surface energy, summed once
per crack set from the per-edge table every total of the search uses: no
topology, no assembly and no solve per candidate.  The crack set a knot
records, the greedy's current state, and every candidate within the tie
window of a stored total (these decide a minimality verdict) are solved, so
records and verdicts take their energies from solves.  Elsewhere every
candidate is solved.

Energy ties within 1e-9 * (1 + |E|) are broken toward fewer cracked edges,
then toward the lexicographically smallest edge-id set: a crack only appears
when it is strictly energetically convenient, and records are reproducible.

The produced record stores, per knot, the crack set, the field, all energy
components, and the five power terms whose time integral the energy-balance
audit compares against the energy increment; a knot's energy components and
power terms come from one ``energy.KnotEvaluation`` of its field.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._util import LRU, parallel_map
from .broken import BrokenField, CrackSet, build_topology
from .energy import EnergyModel, KnotEvaluation, check_knots, edge_surface_energies, total_energy
from .mesh import Mesh, crackable_edges, mesh_fingerprint
from .minimize import _CACHE_SIZE, TOL, ElasticSolver

__all__ = [
    "TimeGrid",
    "SearchStrategy",
    "BRUTE_FORCE",
    "GREEDY",
    "GREEDY_WITH_PAIRS",
    "MAX_BRUTEFORCE_EDGES",
    "EvolutionRecord",
    "EvolutionError",
    "RecordError",
    "SearchLimitError",
    "InitialMinimality",
    "check_initial_minimality",
    "extensions",
    "incremental_step",
    "run_evolution",
    "left_envelope",
    "right_envelope",
    "sample_power_terms",
    "tie_tolerance",
]

BRUTE_FORCE = "brute_force"
GREEDY = "greedy"
GREEDY_WITH_PAIRS = "greedy_pairs"
_KINDS = (BRUTE_FORCE, GREEDY, GREEDY_WITH_PAIRS)
MAX_BRUTEFORCE_EDGES = 20   # default candidate-edge cap of brute force, and oracle-compare's cap

RECORD_FORMAT_VERSION = 1


class EvolutionError(RuntimeError):
    """Raised when a run cannot start or aborts mid-way.

    When a step fails after some knots were completed, the partial record is
    attached as ``partial_record`` with ``complete=False``.
    """

    def __init__(self, message: str, partial_record: "EvolutionRecord | None" = None):
        super().__init__(message)
        self.partial_record = partial_record


class SearchLimitError(EvolutionError):
    """The configured candidate-edge cap refuses an exhaustive search."""


class RecordError(ValueError):
    """A record file that cannot be read back against its mesh and model."""


def tie_tolerance(energy: float) -> float:
    return 1e-9 * (1.0 + abs(energy))


def extensions(base: CrackSet, edges, sizes) -> list[CrackSet]:
    """``base`` united with every ``k``-subset of ``edges``, for each ``k`` in
    ``sizes``, in (size, lexicographic) order; size 0 gives ``base`` itself.

    With ``edges`` sorted and disjoint from ``base`` this order is the tie
    preference: fewer added edges first, then the smallest edge-id set.
    """
    return [base.union(s) for k in sizes for s in itertools.combinations(edges, k)]


def _first_min(energies) -> int:
    """Index of the first energy within the tie tolerance of the minimum."""
    e_min = min(energies)
    tol = tie_tolerance(e_min)
    return next(i for i, e in enumerate(energies) if e <= e_min + tol)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing knots starting at 0; the last knot is the horizon."""

    knots: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "knots", check_knots(self.knots))

    @classmethod
    def uniform(cls, horizon: float, n_knots: int) -> "TimeGrid":
        if n_knots < 2:
            raise ValueError("a uniform grid needs at least 2 knots")
        return cls(np.linspace(0.0, float(horizon), n_knots))

    @property
    def horizon(self) -> float:
        return float(self.knots[-1])

    def __len__(self) -> int:
        return len(self.knots)


@dataclass(frozen=True)
class SearchStrategy:
    """Crack-search strategy for the per-knot minimization."""

    kind: str = BRUTE_FORCE
    max_bruteforce_edges: int = MAX_BRUTEFORCE_EDGES

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}; expected one of {_KINDS}")

    @property
    def certification(self) -> str:
        return {
            BRUTE_FORCE: "exhaustive",
            GREEDY: "single-edge-stable",
            GREEDY_WITH_PAIRS: "pair-stable",
        }[self.kind]


# ---------------------------------------------------------------------------
# power samples and record rows
# ---------------------------------------------------------------------------

_POWER_KEYS = ("stress_power", "body_coupling", "body_rate", "surface_coupling", "surface_rate")
_ENERGY_KEYS = ("W", "Es", "F", "G", "total")


def sample_power_terms(model: EnergyModel, mesh: Mesh, t: float, u: BrokenField) -> dict:
    """The five power terms driving the energy balance, sampled at time t
    (``energy.KnotEvaluation.powers``)."""
    return KnotEvaluation(model, mesh, t, u, u.topology.crack).powers


def net_power(power: dict) -> float:
    return (power["stress_power"] - power["body_coupling"] - power["body_rate"]
            - power["surface_coupling"] - power["surface_rate"])


# ---------------------------------------------------------------------------
# the evolution record
# ---------------------------------------------------------------------------

_NUMBER = (int, float)   # as ``json.load`` gives them: a bool is neither


def _typed(value, what: str, types: tuple, items: tuple = ()):
    """``value`` where its type is one of ``types`` and, for a list, each
    item's one of ``items``: the types ``save`` writes.  Otherwise a
    ValueError naming ``what``."""
    if type(value) not in types or (items and not set(map(type, value)).issubset(items)):
        expected = " of ".join(" or ".join(t.__name__ for t in ts) for ts in (types, items) if ts)
        raise ValueError(f"{what}: expected {expected}, got {value!r:.60}")
    return value


def _finite(values, what: str) -> np.ndarray:
    """A JSON list of finite numbers as a float array."""
    values = np.array(_typed(values, what, (list,), _NUMBER), dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite {what} value")
    return values


def _number(value, what: str) -> float:
    """A finite JSON number as a float."""
    value = float(_typed(value, what, _NUMBER))
    if not math.isfinite(value):
        raise ValueError(f"non-finite {what} value")
    return value


@dataclass
class EvolutionRecord:
    """Per-knot states, energy components and power samples of one run."""

    grid: TimeGrid
    cracks: list[CrackSet]
    fields: list[BrokenField]
    energies: list[dict]
    powers: list[dict]
    strategy: SearchStrategy
    config_hash: str = ""
    mesh_hash: str = ""
    complete: bool = True
    annotations: list[str] = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return self.grid.knots

    @property
    def certification(self) -> str:
        return self.strategy.certification

    def __len__(self) -> int:
        return len(self.cracks)

    def total_energy(self, i: int) -> float:
        return self.energies[i]["total"]

    def jump_knots(self) -> list[int]:
        """Knots where the crack set differs from the previous knot."""
        return [i for i in range(1, len(self)) if self.cracks[i] != self.cracks[i - 1]]

    def shallow_copy(self) -> "EvolutionRecord":
        return dataclasses.replace(
            self,
            cracks=list(self.cracks),
            fields=list(self.fields),
            energies=[dict(e) for e in self.energies],
            powers=[dict(p) for p in self.powers],
            annotations=list(self.annotations),
        )

    # -- serialization ----------------------------------------------------

    def to_payload(self) -> dict:
        knots = []
        for i in range(len(self)):
            knots.append({
                "t": float(self.times[i]),
                "crack": list(self.cracks[i].edge_ids),
                "dofs": self.fields[i].values.tolist(),
                "energy": {k: float(self.energies[i][k]) for k in _ENERGY_KEYS},
                "power": {k: float(self.powers[i][k]) for k in _POWER_KEYS},
            })
        return {
            "format_version": RECORD_FORMAT_VERSION,
            "config_hash": self.config_hash,
            "mesh_hash": self.mesh_hash,
            "strategy": {
                "kind": self.strategy.kind,
                "max_bruteforce_edges": self.strategy.max_bruteforce_edges,
                "certification": self.certification,
            },
            "grid": self.times.tolist(),
            "complete": self.complete,
            "annotations": list(self.annotations),
            "knots": knots,
        }

    def save(self, path) -> None:
        """Write the record in one write; floats round-trip exactly through
        the JSON text."""
        text = json.dumps(self.to_payload(), sort_keys=True, indent=1) + "\n"
        with open(path, "w") as fh:
            fh.write(text)

    @classmethod
    def load(cls, path, mesh: Mesh, model: EnergyModel) -> "EvolutionRecord":
        """Rebuild a record against its mesh and model: each distinct crack
        set's DOF layout is built once, and every knot of that crack set
        shares it.  ``model`` is not read: a layout holds no datum.

        A file that is not a readable record for this mesh (bad JSON, a
        missing key, a DOF array of the wrong length, an edge that cannot
        crack, a non-finite number, a value of another JSON type than
        ``save`` writes, a certification not the strategy's) raises
        ``RecordError`` naming the knot.
        """
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:
                raise RecordError(f"{path}: not a JSON record ({exc})") from exc
        layouts = {}
        where = "record"
        try:
            if not isinstance(payload, dict):
                raise ValueError("the top level is not a JSON object")
            version = payload.get("format_version")
            if type(version) is not int or version != RECORD_FORMAT_VERSION:
                raise ValueError(f"unsupported record format version {version!r}")
            grid = TimeGrid(_finite(payload["grid"], "grid"))
            if len(payload["knots"]) != len(grid):
                raise ValueError(f"{len(payload['knots'])} knots stored for a grid of {len(grid)}")
            cracks, fields, energies, powers = [], [], [], []
            for i, row in enumerate(payload["knots"]):
                where = f"knot {i}"
                crack = CrackSet.of(_typed(row["crack"], "crack", (list,), (int,)))
                if crack not in layouts:
                    layouts[crack] = build_topology(mesh, crack)
                values = _finite(row["dofs"], "DOF")
                energy = {k: _number(row["energy"][k], k) for k in _ENERGY_KEYS}
                power = {k: _number(row["power"][k], k) for k in _POWER_KEYS}
                cracks.append(crack)
                fields.append(BrokenField(layouts[crack], values))
                energies.append(energy)
                powers.append(power)
            where = "record"
            strat = payload["strategy"]
            limit = _typed(strat["max_bruteforce_edges"], "max_bruteforce_edges", (int,))
            if limit < 0:
                raise ValueError(f"max_bruteforce_edges: expected a count, got {limit}")
            strategy = SearchStrategy(strat["kind"], limit)
            certification = _typed(strat["certification"], "certification", (str,))
            if certification != strategy.certification:
                raise ValueError(f"certification: expected {strategy.certification!r} for strategy "
                                 f"{strategy.kind!r}, got {certification!r:.60}")
            return cls(
                grid=grid, cracks=cracks, fields=fields, energies=energies, powers=powers, strategy=strategy,
                config_hash=_typed(payload["config_hash"], "config_hash", (str,)),
                mesh_hash=_typed(payload["mesh_hash"], "mesh_hash", (str,)),
                complete=_typed(payload["complete"], "complete", (bool,)),
                annotations=_typed(payload["annotations"], "annotations", (list,), (str,)),
            )
        except KeyError as exc:
            raise RecordError(f"{path}: {where}: missing key {exc}") from exc
        except (IndexError, OverflowError, TypeError, ValueError) as exc:
            raise RecordError(f"{path}: {where}: {exc}") from exc

    def write_csv(self, path) -> None:
        """Trace with one row per knot, full-precision scientific notation."""
        from ._util import sci17

        mesh = self.fields[0].topology.mesh
        lines = ["t,W,Es,F,G,E_total,crack_length,dof_count"]
        for i in range(len(self)):
            e = self.energies[i]
            row = [sci17(self.times[i])] + [sci17(e[k]) for k in ("W", "Es", "F", "G", "total")]
            row.append(sci17(self.cracks[i].total_length(mesh)))
            row.append(str(self.fields[i].topology.n_dofs))
            lines.append(",".join(row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# the incremental search
# ---------------------------------------------------------------------------

class _Search:
    """The search of one run: its strategy, its own ``ElasticSolver``, built
    at the tolerance of every solve and score it makes, the crackable edges
    and their surface energies.  A run's initial check and every knot share
    it, and so they share the surface energy of each crack set it totals,
    kept in an LRU of at most ``_CACHE_SIZE`` crack sets."""

    def __init__(self, model: EnergyModel, mesh: Mesh, strategy: SearchStrategy = SearchStrategy(),
                 tol: float = TOL):
        self.model = model
        self.mesh = mesh
        self.strategy = strategy
        self.solver = ElasticSolver(model, mesh, tol)
        self.crackable = [int(e) for e in crackable_edges(mesh)]
        self._edge_es = np.zeros(mesh.n_edges)   # surface energy per crackable edge
        self._edge_es[self.crackable] = edge_surface_energies(model.toughness, mesh, self.crackable)
        self._surfaces = LRU(_CACHE_SIZE)   # edge ids -> surface energy

    def _surface(self, crack: CrackSet) -> float:
        return self._surfaces.get(crack.edge_ids, lambda: float(np.sum(self._edge_es[list(crack.edge_ids)])))

    def _scored(self, crack: CrackSet, t: float) -> tuple[BrokenField, float]:
        u, report = self.solver.solve(crack, t)
        return u, report.energy + self._surface(crack)

    def total(self, crack: CrackSet, t: float) -> float:
        """Total energy of ``crack`` at time t: the solver's open-space score
        plus the surface energy where the score applies, else a solve."""
        if not self.solver.scores:
            return self._scored(crack, t)[1]
        return self.solver.score(crack, t) + self._surface(crack)

    def energies(self, cracks: list[CrackSet], t: float, stored: float | None = None) -> list[float]:
        """Total energies of the candidate crack sets at time t, in order.

        Each candidate is scored by ``total``.  Given ``stored``, the stored
        total of a recorded state at t, every candidate within the tie
        tolerance of it or below is solved and, if its solve agrees, re-scored
        from its field by ``total_energy``, the quadrature stored totals come
        from.  Those candidates decide a minimality verdict, and a state that
        is its own re-solve then scores exactly its stored total.  Solves go
        through ``parallel_map``: every candidate where the solver has no
        score, else only the re-scored ones.
        """
        window = None if stored is None else stored + tie_tolerance(stored)

        def solved(crack: CrackSet) -> float:
            u, e = self._scored(crack, t)
            if window is None or e > window:
                return e
            return total_energy(self.model, self.mesh, t, u, crack)[0]

        if not self.solver.scores:
            return parallel_map(solved, cracks)
        scores = [self.total(c, t) for c in cracks]
        near = [] if window is None else [i for i, e in enumerate(scores) if e <= window]
        if near:
            for i, e in zip(near, parallel_map(solved, [cracks[i] for i in near])):
                scores[i] = e
        return scores

    def candidates(self, crack: CrackSet) -> list[int]:
        present = crack.as_set()
        return [e for e in self.crackable if e not in present]

    def branch_and_bound(self, base: CrackSet, t: float,
                         stored: float | None = None) -> tuple[list[CrackSet], list[float]]:
        """The supersets of ``base`` that can decide an exact search at time t,
        in ``extensions`` order, with their energies as ``energies`` scores them.

        A depth-first include/exclude search over the sorted candidate edges,
        exclude first, so ``base`` is the first leaf.  A node with edges I
        included and U undecided has the crack set base | I | U; an include
        child keeps it, so only exclude children are solved, each a different
        crack set.  Every leaf below the node costs at least
        E_el(base | I | U) + Es(base | I): the elastic energy only falls as
        the crack grows, and the surface energy adds up over edges.  A node
        is pruned when this bound exceeds both the incumbent plus
        1e-9 * (1 + max(|incumbent|, |root bound|)), which covers the tie
        window of the final minimum, and ``stored`` minus its tie tolerance.
        So the result holds the minimum, every superset within the tie
        tolerance of it and, given ``stored``, every superset below it by
        more than its tie tolerance.
        """
        cand = self.candidates(base)
        if len(cand) > self.strategy.max_bruteforce_edges:
            raise SearchLimitError(
                f"brute force over {len(cand)} candidate edges exceeds the configured "
                f"limit {self.strategy.max_bruteforce_edges}; shrink the brittle region "
                "or use a greedy strategy"
            )
        floor = -np.inf if stored is None else stored - tie_tolerance(stored)
        # tail[k]: surface energy of the undecided edges cand[k:]
        es = self._edge_es[cand]
        tail = np.append(np.cumsum(es[::-1])[::-1], 0.0).tolist()
        top = base.union(cand)
        e_top = self.energies([top], t, stored)[0]
        root = e_top - tail[0]
        best = np.inf
        leaves: dict[CrackSet, float] = {}

        def visit(k: int, crack: CrackSet, energy: float) -> None:
            nonlocal best
            if energy - tail[k] > max(best + tie_tolerance(max(abs(best), abs(root))), floor):
                return
            if k == len(cand):
                leaves[crack] = energy
                best = min(best, energy)
                return
            out = CrackSet(tuple(e for e in crack.edge_ids if e != cand[k]))
            visit(k + 1, out, self.energies([out], t, stored)[0])
            visit(k + 1, crack, energy)

        visit(0, top, e_top)
        order = sorted(leaves, key=lambda c: (len(c), c.edge_ids))
        return order, [leaves[c] for c in order]

    def rivals(self, base: CrackSet, t: float, stored: float) -> tuple[list[CrackSet], list[float]]:
        """The supersets of ``base`` that a minimality verdict against the
        stored total ``stored`` at time t weighs, with their energies: the
        branch and bound under brute force, else ``base`` and its single-edge
        (with pairs, also two-edge) extensions, scored by ``energies``."""
        if self.strategy.kind == BRUTE_FORCE:
            return self.branch_and_bound(base, t, stored)
        sizes = (0, 1, 2) if self.strategy.kind == GREEDY_WITH_PAIRS else (0, 1)
        cracks = extensions(base, self.candidates(base), sizes)
        return cracks, self.energies(cracks, t, stored)

    def step(self, crack_prev: CrackSet, t: float) -> tuple[BrokenField, CrackSet]:
        """One knot of the incremental scheme: the best superset of
        ``crack_prev`` at time t and its field."""
        crack = self.best_superset(crack_prev, t)
        return self.solver.solve(crack, t)[0], crack

    def best_superset(self, crack_prev: CrackSet, t: float) -> CrackSet:
        if self.strategy.kind == BRUTE_FORCE:
            return self._brute(crack_prev, t)
        return self._greedy(crack_prev, t, pairs=self.strategy.kind == GREEDY_WITH_PAIRS)

    def _brute(self, crack_prev: CrackSet, t: float) -> CrackSet:
        subsets, energies = self.branch_and_bound(crack_prev, t)
        return subsets[_first_min(energies)]

    def _greedy(self, crack_prev: CrackSet, t: float, pairs: bool) -> CrackSet:
        current = crack_prev
        e_cur = self._scored(current, t)[1]
        for _ in range(len(self.crackable) + 1):
            move = self._best_move(current, t, e_cur, 1)
            if move is None and pairs:
                move = self._best_move(current, t, e_cur, 2)
            if move is None:
                return current
            current, e_cur = move
        return current

    def _best_move(self, current: CrackSet, t: float, e_cur: float, size: int):
        moves = extensions(current, self.candidates(current), (size,))
        if not moves:
            return None
        energies = self.energies(moves, t)
        best = _first_min(energies)
        if energies[best] < e_cur - tie_tolerance(e_cur):
            return moves[best], energies[best]
        return None


@dataclass
class InitialMinimality:
    passed: bool
    margin: float
    witness_crack: CrackSet | None
    witness_energy: float | None
    exhaustive: bool


def check_initial_minimality(model: EnergyModel, mesh: Mesh, crack0: CrackSet,
                             u0: BrokenField, strategy: SearchStrategy,
                             t: float = 0.0, _search: _Search | None = None) -> InitialMinimality:
    """Is (u0, crack0) minimal at the initial time among crack extensions?

    Brute force gives an exact verdict over every superset of the initial
    crack; greedy strategies certify only that no single-edge (or pair)
    extension improves, which is a necessary condition.  The rivals are
    scored and solved by ``_search`` (the run's), else by a new search.
    """
    search = _search or _Search(model, mesh, strategy)
    e0, _ = total_energy(model, mesh, t, u0, crack0)
    subsets, energies = search.rivals(crack0, t, e0)
    worst = int(np.argmin(energies))
    passed = energies[worst] >= e0 - tie_tolerance(e0)
    return InitialMinimality(
        passed=passed, margin=float(energies[worst] - e0),
        witness_crack=None if passed else subsets[worst],
        witness_energy=None if passed else float(energies[worst]),
        exhaustive=strategy.kind == BRUTE_FORCE,
    )


def incremental_step(model: EnergyModel, mesh: Mesh, crack_prev: CrackSet, t: float,
                     strategy: SearchStrategy, tol: float = TOL):
    """One knot of the incremental scheme: the minimizing (field, crack) with
    the crack containing ``crack_prev``, from a new search at ``tol``
    (``_Search.step``)."""
    return _Search(model, mesh, strategy, tol=tol).step(crack_prev, t)


def run_evolution(model: EnergyModel, mesh: Mesh, grid: TimeGrid, crack0: CrackSet,
                  strategy: SearchStrategy, *, solver_tol: float = TOL,
                  require_initial_minimality: bool = True,
                  config_hash: str = "") -> EvolutionRecord:
    """Run the incremental scheme over the grid from the initial crack.

    The initial state is the elastic minimizer on ``crack0`` at the first
    knot; it must be globally minimal there (checked with the declared
    strategy) unless ``require_initial_minimality=False``, in which case the
    record is annotated instead.  Subsequent knots apply the incremental
    step, which preserves crack inclusion by construction.  One search, and
    its one solver built at ``solver_tol``, serves the whole run: the
    initial solve, the initial check and every step.
    """
    if grid.horizon > model.boundary.horizon + 1e-12:
        raise EvolutionError("time grid extends beyond the load tables")
    annotations = list(model.validate(mesh))
    search = _Search(model, mesh, strategy, tol=solver_tol)

    t0 = float(grid.knots[0])
    u0, _ = search.solver.solve(crack0, t0)
    init = check_initial_minimality(model, mesh, crack0, u0, strategy, t=t0, _search=search)
    if not init.passed:
        msg = (f"initial state is not minimal: extending to {list(init.witness_crack or ())} "
               f"lowers the energy by {-init.margin:.3e}")
        if require_initial_minimality:
            raise EvolutionError(msg)
        annotations.append(f"override: {msg}")

    cracks = [crack0]
    fields = [u0]
    knot = KnotEvaluation(model, mesh, t0, u0, crack0)
    energies = [knot.energies]
    powers = [knot.powers]

    def record(complete: bool) -> EvolutionRecord:
        return EvolutionRecord(
            grid=grid if complete else TimeGrid(grid.knots[: len(cracks)]), cracks=cracks,
            fields=fields, energies=energies, powers=powers, strategy=strategy,
            config_hash=config_hash, mesh_hash=mesh_fingerprint(mesh), complete=complete,
            annotations=annotations,
        )

    for i in range(1, len(grid)):
        t = float(grid.knots[i])
        try:
            u, crack = search.step(cracks[-1], t)
        except SearchLimitError as exc:
            raise SearchLimitError(str(exc), record(False)) from exc
        except Exception as exc:  # solver failure: abort with partial record
            raise EvolutionError(f"step at knot {i} (t={t}) failed: {exc}", record(False)) from exc
        assert cracks[-1].issubset(crack)
        cracks.append(crack)
        fields.append(u)
        knot = KnotEvaluation(model, mesh, t, u, crack)
        energies.append(knot.energies)
        powers.append(knot.powers)

    return record(True)


# ---------------------------------------------------------------------------
# crack envelopes
# ---------------------------------------------------------------------------

def _envelope(record: EvolutionRecord, model: EnergyModel, mesh: Mesh, side: str) -> EvolutionRecord:
    if not record.complete:
        raise EvolutionError("cannot take the envelope of an incomplete record")
    solver = ElasticSolver(model, mesh)
    out = record.shallow_copy()
    jumps = record.jump_knots()
    if side == "right":   # the crack after each jump, taken at the knot before it
        jumps = [j - 1 for j in jumps]
    for i in jumps:
        t = float(record.times[i])
        crack = record.cracks[i - 1] if side == "left" else record.cracks[i + 1]
        u, _ = solver.solve(crack, t)
        out.cracks[i] = crack
        out.fields[i] = u
        knot = KnotEvaluation(model, mesh, t, u, crack)
        out.energies[i] = knot.energies
        out.powers[i] = knot.powers
    out.annotations.append(f"{side} envelope applied at knots {jumps}")
    return out


def left_envelope(record: EvolutionRecord, model: EnergyModel, mesh: Mesh) -> EvolutionRecord:
    """Replace each crack-jump knot by its one-sided limit from below.

    At a jump knot the crack becomes the previous knot's crack and the field
    is re-minimized there; all other knots are untouched, so total energies
    away from jumps are identical to the input record.
    """
    return _envelope(record, model, mesh, "left")


def right_envelope(record: EvolutionRecord, model: EnergyModel, mesh: Mesh) -> EvolutionRecord:
    """Replace each crack-jump knot by its one-sided limit from above."""
    return _envelope(record, model, mesh, "right")
