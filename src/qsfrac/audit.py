"""Audits of recorded evolutions: the defining conditions and certificates.

A recorded evolution is certified against the three defining conditions —
irreversibility (crack sets only grow), global stability (no crack extension
with a compatible field lowers the total energy), and energy balance (the
energy increment matches the integrated power of the external loadings) —
plus the structure identity (the crack equals the initial crack united with
all past jump supports) and two convex-duality certificates.

Each check that reads the recorded fields (the balance recompute, the Euler
residuals of the stability check and the certificates) reads them through
one ``energy.KnotEvaluation`` per knot, built from one gather of the knot's
corner values.  A public check builds its own; ``audit_record``, the entry
point of ``qsfrac audit``, builds each knot's once for every check it runs,
and keeps only what each check needs of it.  The Euler residual and the
certificate's annihilation residual are one number, the norm of the
evaluation's free-DOF pairing, and a field that is not admissible at its
time (a pinned DOF off the boundary datum) has neither.

The duality certificate projects onto a Gram matrix that depends only on the
DOF layout of the crack set, so its factor is built once per layout and kept
in a single cached entry that holds the layout weakly (``_gram_solver``).
The ``certificates`` check holds every knot's certificate to the bounds of a
solve at the default tolerance: an annihilation residual of at most 1e-8 and
a Fenchel gap of at most 1e-8 (1 + |primal|).

Stability is checked at three levels forming a hierarchy:

* ``euler``    stationarity of each recorded field at its own crack set,
* ``one_edge`` additionally no single-edge extension pays off,
* ``oracle``   additionally no extension whatsoever pays off (an exact
               branch and bound over every superset, small instances only).

Each level includes the previous ones, so an oracle PASS implies the weaker
levels pass.  The euler and one-edge levels are necessary conditions only;
when they succeed the verdict is INCONCLUSIVE (with ``level_passed`` set),
while an exhaustive success is a genuine PASS.

All checks are read-only over immutable records.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .broken import (
    BrokenField,
    CrackSet,
    DofTopology,
    corner_gradients,
    default_jump_tol,
    jump_support,
    trace_on_surface_part,
)
from .energy import (
    EnergyModel,
    KnotEvaluation,
    TimeTable,
    assemble_pairing,
    body_conjugate_density,
    bulk_conjugate_density,
    lq_norm_tri,
    lr_norm_surface,
    stress,
)
from .evolution import BRUTE_FORCE, GREEDY, EvolutionRecord, SearchStrategy, _Search, net_power, tie_tolerance
from .mesh import Mesh, crackable_edges
from .minimize import _FreeBlock, _local_forms, _spd_solver

__all__ = [
    "AuditError",
    "CheckResult",
    "AuditReport",
    "check_irreversibility",
    "BalanceResult",
    "check_energy_balance",
    "StabilityResult",
    "check_global_stability",
    "StructureResult",
    "check_structure",
    "DualCertificate",
    "dual_certificate",
    "check_certificates",
    "CHECKS",
    "audit_record",
    "ProbeResult",
    "stress_continuity_probe",
    "EULER",
    "ONE_EDGE",
    "ORACLE",
    "MAX_ORACLE_EDGES",
]

EULER = "euler"
ONE_EDGE = "one_edge"
ORACLE = "oracle"
_LEVELS = (EULER, ONE_EDGE, ORACLE)
MAX_ORACLE_EDGES = 12   # default candidate-edge cap of the oracle stability level

_RESIDUAL_TOL = 1e-8
_RECOMPUTE_RTOL = 1e-12


class AuditError(ValueError):
    """An audit could not run as requested (not a verdict)."""


@dataclass
class CheckResult:
    name: str
    verdict: str                  # PASS / FAIL / INCONCLUSIVE
    margins: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    details: str = ""

    @property
    def failed(self) -> bool:
        return self.verdict == "FAIL"


def _json_number(value) -> float | str:
    value = float(value)
    return value if np.isfinite(value) else str(value)


@dataclass
class AuditReport:
    results: list[CheckResult]

    def ok(self, inconclusive_ok: bool = True) -> bool:
        for r in self.results:
            if r.verdict == "FAIL":
                return False
            if r.verdict == "INCONCLUSIVE" and not inconclusive_ok:
                return False
        return True

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            lines.append(f"[{r.verdict:12s}] {r.name}")
            for k, v in r.margins.items():
                lines.append(f"    {k} = {v:.6e}")
            for k, v in r.tolerances.items():
                lines.append(f"    tol {k} = {v:.3e}")
            if r.details:
                lines.append(f"    {r.details}")
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """The report as strict JSON data: a non-finite number becomes the
        string "inf", "-inf" or "nan"."""
        return {
            "checks": [
                {
                    "name": r.name,
                    "verdict": r.verdict,
                    "margins": {k: _json_number(v) for k, v in r.margins.items()},
                    "tolerances": {k: _json_number(v) for k, v in r.tolerances.items()},
                    "details": r.details,
                }
                for r in self.results
            ],
        }


# ---------------------------------------------------------------------------
# irreversibility
# ---------------------------------------------------------------------------

def check_irreversibility(record: EvolutionRecord) -> CheckResult:
    """PASS iff the crack set at each knot contains the previous one exactly."""
    for i in range(1, len(record)):
        if not record.cracks[i - 1].issubset(record.cracks[i]):
            lost = sorted(record.cracks[i - 1].as_set() - record.cracks[i].as_set())
            return CheckResult(
                "irreversibility", "FAIL",
                details=f"knot {i}: edges {lost} left the crack set",
            )
    return CheckResult("irreversibility", "PASS")


# ---------------------------------------------------------------------------
# energy balance
# ---------------------------------------------------------------------------

@dataclass
class BalanceResult:
    gap: float
    interval_mismatch: np.ndarray   # |dE_i - trapezoid_i| per interval, signed
    deviations: np.ndarray          # cumulative deviation per knot
    excluded: tuple[int, ...]
    result: CheckResult


def check_energy_balance(record: EvolutionRecord, model: EnergyModel, mesh: Mesh,
                         exclude_intervals: tuple[int, ...] = (),
                         tol: float | None = None) -> BalanceResult:
    """Compare energy increments with the trapezoid rule on the power samples.

    The gap is the largest magnitude, over knots, of the accumulated
    difference between the stored total energy relative to the initial one
    and the integrated net power.  ``exclude_intervals`` removes individual
    interval contributions (e.g. the single interval where a crack jump makes
    the power samples one-sided).  Stored energy components are first
    recomputed from the fields; a mismatch beyond 1e-12 relative is a FAIL on
    its own (the record does not describe the model it claims to).
    """
    return _energy_balance(record, map(_recomputed_total, _evaluations(record, model, mesh)),
                           exclude_intervals, tol)


def _recomputed_total(knot: KnotEvaluation) -> float:
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is an inf or NaN total
        return knot.energies["total"]


def _energy_balance(record: EvolutionRecord, recomputed, exclude_intervals: tuple[int, ...],
                    tol: float | None) -> BalanceResult:
    """``check_energy_balance`` from the total recomputed at each knot, read
    in knot order up to the first mismatch."""
    n = len(record)
    times = record.times
    # recomputation guard: the record must be consistent with the model.  The
    # tolerance scales with the stored total, which loading checked finite, so
    # a recomputed total that overflows fails, as NaN does
    for i, total in enumerate(recomputed):
        stored = record.total_energy(i)
        if not abs(total - stored) <= _RECOMPUTE_RTOL * (1.0 + abs(stored)):
            res = CheckResult(
                "energy_balance", "FAIL",
                margins={"recompute_mismatch": abs(total - stored)},
                tolerances={"recompute_rtol": _RECOMPUTE_RTOL},
                details=f"stored total energy at knot {i} does not match the model",
            )
            return BalanceResult(np.inf, np.zeros(max(n - 1, 0)), np.zeros(n), tuple(exclude_intervals), res)

    powers = np.asarray([net_power(p) for p in record.powers])
    totals = np.asarray([record.total_energy(i) for i in range(n)])
    mask = np.ones(max(n - 1, 0), dtype=bool)
    for i in exclude_intervals:
        if 0 <= i < len(mask):
            mask[i] = False
    # stored values near the largest float can overflow an increment or a
    # trapezoid: the gap is then not finite, and fails as NaN does
    with np.errstate(over="ignore", invalid="ignore"):
        trap = 0.5 * np.diff(times) * (powers[:-1] + powers[1:])
        mismatch = np.diff(totals) - trap
        deviations = np.concatenate([[0.0], np.cumsum(np.where(mask, mismatch, 0.0))])
        gap = float(np.max(np.abs(deviations))) if n else 0.0

    if tol is None:
        tol = 5e-3 * (1.0 + abs(totals[-1])) if n else 5e-3
    verdict = "PASS" if gap <= tol else "FAIL"
    res = CheckResult(
        "energy_balance", verdict,
        margins={"gap": gap, "worst_interval": float(np.max(np.abs(np.where(mask, mismatch, 0.0)))) if len(mismatch) else 0.0},
        tolerances={"gap": tol},
        details=f"{len(exclude_intervals)} interval(s) excluded" if exclude_intervals else "",
    )
    return BalanceResult(gap, mismatch, deviations, tuple(exclude_intervals), res)


# ---------------------------------------------------------------------------
# global stability
# ---------------------------------------------------------------------------

@dataclass
class StabilityResult:
    level: str
    level_passed: bool
    worst_margin: float
    worst_knot: int
    max_euler_residual: float
    violations: list[tuple[int, tuple, float]]   # (knot, crack edge ids, margin)
    result: CheckResult


def check_global_stability(record: EvolutionRecord, model: EnergyModel, mesh: Mesh,
                           level: str = ORACLE, max_oracle_edges: int = MAX_ORACLE_EDGES) -> StabilityResult:
    """Check the minimality of every recorded state at its own time.

    The margin of a candidate extension is (candidate total energy) minus the
    recorded total; stability requires every margin to stay above
    -1e-9 * (1 + |E|).  See the module docstring for the level hierarchy and
    the PASS/INCONCLUSIVE semantics.  A recorded field that is not admissible
    at its own knot (a pinned DOF off the boundary datum) is a FAIL naming
    the first such knot.
    """
    return _global_stability(record, model, mesh, level, max_oracle_edges,
                             map(_euler, _evaluations(record, model, mesh)))


def _euler(knot: KnotEvaluation) -> tuple[float, str]:
    """The knot's Euler residual and "", or inf and why its field is not
    admissible."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):   # an overflow is an inf residual
            return knot.residual, ""
    except ValueError as exc:   # e.g. a pinned DOF off the boundary datum
        return np.inf, str(exc)


def _global_stability(record: EvolutionRecord, model: EnergyModel, mesh: Mesh, level: str,
                      max_oracle_edges: int, residuals) -> StabilityResult:
    """``check_global_stability`` from each knot's ``_euler``, in knot order."""
    if level not in _LEVELS:
        raise AuditError(f"unknown stability level {level!r}; expected one of {_LEVELS}")
    kind = BRUTE_FORCE if level == ORACLE else GREEDY
    search = _Search(model, mesh, SearchStrategy(kind, max_oracle_edges))
    n = len(record)

    max_resid = 0.0
    worst_resid_knot = -1
    inadmissible = ""
    for i, (r, refusal) in enumerate(residuals):
        inadmissible = inadmissible or (refusal and f"knot {i}: {refusal}")
        if r > max_resid or not np.isfinite(r):   # a NaN residual is the worst
            max_resid, worst_resid_knot = r, i
    euler_ok = max_resid <= _RESIDUAL_TOL

    violations: list[tuple[int, tuple, float]] = []
    worst_margin = np.inf
    worst_knot = -1

    if level in (ONE_EDGE, ORACLE):
        for i in range(n):
            t = float(record.times[i])
            base = record.cracks[i]
            e_rec = record.total_energy(i)
            tol_i = tie_tolerance(e_rec)
            n_cand = len(search.candidates(base))
            if level == ORACLE and n_cand > max_oracle_edges:
                raise AuditError(
                    f"oracle stability over {n_cand} candidate edges exceeds "
                    f"the limit {max_oracle_edges}; use level one_edge or raise the limit"
                )
            cracks, energies = search.rivals(base, t, e_rec)
            for crack, e_cand in zip(cracks, energies):
                margin = e_cand - e_rec
                if margin < worst_margin:
                    worst_margin, worst_knot = margin, i
                if margin < -tol_i:
                    violations.append((i, crack.edge_ids, float(margin)))

    level_passed = euler_ok and not violations
    if not level_passed:
        verdict = "FAIL"
    else:
        verdict = "PASS" if level == ORACLE else "INCONCLUSIVE"

    detail = ""
    if inadmissible:
        detail = inadmissible
    elif not euler_ok:
        detail = f"euler residual {max_resid:.3e} at knot {worst_resid_knot} exceeds {_RESIDUAL_TOL:.1e}"
    elif violations:
        k, ids, m = violations[0]
        detail = f"knot {k}: extending to {list(ids)} lowers the energy by {-m:.3e}"
    elif verdict == "INCONCLUSIVE":
        detail = f"necessary conditions at level {level} passed; not an exhaustive certificate"

    res = CheckResult(
        f"global_stability[{level}]", verdict,
        margins={"worst_margin": float(worst_margin if worst_margin < np.inf else 0.0),
                 "max_euler_residual": max_resid},
        tolerances={"residual": _RESIDUAL_TOL, "tie": tie_tolerance(record.total_energy(0)) if n else 0.0},
        details=detail,
    )
    return StabilityResult(
        level=level, level_passed=level_passed,
        worst_margin=float(worst_margin if worst_margin < np.inf else 0.0),
        worst_knot=worst_knot, max_euler_residual=max_resid,
        violations=violations, result=res,
    )


# ---------------------------------------------------------------------------
# structure of the crack set
# ---------------------------------------------------------------------------

@dataclass
class StructureResult:
    never_opened: dict[int, tuple]   # knot -> edges cracked but never jumped so far
    jump_sets: list[CrackSet]
    result: CheckResult


def check_structure(record: EvolutionRecord, boundary: TimeTable) -> StructureResult:
    """Verify that each crack set equals the initial crack united with all
    past jump supports, as exact edge sets.

    Jumps outside the crack set are impossible by construction of the broken
    space and are asserted; the informative failure mode is an edge that was
    cracked but never opened.  Each knot separates opening from rounding at
    1e-9 * (1 + max |psi(t_i)|), the datum of its own time; the report gives
    the largest tolerance used.
    """
    cum = record.cracks[0].as_set()
    never: dict[int, tuple] = {}
    jump_sets: list[CrackSet] = []
    used = 0.0
    for i in range(len(record)):
        psi = boundary.value(float(record.times[i]))
        tol_i = default_jump_tol(psi)
        used = max(used, tol_i)
        s = jump_support(record.fields[i], psi, tol_i)
        jump_sets.append(s)
        assert s.issubset(record.cracks[i]), "jump outside the crack set"
        cum |= s.as_set()
        missing = record.cracks[i].as_set() - cum
        if missing:
            never[i] = tuple(sorted(missing))
    if never:
        first = min(never)
        res = CheckResult(
            "structure_identity", "FAIL",
            tolerances={"jump": used},
            details=f"knot {first}: cracked edges {list(never[first])} never opened",
        )
    else:
        res = CheckResult("structure_identity", "PASS", tolerances={"jump": used})
    return StructureResult(never, jump_sets, res)


# ---------------------------------------------------------------------------
# duality certificates
# ---------------------------------------------------------------------------

# The last Gram factor built: (weak reference to its layout, weak reference
# to its mesh, use_mass, solve).  A record's crack sets only grow, so the
# knots of one crack set are consecutive and one entry factors each crack set
# once per record.  The entry is replaced by a single assignment, so a
# concurrent caller can at worst factor again.  The empty entry's references
# are dead from the start.
_gram_entry: tuple = (lambda: None, lambda: None, False, None)


def _gram_solver(mesh: Mesh, topo: DofTopology, use_mass: bool):
    """``solve(rhs)`` on the free block of the Gram matrix of the certificate
    projection, sum_T area^2 (Gt G + [use_mass] ones(3,3) / 9), from the
    cached entry when it was built for this layout, mesh and ``use_mass``."""
    global _gram_entry
    layout, grid, mass, solve = _gram_entry
    if layout() is topo and grid() is mesh and mass == use_mass:
        return solve
    area = mesh.tri_area
    gram = _FreeBlock(topo).matrix(_local_forms(mesh, area**2, area**2 if use_mass else 0.0))
    solve = _spd_solver(gram)
    _gram_entry = (weakref.ref(topo), weakref.ref(mesh), use_mass, solve)
    return solve


@dataclass
class DualCertificate:
    annihilation_residual: float   # dual norm of the raw stress triple on the variations
    fenchel_gap: float             # duality gap of the projected triple (>= 0)
    projection_norm: float         # size of the feasibility correction
    post_residual: float           # annihilation defect after projection (rounding only)
    primal_value: float


def dual_certificate(model: EnergyModel, mesh: Mesh, crack: CrackSet, t: float,
                     u: BrokenField) -> DualCertificate:
    """Certify minimality of ``u`` at fixed crack via the dual problem.

    The stress triple (bulk stress, minus body-force density, minus
    surface-force density) of an exact minimizer annihilates every admissible
    variation, and its pointwise convex conjugates close the duality gap.
    For an approximate minimizer the triple is first corrected by the
    minimum-norm shift that restores exact annihilation (a small SPD solve);
    the resulting gap bounds the primal suboptimality:

        elastic(w) >= elastic(u) - gap   for every admissible w.

    Both certificates vanish quadratically as the solver residual goes to
    zero.  A field that is not admissible at t has no certificate: it raises
    the ValueError of ``euler_residual``.

    The Gram matrix of the projection depends only on the DOF layout of
    ``u``, the mesh and whether the body term is present; its factor is
    cached for the last such triple (see ``_gram_solver``), so the knots of
    one crack set cost one back-solve each.
    """
    return _certificate(KnotEvaluation(model, mesh, t, u, crack))


def _certificate(knot: KnotEvaluation) -> DualCertificate:
    """``dual_certificate`` of the knot, with sums and means written as
    ``KnotEvaluation`` writes them."""
    mesh, model, topo = knot.mesh, knot.model, knot.u.topology
    area = mesh.tri_area
    rho = knot.pairing
    sig1, sig2, sig3 = knot.triple

    # minimum-norm correction of (sig1, sig2) restoring exact annihilation
    use_mass = model.body.lam > 0.0
    yfull = np.zeros(topo.n_dofs)
    yfull[topo.free_dofs] = _gram_solver(mesh, topo, use_mass)(-rho)
    ycv = yfull[topo.corner_dof]
    dsig1 = area[:, None] * corner_gradients(mesh, ycv)
    dsig2 = area * (ycv.sum(axis=1) / 3) if use_mass else np.zeros(mesh.n_triangles)
    sig1_hat = sig1 + dsig1
    sig2_hat = sig2 + dsig2
    correction = float(np.sqrt((dsig1**2).sum() + (dsig2**2).sum()))

    post = assemble_pairing(mesh, topo, sig1_hat, sig2_hat, sig3)[topo.free_dofs]

    primal, _ = knot.elastic
    # the surface potential is linear, so its conjugate is the indicator of
    # {sigma3 = -g}; sig3 is left uncorrected and contributes 0
    conj = float((area * bulk_conjugate_density(model.bulk, np.arange(mesh.n_triangles), sig1_hat)).sum())
    conj += float((area * body_conjugate_density(model.body, knot.t, sig2_hat)).sum())
    pairing = float((area * np.einsum("tk,tk->t", sig1_hat, knot.grads)).sum())
    pairing += float((area * sig2_hat * knot.means).sum())
    ids = mesh.surface_edges
    if len(ids):
        pairing += float((mesh.edge_length[ids] * sig3 * knot.trace).sum())
    gap = primal + conj - pairing

    return DualCertificate(
        annihilation_residual=knot.residual,
        fenchel_gap=float(gap),
        projection_norm=correction,
        post_residual=float(np.linalg.norm(post)),
        primal_value=primal,
    )


def check_certificates(record: EvolutionRecord, model: EnergyModel, mesh: Mesh) -> CheckResult:
    """PASS iff every knot's dual certificate meets the bounds of a solve at
    the default tolerance: an annihilation residual of at most 1e-8 and a
    Fenchel gap of at most 1e-8 (1 + |primal|).  A FAIL names the first knot
    that misses one, or whose field is not admissible at its time."""
    return _certificates(map(_certify, _evaluations(record, model, mesh)))


def _certify(knot: KnotEvaluation) -> DualCertificate | str:
    """The knot's certificate, or why it has none.  Only the knot's own
    numbers may overflow quietly; a warning in the certificate's own
    arithmetic is raised as ``dual_certificate`` raises it."""
    residual, refusal = _euler(knot)
    if refusal:
        return refusal
    if not np.isfinite(residual):   # a non-finite triple has no projection
        return f"the annihilation residual is {residual}"
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is an inf primal and gap
        knot.elastic   # kept by the knot for the certificate
    return _certificate(knot)


def _certificates(certs) -> CheckResult:
    """``check_certificates`` from each knot's ``_certify``, in knot order."""
    residuals, gaps = [0.0], [0.0]
    failure = ""
    for i, c in enumerate(certs):
        if isinstance(c, str):
            residuals.append(np.inf)
            failure = failure or f"knot {i}: {c}"
            continue
        residuals.append(c.annihilation_residual)
        gaps.append(abs(c.fenchel_gap) / (1.0 + abs(c.primal_value)))
        if failure:
            continue
        if not c.annihilation_residual <= _RESIDUAL_TOL:
            failure = f"knot {i}: annihilation residual {c.annihilation_residual:.3e} exceeds {_RESIDUAL_TOL:.1e}"
        elif not abs(c.fenchel_gap) <= _RESIDUAL_TOL * (1.0 + abs(c.primal_value)):
            failure = f"knot {i}: Fenchel gap {c.fenchel_gap:.3e} exceeds {_RESIDUAL_TOL:.1e} (1 + |primal|)"
    return CheckResult(
        "dual_certificates", "FAIL" if failure else "PASS",
        margins={"max_annihilation_residual": float(np.max(residuals)),
                 "max_relative_gap": float(np.max(gaps))},
        tolerances={"residual": _RESIDUAL_TOL, "relative_gap": _RESIDUAL_TOL},
        details=failure,
    )


# ---------------------------------------------------------------------------
# the audit of a record
# ---------------------------------------------------------------------------

CHECKS = ("irreversibility", "balance", "stability", "structure", "certificates")
# what each check reads from a knot's evaluation
_MEASURES = {"balance": _recomputed_total, "stability": _euler, "certificates": _certify}


def _evaluations(record: EvolutionRecord, model: EnergyModel, mesh: Mesh):
    """Each knot's ``KnotEvaluation``, built when it is reached."""
    return (KnotEvaluation(model, mesh, float(record.times[i]), record.fields[i], record.cracks[i])
            for i in range(len(record)))


def audit_record(record: EvolutionRecord, model: EnergyModel, mesh: Mesh, checks,
                 level: str = "auto", max_oracle_edges: int = MAX_ORACLE_EDGES,
                 balance_tol: float | None = None) -> AuditReport:
    """The report of the named ``checks`` (of ``CHECKS``), in their order:
    each the result of its public check (``check_energy_balance`` at
    ``balance_tol`` with no interval excluded, ``check_global_stability`` at
    ``level``, ``check_certificates`` ...), from one ``KnotEvaluation`` per
    knot that every check reading the fields shares.  Level "auto" is the
    oracle where the mesh has at most ``max_oracle_edges`` crackable edges,
    else one_edge."""
    unknown = set(checks) - set(CHECKS)
    if unknown:
        raise AuditError(f"unknown checks: {sorted(unknown)}; available: {sorted(CHECKS)}")
    if not checks:
        raise AuditError(f"no check named; available: {sorted(CHECKS)}")
    measured = {name: [] for name in checks if name in _MEASURES}
    if measured:
        for knot in _evaluations(record, model, mesh):
            for name, values in measured.items():
                values.append(_MEASURES[name](knot))
    results = []
    for name in checks:
        if name == "irreversibility":
            results.append(check_irreversibility(record))
        elif name == "balance":
            results.append(_energy_balance(record, measured[name], (), balance_tol).result)
        elif name == "stability":
            if level == "auto":
                level = ORACLE if len(crackable_edges(mesh)) <= max_oracle_edges else ONE_EDGE
            results.append(_global_stability(record, model, mesh, level, max_oracle_edges, measured[name]).result)
        elif name == "structure":
            results.append(check_structure(record, model.boundary).result)
        else:
            results.append(_certificates(measured[name]))
    return AuditReport(results)


# ---------------------------------------------------------------------------
# stress / deformation continuity probe
# ---------------------------------------------------------------------------

@dataclass
class ProbeResult:
    verdict: str                 # PASS / FAIL / INCONCLUSIVE
    rows: list[dict]             # per window knot: s, gap, and the four distances
    result: CheckResult


_PROBE_COLUMNS = ("stress_dual", "gradient", "body", "trace")


def stress_continuity_probe(record: EvolutionRecord, model: EnergyModel, mesh: Mesh,
                            t_index: int, window: int = 4,
                            atol: float = 1e-12) -> ProbeResult:
    """Left-continuity probe of stress and deformation at a knot.

    Requires the crack set to be constant over the ``window`` knots ending at
    ``t_index`` (otherwise INCONCLUSIVE: the one-sided limit hypothesis
    fails).  Reports, for each earlier knot s, the distances

        || stress(grad u(s)) - stress(grad u(t)) ||_{p'}    (dual exponent)
        || grad u(s) - grad u(t) ||_p
        || u(s) - u(t) ||_q
        || u(s) - u(t) ||_{r, surface part}

    and checks each column is dominated by C |t - s| with C fitted from the
    two knots nearest to t; this is the discrete counterpart of Lipschitz
    loads driving a continuously varying minimizer on a frozen crack.  The
    fitted C of each column is the result's margin ``rate_<column>``.
    """
    n = len(record)
    if not 0 <= t_index < n:
        raise AuditError(f"knot index {t_index} out of range")
    lo = max(0, t_index - window)
    s_indices = list(range(lo, t_index))
    if len(s_indices) < 2:
        res = CheckResult("stress_continuity", "INCONCLUSIVE",
                          details="window has fewer than two earlier knots")
        return ProbeResult("INCONCLUSIVE", [], res)

    base_crack = record.cracks[t_index]
    for s in s_indices:
        if record.cracks[s] != base_crack:
            res = CheckResult(
                "stress_continuity", "INCONCLUSIVE",
                details=(f"crack set changes inside the window (knot {s}); "
                         "the one-sided limit hypothesis fails"),
            )
            return ProbeResult("INCONCLUSIVE", [], res)

    p, q, r = model.p, model.q, model.r
    pc = p / (p - 1.0)
    t = float(record.times[t_index])
    ut = record.fields[t_index]
    tri = np.arange(mesh.n_triangles)
    sig_t = stress(model.bulk, tri, ut.gradients())

    rows = []
    for s in s_indices:
        us = record.fields[s]
        dsig = stress(model.bulk, tri, us.gradients()) - sig_t
        dgrad = us.gradients() - ut.gradients()
        dvals = us.values - ut.values
        dfield = BrokenField(ut.topology, dvals)
        rows.append({
            "s": float(record.times[s]),
            "dt": t - float(record.times[s]),
            "stress_dual": float(np.sum(mesh.tri_area * np.linalg.norm(dsig, axis=1) ** pc) ** (1.0 / pc)),
            "gradient": float(np.sum(mesh.tri_area * np.linalg.norm(dgrad, axis=1) ** p) ** (1.0 / p)),
            "body": lq_norm_tri(mesh, dfield.tri_means(), q),
            "trace": lr_norm_surface(mesh, trace_on_surface_part(dfield), r),
        })

    # rate fitted from the two knots nearest to t
    nearest = sorted(rows, key=lambda row: row["dt"])[:2]
    rates = {c: max(row[c] / row["dt"] for row in nearest) for c in _PROBE_COLUMNS}
    ok = all(
        row[c] <= rates[c] * row["dt"] + atol
        for row in rows for c in _PROBE_COLUMNS
    )
    verdict = "PASS" if ok else "FAIL"
    res = CheckResult(
        "stress_continuity", verdict,
        margins={f"rate_{c}": rates[c] for c in _PROBE_COLUMNS},
        tolerances={"atol": atol},
        details=f"window knots {s_indices} against knot {t_index}",
    )
    return ProbeResult(verdict, rows, res)
