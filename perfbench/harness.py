"""One benchmark operation: the full user path for one instance, checked.

The path follows ``qsfrac run`` then ``qsfrac audit`` and ``qsfrac
envelope``: build the problem, run the evolution, save and reload the
record, audit it (irreversibility, energy balance with the crack-jump
intervals excluded, global stability, structure), certify every knot by
duality and take both crack envelopes.  Every step is also a correctness
check; ``OpResult.errors`` lists the checks that failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from qsfrac import audit, config, evolution
from qsfrac.evolution import BRUTE_FORCE, EvolutionRecord
from qsfrac.mesh import mesh_fingerprint

from tracing import NULL, SOLVE

CERT_TOL = 1e-8
ENERGY_RTOL = 1e-9
# absolute floor for stored energies that are exactly zero (zero_load)
ENERGY_ATOL = 1e-15


@dataclass
class OpResult:
    key: str
    run_s: float = 0.0
    save_s: float = 0.0
    audit_s: float = 0.0
    record: bytes = b""
    errors: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)   # traced passes only

    @property
    def total_s(self) -> float:
        return self.run_s + self.save_s + self.audit_s

    @property
    def ok(self) -> bool:
        return not self.errors


def record_summary(record: EvolutionRecord) -> dict:
    """What the seed-0 reference keeps of a record."""
    return {
        "jumps": record.jump_knots(),
        "cracks": [list(c.edge_ids) for c in record.cracks],
        "totals": [record.total_energy(i) for i in range(len(record))],
    }


def compare_reference(summary: dict, ref: dict) -> list[str]:
    errors = []
    if summary["jumps"] != ref["jumps"]:
        errors.append(f"reference: jump knots {summary['jumps']} != {ref['jumps']}")
    if summary["cracks"] != ref["cracks"]:
        errors.append("reference: crack sets differ")
    if len(summary["totals"]) != len(ref["totals"]):
        errors.append("reference: knot count differs")
    for i, (e, r) in enumerate(zip(summary["totals"], ref["totals"])):
        if abs(e - r) > ENERGY_RTOL * abs(r) + ENERGY_ATOL:
            errors.append(f"reference: total energy at knot {i} is {e!r}, expected {r!r}")
            break
    return errors


def run_operation(inst, workdir: Path, tracer=NULL, reference: dict | None = None,
                  tamper=None, clock=perf_counter) -> OpResult:
    """Run and check one instance, timing its steps with ``clock``.
    ``tamper(path)`` may edit the saved record before it is reloaded (used by
    the self-test)."""
    out = OpResult(inst.key)
    path = workdir / f"{inst.key}.json"
    try:
        with tracer.span("bench.operation"):
            _run(inst, path, tracer, reference, tamper, clock, out)
    except Exception as exc:  # any exception fails the operation, never the run
        out.errors.append(f"{type(exc).__name__}: {exc}")
    return out


def _run(inst, path: Path, tracer, reference, tamper, clock, out: OpResult) -> None:
    errors = out.errors
    with tracer.span("config.build_problem"):
        p = config.parse_config(inst.text).build_problem()

    before = _counts(tracer)
    t0 = clock()
    with tracer.span("evolution.run_evolution"):
        rec = evolution.run_evolution(
            p.model, p.mesh, p.grid, p.initial_crack, p.strategy,
            solver_tol=p.solver_tol,
            require_initial_minimality=p.require_initial_minimality,
            config_hash=p.config_hash,
        )
    t1 = clock()
    in_run = _counts(tracer, before)
    with tracer.span("evolution.record_save"):
        rec.save(path)
    t2 = clock()
    if tamper is not None:
        tamper(path)

    t3 = clock()
    with tracer.span("evolution.record_load"):
        loaded = EvolutionRecord.load(path, p.mesh, p.model)
    if loaded.config_hash != p.config_hash or loaded.mesh_hash != mesh_fingerprint(p.mesh):
        errors.append("record hashes do not match the config")
    with tracer.span("audit.irreversibility"):
        irr = audit.check_irreversibility(loaded)
    excluded = tuple(j - 1 for j in loaded.jump_knots())
    with tracer.span("audit.balance"):
        bal = audit.check_energy_balance(loaded, p.model, p.mesh, exclude_intervals=excluded)
    before = _counts(tracer)
    with tracer.span("audit.stability"):
        stab = audit.check_global_stability(loaded, p.model, p.mesh, level=inst.level)
    in_stability = _counts(tracer, before)
    with tracer.span("audit.structure"):
        struct = audit.check_structure(loaded, p.model.boundary)
    certs = []
    for i in range(len(loaded)):
        with tracer.span("audit.dual_certificate"):
            certs.append(audit.dual_certificate(
                p.model, p.mesh, loaded.cracks[i], float(loaded.times[i]), loaded.fields[i]))
    with tracer.span("evolution.envelope"):
        left = evolution.left_envelope(loaded, p.model, p.mesh)
        right = evolution.right_envelope(loaded, p.model, p.mesh)
    t4 = clock()

    out.run_s, out.save_s, out.audit_s = t1 - t0, t2 - t1, t4 - t3
    out.record = path.read_bytes()

    for res in (irr, bal.result, struct.result):
        if res.verdict != "PASS":
            errors.append(f"{res.name}: {res.verdict} {res.details}")
    stable = stab.result.verdict == "PASS" if inst.level == "oracle" else stab.level_passed
    if not stable:
        errors.append(f"{stab.result.name}: {stab.result.verdict} {stab.result.details}")
    for i, c in enumerate(certs):
        if c.annihilation_residual > CERT_TOL:
            errors.append(f"certificate at knot {i}: residual {c.annihilation_residual:.3e}")
        if abs(c.fenchel_gap) > CERT_TOL * (1.0 + abs(c.primal_value)):
            errors.append(f"certificate at knot {i}: gap {c.fenchel_gap:.3e}")
    n = len(loaded)
    if not all(left.cracks[i].issubset(loaded.cracks[i]) for i in range(n)):
        errors.append("left envelope is not inside the record")
    if not all(loaded.cracks[i].issubset(right.cracks[i]) for i in range(n)):
        errors.append("right envelope does not contain the record")
    if bool(loaded.jump_knots()) != inst.expect_jump:
        errors.append(f"jump knots {loaded.jump_knots()}, expected a jump: {inst.expect_jump}")
    out.summary = record_summary(loaded)
    if reference is not None:
        errors.extend(compare_reference(out.summary, reference))
    if tracer.enabled:
        # every solve inside the run: the initial state, each candidate, and
        # per later knot one re-solve (brute force) or two (greedy)
        per_knot = 1 if p.strategy.kind == BRUTE_FORCE else 2
        expected = 1 + in_run["items"] + per_knot * (len(p.grid) - 1)
        if in_run["solves"] != expected:
            errors.append(f"solve count {in_run['solves']} != 1 + {in_run['items']} "
                          f"candidates + {per_knot} x {len(p.grid) - 1} knots")
        out.counts = {"candidates": in_run["items"],
                      "stability_candidates": in_stability["items"],
                      "knots": len(p.grid), "record_bytes": len(out.record)}


def _counts(tracer, since: dict | None = None) -> dict:
    now = {"solves": tracer.count(SOLVE), "items": tracer.count("parallel_map_items")}
    if since is None:
        return now
    return {k: now[k] - since[k] for k in now}
