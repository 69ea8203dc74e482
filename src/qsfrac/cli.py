"""Batch front door: run, audit, envelope and oracle-compare subcommands.

Exit codes: 0 success, 1 audit failure, 2 usage or configuration error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import audit as audit_mod
from .audit import AuditError, CheckResult
from .config import MAX_KNOTS, ConfigError, load_config
from .evolution import (
    BRUTE_FORCE,
    GREEDY,
    GREEDY_WITH_PAIRS,
    MAX_BRUTEFORCE_EDGES,
    EvolutionError,
    EvolutionRecord,
    RecordError,
    SearchLimitError,
    SearchStrategy,
    TimeGrid,
    left_envelope,
    right_envelope,
    run_evolution,
)
from .mesh import crackable_edges, mesh_fingerprint
from .minimize import SolveError

EXIT_OK = 0
EXIT_AUDIT = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_STRATEGIES = {
    "brute-force": BRUTE_FORCE, "brute_force": BRUTE_FORCE,
    "greedy": GREEDY,
    "greedy-pairs": GREEDY_WITH_PAIRS, "greedy_pairs": GREEDY_WITH_PAIRS,
}


def _positive(text: str) -> float:
    """An argparse type: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _count(text: str) -> int:
    """An argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsfrac",
        description="Quasistatic brittle crack growth: run, audit, envelopes, comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an evolution and write record + CSV trace")
    run.add_argument("--config", required=True, help="config file path")
    run.add_argument("--out", required=True, help="record output path (JSON)")
    run.add_argument("--csv", default=None, help="CSV trace path (default: record path with .csv)")
    run.add_argument("--strategy", choices=sorted(_STRATEGIES), default=None,
                     help="override the configured search strategy")
    run.add_argument("--dt", type=_positive, default=None,
                     help="override the grid with uniform spacing dt")
    run.add_argument("--tol", type=_positive, default=None, help="override the solver tolerance")

    aud = sub.add_parser("audit", help="audit a record against its config")
    aud.add_argument("--config", required=True)
    aud.add_argument("--record", required=True)
    aud.add_argument("--out", default=None, help="machine-readable report path (JSON)")
    aud.add_argument("--checks", default="irreversibility,balance,stability,structure",
                     help=f"comma list of checks to run, of: {', '.join(audit_mod.CHECKS)}")
    aud.add_argument("--level", choices=("euler", "one_edge", "oracle", "auto"), default="auto",
                     help="global-stability level (auto: oracle when small enough)")
    aud.add_argument("--max-edges", type=_count, default=audit_mod.MAX_ORACLE_EDGES,
                     help="candidate-edge cap for the oracle stability level")
    aud.add_argument("--tol", type=_positive, default=None, help="energy-balance gap tolerance")
    aud.add_argument("--inconclusive", choices=("pass", "fail"), default="pass",
                     help="how INCONCLUSIVE verdicts count toward the exit code")

    env = sub.add_parser("envelope", help="write the one-sided crack envelope of a record")
    env.add_argument("--config", required=True)
    env.add_argument("--record", required=True)
    env.add_argument("--side", choices=("left", "right"), required=True)
    env.add_argument("--out", required=True)

    cmp_ = sub.add_parser("oracle-compare", help="brute force vs greedy strategies, end to end")
    cmp_.add_argument("--config", required=True)
    cmp_.add_argument("--max-edges", type=_count, default=audit_mod.MAX_ORACLE_EDGES,
                      help=f"refuse instances with more crackable edges than this (cap {MAX_BRUTEFORCE_EDGES})")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "audit":
            return cmd_audit(args)
        if args.command == "envelope":
            return cmd_envelope(args)
        return cmd_oracle_compare(args)
    except (ConfigError, AuditError, RecordError, SearchLimitError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolveError, EvolutionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _load_problem(args):
    cfg = load_config(args.config)
    problem = cfg.build_problem()
    if getattr(args, "strategy", None):
        problem.strategy = SearchStrategy(
            kind=_STRATEGIES[args.strategy],
            max_bruteforce_edges=problem.strategy.max_bruteforce_edges,
        )
    if getattr(args, "dt", None) is not None:
        steps = problem.grid.horizon / args.dt   # inf where it overflows
        if not steps < MAX_KNOTS - 0.5:   # else round(steps) + 1 knots exceed the cap
            raise ConfigError(f"--dt {args.dt!r} is too small for the horizon {problem.grid.horizon!r}: "
                              f"it needs more than {MAX_KNOTS} knots")
        problem.grid = TimeGrid.uniform(problem.grid.horizon, max(int(round(steps)) + 1, 2))
    if args.command == "run" and args.tol is not None:
        problem.solver_tol = args.tol
    return problem


def cmd_run(args) -> int:
    problem = _load_problem(args)
    out = Path(args.out)
    csv_path = Path(args.csv) if args.csv else out.with_suffix(".csv")
    # before the run: a failed run saves its partial record there, and a
    # finished one its trace
    out.parent.mkdir(parents=True, exist_ok=True)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        record = run_evolution(
            problem.model, problem.mesh, problem.grid, problem.initial_crack,
            problem.strategy, solver_tol=problem.solver_tol,
            require_initial_minimality=problem.require_initial_minimality,
            config_hash=problem.config_hash,
        )
    except EvolutionError as exc:
        if exc.partial_record is not None:
            exc.partial_record.save(out)
            print(f"partial (incomplete) record written to {out}", file=sys.stderr)
        raise
    record.save(out)
    record.write_csv(csv_path)
    jumps = record.jump_knots()
    print(f"record: {out}")
    print(f"trace:  {csv_path}")
    print(f"knots: {len(record)}, crack jumps at knots {jumps}, "
          f"final energy {record.total_energy(len(record) - 1):.6e}")
    for note in record.annotations:
        print(f"note: {note}")
    return EXIT_OK


def _verify_hashes(record: EvolutionRecord, problem) -> None:
    """Refuse a record of another config or mesh, or one whose grid runs past
    the config's horizon (its loads are not defined there)."""
    if record.config_hash != problem.config_hash:
        raise AuditError("record was produced from a different config (hash mismatch)")
    if record.mesh_hash != mesh_fingerprint(problem.mesh):
        raise AuditError("record mesh fingerprint does not match the config's mesh")
    if record.grid.horizon > problem.grid.horizon:
        raise RecordError(f"the record's grid ends at {record.grid.horizon!r}, "
                          f"after time.horizon = {problem.grid.horizon!r}")


def cmd_audit(args) -> int:
    problem = _load_problem(args)
    record = EvolutionRecord.load(args.record, problem.mesh, problem.model)
    _verify_hashes(record, problem)
    wanted = [c.strip() for c in args.checks.split(",") if c.strip()]
    if args.out:   # before the audit, so its report has somewhere to go
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    report = audit_mod.audit_record(record, problem.model, problem.mesh, wanted, level=args.level,
                                    max_oracle_edges=args.max_edges, balance_tol=args.tol)
    if not record.complete:
        report.results.insert(0, CheckResult(
            "completeness", "FAIL",
            details=f"incomplete record: the run stopped after {len(record)} of "
                    f"{len(problem.grid)} configured knots",
        ))
    print(report.to_text())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_payload(), fh, sort_keys=True, indent=1, allow_nan=False)
            fh.write("\n")
        print(f"report: {args.out}")
    ok = report.ok(inconclusive_ok=args.inconclusive == "pass")
    return EXIT_OK if ok else EXIT_AUDIT


def cmd_envelope(args) -> int:
    problem = _load_problem(args)
    record = EvolutionRecord.load(args.record, problem.mesh, problem.model)
    _verify_hashes(record, problem)
    if not record.complete:
        raise RecordError(f"{args.record} is an incomplete record, which has no envelope: the "
                          f"run stopped after {len(record)} of {len(problem.grid)} configured knots")
    jumps = record.jump_knots()
    fn = left_envelope if args.side == "left" else right_envelope
    out_record = fn(record, problem.model, problem.mesh)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out_record.save(out)
    print(f"jump knots C = {jumps}")
    if args.side == "left":
        nested = all(out_record.cracks[i].issubset(record.cracks[i])
                     for i in range(len(record)))
        print(f"sandwich: left envelope inside the input at every knot: {nested}")
    else:
        nested = all(record.cracks[i].issubset(out_record.cracks[i])
                     for i in range(len(record)))
        print(f"sandwich: input inside the right envelope at every knot: {nested}")
    print(f"{args.side} envelope written to {out}")
    return EXIT_OK


def cmd_oracle_compare(args) -> int:
    problem = _load_problem(args)
    max_edges = min(args.max_edges, MAX_BRUTEFORCE_EDGES)
    n_cand = len(crackable_edges(problem.mesh))
    if n_cand > max_edges:
        raise AuditError(
            f"instance has {n_cand} crackable edges, above the limit {max_edges}; "
            "oracle comparison is for small instances"
        )
    records = {}
    for kind in (BRUTE_FORCE, GREEDY, GREEDY_WITH_PAIRS):
        strategy = SearchStrategy(kind=kind, max_bruteforce_edges=max_edges)
        records[kind] = run_evolution(
            problem.model, problem.mesh, problem.grid, problem.initial_crack,
            strategy, solver_tol=problem.solver_tol,
            require_initial_minimality=problem.require_initial_minimality,
            config_hash=problem.config_hash,
        )
    base = records[BRUTE_FORCE]
    print(f"{'knot':>4s} {'t':>10s} {'E(brute)':>14s} {'gap greedy':>12s} "
          f"{'gap pairs':>12s}  crack differences")
    worst = {GREEDY: 0.0, GREEDY_WITH_PAIRS: 0.0}
    for i in range(len(base)):
        e0 = base.total_energy(i)
        gaps = {k: records[k].total_energy(i) - e0 for k in worst}
        for k in worst:
            worst[k] = max(worst[k], gaps[k])
        diffs = []
        for k, tag in ((GREEDY, "greedy"), (GREEDY_WITH_PAIRS, "pairs")):
            if records[k].cracks[i] != base.cracks[i]:
                diffs.append(f"{tag}:{list(records[k].cracks[i].edge_ids)}")
        diff_str = " ".join(diffs) if diffs else "-"
        print(f"{i:4d} {base.times[i]:10.6f} {e0:14.6e} {gaps[GREEDY]:12.3e} "
              f"{gaps[GREEDY_WITH_PAIRS]:12.3e}  {diff_str}")
    print(f"worst greedy gap: {worst[GREEDY]:.3e}; "
          f"worst pairs gap: {worst[GREEDY_WITH_PAIRS]:.3e}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
