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

from numpy.linalg import LinAlgError

from . import audit as audit_mod
from .audit import AuditError, AuditReport, CheckResult
from .config import ConfigError, load_config
from .evolution import (
    BRUTE_FORCE,
    GREEDY,
    GREEDY_WITH_PAIRS,
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
                     help="comma list of checks to run")
    aud.add_argument("--level", choices=("euler", "one_edge", "oracle", "auto"), default="auto",
                     help="global-stability level (auto: oracle when small enough)")
    aud.add_argument("--max-edges", type=int, default=12,
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
    cmp_.add_argument("--max-edges", type=int, default=12,
                      help="refuse instances with more crackable edges than this (cap 20)")
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
    except (SolveError, EvolutionError, LinAlgError) as exc:
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
        try:
            n = int(round(problem.grid.horizon / args.dt)) + 1
            problem.grid = TimeGrid.uniform(problem.grid.horizon, max(n, 2))
        except (OverflowError, ValueError, MemoryError) as exc:
            raise ConfigError(f"--dt {args.dt!r} is too small for the horizon "
                              f"{problem.grid.horizon!r}: {exc}") from exc
    if args.command == "run" and args.tol is not None:
        problem.solver_tol = args.tol
    return problem


def cmd_run(args) -> int:
    problem = _load_problem(args)
    try:
        record = run_evolution(
            problem.model, problem.mesh, problem.grid, problem.initial_crack,
            problem.strategy, solver_tol=problem.solver_tol,
            require_initial_minimality=problem.require_initial_minimality,
            config_hash=problem.config_hash,
        )
    except EvolutionError as exc:
        if exc.partial_record is not None:
            out = Path(args.out)
            exc.partial_record.save(out)
            print(f"partial (incomplete) record written to {out}", file=sys.stderr)
        raise
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    record.save(out)
    csv_path = Path(args.csv) if args.csv else out.with_suffix(".csv")
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
    if record.config_hash != problem.config_hash:
        raise AuditError("record was produced from a different config (hash mismatch)")
    if record.mesh_hash != mesh_fingerprint(problem.mesh):
        raise AuditError("record mesh fingerprint does not match the config's mesh")


def cmd_audit(args) -> int:
    problem = _load_problem(args)
    record = EvolutionRecord.load(args.record, problem.mesh, problem.model)
    _verify_hashes(record, problem)
    wanted = [c.strip() for c in args.checks.split(",") if c.strip()]
    known = {"irreversibility", "balance", "stability", "structure"}
    unknown = set(wanted) - known
    if unknown:
        raise AuditError(f"unknown checks: {sorted(unknown)}; available: {sorted(known)}")
    if not wanted:
        raise AuditError(f"--checks names no check; available: {sorted(known)}")

    results = []
    if not record.complete:
        results.append(CheckResult(
            "completeness", "FAIL",
            details=f"incomplete record: the run stopped after {len(record)} of "
                    f"{len(problem.grid)} configured knots",
        ))
    for name in wanted:
        if name == "irreversibility":
            results.append(audit_mod.check_irreversibility(record))
        elif name == "balance":
            results.append(audit_mod.check_energy_balance(
                record, problem.model, problem.mesh, tol=args.tol).result)
        elif name == "stability":
            level = args.level
            if level == "auto":
                n_cand = len(crackable_edges(problem.mesh))
                level = "oracle" if n_cand <= args.max_edges else "one_edge"
            results.append(audit_mod.check_global_stability(
                record, problem.model, problem.mesh, level=level,
                max_oracle_edges=args.max_edges).result)
        elif name == "structure":
            results.append(audit_mod.check_structure(record, problem.model.boundary).result)
    report = AuditReport(results)
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
    max_edges = min(args.max_edges, 20)
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
