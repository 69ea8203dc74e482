"""Benchmark of qsfrac: time to a certified record.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: the program is imported from the
checkout's ``src`` directory, never from an installed copy.  One process
runs the instances of the workload one after another (a closed loop with one
caller) in passes, until another pass would end after ``--seconds``.  Each
instance of a pass is one operation: the full user path of harness.py, with
every step checked.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: medians over passes
of the summed time per pass, set-up time, peak memory and the share of
operations that passed.  Every time is in reference seconds, read from a
clock that runs at the speed at which the machine ran a fixed calibration
sample a moment before (calibration.py), so that the drift of a shared host
cancels.
With ``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones, medians over the traced passes; a traced record must
equal the untraced one byte for byte and every traced function must be
restored afterwards.  Scratch files, and the spans of a traced run, go to
``.perfbench_work`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

# one caller on one thread: no BLAS worker threads either, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from calibration import SpeedProbe  # noqa: E402
from tracing import NULL, Tracer, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference_seed0.json"

SETUP_REPS = 5
P99_SAMPLES = 1000
TRACE_LIMIT_S = 120.0   # a traced run stops adding passes here, samples or not

LAYERS = ("config", "mesh", "broken", "energy", "minimize", "evolution", "audit", "util", "bench")

# per-layer metric -> (unit, better); the order is the order printed
PER_LAYER = {
    "config.build_problem_s": ("s", "lower"),
    "mesh.crackable_edges_calls": ("count", "lower"),
    "broken.build_topology_calls": ("count", "lower"),
    "broken.build_topology_s": ("s", "lower"),
    "broken.corner_structure_calls": ("count", "lower"),
    "broken.corner_structure_s": ("s", "lower"),
    "energy.elastic_energy_calls": ("count", "lower"),
    "energy.elastic_energy_s": ("s", "lower"),
    "energy.surface_energy_s": ("s", "lower"),
    "minimize.solve_calls": ("count", "lower"),
    "minimize.solve_s": ("s", "lower"),
    "minimize.solve_samples": ("count", "higher"),
    "minimize.solve_p50_ms": ("ms", "lower"),
    "minimize.solve_p90_ms": ("ms", "lower"),
    "minimize.solve_p99_ms": ("ms", "lower"),
    "minimize.cold_solves": ("count", "lower"),
    "minimize.cold_solve_s": ("s", "lower"),
    "minimize.warm_solve_s": ("s", "lower"),
    "minimize.reuse_ratio": ("ratio", "higher"),
    "minimize.solves_direct": ("count", "lower"),
    "minimize.solves_cg": ("count", "lower"),
    "minimize.solves_newton": ("count", "lower"),
    "minimize.iterations": ("count", "lower"),
    "minimize.max_residual": ("norm", "lower"),
    "minimize.assemble_gradient_calls": ("count", "lower"),
    "minimize.assemble_gradient_s": ("s", "lower"),
    "evolution.candidates": ("count", "lower"),
    "evolution.candidates_per_knot": ("count", "lower"),
    "evolution.initial_minimality_s": ("s", "lower"),
    "evolution.sample_power_terms_s": ("s", "lower"),
    "evolution.record_save_s": ("s", "lower"),
    "evolution.record_load_s": ("s", "lower"),
    "evolution.record_bytes": ("bytes", "lower"),
    "evolution.envelope_s": ("s", "lower"),
    "audit.stability_s": ("s", "lower"),
    "audit.stability_candidates": ("count", "lower"),
    "audit.balance_s": ("s", "lower"),
    "audit.structure_s": ("s", "lower"),
    "audit.dual_certificate_s": ("s", "lower"),
    "util.parallel_map_calls": ("count", "lower"),
    "util.parallel_map_items": ("count", "lower"),
    "util.parallel_map_s": ("s", "lower"),
    **{f"layer.{name}.self_s": ("s", "lower") for name in LAYERS},
    "trace.overhead_frac": ("ratio", "lower"),
}

# spans whose count and summed seconds give "<name>_calls" and "<name>_s"
_SPANS = (
    "config.build_problem", "mesh.crackable_edges", "broken.build_topology",
    "broken.corner_structure", "energy.elastic_energy", "energy.surface_energy",
    "minimize.solve", "minimize.assemble_gradient", "evolution.initial_minimality",
    "evolution.sample_power_terms", "evolution.record_save", "evolution.record_load",
    "evolution.envelope", "audit.stability", "audit.balance", "audit.structure",
    "audit.dual_certificate", "util.parallel_map",
)

# argv: the program's sources, the benchmark's directory
_SETUP_CHILD = """
import sys
texts = sys.stdin.read().split("\\0")
sys.path.insert(0, sys.argv[2])
from calibration import INTERPRETER_REFERENCE_S, SpeedProbe, interpreter_sample
sys.path[0] = sys.argv[1]
probe = SpeedProbe(interpreter_sample, INTERPRETER_REFERENCE_S, interval_s=0.05)
with probe.running():
    t0 = probe.clock()
    import qsfrac
    from qsfrac.config import parse_config
    for text in texts:
        parse_config(text).build_problem()
    elapsed = probe.clock() - t0
print(repr(elapsed))
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import qsfrac from this checkout's sources; exit if they are absent."""
    if not (SRC / "qsfrac" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qsfrac sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qsfrac

    if Path(qsfrac.__file__).resolve().parent != (SRC / "qsfrac").resolve():
        sys.exit(f"perfbench: imported qsfrac from {qsfrac.__file__}, not from {SRC}")


def measure_setup(texts: list[str]) -> list[float]:
    """Reference seconds to import qsfrac and build every problem, in fresh
    processes, each timed by a speed probe of its own (calibration.py).

    A first, unmeasured process writes the bytecode cache, as an install
    would, so that every measured one loads the same compiled modules."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    times = []
    for rep in range(SETUP_REPS + 1):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE)], input="\0".join(texts),
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120, check=True)
        if rep:
            times.append(float(done.stdout))
    return times


class Runner:
    """Runs passes over one workload instance list and keeps their results."""

    def __init__(self, instances, workdir: Path, reference: dict | None):
        self.instances = instances
        self.workdir = workdir
        self.reference = reference
        self.probe = SpeedProbe()
        self.first_record: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_pass(self, tracer) -> tuple[list, float]:
        """Run every instance once, timing in reference seconds.  Returns the
        results and the wall seconds of the pass."""
        from harness import run_operation

        start = perf_counter()
        results = []
        with self.probe.running():
            for inst in self.instances:
                ref = None if self.reference is None else self.reference[inst.key]
                res = run_operation(inst, self.workdir, tracer, ref, clock=self.probe.clock)
                first = self.first_record.setdefault(inst.key, res.record)
                if res.ok and res.record != first:
                    what = "traced record" if tracer.enabled else "record"
                    res.errors.append(f"{what} differs from the first untraced record of the run")
                self.attempted += 1
                if not res.ok:
                    self.failed += 1
                    self.errors.extend(f"{inst.key}: {e}" for e in res.errors)
                results.append(res)
        return results, perf_counter() - start


def end_to_end(runner: Runner, seconds: float, setup: list[float]) -> dict:
    totals, runs, audits, durations = [], [], [], []
    start = perf_counter()
    while True:
        results, dur = runner.run_pass(NULL)
        durations.append(dur)
        totals.append(sum(r.total_s for r in results))
        print(f"pass {len(totals)}: total_s {totals[-1]:.4f} (pass wall time {dur:.4f} s)",
              file=sys.stderr)
        runs.append(sum(r.run_s for r in results))
        audits.append(sum(r.audit_s for r in results))
        if perf_counter() - start + statistics.median(durations) > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "total_s": (statistics.median(totals), "s"),
        "run_s": (statistics.median(runs), "s"),
        "audit_s": (statistics.median(audits), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_frac": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }


def _pass_layers(tracer, mark: dict, results: list) -> dict:
    """Per-layer metrics of the traced pass that started at ``mark``."""
    calls, inclusive, self_s = tracer.span_totals(mark["spans"])
    counts = tracer.counts - mark["counts"]
    sums = tracer.sums - mark["sums"]
    m: dict = {}
    for span in _SPANS:
        m[f"{span}_calls"] = calls[span]
        m[f"{span}_s"] = inclusive[span]
    m["minimize.cold_solves"] = counts["cold"]
    m["minimize.cold_solve_s"] = sums["cold_s"]
    m["minimize.warm_solve_s"] = sums["warm_s"]
    m["minimize.reuse_ratio"] = 1.0 - counts["cold"] / max(calls["minimize.solve"], 1)
    for method in ("direct", "cg", "newton"):
        m[f"minimize.solves_{method}"] = counts[f"method.{method}"]
    m["minimize.iterations"] = sums["iterations"]
    m["util.parallel_map_items"] = counts["parallel_map_items"]
    op_counts = Counter()
    for r in results:
        op_counts.update(r.counts)
    m["evolution.candidates"] = op_counts["candidates"]
    m["evolution.candidates_per_knot"] = op_counts["candidates"] / max(op_counts["knots"], 1)
    m["evolution.record_bytes"] = op_counts["record_bytes"]
    m["audit.stability_candidates"] = op_counts["stability_candidates"]
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = self_s[layer]
    return m


def per_layer(runner: Runner, seconds: float, spans_path: Path) -> tuple[dict, bool]:
    tracer = Tracer(clock=runner.probe.clock)
    restored = True
    untraced, traced, passes = [], [], []
    start = perf_counter()
    results, dur = runner.run_pass(NULL)
    untraced.append(sum(r.total_s for r in results))
    durations = [dur]
    while True:
        mark = tracer.snapshot()
        tracer.install()
        try:
            results, dur = runner.run_pass(tracer)
        finally:
            restored = tracer.restore() and restored
        traced.append(sum(r.total_s for r in results))
        passes.append(_pass_layers(tracer, mark, results))
        results, dur2 = runner.run_pass(NULL)
        untraced.append(sum(r.total_s for r in results))
        durations += [dur, dur2]
        elapsed = perf_counter() - start
        enough = len(tracer.solve_ms) >= P99_SAMPLES
        if elapsed > TRACE_LIMIT_S or (enough and elapsed + 2 * statistics.median(durations) > seconds):
            break
    tracer.write(spans_path)

    metrics = {name: statistics.median_low(p[name] for p in passes)
               for name in passes[0] if name in PER_LAYER}
    ms = tracer.solve_ms
    metrics["minimize.solve_samples"] = len(ms)
    metrics["minimize.solve_p50_ms"] = percentile(ms, 50)
    metrics["minimize.solve_p90_ms"] = percentile(ms, 90)
    metrics["minimize.solve_p99_ms"] = percentile(ms, 99)
    metrics["minimize.max_residual"] = tracer.max_residual
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
    return {name: (metrics[name], PER_LAYER[name][0]) for name in PER_LAYER}, restored


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    import_program()
    # one caller, one thread: spans then nest on one stack
    os.environ["QSFRAC_THREADS"] = "1"

    instances = workload.instances(args.seed)
    reference = None
    if args.seed == 0:
        reference = json.loads(REFERENCE.read_text())
        missing = [i.key for i in instances if i.key not in reference]
        if missing:
            sys.exit(f"perfbench: no seed-0 reference for {missing}")

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        runner = Runner(instances, workdir, reference)
        restored = True
        if args.trace:
            spans_path = WORK / f"spans_{workload.name}_seed{args.seed}.json"
            metrics, restored = per_layer(runner, args.seconds, spans_path)
        else:
            setup = measure_setup([i.text for i in instances])
            metrics = end_to_end(runner, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in runner.errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if not restored:
        print("FAILED traced functions were not all restored", file=sys.stderr)
    correct = runner.failed == 0 and restored
    out = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
