"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that the config generator is deterministic, that every metric name is
well formed and matches BENCHMARK.json, that a traced pass reports every
per-layer metric, reconciles its counters, restores every traced function
and leaves records unchanged, that the speed probe leaves records unchanged
and restores the SIGALRM handler, and that a record with one stored energy
shifted fails every operation.
"""

from __future__ import annotations

import json
import re
import signal
import tempfile
import unittest
from pathlib import Path

import run
from calibration import SpeedProbe
from workloads import WORKLOADS, InstanceSpec, Workload

run.import_program()

import qsfrac.broken  # noqa: E402
import qsfrac.minimize  # noqa: E402
from harness import run_operation  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
# a brute-force instance with dense solves and a greedy one with CG solves
TINY = Workload("tiny", "", (InstanceSpec("lattice", 4),
                             InstanceSpec("notched", 3, 20, 10, "one_edge")))


def shift_one_energy(path: Path) -> None:
    payload = json.loads(path.read_text())
    energy = payload["knots"][-1]["energy"]
    energy["total"] += 1e-3 * (1.0 + abs(energy["total"]))
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


class SelfTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(dir=run.ROOT)
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def test_generator_is_deterministic(self):
        for w in WORKLOADS.values():
            for seed in (0, 1, 7):
                self.assertEqual(w.instances(seed), w.instances(seed))
            base = [s.text(0) for s in w.specs]
            self.assertNotEqual([i.text for i in w.instances(1)], base)
            self.assertEqual([i.text for i in w.instances(0)], base)

    def test_metric_names(self):
        with open(run.ROOT / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        runner = run.Runner(TINY.instances(0)[:1], self.tmp, None)
        e2e = run.end_to_end(runner, 0.0, [1.0])
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(e2e))
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))
        for name in list(e2e) + list(run.PER_LAYER) + list(WORKLOADS):
            self.assertTrue(NAME_RE.fullmatch(name), name)

    def test_traced_pass(self):
        originals = (qsfrac.minimize.build_topology, qsfrac.minimize.ElasticSolver.solve)
        runner = run.Runner(TINY.instances(3), self.tmp, None)
        metrics, restored = run.per_layer(runner, 0.0, self.tmp / "spans.json")
        self.assertTrue(restored)
        self.assertEqual(runner.errors, [])
        self.assertGreater(runner.attempted, len(TINY.specs))
        self.assertEqual(list(metrics), list(run.PER_LAYER))
        self.assertIs(qsfrac.minimize.build_topology, qsfrac.broken.build_topology)
        self.assertEqual(originals, (qsfrac.minimize.build_topology,
                                     qsfrac.minimize.ElasticSolver.solve))
        self.assertGreater(metrics["minimize.solves_cg"][0], 0)
        self.assertGreater(metrics["minimize.solves_direct"][0], 0)

    def test_probe_leaves_records_unchanged(self):
        previous = signal.getsignal(signal.SIGALRM)
        for inst in TINY.instances(2):
            plain = run_operation(inst, self.tmp)
            probe = SpeedProbe(interval_s=0.002)   # a sample about every 6 ms
            with probe.running():
                probed = run_operation(inst, self.tmp, clock=probe.clock)
            self.assertEqual(plain.errors, [])
            self.assertEqual(probed.errors, [])
            self.assertEqual(plain.record, probed.record)
            self.assertGreater(len(probe.samples), 10)
            self.assertGreater(probed.total_s, 0.0)
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)

    def test_tampered_record_fails_every_operation(self):
        results = [run_operation(inst, self.tmp, tamper=shift_one_energy)
                   for inst in TINY.instances(0)]
        failed = sum(not r.ok for r in results)
        self.assertEqual(failed / len(results), 1.0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
