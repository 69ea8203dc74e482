"""Write the seed-0 reference that every seed-0 run is checked against.

    python3 perfbench/make_reference.py

For each instance of every workload at seed 0 it keeps the jump knots, the
crack set at every knot and the total energy at every knot.  Regenerate it
only when the model is meant to change; an optimisation must reproduce it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS


def main() -> int:
    run.import_program()
    from harness import run_operation

    reference = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for workload in WORKLOADS.values():
            for inst in workload.instances(0):
                res = run_operation(inst, Path(tmp))
                if not res.ok:
                    print(f"{inst.key}: {res.errors}", file=sys.stderr)
                    return 1
                reference[inst.key] = res.summary
                print(f"{inst.key}: jumps {reference[inst.key]['jumps']}")
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
