"""Certify every knot of saved evolution records by duality.

Usage: python -W error certify_records.py NAME...

For each NAME, reads the config NAME.cfg and the record NAME.json from the
working directory and computes the dual certificate of every knot, which
does not use the solver.  Each must meet the bounds of the Newton and CG
paths: an annihilation residual of at most 1e-8 and a Fenchel gap of at
most 1e-8 (1 + |primal|).  Prints one line per record; exits nonzero naming
the first knot that misses a bound.
"""

import sys
from pathlib import Path

from qsfrac.audit import dual_certificate
from qsfrac.config import parse_config
from qsfrac.evolution import EvolutionRecord

for name in sys.argv[1:]:
    p = parse_config(Path(f"{name}.cfg").read_text()).build_problem()
    rec = EvolutionRecord.load(f"{name}.json", p.mesh, p.model)
    for i in range(len(rec)):
        c = dual_certificate(p.model, p.mesh, rec.cracks[i], float(rec.times[i]), rec.fields[i])
        if c.annihilation_residual > 1e-8 or abs(c.fenchel_gap) > 1e-8 * (1.0 + abs(c.primal_value)):
            raise SystemExit(f"{name}, knot {i}: {c}")
    print(f"{name}: {len(rec)} certificates within 1e-8")
