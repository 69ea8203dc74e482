"""Workload definitions and the seeded config generator of the benchmark.

Each workload is a fixed list of instances.  An instance is a config text,
the stability level its audit runs at, and whether its evolution must crack.
Seed 0 gives the base texts unchanged; they equal the corpus instances of
the same name (and the notched strip of ROADMAP item 1) at the knot counts
below.  Any other seed scales every toughness weight and every load table
by factors drawn from [1 - SPREAD, 1 + SPREAD], one pair per instance.  The
range is narrow so that each crack jump moves by at most a knot or so: the
amount of work per instance then barely depends on the seed, and every
instance that cracks at seed 0 still cracks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SPREAD = 0.02

_LOAD_KEYS = ("boundary.psi", "body.force", "surface.force")

_STRIP_HEAD = """
version = 1
mesh.nx = 2
mesh.ny = 1
mesh.width = 2.0
mesh.height = 1.0
"""

# Config texts with {knots} (and {nx}, {ny} for the notched strip) left open.
BASE_TEXTS = {
    "lattice": """
version = 1
mesh.nx = 3
mesh.ny = 2
mesh.width = 3.0
mesh.height = 1.0
mesh.dirichlet = left, right
mesh.brittle = rect: 1, 0, 2, 1
energy.lambda = 1e-3
toughness.weight = 0.04
boundary.psi = 0: 0; 1: x / 3
time.horizon = 1.0
time.knots = {knots}
""",
    "zero_load": _STRIP_HEAD + """mesh.dirichlet = left, right
energy.lambda = 1e-3
toughness.weight = 1.0
boundary.psi = 0: 0
time.horizon = 1.0
time.knots = {knots}
""",
    "pair": """
version = 1
mesh.nx = 2
mesh.ny = 2
mesh.width = 2.0
mesh.height = 1.0
mesh.dirichlet = left, right
mesh.brittle = rect: 1, 0, 1, 1
energy.lambda = 1e-3
toughness.weight = 0.1
boundary.psi = 0: 0; 1: x / 2
time.horizon = 1.0
time.knots = {knots}
""",
    "surface_pull": _STRIP_HEAD + """mesh.dirichlet = left
mesh.surface = right
mesh.brittle = rect: 1, 0, 1, 1
energy.lambda = 0.5
toughness.weight = 0.05
boundary.psi = 0: 0
surface.force = 0: 0; 1: 0.5
time.horizon = 1.0
time.knots = {knots}
""",
    "crossed": _STRIP_HEAD + """mesh.diagonal = crossed
mesh.dirichlet = left, right
mesh.brittle = rect: 1, 0, 1, 1
energy.mu = 1 + 0.25 * x
energy.lambda = 1e-3
toughness.weight = 0.05
boundary.psi = 0: 0; 1: x / 2
body.force = 0: 0
time.horizon = 1.0
time.knots = {knots}
""",
    "quartic": _STRIP_HEAD + """mesh.dirichlet = left, right
mesh.brittle = rect: 1, 0, 1, 1
energy.p = 4.0
energy.lambda = 1e-2
toughness.weight = 0.01
boundary.psi = 0: 0; 1: x / 2
time.horizon = 1.0
time.knots = {knots}
""",
    "subquadratic": _STRIP_HEAD + """mesh.dirichlet = left, right
mesh.brittle = rect: 1, 0, 1, 1
energy.p = 1.5
energy.epsilon = 1e-6
energy.lambda = 1e-2
toughness.weight = 0.1
boundary.psi = 0: 0; 1: x / 2
time.horizon = 1.0
time.knots = {knots}
""",
    "cubic_body": _STRIP_HEAD + """mesh.dirichlet = left
mesh.brittle = rect: 1, 0, 1, 1
energy.q = 3.0
energy.lambda = 0.5
toughness.weight = 0.05
boundary.psi = 0: 0
body.force = 0: 0; 1: 1.0
time.horizon = 1.0
time.knots = {knots}
""",
    "notched": """
version = 1
mesh.nx = {nx}
mesh.ny = {ny}
mesh.width = 2.0
mesh.height = 1.0
mesh.dirichlet = left, right
mesh.brittle = rect: 1, 0, 1, 1
energy.lambda = 1e-3
toughness.weight = 0.05
boundary.psi = 0: 0; 1: x / 2
time.horizon = 1.0
time.knots = {knots}
initial.crack = rect: 1, 0, 1, 0.3
strategy.kind = greedy
""",
}


@dataclass(frozen=True)
class InstanceSpec:
    """One instance of a workload: a base text and its size parameters."""

    base: str
    knots: int
    nx: int = 0
    ny: int = 0
    level: str = "oracle"

    @property
    def key(self) -> str:
        """Name of the instance, also its key in the seed-0 reference."""
        size = f"_{self.nx}x{self.ny}" if self.nx else ""
        return f"{self.base}{size}@{self.knots}"

    @property
    def expect_jump(self) -> bool:
        return self.base != "zero_load"

    def text(self, seed: int) -> str:
        text = BASE_TEXTS[self.base].format(knots=self.knots, nx=self.nx, ny=self.ny)
        if seed == 0:
            return text
        rng = random.Random(f"{seed}/{self.key}")
        tough = 1.0 + rng.uniform(-SPREAD, SPREAD)
        load = 1.0 + rng.uniform(-SPREAD, SPREAD)
        return perturb(text, tough, load)


@dataclass(frozen=True)
class Instance:
    """A generated instance: what the program receives plus what to expect."""

    key: str
    text: str
    level: str
    expect_jump: bool


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: tuple[InstanceSpec, ...]

    def instances(self, seed: int) -> list[Instance]:
        return [Instance(s.key, s.text(seed), s.level, s.expect_jump) for s in self.specs]


def _scale_table(value: str, factor: float) -> str:
    entries = []
    for item in value.split(";"):
        t, expr = item.split(":", 1)
        entries.append(f"{t.strip()}: {factor!r} * ({expr.strip()})")
    return "; ".join(entries)


def perturb(text: str, tough: float, load: float) -> str:
    """Scale the toughness weight by ``tough`` and every load table by ``load``."""
    out = []
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        if key == "toughness.weight":
            line = f"{key} = {float(value) * tough!r}"
        elif key in _LOAD_KEYS:
            line = f"{key} = {_scale_table(value, load)}"
        out.append(line)
    return "\n".join(out) + "\n"


BRUTE_KNOTS = 32

WORKLOADS = {w.name: w for w in (
    Workload(
        "brute_quadratic",
        "thousands of tiny cached dense solves under an exhaustive search; "
        "per-candidate Python overhead dominates",
        tuple(InstanceSpec(b, BRUTE_KNOTS)
              for b in ("lattice", "zero_load", "pair", "surface_pull", "crossed")),
    ),
    Workload(
        "newton",
        "few solves, each a damped-Newton or trust-region solve that reassembles "
        "the gradient and Hessian",
        tuple(InstanceSpec(b, 24) for b in ("quartic", "subquadratic", "cubic_body")),
    ),
    Workload(
        "greedy_mesh",
        "the only workload above the dense limit: CG solves and per-crack-set "
        "topology builds on 400 and 900 triangles",
        (InstanceSpec("notched", 17, 20, 10, "one_edge"),
         InstanceSpec("notched", 5, 30, 15, "one_edge")),
    ),
)}
