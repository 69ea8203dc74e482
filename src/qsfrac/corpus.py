"""Desk-scale instance corpus used by the tests, demos and comparisons.

Every instance is small enough for exhaustive crack search (at most a dozen
crackable edges) and is expressed as a config text, so building it also
exercises the config front door.  The headline instances:

* ``strip``            two-cell strip pulled apart through a one-edge
                       interface; the classic nucleation threshold.  A kink
                       in the body-load table off the time grid keeps the
                       energy-balance quadrature honestly first order.
* ``pair``             two stacked interface edges where cracking either one
                       alone never pays but cracking both at once does:
                       cooperative nucleation, invisible to single-edge moves.
* ``aniso_l1`` /
  ``aniso_elliptic``   anisotropic toughness tuned so the vertical interface
                       costs exactly what the isotropic strip pays.
* ``surface_pull``     traction on the right edge against a pinned left edge.
* ``body_pull``        volume load against a pinned left edge.
* ``quartic``          p = 4 bulk law (Newton inner solves).
* ``lattice``          nine crackable edges, two competing interfaces.
"""

from __future__ import annotations

from .config import RunConfig, parse_config

__all__ = ["CORPUS", "corpus_names", "build_config", "config_text"]


def _strip_base(knots: int, toughness: float, body_force: str) -> str:
    return f"""
version = 1
mesh.nx = 2
mesh.ny = 1
mesh.width = 2.0
mesh.height = 1.0
mesh.dirichlet = left, right
mesh.brittle = rect: 1, 0, 1, 1
energy.lambda = 1e-3
toughness.weight = {toughness}
boundary.psi = 0: 0; 1: x / 2
body.force = {body_force}
time.horizon = 1.0
time.knots = {knots}
"""


def strip(knots: int = 64) -> str:
    # the body-load rate drops at t = 0.7, between grid knots at every tested
    # resolution, so the trapezoid balance error is genuinely first order
    return _strip_base(knots, 0.05, "0: 0; 0.7: 0.1; 1: 0.1")


def strip_crackfree(knots: int = 64) -> str:
    # huge toughness and a pure ramp: no cracking and an exactly integrable power
    return _strip_base(knots, 1e9, "0: 0")


def pair(knots: int = 64) -> str:
    return f"""
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
"""


def precracked(knots: int = 64) -> str:
    return pair(knots) + "initial.crack = rect: 1, 0, 1, 0.5\n"


def aniso_l1(knots: int = 64) -> str:
    cfg = _strip_base(knots, 0.05, "0: 0")
    cfg = cfg.replace("toughness.weight = 0.05", """toughness.kind = weighted_l1
toughness.weight_x = 0.05
toughness.weight_y = 5.0""")
    return cfg


def aniso_elliptic(knots: int = 64) -> str:
    cfg = _strip_base(knots, 0.05, "0: 0")
    cfg = cfg.replace("toughness.weight = 0.05", """toughness.kind = elliptic
toughness.weight_x = 0.0025
toughness.weight_y = 25.0""")
    return cfg


def surface_pull(knots: int = 64) -> str:
    return f"""
version = 1
mesh.nx = 2
mesh.ny = 1
mesh.width = 2.0
mesh.height = 1.0
mesh.dirichlet = left
mesh.surface = right
mesh.brittle = rect: 1, 0, 1, 1
energy.lambda = 0.5
toughness.weight = 0.05
boundary.psi = 0: 0
surface.force = 0: 0; 1: 0.5
time.horizon = 1.0
time.knots = {knots}
"""


def body_pull(knots: int = 64) -> str:
    return f"""
version = 1
mesh.nx = 2
mesh.ny = 1
mesh.width = 2.0
mesh.height = 1.0
mesh.dirichlet = left
mesh.brittle = rect: 1, 0, 1, 1
energy.lambda = 0.5
toughness.weight = 0.05
boundary.psi = 0: 0
body.force = 0: 0; 1: 1.0
time.horizon = 1.0
time.knots = {knots}
"""


def quartic(knots: int = 64) -> str:
    return f"""
version = 1
mesh.nx = 2
mesh.ny = 1
mesh.width = 2.0
mesh.height = 1.0
mesh.dirichlet = left, right
mesh.brittle = rect: 1, 0, 1, 1
energy.p = 4.0
energy.lambda = 1e-2
toughness.weight = 0.01
boundary.psi = 0: 0; 1: x / 2
time.horizon = 1.0
time.knots = {knots}
"""


def subquadratic(knots: int = 64) -> str:
    # p < 2 needs the gradient regularization; its decaying curvature makes
    # the inner Newton solves damp their steps
    return f"""
version = 1
mesh.nx = 2
mesh.ny = 1
mesh.width = 2.0
mesh.height = 1.0
mesh.dirichlet = left, right
mesh.brittle = rect: 1, 0, 1, 1
energy.p = 1.5
energy.epsilon = 1e-6
energy.lambda = 1e-2
toughness.weight = 0.1
boundary.psi = 0: 0; 1: x / 2
time.horizon = 1.0
time.knots = {knots}
"""


def cubic_body(knots: int = 64) -> str:
    # q = 3 confinement: the cracked-off piece settles where the cubic
    # restoring force balances the ramped volume load
    return f"""
version = 1
mesh.nx = 2
mesh.ny = 1
mesh.width = 2.0
mesh.height = 1.0
mesh.dirichlet = left
mesh.brittle = rect: 1, 0, 1, 1
energy.q = 3.0
energy.lambda = 0.5
toughness.weight = 0.05
boundary.psi = 0: 0
body.force = 0: 0; 1: 1.0
time.horizon = 1.0
time.knots = {knots}
"""


def debond(knots: int = 64) -> str:
    # the brittle region is the clamped right edge itself: the crack, when it
    # comes, releases a Dirichlet edge instead of splitting the interior
    return f"""
version = 1
mesh.nx = 2
mesh.ny = 1
mesh.width = 2.0
mesh.height = 1.0
mesh.dirichlet = left, right
mesh.brittle = rect: 2, 0, 2, 1
energy.lambda = 1e-3
toughness.weight = 0.05
boundary.psi = 0: 0; 1: x / 2
time.horizon = 1.0
time.knots = {knots}
"""


def crossed(knots: int = 64) -> str:
    cfg = _strip_base(knots, 0.05, "0: 0")
    cfg = cfg.replace("mesh.dirichlet", "mesh.diagonal = crossed\nmesh.dirichlet")
    # spatially varying stiffness: the uncracked state is no longer affine
    return cfg.replace("energy.lambda", "energy.mu = 1 + 0.25 * x\nenergy.lambda")


def zero_load(knots: int = 64) -> str:
    return f"""
version = 1
mesh.nx = 2
mesh.ny = 1
mesh.width = 2.0
mesh.height = 1.0
mesh.dirichlet = left, right
energy.lambda = 1e-3
toughness.weight = 1.0
boundary.psi = 0: 0
time.horizon = 1.0
time.knots = {knots}
"""


def lattice(knots: int = 64) -> str:
    return f"""
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
"""


CORPUS = {
    "strip": strip,
    "pair": pair,
    "precracked": precracked,
    "aniso_l1": aniso_l1,
    "aniso_elliptic": aniso_elliptic,
    "surface_pull": surface_pull,
    "body_pull": body_pull,
    "quartic": quartic,
    "subquadratic": subquadratic,
    "cubic_body": cubic_body,
    "debond": debond,
    "crossed": crossed,
    "zero_load": zero_load,
    "lattice": lattice,
}


def corpus_names() -> list[str]:
    return list(CORPUS)


def config_text(name: str, knots: int = 64) -> str:
    if name == "strip_crackfree":
        return strip_crackfree(knots)
    if name not in CORPUS:
        raise KeyError(f"unknown corpus instance {name!r}")
    return CORPUS[name](knots)


def build_config(name: str, knots: int = 64) -> RunConfig:
    return parse_config(config_text(name, knots))
