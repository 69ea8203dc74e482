import os

# the BLAS thread cap of ``import qsfrac``: OpenBLAS reads these variables
# once, when numpy loads, and numpy is imported below before qsfrac
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from pathlib import Path

import numpy as np
import pytest

import qsfrac
from qsfrac.broken import CrackSet
from qsfrac.corpus import CORPUS, build_config
from qsfrac.energy import (
    BodyPotential,
    BulkLaw,
    EnergyModel,
    SurfacePotential,
    TimeTable,
    Toughness,
)
from qsfrac.evolution import run_evolution
from qsfrac.mesh import build_structured_mesh


# the notched strip of the greedy benchmark workload and of the exact-search
# CI step; {kind} is brute_force or greedy
NOTCHED = """
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
strategy.kind = {kind}
"""

# the notched strip with its datum nonzero at t = 0 and kinked at the load
# breakpoint t = 0.4, plus a body force: its CG solves interpolate between
# two nonzero ends
KINKED = (NOTCHED.replace("boundary.psi = 0: 0; 1: x / 2",
                          "boundary.psi = 0: 0.05 * x; 0.4: x / 4; 1: 0.6 * x")
          + "body.force = 0: 0.2; 1: 0\n")


def make_strip_mesh(ny=1, brittle=("rect", (1.0, 0.0, 1.0, 1.0)), labeling=None):
    """2-cell-wide strip [0,2]x[0,1] pulled apart through the x=1 column."""
    labeling = labeling or {"dirichlet": ("left", "right")}
    return build_structured_mesh(2, ny, 2.0, 1.0, labeling=labeling, brittle=brittle)


def cli_env(threads=None):
    """Environment for a ``python -m qsfrac`` child run.

    The source root of the imported package goes first on ``PYTHONPATH``, so a
    child started in another directory imports this same qsfrac whether it is
    installed or run from a checkout with a relative ``PYTHONPATH=src``.
    ``threads``, when given, is exported as ``OPENBLAS_NUM_THREADS``, the
    BLAS thread count, which ``import qsfrac`` otherwise sets to 1.
    """
    root = str(Path(qsfrac.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    path = root + os.pathsep + inherited if inherited else root
    env = dict(os.environ, PYTHONPATH=path)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def make_model(mesh, *, p=2.0, q=2.0, r=2.0, mu=1.0, eps=0.0, lam=1e-3,
               kappa=Toughness("isotropic", (0.05,)), psi=None, f=None, g=None,
               horizon=1.0):
    """Programmatic model builder mirroring the config defaults."""
    nv, nt = mesh.n_vertices, mesh.n_triangles
    ns = len(mesh.surface_edges)
    if psi is None:
        psi = TimeTable.build(
            [(0.0, np.zeros(nv)), (horizon, 0.5 * mesh.vertices[:, 0])], nv)
    if f is None:
        f = TimeTable.constant(0.0, nt, horizon)
    if g is None:
        g = TimeTable.constant(0.0, ns, horizon)
    return EnergyModel(
        bulk=BulkLaw(p=p, mu=mu, epsilon=eps),
        toughness=kappa,
        body=BodyPotential(f, lam=lam, q=q),
        surface=SurfacePotential(g, r=r),
        boundary=psi,
    )


@pytest.fixture(scope="session")
def strip_problem():
    return build_config("strip", 64).build_problem()


@pytest.fixture(scope="session")
def strip_record(strip_problem):
    p = strip_problem
    return run_evolution(p.model, p.mesh, p.grid, p.initial_crack, p.strategy,
                         config_hash=p.config_hash)


@pytest.fixture(scope="session")
def corpus_runs():
    """All corpus instances at 64 knots with their brute-force records."""
    out = {}
    for name in CORPUS:
        p = build_config(name, 64).build_problem()
        rec = run_evolution(p.model, p.mesh, p.grid, p.initial_crack, p.strategy,
                            config_hash=p.config_hash)
        out[name] = (p, rec)
    return out


@pytest.fixture()
def interface_crack():
    return CrackSet.of([4])  # the x=1 column edge of the ny=1 strip mesh
