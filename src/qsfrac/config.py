"""Run configuration: flat key-value text with dotted sections.

A config is plain text, one ``key = value`` per line, ``#`` comments allowed.
Load tables are written as ``time: value; time: value; ...`` knot lists and
interpolated linearly in time; each value is a number or an expression in the
spatial coordinates ``x`` and ``y`` (evaluated at mesh vertices for the
boundary datum, triangle midpoints for the body load, and surface-edge
midpoints for the surface load).

The config hash is taken over the canonically sorted, whitespace-normalized
key-value pairs, so it is stable under key reordering and formatting.

Example::

    version = 1
    mesh.nx = 2
    mesh.ny = 1
    mesh.width = 2.0
    mesh.height = 1.0
    mesh.dirichlet = left, right
    mesh.brittle = rect: 1, 0, 1, 1
    toughness.weight = 0.05
    boundary.psi = 0: 0; 1: x / 2
    time.horizon = 1.0
    time.knots = 64
"""

from __future__ import annotations

import ast
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .broken import CrackSet
from .energy import (
    BodyPotential,
    BulkLaw,
    EnergyModel,
    SurfacePotential,
    TimeTable,
    Toughness,
    _TOUGHNESS_KINDS,
)
from .evolution import SearchStrategy, TimeGrid
from .mesh import Mesh, _resolve_brittle, build_structured_mesh

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config", "config_hash"]

CONFIG_VERSION = 1

_KNOWN_KEYS = {
    "version",
    "mesh.nx", "mesh.ny", "mesh.width", "mesh.height", "mesh.diagonal",
    "mesh.dirichlet", "mesh.surface", "mesh.brittle",
    "energy.p", "energy.q", "energy.r", "energy.mu", "energy.epsilon", "energy.lambda",
    "toughness.kind", "toughness.weight", "toughness.weight_x", "toughness.weight_y",
    "boundary.psi", "body.force", "surface.force",
    "time.horizon", "time.knots", "time.grid",
    "initial.crack",
    "strategy.kind", "strategy.max_edges",
    "solver.tolerance",
    "run.require_initial_minimality",
}


class ConfigError(ValueError):
    """Configuration problem; the message names the offending key."""


# ---------------------------------------------------------------------------
# safe spatial expressions
# ---------------------------------------------------------------------------

_ALLOWED_CALLS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "abs": np.abs, "hypot": np.hypot,
    "min": np.minimum, "max": np.maximum,
}
_ALLOWED_NAMES = {"x", "y", "pi", "e"}
_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Call,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod, ast.USub, ast.UAdd,
    ast.Load,
)


def compile_expr(src: str, key: str = "<expr>"):
    """Compile a spatial expression of x and y into a vectorized callable."""
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"{key}: cannot parse expression {src!r}: {exc.msg}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ConfigError(f"{key}: disallowed construct {type(node).__name__} in {src!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                raise ConfigError(f"{key}: unknown function in {src!r}")
        if isinstance(node, ast.Name) and node.id not in _ALLOWED_NAMES | set(_ALLOWED_CALLS):
            raise ConfigError(f"{key}: unknown name {node.id!r} in {src!r} (allowed: x, y)")
        if isinstance(node, ast.Constant) and type(node.value) is int:
            # float powers overflow where integer towers would grow without bound
            try:
                node.value = float(node.value)
            except OverflowError:
                raise ConfigError(f"{key}: constant too large in {src!r}") from None
    code = compile(tree, f"<config:{key}>", "eval")
    env = dict(_ALLOWED_CALLS, pi=np.pi, e=np.e)

    def evaluate(x, y):
        out = np.asarray(eval(code, {"__builtins__": {}}, dict(env, x=x, y=y)))  # noqa: S307 - whitelisted AST
        if out.dtype.kind not in "biuf":   # complex (a negative base to a fractional power) or text
            raise ConfigError(f"{key}: {src!r} is not a real number")
        return np.broadcast_to(out.astype(float), np.shape(x)).copy()

    return evaluate


def _eval_at(src: str, key: str, points: np.ndarray) -> np.ndarray:
    """Evaluate an expression at ``points``; every value must be finite."""
    fn = compile_expr(src, key)
    if len(points) == 0:
        return np.zeros(0)
    try:
        with np.errstate(all="ignore"):   # non-finite results are rejected below
            values = fn(points[:, 0], points[:, 1])
    except ArithmeticError as exc:
        raise ConfigError(f"{key}: cannot evaluate {src!r}: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{key}: {src!r} is not a finite number at every point")
    return values


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_config(text: str) -> "RunConfig":
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    unknown = sorted(set(raw) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    cfg = RunConfig(raw)
    cfg.validate()
    return cfg


def load_config(path) -> "RunConfig":
    with open(path) as fh:
        return parse_config(fh.read())


def config_hash(raw: dict[str, str]) -> str:
    canonical = "\n".join(
        f"{k}={' '.join(str(v).split())}" for k, v in sorted(raw.items())
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class Problem:
    """Everything a run needs, built from one config."""

    mesh: Mesh
    model: EnergyModel
    grid: TimeGrid
    strategy: SearchStrategy
    initial_crack: CrackSet
    solver_tol: float
    require_initial_minimality: bool
    config_hash: str


class RunConfig:
    """Typed access over the raw key-value map plus the problem builder."""

    def __init__(self, raw: dict[str, str]):
        self.raw = dict(raw)

    # -- typed getters ------------------------------------------------------

    def _get(self, key: str, default=None) -> str | None:
        return self.raw.get(key, default)

    def _float(self, key: str, default=None) -> float:
        v = self._get(key)
        if v is None:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return float(default)
        try:
            x = float(v)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {v!r}") from None
        if not math.isfinite(x):
            raise ConfigError(f"{key}: expected a finite number, got {v!r}")
        return x

    def _positive(self, key: str, default=None) -> float:
        x = self._float(key, default)
        if not x > 0.0:
            raise ConfigError(f"{key}: expected a finite number > 0, got {self._get(key)!r}")
        return x

    def _int(self, key: str, default=None) -> int:
        v = self._float(key, default)
        if v != int(v):
            raise ConfigError(f"{key}: expected an integer")
        return int(v)

    def _bool(self, key: str, default: bool) -> bool:
        v = self._get(key)
        if v is None:
            return default
        if v.lower() in ("true", "yes", "1"):
            return True
        if v.lower() in ("false", "no", "0"):
            return False
        raise ConfigError(f"{key}: expected true/false, got {v!r}")

    def validate(self) -> None:
        version = self._int("version")
        if version != CONFIG_VERSION:
            raise ConfigError(f"version: unsupported config version {version}")
        for key in ("mesh.nx", "mesh.ny", "mesh.width", "mesh.height"):
            self._float(key)
        self._positive("time.horizon")
        if "time.knots" not in self.raw and "time.grid" not in self.raw:
            raise ConfigError("missing required key 'time.knots' (or 'time.grid')")

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    # -- builders -----------------------------------------------------------

    def _table_pairs(self, key: str) -> list[tuple[float, str]]:
        v = self._get(key, "0: 0")
        pairs = []
        for item in v.split(";"):
            item = item.strip()
            if not item:
                continue
            if ":" not in item:
                raise ConfigError(f"{key}: table entry {item!r} is not 'time: value'")
            t_str, expr = item.split(":", 1)
            try:
                t = float(t_str)
            except ValueError:
                raise ConfigError(f"{key}: bad time {t_str!r}") from None
            if not math.isfinite(t):
                raise ConfigError(f"{key}: bad time {t_str!r}")
            pairs.append((t, expr.strip()))
        if not pairs:
            raise ConfigError(f"{key}: empty table")
        return pairs

    def _table(self, key: str, points: np.ndarray, horizon: float) -> TimeTable:
        pairs = self._table_pairs(key)
        if len(pairs) == 1:
            # single entry: constant-in-time load over the whole horizon
            pairs = [pairs[0], (horizon, pairs[0][1])]
        if pairs[-1][0] < horizon - 1e-12:
            raise ConfigError(
                f"{key}: table ends at {pairs[-1][0]} before time.horizon = {horizon}"
            )
        rows = [(t, _eval_at(expr, key, points)) for t, expr in pairs]
        try:
            return TimeTable.build(rows, len(points))
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None

    def build_mesh(self) -> Mesh:
        labeling = {}
        if "mesh.dirichlet" in self.raw:
            labeling["dirichlet"] = self.raw["mesh.dirichlet"]
        else:
            labeling["dirichlet"] = "all"
        if "mesh.surface" in self.raw:
            labeling["surface"] = self.raw["mesh.surface"]
        brittle = self._region("mesh.brittle", default="all")
        try:
            return build_structured_mesh(
                nx=self._int("mesh.nx"), ny=self._int("mesh.ny"),
                width=self._float("mesh.width"), height=self._float("mesh.height"),
                labeling=labeling, brittle=brittle,
                diagonal=self._get("mesh.diagonal", "main"),
            )
        except ValueError as exc:
            raise ConfigError(f"mesh: {exc}") from None

    def _region(self, key: str, default: str):
        v = self._get(key, default)
        if v in ("all", "none"):
            return v
        if v.startswith("rect:"):
            parts = [p.strip() for p in v[len("rect:"):].split(",")]
            if len(parts) != 4:
                raise ConfigError(f"{key}: rect needs 4 numbers, got {v!r}")
            try:
                return ("rect", tuple(float(p) for p in parts))
            except ValueError:
                raise ConfigError(f"{key}: bad rect numbers in {v!r}") from None
        if v.startswith("edges:"):
            try:
                ids = [int(p) for p in v[len("edges:"):].split(",") if p.strip()]
            except ValueError:
                raise ConfigError(f"{key}: bad edge ids in {v!r}") from None
            return ("edges", ids)
        raise ConfigError(f"{key}: expected all/none/rect:.../edges:..., got {v!r}")

    def build_model(self, mesh: Mesh) -> EnergyModel:
        horizon = self._float("time.horizon")
        p = self._float("energy.p", 2.0)
        q = self._float("energy.q", 2.0)
        r = self._float("energy.r", 2.0)
        eps = self._float("energy.epsilon", 0.0)
        lam = self._float("energy.lambda", 1e-3)
        mu_raw = self._get("energy.mu", "1.0")
        try:
            mu = float(mu_raw)
        except ValueError:
            mu = _eval_at(mu_raw, "energy.mu", mesh.tri_centroid)
        if not np.all(np.isfinite(mu)):
            raise ConfigError(f"energy.mu: expected a finite number, got {mu_raw!r}")
        try:
            bulk = BulkLaw(p=p, mu=mu, epsilon=eps)
        except ValueError as exc:
            raise ConfigError(f"energy: {exc}") from None

        kind = self._get("toughness.kind", "isotropic")
        if kind not in _TOUGHNESS_KINDS:
            raise ConfigError(f"toughness: unknown toughness kind {kind!r}")
        try:
            if kind == "isotropic":
                tough = Toughness("isotropic", (self._float("toughness.weight", 1.0),))
            else:
                tough = Toughness(kind, (self._float("toughness.weight_x"),
                                         self._float("toughness.weight_y")))
        except ValueError as exc:
            raise ConfigError(f"toughness: {exc}") from None

        try:
            body = BodyPotential(self._table("body.force", mesh.tri_centroid, horizon),
                                 lam=lam, q=q)
            surf_pts = mesh.edge_midpoint[mesh.surface_edges]
            if not len(surf_pts) and np.any(self._table(   # no side would carry the load
                    "surface.force", mesh.edge_midpoint[mesh.boundary_edges], horizon).samples):
                raise ConfigError("surface.force: nonzero load but mesh.surface names no side")
            surface = SurfacePotential(self._table("surface.force", surf_pts, horizon), r=r)
            boundary = self._table("boundary.psi", mesh.vertices, horizon)
            model = EnergyModel(bulk=bulk, toughness=tough, body=body,
                                surface=surface, boundary=boundary)
            model.validate(mesh)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from None
        return model

    def build_grid(self) -> TimeGrid:
        if "time.grid" in self.raw:
            try:
                knots = np.asarray([float(p) for p in self.raw["time.grid"].split(",")])
            except ValueError:
                raise ConfigError("time.grid: expected a comma list of times") from None
            try:
                return TimeGrid(knots)
            except ValueError as exc:
                raise ConfigError(f"time.grid: {exc}") from None
        n = self._int("time.knots")
        if n < 2:
            raise ConfigError("time.knots: need at least 2 knots")
        return TimeGrid.uniform(self._float("time.horizon"), n)

    def build_strategy(self) -> SearchStrategy:
        kind = self._get("strategy.kind", "brute_force")
        max_edges = self._int("strategy.max_edges", 20)
        if max_edges < 0:
            raise ConfigError(f"strategy.max_edges: expected an integer >= 0, "
                              f"got {self._get('strategy.max_edges')!r}")
        try:
            return SearchStrategy(kind=kind, max_bruteforce_edges=max_edges)
        except ValueError as exc:
            raise ConfigError(f"strategy: {exc}") from None

    def build_initial_crack(self, mesh: Mesh) -> CrackSet:
        v = self._get("initial.crack", "none")
        if v == "none":
            return CrackSet.empty()
        region = self._region("initial.crack", v)
        if region[0] == "edges":
            ids = region[1]
        else:   # "all" or a closed rectangle, as for mesh.brittle, on crackable edges
            inside = _resolve_brittle(region, mesh.vertices, mesh.edges)
            ids = np.flatnonzero(inside & mesh.crackable_mask).tolist()
        extra = mesh.non_crackable(ids)
        if extra:
            raise ConfigError(f"initial.crack: edges {extra} are not crackable")
        return CrackSet.of(ids)

    def build_problem(self) -> Problem:
        mesh = self.build_mesh()
        model = self.build_model(mesh)
        grid = self.build_grid()
        if grid.horizon > self._float("time.horizon") + 1e-12:
            raise ConfigError("time.grid: extends beyond time.horizon")
        return Problem(
            mesh=mesh,
            model=model,
            grid=grid,
            strategy=self.build_strategy(),
            initial_crack=self.build_initial_crack(mesh),
            solver_tol=self._positive("solver.tolerance", 1e-10),
            require_initial_minimality=self._bool("run.require_initial_minimality", True),
            config_hash=self.hash,
        )
