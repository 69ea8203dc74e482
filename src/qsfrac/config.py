"""Run configuration: flat key-value text with dotted sections.

A config is plain text, one ``key = value`` per line, ``#`` comments allowed.
Load tables are written as ``time: value; time: value; ...`` knot lists and
interpolated linearly in time; each value is a number or an expression in the
spatial coordinates ``x`` and ``y`` (evaluated at mesh vertices for the
boundary datum, triangle midpoints for the body load, and surface-edge
midpoints for the surface load).

Every key is declared once, in ``_KEYS``, with its parser and default.  A bad
number fails at parse time, naming its key; the builders parse the text
values (tables, regions, ``energy.mu``, kinds).

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
from typing import Callable

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
    check_knots,
)
from .evolution import MAX_BRUTEFORCE_EDGES, SearchStrategy, TimeGrid
from .mesh import Mesh, MeshGeometryError, _resolve_brittle, build_structured_mesh
from .minimize import TOL

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config", "config_hash"]

CONFIG_VERSION = 1

# Size caps: the mesh of a 500 x 200 cell strip builds in 0.6 s at 245 MB peak
# RSS (1.1 s, 421 MB with crossed diagonals) on a shared 2-core x86 machine
# with numpy 2.4; a uniform grid of 1e6 knots is an 8 MB array.
MAX_CELLS = 100_000
MAX_KNOTS = 1_000_000


class ConfigError(ValueError):
    """Configuration problem; the message names the offending key."""


# ---------------------------------------------------------------------------
# the keys
# ---------------------------------------------------------------------------

def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError(x)
    return x


def _number(low: float, strict: bool = True) -> tuple[str, Callable]:
    """The parser of a finite number above ``low``, or at it unless ``strict``."""
    def convert(text: str) -> float:
        x = _finite(float(text))
        if not (x > low if strict else x >= low):
            raise ValueError(text)
        return x
    return f"a finite number {'>' if strict else '>='} {low:g}", convert


def _integer(low: int, high: float = math.inf) -> tuple[str, Callable]:
    """The parser of an integer in [low, high], written as 2, 2.0 or 2e0."""
    def convert(text: str) -> int:
        x = float(text)
        if not (x.is_integer() and low <= x <= high):   # NaN and inf are not integral
            raise ValueError(text)
        return int(x)
    return (f"{low}" if low == high else f"an integer >= {low}" if high == math.inf
            else f"an integer in [{low}, {high}]"), convert


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_TEXT = ("text", str)
_POSITIVE = _number(0.0)
_EXPONENT = _number(1.0)
_NONNEGATIVE = _number(0.0, strict=False)
_REQUIRED = object()

# key: (what its parser accepts, the parser, its default).  A parser raises
# ValueError or LookupError on text it does not accept.  A key whose default
# is _REQUIRED must be set in every config; one whose default is None only
# where a builder reads it (time.knots unless time.grid is set, the weights
# of anisotropic toughness).
_KEYS: dict[str, tuple[str, Callable, object]] = {
    "version": (*_integer(CONFIG_VERSION, CONFIG_VERSION), _REQUIRED),
    "mesh.nx": (*_integer(1, MAX_CELLS), _REQUIRED),
    "mesh.ny": (*_integer(1, MAX_CELLS), _REQUIRED),
    "mesh.width": (*_POSITIVE, _REQUIRED),
    "mesh.height": (*_POSITIVE, _REQUIRED),
    "mesh.diagonal": (*_TEXT, "main"),
    "mesh.dirichlet": (*_TEXT, "all"),
    "mesh.surface": (*_TEXT, ""),
    "mesh.brittle": (*_TEXT, "all"),
    "energy.p": (*_EXPONENT, 2.0),
    "energy.q": (*_EXPONENT, 2.0),
    "energy.r": (*_EXPONENT, 2.0),
    "energy.mu": (*_TEXT, "1.0"),
    "energy.epsilon": (*_NONNEGATIVE, 0.0),
    "energy.lambda": (*_NONNEGATIVE, 1e-3),
    "toughness.kind": (*_TEXT, "isotropic"),
    "toughness.weight": (*_POSITIVE, 1.0),
    "toughness.weight_x": (*_POSITIVE, None),
    "toughness.weight_y": (*_POSITIVE, None),
    "boundary.psi": (*_TEXT, "0: 0"),
    "body.force": (*_TEXT, "0: 0"),
    "surface.force": (*_TEXT, "0: 0"),
    "time.horizon": (*_POSITIVE, _REQUIRED),
    "time.knots": (*_integer(2, MAX_KNOTS), None),
    "time.grid": ("a comma list of finite times that start at 0 and increase strictly",
                  lambda text: tuple(check_knots([_finite(float(t)) for t in text.split(",")])),
                  None),
    "initial.crack": (*_TEXT, "none"),
    "strategy.kind": (*_TEXT, "brute_force"),
    "strategy.max_edges": (*_integer(0), MAX_BRUTEFORCE_EDGES),
    "solver.tolerance": (*_POSITIVE, TOL),
    "run.require_initial_minimality": ("true or false", lambda text: _BOOLS[text.lower()], True),
}


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
    return RunConfig(raw)


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
    """The parsed key-value map of one config plus the problem builder.

    Construction parses every key the map sets and checks that the required
    ones are set; ``cfg[key]`` is a key's parsed value or its default.
    """

    def __init__(self, raw: dict[str, str]):
        self.raw = dict(raw)
        unknown = sorted(set(raw) - set(_KEYS))
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        self._values = {}
        for key, (expect, parse, default) in _KEYS.items():
            if key in self.raw:
                try:
                    self._values[key] = parse(self.raw[key])
                except (ValueError, LookupError):
                    raise ConfigError(f"{key}: expected {expect}, got {self.raw[key]!r}") from None
            elif default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
        if "time.knots" not in raw and "time.grid" not in raw:
            raise ConfigError("missing required key 'time.knots' (or 'time.grid')")
        cells = self["mesh.nx"] * self["mesh.ny"]
        if cells > MAX_CELLS:
            raise ConfigError(f"mesh.nx * mesh.ny: expected at most {MAX_CELLS} cells, got {cells}")

    def __getitem__(self, key: str):
        value = self._values.get(key, _KEYS[key][2])
        if value is None:
            raise ConfigError(f"missing required key {key!r}")
        return value

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    # -- builders -----------------------------------------------------------

    def _table(self, key: str, points: np.ndarray, horizon: float) -> TimeTable:
        pairs = []
        for item in filter(None, (item.strip() for item in self[key].split(";"))):
            t_str, colon, expr = item.partition(":")
            if not colon:
                raise ConfigError(f"{key}: table entry {item!r} is not 'time: value'")
            try:
                pairs.append((_finite(float(t_str)), expr.strip()))
            except ValueError:
                raise ConfigError(f"{key}: bad time {t_str!r}") from None
        if not pairs:
            raise ConfigError(f"{key}: empty table")
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
        brittle = self._region("mesh.brittle")
        try:
            return build_structured_mesh(
                nx=self["mesh.nx"], ny=self["mesh.ny"],
                width=self["mesh.width"], height=self["mesh.height"],
                labeling={"dirichlet": self["mesh.dirichlet"], "surface": self["mesh.surface"]},
                brittle=brittle, diagonal=self["mesh.diagonal"],
            )
        except MeshGeometryError as exc:
            raise ConfigError(f"mesh.width, mesh.height: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"mesh: {exc}") from None

    def _region(self, key: str):
        v = self[key]
        if v in ("all", "none"):
            return v
        kind, _, rest = v.partition(":")
        try:
            if kind == "rect" and len(rest.split(",")) == 4:
                return ("rect", tuple(float(p) for p in rest.split(",")))
            if kind == "edges":
                return ("edges", [int(p) for p in rest.split(",") if p.strip()])
        except ValueError:
            pass
        raise ConfigError(f"{key}: expected all, none, rect: x0, y0, x1, y1 or edges: ids, "
                          f"got {v!r}")

    def build_model(self, mesh: Mesh) -> EnergyModel:
        horizon = self["time.horizon"]
        mu_raw = self["energy.mu"]
        try:
            mu = _finite(float(mu_raw))
        except ValueError:   # an expression, which must be finite at every triangle
            mu = _eval_at(mu_raw, "energy.mu", mesh.tri_centroid)
        try:
            bulk = BulkLaw(p=self["energy.p"], mu=mu, epsilon=self["energy.epsilon"])
        except ValueError as exc:
            raise ConfigError(f"energy: {exc}") from None

        kind = self["toughness.kind"]
        if kind not in _TOUGHNESS_KINDS:
            raise ConfigError(f"toughness.kind: unknown toughness kind {kind!r}")
        weights = ("toughness.weight",) if kind == "isotropic" else ("toughness.weight_x",
                                                                      "toughness.weight_y")
        tough = Toughness(kind, tuple(self[key] for key in weights))

        body = BodyPotential(self._table("body.force", mesh.tri_centroid, horizon),
                             lam=self["energy.lambda"], q=self["energy.q"])
        surf_pts = mesh.edge_midpoint[mesh.surface_edges]
        if not len(surf_pts) and np.any(self._table(   # no side would carry the load
                "surface.force", mesh.edge_midpoint[mesh.boundary_edges], horizon).samples):
            raise ConfigError("surface.force: nonzero load but mesh.surface names no side")
        surface = SurfacePotential(self._table("surface.force", surf_pts, horizon),
                                   r=self["energy.r"])
        boundary = self._table("boundary.psi", mesh.vertices, horizon)
        model = EnergyModel(bulk=bulk, toughness=tough, body=body,
                            surface=surface, boundary=boundary)
        try:
            model.validate(mesh)
        except ValueError as exc:   # e.g. a table that runs past the others' horizon
            raise ConfigError(f"model: {exc}") from None
        return model

    def build_grid(self) -> TimeGrid:
        if "time.grid" in self.raw:
            return TimeGrid(self["time.grid"])
        return TimeGrid.uniform(self["time.horizon"], self["time.knots"])

    def build_strategy(self) -> SearchStrategy:
        try:
            return SearchStrategy(kind=self["strategy.kind"],
                                  max_bruteforce_edges=self["strategy.max_edges"])
        except ValueError as exc:
            raise ConfigError(f"strategy.kind: {exc}") from None

    def build_initial_crack(self, mesh: Mesh) -> CrackSet:
        region = self._region("initial.crack")
        if region == "none":
            return CrackSet.empty()
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
        if grid.horizon > self["time.horizon"] + 1e-12:
            raise ConfigError("time.grid: extends beyond time.horizon")
        return Problem(
            mesh=mesh,
            model=model,
            grid=grid,
            strategy=self.build_strategy(),
            initial_crack=self.build_initial_crack(mesh),
            solver_tol=self["solver.tolerance"],
            require_initial_minimality=self["run.require_initial_minimality"],
            config_hash=self.hash,
        )
