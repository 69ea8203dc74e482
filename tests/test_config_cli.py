import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsfrac.cli import main
from qsfrac.config import ConfigError, compile_expr, config_hash, parse_config
from qsfrac.corpus import CORPUS, build_config, config_text
from qsfrac.evolution import run_evolution
from qsfrac.mesh import crackable_edges

from conftest import cli_env


BASE = """
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
time.knots = 9
"""


# ---------------------------------------------------------------------------
# parsing and hashing
# ---------------------------------------------------------------------------

def test_parse_and_build():
    cfg = parse_config(BASE)
    problem = cfg.build_problem()
    assert problem.mesh.n_triangles == 4
    assert problem.model.p == 2.0
    assert len(problem.grid) == 9
    assert problem.strategy.kind == "brute_force"
    assert len(problem.initial_crack) == 0


def test_hash_stable_under_reordering_and_whitespace():
    lines = [l for l in BASE.strip().splitlines()]
    reordered = "\n".join(reversed(lines)).replace(" = ", "   =  ")
    h1 = parse_config(BASE).hash
    h2 = parse_config(reordered).hash
    assert h1 == h2
    h3 = parse_config(BASE.replace("0.05", "0.06")).hash
    assert h1 != h3


@given(st.sampled_from(sorted(CORPUS)), st.data())
@settings(max_examples=50, deadline=None)
def test_config_hash_ignores_key_order_and_sees_every_value(name, data):
    text = config_text(name, 9)
    base = parse_config(text)
    lines = [line for line in text.splitlines() if line.strip()]
    assert parse_config("\n".join(data.draw(st.permutations(lines)))).hash == base.hash
    key = data.draw(st.sampled_from(sorted(base.raw)))
    assert config_hash(dict(base.raw, **{key: base.raw[key] + "1"})) != base.hash


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError, match="mesh.depth"):
        parse_config(BASE + "mesh.depth = 3\n")


def test_missing_required_key_named():
    with pytest.raises(ConfigError, match="time.knots"):
        parse_config(BASE.replace("time.knots = 9", ""))


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line"):
        parse_config("version = 1\nunderspecified\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(BASE + "version = 1\n")


def test_bad_region_spec():
    with pytest.raises(ConfigError, match="mesh.brittle"):
        parse_config(BASE.replace("rect: 1, 0, 1, 1", "rect: 1, 0")).build_problem()


def test_bad_table_entry():
    with pytest.raises(ConfigError, match="boundary.psi"):
        parse_config(BASE.replace("0: 0; 1: x / 2", "0 0")).build_problem()


def test_table_must_reach_horizon():
    with pytest.raises(ConfigError, match="horizon"):
        parse_config(BASE.replace("0: 0; 1: x / 2", "0: 0; 0.5: x")).build_problem()


def test_version_required():
    with pytest.raises(ConfigError, match="version"):
        parse_config(BASE.replace("version = 1", "version = 2"))


def test_expressions_safe_and_vectorized():
    fn = compile_expr("sin(x) + min(y, 2) * sqrt(abs(x))")
    x = np.array([0.0, 1.0, 4.0])
    y = np.array([1.0, 3.0, 0.5])
    expected = np.sin(x) + np.minimum(y, 2) * np.sqrt(np.abs(x))
    assert np.allclose(fn(x, y), expected)
    # constants are floats, so integer towers overflow instead of growing
    # without bound (exact integers would give 1 here)
    assert compile_expr("(2 ** 60 + 1) % 2")(x, y).tolist() == [0.0, 0.0, 0.0]
    for bad in ("__import__('os')", "x.__class__", "lambda: 1", "t * x", "open('f')"):
        with pytest.raises(ConfigError):
            compile_expr(bad)


def test_spatially_varying_stiffness():
    cfg = parse_config(BASE + "energy.mu = 1 + x\n")
    problem = cfg.build_problem()
    mu = np.asarray(problem.model.bulk.mu)
    assert mu.shape == (problem.mesh.n_triangles,)
    assert np.allclose(mu, 1.0 + problem.mesh.tri_centroid[:, 0])


def test_explicit_time_grid():
    cfg = parse_config(BASE.replace("time.knots = 9", "time.grid = 0, 0.25, 0.5, 1.0"))
    problem = cfg.build_problem()
    assert np.allclose(problem.grid.knots, [0, 0.25, 0.5, 1.0])


def test_corpus_configs_all_parse():
    for name in list(CORPUS) + ["strip_crackfree"]:
        problem = build_config(name, 8) if name != "strip_crackfree" else None
        if problem is None:
            from qsfrac.config import parse_config as pc

            problem = pc(config_text(name, 8))
        # building the problem exercises every construction path
        (problem.build_problem() if hasattr(problem, "build_problem") else problem)


# ---------------------------------------------------------------------------
# CLI (in-process)
# ---------------------------------------------------------------------------

def test_cli_run_and_audit_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "strip.cfg"
    cfg_path.write_text(config_text("strip", 17))
    rec_path = tmp_path / "rec.json"
    code = main(["run", "--config", str(cfg_path), "--out", str(rec_path)])
    assert code == 0
    assert rec_path.exists()
    assert rec_path.with_suffix(".csv").exists()
    out = capsys.readouterr().out
    assert "crack jumps" in out

    report_path = tmp_path / "report.json"
    code = main(["audit", "--config", str(cfg_path), "--record", str(rec_path),
                 "--out", str(report_path)])
    assert code == 0
    payload = json.loads(report_path.read_text())
    names = {c["name"]: c["verdict"] for c in payload["checks"]}
    assert names["irreversibility"] == "PASS"
    assert names["energy_balance"] == "PASS"
    assert names["global_stability[oracle]"] == "PASS"
    assert names["structure_identity"] == "PASS"


def test_cli_audit_fails_on_doctored_record(tmp_path, capsys):
    cfg_path = tmp_path / "strip.cfg"
    cfg_path.write_text(config_text("strip", 17))
    rec_path = tmp_path / "rec.json"
    assert main(["run", "--config", str(cfg_path), "--out", str(rec_path)]) == 0
    payload = json.loads(rec_path.read_text())
    payload["knots"][3]["energy"]["total"] += 1e-5
    rec_path.write_text(json.dumps(payload))
    code = main(["audit", "--config", str(cfg_path), "--record", str(rec_path)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_audit_rejects_hash_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "strip.cfg"
    cfg_path.write_text(config_text("strip", 17))
    rec_path = tmp_path / "rec.json"
    assert main(["run", "--config", str(cfg_path), "--out", str(rec_path)]) == 0
    other_cfg = tmp_path / "other.cfg"
    other_cfg.write_text(config_text("strip", 17).replace("0.05", "0.07"))
    code = main(["audit", "--config", str(other_cfg), "--record", str(rec_path)])
    assert code == 2


@pytest.fixture(scope="module")
def strip_run(tmp_path_factory):
    """A 2 x 1 strip config and the record payload ``qsfrac run`` writes for it."""
    root = tmp_path_factory.mktemp("strip")
    cfg_path = root / "strip.cfg"
    cfg_path.write_text(config_text("strip", 5))
    rec_path = root / "rec.json"
    assert main(["run", "--config", str(cfg_path), "--out", str(rec_path)]) == 0
    return cfg_path, json.loads(rec_path.read_text())


def _drop_energy_key(payload):
    del payload["knots"][2]["energy"]["W"]


def _shorten_dofs(payload):
    payload["knots"][1]["dofs"].pop()


def _crack_a_pinned_edge(payload):
    payload["knots"][3]["crack"] = [0]   # a Dirichlet edge outside the brittle column


def _nan_dof(payload):
    payload["knots"][2]["dofs"][0] = float("nan")


@pytest.mark.parametrize("tamper, message", [
    (None, "not a JSON record"),
    (_drop_energy_key, "knot 2: missing key 'W'"),
    (_shorten_dofs, "knot 1: DOF value array does not match"),
    (_crack_a_pinned_edge, "knot 3: crack contains non-crackable edges [0]"),
    (_nan_dof, "knot 2: non-finite DOF value"),
], ids=["invalid_json", "missing_energy_key", "short_dof_array", "uncrackable_edge", "nan_dof"])
def test_cli_audit_of_a_malformed_record_exits_2_naming_the_knot(strip_run, tmp_path, tamper, message):
    cfg_path, payload = strip_run
    rec_path = tmp_path / "rec.json"
    if tamper is None:
        rec_path.write_text(json.dumps(payload)[:200])
    else:
        payload = json.loads(json.dumps(payload))
        tamper(payload)
        rec_path.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "qsfrac", "audit", "--config", str(cfg_path), "--record", str(rec_path)],
        capture_output=True, text=True, env=cli_env(), cwd=str(tmp_path),
    )
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr and message in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_bad_config_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("version = 1\nmesh.nx = 2\n")
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "mesh.ny" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_solver_tolerance_not_positive_is_a_config_error(tmp_path, capsys, value):
    # a target the solver cannot reach is a config error (exit 2), not a
    # stalled solve (exit 3)
    cfg_path = tmp_path / "strip.cfg"
    cfg_path.write_text(config_text("strip", 5) + f"solver.tolerance = {value}\n")
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "solver.tolerance: expected a finite number > 0" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_cli_surface_load_without_a_surface_side_is_a_config_error(tmp_path, capsys):
    # the strip names no mesh.surface side, so no edge could carry the load
    cfg_path = tmp_path / "strip.cfg"
    cfg_path.write_text(config_text("strip", 5) + "surface.force = 0: 0; 1: 1\n")
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "surface.force" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()
    # an all-zero table stays valid without a surface side
    parse_config(config_text("strip", 5) + "surface.force = 0: 0; 1: 0\n").build_problem()


def test_unknown_toughness_kind_named_before_its_weights():
    with pytest.raises(ConfigError, match="unknown toughness kind 'bogus'"):
        parse_config(BASE + "toughness.kind = bogus\n").build_problem()


@pytest.mark.parametrize("checks", ["", ","])
def test_cli_audit_without_a_check_is_a_usage_error(strip_run, tmp_path, capsys, checks):
    cfg_path, payload = strip_run
    rec_path = tmp_path / "rec.json"
    rec_path.write_text(json.dumps(payload))
    code = main(["audit", "--config", str(cfg_path), "--record", str(rec_path),
                 "--checks", checks])
    assert code == 2
    err = capsys.readouterr().err
    assert "no check" in err and "irreversibility" in err


def test_cli_audit_of_a_pinned_dof_off_the_datum_fails_naming_the_knot(strip_run, tmp_path):
    cfg_path, payload = strip_run
    payload = json.loads(json.dumps(payload))
    payload["knots"][2]["dofs"][0] += 0.5   # DOF 0 sits on the left Dirichlet edge
    rec_path = tmp_path / "rec.json"
    rec_path.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "qsfrac", "audit", "--config", str(cfg_path), "--record", str(rec_path)],
        capture_output=True, text=True, env=cli_env(), cwd=str(tmp_path),
    )
    assert proc.returncode == 1, proc.stderr
    assert "[FAIL        ] global_stability[oracle]" in proc.stdout
    # the stability detail line (the balance audit words its own differently)
    assert "    knot 2: field does not match the boundary datum" in proc.stdout
    assert "Traceback" not in proc.stderr


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_cli_audit_report_is_strict_json_when_a_margin_is_infinite(strip_run, tmp_path, capsys):
    cfg_path, payload = strip_run
    payload = json.loads(json.dumps(payload))
    payload["knots"][2]["dofs"][0] += 0.5   # off the datum: an infinite Euler residual
    rec_path, out = tmp_path / "rec.json", tmp_path / "report.json"
    rec_path.write_text(json.dumps(payload))
    assert main(["audit", "--config", str(cfg_path), "--record", str(rec_path), "--out", str(out)]) == 1
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    stability = next(c for c in report["checks"] if c["name"] == "global_stability[oracle]")
    assert stability["margins"]["max_euler_residual"] == "inf"
    assert "max_euler_residual = inf" in capsys.readouterr().out


def test_cli_audit_of_a_partial_record_fails_naming_its_knots(tmp_path):
    # a load that overflows stops the run after its first knot; the partial
    # record it writes must not audit as a PASS
    cfg_path, rec_path, out = tmp_path / "strip.cfg", tmp_path / "rec.json", tmp_path / "report.json"
    cfg_path.write_text(config_text("strip", 9).replace("1: x / 2", "1: 1e200 * x"))

    def qsfrac(*args):
        return subprocess.run([sys.executable, "-m", "qsfrac", *args, "--config", str(cfg_path)],
                              capture_output=True, text=True, env=cli_env(), cwd=str(tmp_path))

    run = qsfrac("run", "--out", str(rec_path))
    assert run.returncode == 3 and "partial (incomplete) record" in run.stderr, run.stderr
    proc = qsfrac("audit", "--record", str(rec_path), "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert "[FAIL        ] completeness" in proc.stdout
    assert "the run stopped after 1 of 9 configured knots" in proc.stdout
    assert "Traceback" not in run.stderr + proc.stderr
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["checks"][0]["name"] == "completeness"
    assert report["checks"][0]["verdict"] == "FAIL"


@pytest.mark.parametrize("flags", [[], ["-W", "error"]])
def test_cli_overflowing_load_is_a_numeric_failure_without_a_warning(tmp_path, flags):
    # the residual and the energy overflow at the first knot past 0: the run
    # exits 3 naming a numeric failure, and no numpy warning reaches stderr,
    # nor a traceback when warnings are errors
    cfg_path = tmp_path / "strip.cfg"
    cfg_path.write_text(config_text("strip", 9).replace("1: x / 2", "1: 1e200 * x"))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "qsfrac", "run", "--config", str(cfg_path),
         "--out", str(tmp_path / "rec.json")],
        capture_output=True, text=True, env=cli_env(), cwd=str(tmp_path),
    )
    assert proc.returncode == 3, proc.stderr
    assert "numeric failure" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("flags", [[], ["-W", "error"]])
def test_cli_newton_start_overflow_is_a_numeric_failure(tmp_path, flags):
    # p = 4 with a datum of 1e200 from t = 0: the energy, gradient and Hessian
    # of the first solve overflow.  The Newton loop stops at the non-finite
    # gradient, so the run exits 3 with no warning and no traceback
    cfg_path = tmp_path / "quartic.cfg"
    cfg_path.write_text(config_text("quartic", 5).replace(
        "boundary.psi = 0: 0; 1: x / 2", "boundary.psi = 0: 1e200 * x; 1: 1e200 * x"))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "qsfrac", "run", "--config", str(cfg_path),
         "--out", str(tmp_path / "rec.json")],
        capture_output=True, text=True, env=cli_env(), cwd=str(tmp_path),
    )
    assert proc.returncode == 3, proc.stderr
    assert "numeric failure" in proc.stderr and "non-finite gradient" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("line", [
    "body.force = 0: 0; 1: log(x - 1.5)",
    "energy.lambda = nan",
    # complex in Python even with float constants: no traceback, and no
    # imaginary part silently dropped
    "body.force = 0: 0; 1: (-8) ** 0.5",
    "body.force = 0: 0; 1: x ** 0.5 * (-1) ** 0.5",
])
def test_cli_non_finite_config_value_exit_2(tmp_path, line):
    key = line.split(" = ")[0]
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(BASE + line + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "qsfrac", "run", "--config", str(cfg_path),
         "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, env=cli_env(), cwd=str(tmp_path),
    )
    assert proc.returncode == 2, proc.stderr
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("line", [
    "energy.mu = inf",
    "energy.mu = sqrt(x - 1.5)",
    "energy.mu = 1 / (x - x)",
    "energy.epsilon = -inf",
    "boundary.psi = 0: 0; nan: x",
    "body.force = 0: 1 / 0",
    "strategy.max_edges = inf",
])
def test_non_finite_config_value_names_its_key(line):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=key):
        parse_config(BASE + line + "\n").build_problem()


def test_brittle_edge_ids_select_the_same_crackable_edges_as_a_rectangle(tmp_path, capsys):
    by_rect = parse_config(BASE).build_problem()
    by_ids = parse_config(BASE.replace("rect: 1, 0, 1, 1", "edges: 4")).build_problem()
    assert crackable_edges(by_ids.mesh).tolist() == [4]
    rec_rect, rec_ids = (run_evolution(p.model, p.mesh, p.grid, p.initial_crack, p.strategy)
                         for p in (by_rect, by_ids))
    assert rec_ids.cracks == rec_rect.cracks
    assert [rec_ids.total_energy(i) for i in range(len(rec_ids))] == \
        [rec_rect.total_energy(i) for i in range(len(rec_rect))]

    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(BASE.replace("rect: 1, 0, 1, 1", "edges: 4, 99"))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 2
    assert "brittle edge ids out of range: [99]" in capsys.readouterr().err


def test_initial_crack_ids_out_of_range_rejected():
    # every edge is crackable, so an id that wrapped around would be accepted
    text = BASE.replace("left, right", "all").replace("rect: 1, 0, 1, 1", "all")
    n_edges = parse_config(text).build_problem().mesh.n_edges
    for ids in (-1, n_edges):
        with pytest.raises(ConfigError, match="not crackable"):
            parse_config(text + f"initial.crack = edges: {ids}\n").build_problem()


def test_initial_crack_regions_select_crackable_edges_like_the_brittle_region():
    # a closed rectangle (with the 1e-12 geometric tolerance) and "all" pick
    # the crackable edges the same way mesh.brittle picks brittle edges
    mesh = parse_config(BASE).build_problem().mesh
    crackable = np.flatnonzero(mesh.crackable_mask).tolist()
    for region in ("rect: 1, 0, 1, 1", "rect: 0.9999999999999, 0, 1, 1.0000000000001", "all"):
        crack = parse_config(BASE + f"initial.crack = {region}\n").build_initial_crack(mesh)
        assert list(crack.edge_ids) == crackable
    for region in ("rect: 0, 0, 0.5, 1", "rect: 1.00001, 0, 2, 1"):
        crack = parse_config(BASE + f"initial.crack = {region}\n").build_initial_crack(mesh)
        assert len(crack) == 0


def test_cli_numeric_failure_exit_3(tmp_path, capsys):
    # zero confinement plus a crack candidate that floats: the inner solve
    # raises and the run aborts with the numeric exit code
    cfg_path = tmp_path / "float.cfg"
    cfg_path.write_text("""
version = 1
mesh.nx = 2
mesh.ny = 1
mesh.width = 2.0
mesh.height = 1.0
mesh.dirichlet = left
mesh.brittle = rect: 1, 0, 1, 1
energy.lambda = 0.0
toughness.weight = 0.05
boundary.psi = 0: 0
body.force = 0: 0; 1: 1.0
time.horizon = 1.0
time.knots = 5
""")
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")])
    assert code == 3


def test_cli_envelope(tmp_path, capsys):
    cfg_path = tmp_path / "strip.cfg"
    cfg_path.write_text(config_text("strip", 17))
    rec_path = tmp_path / "rec.json"
    env_path = tmp_path / "env.json"
    assert main(["run", "--config", str(cfg_path), "--out", str(rec_path)]) == 0
    code = main(["envelope", "--config", str(cfg_path), "--record", str(rec_path),
                 "--side", "left", "--out", str(env_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "jump knots C = [" in out
    assert "sandwich: left envelope inside the input at every knot: True" in out
    assert env_path.exists()
    # the two sides compose: right envelope of the left-envelope record
    both_path = tmp_path / "both.json"
    code = main(["envelope", "--config", str(cfg_path), "--record", str(env_path),
                 "--side", "right", "--out", str(both_path)])
    assert code == 0
    assert "sandwich: input inside the right envelope at every knot: True" in capsys.readouterr().out


def test_cli_run_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "pair.cfg"
    cfg_path.write_text(config_text("pair", 9))
    rec_path = tmp_path / "rec.json"
    code = main(["run", "--config", str(cfg_path), "--out", str(rec_path),
                 "--dt", "0.25", "--strategy", "greedy"])
    assert code == 0
    payload = json.loads(rec_path.read_text())
    assert payload["grid"] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert payload["strategy"]["kind"] == "greedy"
    assert payload["strategy"]["certification"] == "single-edge-stable"


def test_cli_run_tol_reaches_the_solver(tmp_path, monkeypatch):
    import qsfrac.cli

    cfg_path = tmp_path / "pair.cfg"
    cfg_path.write_text(config_text("pair", 9))
    seen = []

    def recording_run(*args, **kwargs):
        seen.append(kwargs["solver_tol"])
        return run_evolution(*args, **kwargs)

    monkeypatch.setattr(qsfrac.cli, "run_evolution", recording_run)
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json"),
                 "--tol", "1e-6"])
    assert code == 0
    assert seen == [1e-6]


@pytest.mark.parametrize("command, flag, value", [
    *(("run", "--dt", v) for v in ("nan", "1e-300", "-0.1", "inf", "0", "ten")),
    *(("run", "--tol", v) for v in ("0", "nan", "inf", "-1")),
    *(("audit", "--tol", v) for v in ("nan", "0", "-1", "inf")),
])
def test_cli_numeric_flag_out_of_range_is_a_usage_error(strip_run, tmp_path, capsys, command, flag,
                                                        value):
    # each must be finite and > 0; --dt 1e-300 is, but its knot count is more
    # than numpy can allocate
    cfg_path, payload = strip_run
    if command == "run":
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]
    else:
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps(payload))
        argv = ["audit", "--config", str(cfg_path), "--record", str(rec_path)]
    try:
        code = main(argv + [flag, value])
    except SystemExit as exc:   # argparse's usage error
        code = exc.code
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_cli_envelope_of_jumpless_record_is_identity(tmp_path, capsys):
    cfg_path = tmp_path / "zero.cfg"
    cfg_path.write_text(config_text("zero_load", 9))
    rec_path = tmp_path / "rec.json"
    env_path = tmp_path / "env.json"
    assert main(["run", "--config", str(cfg_path), "--out", str(rec_path)]) == 0
    assert main(["envelope", "--config", str(cfg_path), "--record", str(rec_path),
                 "--side", "right", "--out", str(env_path)]) == 0
    assert "C = []" in capsys.readouterr().out
    a = json.loads(rec_path.read_text())
    b = json.loads(env_path.read_text())
    assert a["knots"] == b["knots"]


def test_cli_oracle_compare_cooperative(tmp_path, capsys):
    cfg_path = tmp_path / "pair.cfg"
    cfg_path.write_text(config_text("pair", 17))
    code = main(["oracle-compare", "--config", str(cfg_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "worst pairs gap: 0.000e+00" in out
    assert "worst greedy gap:" in out
    # the greedy gap is strictly positive on this instance
    greedy_line = [l for l in out.splitlines() if l.startswith("worst greedy gap")][0]
    assert float(greedy_line.split(":")[1].split(";")[0]) > 0


def test_cli_oracle_compare_refuses_large_instances(tmp_path, capsys):
    cfg_path = tmp_path / "big.cfg"
    cfg_path.write_text("""
version = 1
mesh.nx = 5
mesh.ny = 4
mesh.width = 2.0
mesh.height = 1.0
mesh.brittle = all
toughness.weight = 0.5
boundary.psi = 0: 0; 1: x / 2
time.horizon = 1.0
time.knots = 5
""")
    code = main(["oracle-compare", "--config", str(cfg_path)])
    assert code == 2
    assert "crackable edges" in capsys.readouterr().err


def test_cli_stability_oracle_refusal_on_oversized_instance(tmp_path, capsys):
    cfg_path = tmp_path / "big.cfg"
    cfg_path.write_text("""
version = 1
mesh.nx = 5
mesh.ny = 4
mesh.width = 2.0
mesh.height = 1.0
mesh.brittle = all
toughness.weight = 1e9
boundary.psi = 0: 0; 1: x / 2
strategy.kind = greedy
time.horizon = 1.0
time.knots = 3
""")
    rec_path = tmp_path / "rec.json"
    assert main(["run", "--config", str(cfg_path), "--out", str(rec_path)]) == 0
    code = main(["audit", "--config", str(cfg_path), "--record", str(rec_path),
                 "--checks", "stability", "--level", "oracle"])
    assert code == 2
    assert "limit" in capsys.readouterr().err


def test_cli_auto_level_downgrades_when_large(tmp_path, capsys):
    cfg_path = tmp_path / "big.cfg"
    cfg_path.write_text("""
version = 1
mesh.nx = 5
mesh.ny = 4
mesh.width = 2.0
mesh.height = 1.0
mesh.brittle = all
toughness.weight = 1e9
boundary.psi = 0: 0; 1: x / 2
strategy.kind = greedy
time.horizon = 1.0
time.knots = 3
""")
    rec_path = tmp_path / "rec.json"
    assert main(["run", "--config", str(cfg_path), "--out", str(rec_path)]) == 0
    code = main(["audit", "--config", str(cfg_path), "--record", str(rec_path),
                 "--checks", "stability"])  # auto level, INCONCLUSIVE counts as pass
    assert code == 0
    out = capsys.readouterr().out
    assert "one_edge" in out
    code = main(["audit", "--config", str(cfg_path), "--record", str(rec_path),
                 "--checks", "stability", "--inconclusive", "fail"])
    assert code == 1


def test_cli_thread_count_does_not_change_records(tmp_path):
    cfg_path = tmp_path / "strip.cfg"
    cfg_path.write_text(config_text("strip", 17))
    outs = {}
    for threads in ("1", "3"):
        rec_path = tmp_path / f"rec{threads}.json"
        env = cli_env(threads)
        proc = subprocess.run(
            [sys.executable, "-m", "qsfrac", "run", "--config", str(cfg_path),
             "--out", str(rec_path)],
            capture_output=True, text=True, env=env, cwd=str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        outs[threads] = rec_path.read_bytes()
    assert outs["1"] == outs["3"]


@pytest.mark.parametrize("setting, expected", [(None, "1"), ("3", "3")])
def test_importing_qsfrac_caps_blas_threads_unless_set(setting, expected):
    env = cli_env()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    proc = subprocess.run(
        [sys.executable, "-c", "import os, qsfrac; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


def test_cli_oracle_compare_strip_has_no_gap(tmp_path, capsys):
    # a single-edge interface: greedy and exhaustive find the same crossing
    cfg_path = tmp_path / "strip.cfg"
    cfg_path.write_text(config_text("strip", 17))
    assert main(["oracle-compare", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "worst greedy gap: 0.000e+00" in out
    assert "worst pairs gap: 0.000e+00" in out


def test_cli_zero_load_trace_is_flat(tmp_path):
    cfg_path = tmp_path / "zero.cfg"
    cfg_path.write_text(config_text("zero_load", 9))
    rec_path = tmp_path / "rec.json"
    assert main(["run", "--config", str(cfg_path), "--out", str(rec_path)]) == 0
    rows = rec_path.with_suffix(".csv").read_text().splitlines()[1:]
    for row in rows:
        cells = [float(v) for v in row.split(",")[1:6]]
        assert cells == [0.0, 0.0, 0.0, 0.0, 0.0]
