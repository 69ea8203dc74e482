import contextlib
import functools
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsfrac.audit import CHECKS
from qsfrac.broken import BrokenField
from qsfrac.cli import main
from qsfrac.config import (
    _KEYS,
    MAX_CELLS,
    MAX_KNOTS,
    ConfigError,
    compile_expr,
    config_hash,
    parse_config,
)
from qsfrac.corpus import CORPUS, build_config, config_text
from qsfrac.energy import KnotEvaluation
from qsfrac.evolution import EvolutionRecord, RecordError, run_evolution
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


def _inf_energy(payload):
    payload["knots"][4]["energy"]["W"] = float("inf")


@pytest.mark.parametrize("tamper, message", [
    (None, "not a JSON record"),
    (_drop_energy_key, "knot 2: missing key 'W'"),
    (_shorten_dofs, "knot 1: DOF value array does not match"),
    (_crack_a_pinned_edge, "knot 3: crack contains non-crackable edges [0]"),
    (_nan_dof, "knot 2: non-finite DOF value"),
    (_inf_energy, "knot 4: non-finite W value"),
], ids=["invalid_json", "missing_energy_key", "short_dof_array", "uncrackable_edge", "nan_dof",
        "inf_energy"])
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


@pytest.mark.parametrize("path, value, message", [
    (("knots", 2, "crack"), [4.7], "knot 2: crack: expected list of int, got [4.7]"),
    (("knots", 2, "crack"), "4", "knot 2: crack: expected list of int, got '4'"),
    (("knots", 2, "crack"), "44", "knot 2: crack: expected list of int, got '44'"),
    (("knots", 2, "crack"), [True], "knot 2: crack: expected list of int, got [True]"),
    (("knots", 2, "dofs", 0), "0.5", "knot 2: DOF: expected list of int or float, got ['0.5'"),
    (("knots", 2, "dofs", 0), True, "knot 2: DOF: expected list of int or float, got [True"),
    (("knots", 1, "energy", "W"), "0.1", "knot 1: W: expected int or float, got '0.1'"),
    (("knots", 4, "energy", "total"), 10**400, "knot 4: int too large to convert to float"),
    (("grid", 1), "0.25", "record: grid: expected list of int or float"),
    (("complete",), "no", "record: complete: expected bool, got 'no'"),
    (("complete",), 1, "record: complete: expected bool, got 1"),
    (("annotations",), "abc", "record: annotations: expected list of str, got 'abc'"),
    (("annotations",), [1], "record: annotations: expected list of str, got [1]"),
    (("strategy", "max_bruteforce_edges"), "x", "record: max_bruteforce_edges: expected int, got 'x'"),
    (("strategy", "max_bruteforce_edges"), True, "record: max_bruteforce_edges: expected int, got True"),
    (("strategy", "max_bruteforce_edges"), -1, "record: max_bruteforce_edges: expected a count, got -1"),
    (("format_version",), True, "record: unsupported record format version True"),
    (("format_version",), 1, "record: unsupported record format version 1"),
    (("config_hash",), 5, "record: config_hash: expected str, got 5"),
    (("config_hash",), None, "record: config_hash: expected str, got None"),
    (("config_hash",), ["a"], "record: config_hash: expected str, got ['a']"),
    (("mesh_hash",), 5, "record: mesh_hash: expected str, got 5"),
    (("mesh_hash",), None, "record: mesh_hash: expected str, got None"),
    (("mesh_hash",), ["a"], "record: mesh_hash: expected str, got ['a']"),
], ids=["crack_float", "crack_digit", "crack_digits", "crack_bool", "dof_text", "dof_bool", "energy_text",
        "energy_huge_int", "grid_text", "complete_text", "complete_int", "annotations_text",
        "annotation_int", "limit_text", "limit_bool", "limit_negative", "version_bool", "version_one",
        "config_hash_int", "config_hash_null", "config_hash_list", "mesh_hash_int", "mesh_hash_null",
        "mesh_hash_list"])
def test_record_loader_accepts_only_the_json_types_save_writes(strip_run, tmp_path, capsys, path, value,
                                                                message):
    # each of these used to load: "4" as edge 4, a string of digits digit by
    # digit, a numeric string or a bool as a number, "no" as a complete
    # record, "abc" as three annotations, true as format version 1, and a
    # hash of another type (then blamed by the audit as a hash mismatch); a
    # huge integer ended in an OverflowError traceback.  Now each is a
    # RecordError naming the knot, through load and through the audit
    # (exit 2), with no warning.  So is a record of format version 1, whose
    # stored powers format 2 no longer reads
    cfg_path, payload = strip_run
    problem = parse_config(cfg_path.read_text()).build_problem()
    rec_path = tmp_path / "rec.json"
    rec_path.write_text(json.dumps(payload))
    EvolutionRecord.load(rec_path, problem.mesh, problem.model)   # what save wrote loads
    doc = json.loads(json.dumps(payload))
    functools.reduce(lambda node, key: node[key], path[:-1], doc)[path[-1]] = value
    rec_path.write_text(json.dumps(doc))
    with pytest.raises(RecordError) as caught:
        EvolutionRecord.load(rec_path, problem.mesh, problem.model)
    assert f"{rec_path}: {message}" in str(caught.value)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["audit", "--config", str(cfg_path), "--record", str(rec_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {rec_path}: {message}")


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


def test_each_search_cap_is_declared_once(capsys):
    # the brute-force cap: the strategy's and the config's default, and the
    # cap of oracle-compare; the oracle cap: the stability audit's default
    # and the --max-edges default of audit and of oracle-compare
    import inspect

    from qsfrac import audit, cli
    from qsfrac.evolution import MAX_BRUTEFORCE_EDGES, SearchStrategy
    assert (MAX_BRUTEFORCE_EDGES, audit.MAX_ORACLE_EDGES) == (20, 12)
    assert SearchStrategy().max_bruteforce_edges == MAX_BRUTEFORCE_EDGES
    assert parse_config(BASE).build_problem().strategy.max_bruteforce_edges == MAX_BRUTEFORCE_EDGES
    limit = inspect.signature(audit.check_global_stability).parameters["max_oracle_edges"].default
    parser = cli._build_parser()
    commands = (["audit", "--config", "c", "--record", "r"], ["oracle-compare", "--config", "c"])
    assert [limit] + [parser.parse_args(c).max_edges for c in commands] == [audit.MAX_ORACLE_EDGES] * 3
    with pytest.raises(SystemExit):
        main(["oracle-compare", "--help"])
    assert f"(cap {MAX_BRUTEFORCE_EDGES})" in " ".join(capsys.readouterr().out.split())


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


def test_cli_certificates_fail_naming_a_knot_whose_field_is_off_its_datum(tmp_path, capsys):
    # lattice@17 with knot 2's DOFs swapped for knot 3's, on the same crack
    # set: the field at knot 2 holds the datum of t_3, so knot 2 has no
    # certificate
    cfg_path, rec_path = tmp_path / "lattice.cfg", tmp_path / "rec.json"
    cfg_path.write_text(config_text("lattice", 17))
    assert main(["run", "--config", str(cfg_path), "--out", str(rec_path)]) == 0
    payload = json.loads(rec_path.read_text())
    assert payload["knots"][2]["crack"] == payload["knots"][3]["crack"]
    assert main(["audit", "--config", str(cfg_path), "--record", str(rec_path), "--checks", "certificates"]) == 0
    payload["knots"][2]["dofs"] = payload["knots"][3]["dofs"]
    rec_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["audit", "--config", str(cfg_path), "--record", str(rec_path), "--checks", "certificates"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL        ] dual_certificates" in out
    assert "    knot 2: field does not match the boundary datum at time t" in out


def test_cli_certificates_of_a_dof_whose_energy_overflows_fail_without_a_warning(strip_run, tmp_path, capsys):
    cfg_path, payload = strip_run
    payload = json.loads(json.dumps(payload))
    payload["knots"][2]["dofs"][1] = 1e308
    rec_path = tmp_path / "rec.json"
    rec_path.write_text(json.dumps(payload))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["audit", "--config", str(cfg_path), "--record", str(rec_path), "--checks", "certificates"]) == 1
    assert "    knot 2: the annihilation residual is " in capsys.readouterr().out


@pytest.mark.parametrize("flags", [[], ["-W", "error"]])
def test_cli_audit_of_a_dof_whose_energy_overflows_fails_naming_the_knot(strip_run, tmp_path, flags):
    # the recomputed total is inf: the balance guard and the Euler residual
    # fail at knot 2, with no numpy warning and no traceback
    cfg_path, payload = strip_run
    payload = json.loads(json.dumps(payload))
    payload["knots"][2]["dofs"][1] = 1e308
    rec_path = tmp_path / "rec.json"
    rec_path.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "qsfrac", "audit", "--config", str(cfg_path), "--record",
         str(rec_path)],
        capture_output=True, text=True, env=cli_env(), cwd=str(tmp_path),
    )
    assert proc.returncode == 1, proc.stderr
    assert "    stored total energy at knot 2 does not match the model" in proc.stdout
    assert "    euler residual inf at knot 2 exceeds" in proc.stdout
    assert proc.stderr == ""


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


def test_cli_failed_run_writes_its_partial_record_into_a_new_directory(tmp_path, capsys):
    # the run stops after its first knot; the directory of --out does not
    # exist yet and is made before the run, so the partial record is saved
    cfg_path, rec_path = tmp_path / "strip.cfg", tmp_path / "new" / "dir" / "rec.json"
    cfg_path.write_text(config_text("strip", 9).replace("1: x / 2", "1: 1e200 * x"))
    assert main(["run", "--config", str(cfg_path), "--out", str(rec_path)]) == 3
    err = capsys.readouterr().err
    assert "partial (incomplete) record" in err and "numeric failure" in err, err
    assert len(json.loads(rec_path.read_text())["knots"]) == 1


def test_cli_run_writes_its_trace_into_a_new_directory(tmp_path, capsys):
    cfg_path, rec_path = tmp_path / "strip.cfg", tmp_path / "rec.json"
    csv_path = tmp_path / "new" / "dir" / "t.csv"
    cfg_path.write_text(config_text("strip", 5))
    assert main(["run", "--config", str(cfg_path), "--out", str(rec_path), "--csv", str(csv_path)]) == 0
    assert f"trace:  {csv_path}" in capsys.readouterr().out
    assert len(csv_path.read_text().splitlines()) == 6


def test_cli_audit_writes_its_report_into_a_new_directory(tmp_path, capsys):
    cfg_path, rec_path = tmp_path / "strip.cfg", tmp_path / "rec.json"
    report_path = tmp_path / "new" / "dir" / "r.json"
    cfg_path.write_text(config_text("strip", 5))
    assert main(["run", "--config", str(cfg_path), "--out", str(rec_path)]) == 0
    assert main(["audit", "--config", str(cfg_path), "--record", str(rec_path),
                 "--checks", "irreversibility,structure", "--out", str(report_path)]) == 0
    assert f"report: {report_path}" in capsys.readouterr().out
    assert json.loads(report_path.read_text())


@pytest.mark.parametrize("q", [1.5, 1.2])
def test_cli_subquadratic_body_run_reads_back_and_passes_its_audit(tmp_path, q):
    # the body density at the unloaded first knot is the load (0), not the
    # NaN of 0 * inf: the record reads back, its oracle audit passes with
    # warnings as errors, and the knot-0 certificate and Euler residual are
    # finite
    from qsfrac.audit import dual_certificate
    from qsfrac.evolution import EvolutionRecord
    from qsfrac.minimize import euler_residual

    cfg_path, rec_path = tmp_path / "strip.cfg", tmp_path / "rec.json"
    cfg_path.write_text(config_text("strip", 9) + f"energy.q = {q}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg_path), "--out", str(rec_path)]) == 0
        assert main(["audit", "--config", str(cfg_path), "--record", str(rec_path), "--level", "oracle",
                     "--checks", "irreversibility,stability,structure"]) == 0
        p = parse_config(cfg_path.read_text()).build_problem()
        rec = EvolutionRecord.load(rec_path, p.mesh, p.model)
        cert = dual_certificate(p.model, p.mesh, rec.cracks[0], float(rec.times[0]), rec.fields[0])
        residual = euler_residual(p.model, p.mesh, rec.cracks[0], float(rec.times[0]), rec.fields[0])
    assert cert.annihilation_residual <= 1e-10 and abs(cert.fenchel_gap) <= 1e-10
    assert residual <= 1e-10


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
    # finite, but the triangle areas underflow or the centroids overflow
    "mesh.height = 1e-320",
    "mesh.width = 1e308",
])
def test_cli_non_finite_config_value_exit_2(tmp_path, line):
    key = line.split(" = ")[0]
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("".join(l + "\n" for l in BASE.splitlines() if not l.startswith(key + " "))
                        + line + "\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qsfrac", "run", "--config", str(cfg_path),
         "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, env=cli_env(), cwd=str(tmp_path),
    )
    assert proc.returncode == 2, proc.stderr
    assert key in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("lines, key", [
    (["boundary.psi = 0: 0; 1e-320: x / 2; 1: x / 2"], "boundary.psi"),
    (["time.horizon = 1e-320", "boundary.psi = 0: 0; 1e-320: x / 2",
      "body.force = 0: 0; 1e-320: 0.1"], "body.force"),
])
def test_cli_load_table_whose_rate_overflows_exit_2(tmp_path, lines, key):
    # a table interval of 1e-320 over which the load changes: its rate
    # overflows, which used to end the run in a RuntimeWarning traceback from
    # TimeTable.rate; the table is refused when it is built, naming its key
    keys = [line.split(" = ")[0] for line in lines]
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("".join(l + "\n" for l in config_text("strip", 5).splitlines()
                                if l.split(" = ")[0] not in keys) + "\n".join(lines) + "\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qsfrac", "run", "--config", str(cfg_path),
         "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, env=cli_env(), cwd=str(tmp_path),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: {key}: the rate over [0.0, 1e-320] is not finite\n"


# replacement values of the record fuzzer; a drawn index past the end deletes
_RECORD_FUZZ_VALUES = [None, 1e308, 1e-320, -1e308, "", "x", [], [0.0], [1e308], True, False, {}]


def _record_paths(node, path=()):
    """The path of every value under ``node``, a loaded JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    out = []
    for key, value in items:
        out.append(path + (key,))
        out.extend(_record_paths(value, path + (key,)))
    return out


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_a_fuzzed_record_audits_to_an_exit_code(strip_run, data):
    # one or two values of a strip record replaced by null, a huge or a
    # subnormal number, a string, a list, a bool or an object, or deleted:
    # the audit exits 0-3, never with a warning or another exception
    cfg_path, payload = strip_run
    doc = json.loads(json.dumps(payload))
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(_record_paths(doc)))
        parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
        choice = data.draw(st.integers(0, len(_RECORD_FUZZ_VALUES)))
        if choice == len(_RECORD_FUZZ_VALUES):
            del parent[path[-1]]
        else:
            parent[path[-1]] = _RECORD_FUZZ_VALUES[choice]
    rec_path = cfg_path.with_name("fuzzed.json")
    rec_path.write_text(json.dumps(doc))
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["audit", "--config", str(cfg_path), "--record", str(rec_path)])
    assert code in (0, 1, 2, 3)


def test_cli_audit_of_overflowing_powers_fails_the_balance_without_a_warning(strip_run, tmp_path, capsys):
    # the trapezoid of two neighbouring net powers of -1.2e308 overflows,
    # which used to end the audit in a RuntimeWarning traceback under
    # -W error.  Under a body load of rate 1e300, a constant field c = 6e7
    # strains nothing and has the net power -2e300 c on the strip's area 2,
    # while its energies stay finite.  The strip's record with that field at
    # knots 2 and 3, every knot's energies recomputed under this load, loads
    # and matches the model
    cfg_path, payload = strip_run
    text = cfg_path.read_text()
    assert "body.force = 0: 0; 0.7: 0.1; 1: 0.1" in text
    text = text.replace("body.force = 0: 0; 0.7: 0.1; 1: 0.1", "body.force = 0: 0; 1: 1e300")
    cfg_path = tmp_path / "steep.cfg"
    cfg_path.write_text(text)
    problem = parse_config(text).build_problem()
    rec_path = tmp_path / "rec.json"
    rec_path.write_text(json.dumps(payload))
    rec = EvolutionRecord.load(rec_path, problem.mesh, problem.model)
    rec.config_hash = problem.config_hash
    for i in range(len(rec)):
        if i in (2, 3):
            rec.fields[i] = BrokenField(rec.fields[i].topology, np.full(rec.fields[i].topology.n_dofs, 6e7))
        rec.energies[i] = KnotEvaluation(problem.model, problem.mesh, float(rec.times[i]),
                                         rec.fields[i], rec.cracks[i]).energies
    rec.save(rec_path)
    report_path = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["audit", "--config", str(cfg_path), "--record", str(rec_path), "--checks", "balance",
                     "--out", str(report_path)]) == 1
    (check,) = json.loads(report_path.read_text())["checks"]
    assert check["verdict"] == "FAIL" and check["margins"]["gap"] == "inf"


def test_cli_audit_reads_no_power_block(strip_run, tmp_path, capsys):
    # a record of format 2 stores no power: the balance takes each knot's
    # from its field, so a power block added by hand, here one that would
    # break the balance, changes neither the report nor the exit code
    cfg_path, payload = strip_run
    assert all("power" not in knot for knot in payload["knots"])
    doc = json.loads(json.dumps(payload))
    for knot in doc["knots"]:
        knot["power"] = {"stress_power": 1e3, "body_coupling": 0.0, "body_rate": 0.0,
                         "surface_coupling": 0.0, "surface_rate": 0.0}
    outputs = []
    for name, record in (("clean", payload), ("powered", doc)):
        rec_path, report_path = tmp_path / f"{name}.json", tmp_path / f"{name}.report.json"
        rec_path.write_text(json.dumps(record))
        code = main(["audit", "--config", str(cfg_path), "--record", str(rec_path),
                     "--checks", ",".join(CHECKS), "--out", str(report_path)])
        out, err = capsys.readouterr()
        outputs.append((code, out.replace(str(report_path), "<report>"), err, report_path.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("grid", [[0.0, 0.25, 0.5, 0.75, 1e308], [0.0, 0.5, 1.0, 2.0, 3.0]])
def test_cli_audit_refuses_a_record_grid_beyond_the_horizon(strip_run, tmp_path, capsys, grid):
    # a grid past time.horizon used to end the audit in a ValueError
    # traceback from the load tables
    cfg_path, payload = strip_run
    rec_path = tmp_path / "rec.json"
    rec_path.write_text(json.dumps(dict(payload, grid=grid)))
    assert main(["audit", "--config", str(cfg_path), "--record", str(rec_path)]) == 2
    assert capsys.readouterr().err == (f"error: the record's grid ends at {grid[-1]!r}, "
                                       "after time.horizon = 1.0\n")


@pytest.mark.parametrize("line, message", [
    ("mesh.nx = 10000000",f"mesh.nx: expected an integer in [1, {MAX_CELLS}], got '10000000'"),
    ("mesh.ny = 1e6", f"mesh.ny: expected an integer in [1, {MAX_CELLS}], got '1e6'"),
    ("mesh.nx = 2.5", f"mesh.nx: expected an integer in [1, {MAX_CELLS}], got '2.5'"),
    ("mesh.ny = 60000", f"mesh.nx * mesh.ny: expected at most {MAX_CELLS} cells, got 120000"),
    ("time.knots = 1e9", f"time.knots: expected an integer in [2, {MAX_KNOTS}], got '1e9'"),
])
def test_cli_mesh_and_grid_sizes_are_checked_when_the_config_is_parsed(tmp_path, capsys, line, message):
    # each used to end in a numpy MemoryError traceback, or for 2.5 in a
    # message that named its key twice
    key = line.split(" = ")[0]
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("".join(l + "\n" for l in config_text("strip", 5).splitlines()
                                if not l.startswith(key + " ")) + line + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize("key", ["boundary.psi", "body.force", "surface.force"])
@pytest.mark.parametrize("table, message", [
    ("0: 0; 0.5: 0; 0.5: 0; 1: 0", "time knots must be strictly increasing"),
    ("0: 0; 0.6: 0; 0.5: 0; 1: 0", "time knots must be strictly increasing"),
    ("0.2: 0; 1: 0", "time knots must start at t = 0"),
])
def test_a_bad_table_names_its_key(key, table, message):
    text = "".join(line + "\n" for line in BASE.splitlines() if not line.startswith(key))
    with pytest.raises(ConfigError, match=f"^{key}: {message}$"):
        parse_config(text + f"{key} = {table}\n").build_problem()


@pytest.mark.parametrize("line, message", [
    ("time.horizon = 0", "time.horizon: expected a finite number > 0"),
    ("time.horizon = -1", "time.horizon: expected a finite number > 0"),
    ("strategy.max_edges = -1", "strategy.max_edges: expected an integer >= 0"),
    ("strategy.max_edges = 1.5", "strategy.max_edges: expected an integer"),
])
@pytest.mark.parametrize("kind", ["brute_force", "greedy"])
def test_time_and_search_inputs_fail_at_the_boundary_naming_their_key(line, message, kind):
    # on the corpus strip a horizon of 0 used to fail only inside the
    # implicit one-entry surface.force table, and a negative edge cap only
    # once a brute-force search ran (a greedy run accepted it)
    key = line.split(" = ")[0]
    text = "".join(l + "\n" for l in config_text("strip", 9).splitlines() if not l.startswith(key))
    with pytest.raises(ConfigError, match=message):
        parse_config(text + f"{line}\nstrategy.kind = {kind}\n").build_problem()


# values that are not numbers, not finite, out of range, too large for a
# mesh or a grid, subnormal, or bad tables and regions
_FUZZ_TOKENS = ["nan", "inf", "-1", "0", "1.5", "1e308", "1e-320", "10000000", "x",
                "0: 0; 0.5", "0: 0; 0: 1", "0.5: 0; 1: 0", "0: 1e308 * 1e308", "0: 0; 1: nan",
                "rect: 1, 0", "rect: nan, 0, 1, 1", "edges: 99", "edges: x", "all", "none"]


@pytest.fixture(scope="module")
def largest_corpus_mesh():
    return max(parse_config(config_text(name, 3)).build_mesh().n_triangles for name in CORPUS)


@given(st.sampled_from(sorted(CORPUS)), st.data())
@settings(max_examples=200, deadline=None)
def test_a_fuzzed_config_builds_or_raises_a_config_error(largest_corpus_mesh, name, data):
    # one or two values of a corpus text replaced: the problem builds, or
    # the config is refused with a ConfigError, never with a warning, another
    # exception or a mesh beyond the corpus sizes
    lines = [line for line in config_text(name, 3).splitlines() if " = " in line]
    for i in data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=2, unique=True)):
        lines[i] = lines[i].split(" = ")[0] + " = " + data.draw(st.sampled_from(_FUZZ_TOKENS))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            problem = parse_config("\n".join(lines)).build_problem()
        except ConfigError:
            return
    assert problem.mesh.n_triangles <= largest_corpus_mesh


def test_readme_config_section_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config format", 1)[1].split("\n## ", 1)[0]
    assert [key for key in _KEYS if f"`{key}`" not in section] == []


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


def test_cli_envelope_of_a_partial_record_is_a_usage_error(strip_run, tmp_path, capsys):
    # what a failed run writes: the first knots of the grid, marked incomplete
    cfg_path, payload = strip_run
    payload = dict(payload, complete=False, grid=payload["grid"][:3], knots=payload["knots"][:3])
    rec_path = tmp_path / "partial.json"
    rec_path.write_text(json.dumps(payload))
    for side in ("left", "right"):
        assert main(["envelope", "--config", str(cfg_path), "--record", str(rec_path),
                     "--side", side, "--out", str(tmp_path / "env.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {rec_path} is an incomplete record, which has no envelope"), err
        assert "stopped after 3 of 5 configured knots" in err
    assert not (tmp_path / "env.json").exists()


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
    *(("audit", "--max-edges", v) for v in ("-3", "-1", "1.5", "ten")),
    *(("oracle-compare", "--max-edges", v) for v in ("-1", "2.0", "")),
])
def test_cli_numeric_flag_out_of_range_is_a_usage_error(strip_run, tmp_path, capsys, command, flag,
                                                        value):
    # each must be finite and > 0; --dt 1e-300 is, but its knot count is above
    # the knot cap MAX_KNOTS.  --max-edges must be an integer >= 0: a
    # negative cap would quietly turn the audit's oracle level into the
    # one-edge one
    cfg_path, payload = strip_run
    if command == "run":
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]
    elif command == "audit":
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps(payload))
        argv = ["audit", "--config", str(cfg_path), "--record", str(rec_path)]
    else:
        argv = [command, "--config", str(cfg_path)]
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
