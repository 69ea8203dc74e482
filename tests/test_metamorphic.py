"""Two invariances of the incremental scheme that need no oracle: scaling the
loads and the toughness, and stretching time.  Each compares a corpus
instance at 9 knots with its transformed text, bit for bit."""

import pytest

from qsfrac.config import parse_config
from qsfrac.corpus import CORPUS, config_text
from qsfrac.evolution import run_evolution

LOAD_KEYS = ("boundary.psi", "body.force", "surface.force")


def _rewrite(text, key_fn):
    """``text`` with the value of each ``key = value`` line replaced by
    ``key_fn(key, value)``."""
    out = []
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        out.append(key + sep + (key_fn(key, value) if sep else value))
    return "\n".join(out) + "\n"


def _tables(value, entry_fn):
    """A ``t: expr; ...`` table with each entry replaced by ``entry_fn(t, expr)``."""
    return "; ".join(entry_fn(float(t), expr.strip()) for t, expr in (e.split(":", 1) for e in value.split(";")))


def _run(text):
    p = parse_config(text).build_problem()
    return run_evolution(p.model, p.mesh, p.grid, p.initial_crack, p.strategy, config_hash=p.config_hash)


def _totals(record):
    return [record.total_energy(i) for i in range(len(record))]


def _scaled(key, value):
    # the loads times 2 and the toughness times 4: every energy of a p = q = 2
    # problem is a quadratic form in the loads plus a term linear in the toughness
    if key in LOAD_KEYS:
        return _tables(value, lambda t, expr: f"{t!r}: 2.0 * ({expr})")
    if key == "toughness.weight":
        return repr(4.0 * float(value))
    return value


def _stretched(key, value):
    if key in LOAD_KEYS:
        return _tables(value, lambda t, expr: f"{2.0 * t!r}: {expr}")
    if key == "time.horizon":
        return repr(2.0 * float(value))
    return value


# the isotropic p = q = 2 instances: the anisotropic ones weigh their toughness
# by toughness.weight_x and _y, and the others have an exponent other than 2
QUADRATIC = [name for name in CORPUS
             if "toughness.weight = " in config_text(name, 9)
             and not any(k in config_text(name, 9) for k in ("energy.p =", "energy.q ="))]


def test_the_quadratic_isotropic_instances_are_nine():
    assert len(QUADRATIC) == 9


@pytest.mark.parametrize("name", QUADRATIC)
def test_loads_times_two_and_toughness_times_four_scale_every_total_by_four(name):
    text = config_text(name, 9)
    base, scaled = _run(text), _run(_rewrite(text, _scaled))
    assert scaled.jump_knots() == base.jump_knots()
    assert _totals(scaled) == [4.0 * e for e in _totals(base)]


@pytest.mark.parametrize("name", CORPUS)
def test_stretching_time_by_two_keeps_every_total_and_jump(name):
    text = config_text(name, 9)
    base, stretched = _run(text), _run(_rewrite(text, _stretched))
    assert list(stretched.times) == [2.0 * t for t in base.times]
    assert stretched.jump_knots() == base.jump_knots()
    assert _totals(stretched) == _totals(base)
