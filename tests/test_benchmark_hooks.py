"""What the benchmark under perfbench/ relies on in the library, read from its
own files: the functions its tracer replaces by name, and the seed-0 texts
that equal corpus instances."""

import importlib
import importlib.util
import sys
from pathlib import Path

import qsfrac._util
import qsfrac.minimize
from qsfrac.corpus import CORPUS, config_text

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name, monkeypatch):
    """perfbench/``name``.py, executed as a module of its own (the file is
    only read), registered in ``sys.modules`` for the test alone."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_function_the_benchmark_tracer_replaces_is_where_it_looks(monkeypatch):
    # the tracer looks each function up by name: the 8 of FUNCTIONS in their
    # home modules, parallel_map in qsfrac._util and solve on ElasticSolver's
    # own class dict.  Installing it replaces each one at its home, and
    # restoring it puts every original back
    tracing = _perfbench_module("tracing", monkeypatch)
    homes = [(importlib.import_module(home), attr) for home, attr, _ in tracing.FUNCTIONS]
    assert len(homes) == 8
    hooks = homes + [(qsfrac._util, "parallel_map")]
    for owner, attr in hooks:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    solver = qsfrac.minimize.ElasticSolver
    assert callable(solver.__dict__.get("solve"))
    originals = [getattr(owner, attr) for owner, attr in hooks] + [solver.solve]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        replaced = [getattr(owner, attr) for owner, attr in hooks] + [solver.solve]
    finally:
        assert tracer.restore()
    assert all(new is not old for new, old in zip(replaced, originals))
    assert [getattr(owner, attr) for owner, attr in hooks] + [solver.solve] == originals


def test_seed0_benchmark_texts_equal_the_corpus_texts_of_their_names(monkeypatch):
    # every byte-identity check that compares the corpus with the benchmark
    # texts relies on these 8 being the same configs; the only other base is
    # the notched strip, which the corpus does not hold
    workloads = _perfbench_module("workloads", monkeypatch)
    specs = [spec for workload in workloads.WORKLOADS.values() for spec in workload.specs]
    shared = [spec for spec in specs if spec.base in CORPUS]
    assert len(shared) == 8
    assert {spec.base for spec in specs} - set(CORPUS) == {"notched"}
    for spec in shared:
        assert spec.text(0) == config_text(spec.base, spec.knots), spec.key
