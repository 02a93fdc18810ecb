"""The benchmark's per-layer tracer (`bench/tracer.py`) wraps package
functions by name and reruns `evaluate` and `witness` with use_cache=False.
A name or parameter that goes missing turns its traced metrics into null, so
these tests read the tracer file as it stands and check the package against
it."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from multiteam import semantics
from multiteam.reductions import CnfFormula, encode_3sat

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_function_of_the_package():
    tracer = load_tracer()
    for module, name, _, _ in tracer.Tracer.TARGETS:
        fn = getattr(importlib.import_module(f"multiteam.{module}"), name, None)
        assert callable(fn), f"multiteam.{module}.{name}"
    for name in ("evaluate", "witness"):
        assert "use_cache" in inspect.signature(getattr(semantics, name)).parameters, name
    assert tracer.cache_off_bindings() is not None


def test_a_traced_check_reports_no_absent_metric():
    tracer = load_tracer()
    for module, _, _, _ in tracer.Tracer.TARGETS:
        importlib.import_module(f"multiteam.{module}")
    inst = encode_3sat(CnfFormula(((("x1", 0), ("x2", 1), ("x3", 0)),
                                   (("x1", 1), ("x2", 0), ("x3", 0)))))
    traced = tracer.Tracer()
    traced.install()
    try:
        assert semantics.evaluate(inst.structure, inst.team, inst.formula)
        assert semantics.witness(inst.structure, inst.team, inst.formula).holds
    finally:
        traced.remove()
    metrics = traced.metrics()
    assert [name for name, (value, _) in metrics.items() if value is None] == []
    assert metrics["semantics.evaluate.calls"][0] == metrics["semantics.witness.calls"][0] == 1
