"""The benchmark's tracer (``bench/spans.py``) wraps nvmix's layers by the
names its modules bind; each of those names must exist."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
MODULES = ("mixtures", "linalg", "model", "rqmc", "distribution", "density", "sampling")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_unpatches():
    spans = load_spans()
    nv = SimpleNamespace(**{n: importlib.import_module("nvmix." + n) for n in MODULES})
    before = {n: dict(vars(getattr(nv, n))) for n in MODULES}
    before_call = nv.distribution.BoxIntegrand.__call__
    tracer = spans.Tracer()
    try:
        spans.install(tracer, nv)
        patched = [(owner, attr) for owner, attr, _ in tracer._patches]
        assert all(hasattr(getattr(o, a), "__wrapped__") for o, a in patched)
    finally:
        tracer.unpatch()
    assert {n: dict(vars(getattr(nv, n))) for n in MODULES} == before
    assert nv.distribution.BoxIntegrand.__call__ is before_call
