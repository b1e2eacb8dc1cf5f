"""The public surface stays small: ``nvmix`` exports the entry points, and
every other module-level name in ``src/nvmix`` is private, except the ones
listed below."""

import ast
import importlib
from pathlib import Path

import pytest

import nvmix

PUBLIC = {
    "NvmModel", "constant", "inverse_gamma", "pareto", "inverse_burr", "blackbox",
    "RqmcConfig", "RqmcResult", "IntegrandNaNError", "InvalidMixtureError",
    "prob", "log_density_batch", "closed_log_density", "rnvmix",
}
# Machinery that keeps its spelling because bench/spans.py and
# bench/workloads.py bind these names in nvmix's modules; they go private or
# go away once the tracer stops wrapping them (ROADMAP items 5 and 8).  The
# RETIRED names are one stub in nvmix.density that raises: the tracer wraps
# them, and nothing calls them.
RETIRED = ("peak", "region_bounds", "rqmc_log_estimate")
BENCHMARK_BOUND = {
    "quantile", "cholesky", "mahalanobis_sq", "reorder", "BoxIntegrand", "rqmc_estimate",
    *RETIRED, "log_integral_batch", "prob_singular",
}
MODULES = ("density", "distribution", "linalg", "mixtures", "model", "rqmc", "sampling")
SRC = Path(nvmix.__file__).parent


def test_package_exports_exactly_the_entry_points():
    assert len(nvmix.__all__) == len(PUBLIC) and set(nvmix.__all__) == PUBLIC
    namespace = {}
    exec("from nvmix import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_each_export_is_its_submodules_object():
    owners = {name: mod for mod in MODULES
              for name in importlib.import_module("nvmix." + mod).__all__}
    assert set(owners) == PUBLIC
    for name, mod in owners.items():
        assert getattr(nvmix, name) is getattr(importlib.import_module("nvmix." + mod), name)


def _module_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_no_other_public_module_level_name():
    stray = {}
    for path in sorted(SRC.glob("*.py")):
        names = _module_level_names(ast.parse(path.read_text()))
        public = {n for n in names if not n.startswith("_")}
        if public - PUBLIC - BENCHMARK_BOUND:
            stray[path.name] = sorted(public - PUBLIC - BENCHMARK_BOUND)
    assert stray == {}


def test_retired_names_are_one_object():
    density = importlib.import_module("nvmix.density")
    assert len({id(getattr(density, name)) for name in RETIRED}) == 1


def test_the_retired_stub_raises():
    stub = importlib.import_module("nvmix.density").peak
    with pytest.raises(NotImplementedError, match="log_integral_batch"):
        stub(1.0, 5.0, 0.0)


def test_no_module_calls_the_retired_stub():
    stub = importlib.import_module("nvmix.density").peak
    called = {stub.__name__, *RETIRED}
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in called:
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
