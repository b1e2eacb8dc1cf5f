"""Tiny-size smoke test of every workload, untraced and traced, and of the
compare verdicts.  Run from the repository root:

    python3 -m pytest bench/tests -q

It checks metric names and units against BENCHMARK.json and that outputs
pass the benchmark's gates; it makes no timing assertions.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import compare  # noqa: E402
import harness  # noqa: E402
from workloads import DensityTail, Prob, SimScore  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = {
    "prob": lambda: Prob(1, dims=(2, 3), ranks=(2,), pool=2),
    "density-tail": lambda: DensityTail(1, n_points=12),
    "sim-score": lambda: SimScore(1, n_draws=2000, n_points=12),
}


def test_workload_names_match_benchmark_json():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_reports_every_metric(name, trace):
    result = harness.run(TINY[name](), seconds=0.0, trace=trace)
    assert result["correct"], result["wrong"]
    assert result["attempted"] >= 1
    key, metrics = ("per_layer", harness.PER_LAYER) if trace else \
        ("end_to_end", harness.END_TO_END)
    expected = {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]}
    assert {n: (u, b) for n, u, b in metrics} == expected
    assert set(result[key]) == set(expected)


def test_compare_verdicts():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    assert compare.label(parent, [0.8 * v for v in parent], "lower", 0.1) == "better"
    assert compare.label(parent, [1.2 * v for v in parent], "lower", 0.1) == "worse"
    assert compare.label(parent, [1.2 * v for v in parent], "higher", 0.1) == "better"
    assert compare.label(parent, list(reversed(parent)), "lower", 0.1) == "unchanged"
    noisy = [1.0, 1.5] * 5
    assert compare.label(noisy, list(reversed(noisy)), "lower", 0.1) == "unresolved"
    assert compare.label(parent, [0.8 * v for v in parent], "lower", 0.1,
                         parent_failed=0, change_failed=1) == "unchanged"
