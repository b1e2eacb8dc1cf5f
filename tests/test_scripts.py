"""The measurement scripts under ``scripts/`` run at tiny sizes.

They reach into names of ``nvmix.density`` (``quantile``, ``_run``,
``_bracket_z``, ``_table_budget``, ``_bisect``, ``_QuantileTable`` and
its ``intervals`` and ``bound``), so a change that renames or reshapes
one of those must show up here rather than the next time someone
measures.
"""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_main(name, *args, **kwargs):
    runpy.run_path(str(SCRIPTS / name))["main"](*args, **kwargs)


def test_adaptive_cost_runs(capsys):
    run_main("adaptive_cost.py", 1, sizes=(20,), n_points=40)
    out = capsys.readouterr().out
    assert "N =    20:" in out and "calibration, 1 x 40 points" in out
    assert "calibration, 1 x 40 points: unconverged 0, converged but missing tol 0" in out
    # Every row of both parts meets tol 1e-3 after the RQMC's first 16
    # points.
    assert "  points per row: 16: 20\n" in out and "  points per row: 16: 40\n" in out
    assert out.count("search: quantile calls") == 2
    # The table's line: its nodes' quantile work, build time, node count
    # and bound; the search and RQMC then read it, and no row has D2 = 0.
    assert out.count("table : quantile calls    1, u-values      1025, build ") == 2
    assert out.count(" ms, 513 nodes, bound 1.3e-07") == 2
    assert out.count("search: quantile calls    0,") == 2
    assert out.count("rqmc  : quantile calls    0,") == 2
    assert out.count("other : quantile calls    0,") == 2
    # One slope bisection halves the IG z range, 1417 wide, 31 times for
    # every row, and the level bisection halves the 708 from g's maximum
    # near z = 0 to each end 30 times: 61 steps, 20 x 31 + 40 x 30 row
    # evaluations for the 20-row call.
    assert out.count("search: bisection steps 61.0 per call, ") == 2
    assert "search: bisection steps 61.0 per call, row evaluations 1820.0 per call (1 calls)" in out
