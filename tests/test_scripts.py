"""The measurement scripts under ``scripts/`` run at tiny sizes.

They reach into names of ``nvmix.density`` (``_run``, ``_bracket_z``,
``_bisect``, ``_crude_log_means``, ``_QuantileTable``,
``_TABLE_INTERVALS``, ``_PILOT_BATCHES``, ``RqmcAccumulator``,
``_peak_z``, ``_log_g``, ``_log_h_of_w``),
so a change that renames or reshapes one of those must show up here
rather than the next time someone measures.
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
    assert out.count("crude pass: values") == 2
    # The crude pass's first batch sends every row of the all-adaptive
    # call on, 20 rows of 1920 values, and runs no other batch.
    assert ("crude pass: values 38400, rows settled / sent on per batch: "
            "1: 0/20, 2: 0/0, 3: 0/0, 4: 0/0") in out
    assert out.count("search: quantile calls") == 2
    # The table's line: its nodes' quantile work, build time, node count
    # and bound; the search and RQMC then read it.
    assert out.count("table : quantile calls    1, u-values      1025, build ") == 2
    assert out.count(" ms, 513 nodes, bound 1.3e-07") == 2
    assert out.count("search: quantile calls    0,") == 2
    assert out.count("rqmc  : quantile calls    0,") == 2
    # One slope bisection halves the IG z range, 1417 wide, 31 times for
    # every row, and the level bisection halves the 708 from g's maximum
    # near z = 0 to each end 30 times: 61 steps, 20 x 31 + 40 x 30 row
    # evaluations for the 20-row call.
    assert out.count("search: bisection steps 61.0 per call, ") == 2
    assert "search: bisection steps 61.0 per call, row evaluations 1820.0 per call (1 calls)" in out


def test_crude_bias_runs(capsys):
    run_main("crude_bias.py", 2)
    out = capsys.readouterr().out
    assert out.count("crude error over 2 seeds") == 2
