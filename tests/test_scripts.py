"""The measurement scripts under ``scripts/`` run at tiny sizes.

They reach into names of ``nvmix.density`` (``_run``, the one RQMC loop,
which keeps plain running means, under a running scale for rows of logs,
and returns each row's estimate, error and batch count;
``_nested_trapezoid``, ``_bracket_z``, ``_table_budget``, ``_bisect``,
``_newton``) and of ``nvmix.mixtures`` (``quantile``,
``_QuantileTable`` and its ``intervals`` and ``bound``) and time
``nvmix.distribution.reorder`` by its name, so a change that renames or
reshapes one of those must show up here rather than the next time
someone measures.
"""

import runpy
from pathlib import Path

import numpy as np

from nvmix import blackbox, distribution
from nvmix.density import log_integral_batch

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_main(name, *args, **kwargs):
    runpy.run_path(str(SCRIPTS / name))["main"](*args, **kwargs)


def test_adaptive_cost_runs(capsys):
    run_main("adaptive_cost.py", 1, sizes=(20,), n_points=40, jump_seeds=(1,),
             jump_tols=(1e-3,))
    out = capsys.readouterr().out
    assert "N =    20:" in out and "calibration, 1 x 40 points" in out
    assert "calibration, 1 x 40 points: unconverged 0, converged but missing tol 0" in out
    # IG(4) has a table that the search reads, so the trapezoid rule
    # integrates every row: each meets tol 1e-3 after 31 or 63 nodes,
    # three values (15, 31 and 63 nodes), each one row block.  The RQMC
    # integrates none.
    assert ("  rule  : values 3.0 per call, row blocks 3.0 per call, row evaluations 1196.0"
            " per call (1 calls); nodes per row: 31: 2, 63: 18\n") in out
    assert ("  rule  : values 3.0 per call, row blocks 3.0 per call, row evaluations 1432.0"
            " per call (1 calls); nodes per row: 31: 34, 63: 6\n") in out
    assert out.count("  rqmc  : points per row: none\n") == 2
    assert out.count("search: quantile calls") == 2
    # The table's line: its nodes' quantile work, build time, node count
    # and bound; the search and the rule then read it, and no row has
    # D2 = 0.
    assert out.count("table : quantile calls    1, u-values      1025, build ") == 2
    assert out.count(" ms, 513 nodes, bound 1.3e-07") == 2
    assert out.count("search: quantile calls    0,") == 2
    assert out.count("rule  : quantile calls    0,") == 2
    assert out.count("rqmc  : quantile calls    0,") == 2
    assert out.count("other : quantile calls    0,") == 2
    # The search reads the table: Newton's method on g's slope from the
    # scan's best node, then on both ends of the region at once, until
    # every row's step is below _EPS_BISEC.  The 20 rows at D2 in [0.5, 2]
    # take 7 steps, the 40 calibration rows, at D2 from near 0 to 1e8, 8.
    assert "search: steps 7.0 per call, row evaluations 167.0 per call (1 calls)" in out
    assert "search: steps 8.0 per call, row evaluations 337.0 per call (1 calls)" in out
    # The jump sweep: d = 3 and 10, tol 1e-3 absolute and relative, seed
    # 1, 12 rows each, all on the RQMC.
    assert ("jump sweep, 48 rows: converged 48, converged but missing tol 0, largest"
            " |error| / tol of a converged row 0.834, points per randomization 106192\n") in out


def test_adaptive_cost_counts_the_rqmc_points():
    # A quantile that jumps has no table that the search reads, so the
    # RQMC integrates its rows; the RQMC phase reads each row's points
    # from the batch counts that _run returns with its estimates and
    # errors.
    script = runpy.run_path(str(SCRIPTS / "adaptive_cost.py"))
    jump = blackbox(lambda u, nu: np.where(u < 0.3, 1.0, 4.0), 0)
    res, counts = script["_phase_counts"](
        lambda: log_integral_batch([0.1, 20.0], 1.5, 0.0, jump, [], seed=1))
    assert counts["rqmc_points"] == [r.n_per_randomization for r in res]
    assert counts["rule_nodes"] == [] and len(set(counts["rqmc_points"])) == 2


def test_paper_claims_runs(capsys):
    reorder = distribution.reorder
    run_main("paper_claims.py", d=20)
    out = capsys.readouterr().out
    assert "d = 20, b ~ U(0, 3), a = -inf, tol 0.001, seed 1\n" in out
    assert "estimate 0.255478, error 0.00058, batches 1, converged True\n" in out
    assert "under 5 s and converged: holds\n" in out
    assert distribution.reorder is reorder
