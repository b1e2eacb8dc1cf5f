"""The measurement scripts under ``scripts/`` run at tiny sizes.

They reach into names of ``nvmix.density`` (``_nested_trapezoid``,
``_bracket_z``, ``_table_budget``, ``_newton``) and of ``nvmix.mixtures``
(``quantile``, ``_WReader.pieces``, ``_QuantileTable`` and its
``intervals`` and ``bound``) and time
``nvmix.distribution.reorder`` by its name, so a change that renames or
reshapes one of those must show up here rather than the next time
someone measures.
"""

import runpy
from pathlib import Path

import numpy as np

from nvmix import blackbox, distribution
from nvmix.density import log_integral_batch
from nvmix.mixtures import _WReader

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_main(name, *args, **kwargs):
    runpy.run_path(str(SCRIPTS / name))["main"](*args, **kwargs)


def test_adaptive_cost_runs(capsys):
    run_main("adaptive_cost.py", 1, sizes=(20,), n_points=40, tols=(1e-3,),
             black_box_tols=(1e-3,))
    out = capsys.readouterr().out
    assert "N =    20:" in out and "calibration, 1 x 40 points" in out
    assert "calibration, 1 x 40 points: unconverged 0, converged but missing tol 0" in out
    # IG(4) has a table that the search reads, so the trapezoid rule
    # integrates every row: each meets tol 1e-3 after 31 or 63 nodes,
    # three values (15, 31 and 63 nodes), each one row block.  At D2 in
    # [0.5, 2] the 16-interval step is wider than g's peak, so every row
    # takes 63.
    assert ("  rule  : values 3.0 per call, row blocks 3.0 per call, row evaluations 1260.0"
            " per call (1 calls); nodes per row: 63: 20\n") in out
    assert ("  rule  : values 3.0 per call, row blocks 3.0 per call, row evaluations 1912.0"
            " per call (1 calls); nodes per row: 31: 19, 63: 21\n") in out
    assert out.count("search: quantile calls") == 2
    # The table's line: its nodes' quantile work, build time, node count
    # and bound; the search and the rule then read it, and no row has
    # D2 = 0.
    assert out.count("table : quantile calls    1, u-values      1025, build ") == 2
    assert out.count(" ms, 513 nodes, bound 1.3e-07") == 2
    assert out.count("search: quantile calls    0,") == 2
    assert out.count("rule  : quantile calls    0,") == 2
    assert out.count("other : quantile calls    0,") == 2
    # The search reads the table: Newton's method on g's slope from the
    # scan's best node, then on both ends of the region at once, until
    # every row's step is below _EPS_BISEC.  The 20 rows at D2 in [0.5, 2]
    # take 7 steps, the 40 calibration rows, at D2 from near 0 to 1e8, 8.
    assert "search: steps 7.0 per call, row evaluations 167.0 per call (1 calls)" in out
    assert "search: steps 8.0 per call, row evaluations 337.0 per call (1 calls)" in out
    # The sweeps of W without a table of the whole z range, at tol 1e-3:
    # no row that reports converged misses its bound.  Every row of the
    # jump and the staircase converges; under the atom at 0 the 4 rows at
    # D2 = 0 raise, and under it and the kink the 4 rows at D2 = 1e10 have
    # g above the level where h still rises at the end of the z range.  Of
    # the black boxes' 11 rows, the one at D2 = 1e10 (and under Pareto(2.5)
    # the one at D2 = 1e8) peaks beyond u's doubles.
    lines = [line for line in out.splitlines() if " tol 0.001: rows " in line]
    assert len(lines) == 6
    for line, name, rows, converged in zip(
            lines, ["jump", "staircase", "atom at 0", "kink", "IG(4)", "Pareto(2.5)"],
            [48, 48, 48, 48, 11, 11], [48, 48, 40, 44, 10, 9]):
        assert line.startswith(f"  {name:11s} tol 0.001: rows {rows}, converged {converged}, "
                               "converged but missing tol 0,")


def test_adaptive_cost_counts_the_rule_nodes():
    # A quantile that jumps is split at the jump, and the rule integrates
    # each row on both pieces; the rule's phase reads the nodes of each
    # row and piece from those that _nested_trapezoid returns, and a row's
    # nodes are the sum over its pieces.
    script = runpy.run_path(str(SCRIPTS / "adaptive_cost.py"))
    jump = blackbox(lambda u, nu: np.where(u < 0.3, 1.0, 4.0), 0)
    res, counts = script["_phase_counts"](
        lambda: log_integral_batch([0.1, 20.0], 1.5, 0.0, _WReader(jump, [])))
    nodes = counts["rule_nodes"]
    assert len(nodes) == 4 and counts["rules"] == 1
    assert [nodes[0] + nodes[2], nodes[1] + nodes[3]] == [r.n_per_randomization for r in res]


def test_paper_claims_runs(capsys):
    reorder = distribution.reorder
    run_main("paper_claims.py", d=20)
    out = capsys.readouterr().out
    assert "d = 20, b ~ U(0, 3), a = -inf, tol 0.001, seed 1\n" in out
    assert "estimate 0.255478, error 0.00058, batches 1, converged True\n" in out
    assert "under 5 s and converged: holds\n" in out
    assert distribution.reorder is reorder
