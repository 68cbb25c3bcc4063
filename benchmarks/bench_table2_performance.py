"""Table 2 -- GPS performance breakdown.

Paper: with a 1 % seed and /16 step size, GPS's bottleneck is bandwidth (the
seed scan dominates 12.3 days of scanning); the prediction computation takes
~9 days on a single core but only 13 minutes on BigQuery; data transfer adds
~9 hours.  The reproduction runs GPS once on one dataset split, on the
engine runtime's single-core ``serial`` executor, and reads each computation
row off the run's own phase spans (PFS: feature extraction, resident load,
model and priors builds; PRS: index build and prediction).  It reports that
one measured compute column and prints the paper's single-core and BigQuery
figures beside it; no offline run measures the paper's parallel column.
Probe counts come from the run's bandwidth ledger, and scan/transfer wall
time is modelled with the same cost model as the paper (probes x packet size
/ line rate).
"""

from __future__ import annotations

from repro.analysis import format_table, run_performance_breakdown


def test_table2_performance_breakdown(run_once, universe, lzr_dataset):
    # The paper's Table 2 configuration predicts services across *all* ports
    # from a 1 % seed, which is why the seed scan dominates the bandwidth
    # budget; the LZR-like dataset is the all-port ground truth here.
    breakdown = run_once(
        run_performance_breakdown, universe, lzr_dataset,
        seed_fraction=0.01, step_size=16,
    )

    print()
    print(format_table(
        ("phase", "bandwidth (100% scans)", "compute (1 core, s)",
         "modelled wall time (s)", "data (bytes)"),
        [
            (row.name,
             f"{row.full_scans:.2f}" if row.full_scans else "-",
             f"{row.compute_seconds_single_core:.3f}"
             if row.compute_seconds_single_core else "-",
             f"{row.wall_seconds:.2f}",
             row.data_bytes or "-")
            for row in breakdown.rows
        ],
        title="Table 2 (reproduced): GPS performance breakdown",
    ))
    print(f"Total bandwidth: {breakdown.total_full_scans():.1f} 100% scans; "
          f"total modelled wall time: {breakdown.total_wall_seconds():.0f}s")
    print(f"Computation: paper 9 days on one core, 13 minutes on BigQuery; "
          f"reproduced {breakdown.total_compute_seconds_single_core():.2f}s "
          f"on one core (engine serial executor).")
    print("(Paper: seed scan dominates total wall time.  The structural claims "
          "preserved are the phase decomposition and the seed-scan-dominated "
          "bandwidth budget.)")

    names = [row.name for row in breakdown.rows]
    assert any("seed scan" in name for name in names)
    assert any(name.startswith("Predicting first service") for name in names)
    assert any(name.startswith("Predicting remaining") for name in names)
    assert any(name == "PFS scan" for name in names) and any(name == "PRS scan"
                                                             for name in names)
    # The seed scan dominates GPS's bandwidth, as in the paper.
    seed_row = next(row for row in breakdown.rows if "seed scan" in row.name)
    assert seed_row.full_scans > 0.5 * breakdown.total_full_scans()
    # Scanning wall time dominates computation wall time.
    scan_wall = sum(row.wall_seconds for row in breakdown.rows if "scan" in row.name)
    compute_wall = sum(row.wall_seconds for row in breakdown.rows
                       if row.compute_seconds_single_core)
    assert scan_wall > compute_wall
