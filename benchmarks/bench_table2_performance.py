"""Table 2 -- GPS performance breakdown.

Paper: with a 1 % seed and /16 step size, GPS's bottleneck is bandwidth (the
seed scan dominates 12.3 days of scanning); the prediction computation takes
~9 days on a single core but only 13 minutes on BigQuery; data transfer adds
~9 hours.  The reproduction measures the computation phases directly (single
core versus the engine runtime's thread executor, resident load included)
and models scan/transfer wall
time with the same cost model (probes x packet size / line rate).
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
        workers=4,
    )

    print()
    print(format_table(
        ("phase", "bandwidth (100% scans)", "compute (1 core, s)",
         "compute (parallel, s)", "modelled wall time (s)", "data (bytes)"),
        [
            (row.name,
             f"{row.full_scans:.2f}" if row.full_scans else "-",
             f"{row.compute_seconds_single_core:.3f}"
             if row.compute_seconds_single_core else "-",
             f"{row.compute_seconds_parallel:.3f}"
             if row.compute_seconds_parallel is not None else "-",
             f"{row.wall_seconds:.2f}",
             row.data_bytes or "-")
            for row in breakdown.rows
        ],
        title="Table 2 (reproduced): GPS performance breakdown",
    ))
    print(f"Total bandwidth: {breakdown.total_full_scans():.1f} 100% scans; "
          f"total modelled wall time: {breakdown.total_wall_seconds():.0f}s; "
          f"total single-core compute: "
          f"{breakdown.total_compute_seconds_single_core():.2f}s; "
          f"parallel speedup: {breakdown.speedup()}")
    print("(Paper: seed scan dominates total wall time; computation is 9 days "
          "on one core vs 13 minutes on BigQuery.  At this reproduction's data "
          "sizes the parallel engine's overhead can exceed its benefit; the "
          "structural claims preserved are the phase decomposition and the "
          "seed-scan-dominated bandwidth budget.)")

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
