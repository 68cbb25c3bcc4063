"""Command-line interface for the GPS reproduction.

The CLI wraps the most common workflows so they can be run without writing
Python: a quickstart end-to-end GPS run, the Figure-2-style coverage
experiment on either ground-truth dataset, the GPS-versus-XGBoost comparison,
and the churn measurement.  Install the package and run::

    gps-repro quickstart
    gps-repro coverage --dataset lzr --scale medium
    gps-repro compare-xgboost --ports 8
    gps-repro churn --days 10
    gps-repro serve --port 8080
    gps-repro snapshot save --out snap/
    gps-repro snapshot load snap/

Every command is deterministic for a given ``--seed``.

Snapshots implement the paper's Section 6.5 deployment note -- "if a seed
scan is already available, GPS can forego collecting the initial seed scan,
reducing the overall runtime by 94%": ``--save-snapshot`` persists a run's
encoded seed columns and Table 2 artifacts (model, priors plan, prediction
index) to a versioned on-disk directory, ``--load-snapshot`` reuses the
saved seed without paying its scan cost, and ``serve --snapshot-dir``
warm-restarts the serving layer from the saved artifacts without
rebuilding anything.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.coverage import coverage_summary_rows, run_coverage_experiment
from repro.analysis.comparison import run_xgboost_comparison
from repro.analysis.limits import run_churn_measurement
from repro.analysis.reporting import format_ratio, format_table
from repro.analysis.scenarios import (
    MEDIUM_SCALE,
    SMALL_SCALE,
    make_censys_dataset,
    make_lzr_dataset,
    make_universe,
)
from repro.core.config import GPSConfig
from repro.core.gps import GPS
from repro.core.metrics import fraction_of_services, normalized_fraction_of_services
from repro.engine.runtime import RUNTIME_EXECUTORS
from repro.internet.churn import ChurnConfig
from repro.scanner.pipeline import ScanPipeline
from repro.telemetry import Telemetry

_SCALES = {"small": SMALL_SCALE, "medium": MEDIUM_SCALE}


def _scale(name: str):
    return _SCALES[name]


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", choices=sorted(_SCALES), default="small",
                        help="experiment scale (universe size)")
    parser.add_argument("--seed", type=int, default=7,
                        help="RNG seed for universe generation")


def _add_executor_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--executor", choices=RUNTIME_EXECUTORS,
                        default=None,
                        help="run model/priors/prediction-index builds on the "
                             "in-process engine runtime (results are "
                             "identical to the reference builds)")


def _trace_telemetry(args: argparse.Namespace) -> Optional[Telemetry]:
    """A live :class:`Telemetry` when ``--trace-out`` asked for one."""
    if getattr(args, "trace_out", None):
        return Telemetry()
    return None


def _write_trace(telemetry: Optional[Telemetry],
                 args: argparse.Namespace) -> None:
    """Export the collected span tree to the ``--trace-out`` file."""
    if telemetry is None:
        return
    telemetry.write_trace(args.trace_out)
    print(f"trace written to {args.trace_out} "
          f"({telemetry.tracer.span_count()} spans)", file=sys.stderr)


def _save_run_snapshot(directory, result, universe, status_encoder=None,
                       telemetry=None) -> dict:
    """Persist a run's encoded seed columns + Table 2 artifacts to ``directory``.

    The seed observations re-encode into columnar form (through
    ``status_encoder`` when the caller's pipeline is available, so status
    ids match live batches) and the host-feature relation is re-extracted so
    the snapshot carries everything a warm restart needs.
    """
    from repro.core.features import extract_host_features_columns
    from repro.engine.snapshot import save_snapshot
    from repro.scanner.records import ObservationBatch

    config = result.config
    batch = ObservationBatch.from_observations(result.seed_observations,
                                               statuses=status_encoder)
    host_features = extract_host_features_columns(
        batch, universe.topology.asn_db, config.feature_config)
    manifest = save_snapshot(directory, observations=batch,
                             host_features=host_features, model=result.model,
                             priors_plan=result.priors_plan,
                             index=result.feature_index, telemetry=telemetry)
    print(f"snapshot saved to {directory} "
          f"({len(manifest['sections'])} sections)", file=sys.stderr)
    return manifest


def _load_snapshot_seed(directory):
    """Rebuild a seed-scan result from a snapshot's encoded seed columns.

    The reloaded seed carries the columnar batch, whose object rows build
    on first read, so every GPS ingest path (engine columnar, reference
    object) consumes it exactly like a freshly collected seed -- except no
    probes are charged (the Section 6.5 seed-reuse saving).
    """
    from repro.engine.snapshot import open_snapshot
    from repro.scanner.pipeline import SeedScanResult

    snapshot = open_snapshot(directory)
    batch = snapshot.observation_batch()
    return SeedScanResult(sampled_ips=sorted(set(batch.ips)),
                          removed_pseudo_services=0,
                          batch=batch)


def _add_snapshot_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--save-snapshot", default=None, metavar="DIR",
                        help="after the run, persist the encoded seed "
                             "columns and the model/priors/index artifacts "
                             "as a versioned snapshot directory")
    parser.add_argument("--load-snapshot", default=None, metavar="DIR",
                        help="reuse the seed observations saved in this "
                             "snapshot instead of collecting a seed scan "
                             "(no seed bandwidth is charged -- the paper's "
                             "Section 6.5 deployment mode)")


def cmd_quickstart(args: argparse.Namespace) -> int:
    """Run GPS end to end on a fresh synthetic universe and print a summary."""
    universe = make_universe(_scale(args.scale), seed=args.seed)
    telemetry = _trace_telemetry(args)
    pipeline = ScanPipeline(universe, telemetry=telemetry)
    engine_kwargs = {}
    if args.executor is not None:
        engine_kwargs = {"use_engine": True, "executor": args.executor}
    config = GPSConfig(seed_fraction=args.seed_fraction,
                       step_size=args.step_size, **engine_kwargs)
    seed = None
    if args.load_snapshot:
        seed = _load_snapshot_seed(args.load_snapshot)
        print(f"reusing {len(seed.observations)} seed observations from "
              f"snapshot {args.load_snapshot} (no seed scan charged)",
              file=sys.stderr)
    with GPS(pipeline, config, telemetry=telemetry) as gps:
        result = gps.run(seed=seed, seed_cost_probes=0 if seed else None)
        if args.save_snapshot:
            _save_run_snapshot(args.save_snapshot, result, universe,
                               status_encoder=pipeline.status_encoder,
                               telemetry=telemetry)
    _write_trace(telemetry, args)
    truth = set(universe.real_service_pairs())
    found = result.discovered_pairs()
    print(format_table(
        ("quantity", "value"),
        [
            ("hosts in universe", len(universe.hosts)),
            ("services in universe", len(truth)),
            ("seed observations", len(result.seed_observations)),
            ("priors scan entries", len(result.priors_plan)),
            ("predictions issued", len(result.predictions)),
            ("fraction of services found",
             f"{fraction_of_services(found, truth):.1%}"),
            ("normalized services found",
             f"{normalized_fraction_of_services(found, truth):.1%}"),
            ("bandwidth (100% scans)", f"{pipeline.ledger.full_scans():.1f}"),
            ("bandwidth of exhaustive all-port scanning", 65535),
        ],
        title="GPS quickstart",
    ))
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    """Run the Figure 2-style coverage experiment and print the summary rows."""
    scale = _scale(args.scale)
    universe = make_universe(scale, seed=args.seed)
    telemetry = _trace_telemetry(args)
    if args.dataset == "censys":
        dataset = make_censys_dataset(universe, scale)
        seed_fraction = args.seed_fraction or scale.default_seed_fraction
        seed_cost_mode = "scan"
    else:
        dataset = make_lzr_dataset(universe, scale)
        seed_fraction = args.seed_fraction or dataset.sample_fraction / 2
        seed_cost_mode = "available"
    seed_override = None
    if args.load_snapshot:
        seed_override = _load_snapshot_seed(args.load_snapshot)
        seed_cost_mode = "available"  # reused seeds charge nothing (Sec. 6.5)
        print(f"reusing {len(seed_override.observations)} seed observations "
              f"from snapshot {args.load_snapshot}", file=sys.stderr)
    experiment = run_coverage_experiment(universe, dataset, seed_fraction,
                                         step_size=args.step_size,
                                         seed_cost_mode=seed_cost_mode,
                                         executor=args.executor,
                                         telemetry=telemetry,
                                         seed_override=seed_override)
    if args.save_snapshot:
        _save_run_snapshot(args.save_snapshot, experiment.run, universe,
                           telemetry=telemetry)
    _write_trace(telemetry, args)
    print(format_table(
        ("coverage target", "GPS bandwidth (100% scans)", "savings vs optimal order"),
        coverage_summary_rows(experiment, targets=(0.5, 0.7, 0.8, 0.9)),
        title=f"Coverage on the {dataset.name} dataset "
              f"({seed_fraction:.1%} seed, /{args.step_size} step)",
    ))
    print(f"final fraction of services:  {experiment.final_fraction():.1%}")
    print(f"final normalized services:   {experiment.final_normalized_fraction():.1%}")
    print(f"total bandwidth:             "
          f"{experiment.gps_points[-1].full_scans:.1f} 100% scans")
    return 0


def cmd_compare_xgboost(args: argparse.Namespace) -> int:
    """Compare GPS against the XGBoost-style sequential scanner (Figure 4)."""
    scale = _scale(args.scale)
    universe = make_universe(scale, seed=args.seed)
    dataset = make_censys_dataset(universe, scale)
    ports = dataset.port_registry().top_ports(args.ports)
    comparison = run_xgboost_comparison(universe, dataset, ports=ports,
                                        seed_fraction=args.seed_fraction,
                                        step_size=args.step_size)
    print(format_table(
        ("port", "GPS prior bw", "XGB prior bw", "GPS port bw", "XGB port bw"),
        [(entry.port,
          f"{entry.gps_prior_full_scans:.2f}", f"{entry.xgb_prior_full_scans:.2f}",
          f"{entry.gps_port_full_scans:.4f}", f"{entry.xgb_port_full_scans:.4f}")
         for entry in comparison.ports],
        title="GPS vs XGBoost-style scanner (bandwidth in 100% scans)",
    ))
    print(f"average prior-bandwidth ratio (XGB/GPS): "
          f"{format_ratio(comparison.average_prior_savings())}")
    print(f"ports where GPS's target-port scan is cheaper: "
          f"{comparison.ports_where_gps_cheaper()} of {len(comparison.ports)}")
    return 0


def cmd_churn(args: argparse.Namespace) -> int:
    """Measure service churn between two scans (Section 3)."""
    universe = make_universe(_scale(args.scale), seed=args.seed)
    measurement = run_churn_measurement(universe, ChurnConfig(days=args.days,
                                                              seed=args.seed))
    print(format_table(
        ("quantity", "value"),
        [
            ("days between scans", measurement.days),
            ("services that disappeared", f"{measurement.service_loss:.1%}"),
            ("normalized services that disappeared",
             f"{measurement.normalized_service_loss:.1%}"),
        ],
        title="Churn measurement",
    ))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve GPS predictions over HTTP on a warm engine runtime.

    Builds one model named ``default`` from a synthetic universe's seed scan
    (or loads it from a snapshot) and answers lookups until interrupted.
    Imports live here so the asyncio serving stack is only paid for by this
    command.
    """
    from repro.serving.http import ServiceHost, serve_forever
    from repro.serving.service import ServingConfig

    universe = make_universe(_scale(args.scale), seed=args.seed)
    pipeline = ScanPipeline(universe)

    executor = args.executor or "serial"
    config = ServingConfig(executor=executor,
                           telemetry_enabled=not args.no_telemetry)
    host = ServiceHost(config)
    gps_config = GPSConfig(seed_fraction=args.seed_fraction,
                           use_engine=True, executor=executor)
    if args.snapshot_dir:
        info = host.call(host.service.load_model_from_snapshot(
            "default", pipeline, args.snapshot_dir, gps_config))
        print(f"model 'default' warm-restarted from snapshot "
              f"{args.snapshot_dir} (format v{info.snapshot_version}): "
              f"{info.seed_services} seed services, "
              f"{info.index_entries} index entries, "
              f"loaded in {info.build_seconds:.2f}s")
    else:
        seed = pipeline.seed_scan(args.seed_fraction, seed=args.seed)
        info = host.call(host.service.load_model("default", pipeline, seed,
                                                 gps_config))
        print(f"model 'default' ready: {info.seed_services} seed services, "
              f"{info.index_entries} index entries, "
              f"built in {info.build_seconds:.2f}s")
    print(f"serving on http://{args.address}:{args.port} "
          "(GET /healthz /models /stats /metrics /lookup, "
          "POST /predict /scan); Ctrl-C to drain and stop")
    serve_forever(host, args.address, args.port)
    return 0


def cmd_snapshot_save(args: argparse.Namespace) -> int:
    """Build GPS artifacts on a synthetic universe and persist them.

    Equivalent to ``quickstart --save-snapshot`` without the summary table:
    one full run produces the encoded seed columns and the three Table 2
    artifacts, which are written to ``--out``.
    """
    universe = make_universe(_scale(args.scale), seed=args.seed)
    pipeline = ScanPipeline(universe)
    engine_kwargs = {}
    if args.executor is not None:
        engine_kwargs = {"use_engine": True, "executor": args.executor}
    config = GPSConfig(seed_fraction=args.seed_fraction,
                       step_size=args.step_size, **engine_kwargs)
    with GPS(pipeline, config) as gps:
        result = gps.run()
    manifest = _save_run_snapshot(args.out, result, universe,
                                  status_encoder=pipeline.status_encoder)
    sections = manifest["sections"]
    print(format_table(
        ("section", "columns", "rows"),
        [(name, len(body["columns"]),
          max((entry["rows"] for entry in body["columns"].values()),
              default=0))
         for name, body in sections.items()],
        title=f"Snapshot written to {args.out} "
              f"(format v{manifest['format_version']})",
    ))
    return 0


def cmd_snapshot_load(args: argparse.Namespace) -> int:
    """Open, verify and summarize a snapshot directory.

    Structural and checksum validation always run (``--no-verify`` skips
    only the crc pass); every artifact present is then fully rebuilt, so a
    clean exit proves the snapshot round-trips, not just that it parses.
    """
    from repro.engine.snapshot import open_snapshot

    snapshot = open_snapshot(args.directory, verify=not args.no_verify)
    rows = []
    for name in snapshot.sections():
        files = snapshot.column_files(name)
        rows.append((name, len(files), max((c.rows for c in files), default=0),
                     sum(c.nbytes for c in files)))
    print(format_table(
        ("section", "columns", "rows", "bytes"),
        rows,
        title=f"Snapshot at {args.directory} (format v{snapshot.version}, "
              f"checksums {'skipped' if args.no_verify else 'verified'})",
    ))
    artifacts = []
    if snapshot.has_section("observations"):
        artifacts.append(("seed observations", len(snapshot.observation_batch())))
    if snapshot.has_section("model"):
        artifacts.append(("model co-occurrence pairs",
                          len(snapshot.model().cooccurrence)))
    if snapshot.has_section("priors"):
        artifacts.append(("priors plan entries", len(snapshot.priors_plan())))
    if snapshot.has_section("index"):
        artifacts.append(("prediction index entries",
                          len(snapshot.prediction_index())))
    if artifacts:
        print(format_table(("artifact", "count"), artifacts,
                           title="Rebuilt artifacts"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="gps-repro",
        description="GPS (SIGCOMM 2022) reproduction: predict IPv4 services "
                    "across all ports on a synthetic Internet.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    quickstart = subparsers.add_parser("quickstart",
                                       help="run GPS end to end and print a summary")
    _add_common_arguments(quickstart)
    _add_executor_arguments(quickstart)
    quickstart.add_argument("--seed-fraction", type=float, default=0.05)
    quickstart.add_argument("--step-size", type=int, default=16)
    quickstart.add_argument("--trace-out", default=None, metavar="FILE",
                            help="record a span trace of the run (dataset "
                                 "build, feature extraction, model/priors/"
                                 "index builds, scan sweeps) and write it to "
                                 "FILE as JSON")
    _add_snapshot_arguments(quickstart)
    quickstart.set_defaults(func=cmd_quickstart)

    coverage = subparsers.add_parser("coverage",
                                     help="coverage-vs-bandwidth experiment (Figure 2)")
    _add_common_arguments(coverage)
    _add_executor_arguments(coverage)
    coverage.add_argument("--dataset", choices=("censys", "lzr"), default="censys")
    coverage.add_argument("--seed-fraction", type=float, default=None,
                          help="seed size (defaults to the scale's standard value)")
    coverage.add_argument("--step-size", type=int, default=16)
    coverage.add_argument("--trace-out", default=None, metavar="FILE",
                          help="record a span trace of the run and write it "
                               "to FILE as JSON")
    _add_snapshot_arguments(coverage)
    coverage.set_defaults(func=cmd_coverage)

    compare = subparsers.add_parser("compare-xgboost",
                                    help="GPS vs the sequential classifier (Figure 4)")
    _add_common_arguments(compare)
    compare.add_argument("--ports", type=int, default=10,
                         help="number of popular ports to compare on")
    compare.add_argument("--seed-fraction", type=float, default=0.02)
    compare.add_argument("--step-size", type=int, default=16)
    compare.set_defaults(func=cmd_compare_xgboost)

    churn = subparsers.add_parser("churn",
                                  help="service churn between scans (Section 3)")
    _add_common_arguments(churn)
    churn.add_argument("--days", type=int, default=10)
    churn.set_defaults(func=cmd_churn)

    serve = subparsers.add_parser("serve",
                                  help="serve GPS predictions over HTTP")
    _add_common_arguments(serve)
    _add_executor_arguments(serve)
    serve.add_argument("--address", default="127.0.0.1",
                       help="interface to bind")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port to listen on")
    serve.add_argument("--seed-fraction", type=float, default=0.05,
                       help="seed-scan size the default model is built from")
    serve.add_argument("--no-telemetry", action="store_true",
                       help="disable the serving telemetry (request counters, "
                            "latency histograms, GET /metrics); on by default "
                            "for the serve command")
    serve.add_argument("--snapshot-dir", default=None, metavar="DIR",
                       help="warm-restart the default model from this "
                            "snapshot directory instead of building it")
    serve.set_defaults(func=cmd_serve)

    snapshot = subparsers.add_parser(
        "snapshot", help="save or inspect versioned on-disk snapshots")
    snapshot_sub = snapshot.add_subparsers(dest="snapshot_command",
                                           required=True)

    snapshot_save = snapshot_sub.add_parser(
        "save", help="run GPS and persist its artifacts as a snapshot")
    _add_common_arguments(snapshot_save)
    _add_executor_arguments(snapshot_save)
    snapshot_save.add_argument("--seed-fraction", type=float, default=0.05)
    snapshot_save.add_argument("--step-size", type=int, default=16)
    snapshot_save.add_argument("--out", required=True, metavar="DIR",
                               help="snapshot directory to write")
    snapshot_save.set_defaults(func=cmd_snapshot_save)

    snapshot_load = snapshot_sub.add_parser(
        "load", help="open, verify and summarize a snapshot directory")
    snapshot_load.add_argument("directory", help="snapshot directory to open")
    snapshot_load.add_argument("--no-verify", action="store_true",
                               help="skip the per-file crc32 pass (structure "
                                    "and sizes are always validated)")
    snapshot_load.set_defaults(func=cmd_snapshot_load)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
