"""Command-line interface: run the paper's experiments from a shell.

Exposed as ``python -m repro`` (or the ``repro`` console script when
installed).  Each subcommand wraps one methodology entry point::

    python -m repro ber --channel 7 --row 5000
    python -m repro hcfirst --channel 0 --row 5000 --pattern Rowstripe0
    python -m repro sweep --channels 0 7 --rows-per-region 8 -o out.json
    python -m repro fleet run --devices 100 --jobs 4 -o population.json
    python -m repro utrr --row 6000 --iterations 100
    python -m repro devices list
    python -m repro devices show ddr4
    python -m repro mapping
    python -m repro subarrays --start 800 --end 870
    python -m repro report out.json
    python -m repro obs summarize trace.jsonl --metrics metrics.json
    python -m repro obs tail events.jsonl --follow
    python -m repro obs export --format prometheus --metrics metrics.json

All subcommands share the station options ``--seed`` (chip specimen),
``--profile`` (device family: ``hbm2``/``ddr4``/``ddr5``),
``--temperature`` (degC) and ``--voltage`` (wordline rail), plus the
observability options ``--trace PATH`` (span trace as JSON Lines),
``--metrics PATH`` (metric snapshot as JSON) and ``--events PATH``
(live campaign event log as JSONL); ``repro obs summarize`` renders
trace/metrics into a profile table, ``repro obs tail`` replays or
follows an event log, and ``repro obs export`` converts artifacts to
Prometheus / flamegraph formats.  The campaign commands (``sweep``,
``fleet run``) additionally take ``--progress`` for a live status line
driven by the event stream.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.figures import (
    fig3_ber_distributions,
    fig4_hcfirst_distributions,
    render_box_table,
)
from repro.analysis.report import experiment_report
from repro.analysis.tables import format_headline_table, headline_numbers
from repro.bender.board import BenderBoard, BoardSpec
from repro.core.ber import BerExperiment
from repro.core.experiment import ExperimentConfig
from repro.core.hcfirst import HcFirstSearch
from repro.engine import EngineSession
from repro.core.mapping_re import reverse_engineer_mapping
from repro.core.parallel import ParallelSweepRunner
from repro.core.patterns import (
    STANDARD_PATTERNS,
    pattern_by_name,
)
from repro.core.results import CharacterizationDataset
from repro.core.subarray_re import SubarrayReverseEngineer
from repro.core.sweeps import SweepConfig
from repro.core.utrr import UTrrExperiment
from repro.dram.address import DramAddress
from repro.errors import ReproError
from repro.faults import FaultSpec
from repro.obs import ObsSession
from repro.obs.summarize import summarize_trace


def _add_station_options(parser: argparse.ArgumentParser) -> None:
    from repro.dram.profiles import list_profiles
    parser.add_argument("--seed", type=int, default=0,
                        help="chip specimen seed (default: 0)")
    parser.add_argument("--profile", choices=list_profiles(), default=None,
                        help="device-family profile to build the station "
                             "as (default: the paper's HBM2 stack; see "
                             "'repro devices list')")
    parser.add_argument("--temperature", type=float, default=85.0,
                        help="chip temperature in degC (default: 85)")
    parser.add_argument("--voltage", type=float, default=None,
                        help="wordline voltage in V (default: nominal)")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="deterministic fault plan: 'key=value,...' "
                             "(e.g. 'seed=1,link_corrupt=0.01,"
                             "shard_error=0.05') or @file / a JSON file "
                             "path; see 'repro faults demo'")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record a span trace to PATH (JSON Lines); "
                             "inspect with 'repro obs summarize PATH'")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="write a metric snapshot (commands by type, "
                             "hammers, bitflips, ...) to PATH as JSON")
    parser.add_argument("--events", metavar="PATH", default=None,
                        help="record the live campaign event log to PATH "
                             "(JSONL); watch it from another terminal "
                             "with 'repro obs tail PATH --follow'")


def _fault_spec(args: argparse.Namespace) -> Optional[FaultSpec]:
    raw = getattr(args, "faults", None)
    return FaultSpec.parse(raw) if raw else None


def _make_spec(args: argparse.Namespace) -> BoardSpec:
    return BoardSpec(seed=args.seed, temperature_c=args.temperature,
                     ecc_enabled=False, wordline_voltage_v=args.voltage,
                     device_profile=getattr(args, "profile", None),
                     faults=_fault_spec(args))


def _session(args: argparse.Namespace,
             experiment: Optional[ExperimentConfig] = None) -> EngineSession:
    """The engine session every subcommand builds its station through."""
    return EngineSession(spec=_make_spec(args), experiment=experiment)


def _make_station(args: argparse.Namespace) -> BenderBoard:
    """An engine-managed station with no interference controls applied
    (the mapping/subarray/U-TRR tooling never applied them)."""
    return _session(args).board


def _address(args: argparse.Namespace) -> DramAddress:
    return DramAddress(args.channel, args.pseudo_channel, args.bank,
                       args.row)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_ber(args: argparse.Namespace) -> int:
    config = ExperimentConfig(ber_hammer_count=args.hammers,
                              profile=args.profile)
    board = _session(args, config).station()
    experiment = BerExperiment(board.host, board.device.mapper, config)
    victim = _address(args)
    patterns = ([pattern_by_name(args.pattern)] if args.pattern
                else list(STANDARD_PATTERNS))
    for pattern in patterns:
        record = experiment.run_row(victim, pattern)
        print(f"{victim}  {pattern.name:<11} flips={record.flips:<6} "
              f"BER={record.ber:.4%}  "
              f"(hammer phase {record.duration_s * 1e3:.1f} ms)")
    return 0


def cmd_hcfirst(args: argparse.Namespace) -> int:
    config = ExperimentConfig(hcfirst_max_hammers=args.max_hammers,
                              profile=args.profile)
    board = _session(args, config).station()
    search = HcFirstSearch(board.host, board.device.mapper, config)
    victim = _address(args)
    patterns = ([pattern_by_name(args.pattern)] if args.pattern
                else list(STANDARD_PATTERNS))
    for pattern in patterns:
        outcome = search.search(victim, pattern)
        result = ("censored (no flip at "
                  f"{outcome.max_hammers:,})" if outcome.censored
                  else f"{outcome.hc_first:,}")
        print(f"{victim}  {pattern.name:<11} HC_first={result}  "
              f"({outcome.probes} probes)")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    channels = args.channels
    if channels is None:
        # Default to every channel the station's family has.
        if args.profile is not None:
            from repro.dram.profiles import get_profile
            channels = range(get_profile(args.profile).geometry.channels)
        else:
            channels = range(8)
    overrides = dict(
        channels=tuple(channels),
        rows_per_region=args.rows_per_region,
        hcfirst_rows_per_region=args.hcfirst_rows,
        repetitions=args.repetitions,
        faults=_fault_spec(args),
    )
    if args.profile is not None:
        overrides["experiment"] = ExperimentConfig(profile=args.profile)
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    config = SweepConfig.from_env(**overrides)
    runner = ParallelSweepRunner(_make_spec(args), config,
                                 max_retries=args.max_retries,
                                 retry_backoff_s=args.retry_backoff,
                                 campaign_dir=args.resume,
                                 degrade=args.degrade)
    dataset = runner.run(progress=lambda message: print(f"  {message}",
                                                        file=sys.stderr))
    for error in runner.errors:
        print(f"warning: shard {error.index} "
              f"(ch{error.channel} pc{error.pseudo_channel} "
              f"ba{error.bank} region={error.region}) quarantined "
              f"[{error.fault_category}] after {error.attempts} attempts "
              f"(+{error.backoff_s:.3f}s backoff): "
              f"{error.error_type}: {error.message}", file=sys.stderr)
    coverage = runner.coverage
    if coverage is not None and not coverage["complete"]:
        shards, rows = coverage["shards"], coverage["rows"]
        print(f"warning: partial coverage — "
              f"{shards['completed']}/{shards['total']} shards, "
              f"{rows['completed']}/{rows['attempted']} rows "
              f"({shards['quarantined']} shard(s) quarantined)",
              file=sys.stderr)
    print(render_box_table(fig3_ber_distributions(dataset),
                           value_format="{:.5f}",
                           title="BER across rows (Fig. 3 axes)"))
    try:
        print()
        print(render_box_table(fig4_hcfirst_distributions(dataset),
                               value_format="{:.0f}",
                               title="HC_first across rows (Fig. 4 axes)"))
    except ReproError:
        pass
    print()
    print(format_headline_table(headline_numbers(dataset)))
    if args.output:
        dataset.to_json(args.output)
        print(f"\ndataset written to {args.output}", file=sys.stderr)
    if args.export_dir:
        from repro.analysis.export import export_all
        written = export_all(dataset, args.export_dir)
        print(f"figure CSVs written: "
              f"{', '.join(str(path) for path in written)}",
              file=sys.stderr)
    return 0


def cmd_fleet_run(args: argparse.Namespace) -> int:
    from repro.core.fleet import (
        FleetConfig,
        FleetRunner,
        default_fleet_sweep,
    )
    from repro.core.experiment import ExperimentConfig as _ExperimentConfig

    sweep = default_fleet_sweep(
        rows_per_region=args.rows_per_region,
        hcfirst_rows_per_region=args.hcfirst_rows,
        faults=_fault_spec(args),
        experiment=_ExperimentConfig(
            ber_hammer_count=args.hammers,
            hcfirst_max_hammers=args.max_hammers,
            profile=args.profile))
    config = FleetConfig(devices=args.devices, base_seed=args.seed,
                         jobs=args.jobs, max_retries=args.max_retries,
                         spec=_make_spec(args), sweep=sweep,
                         device_timeout_s=args.device_timeout,
                         profiles=tuple(args.profiles or ()))
    runner = FleetRunner(config, campaign_dir=args.resume,
                         degrade=args.degrade)
    progress = ((lambda message: print(f"  {message}", file=sys.stderr))
                if args.verbose else None)
    result = runner.run(progress=progress)
    for error in runner.errors:
        print(f"warning: device {error.index} (seed {error.seed}) "
              f"failed after {error.attempts} attempt(s): "
              f"{error.error_type}: {error.message}", file=sys.stderr)
    population = result.population
    print(f"fleet: {population['devices']}/{config.devices} device(s) "
          f"completed (seeds {config.base_seed}.."
          f"{config.base_seed + config.devices - 1}, jobs={config.jobs})")

    def show(title, summary, value_format):
        print(title)
        if summary is None:
            print("  (no uncensored measurements)")
            return
        cells = "  ".join(
            f"{label}={value_format.format(summary[label])}"
            for label in ("min", "p10", "p25", "p50", "p75", "p90",
                          "max", "mean"))
        print(f"  {cells}")

    show("population HC_first (per-device minimum):",
         population["hc_first_min"], "{:.0f}")
    show("population BER (per-device mean):",
         population["ber_mean"], "{:.6f}")
    print(f"bitflips total: {population['bitflips_total']}; "
          f"fully censored devices: "
          f"{population['fully_censored_devices']}")
    if args.output:
        result.to_json(args.output)
        print(f"population summary written to {args.output}",
              file=sys.stderr)
    if args.dataset:
        result.dataset.to_json(args.dataset)
        print(f"merged dataset written to {args.dataset}",
              file=sys.stderr)
    return 1 if runner.errors else 0


def cmd_devices_list(args: argparse.Namespace) -> int:
    from repro.dram.profiles import get_profile, list_profiles

    for name in list_profiles():
        profile = get_profile(name)
        print(f"{name:<8} {profile.family:<6} {profile.description}")
    return 0


def cmd_devices_show(args: argparse.Namespace) -> int:
    from repro.dram.profiles import get_profile

    profile = get_profile(args.name)
    geometry = profile.geometry
    timing = profile.timing
    trr = profile.trr
    print(f"profile: {profile.name} ({profile.family})")
    print(f"  {profile.description}")
    print(f"geometry: {geometry.channels} channel(s) x "
          f"{geometry.pseudo_channels} pseudo channel(s) x "
          f"{geometry.banks} bank(s) x {geometry.rows} row(s); "
          f"{geometry.columns} column(s) x {geometry.column_bytes} B "
          f"({geometry.row_bytes} B/row, "
          f"{geometry.stack_bytes // 2**20} MiB total)")
    print(f"timing: {timing.frequency_hz / 1e6:.0f} MHz; "
          f"tRCD={timing.t_rcd} tRAS={timing.t_ras} tRP={timing.t_rp} "
          f"tRRD={timing.t_rrd} tFAW={timing.t_faw} ns; "
          f"tREFI={timing.t_refi / 1e3:.2f} us "
          f"tREFW={timing.t_refw / 1e6:.0f} ms tRFC={timing.t_rfc} ns")
    sampler_details = {
        "last": "1-entry last-ACT table per bank",
        "counter": f"{trr.table_size}-entry activation-count table "
                   "per bank",
        "probabilistic": f"p={trr.sample_probability} per-ACT capture "
                         "per bank",
    }[trr.sampler]
    print(f"trr: {trr.sampler} sampler ({sampler_details}), "
          f"fires every {trr.refresh_period} REF(s), "
          f"radius {trr.refresh_radius}")
    print(f"mapper: control_bit={profile.mapper_control_bit:#x} "
          f"swizzle_mask={profile.mapper_swizzle_mask:#x}")
    print(f"identity: {profile.identity()}")
    return 0


def cmd_utrr(args: argparse.Namespace) -> int:
    board = _make_station(args)
    experiment = UTrrExperiment(board.host, board.device.mapper)
    result = experiment.run(_address(args), iterations=args.iterations)
    timeline = "".join("R" if flag else "." for flag in result.refreshed)
    print(f"retention onset: "
          f"{result.profile.retention_time_s * 1e3:.0f} ms")
    print(f"timeline: {timeline}")
    print(f"refresh iterations: {result.refresh_iterations}")
    if result.trr_detected:
        print(f"hidden TRR detected: victim refresh every "
              f"{result.inferred_period} REFs")
        return 0
    print("no periodic victim refresh observed")
    return 1


def cmd_mapping(args: argparse.Namespace) -> int:
    board = _make_station(args)
    mapper = reverse_engineer_mapping(board.host, channel=args.channel)
    print("discovered logical -> physical mapping (sample):")
    for row in range(args.sample_start, args.sample_start + 16):
        print(f"  {row:>6} -> {mapper.logical_to_physical(row)}")
    return 0


def cmd_subarrays(args: argparse.Namespace) -> int:
    board = _make_station(args)
    engineer = SubarrayReverseEngineer(board.host, board.device.mapper)
    result = engineer.scan(channel=args.channel, start=args.start,
                           end=args.end, stride=args.stride)
    for observation in result.observations:
        if observation.classification != "interior" or args.verbose:
            print(f"  row {observation.physical_row:>6}: "
                  f"below={observation.flips_below} "
                  f"above={observation.flips_above} "
                  f"[{observation.classification}]")
    print(f"subarray boundaries in [{args.start}, {args.end}): "
          f"{result.boundaries()}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    dataset = CharacterizationDataset.from_json(args.dataset)
    print(experiment_report(dataset, utrr_period=args.utrr_period,
                            title=f"Report for {args.dataset}"))
    return 0


def cmd_obs_summarize(args: argparse.Namespace) -> int:
    print(summarize_trace(args.trace, metrics_path=args.metrics,
                          top=args.top))
    return 0


def cmd_obs_tail(args: argparse.Namespace) -> int:
    from repro.obs.progress import tail_events

    tail_events(args.path, follow=args.follow,
                stale_after=args.stale_after)
    return 0


def cmd_obs_export(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.errors import ConfigurationError
    from repro.obs.export import collapsed_stacks, prometheus_text
    from repro.obs.trace import read_jsonl

    if args.format == "prometheus":
        if not args.metrics:
            raise ConfigurationError(
                "--format prometheus exports a metrics snapshot; "
                "pass one with --metrics PATH")
        snapshot = json.loads(Path(args.metrics).read_text())
        text = prometheus_text(snapshot)
    else:
        if not args.trace:
            raise ConfigurationError(
                "--format flamegraph exports a span trace; "
                "pass one with --trace PATH")
        text = collapsed_stacks(read_jsonl(args.trace))
        if text:
            text += "\n"
    if args.output:
        Path(args.output).write_text(text)
        print(f"{args.format} export written to {args.output}",
              file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _print_report(report, output_format: str) -> int:
    """Render a verification report; returns the 0/1/2 exit code."""
    if output_format == "json":
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return report.exit_code


def cmd_lint_program(args: argparse.Namespace) -> int:
    from repro.bender.assembler import assemble
    from repro.dram.timing import TimingParameters
    from repro.verify import (
        VerifyContext,
        count_activations,
        verify_program,
    )

    if args.program == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.program, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            print(f"error: cannot read program {args.program}: "
                  f"{error.strerror or error}", file=sys.stderr)
            return 2
    program = assemble(text)
    expected = None
    if args.expect_hammers is not None:
        # Every activated row must be activated exactly N times.
        expected = {key: args.expect_hammers
                    for key in count_activations(program)}
        if not expected:
            print("error: --expect-hammers given but the program "
                  "contains no ACT", file=sys.stderr)
            return 2
    context = VerifyContext(
        timing=TimingParameters(),
        expected_hammers=expected,
        assume_scheduler=not args.strict,
        allow_retention_decay=args.allow_retention_decay,
        assume_trr_escaped=args.assume_trr_escaped,
    )
    report = verify_program(program, context)
    if not args.summary:
        return _print_report(report, args.format)

    from repro.verify import EffectSummary, summarize_program

    outcome = summarize_program(program, context, report=report)
    summarized = isinstance(outcome, EffectSummary)
    if args.format == "json":
        import json

        print(json.dumps({"report": report.to_dict(),
                          "summary": outcome.to_dict() if summarized
                          else None,
                          "unsummarizable": None if summarized
                          else outcome.to_dict()},
                         indent=2))
    else:
        print(report.render())
        print(outcome.render())
    # An unsummarizable program is lint-degraded even when the
    # verifier itself is clean: the fast path will fall back on it.
    code = report.exit_code
    if not summarized and code < 1:
        code = 1
    return code


def cmd_lint_source(args: argparse.Namespace) -> int:
    from repro.verify import lint_source

    return _print_report(lint_source(args.paths or None), args.format)


def cmd_faults_demo(args: argparse.Namespace) -> int:
    """Run a tiny campaign under a fault plan, twice, and show that the
    fault schedule is deterministic and the resilience layer recovers a
    byte-identical dataset."""
    from repro.core.patterns import ROWSTRIPE0
    from repro.dram.geometry import HBM2Geometry
    from repro.faults import FaultPlan
    from repro.obs import MetricsRegistry, use_metrics

    spec_text = args.faults or ("seed=7,link_corrupt=0.01,link_stall=0.02,"
                                "shard_error=0.1,thermal_drift=0.1")
    fault_spec = FaultSpec.parse(spec_text)
    plan = FaultPlan(fault_spec)
    print(f"fault plan: {fault_spec.describe()}")

    geometry = HBM2Geometry(channels=2, pseudo_channels=1, banks=2,
                            rows=256, columns=4, column_bytes=8,
                            channels_per_die=2)
    board_spec = BoardSpec(seed=args.seed, temperature_c=args.temperature,
                           settle_thermals=False, geometry=geometry,
                           faults=fault_spec)
    config = SweepConfig(
        channels=(0, 1), banks=(0, 1), region_size=64, rows_per_region=2,
        hcfirst_rows_per_region=0, include_hcfirst=False,
        patterns=(ROWSTRIPE0,), jobs=2, faults=fault_spec,
        experiment=ExperimentConfig(ber_hammer_count=30_000))

    shards = [(channel, 0, bank, region)
              for channel in (0, 1) for bank in (0, 1)
              for region in ("first", "middle", "last")]
    schedule = {f"ch{c} ba{b} {r}": plan.shard_fault(c, pc, b, r, 0)
                for c, pc, b, r in shards
                if plan.shard_fault(c, pc, b, r, 0)}
    print(f"shard-fault schedule (attempt 0): {schedule or 'clean'}")
    excursions = [f"ch{c} ba{b} row{row}"
                  for c, pc, b, _ in shards for row in range(geometry.rows)
                  if plan.thermal_excursion(c, pc, b, row)]
    print(f"thermal excursions scheduled: {len(excursions)}")

    def campaign():
        registry = MetricsRegistry()
        with use_metrics(registry):
            runner = ParallelSweepRunner(board_spec, config,
                                         max_retries=args.max_retries,
                                         retry_backoff_s=0.001)
            dataset = runner.run()
        return dataset, runner, registry.snapshot()["counters"]

    results = []
    for attempt in (1, 2):
        dataset, runner, counters = campaign()
        results.append(dataset)
        coverage = runner.coverage
        print(f"run {attempt}: "
              f"{coverage['shards']['completed']}/"
              f"{coverage['shards']['total']} shards, "
              f"retries={counters.get('sweep.shard_retries', 0)}, "
              f"thermal.excursions="
              f"{counters.get('thermal.excursions', 0)}, "
              f"transport.faults={counters.get('transport.faults', 0)}, "
              f"quarantined={len(runner.errors)}")
    first, second = results
    identical = (first.ber_records == second.ber_records
                 and first.hcfirst_records == second.hcfirst_records)
    print(f"datasets identical across runs: {identical}")
    from dataclasses import replace
    clean = ParallelSweepRunner(
        BoardSpec(seed=args.seed, temperature_c=args.temperature,
                  settle_thermals=False, geometry=geometry),
        replace(config, faults=None)).run()
    matches_clean = first.ber_records == clean.ber_records
    print(f"dataset identical to fault-free campaign: {matches_clean}")
    return 0 if identical else 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HBM2 RowHammer characterization (DSN 2023 "
                    "reproduction) on the simulated testing station.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def row_options(sub, default_channel=0):
        sub.add_argument("--channel", type=int, default=default_channel)
        sub.add_argument("--pseudo-channel", type=int, default=0)
        sub.add_argument("--bank", type=int, default=0)
        sub.add_argument("--row", type=int, default=5000)

    ber = subparsers.add_parser(
        "ber", help="BER of one victim row (256K hammers)")
    _add_station_options(ber)
    row_options(ber)
    ber.add_argument("--pattern", help="one Table 1 / extended pattern "
                                       "(default: all four Table 1)")
    ber.add_argument("--hammers", type=int, default=256 * 1024)
    ber.set_defaults(handler=cmd_ber)

    hcfirst = subparsers.add_parser(
        "hcfirst", help="exact HC_first of one victim row")
    _add_station_options(hcfirst)
    row_options(hcfirst)
    hcfirst.add_argument("--pattern")
    hcfirst.add_argument("--max-hammers", type=int, default=256 * 1024)
    hcfirst.set_defaults(handler=cmd_hcfirst)

    sweep = subparsers.add_parser(
        "sweep", help="spatial characterization campaign (Figs. 3/4)")
    _add_station_options(sweep)
    sweep.add_argument("--channels", type=int, nargs="+", default=None,
                       help="channels to sweep (default: every channel "
                            "of the station's device family)")
    sweep.add_argument("--rows-per-region", type=int, default=8)
    sweep.add_argument("--hcfirst-rows", type=int, default=3)
    sweep.add_argument("--repetitions", type=int, default=1)
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes for the sweep (default: "
                            "$REPRO_JOBS or 1 = one worker); results are "
                            "identical at any jobs level")
    sweep.add_argument("--resume", metavar="DIR", default=None,
                       help="campaign directory: checkpoint completed "
                            "shards there and resume a killed campaign "
                            "from it (byte-identical to an uninterrupted "
                            "run)")
    sweep.add_argument("--max-retries", type=int, default=1,
                       help="extra attempts per failed shard (default: 1)")
    sweep.add_argument("--retry-backoff", type=float, default=0.0,
                       metavar="S",
                       help="base backoff before retry rounds, seconds "
                            "(doubles per round, deterministic jitter; "
                            "default: 0)")
    sweep.add_argument("--degrade", choices=("auto", "never"),
                       default="auto",
                       help="when the worker pool crash-loops past its "
                            "budget: 'auto' (default) finishes the "
                            "campaign serially in-process with identical "
                            "output; 'never' fails loudly instead")
    sweep.add_argument("--progress", action="store_true",
                       help="render a live status line (items done, "
                            "rows/s, ETA, worker liveness) to stderr, "
                            "driven by the campaign event stream")
    sweep.add_argument("-o", "--output", help="archive dataset as JSON")
    sweep.add_argument("--export-dir",
                       help="also write figure CSVs into this directory")
    sweep.set_defaults(handler=cmd_sweep)

    fleet = subparsers.add_parser(
        "fleet", help="population runs over many simulated specimens")
    fleet_subparsers = fleet.add_subparsers(dest="fleet_command",
                                            required=True)
    fleet_run = fleet_subparsers.add_parser(
        "run", help="characterize N re-seeded devices on the warm "
                    "worker pool and report population HC_first/BER "
                    "distributions")
    _add_station_options(fleet_run)
    fleet_run.add_argument("--devices", type=int, default=100,
                           help="simulated specimens; device i uses seed "
                                "--seed + i (default: 100)")
    fleet_run.add_argument("--profiles", nargs="+", metavar="NAME",
                           default=None,
                           help="heterogeneous population: device-family "
                                "profiles assigned round-robin across "
                                "device indices (see 'repro devices "
                                "list'; default: homogeneous)")
    fleet_run.add_argument("--jobs", type=int, default=1,
                           help="worker processes (default: 1 = one pool "
                                "worker); results are identical at any "
                                "jobs level")
    fleet_run.add_argument("--rows-per-region", type=int, default=2,
                           help="BER victims per device (default: 2)")
    fleet_run.add_argument("--hcfirst-rows", type=int, default=2,
                           help="HC_first victims per device (default: 2)")
    fleet_run.add_argument("--hammers", type=int, default=48 * 1024,
                           help="hammers per BER test (default: 48K)")
    fleet_run.add_argument("--max-hammers", type=int, default=96 * 1024,
                           help="HC_first search bound (default: 96K)")
    fleet_run.add_argument("--max-retries", type=int, default=1,
                           help="extra attempts per failed device "
                                "(default: 1)")
    fleet_run.add_argument("--device-timeout", type=float, default=None,
                           metavar="S",
                           help="per-device wall-clock limit, at any "
                                "jobs level (default: unlimited)")
    fleet_run.add_argument("--resume", metavar="DIR", default=None,
                           help="fleet campaign directory: checkpoint "
                                "completed devices there and resume a "
                                "killed fleet from it")
    fleet_run.add_argument("--degrade", choices=("auto", "never"),
                           default="auto",
                           help="when the worker pool crash-loops past "
                                "its budget: 'auto' (default) finishes "
                                "serially in-process; 'never' fails "
                                "loudly instead")
    fleet_run.add_argument("-o", "--output",
                           help="write the population summary as JSON")
    fleet_run.add_argument("--dataset",
                           help="also archive the merged dataset as JSON")
    fleet_run.add_argument("--progress", action="store_true",
                           help="render a live status line (devices "
                                "done, rows/s, ETA, worker liveness) to "
                                "stderr from the campaign event stream")
    fleet_run.add_argument("--verbose", action="store_true",
                           help="print per-device progress to stderr")
    fleet_run.set_defaults(handler=cmd_fleet_run)

    devices = subparsers.add_parser(
        "devices", help="inspect the device-family profile registry")
    devices_subparsers = devices.add_subparsers(dest="devices_command",
                                                required=True)
    devices_list = devices_subparsers.add_parser(
        "list", help="registered device-family profiles")
    devices_list.set_defaults(handler=cmd_devices_list)
    devices_show = devices_subparsers.add_parser(
        "show", help="geometry/timing/TRR details of one profile")
    devices_show.add_argument("name", help="profile name (see list)")
    devices_show.set_defaults(handler=cmd_devices_show)

    utrr = subparsers.add_parser(
        "utrr", help="uncover the hidden TRR (paper Sec 5)")
    _add_station_options(utrr)
    row_options(utrr)
    utrr.add_argument("--iterations", type=int, default=100)
    utrr.set_defaults(handler=cmd_utrr)

    mapping = subparsers.add_parser(
        "mapping", help="reverse engineer the row address mapping")
    _add_station_options(mapping)
    mapping.add_argument("--channel", type=int, default=0)
    mapping.add_argument("--sample-start", type=int, default=0)
    mapping.set_defaults(handler=cmd_mapping)

    subarrays = subparsers.add_parser(
        "subarrays", help="single-sided subarray-boundary scan")
    _add_station_options(subarrays)
    subarrays.add_argument("--channel", type=int, default=7)
    subarrays.add_argument("--start", type=int, default=800)
    subarrays.add_argument("--end", type=int, default=870)
    subarrays.add_argument("--stride", type=int, default=1)
    subarrays.add_argument("--verbose", action="store_true")
    subarrays.set_defaults(handler=cmd_subarrays)

    report = subparsers.add_parser(
        "report", help="render a markdown report from a dataset JSON")
    report.add_argument("dataset")
    report.add_argument("--utrr-period", type=int, default=None)
    report.set_defaults(handler=cmd_report)

    faults = subparsers.add_parser(
        "faults", help="fault-injection and resilience tooling")
    faults_subparsers = faults.add_subparsers(dest="faults_command",
                                              required=True)
    demo = faults_subparsers.add_parser(
        "demo", help="run a tiny campaign under a fault plan, twice, "
                     "to show deterministic injection and recovery")
    _add_station_options(demo)
    demo.add_argument("--max-retries", type=int, default=2,
                      help="extra attempts per failed shard (default: 2)")
    demo.set_defaults(handler=cmd_faults_demo)

    lint = subparsers.add_parser(
        "lint", help="static analyzers (exit codes: 0 clean, 1 warnings, "
                     "2 violations)")
    lint_subparsers = lint.add_subparsers(dest="lint_command",
                                          required=True)
    lint_program = lint_subparsers.add_parser(
        "program", help="statically verify a DRAM Bender program "
                        "(assembly text; see 'repro lint program -' "
                        "for stdin)")
    lint_program.add_argument(
        "program", help="assembly file, or '-' to read stdin")
    lint_program.add_argument(
        "--strict", action="store_true",
        help="as-written timing: commands issue exactly one bus cycle "
             "apart (plus WAITs) instead of at their earliest legal "
             "cycle; reports TimingViolation diagnostics")
    lint_program.add_argument(
        "--expect-hammers", type=int, default=None, metavar="N",
        help="require every activated row to be ACTed exactly N times")
    lint_program.add_argument(
        "--allow-retention-decay", action="store_true",
        help="suppress RefreshStarvation (for deliberate-decay "
             "experiments such as RowPress or retention profiling)")
    lint_program.add_argument(
        "--assume-trr-escaped", action="store_true",
        help="warn when the REF cadence would let the device's N-REF "
             "TRR sampler fire in a program assuming TRR escape "
             "(N = 17 for the paper's HBM2 chip)")
    lint_program.add_argument(
        "--summary", action="store_true",
        help="also infer the program's effect summary (the analytic "
             "fast path's contract); an unsummarizable program exits "
             "1 even when the verifier is clean")
    lint_program.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="diagnostic output format (default: text)")
    lint_program.set_defaults(handler=cmd_lint_program)
    lint_source = lint_subparsers.add_parser(
        "source", help="determinism lint over Python sources "
                       "(default: the installed repro package)")
    lint_source.add_argument(
        "paths", nargs="*",
        help="files or directories (default: the repro package)")
    lint_source.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="diagnostic output format (default: text)")
    lint_source.set_defaults(handler=cmd_lint_source)

    obs = subparsers.add_parser(
        "obs", help="inspect recorded observability artifacts")
    obs_subparsers = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_subparsers.add_parser(
        "summarize", help="render a profile table from a --trace file")
    summarize.add_argument("trace", help="trace written by --trace PATH")
    summarize.add_argument("--metrics", default=None,
                           help="metric snapshot written by --metrics PATH")
    summarize.add_argument("--top", type=int, default=5,
                           help="slowest shards to list (default: 5)")
    summarize.set_defaults(handler=cmd_obs_summarize)
    tail = obs_subparsers.add_parser(
        "tail", help="replay or follow a campaign event log "
                     "(written by --events PATH)")
    tail.add_argument("path", help="event log written by --events PATH")
    tail.add_argument("--follow", action="store_true",
                      help="poll the log, printing status lines, until "
                           "campaign_finished arrives")
    tail.add_argument("--stale-after", type=float, default=5.0,
                      metavar="S",
                      help="flag a worker stale after S seconds without "
                           "a heartbeat or completion (default: 5)")
    tail.set_defaults(handler=cmd_obs_tail)
    export = obs_subparsers.add_parser(
        "export", help="convert recorded artifacts to external tool "
                       "formats")
    export.add_argument("--format", required=True,
                        choices=("prometheus", "flamegraph"),
                        help="prometheus: text exposition format from a "
                             "--metrics snapshot; flamegraph: collapsed "
                             "stacks from a --trace file")
    export.add_argument("--metrics", default=None, metavar="PATH",
                        help="metrics snapshot (prometheus input)")
    export.add_argument("--trace", default=None, metavar="PATH",
                        help="span trace (flamegraph input)")
    export.add_argument("-o", "--output", default=None,
                        help="write the export here instead of stdout")
    export.set_defaults(handler=cmd_obs_export)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    events_path = getattr(args, "events", None)
    progress = getattr(args, "progress", False)
    if args.handler in (cmd_obs_summarize, cmd_obs_export):
        trace_path = metrics_path = None  # inputs, not collection targets
    try:
        if trace_path or metrics_path or events_path or progress:
            return _run_observed(args, trace_path, metrics_path,
                                 events_path, progress)
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _run_observed(args: argparse.Namespace, trace_path, metrics_path,
                  events_path, progress: bool) -> int:
    """Run a subcommand inside an ObsSession collecting the asked-for
    artifacts; ``--progress`` without ``--events`` records the event
    stream to a throwaway file just to drive the live renderer."""
    import os
    import tempfile

    scratch = None
    if progress and not events_path:
        handle = tempfile.NamedTemporaryFile(
            prefix="repro-events-", suffix=".jsonl", delete=False)
        handle.close()
        scratch = events_path = handle.name
    session = ObsSession(trace_path=trace_path, metrics_path=metrics_path,
                         events_path=events_path)
    if progress and session.bus is not None:
        from repro.obs.progress import CampaignView, ProgressRenderer

        view = CampaignView()
        session.bus.subscribe(view.on_event)
        session.bus.subscribe(
            ProgressRenderer(view, epoch=session.bus.epoch).on_event)
    try:
        with session:
            code = args.handler(args)
    finally:
        if scratch is not None:
            os.unlink(scratch)
    if trace_path:
        print(f"trace written to {trace_path} "
              f"(see: repro obs summarize {trace_path})", file=sys.stderr)
    if metrics_path:
        print(f"metrics written to {metrics_path}", file=sys.stderr)
    if events_path and scratch is None:
        print(f"events written to {events_path} "
              f"(see: repro obs tail {events_path})", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
