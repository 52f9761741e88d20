"""Command-line interface: ``python -m repro <command>``.

Commands
--------
design
    Print the optimal WSA/SPA operating points for a chip technology.
compare
    The section 6.3 architecture comparison at a given lattice size.
simulate
    Run a lattice gas (optionally through an engine simulator) and
    report conservation and machine stats.
bounds
    Evaluate the R = O(B·S^{1/d}) ceiling and its inversions.
machines
    The 1987 machine comparison (Connection Machine, CRAY X-MP, ...).
viscosity
    Measure FHP shear viscosity by wave decay and compare to Boltzmann.
lint
    Run the repo's static design-rule checker (RPR001...) over sources.
sanitize
    Run the physics sanitizer: exhaustive collision-table conservation,
    pebble-game legality, and design-formula cross-checks.
faults
    Run the seeded fault-injection campaign (kind × location sweep)
    and classify every trial; exits 1 if any monitored trial suffers
    silent data corruption.
run
    Evolve a lattice gas directly, or — with ``--supervised`` — sharded
    across worker processes under the watchdog/checkpoint-restart
    supervisor, with distinct exit codes: 0 complete, 3 degraded
    (shards dropped), 1 failed or (with ``--verify``) not bit-identical
    to the unsupervised run.
telemetry
    Inspect telemetry reports written by ``simulate``/``run``/``faults``
    ``--telemetry PATH``: ``summarize`` prints a digest of counters,
    timers, spans, and events (``--json`` for a machine-readable one),
    ``trace`` exports Chrome trace-event JSON for chrome://tracing or
    Perfetto, and ``diff`` compares two telemetry/bench reports and
    exits nonzero on perf regressions past a threshold.

Every command prints the same fixed-width tables the benchmark harness
writes, so CLI output can be diffed against ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from repro.util.errors import ReproError

__all__ = ["main", "build_parser"]


def _technology_from_args(args: argparse.Namespace):
    from repro.core.technology import ChipTechnology

    return ChipTechnology(
        bits_per_site=args.bits,
        pins=args.pins,
        site_area=args.site_area,
        pe_area=args.pe_area,
        boundary_bits=args.boundary_bits,
        clock_hz=args.clock_mhz * 1e6,
    )


def _telemetry_recorder(args: argparse.Namespace):
    """An :class:`InMemoryRecorder` when ``--telemetry`` was given, else None."""
    if getattr(args, "telemetry", None) is None:
        return None
    from repro.telemetry import InMemoryRecorder

    return InMemoryRecorder()


def _write_telemetry(
    args: argparse.Namespace, recorder, report=None, **meta: object
) -> None:
    """Snapshot ``recorder`` to the ``--telemetry`` path (no-op when off).

    When ``report`` is given (a pre-merged multi-process
    :class:`TelemetryReport` from the supervisor), it is stamped with the
    command metadata and written as-is instead of snapshotting the
    coordinator recorder alone.
    """
    if recorder is None:
        return
    from repro.telemetry import TelemetryReport

    if report is None:
        report = TelemetryReport.from_recorder(
            recorder, meta={"command": args.command, **meta}
        )
    else:
        report.meta.update({"command": args.command, **meta})
    report.write_json(args.telemetry)
    print(f"telemetry: wrote {args.telemetry}", file=sys.stderr)


def _add_telemetry_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="record counters/timers/spans/events and write a "
        "schema-versioned telemetry report (JSON) to PATH",
    )


def _add_technology_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("chip technology (defaults: the paper's 3µ CMOS)")
    group.add_argument("--bits", type=int, default=8, help="D, bits per site")
    group.add_argument("--pins", type=int, default=72, help="Π, usable I/O pins")
    group.add_argument(
        "--site-area", type=float, default=576e-6, help="B, normalized site area"
    )
    group.add_argument(
        "--pe-area", type=float, default=19.4e-3, help="Γ, normalized PE area"
    )
    group.add_argument(
        "--boundary-bits", type=int, default=3, help="E, slice-boundary bits"
    )
    group.add_argument("--clock-mhz", type=float, default=10.0, help="F in MHz")


def _cmd_design(args: argparse.Namespace) -> int:
    from repro.core.spa import SPAModel
    from repro.core.wsa import WSAModel
    from repro.util.tables import Table, format_rate

    tech = _technology_from_args(args)
    table = Table("Optimal engine designs", ["quantity", "WSA", "SPA"])
    wsa = WSAModel(tech).optimal_design()
    spa = SPAModel(tech).optimal_design(
        lattice_size=args.lattice_size or wsa.lattice_size
    )
    table.add_row("PEs per chip", wsa.pes_per_chip, spa.pes_per_chip)
    table.add_row("lattice size L", wsa.lattice_size, spa.lattice_size)
    table.add_row(
        "geometry",
        f"{wsa.pes_per_chip} lanes",
        f"P_w={spa.pes_wide}, P_k={spa.pes_deep}, W={spa.slice_width}",
    )
    table.add_row("pins used", wsa.pins_used, spa.pins_used)
    table.add_row(
        "chip area used", f"{wsa.chip_area_used:.4f}", f"{spa.chip_area_used:.4f}"
    )
    table.add_row(
        "bits/tick to memory",
        wsa.main_memory_bandwidth_bits_per_tick,
        f"{spa.main_memory_bandwidth_bits_per_tick:.0f}",
    )
    table.add_row(
        "updates/s per chip",
        format_rate(wsa.updates_per_chip_per_second),
        format_rate(spa.throughput_per_chip),
    )
    table.print()
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.core.comparison import compare_extensible, summarize_architectures
    from repro.core.technology import PAPER_TECHNOLOGY
    from repro.util.tables import Table

    rows = summarize_architectures(lattice_size=args.lattice_size)
    table = Table(
        f"Architecture comparison (L = {args.lattice_size or 785})",
        ["arch", "PEs/chip", "bits/tick", "storage/PE (B units)", "extensible"],
    )
    for r in rows:
        table.add_row(
            r.name,
            f"{r.pes_per_chip:.0f}",
            f"{r.bandwidth_bits_per_tick:.0f}",
            f"{r.storage_area_per_pe / PAPER_TECHNOLOGY.B:.1f}",
            r.extensible,
        )
    table.print()
    comp = compare_extensible(args.lattice_size or 1000)
    print(
        f"SPA vs WSA-E: {comp.speedup_spa_over_wsa_e:.0f}x faster per chip, "
        f"{1 / comp.bandwidth_ratio_wsa_e_over_spa:.1f}x the bandwidth."
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro import machines
    from repro.lgca.automaton import LatticeGasAutomaton
    from repro.lgca.fhp import FHPModel
    from repro.lgca.flows import uniform_random_state
    from repro.lgca.hpp import HPPModel
    from repro.util.tables import Table, format_rate

    rng = np.random.default_rng(args.seed)
    boundary = "null" if args.engine != "none" else args.boundary
    if args.model == "hpp":
        model = HPPModel(args.rows, args.cols, boundary=boundary)
    else:
        model = FHPModel(
            args.rows,
            args.cols,
            rest_particles=args.model in ("fhp7", "fhp-sat"),
            saturated=args.model == "fhp-sat",
            boundary=boundary,
        )
    state = uniform_random_state(
        args.rows, args.cols, model.num_channels, args.density, rng
    )
    recorder = _telemetry_recorder(args)
    # With an engine selected the automaton is only the bit-exactness
    # reference, so the recorder attaches to the engine run instead.
    auto = LatticeGasAutomaton(
        model,
        state.copy(),
        backend=args.backend,
        recorder=recorder if args.engine == "none" else None,
    )
    mass0, p0 = auto.particle_count(), auto.momentum()

    if args.engine == "none":
        auto.run(args.steps)
        table = Table("Simulation", ["quantity", "value"])
        table.add_row("model", args.model)
        table.add_row("grid", f"{args.rows} x {args.cols} ({args.boundary})")
        table.add_row("steps", args.steps)
        table.add_row("mass (t=0 -> end)", f"{mass0} -> {auto.particle_count()}")
        table.add_row(
            "momentum drift",
            f"{np.abs(auto.momentum() - p0).max():.2e}",
        )
        table.print()
        _write_telemetry(
            args,
            recorder,
            model=args.model,
            rows=args.rows,
            cols=args.cols,
            steps=args.steps,
            backend=args.backend,
            engine="none",
        )
        return 0

    machine_params: dict[str, dict[str, object]] = {
        "wsa": {"lanes": args.lanes},
        "spa": {"slice_width": args.slice_width},
    }
    engine = machines.create(
        args.engine,
        model,
        pipeline_depth=args.depth,
        recorder=recorder,
        **machine_params.get(args.engine, {}),
    )
    auto.run(args.steps)
    out, stats = engine.run(state, args.steps)
    match = bool(np.array_equal(out, auto.state))
    table = Table(f"Engine simulation: {stats.name}", ["quantity", "value"])
    table.add_row("matches reference", "bit-exact" if match else "MISMATCH")
    table.add_row("site updates", stats.site_updates)
    table.add_row("ticks", stats.ticks)
    table.add_row("updates/tick", f"{stats.updates_per_tick:.2f}")
    table.add_row("rate at clock", format_rate(stats.updates_per_second))
    table.add_row(
        "memory bits/tick", f"{stats.main_bandwidth_bits_per_tick:.1f}"
    )
    table.print()
    _write_telemetry(
        args,
        recorder,
        model=args.model,
        rows=args.rows,
        cols=args.cols,
        steps=args.steps,
        backend=args.backend,
        engine=args.engine,
    )
    return 0 if match else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.core.bounds import (
        bandwidth_for_target_rate,
        storage_for_target_rate,
        update_rate_upper_bound,
    )
    from repro.util.tables import Table, format_rate

    table = Table(
        f"R = O(B·S^(1/d)) at d={args.dimension}", ["quantity", "value"]
    )
    ceiling = update_rate_upper_bound(args.bandwidth, args.storage, args.dimension)
    table.add_row("bandwidth B", f"{args.bandwidth:.3g} site values/s")
    table.add_row("storage S", f"{args.storage:.3g} site values")
    table.add_row("rate ceiling", format_rate(ceiling))
    if args.target_rate:
        table.add_row(
            f"S needed for R={args.target_rate:.3g}",
            f"{storage_for_target_rate(args.target_rate, args.bandwidth, args.dimension):.4g}",
        )
        table.add_row(
            f"B needed for R={args.target_rate:.3g}",
            f"{bandwidth_for_target_rate(args.target_rate, args.storage, args.dimension):.4g}",
        )
    table.print()
    return 0


def _cmd_machines(args: argparse.Namespace) -> int:
    from repro.core.machines import machine_comparison_rows
    from repro.util.tables import Table, format_rate

    rows = machine_comparison_rows(args.dimension)
    table = Table(
        f"1987 machines on {args.dimension}-D lattice updates",
        ["machine", "peak", "realized", "balance", "reuse needed"],
    )
    for r in rows:
        table.add_row(
            r["name"],
            format_rate(r["compute_rate"]),
            format_rate(r["realized"]),
            f"{r['balance']:.0%}",
            f"{r['required_reuse']:.1f}",
        )
    table.print()
    return 0


def _cmd_machines_list(args: argparse.Namespace) -> int:
    import json

    from repro import machines
    from repro.util.tables import Table

    if args.json:
        payload = {
            "schema": machines.SCHEMA_NAME,
            "version": machines.SCHEMA_VERSION,
            "machines": [spec.describe() for spec in machines.specs()],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    table = Table(
        "Registered machines",
        ["name", "architecture", "engine", "tickwise", "section"],
    )
    for spec in machines.specs():
        caps = spec.capabilities
        table.add_row(
            spec.name,
            spec.title,
            spec.engine_cls.__name__,
            "yes" if caps.tickwise else "no",
            spec.paper_section,
        )
    table.print()
    return 0


def _cmd_machines_describe(args: argparse.Namespace) -> int:
    import json

    from repro import machines
    from repro.util.tables import Table

    spec = machines.get(args.name)
    payload = spec.describe(lattice_size=args.lattice_size)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    table = Table(f"Machine: {spec.name}", ["quantity", "value"])
    table.add_row("architecture", spec.title)
    table.add_row("paper section", spec.paper_section)
    table.add_row("engine", spec.engine_cls.__name__)
    caps = spec.capabilities
    table.add_row("tickwise", "yes" if caps.tickwise else "no")
    table.add_row("side channel", "yes" if caps.side_channel else "no")
    table.add_row("degradable", "yes" if caps.degradable else "no")
    table.add_row("parameters", ", ".join(spec.parameters))
    design = payload["design"]
    assert isinstance(design, dict)
    for key in sorted(design):
        value = design[key]
        if isinstance(value, float):
            table.add_row(f"design: {key}", f"{value:.6g}")
        else:
            table.add_row(f"design: {key}", str(value))
    table.print()
    return 0


def _cmd_regimes(args: argparse.Namespace) -> int:
    from repro.core.regimes import regime_map
    from repro.util.tables import Table

    lattice_sizes = [100, 400, 785, 1000, 2000, 4000]
    chip_budgets = [1, 10, 100, 1000]
    budget = args.bandwidth_budget
    points = regime_map(
        lattice_sizes, chip_budgets, bandwidth_budget_bits_per_tick=budget
    )
    label = "unconstrained" if budget is None else f"{budget:g} bits/tick"
    table = Table(
        f"Winning architecture (memory budget: {label})",
        ["L \\ N"] + [str(n) for n in chip_budgets],
    )
    for lattice_size in lattice_sizes:
        row = [p.winner for p in points if p.lattice_size == lattice_size]
        table.add_row(lattice_size, *row)
    table.print()
    return 0


def _cmd_pebble(args: argparse.Namespace) -> int:
    from repro.lattice.geometry import OrthogonalLattice
    from repro.pebbling.bounds import io_per_update_lower_bound
    from repro.pebbling.graph import ComputationGraph
    from repro.pebbling.schedules import (
        lru_cache_schedule,
        measure_schedule,
        per_site_schedule,
        row_cache_schedule,
        row_cache_storage_needed,
        trapezoid_schedule,
        trapezoid_storage_needed,
    )
    from repro.util.tables import Table

    graph = ComputationGraph(
        OrthogonalLattice.cube(args.dimension, args.side),
        generations=args.generations,
    )
    table = Table(
        f"Pebbling schedules on C_{args.dimension}"
        f"({args.side}^{args.dimension} sites, T={args.generations})",
        ["schedule", "S used", "I/O per update", "bound floor at S"],
    )
    reports = [
        measure_schedule(graph, per_site_schedule(graph), 2 * args.dimension + 2, "per-site"),
    ]
    for depth in (1, min(4, args.generations)):
        reports.append(
            measure_schedule(
                graph,
                row_cache_schedule(graph, depth),
                row_cache_storage_needed(graph, depth),
                f"pipeline k={depth}",
            )
        )
    base = max(2, args.side // 4)
    height = min(args.generations, max(1, base // 2))
    reports.append(
        measure_schedule(
            graph,
            trapezoid_schedule(graph, base, height),
            trapezoid_storage_needed(graph, base, height),
            f"trapezoid b={base},h={height}",
        )
    )
    lru_s = max(2 * args.dimension + 2, args.cache)
    reports.append(
        measure_schedule(graph, lru_cache_schedule(graph, lru_s), lru_s, f"LRU cache S={lru_s}")
    )
    for rep in reports:
        floor = io_per_update_lower_bound(graph, rep.max_red)
        table.add_row(rep.name, rep.max_red, f"{rep.io_per_update:.4f}", f"{floor:.5f}")
    table.print()
    return 0


def _cmd_viscosity(args: argparse.Namespace) -> int:
    from repro.lgca.diagnostics import measure_shear_viscosity
    from repro.lgca.fhp import FHPModel
    from repro.util.tables import Table

    model = FHPModel(
        args.size,
        args.size,
        rest_particles=args.model in ("fhp7", "fhp-sat"),
        saturated=args.model == "fhp-sat",
        chirality="alternate",
    )
    res = measure_shear_viscosity(
        model, args.density, args.amplitude, args.steps, np.random.default_rng(args.seed)
    )
    table = Table("Shear-viscosity measurement", ["quantity", "value"])
    table.add_row("model", args.model)
    table.add_row("measured ν", f"{res.measured:.4f}")
    table.add_row("Boltzmann ν(d)", f"{res.predicted:.4f}")
    table.add_row("relative error", f"{res.relative_error:.1%}")
    table.add_row("fit R²", f"{res.r_squared:.4f}")
    table.print()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.engine import lint_paths
    from repro.analysis.rules import ALL_RULES

    if args.list_rules:
        for rule in ALL_RULES:
            scope = ", ".join(rule.scopes) if rule.scopes else "all files"
            print(f"{rule.id}  [{rule.severity}]  {rule.title}  ({scope})")
        return 0
    if args.explain:
        for rule in ALL_RULES:
            if rule.id == args.explain:
                print(f"{rule.id}: {rule.title}")
                print()
                print(rule.explanation or "(no extended explanation)")
                return 0
        known = ", ".join(r.id for r in ALL_RULES)
        print(
            f"repro lint: unknown rule {args.explain!r}; known: {known}",
            file=sys.stderr,
        )
        return 2
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    try:
        report = lint_paths(args.paths, select=select, ignore=ignore)
    except (ValueError, FileNotFoundError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.format_json())
    elif args.format == "github":
        output = report.format_github()
        if output:
            print(output)
    else:
        print(report.format_text())
    return report.exit_code


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.analysis.sanitizer import (
        available_checks,
        format_results_json,
        run_checks,
    )
    from repro.util.tables import Table

    if args.list_checks:
        for name in available_checks():
            print(name)
        return 0
    try:
        results = run_checks(args.check or None)
    except ValueError as exc:
        print(f"repro sanitize: {exc}", file=sys.stderr)
        return 2
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        print(format_results_json(results))
    else:
        table = Table("Physics sanitizer", ["check", "status", "detail"])
        for r in results:
            table.add_row(r.name, r.status, r.detail)
        table.print()
        print(
            f"{len(results) - len(failed)}/{len(results)} checks passed"
            + ("" if not failed else f"; FAILED: {', '.join(r.name for r in failed)}")
        )
    return 1 if failed else 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.resilience.campaign import (
        CampaignConfig,
        render_report,
        report_json,
        run_campaign,
    )

    config = CampaignConfig(
        seed=args.seed,
        rows=args.rows,
        cols=args.cols,
        generations=args.generations,
        checkpoint_interval=args.checkpoint_interval,
        monitors=not args.no_monitors,
        trial_timeout_seconds=args.trial_timeout,
    )
    recorder = _telemetry_recorder(args)
    report = run_campaign(config, recorder=recorder)
    if args.format == "json":
        print(report_json(report), end="")
    else:
        print(render_report(report), end="")
    _write_telemetry(
        args,
        recorder,
        seed=args.seed,
        rows=args.rows,
        cols=args.cols,
        generations=args.generations,
        monitors=config.monitors,
    )
    sdc = report["summary"]["silent-data-corruption"]
    return 1 if (config.monitors and sdc) else 0


def _parse_induce(token: str):
    """Parse an ``--induce`` spec: ``KIND:WORKER@GEN[:key=value...]``.

    ``KIND`` is ``kill`` (alias ``crash``), ``stall``, or ``error``;
    optional ``key=value`` suffixes are ``lives=`` (fire for the first N
    incarnations) and ``seconds=`` (stall duration).
    """
    from repro.runtime import InducedFault
    from repro.util.errors import ConfigError

    parts = token.split(":")
    if len(parts) < 2 or "@" not in parts[1]:
        raise ConfigError(
            f"bad --induce spec {token!r}; expected KIND:WORKER@GEN[:key=value...]"
        )
    kind = {"kill": "crash"}.get(parts[0], parts[0])
    worker_s, _, gen_s = parts[1].partition("@")
    options: dict[str, str] = {}
    for part in parts[2:]:
        key, _, value = part.partition("=")
        if key not in ("lives", "seconds"):
            raise ConfigError(f"bad --induce option {part!r} in {token!r}")
        options[key] = value
    extras: dict[str, object] = {}
    try:
        if "lives" in options:
            extras["incarnations"] = int(options["lives"])
        if "seconds" in options:
            extras["seconds"] = float(options["seconds"])
        return InducedFault(
            worker=int(worker_s), generation=int(gen_s), kind=kind, **extras
        )
    except ValueError as exc:
        raise ConfigError(f"bad --induce spec {token!r}: {exc}") from exc


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    from repro.lgca.automaton import LatticeGasAutomaton
    from repro.lgca.observables import total_mass
    from repro.runtime import ModelSpec, SupervisorConfig, supervised_run
    from repro.util.backoff import BackoffPolicy
    from repro.util.tables import Table

    spec = ModelSpec(
        kind=args.model,
        rows=args.rows,
        cols=args.cols,
        boundary=args.boundary,
    )

    recorder = _telemetry_recorder(args)

    def run_direct(rec=None) -> np.ndarray:
        auto = LatticeGasAutomaton(
            spec.build(),
            spec.initial_state(args.density, args.seed),
            backend=args.backend,
            recorder=rec,
        )
        auto.run(args.generations)
        return auto.state.copy()

    from repro.util.errors import ConfigError

    if not args.supervised:
        if args.workers is not None:
            raise ConfigError(
                "--workers is the supervised worker process count and "
                "requires --supervised"
            )
        state = run_direct(recorder)
        table = Table("Direct run", ["quantity", "value"])
        table.add_row("model", args.model)
        table.add_row("grid", f"{args.rows} x {args.cols} ({args.boundary})")
        table.add_row("generations", args.generations)
        table.add_row("backend", args.backend)
        table.add_row("final particles", total_mass(state, spec.num_channels))
        table.print()
        _write_telemetry(
            args,
            recorder,
            model=args.model,
            rows=args.rows,
            cols=args.cols,
            generations=args.generations,
            backend=args.backend,
            supervised=False,
        )
        return 0

    workers_arg = "2" if args.workers is None else str(args.workers)
    if not workers_arg.isdigit():
        raise ConfigError(
            f"supervised runs take an integer --workers process count; "
            f"got {workers_arg!r}"
        )
    num_workers = int(workers_arg)
    config = SupervisorConfig(
        spec=spec,
        generations=args.generations,
        num_workers=num_workers,
        backend=args.backend,
        density=args.density,
        seed=args.seed,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
        watchdog_timeout=args.watchdog_timeout,
        backoff=BackoffPolicy(
            max_retries=args.max_worker_restarts,
            base_delay=args.restart_delay,
            multiplier=2.0,
            max_delay=max(args.restart_delay, 2.0),
            jitter=0.1,
        ),
        max_total_restarts=args.max_restarts,
        deadline_seconds=args.deadline,
        allow_degraded=args.allow_degraded,
        induced=tuple(_parse_induce(t) for t in (args.induce or [])),
    )
    state, report = supervised_run(config, recorder=recorder)
    exit_code = report.exit_code
    bit_identical: bool | None = None
    if args.verify and state is not None and report.outcome == "complete":
        bit_identical = bool(np.array_equal(state, run_direct()))
        if not bit_identical:
            exit_code = 1
    # The supervisor hands back a merged multi-process report (worker
    # spools + coordinator, clock-aligned); fall back to the coordinator
    # snapshot if the merge was unavailable.
    _write_telemetry(
        args,
        recorder,
        report=report.telemetry,
        model=args.model,
        rows=args.rows,
        cols=args.cols,
        generations=args.generations,
        backend=args.backend,
        supervised=True,
        outcome=report.outcome,
    )
    if args.format == "json":
        payload = report.to_dict()
        payload["bit_identical"] = bit_identical
        payload["exit_code"] = exit_code
        print(json.dumps(payload, indent=2, sort_keys=True))
        return exit_code
    table = Table("Supervised run", ["quantity", "value"])
    table.add_row("model", args.model)
    table.add_row("grid", f"{args.rows} x {args.cols} ({args.boundary})")
    table.add_row("generations", f"{report.generations_completed}/{report.generations}")
    table.add_row("workers", num_workers)
    table.add_row("backend", args.backend)
    table.add_row("outcome", report.outcome)
    table.add_row("reason", report.reason)
    table.add_row("restarts", len(report.restarts))
    table.add_row("watchdog kills", report.watchdog_kills)
    if report.degraded_shards:
        table.add_row(
            "degraded shards",
            ", ".join(
                f"worker {d['worker']} rows [{d['row_start']}, {d['row_stop']}) "
                f"at generation {d['generation']}"
                for d in report.degraded_shards
            ),
        )
    if bit_identical is not None:
        table.add_row("vs unsupervised", "bit-exact" if bit_identical else "MISMATCH")
    table.add_row("wall time", f"{report.wall_time_seconds:.2f}s")
    table.print()
    for event in report.restarts:
        print(
            f"restart: worker {event.worker} incarnation {event.incarnation} "
            f"at generation {event.generation} after {event.delay:.2f}s: "
            f"{event.reason}"
        )
    return exit_code


def _cmd_telemetry_summarize(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import TelemetryReport

    report = TelemetryReport.load(args.path)
    if args.json:
        print(json.dumps(report.summary_json(), indent=2, sort_keys=True))
        return 0
    for line in report.summary_lines():
        print(line)
    return 0


def _cmd_telemetry_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.telemetry import TelemetryReport, write_trace

    out = args.output
    if out is None:
        out = str(Path(args.path).with_suffix("")) + ".trace.json"
    report = TelemetryReport.load(args.path)
    count = write_trace(report, out)
    print(f"trace: wrote {count} event(s) to {out}")
    return 0


def _cmd_telemetry_diff(args: argparse.Namespace) -> int:
    from repro.telemetry import diff_payloads, format_deltas
    from repro.telemetry.diff import extract_metrics, load_payload

    base = load_payload(args.base)
    head = load_payload(args.head)
    deltas = diff_payloads(base, head, min_seconds=args.min_seconds)
    _, base_metrics = extract_metrics(base, args.min_seconds)
    _, head_metrics = extract_metrics(head, args.min_seconds)
    threshold = args.fail_on_regression
    print(f"telemetry diff: {args.base} -> {args.head}")
    for line in format_deltas(
        deltas,
        threshold,
        base_only=sorted(set(base_metrics) - set(head_metrics)),
        head_only=sorted(set(head_metrics) - set(base_metrics)),
    ):
        print(line)
    if any(d.regression(threshold) for d in deltas):
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VLSI lattice-engine reproduction toolkit "
        "(Kugelmass, Squier & Steiglitz 1987)",
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="optimal WSA/SPA operating points")
    _add_technology_args(p)
    p.add_argument("--lattice-size", type=int, default=None)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("compare", help="section 6.3 architecture comparison")
    p.add_argument("--lattice-size", type=int, default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("simulate", help="run a lattice gas / engine")
    p.add_argument("--model", choices=("fhp6", "fhp7", "fhp-sat", "hpp"), default="fhp6")
    p.add_argument("--rows", type=int, default=32)
    p.add_argument("--cols", type=int, default=32)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--boundary", choices=("periodic", "null", "reflecting"), default="periodic")
    p.add_argument(
        "--engine",
        choices=("none", "serial", "wsa", "spa", "wsa-e"),
        default="none",
    )
    p.add_argument("--depth", type=int, default=2, help="pipeline depth k")
    p.add_argument("--lanes", type=int, default=4, help="WSA lanes P")
    p.add_argument("--slice-width", type=int, default=8, help="SPA slice width W")
    p.add_argument(
        "--backend",
        choices=("reference", "bitplane"),
        default="reference",
        help="stepping kernels: per-site reference or multi-spin coded "
        "bit-planes; with --engine, only the reference automaton the "
        "engine is checked against",
    )
    _add_telemetry_arg(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bounds", help="evaluate the I/O bound")
    p.add_argument("--dimension", type=int, default=2)
    p.add_argument("--storage", type=float, default=1600)
    p.add_argument("--bandwidth", type=float, default=1e6, help="site values/s")
    p.add_argument("--target-rate", type=float, default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "machines",
        help="the machine registry (and the 1987 machine comparison)",
    )
    p.add_argument("--dimension", type=int, default=2)
    p.set_defaults(func=_cmd_machines)
    msub = p.add_subparsers(dest="machines_command", required=False)
    mp = msub.add_parser("list", help="list registered engine architectures")
    mp.add_argument("--json", action="store_true", help="machine-readable output")
    mp.set_defaults(func=_cmd_machines_list)
    mp = msub.add_parser("describe", help="one machine's design model + capabilities")
    mp.add_argument("name", help="registered machine name (see 'machines list')")
    mp.add_argument("--json", action="store_true", help="machine-readable output")
    mp.add_argument(
        "--lattice-size",
        type=int,
        default=None,
        help="evaluate the design model at this L (default: its natural point)",
    )
    mp.set_defaults(func=_cmd_machines_describe)

    p = sub.add_parser("regimes", help="which architecture wins where")
    p.add_argument(
        "--bandwidth-budget",
        type=float,
        default=None,
        help="main-memory budget in bits/tick (None = unconstrained)",
    )
    p.set_defaults(func=_cmd_regimes)

    p = sub.add_parser("pebble", help="run pebbling schedules vs the bound")
    p.add_argument("--dimension", type=int, default=2)
    p.add_argument("--side", type=int, default=16)
    p.add_argument("--generations", type=int, default=6)
    p.add_argument("--cache", type=int, default=64, help="LRU cache size")
    p.set_defaults(func=_cmd_pebble)

    p = sub.add_parser("viscosity", help="measure FHP shear viscosity")
    p.add_argument("--model", choices=("fhp6", "fhp7", "fhp-sat"), default="fhp6")
    p.add_argument("--size", type=int, default=128)
    p.add_argument("--density", type=float, default=0.2)
    p.add_argument("--amplitude", type=float, default=0.15)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_viscosity)

    p = sub.add_parser("lint", help="run the static design-rule checker")
    p.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    p.add_argument("--format", choices=("text", "json", "github"), default="text")
    p.add_argument("--select", default=None, help="comma-separated rule ids")
    p.add_argument("--ignore", default=None, help="comma-separated rule ids")
    p.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    p.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help="print the long-form rationale for one rule id and exit",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("sanitize", help="run the physics sanitizer")
    p.add_argument(
        "--check",
        action="append",
        default=None,
        help="check group to run (repeatable; default: all)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--list-checks", action="store_true", help="list check groups and exit"
    )
    p.set_defaults(func=_cmd_sanitize)

    p = sub.add_parser("faults", help="run the fault-injection campaign")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rows", type=int, default=16)
    p.add_argument("--cols", type=int, default=16)
    p.add_argument("--generations", type=int, default=8)
    p.add_argument("--checkpoint-interval", type=int, default=4)
    p.add_argument(
        "--no-monitors",
        action="store_true",
        help="disable all monitors (the control arm: faults go undetected)",
    )
    p.add_argument(
        "--trial-timeout",
        type=float,
        default=60.0,
        help="wall-clock seconds per trial before it is aborted",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--json",
        dest="format",
        action="store_const",
        const="json",
        help="shorthand for --format json",
    )
    _add_telemetry_arg(p)
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser(
        "run",
        help="evolve a lattice gas, optionally under process supervision",
    )
    p.add_argument("--model", choices=("fhp6", "fhp7", "fhp-sat", "hpp"), default="fhp6")
    p.add_argument("--rows", type=int, default=64)
    p.add_argument("--cols", type=int, default=64)
    p.add_argument("--generations", type=int, default=32)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--boundary",
        choices=("periodic", "null"),
        default="periodic",
        help="boundary condition (supervision shards rows bit-identically "
        "for these two only)",
    )
    p.add_argument(
        "--backend",
        choices=("reference", "bitplane"),
        default="reference",
        help="stepping kernels, per worker when supervised",
    )
    p.add_argument(
        "--supervised",
        action="store_true",
        help="shard across worker processes under the supervisor",
    )
    p.add_argument(
        "--workers",
        default=None,
        help="worker process count for --supervised (integer, default 2)",
    )
    p.add_argument("--checkpoint-interval", type=int, default=8)
    p.add_argument(
        "--checkpoint-dir",
        default=None,
        help="durable checkpoint directory (default: a private temp dir)",
    )
    p.add_argument(
        "--watchdog-timeout",
        type=float,
        default=10.0,
        help="seconds of silence before a worker is presumed hung",
    )
    p.add_argument(
        "--restart-delay",
        type=float,
        default=0.1,
        help="base restart backoff delay in seconds",
    )
    p.add_argument(
        "--max-worker-restarts",
        type=int,
        default=3,
        help="restarts per worker between checkpoints before it is dropped",
    )
    p.add_argument(
        "--max-restarts",
        type=int,
        default=8,
        help="total restart budget across all workers",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall-clock budget in seconds for the whole run",
    )
    p.add_argument(
        "--allow-degraded",
        action="store_true",
        help="complete (exit 3) with unrecoverable shards frozen at their "
        "last checkpoint instead of failing",
    )
    p.add_argument(
        "--induce",
        action="append",
        default=None,
        metavar="SPEC",
        help="induce a worker fault for testing: KIND:WORKER@GEN"
        "[:lives=N][:seconds=S], KIND in kill|stall|error",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="also run unsupervised and require bit-identical output",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--json",
        dest="format",
        action="store_const",
        const="json",
        help="shorthand for --format json",
    )
    _add_telemetry_arg(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("telemetry", help="inspect telemetry reports")
    tsub = p.add_subparsers(dest="telemetry_command", required=True)
    tp = tsub.add_parser(
        "summarize",
        help="print a digest of a telemetry report written by --telemetry",
    )
    tp.add_argument("path", help="telemetry report JSON file")
    tp.add_argument(
        "--json",
        action="store_true",
        help="machine-readable digest (timer aggregates, span roots, "
        "event/process summaries) instead of text",
    )
    tp.set_defaults(func=_cmd_telemetry_summarize)
    tp = tsub.add_parser(
        "trace",
        help="export a report to Chrome trace-event JSON "
        "(load in chrome://tracing or ui.perfetto.dev)",
    )
    tp.add_argument("path", help="telemetry report JSON file")
    tp.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="trace output path (default: INPUT stem + .trace.json)",
    )
    tp.set_defaults(func=_cmd_telemetry_trace)
    tp = tsub.add_parser(
        "diff",
        help="compare two telemetry/bench reports; exit 1 on perf "
        "regressions past the threshold",
    )
    tp.add_argument("base", help="baseline report JSON (telemetry or BENCH)")
    tp.add_argument("head", help="candidate report JSON (same schema family)")
    tp.add_argument(
        "--fail-on-regression",
        type=float,
        default=10.0,
        metavar="PCT",
        help="regression threshold in percent (default: 10)",
    )
    tp.add_argument(
        "--min-seconds",
        type=float,
        default=0.0,
        metavar="S",
        help="timers with a mean below S never gate (filters scheduler "
        "noise on micro-timers; default 0: everything gates)",
    )
    tp.set_defaults(func=_cmd_telemetry_diff)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
