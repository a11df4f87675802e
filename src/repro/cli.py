"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``
    Simulate one workload on one machine and print the statistics.
``compare``
    Run a workload across the standard machine grid.
``experiment``
    Regenerate one of the paper's figures/tables by name. ``--jobs``
    shards the grid across processes; results are cached on disk
    (``--no-cache`` / ``--cache-dir`` to control).
``campaign``
    Batch engine: ``campaign run`` simulates an ad-hoc workload x
    machine grid; ``campaign status`` (``--json`` for the
    machine-readable snapshot) / ``campaign clear`` inspect and drop
    the persistent result cache.
``serve``
    Long-running campaign daemon: an HTTP JSON API (``POST
    /campaigns``, ``GET /campaigns/<id>[/results]``, ``/healthz``,
    ``/readyz``) over the same result cache, with a crash-safe job
    spool, leased workers and per-client admission quotas — see
    :mod:`repro.sim.service`.
``bench``
    Measure simulator throughput (inst/s per mode), write the
    ``BENCH_throughput.json`` trajectory artifact, and optionally
    ``--check`` for regressions against a committed baseline.
``trace``
    Dump a per-instruction pipeline lifecycle trace in the Kanata
    text format (viewable in the Konata pipeline viewer).
``list``
    List workloads, machines and experiments.
``listing``
    Print a workload's assembly listing.

Diagnostic chatter on stderr honours ``REPRO_LOG=quiet|warn|debug``
(default ``warn``; errors always print). ``run --metrics out.jsonl``
writes the per-interval time-series (:mod:`repro.obs.metrics`), and
``campaign run --profile`` / ``campaign status --profile`` record and
show the per-phase wall-clock breakdown (:mod:`repro.obs.profile`).

``run``, ``compare``, ``experiment`` and ``campaign run`` all accept
the sampling flags ``--sample [MODE]`` (measurement windows over a
fast functional fast-forward: bare ``--sample`` = periodic windows,
``--sample simpoint`` = BBV-clustered representative windows), ``--ff
N`` (fixed-offset window), ``--interval K``, ``--period P``,
``--clusters C`` and ``--bbv-dim D`` — see :mod:`repro.sim.sampling`.

Examples::

    python -m repro run bzip2 --arch msp --banks 16 --predictor tage
    python -m repro run bzip2 --arch msp --sample -n 100000
    python -m repro run gzip --sample simpoint --clusters 4 -n 100000
    python -m repro compare mcf -n 5000
    python -m repro experiment figure8 --jobs 4
    python -m repro experiment figure7 --sample
    python -m repro campaign run --suite specint --machines baseline,msp:16
    python -m repro campaign run --suite all --sample simpoint
    python -m repro campaign status
    python -m repro listing gzip | head -40
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.defaults import EnvConfigError, default_instructions, \
    default_sample_instructions
from repro.obs import human_bytes, log
from repro.pipeline.core_base import SimulationStalled
from repro.sim import SimConfig, simulate
from repro.sim import experiments as exp
from repro.sim.campaign import CampaignError, CampaignInterrupted, \
    CampaignJournal, ResultStore
from repro.sim.sampling import MODES, SamplingError, SamplingParams
from repro.workloads import SPECFP, SPECINT, all_workloads, get_program

EXPERIMENTS = {
    "figure6": lambda n, **kw: exp.figure6(n, **kw).to_table(),
    "figure7": lambda n, **kw: exp.figure7(n, **kw).to_table(),
    "figure8": lambda n, **kw: exp.figure8(n, **kw).to_table(),
    "table2": lambda n, **kw: _format_table2(exp.table2(n, **kw)),
    "figure9": lambda n, **kw: _format_figure9(exp.figure9(n, **kw)),
    "table3": lambda n, **kw: _format_table3(),
    "lcs": lambda n, **kw: exp.ablation_lcs_delay(
        instructions=n, **kw).to_table(),
    "rename": lambda n, **kw: exp.ablation_rename_width(
        instructions=n, **kw).to_table(),
    "cpr-registers": lambda n, **kw: exp.ablation_cpr_registers(
        instructions=n, **kw).to_table(),
}


def _format_table2(rows) -> str:
    lines = ["== Table II: original vs modified kernels (TAGE)"]
    for key, row in rows.items():
        cells = {k: v for k, v in row.items()
                 if k not in ("loops_unrolled", "exec_time_pct")}
        body = "  ".join(f"{k}={v:.3f}" for k, v in cells.items())
        lines.append(f"{key:40s} {body}")
    return "\n".join(lines)


def _format_figure9(data) -> str:
    lines = ["== Figure 9: executed-instruction breakdown"]
    for bench, cells in data.items():
        lines.append(bench)
        for machine, row in cells.items():
            lines.append(
                f"  {machine:18s} correct={row['correct_path']:7d} "
                f"reexec={row['correct_path_reexecuted']:6d} "
                f"wrong={row['wrong_path']:6d}")
    summary = exp.figure9_summary(data)
    for predictor, reduction in summary.items():
        lines.append(f"16-SP executes {100 * reduction:.1f}% fewer "
                     f"instructions than CPR ({predictor})")
    return "\n".join(lines)


def _format_table3() -> str:
    from repro.power import section51_area, table3
    lines = ["== Table III: register-file access power (mW | FO4)"]
    for tech, rows in table3().items():
        lines.append(tech)
        for config, row in rows.items():
            lines.append(f"  {config:34s} "
                         f"W {row['write_power_mw']:5.2f}|"
                         f"{row['write_time_fo4']:4.2f}  "
                         f"R {row['read_power_mw']:5.2f}|"
                         f"{row['read_time_fo4']:4.2f}")
    area = section51_area()
    lines.append(f"Sec 5.1 area (45nm): MSP "
                 f"{area['msp_512_banked_mm2']:.3f} mm^2, CPR "
                 f"{area['cpr_256_fullport_mm2']:.3f} mm^2")
    return "\n".join(lines)


def _config_from_args(args) -> SimConfig:
    if args.arch == "baseline":
        return SimConfig.baseline(predictor=args.predictor)
    if args.arch == "cpr":
        return SimConfig.cpr(predictor=args.predictor,
                             registers=args.registers)
    if args.arch == "msp":
        return SimConfig.msp(args.banks, predictor=args.predictor,
                             arbitration=not args.no_arbitration)
    if args.arch == "ideal":
        return SimConfig.msp_ideal(predictor=args.predictor)
    raise SystemExit(f"unknown architecture {args.arch!r}")


def _standard_grid(predictor: str) -> List[SimConfig]:
    return [SimConfig.baseline(predictor=predictor),
            SimConfig.cpr(predictor=predictor),
            SimConfig.msp(8, predictor=predictor),
            SimConfig.msp(16, predictor=predictor),
            SimConfig.msp_ideal(predictor=predictor)]


def _get_program_or_exit(name: str):
    """Friendly lookup: unknown names print one line, not a traceback."""
    try:
        return get_program(name)
    except ValueError:
        log(f"unknown workload {name!r}; choose from "
            f"{' '.join(all_workloads())}", "error")
        raise SystemExit(2)


def _sampling_from_args(args) -> "SamplingParams":
    """--sample/--ff/--interval/--period combined with REPRO_SAMPLE*.
    Invalid schedules print one line (no traceback) and exit 2."""
    try:
        return SamplingParams.from_cli(
            sample=getattr(args, "sample", False),
            ff=getattr(args, "ff", None),
            interval=getattr(args, "interval", None),
            period=getattr(args, "period", None),
            clusters=getattr(args, "clusters", None),
            bbv_dim=getattr(args, "bbv_dim", None))
    except SamplingError as exc:
        log(f"bad sampling parameters: {exc}", "error")
        raise SystemExit(2)


def _budget(args, sampling) -> int:
    """-n/--instructions, or the shared defaults (sampled runs default
    to a ~30x larger represented budget)."""
    if args.instructions is not None:
        return args.instructions
    return (default_sample_instructions() if sampling
            else default_instructions())


def cmd_run(args) -> int:
    config = _config_from_args(args)
    sampling = _sampling_from_args(args)
    budget = _budget(args, sampling)
    metrics = None
    if args.metrics:
        metrics = args.metrics_interval if args.metrics_interval else True
    try:
        stats = simulate(_get_program_or_exit(args.workload), config,
                         max_instructions=budget, sampling=sampling,
                         metrics=metrics)
    except SamplingError as exc:
        log(f"bad sampling parameters: {exc}", "error")
        return 2
    print(f"{args.workload} on {config.label} "
          f"({budget} instructions"
          f"{', sampled ' + sampling.mode if sampling else ''})")
    for key, value in stats.summary().items():
        print(f"  {key:24s} {value}")
    if stats.bank_stall_cycles:
        from repro.isa import reg_name
        top = ", ".join(f"{reg_name(r)}={c}"
                        for r, c in stats.top_bank_stalls(3))
        print(f"  {'top_bank_stalls':24s} {top}")
    if args.metrics:
        rows = getattr(stats, "interval_metrics", None) or []
        with open(args.metrics, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True))
                fh.write("\n")
        log(f"metrics: {len(rows)} interval row(s) -> {args.metrics}")
    return 0


def cmd_compare(args) -> int:
    program = _get_program_or_exit(args.workload)
    sampling = _sampling_from_args(args)
    budget = _budget(args, sampling)
    print(f"{'machine':>12s} {'IPC':>7s} {'mispred':>8s} "
          f"{'reexec':>7s} {'wrong':>7s}")
    for config in _standard_grid(args.predictor):
        try:
            stats = simulate(program, config, max_instructions=budget,
                             sampling=sampling)
        except SamplingError as exc:
            log(f"bad sampling parameters: {exc}", "error")
            return 2
        print(f"{config.label:>12s} {stats.ipc:7.3f} "
              f"{stats.misprediction_rate:8.3f} "
              f"{stats.correct_path_reexecuted:7d} "
              f"{stats.wrong_path_executed:7d}")
    return 0


#: Experiments that bypass the campaign engine (analytic models only).
NON_CAMPAIGN_EXPERIMENTS = {"table3"}


def _campaign_kwargs(args) -> dict:
    """Shared --jobs/--no-cache/--cache-dir/--timeout/--sample
    plumbing."""
    return dict(jobs=args.jobs, cache_dir=args.cache_dir,
                use_cache=False if args.no_cache else None,
                timeout=args.timeout, retries=args.retries,
                sampling=_sampling_from_args(args),
                checkpoints=False if args.no_checkpoints else None)


def cmd_experiment(args) -> int:
    if args.name not in EXPERIMENTS:
        log(f"unknown experiment {args.name!r}; "
            f"choose from {' '.join(sorted(EXPERIMENTS))}", "error")
        return 2
    campaign = _campaign_kwargs(args)
    simulated = 0

    def _progress(line: str) -> None:
        nonlocal simulated
        simulated += 1
        if args.verbose:
            log(line)

    campaign["progress"] = _progress
    try:
        text = EXPERIMENTS[args.name](args.instructions, **campaign)
    except SamplingError as exc:
        log(f"bad sampling parameters: {exc}", "error")
        return 2
    except CampaignInterrupted as exc:
        return _interrupted_exit(exc)
    except CampaignError as exc:
        log(f"campaign failed: {exc}", "error")
        return 1
    if (args.name not in NON_CAMPAIGN_EXPERIMENTS
            and not args.no_cache and simulated == 0):
        # Make it visible that nothing was simulated, so stale-looking
        # numbers are traceable to the cache rather than the simulator.
        log("cache: all cells served from the result cache "
            "(--no-cache to resimulate)")
    print(text)
    return 0


def cmd_list(args) -> int:
    print("workloads (specint):", " ".join(SPECINT))
    print("workloads (specfp): ", " ".join(SPECFP))
    modified = [w for w in all_workloads() if w.endswith("_mod")]
    print("modified (Table II):", " ".join(modified))
    print("architectures: baseline cpr msp ideal")
    print("experiments:", " ".join(sorted(EXPERIMENTS)))
    return 0


def cmd_listing(args) -> int:
    print(_get_program_or_exit(args.workload).listing())
    return 0


# --------------------------------------------------------------------- #
# campaign: batch engine + persistent result cache.
# --------------------------------------------------------------------- #

_SUITES = {"specint": SPECINT, "specfp": SPECFP}


def _machine_from_token(token: str, predictor: str) -> SimConfig:
    """Parse a --machines token: baseline | cpr[:regs] | msp:n | ideal.
    Shares :meth:`SimConfig.from_token` with the service API so both
    surfaces speak (and reject) the same grammar."""
    try:
        return SimConfig.from_token(token, predictor=predictor)
    except ValueError as exc:
        log(str(exc), "error")
        raise SystemExit(2)


def _interrupted_exit(exc: CampaignInterrupted) -> int:
    """Conventional 128+signum exit for a drained campaign."""
    import signal as _signal
    log(f"campaign interrupted: {exc}", "warn")
    try:
        return 128 + _signal.Signals[exc.signal_name].value
    except KeyError:
        return 130


def cmd_campaign_run(args) -> int:
    if args.resume and args.no_cache:
        log("--resume needs the result cache and journal; "
            "drop --no-cache", "error")
        return 2
    if args.workloads:
        benchmarks = args.workloads.split(",")
        for name in benchmarks:
            _get_program_or_exit(name)
    else:
        benchmarks = []
        for suite in (_SUITES if args.suite == "all"
                      else [args.suite]):
            benchmarks += _SUITES[suite]
    configs = [_machine_from_token(token, args.predictor)
               for token in args.machines.split(",")]
    campaign = _campaign_kwargs(args)
    campaign["profile"] = True if args.profile else None
    campaign["resume"] = args.resume
    if args.verbose:
        campaign["progress"] = lambda line: log(line)
    try:
        result = exp.run_grid(
            "campaign", benchmarks, configs, args.instructions,
            **campaign)
    except SamplingError as exc:
        log(f"bad sampling parameters: {exc}", "error")
        return 2
    except CampaignInterrupted as exc:
        return _interrupted_exit(exc)
    except CampaignError as exc:
        log(f"campaign failed: {exc}", "error")
        return 1
    if result.cache_hits:
        log(f"cache: {result.cache_hits} hit(s), "
            f"{result.simulated} simulated")
    if result.retried_attempts or result.quarantined:
        log(f"faults: {result.retried_attempts} retried attempt(s), "
            f"{result.quarantined} quarantined job(s)")
    if result.checkpoint_hits or result.ff_skipped or result.ff_executed:
        # Checkpoint-store provenance: `ff executed 0` is the proof a
        # warm grid paid no functional execution at all.
        log(f"checkpoints: {result.checkpoint_hits} window hit(s), "
            f"ff executed {result.ff_executed}, "
            f"skipped {result.ff_skipped}")
    if result.phase is not None and result.phase.seconds:
        log("phases (wall-clock per simulation layer):")
        log(result.phase.format(indent="  "))
    print(result.to_table())
    return 0


def cmd_bench(args) -> int:
    from repro.sim import bench
    baseline = None
    if args.check:
        # A --check run with no usable baseline is a hard error, not a
        # skipped check: silently passing would let the run write a
        # fresh record (the default --output equals --baseline) and
        # self-ratify whatever rates it happened to measure.  Validate
        # *before* measuring — the benchmark takes minutes and would be
        # wasted on a baseline that can never gate.
        try:
            baseline = bench.load_json(args.baseline)
        except FileNotFoundError:
            log(f"bench: --check needs a committed baseline but "
                f"{args.baseline} does not exist; generate one with "
                f"`repro bench --output {args.baseline}` (no --check) "
                f"and commit it", "error")
            return 1
        except json.JSONDecodeError:
            log(f"bench: --check baseline {args.baseline} is empty or "
                f"not valid JSON; regenerate it with `repro bench "
                f"--output {args.baseline}` (no --check) and commit it",
                "error")
            return 1
        modes_present = (baseline.get("modes")
                         if isinstance(baseline, dict) else None) or {}
        if not any(mode in modes_present for mode in bench.GATED_MODES):
            log(f"bench: --check baseline {args.baseline} records none "
                f"of the gated modes {list(bench.GATED_MODES)}; "
                f"regenerate it with `repro bench --output "
                f"{args.baseline}` (no --check) and commit it", "error")
            return 1
    modes = list(bench.MODES)
    if args.ref:
        modes += list(bench.REFERENCE_MODES)
    emulate_n = args.instructions or 200_000
    record = bench.measure(
        workload=args.workload, emulate_n=emulate_n,
        detail_n=max(1000, emulate_n // 10), sampled_n=emulate_n,
        modes=modes, repeats=args.repeats)
    print(bench.format_table(record))
    failures = []
    if args.check:
        failures = bench.check_regressions(record, baseline,
                                           tolerance=args.tolerance)
    if failures:
        # Never persist a failing record: the default --output equals
        # the default --baseline, so writing here would replace the
        # committed baseline with the regressed rates and make the
        # regression self-ratifying on the next run.
        for failure in failures:
            log(f"bench: {failure}", "error")
        if args.output:
            log(f"bench: not writing {args.output} "
                f"(regression check failed)", "error")
        return 1
    if args.output:
        bench.write_json(args.output, record)
        print(f"wrote {args.output}")
    return 0


def cmd_campaign_status(args) -> int:
    from repro.sim.artifacts import ArtifactStore
    if getattr(args, "json", False):
        from repro.sim.campaign.status import status_snapshot
        print(json.dumps(status_snapshot(args.cache_dir),
                         sort_keys=True, indent=2))
        return 0
    status = ResultStore(args.cache_dir).status()
    print(f"cache   {status['path']}")
    print(f"entries {status['entries']}")
    print(f"bytes   {status['bytes']} ({human_bytes(status['bytes'])})")
    artifacts = ArtifactStore(args.cache_dir).status()
    kinds = ", ".join(f"{kind} {count}" for kind, count
                      in sorted(artifacts["kinds"].items()))
    print(f"artifacts {artifacts['path']}")
    print(f"  blobs  {artifacts['blobs']}"
          + (f" ({kinds})" if kinds else ""))
    print(f"  bytes  {artifacts['bytes']} "
          f"({human_bytes(artifacts['bytes'])})")
    print(f"  hits   {artifacts['hits']}")
    print(f"  misses {artifacts['misses']}")
    journal = CampaignJournal(args.cache_dir)
    receipts = journal.receipts()
    if receipts:
        counts = journal.summary()
        print(f"journal {journal.path}")
        print(f"  receipts {len(receipts)} "
              f"(ok {counts['ok']}, retried {counts['retried']}, "
              f"quarantined {counts['quarantined']})")
        for receipt in receipts.values():
            if receipt.outcome == "quarantined":
                print(f"  quarantined {receipt.label}: "
                      f"{receipt.error_class} after "
                      f"{receipt.attempts} attempt(s)")
    if args.profile:
        from repro.obs import PhaseProfile
        from repro.sim.campaign import profile_path
        path = profile_path(args.cache_dir)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            print("no phase profile recorded (enable with "
                  "`campaign run --profile` or REPRO_PROFILE=1)")
            return 0
        print(f"phases  {path}")
        print(PhaseProfile.from_dict(data).format(indent="  "))
    return 0


def cmd_trace(args) -> int:
    from repro.obs import PipelineTracer, to_kanata
    from repro.sim.runner import build_core
    program = _get_program_or_exit(args.workload)
    config = _config_from_args(args)
    if args.scheduler:
        config = config.with_(scheduler=args.scheduler)
    budget = (args.instructions if args.instructions is not None
              else default_instructions())
    tracer = PipelineTracer(limit=args.limit)
    core = build_core(program, config)
    core.attach_tracer(tracer)
    stats = core.run(max_instructions=budget)
    text = to_kanata(tracer.events)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    dropped = (f", {tracer.dropped} dropped at --limit"
               if tracer.dropped else "")
    log(f"trace: {args.workload} on {config.label}: "
        f"{stats.committed} committed, {stats.cycles} cycles, "
        f"{len(tracer.events)} events{dropped}")
    return 0


def cmd_campaign_clear(args) -> int:
    dropped = ResultStore(args.cache_dir).clear()
    CampaignJournal(args.cache_dir).clear()
    print(f"cleared {dropped} cached result(s)")
    if args.artifacts:
        from repro.sim.artifacts import ArtifactStore
        blobs = ArtifactStore(args.cache_dir).clear()
        print(f"cleared {blobs} checkpoint blob(s)")
    return 0


def cmd_serve(args) -> int:
    """Run the campaign daemon until SIGTERM/SIGINT (or --ttl)."""
    import signal as _signal
    import threading as _threading
    from repro.sim.service import CampaignService, make_server

    service = CampaignService(
        cache_dir=args.cache_dir, workers=args.jobs,
        lease_ttl=args.lease_ttl, queue_cap=args.queue_cap,
        timeout=args.timeout, retries=args.retries)
    try:
        server = make_server(service, host=args.host, port=args.port)
    except OSError as exc:
        log(f"serve: cannot bind {args.host or ''}:"
            f"{args.port if args.port is not None else ''}: {exc}",
            "error")
        return 2
    service.start()
    host, port = server.server_address[:2]
    print(f"repro serve: listening on http://{host}:{port} "
          f"(cache {service.cache_dir}, "
          f"{service.workers_wanted} worker(s), "
          f"lease TTL {service.leases.ttl:g}s)", flush=True)

    def _shutdown(signum, frame) -> None:
        # serve_forever() can't be stopped from its own thread's
        # signal frame; hand the shutdown to a helper thread.
        _threading.Thread(target=server.shutdown, daemon=True).start()

    _signal.signal(_signal.SIGINT, _shutdown)
    _signal.signal(_signal.SIGTERM, _shutdown)
    if args.ttl:
        _threading.Timer(args.ttl, server.shutdown).start()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
        service.stop()
        log("serve: stopped")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-State Processor reproduction (MICRO 2008)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sampling_flags(p):
        p.add_argument("--sample", nargs="?", const="periodic",
                       default=False, choices=list(MODES),
                       metavar="MODE",
                       help="sampled simulation: detailed windows over "
                            "a fast functional fast-forward. Bare "
                            "--sample = SMARTS-style periodic windows; "
                            "--sample simpoint = BBV phase clustering "
                            "with one representative window per "
                            f"cluster (choices: {', '.join(MODES)})")
        p.add_argument("--ff", type=int, default=None, metavar="N",
                       help="fast-forward N instructions functionally "
                            "before measuring (alone: one fixed-offset "
                            "window; with --sample: initial skip)")
        p.add_argument("--interval", type=int, default=None, metavar="K",
                       help="detailed instructions per measurement "
                            "window (implies sampling)")
        p.add_argument("--period", type=int, default=None, metavar="P",
                       help="one window per P committed instructions "
                            "(implies sampling)")
        p.add_argument("--clusters", type=int, default=None,
                       metavar="C",
                       help="simpoint: phase clusters / representative "
                            "windows (enables simpoint unless --sample "
                            "or REPRO_SAMPLE already chose a schedule; "
                            "default 4, REPRO_SAMPLE_CLUSTERS)")
        p.add_argument("--bbv-dim", type=int, default=None, metavar="D",
                       help="simpoint: random-projection dimension of "
                            "the interval basic-block vectors (enables "
                            "simpoint unless --sample or REPRO_SAMPLE "
                            "already chose a schedule; default 32, "
                            "REPRO_SAMPLE_BBV_DIM)")

    def add_machine_flags(p):
        p.add_argument("--arch", default="msp",
                       choices=["baseline", "cpr", "msp", "ideal"])
        p.add_argument("--banks", type=int, default=16,
                       help="MSP registers per logical-register bank")
        p.add_argument("--registers", type=int, default=192,
                       help="CPR physical registers per class")
        p.add_argument("--no-arbitration", action="store_true",
                       help="drop the MSP arbitration stage")

    def add_common(p, with_arch=True):
        p.add_argument("workload", help="workload name (see `list`)")
        p.add_argument("-n", "--instructions", type=int, default=None,
                       help="committed-instruction budget (default: "
                            "REPRO_INSTRUCTIONS or 3000; ~30x that "
                            "for sampled runs)")
        p.add_argument("--predictor", default="tage",
                       choices=["gshare", "tage", "bimodal"])
        add_sampling_flags(p)
        if with_arch:
            add_machine_flags(p)

    p_run = sub.add_parser("run", help="simulate one workload")
    add_common(p_run)
    p_run.add_argument("--metrics", default=None, metavar="PATH",
                       help="write the per-interval time-series (IPC, "
                            "MPKI, window occupancy) as JSON lines")
    p_run.add_argument("--metrics-interval", type=int, default=None,
                       metavar="N",
                       help="committed instructions per metrics "
                            "interval on full-detail runs (default: "
                            "budget/50; sampled runs always record one "
                            "row per measurement window)")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run the machine grid")
    add_common(p_cmp, with_arch=False)
    p_cmp.set_defaults(func=cmd_compare)

    def add_campaign_flags(p):
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: REPRO_JOBS or 1)")
        p.add_argument("--no-cache", action="store_true",
                       help="skip the persistent result cache")
        p.add_argument("--cache-dir", default=None,
                       help="result-cache directory "
                            "(default: REPRO_CACHE_DIR or ~/.cache/repro)")
        p.add_argument("--timeout", type=float, default=None,
                       help="per-job timeout in seconds")
        p.add_argument("--retries", type=int, default=None,
                       help="retries per job on transient failures "
                            "(lost worker, timeout, disk error; "
                            "default: REPRO_RETRIES or 1)")
        p.add_argument("--no-checkpoints", action="store_true",
                       help="skip the checkpoint/profile store sampled "
                            "cells use to share functional execution "
                            "(default: REPRO_CHECKPOINTS)")
        add_sampling_flags(p)

    p_exp = sub.add_parser("experiment", help="regenerate a figure/table")
    p_exp.add_argument("name", help="e.g. figure6, table3")
    p_exp.add_argument("-n", "--instructions", type=int, default=None)
    p_exp.add_argument("-v", "--verbose", action="store_true",
                       help="print per-simulation progress to stderr")
    add_campaign_flags(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_camp = sub.add_parser(
        "campaign", help="batch simulation engine and result cache")
    camp_sub = p_camp.add_subparsers(dest="campaign_command",
                                     required=True)

    p_crun = camp_sub.add_parser(
        "run", help="simulate a workload x machine grid")
    p_crun.add_argument("--suite", default="specint",
                        choices=["specint", "specfp", "all"])
    p_crun.add_argument("--workloads", default=None,
                        help="comma-separated list (overrides --suite)")
    p_crun.add_argument("--machines", default="baseline,cpr,msp:16,ideal",
                        help="comma-separated: baseline cpr cpr:<regs> "
                             "msp:<banks> ideal")
    p_crun.add_argument("--predictor", default="tage",
                        choices=["gshare", "tage", "bimodal"])
    p_crun.add_argument("-n", "--instructions", type=int, default=None)
    p_crun.add_argument("-v", "--verbose", action="store_true",
                        help="print per-cell progress to stderr")
    p_crun.add_argument("--profile", action="store_true",
                        help="time each fresh cell's ff/warmup/detail/"
                             "store phases and print the merged "
                             "breakdown (also REPRO_PROFILE=1)")
    p_crun.add_argument("--resume", action="store_true",
                        help="continue an interrupted campaign: "
                             "execute only the grid cells missing from "
                             "the result cache (see journal.jsonl)")
    add_campaign_flags(p_crun)
    p_crun.set_defaults(func=cmd_campaign_run)

    p_cstat = camp_sub.add_parser("status", help="show the result cache")
    p_cstat.add_argument("--cache-dir", default=None)
    p_cstat.add_argument("--profile", action="store_true",
                         help="also show the accumulated phase profile "
                              "(profile.json) for this cache")
    p_cstat.add_argument("--json", action="store_true",
                         help="machine-readable snapshot (cache, "
                              "artifacts, journal, phases) on stdout")
    p_cstat.set_defaults(func=cmd_campaign_status)

    p_cclear = camp_sub.add_parser("clear", help="drop cached results")
    p_cclear.add_argument("--cache-dir", default=None)
    p_cclear.add_argument("--artifacts", action="store_true",
                          help="also purge the checkpoint/profile blobs")
    p_cclear.set_defaults(func=cmd_campaign_clear)

    p_bench = sub.add_parser(
        "bench", help="measure simulator throughput (inst/s per mode)")
    p_bench.add_argument("--workload", default="gzip",
                         help="workload to time (default gzip)")
    p_bench.add_argument("-n", "--instructions", type=int, default=None,
                         help="fast-forward/sampled budget "
                              "(default 200000; detailed runs 1/10th)")
    p_bench.add_argument("--repeats", type=int, default=1,
                         help="runs per mode; best rate wins (default 1)")
    p_bench.add_argument("--ref", action="store_true",
                         help="also time the reference step()/observer "
                              "paths for an in-place speedup comparison")
    p_bench.add_argument("-o", "--output", default="BENCH_throughput.json",
                         metavar="PATH",
                         help="write the JSON record here (empty string "
                              "to skip; default BENCH_throughput.json)")
    p_bench.add_argument("--check", action="store_true",
                         help="fail (exit 1) if ff+warmup inst/s "
                              "regressed vs --baseline beyond --tolerance")
    p_bench.add_argument("--baseline", default="BENCH_throughput.json",
                         help="baseline JSON for --check "
                              "(default BENCH_throughput.json)")
    p_bench.add_argument("--tolerance", type=float, default=0.30,
                         help="allowed fractional regression for --check "
                              "(default 0.30)")
    p_bench.set_defaults(func=cmd_bench)

    p_trace = sub.add_parser(
        "trace", help="dump a pipeline trace (Kanata text format)")
    p_trace.add_argument("workload", help="workload name (see `list`)")
    p_trace.add_argument("-n", "--instructions", type=int, default=None,
                         help="committed-instruction budget (default: "
                              "REPRO_INSTRUCTIONS or 3000)")
    p_trace.add_argument("--predictor", default="tage",
                         choices=["gshare", "tage", "bimodal"])
    add_machine_flags(p_trace)
    p_trace.add_argument("--scheduler", default=None,
                         choices=["event", "scan"],
                         help="force a detailed-core scheduler (the two "
                              "produce byte-identical traces; default: "
                              "the config's)")
    p_trace.add_argument("-o", "--output", default=None, metavar="PATH",
                         help="write the trace here (default: stdout)")
    p_trace.add_argument("--limit", type=int, default=None, metavar="N",
                         help="max recorded trace events (default: "
                              "REPRO_TRACE_LIMIT or 2000000)")
    p_trace.set_defaults(func=cmd_trace)

    p_serve = sub.add_parser(
        "serve", help="run the campaign service daemon",
        description="Long-running campaign daemon: JSON API over a "
                    "crash-safe job spool with leased workers. "
                    "kill -9 safe: restart on the same --cache-dir "
                    "and accepted campaigns complete bit-identical.")
    p_serve.add_argument("--host", default=None,
                         help="bind address (REPRO_SERVICE_HOST, "
                              "default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=None,
                         help="bind port (REPRO_SERVICE_PORT, default "
                              "8023; 0 = ephemeral)")
    p_serve.add_argument("--cache-dir", default=None)
    p_serve.add_argument("--jobs", type=int, default=None,
                         help="worker processes (REPRO_JOBS)")
    p_serve.add_argument("--timeout", type=float, default=None,
                         help="per-job wall-clock timeout in seconds")
    p_serve.add_argument("--retries", type=int, default=None,
                         help="transient-failure retries per job "
                              "(REPRO_RETRIES)")
    p_serve.add_argument("--lease-ttl", type=float, default=None,
                         help="seconds without a heartbeat before a "
                              "job lease expires (REPRO_LEASE_TTL)")
    p_serve.add_argument("--queue-cap", type=int, default=None,
                         help="max undone jobs before 429 "
                              "backpressure (REPRO_QUEUE_CAP)")
    p_serve.add_argument("--ttl", type=float, default=None,
                         help="exit after this many seconds "
                              "(smoke-test convenience)")
    p_serve.set_defaults(func=cmd_serve)

    p_list = sub.add_parser("list", help="list workloads and experiments")
    p_list.set_defaults(func=cmd_list)

    p_lst = sub.add_parser("listing", help="print a workload's assembly")
    p_lst.add_argument("workload")
    p_lst.set_defaults(func=cmd_listing)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SamplingError, EnvConfigError) as exc:
        # Malformed configuration that surfaced past the per-command
        # handlers (e.g. a non-integer REPRO_* knob): one line, no
        # traceback, same convention as every other input error.
        # Internal simulator ValueErrors are NOT caught here — an
        # invariant violation must keep its traceback.
        log(f"error: {exc}", "error")
        return 2
    except SimulationStalled as exc:
        log(f"simulation stalled: {exc}", "error")
        return 1
    except BrokenPipeError:
        # Piping into `head` is an advertised pattern (module docstring).
        # Point both standard streams at devnull so the shutdown flush
        # stays quiet, and exit with the conventional SIGPIPE status —
        # never 0, since the command may have been mid-error.
        import os
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.dup2(devnull, sys.stderr.fileno())
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
