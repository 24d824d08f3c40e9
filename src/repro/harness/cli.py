"""Command-line entry point: regenerate any table/figure of the paper.

Examples::

    kdd-repro list
    kdd-repro run fig6 --scale 0.01
    kdd-repro run all --jobs 4 --cache-dir .sweep-cache
    kdd-repro run fig5 --jobs 4 --cache-dir .sweep-cache --force
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from ..errors import ConfigError, ReproError
from .figures import ALL_FIGURES, DEFAULT_SCALE
from .sweep import SweepEngine, SweepProgress


def main(argv: list[str] | None = None) -> int:
    # Delegate `kdd-repro analyze ...` wholesale to the analyzer CLI
    # before argparse sees the arguments (REMAINDER would swallow
    # leading options like --format otherwise).
    args_in = sys.argv[1:] if argv is None else argv
    if args_in[:1] == ["analyze"]:
        from ..devtools.analyze.cli import main as analyze_main

        return analyze_main(args_in[1:])

    parser = argparse.ArgumentParser(
        prog="kdd-repro",
        description="Reproduce the evaluation of 'Improving RAID Performance "
        "Using an Endurable SSD Cache' (ICPP 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available tables/figures")
    # The sweep-engine flags every sweeping subcommand shares; read back
    # by _sweep_engine.
    sweep_flags = argparse.ArgumentParser(add_help=False)
    sweep_flags.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes for the sweep engine; rows are identical "
        "for any job count (default %(default)s)",
    )
    sweep_flags.add_argument(
        "--cache-dir",
        default=os.environ.get("REPRO_SWEEP_CACHE"),
        help="directory for the on-disk sweep result cache; already-"
        "computed cells are skipped on re-runs (default: $REPRO_SWEEP_CACHE, "
        "else no cache)",
    )
    sweep_flags.add_argument(
        "--force",
        action="store_true",
        help="recompute every cell even if cached (refreshes the cache)",
    )
    sweep_flags.add_argument(
        "--progress",
        action="store_true",
        help="print one line per finished sweep cell",
    )
    run = sub.add_parser("run", parents=[sweep_flags],
                         help="regenerate one or more tables/figures")
    run.add_argument("figures", nargs="+", help="figure ids (or 'all')")
    run.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help="workload scale factor for trace-driven figures (default %(default)s)",
    )
    run.add_argument("--seed", type=int, default=0)

    sub.add_parser(
        "analyze",
        help="static analysis: determinism/taxonomy rules, layering "
        "contract, unit/RNG taint, exception-flow, effect and columnar "
        "contracts; exports the import graph",
        add_help=False,
    )

    faults = sub.add_parser(
        "faults",
        parents=[sweep_flags],
        help="fault-injection sweep: fault rate x retry policy through the "
        "timing simulator (deterministic for any --jobs)",
    )
    faults.add_argument("--policy", default="kdd",
                        help="cache policy under test (default %(default)s)")
    faults.add_argument("--rates", default="0,0.001,0.01",
                        help="comma-separated URE rates per page read "
                        "(default %(default)s)")
    faults.add_argument("--timeout-rates", default="0.005",
                        help="comma-separated timeout rates per command "
                        "(default %(default)s)")
    faults.add_argument("--retries", default="none,fixed,backoff",
                        help="comma-separated retry policies "
                        "(default %(default)s)")
    faults.add_argument("--requests", type=int, default=2000,
                        help="requests per cell (default %(default)s)")
    faults.add_argument("--universe-pages", type=int, default=1 << 14,
                        help="workload address-space size in pages "
                        "(default %(default)s)")
    faults.add_argument("--cache-pages", type=int, default=512,
                        help="cache size in pages (default %(default)s)")
    faults.add_argument(
        "--events-out", default=None, metavar="PATH",
        help="write the deterministic vulnerability-window demo event log "
        "(fresh-stripe URE reconstructs; stale-stripe URE degrades until "
        "the cleaner repairs parity) as JSON",
    )
    faults.add_argument(
        "--op-trace", default=None, metavar="PATH",
        help="run one derandomized fault-injected replay with op-level "
        "instrumentation and write the per-op trace (device, kind, "
        "submitted/start/finish, queue delay, residual fault) as JSONL",
    )

    rel = sub.add_parser(
        "reliability",
        parents=[sweep_flags],
        help="sweep cleaner/scrubber/rebuild knobs, measure the "
        "vulnerability-window exposure, and cross-check the Monte-Carlo "
        "data-loss estimate against the analytic Markov MTTDL",
    )
    rel.add_argument("--scrub-periods", default="0,25",
                     help="comma-separated scrub periods in accesses, "
                     "0 = scrubbing off (default %(default)s)")
    rel.add_argument("--dirty-thresholds", default="0.35,0.75",
                     help="comma-separated cleaner dirty thresholds; the "
                     "low watermark follows at half the threshold "
                     "(default %(default)s)")
    rel.add_argument("--rebuild-priorities", default="1.0",
                     help="comma-separated rebuild-rate multipliers "
                     "(default %(default)s)")
    rel.add_argument("--accesses", type=int, default=2000,
                     help="measured workload length per cell "
                     "(default %(default)s)")
    rel.add_argument("--universe-pages", type=int, default=256,
                     help="workload address-space size in pages "
                     "(default %(default)s)")
    rel.add_argument("--cache-pages", type=int, default=64,
                     help="cache size in pages (default %(default)s)")
    rel.add_argument("--trials", type=int, default=4000,
                     help="Monte-Carlo trials per cell (default %(default)s)")
    rel.add_argument("--iops", type=float, default=2.0e4,
                     help="IOPS figure mapping accesses to wall time "
                     "(default %(default)s)")
    rel.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="write the full nested report (exposure / scrub / params / "
        "markov / monte_carlo blocks per cell) as JSON",
    )

    serve = sub.add_parser(
        "serve",
        parents=[sweep_flags],
        help="multi-tenant serving sweep: compose N tenant streams onto one "
        "array and compare static vs dynamic per-tenant cache partitioning "
        "(deterministic for any --jobs)",
    )
    serve.add_argument("--policy", default="wt",
                       help="cache policy per tenant (default %(default)s; "
                       "dynamic partitioning needs a clean-line policy)")
    serve.add_argument("--tenants", type=int, default=8,
                       help="tenant streams in the fleet (default %(default)s)")
    serve.add_argument("--cache-pages", type=int, default=2048,
                       help="total SSD cache pages split across tenants "
                       "(default %(default)s)")
    serve.add_argument("--universe-pages", type=int, default=2048,
                       help="per-tenant address-space size in pages "
                       "(default %(default)s)")
    serve.add_argument("--base-iops", type=float, default=50.0,
                       help="per-tenant mean request rate (default %(default)s)")
    serve.add_argument("--duration", type=float, default=1200.0,
                       help="composed-workload duration in seconds "
                       "(default %(default)s)")
    serve.add_argument("--max-requests", type=int, default=None,
                       help="optional hard cap on composed requests")
    serve.add_argument("--epoch", type=float, default=60.0,
                       help="composition epoch in seconds (default %(default)s)")
    serve.add_argument("--diurnal-amplitude", type=float, default=0.9,
                       help="diurnal intensity swing in [0,1); phases are "
                       "spread over the fleet so the hot set rotates "
                       "(default %(default)s)")
    serve.add_argument("--diurnal-period", type=float, default=1200.0,
                       help="diurnal period in seconds (default %(default)s)")
    serve.add_argument("--burst-prob", type=float, default=0.0,
                       help="per-epoch burst probability (default %(default)s)")
    serve.add_argument("--burst-factor", type=float, default=4.0,
                       help="rate multiplier in burst epochs (default %(default)s)")
    serve.add_argument("--plans", default="static,dynamic",
                       help="comma-separated partition plans to compare "
                       "(default %(default)s)")
    serve.add_argument("--realloc-period", type=int, default=2000,
                       help="accesses between dynamic reallocation passes "
                       "(default %(default)s)")
    serve.add_argument("--min-fraction", type=float, default=0.05,
                       help="per-tenant quota floor as a cache fraction "
                       "(default %(default)s)")
    serve.add_argument("--ewma-alpha", type=float, default=0.5,
                       help="hit-density EWMA smoothing (default %(default)s)")
    serve.add_argument("--ways", type=int, default=16,
                       help="cache associativity per tenant directory "
                       "(default %(default)s)")
    serve.add_argument("--flash", action="store_true",
                       help="attach a per-tenant FTL-backed flash model "
                       "(slower; adds per-tenant WAF columns)")
    serve.add_argument("--per-tenant", action="store_true",
                       help="also print the per-tenant fairness/endurance table")
    serve.add_argument("--seed", type=int, default=0,
                       help="composer seed, shared by every plan so static "
                       "and dynamic see the identical composed workload "
                       "(default %(default)s)")
    serve.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="write the full report (aggregate + per-tenant rows per plan) "
        "as JSON",
    )

    simulate = sub.add_parser(
        "simulate", help="run one policy over one workload and print the row"
    )
    simulate.add_argument("policy", help="nossd/wa/wt/wb/leavo/kdd")
    simulate.add_argument(
        "--workload", default="Fin1",
        help="Fin1/Fin2/Hm0/Web0, or a path to an SPC (.spc) / MSR (.csv) file",
    )
    simulate.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                          help="scale for the named synthetic workloads")
    simulate.add_argument("--cache-fraction", type=float, default=0.10,
                          help="cache size as a fraction of the unique footprint")
    simulate.add_argument("--cache-pages", type=int, default=None,
                          help="explicit cache size (overrides --cache-fraction)")
    simulate.add_argument("--compression", type=float, default=0.25,
                          help="mean delta compression ratio (KDD)")
    simulate.add_argument("--admission", default="always",
                          choices=["always", "larc", "count"])
    simulate.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    command = {
        "list": _list_command,
        "run": _run_command,
        "simulate": _simulate_command,
        "faults": _faults_command,
        "reliability": _reliability_command,
        "serve": _serve_command,
    }[args.command]
    try:
        return command(args)
    except ReproError as exc:
        print(f"kdd-repro {args.command}: {exc}", file=sys.stderr)
        return 2


def _list_command(args) -> int:
    for name, fn in ALL_FIGURES.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"{name:8s} {doc}")
    return 0


def _run_command(args) -> int:
    names = list(ALL_FIGURES) if "all" in args.figures else args.figures
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        raise ConfigError(f"unknown figures: {unknown}; try 'kdd-repro list'")

    engine = _sweep_engine(args)
    for name in names:
        fn = ALL_FIGURES[name]
        kwargs = {"engine": engine}
        # trace-driven figures accept scale/seed; timing figures accept seed
        import inspect

        params = inspect.signature(fn).parameters
        if "scale" in params:
            kwargs["scale"] = args.scale
        if "seed" in params:
            kwargs["seed"] = args.seed
        start = time.time()
        result = fn(**kwargs)
        print(result.render())
        print(f"({name} finished in {time.time() - start:.1f}s)\n")
    return 0


def _sweep_engine(args) -> SweepEngine:
    """The engine the shared --jobs/--cache-dir/--force/--progress flags
    ask for."""
    return SweepEngine(
        jobs=args.jobs,
        cache=args.cache_dir,
        force=args.force,
        progress=_print_progress if args.progress else None,
    )


def _print_progress(tick: SweepProgress) -> None:
    cell = tick.cell
    what = cell.label or cell.policy or cell.kind
    source = "cache" if tick.from_cache else f"{tick.seconds:.2f}s"
    print(
        f"  [{tick.done}/{tick.total}] {cell.kind}:{what} "
        f"cache_pages={cell.cache_pages} ({source})",
        file=sys.stderr,
    )


def _load_workload(name: str, scale: float):
    from ..traces import make_workload, parse_msr, parse_spc, ALL_WORKLOADS

    if name in ALL_WORKLOADS:
        return make_workload(name, scale=scale)
    if name.endswith(".spc"):
        return parse_spc(name, name=name)
    if name.endswith(".csv"):
        return parse_msr(name, name=name)
    raise ConfigError(
        f"unknown workload {name!r}: use one of {ALL_WORKLOADS} "
        "or a path ending in .spc/.csv"
    )


def _parse_rates(text: str, what: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad {what} list {text!r}: expected comma-separated "
                          "numbers") from None


def _faults_command(args) -> int:
    import json

    from ..faults import RETRY_POLICIES, demo_event_log
    from .faultsweep import demo_op_trace, faults_cell
    from .report import render_table
    from .sweep import trace_desc

    retries = [r.strip() for r in args.retries.split(",") if r.strip()]
    unknown = [r for r in retries if r not in RETRY_POLICIES]
    if unknown:
        raise ConfigError(f"unknown retry policies {unknown}; "
                          f"choose from {sorted(RETRY_POLICIES)}")
    trace = trace_desc(
        "uniform",
        n_requests=args.requests,
        universe_pages=args.universe_pages,
        read_ratio=0.6,
        seed=0,
        name="faults-uniform",
    )
    cells = [
        faults_cell(
            args.policy,
            trace,
            args.cache_pages,
            ure_rate=rate,
            timeout_rate=timeout_rate,
            retry=retry,
            track_exposure=True,
        )
        for rate in _parse_rates(args.rates, "--rates")
        for timeout_rate in _parse_rates(args.timeout_rates, "--timeout-rates")
        for retry in retries
    ]
    engine = _sweep_engine(args)
    start = time.time()
    result = engine.run(cells)
    # The nested exposure block (shared shape with the reliability
    # report) is summarised into flat columns for the table.
    table_rows = []
    for row in result.rows:
        flat = dict(row)
        exposure = flat.pop("exposure", None)
        if exposure:
            flat["exposure_frac"] = exposure["exposure_fraction"]
            flat["mean_stale"] = exposure["mean_stale_stripes"]
            flat["mean_window"] = exposure["mean_window_accesses"]
        table_rows.append(flat)
    print(render_table(table_rows))
    print(f"({len(cells)} cells in {time.time() - start:.1f}s, "
          f"jobs={args.jobs})")
    if args.events_out:
        events = demo_event_log()
        with open(args.events_out, "w") as fh:
            json.dump(events, fh, indent=2)
        print(f"wrote {len(events)} demo events to {args.events_out}")
    if args.op_trace:
        summary = demo_op_trace(args.op_trace)
        print(f"wrote {summary['ops_written']} op records to {args.op_trace} "
              f"({summary['requests']} requests, "
              f"mean {summary['mean_response_ms']:.3f} ms)")
    return 0


def _reliability_command(args) -> int:
    import json

    from .relsweep import reliability_cell
    from .report import render_table

    periods = _parse_rates(args.scrub_periods, "--scrub-periods")
    fractional = [p for p in periods if not p.is_integer()]
    if fractional:
        raise ConfigError(f"--scrub-periods must be whole numbers of "
                          f"accesses, got {fractional}")
    cells = [
        reliability_cell(
            cache_pages=args.cache_pages,
            scrub_period=period,
            dirty_threshold=dirty,
            low_watermark=dirty / 2.0,
            rebuild_priority=priority,
            accesses=args.accesses,
            universe_pages=args.universe_pages,
            trials=args.trials,
            iops=args.iops,
            label=f"scrub={period} dirty={dirty} prio={priority}",
        )
        for period in map(int, periods)
        for dirty in _parse_rates(args.dirty_thresholds, "--dirty-thresholds")
        for priority in _parse_rates(args.rebuild_priorities,
                                     "--rebuild-priorities")
    ]
    engine = _sweep_engine(args)
    start = time.time()
    result = engine.run(cells)
    rows = [dict(r) for r in result.rows]
    table = [
        {
            "label": row["label"],
            "exposure_frac": row["exposure"]["exposure_fraction"],
            "mean_stale": row["exposure"]["mean_stale_stripes"],
            "mean_window": row["exposure"]["mean_window_accesses"],
            "parity_repaired": row["scrub"]["parity_repaired"],
            "mttdl_markov_h": f"{row['markov']['mttdl_h']:.0f}",
            "p_markov": f"{row['markov']['p_loss']:.4f}",
            "p_mc": f"{row['monte_carlo']['p_loss']:.4f}",
            "delta": f"{row['p_loss_delta']:.4f}",
            "tolerance": f"{row['tolerance']:.4f}",
            "agrees": row["agrees"],
            "stripes_lost": row["monte_carlo"]["mean_stripes_lost"],
        }
        for row in rows
    ]
    print(render_table(table))
    print(f"({len(cells)} cells in {time.time() - start:.1f}s, "
          f"jobs={args.jobs})")
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
        print(f"wrote {len(rows)} reliability rows to {args.report_out}")
    disagree = [row["label"] for row in rows if not row["agrees"]]
    if disagree:
        print("Monte-Carlo / Markov cross-check FAILED for: "
              + ", ".join(disagree), file=sys.stderr)
        return 1
    return 0


def _serve_command(args) -> int:
    import json

    from .report import render_table
    from .servesweep import serve_cell

    plans = [p.strip() for p in args.plans.split(",") if p.strip()]
    unknown = [p for p in plans if p not in ("static", "dynamic")]
    if unknown:
        raise ConfigError(f"unknown plans {unknown}; choose from "
                          "['static', 'dynamic']")
    want_tenants = args.per_tenant or bool(args.report_out)
    cells = [
        serve_cell(
            policy=args.policy,
            cache_pages=args.cache_pages,
            n_tenants=args.tenants,
            dynamic=(plan == "dynamic"),
            universe_pages=args.universe_pages,
            base_iops=args.base_iops,
            diurnal_amplitude=args.diurnal_amplitude,
            diurnal_period_s=args.diurnal_period,
            burst_prob=args.burst_prob,
            burst_factor=args.burst_factor,
            duration_s=args.duration,
            **({"max_requests": args.max_requests}
               if args.max_requests is not None else {}),
            epoch_s=args.epoch,
            realloc_period=args.realloc_period,
            min_fraction=args.min_fraction,
            ewma_alpha=args.ewma_alpha,
            ways=args.ways,
            flash_model=args.flash,
            tenant_rows=want_tenants,
            seed=args.seed,
            label=plan,
        )
        for plan in plans
    ]
    engine = _sweep_engine(args)
    start = time.time()
    result = engine.run(cells)
    rows = [dict(r) for r in result.rows]
    table = [{k: v for k, v in row.items() if k != "per_tenant"}
             for row in rows]
    print(render_table(table))
    if args.per_tenant:
        for row in rows:
            tenants = row.get("per_tenant", [])
            print(f"\nper-tenant ({row['plan']}, first {min(len(tenants), 16)} "
                  f"of {len(tenants)}):")
            print(render_table(tenants[:16]))
    print(f"({len(cells)} cells in {time.time() - start:.1f}s, "
          f"jobs={args.jobs})")
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
        print(f"wrote {len(rows)} serve rows to {args.report_out}")
    return 0


def _simulate_command(args) -> int:
    from .report import render_table
    from .runner import simulate_policy

    # The chained test also rejects NaN.
    if args.cache_pages is None and not 0 < args.cache_fraction < math.inf:
        raise ConfigError("--cache-fraction must be positive and finite, "
                          f"got {args.cache_fraction}")
    trace = _load_workload(args.workload, args.scale)
    stats = trace.stats()
    if args.cache_pages is not None:
        cache_pages = args.cache_pages
    else:
        cache_pages = max(64, int(stats.unique_pages * args.cache_fraction))
    print(
        f"workload {stats.name}: {stats.requests:,} page accesses, "
        f"{stats.unique_pages:,} unique pages, read ratio {stats.read_ratio:.2f}; "
        f"cache {cache_pages:,} pages"
    )
    start = time.time()
    result = simulate_policy(
        args.policy,
        trace,
        cache_pages,
        mean_compression=args.compression,
        admission=args.admission,
        seed=args.seed,
    )
    row = result.row()
    row.update({k: v for k, v in result.extras.items()})
    print(render_table([row]))
    print(f"(finished in {time.time() - start:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
