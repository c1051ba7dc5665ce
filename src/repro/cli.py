"""Command-line interface: ``repro-dls`` / ``python -m repro``.

Subcommands::

    repro-dls list                         # the paper's artifacts
    repro-dls run fig5 --runs 10           # regenerate one artifact
    repro-dls figures                      # regenerate every artifact
    repro-dls techniques                   # registered DLS techniques
    repro-dls backends                     # simulation backends + fallbacks
    repro-dls schedule --technique gss --n 1000 --p 4
    repro-dls simulate --technique fac2 --n 4096 --p 16 --dist exponential
    repro-dls stats journal.jsonl          # summarise a --trace journal
    repro-dls trace-export journal.jsonl --out trace.json   # Perfetto
    repro-dls cache stats ~/.repro-cache   # result-cache inspection
    repro-dls scenarios list               # perturbation-scenario presets
    repro-dls serve --port 8787            # SimAS advisor HTTP service
    repro-dls figures --quick --check      # reduced sweeps + drift check

The ``--simulator`` choices everywhere are the registered simulation
backends (:mod:`repro.backends`); an unknown name fails with the list of
registered backends.  ``--trace FILE`` writes a JSONL run journal,
``--metrics FILE`` exports run metrics (Prometheus text for
``.prom``/``.txt``, JSON otherwise), and ``--progress`` renders live
heartbeats to stderr.

``--cache DIR`` serves repeat runs from the content-addressed result
cache (:mod:`repro.cache`) and stores fresh ones; the ``REPRO_CACHE``
environment variable supplies a default directory and ``--no-cache``
turns caching off regardless.  ``--cache-verify F`` re-simulates the
fraction ``F`` of cache hits and fails loudly if a stored result
diverges from a fresh one.

``--scenario NAME|FILE`` (run/simulate) perturbs the simulated
machine with a :mod:`repro.scenarios` descriptor — a registered preset
name (``repro-dls scenarios list``) or a JSON scenario file.  Perturbed
runs key the cache separately from clean ones and surface fault counters
in journals and ``repro-dls stats``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import __version__
from .backends import backend_names
from .core.base import chunk_sizes
from .core.params import SchedulingParams
from .core.registry import get_technique, iter_techniques
from .workloads import WORKLOAD_DISTS, workload_from_spec


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    """The result-cache knobs shared by run/simulate/figures/serve."""
    parser.add_argument(
        "--cache", metavar="DIR", default=None,
        help="serve repeat runs from the result cache at DIR and store "
             "fresh ones (default: the REPRO_CACHE environment variable; "
             "unset = no caching)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable result caching even when REPRO_CACHE is set",
    )
    parser.add_argument(
        "--cache-verify", type=float, default=0.0, metavar="FRACTION",
        help="re-simulate this fraction of cache hits and fail loudly "
             "when a stored result diverges from a fresh run (default 0)",
    )


def _cache_dir_from_args(args: argparse.Namespace) -> str | None:
    """The cache directory the flags select (None = caching off)."""
    from .cache import default_cache_dir

    if args.no_cache:
        return None
    return args.cache or default_cache_dir()


def _add_workload_options(parser: argparse.ArgumentParser) -> None:
    """--dist and --mean: the task-time workload a simulating command runs."""
    parser.add_argument("--dist", choices=WORKLOAD_DISTS, default="exponential")
    parser.add_argument("--mean", type=float, default=1.0)


def _bad_input(args: argparse.Namespace, reason: object) -> int:
    """Report bad input as one ``<command>: <reason>`` line; exit 2."""
    print(f"{args.command}: {reason}", file=sys.stderr)
    return 2


def _technique(name: str):
    """The registered technique ``name``; ValueError when there is none."""
    try:
        return get_technique(name)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None


def _cell(args: argparse.Namespace):
    """The (params, workload) that --n/--p/--h and --dist/--mean describe.

    ``mu`` and ``sigma`` are both --mean.  A bad --technique or value
    raises ValueError naming it.
    """
    _technique(args.technique)
    params = SchedulingParams(
        n=args.n, p=args.p, h=args.h, mu=args.mean, sigma=args.mean
    )
    return params, workload_from_spec(args.dist, args.mean)


def _chunk_logged_task(args: argparse.Namespace, simulator: str):
    """The one seeded run of ``args``'s cell, recording its chunk log."""
    from .experiments.runner import RunTask

    params, workload = _cell(args)
    return RunTask(
        technique=args.technique,
        params=params,
        workload=workload,
        simulator=simulator,
        seed_entropy=(args.seed,),
        collect_chunk_log=True,
    )


def _add_scenario_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", metavar="NAME|FILE", default=None,
        help="perturb the simulated machine with a scenario: a preset "
             "name (see `repro-dls scenarios list`) or a JSON scenario "
             "file written by repro.scenarios",
    )


def _scenario_from_args(args: argparse.Namespace):
    """Resolve --scenario to a Scenario, or None when the flag is unset."""
    if args.scenario is None:
        return None
    from .scenarios import load_scenario

    return load_scenario(args.scenario)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dls",
        description=(
            "Dynamic loop scheduling techniques, verified via "
            "reproducibility (Hoffeins, Ciorba & Banicescu 2017)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the paper's reproducible artifacts")

    run = sub.add_parser(
        "run",
        help="regenerate one artifact with the full parameter set of "
             "`repro-dls figures`",
    )
    run.add_argument("artifact", help="artifact id, e.g. fig5 or table2 "
                                      "(see `repro-dls list`)")
    run.add_argument("--runs", type=int, default=None,
                     help="replications (default: the artifact's full set)")
    run.add_argument("--simulator",
                     choices=backend_names(),
                     default=None,
                     help="registered simulation backend (see "
                          "`repro-dls backends`); requests the backend "
                          "cannot serve degrade along its declared "
                          "fallback chain and are reported")
    run.add_argument("--seed", type=int, default=None,
                     help="seed (default: the artifact's full set)")
    _add_scenario_option(run)
    _add_cache_options(run)

    sub.add_parser("techniques", help="list DLS techniques and requirements")

    sub.add_parser(
        "backends",
        help="list simulation backends, capabilities and fallback chains",
    )

    sched = sub.add_parser(
        "schedule", help="print the chunk sizes a technique produces"
    )
    sched.add_argument("--technique", required=True)
    sched.add_argument("--n", type=int, required=True, help="number of tasks")
    sched.add_argument("--p", type=int, required=True, help="number of PEs")
    sched.add_argument("--h", type=float, default=0.0)
    sched.add_argument("--mu", type=float, default=1.0)
    sched.add_argument("--sigma", type=float, default=1.0)
    sched.add_argument("--min-chunk", type=int, default=1)
    sched.add_argument("--chunk-size", type=int, default=None)

    simu = sub.add_parser(
        "simulate", help="simulate one run and print its metrics"
    )
    simu.add_argument("--technique", required=True)
    simu.add_argument("--n", type=int, required=True)
    simu.add_argument("--p", type=int, required=True)
    simu.add_argument("--h", type=float, default=0.0)
    _add_workload_options(simu)
    simu.add_argument("--runs", type=int, default=1)
    simu.add_argument("--seed", type=int, default=0)
    simu.add_argument("--simulator", choices=backend_names(), default="msg")
    simu.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a JSONL run journal to FILE (see `repro-dls stats`)",
    )
    simu.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="export run metrics to FILE (.prom/.txt: Prometheus text "
             "exposition, otherwise JSON)",
    )
    simu.add_argument(
        "--progress", action="store_true",
        help="render live progress heartbeats to stderr",
    )
    _add_scenario_option(simu)
    _add_cache_options(simu)

    rec = sub.add_parser(
        "recommend",
        help="predict the best technique for a problem, prior to execution",
    )
    rec.add_argument("--n", type=int, required=True)
    rec.add_argument("--p", type=int, required=True)
    rec.add_argument("--h", type=float, default=0.0)
    rec.add_argument("--mu", type=float, default=1.0)
    rec.add_argument("--sigma", type=float, default=1.0)

    figures = sub.add_parser(
        "figures",
        help="regenerate every figure/table, check its claims and write "
             "provenance manifests (see docs/reproducing.md)",
    )
    figures.add_argument(
        "--out", metavar="DIR", default="artifacts",
        help="output directory for CSVs, plots and manifests "
             "(default: ./artifacts)",
    )
    figures.add_argument(
        "--quick", action="store_true",
        help="reduced sweeps on the fast bit-identical backends "
             "(the variant the committed references pin down)",
    )
    figures.add_argument(
        "--check", action="store_true",
        help="after generating, diff CSVs and manifests against the "
             "committed references (exit 1 on drift or a failed claim; "
             "implies --quick)",
    )
    figures.add_argument(
        "--only", metavar="ID", action="append", default=None,
        help="restrict to one artifact id (repeatable; see the registry "
             "ids in docs/reproducing.md)",
    )
    figures.add_argument(
        "--reference", metavar="DIR", default=None,
        help="check against this reference tree instead of the "
             "committed one",
    )
    figures.add_argument(
        "--tolerance", type=float, default=1e-6, metavar="PERCENT",
        help="numeric drift tolerance for --check, in percent "
             "(default: effectively exact — quick runs are seeded)",
    )
    figures.add_argument(
        "--no-plot", action="store_true",
        help="skip plot rendering even when matplotlib is available",
    )
    figures.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a JSONL run journal to FILE (see `repro-dls stats`)",
    )
    figures.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="export pipeline metrics to FILE (.prom/.txt: Prometheus "
             "text exposition, otherwise JSON)",
    )
    _add_cache_options(figures)

    cache = sub.add_parser(
        "cache",
        help="inspect and maintain a result cache (see docs/caching.md)",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "entry count, size, and hit/miss counters per session"),
        ("clear", "remove every cached entry and session record"),
        ("gc", "collect stale-schema, aged, or over-budget entries"),
    ):
        cache_cmd = cache_sub.add_parser(name, help=help_text)
        cache_cmd.add_argument(
            "dir", nargs="?", default=None,
            help="cache directory (default: REPRO_CACHE env var)",
        )
    cache_sub.choices["stats"].add_argument(
        "--json", action="store_true",
        help="machine-readable output instead of the human summary",
    )
    cache_sub.choices["gc"].add_argument(
        "--max-age-days", type=float, default=None,
        help="additionally remove entries older than this many days",
    )
    cache_sub.choices["gc"].add_argument(
        "--max-bytes", type=int, default=None,
        help="evict oldest entries until the store fits this many bytes",
    )

    scenarios = sub.add_parser(
        "scenarios",
        help="inspect perturbation scenarios (see docs/scenarios.md)",
    )
    scenarios_sub = scenarios.add_subparsers(
        dest="scenarios_command", required=True
    )
    scenarios_sub.add_parser(
        "list", help="list the registered scenario presets"
    )

    stats = sub.add_parser(
        "stats", help="summarise a JSONL run journal written by --trace"
    )
    stats.add_argument("journal", help="journal file written by --trace")
    stats.add_argument(
        "--top", type=int, default=5,
        help="how many of the slowest tasks to list (default 5)",
    )

    trace_export = sub.add_parser(
        "trace-export",
        help="export a Chrome Trace Event JSON (Perfetto-loadable) from "
             "a --trace journal or a freshly simulated run",
    )
    trace_export.add_argument(
        "journal", nargs="?", default=None,
        help="a JSONL run journal written by --trace (omit to simulate "
             "one run instead; requires --technique/--n/--p)",
    )
    trace_export.add_argument(
        "--out", "-o", metavar="FILE", required=True,
        help="output path for the Chrome trace JSON",
    )
    trace_export.add_argument("--technique", default=None)
    trace_export.add_argument("--n", type=int, default=None)
    trace_export.add_argument("--p", type=int, default=None)
    trace_export.add_argument("--h", type=float, default=0.0)
    _add_workload_options(trace_export)
    trace_export.add_argument("--seed", type=int, default=0)
    trace_export.add_argument(
        "--simulator", choices=backend_names(), default="msg-fast",
    )

    files = sub.add_parser(
        "simulate-files",
        help="run from SimGrid-style platform + deployment XML files",
    )
    files.add_argument("platform", help="platform XML file")
    files.add_argument("deployment", help="deployment XML file")
    files.add_argument("--technique", required=True)
    files.add_argument("--n", type=int, required=True)
    files.add_argument("--h", type=float, default=0.0)
    _add_workload_options(files)
    files.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve",
        help="run the SimAS advisor HTTP service (see docs/serve.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1; the service is unauthenticated"
             " — do not expose it beyond trusted networks)",
    )
    serve.add_argument(
        "--port", type=int, default=8787,
        help="bind port (default 8787; 0 picks a free port)",
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="replication process-pool size shared by all queries "
             "(default: REPRO_WORKERS env var or CPU count)",
    )
    serve.add_argument(
        "--runs", type=int, default=None, metavar="N",
        help="default replications per candidate technique when a query "
             "does not say (default 5)",
    )
    serve.add_argument(
        "--simulator", choices=backend_names(), default="direct-batch",
        help="default simulation backend for queries that do not name "
             "one (default direct-batch)",
    )
    serve.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a JSONL journal with one `advise` record per query",
    )
    serve.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="additionally save the metrics registry to FILE on shutdown "
             "(the live registry is always scrapeable at GET /metrics)",
    )
    _add_cache_options(serve)

    gantt = sub.add_parser(
        "gantt", help="render a run's chunk schedule as an ASCII Gantt chart"
    )
    gantt.add_argument("--technique", required=True)
    gantt.add_argument("--n", type=int, required=True)
    gantt.add_argument("--p", type=int, required=True)
    gantt.add_argument("--h", type=float, default=0.0)
    _add_workload_options(gantt)
    gantt.add_argument("--seed", type=int, default=0)
    gantt.add_argument("--width", type=int, default=72)
    gantt.add_argument(
        "--paje", metavar="FILE", default=None,
        help="additionally export a Paje trace to FILE",
    )
    return parser


def _cmd_list() -> int:
    from .figures import ARTIFACTS

    width = max(map(len, ARTIFACTS))
    for spec in ARTIFACTS.values():
        print(f"{spec.id:<{width}}  {spec.title} [{spec.paper_artifact}]")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """One artifact's full set; a flag its producer does not accept exits 2.

    Run unmodified, the full set is checked against the artifact's
    claims: each outcome is printed and a failed claim exits 1.
    """
    import contextlib
    import inspect

    from .cache import cache_to
    from .figures import get_artifact, produce_artifact

    try:
        spec = get_artifact(args.artifact)
    except ValueError as exc:
        return _bad_input(args, exc)
    accepted = inspect.signature(spec.producer).parameters
    overrides: dict = {}
    for name in ("runs", "simulator", "seed", "scenario"):
        value = getattr(args, name)
        if value is None:
            continue
        if name not in accepted:
            return _bad_input(
                args, f"artifact {spec.id!r} does not accept --{name}"
            )
        overrides[name] = value
    if args.runs is not None and args.runs < 1:
        return _bad_input(args, f"--runs must be >= 1, got {args.runs}")
    try:
        _scenario_from_args(args)  # fail fast; the producer resolves it
    except ValueError as exc:
        return _bad_input(args, exc)
    cache_dir = _cache_dir_from_args(args)
    with contextlib.ExitStack() as stack:
        if cache_dir is not None:
            stack.enter_context(
                cache_to(cache_dir, verify_fraction=args.cache_verify)
            )
        data, fallbacks, claims = produce_artifact(spec, "full", **overrides)
    print(data.text)
    for event in fallbacks:
        print(f"note: {event.describe()}")
    for name, holds in claims.items():
        print(f"claim {'holds' if holds else 'FAILED'}: {name}")
    return 0 if all(claims.values()) else 1


def _cmd_techniques() -> int:
    from .core.base import PARAM_SYMBOLS

    print(f"{'name':8s} {'label':8s} {'adaptive':8s} requires")
    for cls in iter_techniques():
        req = ", ".join(s for s in PARAM_SYMBOLS if s in cls.requires) or "-"
        print(f"{cls.name:8s} {cls.label:8s} {str(cls.adaptive):8s} {req}")
    return 0


def _cmd_backends() -> int:
    from .backends import capability_names, iter_backends

    for backend in iter_backends():
        caps = ", ".join(
            name for name in capability_names()
            if getattr(backend.capabilities, name)
        ) or "-"
        fallback = backend.fallback or "-"
        print(f"{backend.name:12s} fallback: {fallback}")
        print(f"{'':12s} {backend.description}")
        print(f"{'':12s} capabilities: {caps}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    try:
        technique = _technique(args.technique)
        params = SchedulingParams(
            n=args.n, p=args.p, h=args.h, mu=args.mu, sigma=args.sigma,
            min_chunk=args.min_chunk, chunk_size=args.chunk_size,
        )
    except ValueError as exc:
        return _bad_input(args, exc)
    scheduler = technique(params)
    sizes = chunk_sizes(scheduler)
    print(f"{scheduler.label}: {len(sizes)} chunks, sum={sum(sizes)}")
    print(" ".join(map(str, sizes)))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import contextlib
    import dataclasses
    import statistics

    from .backends import drain_fallback_events
    from .cache import cache_to
    from .experiments.runner import RunTask, run_campaign
    from .obs import journal_to, metrics_to, progress_to, stream_renderer

    try:
        params, workload = _cell(args)
        scenario = _scenario_from_args(args)
    except ValueError as exc:
        return _bad_input(args, exc)
    if args.runs < 1:
        return _bad_input(args, f"--runs must be >= 1, got {args.runs}")
    # Which simulator executes is decided by the backend registry's
    # capability-checked resolution (repro.backends), not here; the
    # per-run integer seeds reproduce the historical CLI outputs
    # (SeedSequence(entropy=[s]) equals SeedSequence(s)).
    task = RunTask(
        technique=args.technique,
        params=params,
        workload=workload,
        simulator=args.simulator,
        scenario=scenario,
    )
    drain_fallback_events()
    tasks = [
        dataclasses.replace(task, seed_entropy=(args.seed + i,))
        for i in range(args.runs)
    ]
    cache_dir = _cache_dir_from_args(args)
    with contextlib.ExitStack() as stack:
        if args.trace:
            stack.enter_context(journal_to(args.trace))
        if args.metrics:
            stack.enter_context(metrics_to(args.metrics))
        if args.progress:
            stack.enter_context(progress_to(stream_renderer()))
        cache = None
        if cache_dir is not None:
            cache = stack.enter_context(
                cache_to(cache_dir, verify_fraction=args.cache_verify)
            )
        results = run_campaign(tasks, processes=1)
    awt = [r.average_wasted_time for r in results]
    sp = [r.speedup for r in results]
    print(
        f"{results[0].technique} on {args.simulator}: "
        f"n={args.n}, p={args.p}, {args.runs} run(s)"
    )
    for event in drain_fallback_events():
        print(f"  note: {event.describe()}")
    print(f"  makespan           : {statistics.mean(r.makespan for r in results):.4f} s")
    print(f"  avg wasted time    : {statistics.mean(awt):.4f} s")
    print(f"  speedup            : {statistics.mean(sp):.3f} (ideal {args.p})")
    print(f"  scheduling chunks  : {statistics.mean(r.num_chunks for r in results):.1f}")
    if scenario is not None:
        lost_chunks = sum(r.extras.get("lost_chunks", 0) for r in results)
        lost_tasks = sum(r.extras.get("lost_tasks", 0) for r in results)
        print(
            f"  scenario           : {scenario.name} — "
            f"{lost_chunks} chunk(s) lost to faults "
            f"({lost_tasks} task(s) requeued)"
        )
    if args.metrics:
        print(f"  wrote metrics {args.metrics}")
    if cache is not None:
        s = cache.stats
        print(
            f"  cache              : {s.hits} hit(s), {s.misses} "
            f"miss(es), {s.stores} store(s) in {cache_dir}"
        )
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    from .core.prediction import prediction_report, recommend_technique

    try:
        params = SchedulingParams(
            n=args.n, p=args.p, h=args.h, mu=args.mu, sigma=args.sigma
        )
    except ValueError as exc:
        return _bad_input(args, exc)
    print(prediction_report(params))
    best = recommend_technique(params)
    print(
        f"\nrecommended: {best.technique} "
        f"(predicted wasted time {best.predicted_wasted_time:.2f} s)"
    )
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    import contextlib

    from .cache import cache_to
    from .figures import (
        check_against_reference,
        generate_artifacts,
        get_artifact,
        plot_available,
    )
    from .obs import journal_to, metrics_to

    mode = "quick" if (args.quick or args.check) else "full"
    if args.only:
        try:
            for artifact_id in args.only:
                get_artifact(artifact_id)
        except ValueError as exc:
            return _bad_input(args, exc)
    cache_dir = _cache_dir_from_args(args)
    with contextlib.ExitStack() as stack:
        if cache_dir is not None:
            stack.enter_context(
                cache_to(cache_dir, verify_fraction=args.cache_verify)
            )
        if args.trace:
            stack.enter_context(journal_to(args.trace))
        if args.metrics:
            stack.enter_context(metrics_to(args.metrics))
        run = generate_artifacts(
            args.out, mode=mode, only=args.only,
            plot=not args.no_plot, echo=print,
        )
    plot_note = (
        "png" if (plot_available() and not args.no_plot)
        else "text (matplotlib not installed)" if not args.no_plot
        else "disabled"
    )
    print(
        f"\n{len(run.artifacts)} artifact(s) -> {args.out} "
        f"in {run.elapsed_s:.1f}s (mode={mode}, plots={plot_note})"
    )
    if run.cache:
        print(
            f"cache: {run.cache['hits']} hit(s), "
            f"{run.cache['misses']} miss(es), "
            f"{run.cache['corrupt']} corrupt"
        )
    if run.fallbacks:
        print(f"backend fallbacks: {run.fallbacks} (see the manifests)")
    if args.trace:
        print(f"wrote journal {args.trace}")
    if args.metrics:
        print(f"wrote metrics {args.metrics}")
    checked = sum(map(len, run.claims.values()))
    failed = [
        f"{artifact}: {name}"
        for artifact, outcomes in run.claims.items()
        for name, holds in outcomes.items() if not holds
    ]
    if checked:
        print(f"claims: {checked - len(failed)}/{checked} hold")
    for claim in failed:
        print(f"claim FAILED: {claim}")
    if not args.check:
        return 1 if failed else 0
    report = check_against_reference(
        args.out,
        reference_dir=args.reference,
        artifacts=args.only,
        tolerance_percent=args.tolerance,
    )
    print()
    print(report.describe())
    return 0 if report.ok else 1


def _format_bytes(count: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            return f"{count:.1f} {unit}" if unit != "B" else f"{count:.0f} B"
        count /= 1024
    raise AssertionError  # pragma: no cover


def _cmd_cache(args: argparse.Namespace) -> int:
    import json as _json

    from .cache import ResultCache, default_cache_dir

    root = args.dir or default_cache_dir()
    if root is None:
        return _bad_input(
            args, "no directory given and REPRO_CACHE is not set"
        )
    cache = ResultCache(root)

    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"cleared {root}: removed {removed} entr(ies)")
        return 0

    if args.cache_command == "gc":
        max_age_s = (
            args.max_age_days * 86400.0
            if args.max_age_days is not None else None
        )
        removed, remaining = cache.gc(
            max_age_s=max_age_s, max_bytes=args.max_bytes
        )
        cache.flush_session()
        print(
            f"gc {root}: removed {removed} entr(ies), "
            f"{cache.entry_count()} remaining "
            f"({_format_bytes(remaining)})"
        )
        return 0

    summary = cache.describe_store()
    if args.json:
        print(_json.dumps(summary, indent=1))
        return 0
    print(
        f"cache {summary['root']}: {summary['entries']} entr(ies), "
        f"{_format_bytes(summary['total_bytes'])}, "
        f"schema v{summary['schema']}"
    )
    last = summary["last_session"]
    if last is None:
        print("no recorded sessions yet")
        return 0
    print(
        f"last session (pid {last.get('pid', '?')}): "
        f"{last.get('hits', 0)} hit(s), {last.get('misses', 0)} miss(es), "
        f"{last.get('stores', 0)} store(s), "
        f"{last.get('verified', 0)} verified — "
        f"hit-rate {last.get('hit_rate_percent', 0.0):.1f}%, "
        f"est. {last.get('saved_wall_s', 0.0):.2f}s of simulation saved"
    )
    life = summary["lifetime"]
    print(
        f"lifetime ({summary['sessions']} session(s)): "
        f"{life['hits']} hit(s), {life['misses']} miss(es), "
        f"{life['stores']} store(s), {life['evictions']} eviction(s), "
        f"hit-rate {life['hit_rate_percent']:.1f}%, "
        f"est. {life['saved_wall_s']:.2f}s saved"
    )
    if life.get("corrupt"):
        print(
            f"warning: {life['corrupt']} corrupt entr(ies) encountered "
            "across sessions — see `cache` journal records (op=corrupt)"
        )
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .scenarios import PRESETS, preset_notes

    if args.scenarios_command != "list":  # pragma: no cover
        raise AssertionError(args.scenarios_command)
    width = max(len(name) for name in PRESETS)
    for name, scenario in PRESETS.items():
        print(f"{name:<{width}s}  {scenario.describe()}")
        note = preset_notes().get(name)
        if note:
            print(f"{'':<{width}s}  {note}")
    print()
    print(
        "use one with `--scenario NAME`, or save a custom scenario to "
        "JSON (repro.scenarios.Scenario.save) and pass the file path"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs import load_journal, summarize_journal

    try:
        records = load_journal(args.journal)
    except OSError as exc:
        return _bad_input(args, exc)
    print(summarize_journal(records, top=args.top))
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from .obs import (
        chrome_trace_from_journal,
        chrome_trace_from_results,
        load_journal,
        save_chrome_trace,
    )

    if args.journal is not None:
        try:
            records = load_journal(args.journal)
        except OSError as exc:
            return _bad_input(args, exc)
        trace = chrome_trace_from_journal(records)
        source = args.journal
    else:
        if args.technique is None or args.n is None or args.p is None:
            return _bad_input(
                args, "without a journal, --technique, --n and --p are "
                "required to simulate a run"
            )
        try:
            task = _chunk_logged_task(args, args.simulator)
        except ValueError as exc:
            return _bad_input(args, exc)
        trace = chrome_trace_from_results([task.execute()])
        source = f"{args.technique}(n={args.n}, p={args.p})"
    save_chrome_trace(trace, args.out)
    slices = sum(
        1 for e in trace["traceEvents"] if e.get("ph") in ("X", "i", "C")
    )
    print(
        f"wrote {args.out}: {slices} event(s) from {source} — load it "
        "at https://ui.perfetto.dev or chrome://tracing"
    )
    return 0


def _cmd_simulate_files(args: argparse.Namespace) -> int:
    from .simgrid.app import ApplicationConfig, run_from_files

    try:
        _technique(args.technique)
        workload = workload_from_spec(args.dist, args.mean)
    except ValueError as exc:
        return _bad_input(args, exc)
    app = ApplicationConfig(
        technique=args.technique, n=args.n, workload=workload, h=args.h,
    )
    try:
        result = run_from_files(
            args.platform, args.deployment, app, seed=args.seed
        )
    except OSError as exc:
        return _bad_input(args, exc)
    print(
        f"{result.technique}: p={result.p} (from deployment), n={result.n}"
    )
    print(f"  makespan        : {result.makespan:.4f} s")
    print(f"  avg wasted time : {result.average_wasted_time:.4f} s")
    print(f"  speedup         : {result.speedup:.3f} (ideal {result.p})")
    print(f"  chunks          : {result.num_chunks}")
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    from .obs.timeline import save_paje_trace
    from .simgrid.visualization import ascii_gantt, utilization_summary

    try:
        task = _chunk_logged_task(args, "direct")
    except ValueError as exc:
        return _bad_input(args, exc)
    result = task.execute()
    try:
        chart = ascii_gantt(result, width=args.width)
    except ValueError as exc:
        return _bad_input(args, exc)
    print(chart)
    print()
    print(utilization_summary(result))
    if args.paje:
        save_paje_trace(result, args.paje)
        print(f"\nwrote Paje trace: {args.paje}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import contextlib

    from .cache import cache_to
    from .obs import journal_to, metrics_to
    from .serve import Advisor, make_server
    from .serve.advisor import DEFAULT_RUNS

    for name in ("runs", "workers"):
        value = getattr(args, name)
        if value is not None and value < 1:
            return _bad_input(args, f"--{name} must be >= 1, got {value}")
    if not 0 <= args.port <= 65535:
        return _bad_input(args, f"--port must be 0-65535, got {args.port}")
    cache_dir = _cache_dir_from_args(args)
    with contextlib.ExitStack() as stack:
        # The /metrics endpoint scrapes the active registry, so the
        # server always installs one even without --metrics.
        stack.enter_context(metrics_to(args.metrics))
        if args.trace:
            stack.enter_context(journal_to(args.trace))
        if cache_dir is not None:
            stack.enter_context(
                cache_to(cache_dir, verify_fraction=args.cache_verify)
            )
        advisor = Advisor(
            processes=args.workers,
            default_runs=args.runs or DEFAULT_RUNS,
            default_simulator=args.simulator,
        )
        server = make_server(args.host, args.port, advisor)
        host, port = server.server_address[:2]
        print(f"repro-dls serve: advising on http://{host}:{port}")
        print(
            f"  POST /advise   what-if sweep over "
            f"{len(advisor.parse({'n': 1, 'p': 1}).techniques)} techniques"
        )
        print("  GET  /metrics  Prometheus exposition")
        if cache_dir is not None:
            print(f"  result cache   {cache_dir}")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            server.server_close()
            # terminate the worker pool now, in a normal interpreter
            # state — leaving it to multiprocessing's atexit finalizer
            # after a Ctrl-C produces "Exception ignored in atexit
            # callback" noise over the clean shutdown message
            from .experiments.runner import shutdown_pool

            shutdown_pool()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "techniques":
        return _cmd_techniques()
    if args.command == "backends":
        return _cmd_backends()
    if args.command == "schedule":
        return _cmd_schedule(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "recommend":
        return _cmd_recommend(args)
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "scenarios":
        return _cmd_scenarios(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "trace-export":
        return _cmd_trace_export(args)
    if args.command == "simulate-files":
        return _cmd_simulate_files(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "gantt":
        return _cmd_gantt(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
