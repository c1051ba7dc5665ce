"""The repository benchmark: ``figures`` and ``advise``, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload advise --seed 1 --seconds 25 --trace 1

``--trace 0`` times the unmodified program and reports the gated
end-to-end metrics (set-up time and peak memory); ``--trace 1`` wraps
each layer's public calls and reports the per-layer metrics instead.
Both print the timings of the workload's operations above the result.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Outputs are checked
after the timed sections; any failure makes the exit code 1.

Both workloads split their work into cold operations, which miss the
result cache and simulate, and warm operations, served from it; the
per-layer metrics are named by these phases:

* figures: cold = one pass over the quick registry into an empty
  cache; warm = a pass against the filled cache;
* advise: cold = a query for a cell never seen; warm = a repeat query.

See ``perfbench/README.md`` for the metric definitions and the layer
table.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space of a run (fresh caches and outputs), inside the checkout
TMP = ROOT / ".perfbench_tmp"
#: where a traced run writes its spans
SPANS = ROOT / ".perfbench_out"

#: the gated metrics; the timings are printed beside them (timing_lines)
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_COLD_LAYERS = (
    "batch.closed.calls", "batch.closed.reps", "batch.closed.chunks",
    "batch.closed.busy_s", "batch.stepping.calls", "batch.stepping.reps",
    "batch.stepping.busy_s", "schedule.busy_s", "workloads.busy_s",
    "direct.runs", "direct.busy_s", "fastpath.runs", "fastpath.busy_s",
    "msg.runs", "msg.busy_s", "cache.put.calls", "cache.put.busy_s",
    "cache.put.bytes", "pool.items",
)
_SHARED_LAYERS = (
    "backends.resolve.calls", "backends.resolve.busy_s",
    "backends.fallbacks", "cache.key.calls", "cache.key.busy_s",
    "cache.get.calls", "cache.get.busy_s", "cache.get.bytes",
    "cache.hit_ratio", "runner.calls", "runner.busy_s", "pool.wait_s",
    "figures.artifacts", "figures.produce_s", "figures.produce.busy_s",
    "figures.render.busy_s", "serve.http.busy_s", "serve.parse.busy_s",
    "serve.advise.busy_s", "serve.batch.busy_s", "serve.rank.busy_s",
)
PER_LAYER = (
    [f"cold.{name}" for name in _COLD_LAYERS + _SHARED_LAYERS]
    + [f"warm.{name}" for name in _SHARED_LAYERS]
    + ["serve.rejected"]
)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


# -- sizing ------------------------------------------------------------------

def plan_sizes(seconds: int) -> dict:
    """Work per run, from ``--seconds``: 25 gave runs of 16-66 s on 2 vCPUs.

    The sizes are a function of ``--seconds`` alone, never of the clock,
    so traced counts repeat exactly under one seed; the floor keeps at
    least ten samples beyond every reported tail percentile.
    """
    from percentiles import TAILS, samples_needed

    ops = max(samples_needed(min(TAILS)), round(1.6 * seconds))
    return {"warm_passes": ops, "hits": ops, "misses": ops,
            "malformed": max(2, seconds // 5), "recompute": 2}


#: fresh-process set-ups per timed run; ``setup_s`` is their median
SETUP_SAMPLES = 3


# -- set-up ------------------------------------------------------------------

def make_setup(workload: str, tmp: Path, seed: int, sizes: dict,
               sample: bool = False):
    """The workload's set-up; a set-up ``sample`` of ``advise`` primes
    only the first popular cell, the query that starts the pool.

    Priming the other cells fills the benchmark's own cache before the
    timed queries; it is the workload's warm-up, not the program's
    start-up, so it stays out of ``setup_s``.
    """
    if workload == "figures":
        import workload_figures

        return workload_figures.Setup(tmp)
    import workload_advise

    return workload_advise.Setup(
        tmp, seed, sizes["hits"], sizes["misses"], sizes["malformed"],
        primed=1 if sample else workload_advise.POPULAR_CELLS)


def setup_sample(args) -> float:
    """Wall time from starting a fresh interpreter until it is set up.

    The child runs this file with ``--setup-sample``: it imports the
    program, makes a fresh directory and cache (and, for ``advise``,
    starts the server and answers the first popular cell, which starts
    the pool), prints ``ready`` and tears down.
    """
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0",
               "--setup-sample"]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE,
                          text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up sample failed (exit {code}): {line!r}")
    return elapsed


# -- measurements ------------------------------------------------------------

def _vm_hwm_kb(pid) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest pool worker."""
    workers = [_vm_hwm_kb(child.pid)
               for child in multiprocessing.active_children()]
    return (_vm_hwm_kb("self") + max(workers, default=0)) / 1024.0


def timing_lines(workload: str, result: dict) -> list[str]:
    """The timed operations: the cold pass, and per class of operation
    its median and highest tail percentile with the sample count.

    Printed for people and never gated: on a 2-vCPU host whose speed
    drifts, their spread over runs exceeds the largest bound the
    benchmark may set (see the README).
    """
    from percentiles import highest_tail, tail_percentile

    lines = []
    if workload == "figures":
        lines.append(f"  cold_s: {result['cold_s']:.4f} s")
    for kind in {"figures": ("warm",), "advise": ("hit", "miss")}[workload]:
        samples = result[f"{kind}_s"]
        q, tail = highest_tail(samples)
        lines.append(
            f"  {kind}_p50_ms: {tail_percentile(samples, 0.5) * 1000:.3f} "
            f"ms, {kind}_p{q * 100:.0f}_ms: {tail * 1000:.3f} ms "
            f"({len(samples)} samples)")
    return lines


def layer_metrics(tracer) -> dict[str, float]:
    """Fold the spans (and pooled RunStats) into the PER_LAYER metrics."""
    from tracing import ATTRS, END, NAME, PHASE, START, self_times

    values: dict[str, float] = defaultdict(float)
    gets: dict[str, list[int]] = defaultdict(list)
    for record, busy in zip(tracer.spans, self_times(tracer.spans)):
        key = f"{record[PHASE]}.{record[NAME]}"
        attrs = record[ATTRS] or {}
        if record[NAME] == "pool":
            values[f"{record[PHASE]}.pool.wait_s"] += busy
            continue
        values[f"{key}.busy_s"] += busy
        values[f"{key}.calls"] += 1
        if record[NAME] == "figures.produce":
            values[f"{record[PHASE]}.figures.artifacts"] += 1
            values[f"{record[PHASE]}.figures.produce_s"] += (
                record[END] - record[START])
        if record[NAME] == "cache.get":
            gets[record[PHASE]].append(attrs["hit"])
        for name, value in attrs.items():
            if name != "hit":
                values[f"{key}.{name}"] += value
    for phase, hits in gets.items():
        values[f"{phase}.cache.hit_ratio"] = sum(hits) / len(hits)
    for name, value in tracer.counts.items():
        values[name] += value
    return {name: values.get(name, 0.0) for name in PER_LAYER}


def attribution(tracer, metrics: dict[str, float]) -> list[str]:
    """Per phase: its operation time and the layers that took most of it."""
    from tracing import END, PARENT, PHASE, START

    lines = []
    for phase in ("cold", "warm"):
        total = sum(r[END] - r[START] for r in tracer.spans
                    if r[PHASE] == phase and r[PARENT] is None)
        busy = sorted(
            ((value, name) for name, value in metrics.items()
             if name.startswith(f"{phase}.") and name.endswith(
                 ("busy_s", "wait_s"))),
            reverse=True)[:4]
        shares = ", ".join(
            f"{name[len(phase) + 1:]} {value:.3f}s "
            f"({100 * value / total if total else 0:.0f}%)"
            for value, name in busy if value > 0)
        lines.append(f"  {phase}: {total:.3f}s of operations; {shares}")
    return lines


# -- main --------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "advise"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-sample", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'repro'}; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # a SIGTERM unwinds like Ctrl-C, so the pool, the server and the
    # scratch directory are still torn down
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_program()
    sizes = plan_sizes(args.seconds)
    TMP.mkdir(exist_ok=True)

    if args.setup_sample:
        with tempfile.TemporaryDirectory(dir=TMP) as tmp:
            setup = make_setup(args.workload, Path(tmp), args.seed, sizes,
                               sample=True)
            print("ready", flush=True)
            setup.close()
        return 0

    import hostprobe
    import workload_advise
    import workload_figures

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, in_process_kernels=args.workload == "figures")

    probe_before = hostprobe.probe_ms()
    setup_samples = []
    samples = 0 if args.trace else SETUP_SAMPLES
    for _ in range((samples + 1) // 2):
        setup_samples.append(setup_sample(args))
    with tempfile.TemporaryDirectory(dir=TMP) as tmp:
        setup = make_setup(args.workload, Path(tmp), args.seed, sizes)
        try:
            if args.workload == "figures":
                result = workload_figures.run(setup, sizes["warm_passes"],
                                              tracer)
            else:
                result = workload_advise.run(setup, args.seed,
                                             sizes["recompute"], tracer)
            result["peak_rss_mb"] = peak_rss_mb()
        finally:
            setup.close()
    for _ in range(samples // 2):
        setup_samples.append(setup_sample(args))
    probe_after = hostprobe.probe_ms()

    failed = result["failed"]
    failed_pct = 100.0 * len(failed) / result["attempted"]
    for problem in failed:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  host probe: {probe_before:.2f} ms before, "
          f"{probe_after:.2f} ms after (metadata, not a metric)")
    print(f"  failed_pct: {failed_pct:.2f} % "
          f"({len(failed)} of {result['attempted']})")
    print("\n".join(timing_lines(args.workload, result)))

    if tracer is None:
        measured = {"setup_s": statistics.median(setup_samples),
                    "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": measured[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        layers = layer_metrics(tracer)
        tracer.write(SPANS / f"{args.workload}-seed{args.seed}.spans.jsonl")
        print("\n".join(attribution(tracer, layers)))
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in layers.items()}
    for name, metric in metrics.items():
        print(f"  {name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": result["attempted"],
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
