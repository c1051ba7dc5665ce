"""The ``figures`` workload: what a reproducer (and the CI figures job) runs.

One cold pass regenerates the quick registry into an empty result
cache, which is bound by the simulation kernels.  Warm passes then
regenerate it again and again against the filled cache; they never
reach a kernel, so they measure cache-key derivation, cache reads and
rendering.  Everything runs in this process (``REPRO_WORKERS=1``): each
quick sweep fits in one replication block, so the pool barely helps,
and serial execution keeps every layer call visible to the tracer.

The quick registry's seeds are fixed because the reference check
depends on them, so ``--seed`` does not change this workload's inputs.
"""

from __future__ import annotations

import contextlib
import os
import time
from pathlib import Path


class Setup:
    """The program imported and a fresh cache activated under ``tmp``."""

    def __init__(self, tmp: Path):
        os.environ["REPRO_WORKERS"] = "1"
        import repro.figures  # noqa: F401 (the import is the set-up)
        from repro.cache import cache_to

        self.tmp = tmp
        self._stack = contextlib.ExitStack()
        self.cache = self._stack.enter_context(cache_to(tmp / "cache"))

    def close(self) -> None:
        self._stack.close()


def run(setup: Setup, warm_passes: int, tracer=None,
        only: list[str] | None = None) -> dict:
    """One cold pass and ``warm_passes`` warm passes, then the checks.

    Returns the timings and the artifact counts.  Every artifact of
    every pass is checked: the cold output and the last warm output
    against the committed references, and each warm pass's file digests
    against the cold pass's (the pipeline's digests are stable across
    identical runs).  An artifact that drifted counts as failed; one
    that raises ends the run.
    """
    from repro.figures import check_against_reference, generate_artifacts

    def one_pass(phase: str, request: str, out: Path):
        op = tracer.op(phase, request, "figures.render") if tracer \
            else contextlib.nullcontext()
        start = time.perf_counter()
        with op:
            manifest = generate_artifacts(out, mode="quick", only=only,
                                          plot=False)
        return time.perf_counter() - start, manifest

    # Every pass writes into a directory of its own.  Rewriting a file
    # in place makes ext4 flush it when it is closed, and those waits on
    # a shared disk made warm passes about twice as slow and far less
    # steady; new files cost no such wait.
    cold_s, cold = one_pass("cold", "cold-pass", setup.tmp / "cold")
    warm = [one_pass("warm", f"warm-pass-{i}", setup.tmp / f"warm-{i}")
            for i in range(warm_passes)]

    failed: set[str] = set()
    last = f"warm-pass-{warm_passes - 1}"
    for out, request in ((setup.tmp / "cold", "cold-pass"),
                         (setup.tmp / f"warm-{warm_passes - 1}", last)):
        report = check_against_reference(out, artifacts=only)
        failed.update(f"{request}:{f.artifact}" for f in report.fatal)
    for i, (_, manifest) in enumerate(warm):
        names = set(cold.files) | set(manifest.files)
        failed.update(
            f"warm-pass-{i}:{Path(name).stem}" for name in names
            if manifest.files.get(name) != cold.files.get(name))
    return {
        "cold_s": cold_s,
        "warm_s": [seconds for seconds, _ in warm],
        "attempted": len(cold.artifacts) * (1 + warm_passes),
        "failed": sorted(failed),
    }
