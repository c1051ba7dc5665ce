"""File-driven simulation: platform XML + deployment XML -> run.

This is how SimGrid-MSG itself is invoked (Figure 2 of the paper): the
*system information* comes from a platform file, the process mapping
from a deployment file, and the *application information* (task count,
technique, task-time distribution) from the user.  :func:`run_from_files`
assembles a :class:`~repro.simgrid.masterworker.MasterWorkerSimulation`
from those pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.params import SchedulingParams
from ..core.registry import make_factory
from ..results import RunResult
from ..workloads.distributions import Workload
from .masterworker import MasterWorkerSimulation
from .xmlio import ProcessPlacement, load_deployment, load_platform


@dataclass
class ApplicationConfig:
    """The application information of Figure 2."""

    technique: str
    n: int
    workload: Workload
    h: float = 0.0
    mu: float | None = None
    sigma: float | None = None
    technique_kwargs: dict = field(default_factory=dict)

    def scheduling_params(self, p: int) -> SchedulingParams:
        mu = self.mu if self.mu is not None else self.workload.mean
        sigma = self.sigma if self.sigma is not None else self.workload.std
        return SchedulingParams(
            n=self.n, p=p, h=self.h,
            mu=mu if mu > 0 else None,
            sigma=sigma,
        )


def split_deployment(
    placements: list[ProcessPlacement],
) -> tuple[str, list[str]]:
    """Extract (master host, ordered worker hosts) from a deployment.

    Workers are ordered by their first ``<argument>`` (the worker id)
    when present, otherwise by file order.
    """
    masters = [p for p in placements if p.function == "master"]
    workers = [p for p in placements if p.function == "worker"]
    if len(masters) != 1:
        raise ValueError(
            f"deployment must place exactly one master, found {len(masters)}"
        )
    if not workers:
        raise ValueError("deployment places no workers")

    def order_key(item: tuple[int, ProcessPlacement]):
        index, placement = item
        if placement.arguments:
            try:
                return (0, int(placement.arguments[0]))
            except ValueError:
                pass
        return (1, index)

    ordered = [
        p for _, p in sorted(enumerate(workers), key=order_key)
    ]
    return masters[0].host, [p.host for p in ordered]


def simulation_from_files(
    platform_path: str | Path,
    deployment_path: str | Path,
    app: ApplicationConfig,
    **options,
) -> MasterWorkerSimulation:
    """Build a simulation from platform + deployment files.

    ``options`` (``overhead_model``, ``start_times``, ``record_chunks``)
    are passed to :class:`MasterWorkerSimulation`.
    """
    platform = load_platform(platform_path)
    placements = load_deployment(deployment_path)
    master_host, worker_hosts = split_deployment(placements)
    params = app.scheduling_params(len(worker_hosts))
    return MasterWorkerSimulation(
        params,
        app.workload,
        platform=platform,
        master_host=master_host,
        worker_hosts=worker_hosts,
        **options,
    )


def run_from_files(
    platform_path: str | Path,
    deployment_path: str | Path,
    app: ApplicationConfig,
    seed: int | np.random.SeedSequence | None = None,
    **options,
) -> RunResult:
    """One-call file-driven run: files + application info -> RunResult."""
    sim = simulation_from_files(platform_path, deployment_path, app, **options)
    factory = make_factory(app.technique, **app.technique_kwargs)
    return sim.run(factory, seed=seed)
