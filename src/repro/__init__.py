"""repro — dynamic loop scheduling (DLS) techniques, verified via
reproducibility of the experiments in Hoffeins, Ciorba & Banicescu (2017).

The package provides:

* :mod:`repro.core` — the DLS technique library (STAT, SS, CSS, FSC, GSS,
  TSS, FAC, FAC2, WF, TAP, BOLD, AWF/-B/-C/-D/-E, AF);
* :mod:`repro.simgrid` — a from-scratch SimGrid-MSG-like discrete-event
  simulator with a master-worker DLS application;
* :mod:`repro.directsim` — a replica of Hagerup's (1997) chunk-level
  simulator;
* :mod:`repro.workloads` — task-time distributions, trace files and the
  replication seeds;
* :mod:`repro.metrics` — wasted time, speedup, overhead/imbalance degrees,
  discrepancies;
* :mod:`repro.experiments` — the runners behind every table and figure
  of the paper;
* :mod:`repro.figures` — the artifact registry that defines each of
  them once, and the pipeline that regenerates them.

Quickstart::

    from repro import SchedulingParams, create
    from repro.directsim import DirectSimulator
    from repro.workloads import ExponentialWorkload

    params = SchedulingParams(n=1024, p=8, h=0.5, mu=1.0, sigma=1.0)
    sim = DirectSimulator(params, ExponentialWorkload(mean=1.0))
    result = sim.run(create("fac2", params), seed=42)
    print(result.average_wasted_time)
"""

from .core import (
    ChunkRecord,
    Scheduler,
    SchedulingParams,
    chunk_sizes,
    create,
    get_technique,
    iter_techniques,
    technique_names,
    weights_from_speeds,
)

__version__ = "1.0.0"

__all__ = [
    "ChunkRecord",
    "Scheduler",
    "SchedulingParams",
    "chunk_sizes",
    "create",
    "get_technique",
    "iter_techniques",
    "technique_names",
    "weights_from_speeds",
    "__version__",
]
