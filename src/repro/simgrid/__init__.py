"""A from-scratch SimGrid-MSG-like simulator (engine, platform, MSG layer,
master-worker DLS application)."""

from .app import (
    ApplicationConfig,
    run_from_files,
    simulation_from_files,
    split_deployment,
)
from .engine import Effect, Engine, Process, SimulationError, Timeout
from .fastpath import FastMasterWorkerSimulation
from .masterworker import MasterWorkerConfig, MasterWorkerSimulation
from .msg import (
    ComputeTask,
    Execute,
    Mailbox,
    Message,
    Receive,
    Send,
)
from .platform import (
    Host,
    Link,
    Platform,
    Route,
    fast_network_platform,
    star_platform,
)
from .trace import SimulationTrace, WorkerTrace
from .visualization import ascii_gantt, utilization_summary
from .xmlio import (
    ProcessPlacement,
    deployment_to_xml,
    load_deployment,
    load_platform,
    loads_deployment,
    loads_platform,
    master_worker_deployment,
    parse_bandwidth,
    parse_latency,
    parse_speed,
    platform_to_xml,
)

__all__ = [
    "ApplicationConfig",
    "ComputeTask",
    "run_from_files",
    "simulation_from_files",
    "split_deployment",
    "Effect",
    "Engine",
    "Execute",
    "FastMasterWorkerSimulation",
    "Host",
    "Link",
    "Mailbox",
    "MasterWorkerConfig",
    "MasterWorkerSimulation",
    "Message",
    "Platform",
    "Process",
    "ProcessPlacement",
    "Receive",
    "Route",
    "Send",
    "SimulationError",
    "SimulationTrace",
    "Timeout",
    "WorkerTrace",
    "ascii_gantt",
    "utilization_summary",
    "deployment_to_xml",
    "fast_network_platform",
    "load_deployment",
    "load_platform",
    "loads_deployment",
    "loads_platform",
    "master_worker_deployment",
    "parse_bandwidth",
    "parse_latency",
    "parse_speed",
    "platform_to_xml",
    "star_platform",
]
