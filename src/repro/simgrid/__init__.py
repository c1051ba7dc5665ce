"""A from-scratch SimGrid-MSG-like simulator (engine, platform, MSG layer,
master-worker DLS application)."""

from .._exports import lazy_exports

_EXPORTS = {
    "app": (
        "ApplicationConfig",
        "run_from_files",
        "simulation_from_files",
        "split_deployment",
    ),
    "engine": ("Effect", "Engine", "Process", "SimulationError", "Timeout"),
    "fastpath": ("FastMasterWorkerSimulation",),
    "masterworker": ("MasterWorkerSimulation",),
    "msg": ("ComputeTask", "Execute", "Mailbox", "Message", "Receive", "Send"),
    "platform": (
        "Host",
        "Link",
        "Platform",
        "Route",
        "fast_network_platform",
        "star_platform",
    ),
    "trace": ("SimulationTrace", "WorkerTrace"),
    "visualization": ("ascii_gantt", "utilization_summary"),
    "xmlio": (
        "ProcessPlacement",
        "deployment_to_xml",
        "load_deployment",
        "load_platform",
        "loads_deployment",
        "loads_platform",
        "master_worker_deployment",
        "parse_bandwidth",
        "parse_latency",
        "parse_speed",
        "platform_to_xml",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
