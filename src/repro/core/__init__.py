"""Core DLS scheduling: parameters, scheduler protocol, technique registry."""

from .._exports import lazy_exports

_EXPORTS = {
    "params": ("SchedulingParams", "weights_from_speeds"),
    "base": ("ChunkRecord", "Scheduler", "SchedulerState", "chunk_sizes"),
    "schedule": (
        "PrecomputedSchedule",
        "ScheduleUnavailableError",
        "closed_form_supported",
        "precompute_schedule",
        "schedule_ineligibility",
    ),
    "prediction": (
        "Prediction",
        "predict",
        "predict_all",
        "prediction_report",
        "recommend_technique",
    ),
    "registry": (
        "create",
        "get_technique",
        "iter_techniques",
        "make_factory",
        "technique_names",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
