"""Tests for chunk-level timelines and their exporters (repro.obs.timeline)."""

from __future__ import annotations

import json

import pytest

from repro.backends import drain_fallback_events
from repro.core.params import SchedulingParams
from repro.experiments.runner import RunTask
from repro.obs import (
    TraceEvent,
    chrome_trace,
    chrome_trace_from_journal,
    chrome_trace_from_results,
    save_chrome_trace,
    timeline_from_result,
)
from repro.obs.timeline import require_chunk_log
from repro.workloads import ConstantWorkload, ExponentialWorkload


def _traced_task(simulator: str, technique: str = "fac2", n: int = 512,
                 p: int = 4) -> RunTask:
    return RunTask(
        technique=technique,
        params=SchedulingParams(n=n, p=p),
        workload=ExponentialWorkload(1.0),
        simulator=simulator,
        seed_entropy=(7,),
        collect_chunk_log=True,
    )


class TestTimelineFromResult:
    def test_one_event_per_chunk_on_worker_tracks(self):
        result = _traced_task("direct").execute()
        events = timeline_from_result(result)
        assert len(events) == len(result.chunk_log)
        assert {e.track for e in events} <= set(range(result.p))
        for event, ce in zip(events, result.chunk_log):
            assert event.start == ce.start_time
            assert event.duration == ce.elapsed
            assert f"({ce.record.size} tasks)" in event.name
            assert event.track_name == f"worker-{ce.record.worker}"

    def test_missing_chunk_log_raises_actionable_error(self):
        task = _traced_task("direct")
        untraced = RunTask(
            technique=task.technique, params=task.params,
            workload=task.workload, simulator="direct",
            seed_entropy=(7,),
        )
        result = untraced.execute()
        with pytest.raises(ValueError, match="record_chunks"):
            timeline_from_result(result)
        with pytest.raises(ValueError, match="collect_chunk_log"):
            require_chunk_log(result)


class TestChromeTrace:
    def test_schema_round_trip(self, tmp_path):
        result = _traced_task("direct").execute()
        trace = chrome_trace_from_results([result])
        path = tmp_path / "trace.json"
        save_chrome_trace(trace, path)
        loaded = json.loads(path.read_text())
        assert loaded == trace
        assert loaded["displayTimeUnit"] == "ms"
        events = loaded["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= event.keys()
            if event["ph"] == "X":
                assert event["ts"] >= 0 and event["dur"] >= 0

    def test_per_worker_thread_name_tracks(self):
        result = _traced_task("direct").execute()
        trace = chrome_trace_from_results([result])
        thread_names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        workers = {ce.record.worker for ce in result.chunk_log}
        assert thread_names == {f"worker-{w}" for w in workers}
        process_names = [
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert process_names == [
            f"{result.technique} n={result.n} p={result.p}"
        ]

    def test_duplicate_cells_get_distinct_groups(self):
        a = _traced_task("direct").execute()
        b = _traced_task("direct").execute()
        trace = chrome_trace_from_results([a, b])
        names = [
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert len(names) == len(set(names)) == 2

    def test_group_label_count_must_match(self):
        result = _traced_task("direct").execute()
        with pytest.raises(ValueError, match="group labels"):
            chrome_trace_from_results([result], groups=["a", "b"])

    def test_zero_duration_serialises_as_instant(self):
        trace = chrome_trace(
            [TraceEvent(name="mark", start=1.0, duration=0.0, group="g")]
        )
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["s"] == "g"


class TestMsgFastTimelineIdentity:
    def test_msg_and_msg_fast_yield_identical_timelines(self):
        """The compiled fast path must record the same chunk log as msg."""
        drain_fallback_events()
        msg = timeline_from_result(_traced_task("msg").execute())
        fast = timeline_from_result(_traced_task("msg-fast").execute())
        assert not drain_fallback_events()
        assert [
            (e.name, e.start, e.duration, e.track) for e in msg
        ] == [
            (e.name, e.start, e.duration, e.track) for e in fast
        ]

    def test_constant_workload_identity(self):
        def run(sim):
            task = RunTask(
                technique="gss",
                params=SchedulingParams(n=256, p=8),
                workload=ConstantWorkload(1.0),
                simulator=sim,
                seed_entropy=(3,),
                collect_chunk_log=True,
            )
            return timeline_from_result(task.execute())

        assert run("msg") == run("msg-fast")


class TestDirectBatchFallback:
    def test_collect_chunk_log_degrades_to_direct_with_event(self):
        drain_fallback_events()
        result = _traced_task("direct-batch").execute()
        assert result.chunk_log
        events = drain_fallback_events()
        assert any(
            e.requested == "direct-batch" and e.chosen == "direct"
            for e in events
        )
        assert result.stats is not None
        assert result.stats.backend == "direct"


class TestJournalTrace:
    def test_tasks_fallbacks_and_progress_convert(self):
        records = [
            {"kind": "provenance", "t_s": 0.0},
            {"kind": "task", "backend": "msg-fast", "technique": "fac2",
             "n": 1024, "p": 8, "runs": 4, "events": 400,
             "wall_time_s": 0.5, "t_s": 0.6},
            {"kind": "task", "backend": "msg-fast", "technique": "gss",
             "n": 1024, "p": 8, "runs": 4, "events": 300,
             "wall_time_s": 0.4, "t_s": 0.7},
            {"kind": "fallback", "requested": "direct-batch",
             "chosen": "direct", "reason": "logs", "t_s": 0.2},
            {"kind": "progress", "done": 2, "total": 2, "elapsed_s": 0.7,
             "events_per_s": 1000.0, "t_s": 0.7},
        ]
        trace = chrome_trace_from_journal(records)
        events = trace["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 2
        # the two tasks overlap in time, so they pack into two lanes
        assert {e["tid"] for e in slices} == {0, 1}
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 1
        assert "direct-batch -> direct" in instants[0]["name"]
        counters = [e for e in events if e["ph"] == "C"]
        assert {e["name"] for e in counters} == {"tasks done", "events/s"}

    def test_old_journal_without_t_s_lays_tasks_end_to_end(self):
        records = [
            {"kind": "task", "backend": "msg", "technique": "fac2",
             "n": 64, "p": 2, "runs": 1, "wall_time_s": 1.0},
            {"kind": "task", "backend": "msg", "technique": "gss",
             "n": 64, "p": 2, "runs": 1, "wall_time_s": 2.0},
        ]
        trace = chrome_trace_from_journal(records)
        slices = sorted(
            (e for e in trace["traceEvents"] if e["ph"] == "X"),
            key=lambda e: e["ts"],
        )
        assert slices[0]["ts"] == 0.0
        assert slices[1]["ts"] == pytest.approx(1.0 * 1e6)
        assert all(e["tid"] == 0 for e in slices)


class TestPajeReExport:
    def test_paje_trace_from_task_result(self):
        from repro.obs.timeline import paje_trace

        result = _traced_task("msg").execute()
        text = paje_trace(result)
        assert text.startswith("%EventDef")
        assert '"compute"' in text and '"idle"' in text
