"""Tests for the artifact registry's descriptors and the MSG trace types."""

from __future__ import annotations

import pytest

from repro.figures import ARTIFACTS, get_artifact
from repro.simgrid.trace import SimulationTrace, WorkerTrace


class TestDescriptorRegistry:
    def test_every_paper_artifact_registered(self):
        for exp_id in ("table2", "table3", "fig3", "fig4", "fig5", "fig6",
                       "fig7", "fig8", "fig9"):
            assert exp_id in ARTIFACTS

    def test_extension_studies_registered(self):
        for exp_id in ("scalability", "css-sweep", "tss-shapes",
                       "remote-ratio"):
            assert exp_id in ARTIFACTS

    def test_descriptors_carry_artifact_names(self):
        assert ARTIFACTS["fig5"].paper_artifact == "Figure 5"
        assert ARTIFACTS["table2"].paper_artifact == "Table II"

    def test_get_artifact_error_lists_known(self):
        with pytest.raises(ValueError, match="fig3"):
            get_artifact("nope")

    def test_table_runners_return_text(self):
        assert "DLS" in ARTIFACTS["table2"].produce("full").text
        table3 = ARTIFACTS["table3"].produce("full").text
        for fragment in ("1,024", "8,192", "65,536", "524,288",
                         "Figure 5", "Figure 6", "Figure 7", "Figure 8"):
            assert fragment in table3

    def test_small_fig5_run_via_descriptor(self):
        text = ARTIFACTS["fig5"].produce(
            "full", runs=2, simulator="direct"
        ).text
        assert "n=1,024" in text
        assert "BOLD" in text


class TestWorkerTrace:
    def test_request_recording(self):
        trace = WorkerTrace(worker=0)
        trace.record_request(at=1.5)
        trace.record_request(at=3.0)
        assert trace.requests == 2
        assert trace.first_request_at == 1.5

    def test_chunk_recording_accumulates(self):
        trace = WorkerTrace(worker=1)
        trace.record_chunk(size=10, elapsed=2.0, task_time=4.0)
        trace.record_chunk(size=5, elapsed=1.0, task_time=2.0)
        assert trace.chunks == 2
        assert trace.tasks == 15
        assert trace.compute_time == pytest.approx(3.0)
        assert trace.task_time == pytest.approx(6.0)


class TestSimulationTrace:
    def test_for_workers_builds_all(self):
        trace = SimulationTrace.for_workers(4)
        assert len(trace.workers) == 4
        assert [w.worker for w in trace.workers] == [0, 1, 2, 3]

    def test_aggregates(self):
        trace = SimulationTrace.for_workers(2)
        trace.workers[0].record_chunk(3, 1.0, 1.0)
        trace.workers[1].record_chunk(7, 2.0, 2.0)
        assert trace.compute_times == [1.0, 2.0]
        assert trace.chunks_per_worker == [1, 1]
        assert trace.total_tasks == 10
