"""Tests for the Gantt renderer and Paje trace export."""

from __future__ import annotations

import pytest

from repro.core.params import SchedulingParams
from repro.core.registry import make_factory
from repro.directsim import DirectSimulator
from repro.obs.timeline import paje_trace, save_paje_trace, worker_timelines
from repro.simgrid.visualization import ascii_gantt, utilization_summary
from repro.workloads import ConstantWorkload, ExponentialWorkload


def recorded_run(n=60, p=3, technique="gss", workload=None, seed=0):
    params = SchedulingParams(n=n, p=p, h=0.0, mu=1.0, sigma=1.0)
    sim = DirectSimulator(
        params, workload or ConstantWorkload(1.0), record_chunks=True
    )
    return sim.run(make_factory(technique), seed=seed)


class TestAsciiGantt:
    def test_renders_one_row_per_worker(self):
        result = recorded_run(p=3)
        text = ascii_gantt(result)
        assert text.count("w0") == 1
        assert text.count("w2") == 1
        assert "makespan" in text

    def test_requires_chunk_log(self):
        params = SchedulingParams(n=10, p=2)
        sim = DirectSimulator(params, ConstantWorkload(1.0))
        result = sim.run(make_factory("ss"))
        with pytest.raises(ValueError, match="record_chunks"):
            ascii_gantt(result)

    def test_busy_worker_painted(self):
        result = recorded_run(technique="stat")
        text = ascii_gantt(result, width=40)
        # STAT keeps every worker busy the whole run: no idle dots in rows.
        for line in text.splitlines()[1:-1]:
            body = line.split("|")[1]
            assert "." not in body

    def test_worker_cap(self):
        result = recorded_run(n=40, p=8)
        text = ascii_gantt(result, max_workers=4)
        assert "more workers" in text


class TestUtilization:
    def test_summary_rows(self):
        result = recorded_run(p=4, n=100)
        text = utilization_summary(result)
        assert len(text.splitlines()) == 5  # header + 4 workers
        assert "busy%" in text

    def test_stat_full_utilization(self):
        result = recorded_run(technique="stat", p=3, n=99)
        text = utilization_summary(result)
        assert text.count("100.0%") == 3


class TestPaje:
    def test_trace_structure(self):
        result = recorded_run()
        trace = paje_trace(result)
        assert trace.startswith("%EventDef")
        assert '"compute"' in trace
        assert '"idle"' in trace
        # One container per worker plus the platform.
        assert trace.count("PajeDefineContainerType") == 1
        assert trace.count("2 0.000000 C_w") == result.p

    def test_events_time_ordered(self):
        result = recorded_run(workload=ExponentialWorkload(1.0), seed=5)
        times = [
            float(line.split()[1])
            for line in paje_trace(result).splitlines()
            if line.startswith("3 ")
        ]
        assert times == sorted(times)

    def test_state_events_match_chunks(self):
        result = recorded_run()
        trace = paje_trace(result)
        computes = trace.count('"compute"')
        assert computes == result.num_chunks

    def test_save(self, tmp_path):
        result = recorded_run()
        path = tmp_path / "run.trace"
        save_paje_trace(result, path)
        assert path.read_text() == paje_trace(result)

    def test_requires_chunk_log(self):
        params = SchedulingParams(n=10, p=2)
        result = DirectSimulator(params, ConstantWorkload(1.0)).run(
            make_factory("ss")
        )
        with pytest.raises(ValueError):
            paje_trace(result)


class TestWorkerTimelines:
    def test_windows_sorted_and_disjoint(self):
        result = recorded_run(workload=ExponentialWorkload(1.0), seed=2)
        timelines = worker_timelines(result)
        assert set(timelines) == set(range(result.p))
        for windows in timelines.values():
            for (a0, a1), (b0, b1) in zip(windows, windows[1:]):
                assert a1 <= b0 + 1e-9
                assert a0 <= a1

    def test_total_window_time_equals_compute(self):
        result = recorded_run()
        timelines = worker_timelines(result)
        for w, windows in timelines.items():
            total = sum(b - a for a, b in windows)
            assert total == pytest.approx(result.compute_times[w])
