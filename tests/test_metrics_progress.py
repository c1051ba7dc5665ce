"""Tests for the metrics registry and live progress (repro.obs v2)."""

from __future__ import annotations

import json

import pytest

from repro.core.params import SchedulingParams
from repro.experiments.runner import RunTask, run_campaign, run_replicated
from repro.obs import metrics_to, progress, progress_to
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_registry,
    clear_registry,
    record_results,
    set_registry,
)
from repro.obs.progress import (
    ProgressEvent,
    ProgressTracker,
    campaign_tracker,
    stream_renderer,
)
from repro.workloads import ConstantWorkload, ExponentialWorkload


class TestHistogram:
    def test_observe_tracks_exact_moments(self):
        hist = Histogram("h")
        hist.observe_many([1.0, 2.0, 3.0, 100.0])
        assert hist.count == 4
        assert hist.sum == 106.0
        assert hist.mean == 26.5
        assert hist.min == 1.0
        assert hist.max == 100.0

    def test_power_of_two_bucket_bounds(self):
        hist = Histogram("h")
        # an exact power of two belongs to its own bucket (le = value),
        # one epsilon above it spills into the next
        hist.observe(8.0)
        hist.observe(8.000001)
        bounds = dict(hist.bucket_bounds())
        assert bounds[8.0] == 1
        assert bounds[16.0] == 1

    def test_zero_and_negative_share_the_zero_bucket(self):
        hist = Histogram("h")
        hist.observe(0.0)
        hist.observe(-1.0)
        assert dict(hist.bucket_bounds()) == {0.0: 2}

    def test_format_ascii(self):
        hist = Histogram("h")
        assert hist.format_ascii() == "(no observations)"
        hist.observe_many([1.0, 1.5, 100.0])
        text = hist.format_ascii(width=10)
        assert "#" in text and "<=" in text


class TestRegistry:
    def test_get_or_create_by_name(self):
        reg = MetricsRegistry()
        assert reg.histogram("a") is reg.histogram("a")
        assert reg.counter("c") is reg.counter("c")
        assert reg.gauge("g") is reg.gauge("g")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("c").incr(-1)

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("runs_total", "runs").incr(3)
        reg.gauge("rate", "ev/s").set(100.0)
        hist = reg.histogram("sizes", "chunk sizes")
        hist.observe_many([1.0, 2.0, 100.0])
        text = reg.render_prometheus()
        lines = text.splitlines()
        assert "# TYPE repro_runs_total counter" in lines
        assert "repro_runs_total 3" in lines
        assert "# TYPE repro_rate gauge" in lines
        assert "# TYPE repro_sizes histogram" in lines
        # bucket series must be cumulative and end with +Inf == count
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in lines if line.startswith("repro_sizes_bucket")
        ]
        assert buckets == sorted(buckets)
        assert 'repro_sizes_bucket{le="+Inf"} 3' in lines
        assert "repro_sizes_count 3" in lines
        # every sample value parses as a float
        for line in lines:
            if line and not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])

    def test_prometheus_values_keep_full_precision(self):
        reg = MetricsRegistry()
        reg.counter("sim_events_total").incr(2_337_871)
        reg.gauge("rate").set(1_234_567.5)
        reg.histogram("task_seconds").observe_many([2.0 ** 20, 3.0])
        lines = reg.render_prometheus().splitlines()
        assert "repro_sim_events_total 2337871" in lines
        assert "repro_rate 1234567.5" in lines
        assert 'repro_task_seconds_bucket{le="4"} 1' in lines
        assert 'repro_task_seconds_bucket{le="1048576"} 2' in lines
        assert "repro_task_seconds_sum 1048579" in lines

    def test_save_picks_format_from_extension(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("runs_total").incr(1)
        prom = tmp_path / "m.prom"
        js = tmp_path / "m.json"
        reg.save(prom)
        reg.save(js)
        assert prom.read_text().startswith("# TYPE repro_runs_total")
        assert json.loads(js.read_text())["counters"]["runs_total"][
            "value"] == 1

    def test_active_registry_lifecycle(self):
        assert active_registry() is None
        reg = set_registry()
        assert active_registry() is reg
        clear_registry()
        assert active_registry() is None


class TestCampaignMetrics:
    def _tasks(self, count=3):
        return [
            RunTask(
                technique="fac2",
                params=SchedulingParams(n=128, p=4),
                workload=ExponentialWorkload(1.0),
                simulator="direct",
                seed_entropy=(i,),
            )
            for i in range(count)
        ]

    def test_run_campaign_records_into_active_registry(self, tmp_path):
        path = tmp_path / "m.json"
        with metrics_to(path) as reg:
            run_campaign(self._tasks(), processes=1)
        doc = json.loads(path.read_text())
        assert doc["counters"]["runs_total"]["value"] == 3
        assert doc["counters"]["sim_events_total"]["value"] > 0
        assert doc["histograms"]["run_makespan_seconds"]["count"] == 3
        # p=4 workers per run -> 12 idle observations
        assert doc["histograms"]["worker_idle_seconds"]["count"] == 12
        assert reg.gauge("sim_events_per_second").value > 0

    def test_no_registry_no_recording(self):
        clear_registry()
        run_campaign(self._tasks(1), processes=1)
        assert active_registry() is None

    def test_record_results_chunk_sizes_with_and_without_log(self):
        reg = MetricsRegistry()
        traced = RunTask(
            technique="gss",
            params=SchedulingParams(n=64, p=2),
            workload=ConstantWorkload(1.0),
            simulator="direct",
            seed_entropy=(0,),
            collect_chunk_log=True,
        ).execute()
        record_results(reg, [traced])
        assert reg.histogram("chunk_size_tasks").count == traced.num_chunks
        reg2 = MetricsRegistry()
        untraced = RunTask(
            technique="gss",
            params=SchedulingParams(n=64, p=2),
            workload=ConstantWorkload(1.0),
            simulator="direct",
            seed_entropy=(0,),
        ).execute()
        record_results(reg2, [untraced])
        assert reg2.histogram("chunk_size_tasks").count == 1

    def test_fallbacks_counted(self):
        reg = MetricsRegistry()
        record_results(reg, [], new_fallbacks=2)
        assert reg.counter("fallbacks_total").value == 2


class TestProgress:
    def test_event_describe_and_json(self):
        event = ProgressEvent(
            label="campaign", done=5, total=10, elapsed_s=2.0,
            events=1000, events_per_second=500.0, eta_s=2.0, fallbacks=1,
        )
        assert event.fraction == 0.5
        text = event.describe()
        assert "5/10" in text and "50%" in text and "1 fallback(s)" in text
        doc = event.to_json()
        assert doc["kind"] == "progress"
        assert doc["events_per_s"] == 500.0

    def test_tracker_throttles_but_always_finishes(self, monkeypatch):
        monkeypatch.setattr(progress, "MIN_INTERVAL", 3600.0)
        seen: list[ProgressEvent] = []
        tracker = ProgressTracker(total=100, callback=seen.append)
        for _ in range(50):
            tracker.advance()
        assert seen == []  # throttled
        tracker.finish()
        assert len(seen) == 1
        assert seen[0].done == 50

    def test_campaign_tracker_none_when_no_sink(self):
        assert campaign_tracker(total=5, label="x") is None

    def test_run_campaign_emits_heartbeats(self, monkeypatch):
        monkeypatch.setattr(progress, "MIN_INTERVAL", 0.0)
        seen: list[ProgressEvent] = []
        tasks = [
            RunTask(
                technique="fac2",
                params=SchedulingParams(n=64, p=2),
                workload=ConstantWorkload(1.0),
                simulator="direct",
                seed_entropy=(i,),
            )
            for i in range(3)
        ]
        with progress_to(seen.append):
            run_campaign(tasks, processes=1)
        assert seen
        assert seen[-1].done == seen[-1].total == 3
        assert seen[-1].events > 0
        assert [e.done for e in seen] == sorted(e.done for e in seen)

    def test_run_replicated_emits_heartbeats(self, monkeypatch):
        monkeypatch.setattr(progress, "MIN_INTERVAL", 0.0)
        seen: list[ProgressEvent] = []
        task = RunTask(
            technique="fac2",
            params=SchedulingParams(n=64, p=2),
            workload=ConstantWorkload(1.0),
            simulator="direct",
        )
        with progress_to(seen.append):
            run_replicated(task, runs=4, processes=1, campaign_seed=1)
        assert seen
        assert seen[-1].done == seen[-1].total == 4

    def test_journal_records_progress(self, tmp_path):
        from repro.obs import journal_to

        path = tmp_path / "j.jsonl"
        task = RunTask(
            technique="gss",
            params=SchedulingParams(n=64, p=2),
            workload=ConstantWorkload(1.0),
            simulator="direct",
        )
        with journal_to(path):
            run_replicated(task, runs=2, processes=1, campaign_seed=0)
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        progress = [r for r in records if r["kind"] == "progress"]
        assert progress
        assert progress[-1]["done"] == 2
        assert all("t_s" in r for r in records)

    def test_stream_renderer_non_tty_writes_lines(self):
        import io

        out = io.StringIO()  # not a TTY
        render = stream_renderer(out)
        render(
            ProgressEvent(
                label="x", done=1, total=2, elapsed_s=1.0, events=10,
                events_per_second=10.0, eta_s=1.0, fallbacks=0,
            )
        )
        text = out.getvalue()
        assert text.endswith("\n")
        assert "1/2" in text
