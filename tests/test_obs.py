"""Tests for the observability layer (repro.obs)."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.cache import active_cache, cache_to
from repro.core.params import SchedulingParams
from repro.experiments.runner import (
    RunTask,
    resolve_workers,
    run_campaign,
    run_replicated,
)
from repro.obs import (
    active_journal,
    active_registry,
    journal_to,
    load_journal,
    metrics_to,
    progress_to,
    summarize_journal,
)
from repro.obs.provenance import capture_provenance, platform_xml_hash
from repro.workloads import ExponentialWorkload


def small_task(technique="fac2", simulator="msg-fast", **kwargs) -> RunTask:
    return RunTask(
        technique=technique,
        params=SchedulingParams(n=256, p=4),
        workload=ExponentialWorkload(1.0),
        simulator=simulator,
        **kwargs,
    )


class TestRunStats:
    def test_every_run_result_carries_stats(self):
        for simulator in ("msg", "msg-fast", "direct", "direct-batch"):
            result = small_task(simulator=simulator).execute()
            assert result.stats is not None, simulator
            assert result.stats.backend == simulator
            assert result.stats.events > 0
            assert result.stats.wall_time > 0

    def test_stats_excluded_from_result_equality(self):
        task = small_task(seed_entropy=(1,))
        a, b = task.execute(), task.execute()
        b.stats.wall_time = a.stats.wall_time + 1.0
        assert a == b  # observability metadata is not a result

    def test_stats_survive_pickling_through_the_process_pool(self):
        results = run_replicated(
            small_task(), 4, campaign_seed=11, processes=2
        )
        assert len(results) == 4
        for result in results:
            assert result.stats is not None
            assert result.stats.backend == "msg-fast"
            assert pickle.loads(pickle.dumps(result.stats)) == result.stats


class TestJournal:
    def test_journal_lines_are_valid_json_with_provenance_first(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with journal_to(path):
            run_replicated(small_task(), 3, campaign_seed=5)
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]  # every line parses
        assert records[0]["kind"] == "provenance"
        assert records[0]["package_version"]
        task_records = [r for r in records if r["kind"] == "task"]
        assert len(task_records) == 1
        record = task_records[0]
        assert record["technique"] == "fac2"
        assert record["runs"] == 3
        assert record["backend"] == "msg-fast"
        assert record["campaign_seed"] == 5
        assert record["wall_time_s"] > 0

    def test_run_campaign_writes_one_record_per_task(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        tasks = [
            small_task(seed_entropy=(1,)),
            small_task(technique="gss", seed_entropy=(2,)),
        ]
        with journal_to(path):
            run_campaign(tasks, processes=1)
        records = load_journal(path)
        task_records = [r for r in records if r["kind"] == "task"]
        assert [r["technique"] for r in task_records] == ["fac2", "gss"]
        assert [r["seed_entropy"] for r in task_records] == [[1], [2]]

    def test_task_execute_writes_one_task_record(self, tmp_path):
        # execute() is a campaign of one task: a fresh run is journaled
        # like every other fresh simulation
        path = tmp_path / "journal.jsonl"
        with journal_to(path):
            small_task(seed_entropy=(3,)).execute()
        records = load_journal(path)
        task_records = [r for r in records if r["kind"] == "task"]
        assert len(task_records) == 1
        assert task_records[0]["seed_entropy"] == [3]
        assert task_records[0]["runs"] == 1
        assert any(r["kind"] == "progress" for r in records)

    def test_fallback_recorded_in_journal(self, tmp_path):
        # awf is adaptive: msg-fast cannot serve it and degrades to msg.
        path = tmp_path / "journal.jsonl"
        with journal_to(path):
            run_replicated(small_task(technique="awf"), 2, campaign_seed=3)
        records = load_journal(path)
        fallbacks = [r for r in records if r["kind"] == "fallback"]
        assert fallbacks and fallbacks[0]["requested"] == "msg-fast"
        assert fallbacks[0]["chosen"] == "msg"
        task_record = next(r for r in records if r["kind"] == "task")
        assert task_record["requested"] == "msg-fast"
        assert task_record["backend"] == "msg"

    def test_no_journal_active_writes_nothing(self, tmp_path):
        # The runner must not require a journal.
        results = run_replicated(small_task(), 2, campaign_seed=1)
        assert len(results) == 2
        assert list(tmp_path.iterdir()) == []

    def test_load_journal_rejects_broken_lines(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"kind": "provenance"}\nnot json\n')
        with pytest.raises(ValueError, match="broken.jsonl:2"):
            load_journal(path)

    @pytest.mark.parametrize("record", [
        '{"kind": "progress", "elapsed_s": "x"}',
        '{"kind": "task", "wall_time_s": "slow"}',
        '{"kind": "task", "runs": NaN}',
        '{"kind": "advise", "cache_hits": true}',
        '{"kind": "fallback", "t_s": null}',
    ])
    def test_load_journal_rejects_mistyped_numbers(self, tmp_path, record):
        path = tmp_path / "mistyped.jsonl"
        path.write_text('{"kind": "provenance", "t_s": 0.0}\n' + record)
        field = next(iter(json.loads(record).keys() - {"kind"}))
        with pytest.raises(ValueError, match=f"mistyped.jsonl:2: field "
                           f"'{field}'"):
            load_journal(path)

    @pytest.mark.parametrize("record, field", [
        ('{"kind": "task", "backend": 5, "runs": 1}', "backend"),
        ('{"kind": "task", "scenario": ["x"]}', "scenario"),
        ('{"kind": "artifact", "files": 3}', "files"),
        ('{"kind": "cache", "op": ["hit"]}', "op"),
    ])
    def test_load_journal_rejects_mistyped_text_fields(self, tmp_path,
                                                        record, field):
        path = tmp_path / "mistyped.jsonl"
        path.write_text('{"kind": "provenance", "t_s": 0.0}\n' + record)
        with pytest.raises(ValueError, match=f"mistyped.jsonl:2: field "
                           f"'{field}'"):
            load_journal(path)


class TestSinkScopes:
    """Every ``*_to`` scope restores the sink active before it, so a run
    made after an inner block lands in the outer sink."""

    def test_nested_cache_scope_restores_the_outer_cache(self, tmp_path):
        before = active_cache()
        with cache_to(tmp_path / "outer") as outer:
            with cache_to(tmp_path / "inner") as inner:
                assert active_cache() is inner
            assert active_cache() is outer
            small_task(seed_entropy=(4,)).execute()
        assert active_cache() is before
        assert outer.stats.stores == 1
        assert inner.stats.stores == 0

    def test_nested_journal_scope_restores_the_outer_journal(self, tmp_path):
        before = active_journal()
        with journal_to(tmp_path / "outer.jsonl") as outer:
            with journal_to(tmp_path / "inner.jsonl") as inner:
                assert active_journal() is inner
            assert active_journal() is outer
            small_task(seed_entropy=(4,)).execute()
        assert active_journal() is before
        outer_kinds = [r["kind"] for r in load_journal(outer.path)]
        assert outer_kinds.count("task") == 1
        assert [r["kind"] for r in load_journal(inner.path)] == [
            "provenance"
        ]

    def test_nested_metrics_scope_restores_the_outer_registry(self):
        before = active_registry()
        with metrics_to() as outer:
            with metrics_to() as inner:
                assert active_registry() is inner
            assert active_registry() is outer
            small_task(seed_entropy=(4,)).execute()
        assert active_registry() is before
        assert outer.counter("runs_total").value == 1
        assert "runs_total" not in inner.counters

    def test_nested_progress_scope_restores_the_outer_callback(self):
        outer_seen: list = []
        inner_seen: list = []
        with progress_to(outer_seen.append):
            with progress_to(inner_seen.append):
                pass
            small_task(seed_entropy=(4,)).execute()
        assert inner_seen == []
        assert outer_seen and outer_seen[-1].done == 1


class TestStatsSummary:
    def test_summary_names_backends_and_slowest_tasks(self, tmp_path):
        from repro.backends import drain_fallback_events

        # The process-wide fallback log deduplicates per (cell, hop); an
        # earlier test may already have recorded awf's msg-fast -> msg
        # hop, which would keep it out of this journal.
        drain_fallback_events()
        path = tmp_path / "journal.jsonl"
        with journal_to(path):
            run_replicated(small_task(), 3, campaign_seed=5)
            run_replicated(
                small_task(technique="awf"), 2, campaign_seed=5
            )
        text = summarize_journal(load_journal(path))
        assert "msg-fast" in text
        assert "msg" in text
        assert "capability fallbacks:" in text
        assert "slowest task" in text
        assert "fac2(n=256, p=4)" in text

    def test_summary_zero_fallbacks_reads_as_such(self):
        records = [
            {"kind": "task", "backend": "direct-batch",
             "requested": "direct-batch", "runs": 2, "wall_time_s": 0.1,
             "events": 20},
        ]
        text = summarize_journal(records)
        assert (
            "fallbacks: none — every task ran on its requested backend"
            in text
        )

    def test_summary_without_tasks_omits_fallback_line(self):
        text = summarize_journal([{"kind": "provenance"}])
        assert "fallbacks" not in text

    def test_summary_advise_section_percentiles_and_hit_share(self):
        records = [
            {"kind": "advise", "best": "fac2", "elapsed_s": 0.004,
             "cache_hits": 8, "cache_misses": 0},
            {"kind": "advise", "best": "fac2", "elapsed_s": 0.021,
             "cache_hits": 8, "cache_misses": 0},
            {"kind": "advise", "best": "gss", "elapsed_s": 0.350,
             "cache_hits": 0, "cache_misses": 8},
        ]
        text = summarize_journal(records)
        # nearest-rank percentiles: p95 of three samples is the max
        assert "p50 0.021s" in text
        assert "p95 0.350s" in text
        assert "cache-hit share 66.7%" in text
        assert "fac2 x2" in text
        assert "favorite: fac2" in text


class TestProvenance:
    def test_capture_provenance_fields(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        data = capture_provenance()
        assert data["package_version"]
        assert data["python"]
        assert data["repro_workers"] == "7"

    def test_platform_xml_hash_is_stable(self):
        from repro.simgrid.platform import star_platform

        platform = star_platform(4)
        assert platform_xml_hash(platform) == platform_xml_hash(platform)
        assert len(platform_xml_hash(platform)) == 64


class TestResolveWorkersValidation:
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_WORKERS", value)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)

    def test_non_integer_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        with pytest.raises(ValueError, match="REPRO_WORKERS.*'abc'"):
            resolve_workers(None)

    def test_valid_value_used(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_explicit_argument_bypasses_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        assert resolve_workers(2) == 2
