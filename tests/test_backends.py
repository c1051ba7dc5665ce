"""Tests for the simulation-backend registry and capability dispatch."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.backends import (
    BackendResolutionError,
    FallbackEvent,
    ReplicationBlock,
    backend_names,
    capability_matrix,
    capability_matrix_markdown,
    drain_fallback_events,
    get_backend,
    iter_backends,
    peek_fallback_events,
    resolve_backend,
)
from repro.core.params import SchedulingParams
from repro.experiments.runner import RunTask, expand_replications, run_replicated
from repro.simgrid.platform import star_platform
from repro.workloads import (
    ConstantWorkload,
    ExponentialWorkload,
    replication_entropies,
)

DOCS = Path(__file__).resolve().parents[1] / "docs" / "simulators.md"


def make_task(technique: str = "gss", simulator: str = "msg",
              **overrides) -> RunTask:
    kwargs = dict(
        technique=technique,
        params=SchedulingParams(n=256, p=4, h=0.5, mu=1.0, sigma=1.0),
        workload=ExponentialWorkload(1.0),
        simulator=simulator,
    )
    kwargs.update(overrides)
    return RunTask(**kwargs)


class TestRegistry:
    def test_all_four_simulators_registered(self):
        assert backend_names() == [
            "direct", "direct-batch", "msg", "msg-fast",
        ]

    def test_get_backend_case_insensitive(self):
        assert get_backend("MSG-Fast").name == "msg-fast"

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(KeyError) as err:
            get_backend("simgrid4")
        message = str(err.value)
        for name in backend_names():
            assert name in message

    def test_iter_backends_sorted(self):
        assert [b.name for b in iter_backends()] == backend_names()

    def test_fallbacks_point_at_registered_backends(self):
        for backend in iter_backends():
            if backend.fallback is not None:
                assert get_backend(backend.fallback).name != backend.name


class TestResolution:
    def setup_method(self):
        drain_fallback_events()

    def test_closed_form_stays_on_requested_backend(self):
        for name in backend_names():
            task = make_task("gss", simulator=name)
            assert resolve_backend(task).name == name
        assert peek_fallback_events() == []

    def test_direct_batch_serves_adaptive_natively(self):
        """The stepping kernel closed the adaptive capability gap:
        direct-batch serves the feedback-loop techniques itself, with
        no FallbackEvent."""
        for technique in ("awf", "awf-b", "af", "bold"):
            task = make_task(technique, simulator="direct-batch")
            assert resolve_backend(task).name == "direct-batch"
        assert peek_fallback_events() == []

    def test_msg_fast_adaptive_falls_back_to_msg(self):
        task = make_task("af", simulator="msg-fast")
        assert resolve_backend(task).name == "msg"
        (event,) = drain_fallback_events()
        assert (event.requested, event.chosen) == ("msg-fast", "msg")

    def test_worker_dependent_schedule_serves_natively(self):
        for technique in ("wf", "pls", "rnd"):
            task = make_task(technique, simulator="direct-batch")
            assert resolve_backend(task).name == "direct-batch"
        assert peek_fallback_events() == []

    def test_chunk_log_still_falls_back(self):
        """direct-batch records per-chunk logs only on the stepping
        path, and only on request — the capability stays off, so traced
        tasks still degrade to direct with a recorded event."""
        task = make_task("awf-b", simulator="direct-batch",
                         collect_chunk_log=True)
        assert resolve_backend(task).name == "direct"
        (event,) = drain_fallback_events()
        assert "chunk" in event.reason

    def test_no_fallback_raises_resolution_error(self):
        task = make_task("gss", simulator="direct",
                         platform=star_platform(4))
        with pytest.raises(BackendResolutionError) as err:
            resolve_backend(task)
        assert "direct" in str(err.value)

    def test_chain_exhaustion_names_every_backend_tried(self):
        task = make_task("bold", simulator="direct-batch",
                         platform=star_platform(4))
        with pytest.raises(BackendResolutionError) as err:
            resolve_backend(task)
        assert "direct-batch -> direct" in str(err.value)

    def test_fallback_log_deduplicates(self):
        task = make_task("bold", simulator="direct-batch",
                         collect_chunk_log=True)
        resolve_backend(task)
        resolve_backend(task)
        assert len(drain_fallback_events()) == 1


class TestExecution:
    def setup_method(self):
        drain_fallback_events()

    def test_run_replicated_records_fallback(self):
        task = make_task("bold", simulator="direct-batch",
                         collect_chunk_log=True)
        results = run_replicated(task, 3, campaign_seed=5, processes=1)
        assert len(results) == 3
        events = drain_fallback_events()
        assert [(e.requested, e.chosen) for e in events] == [
            ("direct-batch", "direct")
        ]

    def test_run_replicated_adaptive_stays_on_batch(self):
        task = make_task("awf-b", simulator="direct-batch")
        results = run_replicated(task, 3, campaign_seed=5, processes=1)
        assert len(results) == 3
        assert all(r.stats.backend == "direct-batch" for r in results)
        assert drain_fallback_events() == []

    def test_degraded_matches_direct_backend(self):
        """A degraded direct-batch task is bit-identical to asking for
        direct outright (same derived seeds: shared resolution path)."""
        import dataclasses

        batch = make_task("bold", simulator="direct-batch",
                          workload=ConstantWorkload(1.0))
        direct = dataclasses.replace(batch, simulator="direct")
        a = run_replicated(batch, 3, campaign_seed=11, processes=1)
        b = run_replicated(direct, 3, campaign_seed=11, processes=1)
        assert [r.makespan for r in a] == [r.makespan for r in b]

    def test_replication_blocks_partition_runs(self):
        backend = get_backend("direct-batch")
        blocks = backend.replication_blocks(
            make_task("gss", simulator="direct-batch"), 130, 3
        )
        assert [b.runs for b in blocks] == [64, 64, 2]
        assert all(isinstance(b, ReplicationBlock) for b in blocks)

    def test_every_replication_path_draws_one_seed_convention(self):
        """Per-run tasks, msg-fast blocks and direct-batch blocks all
        give replication i the entropy replication_entropies gives it."""
        task = make_task("gss", simulator="msg-fast")
        per_run = [t.seed_entropy for t in expand_replications(task, 130, 3)]
        assert per_run == replication_entropies(3, 130)
        fast_blocks = get_backend("msg-fast").replication_blocks(task, 130, 3)
        assert [e for b in fast_blocks for e in b.seed_entropies] == per_run
        batch_blocks = get_backend("direct-batch").replication_blocks(
            make_task("gss", simulator="direct-batch"), 130, 3
        )
        assert [e for b in batch_blocks for e in b.seed_entropies] == per_run

    def test_run_block_not_implemented_on_scalar_backends(self):
        block = ReplicationBlock(
            backend="direct", task=make_task(), seed_entropies=((1,),)
        )
        with pytest.raises(NotImplementedError):
            block.execute()


class TestDerivedEntropy:
    def test_platform_enters_the_seed_key(self):
        """Two un-seeded tasks differing only in platform must derive
        different seeds (regression: platform was omitted)."""
        base = make_task("gss", simulator="msg")
        with_platform = make_task(
            "gss", simulator="msg", platform=star_platform(4)
        )
        assert base.derived_entropy() != with_platform.derived_entropy()

    def test_platform_key_is_content_based(self):
        a = make_task("gss", platform=star_platform(4))
        b = make_task("gss", platform=star_platform(4))
        assert a.derived_entropy() == b.derived_entropy()

    def test_msg_fast_shares_msg_entropy_namespace(self):
        assert get_backend("msg-fast").entropy_namespace == "msg"
        fast = make_task("gss", simulator="msg-fast")
        msg = make_task("gss", simulator="msg")
        assert fast.derived_entropy() == msg.derived_entropy()
        assert (
            make_task("gss", simulator="direct").derived_entropy()
            != msg.derived_entropy()
        )

    def test_direct_batch_shares_direct_entropy_namespace(self):
        assert get_backend("direct-batch").entropy_namespace == "direct"
        assert (
            make_task("bold", simulator="direct-batch").derived_entropy()
            == make_task("bold", simulator="direct").derived_entropy()
        )


class TestCapabilityMatrix:
    def test_matrix_covers_every_backend(self):
        matrix = dict(capability_matrix())
        assert sorted(matrix) == backend_names()
        assert matrix["msg"]["feedback_techniques"]
        assert matrix["direct-batch"]["feedback_techniques"]
        assert not matrix["direct-batch"]["chunk_log"]

    def test_docs_capability_matrix_in_sync(self):
        """docs/simulators.md embeds the generated matrix verbatim."""
        text = DOCS.read_text()
        begin = "<!-- capability-matrix:begin -->"
        end = "<!-- capability-matrix:end -->"
        embedded = text.split(begin)[1].split(end)[0].strip()
        assert embedded == capability_matrix_markdown().strip()


class TestFallbackEvent:
    def test_round_trips_to_json(self):
        event = FallbackEvent(
            task_key="bold(n=1, p=2)", requested="a", chosen="b", reason="r"
        )
        assert event.to_json() == {
            "task": "bold(n=1, p=2)",
            "requested": "a",
            "chosen": "b",
            "reason": "r",
        }
