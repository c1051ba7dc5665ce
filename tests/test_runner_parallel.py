"""Tests for the campaign runner's process-parallel path."""

from __future__ import annotations

import signal
import sys
import threading
from dataclasses import replace

import pytest

from repro.experiments.runner import (
    RunTask,
    run_campaign,
    run_replicated,
)
from repro.experiments.bold_experiments import scheduling_params
from repro.workloads import ExponentialWorkload, replication_entropies


def make_task(simulator: str = "direct") -> RunTask:
    return RunTask(
        technique="fac2",
        params=scheduling_params(256, 4),
        workload=ExponentialWorkload(1.0),
        simulator=simulator,
    )


def seeded_tasks(task: RunTask, runs: int, campaign_seed: int):
    """One task per replication of a sweep, under the sweep's seeds."""
    return [
        replace(task, seed_entropy=entropy)
        for entropy in replication_entropies(campaign_seed, runs)
    ]


def exit_on_sigterm(signum, frame):
    sys.exit(1)


class TestExpandReplications:
    def test_seeds_distinct(self):
        assert len(set(replication_entropies(1, 5))) == 5

    def test_deterministic(self):
        assert replication_entropies(2, 3) == replication_entropies(2, 3)

    def test_invalid_runs(self):
        with pytest.raises(ValueError):
            run_replicated(make_task(), 0, campaign_seed=1)


class TestProcessPool:
    def test_pool_path_matches_sequential(self):
        """processes=2 exercises pickling + Pool; results must match the
        in-process path exactly (same seeds, same tasks)."""
        tasks = seeded_tasks(make_task(), 4, campaign_seed=7)
        sequential = run_campaign(tasks, processes=1)
        pooled = run_campaign(tasks, processes=2)
        assert [r.makespan for r in pooled] == [
            r.makespan for r in sequential
        ]
        assert [r.num_chunks for r in pooled] == [
            r.num_chunks for r in sequential
        ]

    def test_run_replicated_with_pool(self):
        results = run_replicated(
            make_task(), 3, campaign_seed=9, processes=2
        )
        assert len(results) == 3
        assert len({r.makespan for r in results}) == 3

    def test_single_task_stays_in_process(self):
        results = run_campaign([make_task()], processes=8)
        assert len(results) == 1

    def test_msg_tasks_pickle_through_pool(self):
        task = RunTask(
            technique="gss",
            params=scheduling_params(128, 4),
            workload=ExponentialWorkload(1.0),
            simulator="msg",
        )
        tasks = seeded_tasks(task, 2, campaign_seed=3)
        results = run_campaign(tasks, processes=2)
        assert all(r.total_task_time > 0 for r in results)


def make_msg_task(simulator: str, technique: str = "fac2") -> RunTask:
    return RunTask(
        technique=technique,
        params=scheduling_params(256, 4),
        workload=ExponentialWorkload(1.0),
        simulator=simulator,
    )


class TestMsgFastCampaign:
    def test_msg_fast_matches_msg_bit_for_bit(self):
        """A blocked msg-fast campaign equals a serial msg campaign."""
        ref = run_replicated(make_msg_task("msg"), 6, campaign_seed=11,
                             processes=1)
        fast = run_replicated(make_msg_task("msg-fast"), 6, campaign_seed=11,
                              processes=1)
        for a, b in zip(ref, fast):
            assert a.makespan == b.makespan
            assert a.compute_times == b.compute_times
            assert a.chunks_per_worker == b.chunks_per_worker
            assert a.extras == b.extras

    def test_msg_fast_independent_of_worker_count(self):
        one = run_replicated(make_msg_task("msg-fast"), 6, campaign_seed=13,
                             processes=1)
        two = run_replicated(make_msg_task("msg-fast"), 6, campaign_seed=13,
                             processes=2)
        assert [r.makespan for r in one] == [r.makespan for r in two]
        assert [r.extras["total_requests"] for r in one] == [
            r.extras["total_requests"] for r in two
        ]

    def test_msg_fast_adaptive_falls_back_but_matches(self):
        """Techniques without a fast path fall back to msg in the
        registry — still identical to the plain msg campaign."""
        for technique in ("awf", "awf-c", "af", "bold", "wf"):
            ref = run_replicated(make_msg_task("msg", technique), 3,
                                 campaign_seed=17, processes=1)
            fast = run_replicated(make_msg_task("msg-fast", technique), 3,
                                  campaign_seed=17, processes=1)
            assert [r.makespan for r in ref] == [
                r.makespan for r in fast
            ], technique
            assert all(r.stats.backend == "msg" for r in fast), technique

    def test_msg_fast_derived_entropy_matches_msg(self):
        """Un-seeded msg-fast tasks reproduce un-seeded msg tasks."""
        assert (make_msg_task("msg").derived_entropy()
                == make_msg_task("msg-fast").derived_entropy())


class TestPooledReplicateMsg:
    def test_pooled_matches_serial(self):
        """msg replications dispatched over the process pool match the
        in-process path exactly, extras included."""
        task = make_task("msg")
        serial = run_replicated(task, 10, campaign_seed=5, processes=1)
        pooled = run_replicated(task, 10, campaign_seed=5, processes=2)
        assert [r.makespan for r in serial] == [r.makespan for r in pooled]
        assert [r.extras for r in serial] == [r.extras for r in pooled]


class TestSharedPoolSafety:
    """The serve path dispatches campaigns from many threads at once and
    simulated tasks may re-enter the runner from inside a worker; both
    must share (or avoid) the one persistent pool."""

    def test_usable_workers_inside_pool_worker_is_one(self, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setattr(runner, "_IN_POOL_WORKER", True)
        assert runner._usable_workers(8) == 1
        assert runner._usable_workers(None) == 1
        assert runner.in_pool_worker()

    def test_get_pool_refuses_nested_creation(self, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setattr(runner, "_IN_POOL_WORKER", True)
        with pytest.raises(RuntimeError, match="nested"):
            with runner._POOL_LOCK:
                runner._get_pool(2)

    def test_nested_campaign_call_degrades_to_serial(self, monkeypatch):
        """run_replicated(processes=4) inside a pool worker must run the
        serial path — and produce the identical results."""
        from repro.experiments import runner

        reference = run_replicated(make_task(), 3, campaign_seed=21,
                                   processes=1)
        monkeypatch.setattr(runner, "_IN_POOL_WORKER", True)
        nested = run_replicated(make_task(), 3, campaign_seed=21,
                                processes=4)
        assert [r.makespan for r in nested] == [
            r.makespan for r in reference
        ]

    def test_concurrent_threads_share_one_pool(self):
        from repro.experiments import runner

        # warm the pool so every thread finds one to share
        run_replicated(make_task(), 2, campaign_seed=1, processes=2)
        with runner._POOL_LOCK:
            pool_id = id(runner._POOL)
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def campaign(seed):
            try:
                results[seed] = run_replicated(
                    make_task(), 2, campaign_seed=seed, processes=2
                )
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=campaign, args=(seed,))
            for seed in (31, 32, 33, 34)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        with runner._POOL_LOCK:
            assert id(runner._POOL) == pool_id  # nobody re-forked it
        for seed, got in results.items():
            expected = run_replicated(
                make_task(), 2, campaign_seed=seed, processes=1
            )
            assert [r.makespan for r in got] == [
                r.makespan for r in expected
            ]

    def test_workers_drop_an_inherited_sigterm_handler(self):
        """A SIGTERM handler of the forking process (one that calls
        sys.exit, say) must not reach the workers, or terminate() may
        leave one alive and shutdown_pool() hang on its join."""
        from repro.experiments import runner

        runner.shutdown_pool()
        previous = signal.signal(signal.SIGTERM, exit_on_sigterm)
        try:
            with runner._POOL_LOCK:
                pool = runner._get_pool(2)
            handler = pool.apply_async(
                signal.getsignal, (signal.SIGTERM,)
            ).get(timeout=30)
            assert handler == signal.SIG_DFL
            shutdown = threading.Thread(
                target=runner.shutdown_pool, daemon=True
            )
            shutdown.start()
            shutdown.join(timeout=30)
            assert not shutdown.is_alive(), "shutdown_pool() hung"
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_differing_size_request_does_not_kill_busy_pool(self):
        from repro.experiments import runner

        run_replicated(make_task(), 2, campaign_seed=1, processes=2)
        with runner._POOL_LOCK:
            pool_id = id(runner._POOL)
            runner._POOL_ACTIVE += 1  # another thread mid-dispatch
            try:
                pool = runner._get_pool(3)  # differing size must reuse
                assert id(pool) == pool_id
            finally:
                runner._POOL_ACTIVE -= 1
        with runner._POOL_LOCK:
            pool = runner._get_pool(3)  # idle now: resize allowed
            assert id(pool) != pool_id
        runner.shutdown_pool()


class TestRunReplicatedBatch:
    def test_matches_per_sweep_run_replicated(self, tmp_path):
        from repro.experiments.runner import run_replicated_batch

        sweeps = [
            (make_task(), 3, 41),
            (make_msg_task("msg-fast"), 2, 42),
            (make_msg_task("msg", "gss"), 2, 43),
        ]
        batched = run_replicated_batch(sweeps, processes=2)
        assert len(batched) == 3
        for (task, runs, seed), group in zip(sweeps, batched):
            expected = run_replicated(task, runs, campaign_seed=seed,
                                      processes=1)
            assert group == expected

        # The same holds with the cache off, cold and warm, down to the
        # cache traffic and the journal; a campaign of one task is that
        # task's execute().
        import contextlib

        from repro.cache import cache_to
        from repro.obs import journal_to, load_journal

        (single,) = seeded_tasks(make_task(), 1, campaign_seed=44)
        sides = {
            "batch": lambda: (run_replicated_batch(sweeps, processes=2),
                              run_campaign([single], processes=2)),
            "per-sweep": lambda: (
                [run_replicated(task, runs, campaign_seed=seed, processes=1)
                 for task, runs, seed in sweeps],
                [single.execute()],
            ),
        }
        for mode in ("off", "cold", "warm"):
            seen = {}
            for side, run in sides.items():
                journal = tmp_path / f"{side}-{mode}.jsonl"
                with contextlib.ExitStack() as stack:
                    stack.enter_context(journal_to(journal))
                    cache = None if mode == "off" else stack.enter_context(
                        cache_to(tmp_path / f"cache-{side}"))
                    results = run()
                stats = None if cache is None else (
                    cache.stats.hits, cache.stats.misses, cache.stats.stores)
                tasks = [(r["technique"], r["runs"], r.get("campaign_seed"))
                         for r in load_journal(journal)
                         if r["kind"] == "task"]
                seen[side] = (results, stats, tasks)
            assert seen["batch"] == seen["per-sweep"], mode
            results, stats, tasks = seen["batch"]
            assert results == (batched, [single.execute()])
            fresh = [(task.technique, runs, seed)
                     for task, runs, seed in sweeps] + [("fac2", 1, None)]
            assert tasks == ([] if mode == "warm" else fresh), mode
            if mode != "off":
                assert stats == ((4, 0, 0) if mode == "warm"
                                 else (0, 4, 4)), mode

    def test_serves_and_fills_the_cache(self, tmp_path):
        from repro.cache import cache_to
        from repro.experiments.runner import run_replicated_batch

        sweeps = [(make_task(), 2, 51), (make_msg_task("direct", "gss"), 2, 52)]
        with cache_to(tmp_path / "cache") as cache:
            # pre-warm one sweep through the serial entry point
            run_replicated(make_task(), 2, campaign_seed=51, processes=1)
            first = run_replicated_batch(sweeps, processes=2)
            assert cache.stats.hits == 1     # the pre-warmed sweep
            assert cache.stats.misses == 2   # warm-up plus one cold sweep
            second = run_replicated_batch(sweeps, processes=2)
            assert cache.stats.hits == 3
        assert first == second

    def test_empty_batch(self):
        from repro.experiments.runner import run_replicated_batch

        assert run_replicated_batch([]) == []
