"""Tests for the AWF family (adaptive weighted factoring)."""

from __future__ import annotations

import pytest

from repro.core.base import chunk_sizes
from repro.core.params import SchedulingParams
from repro.core.registry import create


def params(n=1024, p=4, h=0.25) -> SchedulingParams:
    return SchedulingParams(n=n, p=p, h=h)


def drain_with_speeds(scheduler, speeds):
    """Drain a scheduler, reporting times that reflect PE speeds."""
    sizes_by_worker = {w: [] for w in range(len(speeds))}
    worker = 0
    while not scheduler.done:
        size = scheduler.next_chunk(worker)
        if size == 0:
            break
        sizes_by_worker[worker].append(size)
        scheduler.record_finished(worker, size, elapsed=size / speeds[worker])
        worker = (worker + 1) % len(speeds)
    return sizes_by_worker


class TestAwfCommon:
    @pytest.mark.parametrize("name", ["awf", "awf-b", "awf-c", "awf-d", "awf-e"])
    def test_conservation(self, name):
        assert sum(chunk_sizes(create(name, params()))) == 1024

    @pytest.mark.parametrize("name", ["awf", "awf-b", "awf-c", "awf-d", "awf-e"])
    def test_marked_adaptive(self, name):
        assert create(name, params()).adaptive

    def test_initial_weights_equal(self):
        s = create("awf-b", params())
        assert s.current_weights() == [1.0] * 4

    def test_initial_weights_from_params(self):
        p = SchedulingParams(n=100, p=2, weights=(1.0, 3.0))
        s = create("awf-b", p)
        assert s.current_weights() == [0.5, 1.5]

    def test_weights_adapt_to_fast_worker(self):
        s = create("awf-c", params(n=4096, p=2))
        drain_with_speeds(s, speeds=[1.0, 4.0])
        w = s.current_weights()
        assert w[1] > w[0]
        assert sum(w) == pytest.approx(2.0)

    def test_fast_worker_receives_more_tasks(self):
        s = create("awf-c", params(n=4096, p=2))
        by_worker = drain_with_speeds(s, speeds=[1.0, 4.0])
        assert sum(by_worker[1]) > sum(by_worker[0])

    def test_weights_mean_one(self):
        s = create("awf-b", params(n=2048, p=4))
        drain_with_speeds(s, speeds=[1.0, 2.0, 3.0, 4.0])
        assert sum(s.current_weights()) == pytest.approx(4.0)


class TestAwfVariantDifferences:
    def test_chunk_updates_react_faster_than_batch(self):
        """AWF-C recomputes weights mid-batch; AWF-B waits for batch end."""
        def feed_two_chunks(s):
            # Workers 0 and 1 complete their first-batch chunks (workers
            # 2 and 3 have not claimed theirs, so the batch is still open).
            s1 = s.next_chunk(0)
            s.record_finished(0, s1, elapsed=s1 * 1.0)   # slow worker
            s2 = s.next_chunk(1)
            s.record_finished(1, s2, elapsed=s2 * 0.25)  # fast worker

        c = create("awf-c", params(n=512, p=4))
        feed_two_chunks(c)
        wc = c.current_weights()
        assert wc[1] > wc[0]  # adapted mid-batch
        b = create("awf-b", params(n=512, p=4))
        feed_two_chunks(b)
        # AWF-B recomputes only at the next batch start.
        assert b.current_weights() == [1.0, 1.0, 1.0, 1.0]

    def test_overhead_inclusive_variants_differ(self):
        """AWF-D folds h into the measured time; AWF-B does not."""
        pd = params(n=512, p=2, h=5.0)
        d = create("awf-d", pd)
        b = create("awf-b", pd)
        for s in (d, b):
            size = s.next_chunk(0)
            s.record_finished(0, size, elapsed=1.0)
            size = s.next_chunk(1)
            s.record_finished(1, size, elapsed=2.0)
            # Force a recompute by starting the next batch.
            while not s.done:
                size = s.next_chunk(0)
                s.record_finished(0, size, elapsed=1.0)
        # The h=5 addend dilutes the relative difference for AWF-D.
        assert d._stats[0].pi != b._stats[0].pi


class TestTimestepAwf:
    def test_start_timestep_rearms_scheduler(self):
        s = create("awf", params(n=100, p=2))
        total = sum(chunk_sizes(s))
        assert total == 100
        s.start_timestep()
        assert not s.done
        assert sum(chunk_sizes(s)) == 100
        assert s.timestep == 1

    def test_start_timestep_recomputes_weights(self):
        s = create("awf", params(n=400, p=2))
        drain_with_speeds(s, speeds=[1.0, 3.0])
        assert s.current_weights() == [1.0, 1.0]  # frozen during step
        s.start_timestep()
        w = s.current_weights()
        assert w[1] > w[0]  # adapted between steps

    def test_start_timestep_with_outstanding_rejected(self):
        s = create("awf", params(n=100, p=2))
        s.next_chunk(0)
        with pytest.raises(RuntimeError, match="outstanding"):
            s.start_timestep()

    def test_weights_track_speed_changes_across_steps(self):
        s = create("awf", params(n=400, p=2))
        drain_with_speeds(s, speeds=[1.0, 3.0])
        s.start_timestep()
        first = list(s.current_weights())
        # Worker 0 becomes the fast one; later chunks weigh more, so the
        # ordering flips after enough steps.
        for _ in range(6):
            drain_with_speeds(s, speeds=[5.0, 1.0])
            s.start_timestep()
        second = s.current_weights()
        assert first[1] > first[0]
        assert second[0] > second[1]
