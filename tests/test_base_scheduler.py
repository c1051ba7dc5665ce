"""Tests for the Scheduler base class (repro.core.base)."""

from __future__ import annotations

import pytest

from repro.core.base import PARAM_SYMBOLS, ChunkRecord, Scheduler, chunk_sizes
from repro.core.params import SchedulingParams
from repro.core.registry import create


class FixedFive(Scheduler):
    """Toy technique assigning five tasks per request."""

    name = "fixed-five-test"
    label = "F5"
    requires = frozenset()

    def _chunk_size(self, worker: int) -> int:
        return 5


def make(n=17, p=3) -> FixedFive:
    return FixedFive(SchedulingParams(n=n, p=p))


class TestNextChunk:
    def test_chunks_clip_to_remaining(self):
        s = make(n=12)
        assert s.next_chunk(0) == 5
        assert s.next_chunk(1) == 5
        assert s.next_chunk(2) == 2  # clipped
        assert s.next_chunk(0) == 0  # exhausted

    def test_conservation(self):
        s = make(n=17)
        total = 0
        while not s.done:
            total += s.next_chunk(0)
        assert total == 17

    def test_done_flag(self):
        s = make(n=5)
        assert not s.done
        s.next_chunk(0)
        assert s.done

    def test_zero_task_scheduler_immediately_done(self):
        s = make(n=0)
        assert s.done
        assert s.next_chunk(0) == 0

    def test_chunk_records_have_contiguous_starts(self):
        s = make(n=13)
        chunks = []
        while not s.done:
            size = s.next_chunk(0)
            chunks.append(s.last_chunk)
            assert chunks[-1].size == size
        assert [c.index for c in chunks] == list(range(len(chunks)))
        next_start = 0
        for c in chunks:
            assert c.start == next_start
            next_start += c.size
        assert next_start == 13

    def test_last_chunk_tracks_latest(self):
        s = make()
        assert s.last_chunk is None
        s.next_chunk(2)
        assert s.last_chunk == ChunkRecord(index=0, worker=2, start=0, size=5)

    def test_num_scheduling_operations(self):
        s = make(n=11)
        while not s.done:
            s.next_chunk(0)
        assert s.num_scheduling_operations == 3  # 5 + 5 + 1


class TestRecordFinished:
    def test_outstanding_bookkeeping(self):
        s = make(n=10)
        s.next_chunk(0)
        assert s.state.outstanding == 5
        assert s.state.in_flight_plus_remaining == 10
        s.record_finished(0, 5, elapsed=5.0)
        assert s.state.outstanding == 0
        assert s.state.in_flight_plus_remaining == 5

    def test_over_reporting_rejected(self):
        s = make()
        s.next_chunk(0)
        with pytest.raises(ValueError, match="outstanding"):
            s.record_finished(0, 6, elapsed=1.0)

    def test_negative_size_rejected(self):
        s = make()
        s.next_chunk(0)
        with pytest.raises(ValueError, match="non-negative"):
            s.record_finished(0, -1, elapsed=1.0)


class TestValidateParams:
    def test_missing_required_mu_raises(self):
        # FAC requires mu and sigma (Table II).
        with pytest.raises(ValueError, match="requires parameters"):
            create("fac", SchedulingParams(n=10, p=2))

    def test_missing_required_sigma_raises(self):
        with pytest.raises(ValueError, match="sigma"):
            create("fsc", SchedulingParams(n=10, p=2, h=0.5))


class TestChunkSizesHelper:
    def test_drains_scheduler(self):
        sizes = chunk_sizes(make(n=23))
        assert sum(sizes) == 23
        assert all(x > 0 for x in sizes)

    def test_drains_adaptive_scheduler(self):
        params = SchedulingParams(n=64, p=4, h=0.1, mu=1.0, sigma=0.5)
        sizes = chunk_sizes(create("af", params))
        assert sum(sizes) == 64


def test_param_symbols_match_table1():
    assert PARAM_SYMBOLS == ("p", "n", "r", "h", "mu", "sigma", "f", "l", "m")
