"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.simgrid.engine import Engine, SimulationError, Timeout


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_events_fire_in_time_order(self):
        engine = Engine()
        seen = []
        engine.schedule(2.0, lambda: seen.append("b"))
        engine.schedule(1.0, lambda: seen.append("a"))
        engine.schedule(3.0, lambda: seen.append("c"))
        engine.run()
        assert seen == ["a", "b", "c"]

    def test_equal_times_fire_in_schedule_order(self):
        engine = Engine()
        seen = []
        for i in range(5):
            engine.schedule(1.0, lambda i=i: seen.append(i))
        engine.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_times(self):
        engine = Engine()
        times = []
        engine.schedule(1.5, lambda: times.append(engine.now))
        engine.schedule(4.0, lambda: times.append(engine.now))
        final = engine.run()
        assert times == [1.5, 4.0]
        assert final == 4.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().schedule(-1.0, lambda: None)

    def test_until_bound(self):
        engine = Engine()
        seen = []
        engine.schedule(1.0, lambda: seen.append(1))
        engine.schedule(10.0, lambda: seen.append(2))
        engine.run(until=5.0)
        assert seen == [1]
        assert engine.now == 5.0

    def test_until_in_the_past_does_not_rewind_the_clock(self):
        # Regression: run(until=t) with t < now used to set now = t,
        # rewinding the simulated clock and corrupting any later
        # schedule() (delays are relative to now).
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(10.0, lambda: None)
        engine.run(until=5.0)
        assert engine.now == 5.0
        assert engine.run(until=2.0) == 5.0
        assert engine.now == 5.0

    def test_until_clamp_is_forward_only_across_resumes(self):
        engine = Engine()
        fired = []
        engine.schedule(10.0, lambda: fired.append(engine.now))
        engine.run(until=4.0)
        engine.run(until=2.0)  # earlier bound: a no-op
        engine.run(until=6.0)  # later bound: clock moves forward
        assert engine.now == 6.0
        engine.run()
        assert fired == [10.0]

    def test_nested_scheduling(self):
        engine = Engine()
        seen = []

        def outer():
            seen.append(("outer", engine.now))
            engine.schedule(2.0, inner)

        def inner():
            seen.append(("inner", engine.now))

        engine.schedule(1.0, outer)
        engine.run()
        assert seen == [("outer", 1.0), ("inner", 3.0)]


class TestProcesses:
    def test_process_runs_to_completion(self):
        engine = Engine()
        log = []

        def proc():
            log.append(engine.now)
            yield Timeout(2.0)
            log.append(engine.now)
            yield Timeout(3.0)
            log.append(engine.now)

        engine.spawn(proc(), name="p")
        engine.run()
        assert log == [0.0, 2.0, 5.0]
        assert engine.live_processes == 0

    def test_start_at_delays_first_step(self):
        engine = Engine()
        log = []

        def proc():
            log.append(engine.now)
            yield Timeout(1.0)

        engine.spawn(proc(), start_at=4.0)
        engine.run()
        assert log == [4.0]

    def test_start_in_past_rejected(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()

        def proc():
            yield Timeout(0.0)

        with pytest.raises(ValueError, match="past"):
            engine.spawn(proc(), start_at=1.0)

    def test_non_effect_yield_raises(self):
        engine = Engine()

        def bad():
            yield 42  # not an Effect

        engine.spawn(bad(), name="bad")
        with pytest.raises(SimulationError, match="not an Effect"):
            engine.run()

    def test_deadlock_detection(self):
        from repro.simgrid.msg import Mailbox, Receive
        from repro.simgrid.platform import Host

        engine = Engine()
        mailbox = Mailbox("mb", Host("h"))

        def waiter():
            yield Receive(mailbox)  # nobody ever sends

        engine.spawn(waiter(), name="waiter")
        with pytest.raises(SimulationError, match="deadlock"):
            engine.run()

    def test_many_processes_interleave(self):
        engine = Engine()
        done = []

        def proc(i):
            yield Timeout(float(i))
            done.append(i)

        for i in range(10):
            engine.spawn(proc(i), name=f"p{i}")
        engine.run()
        assert done == list(range(10))

    def test_timeout_duration_validated(self):
        with pytest.raises(ValueError):
            Timeout(-0.5)

    def test_spawn_in_past_does_not_register_process(self):
        """A rejected spawn must leave the engine untouched (no phantom
        live process, no scheduled first step)."""
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()

        def proc():
            yield Timeout(0.0)

        with pytest.raises(ValueError, match="past"):
            engine.spawn(proc(), start_at=1.0)
        assert engine.live_processes == 0
        assert not engine._heap
        engine.run()  # no deadlock: nothing was half-registered

    def test_finished_processes_are_dropped(self):
        engine = Engine()

        def proc():
            yield Timeout(1.0)

        for i in range(50):
            engine.spawn(proc(), name=f"p{i}")
        assert engine.live_processes == 50
        engine.run()
        assert engine.live_processes == 0
        assert not engine._live


class TestZeroAllocationKernel:
    """The event heap must hold plain callbacks, never per-event closures."""

    def test_heap_entries_are_flat_tuples_with_named_callbacks(self):
        engine = Engine()

        def proc():
            for _ in range(3):
                yield Timeout(1.0)

        process = engine.spawn(proc(), name="p")
        for time, seq, callback, args in engine._heap:
            assert callback.__name__ != "<lambda>"
            assert callback.__func__ is type(process).resume
            assert isinstance(args, tuple)

    def test_100k_events_schedule_and_drain_without_closures(self):
        engine = Engine()
        fired = [0]

        def tick(i):
            fired[0] += 1

        for i in range(100_000):
            engine.schedule(i * 1e-3, tick, i)
        # Callback identity: every heap entry holds ``tick`` itself — the
        # kernel wrapped nothing.
        assert all(entry[2] is tick for entry in engine._heap)
        engine.run()
        assert fired[0] == 100_000

    def test_events_processed_counts_across_resumed_runs(self):
        engine = Engine()
        for i in range(5):
            engine.schedule(float(i), lambda: None)
        engine.run(until=1.5)
        assert engine.events_processed == 2
        engine.run()
        assert engine.events_processed == 5

    def test_timeout_effect_schedules_bound_resume(self):
        """A Timeout-driven process drains through bound ``resume``
        callbacks — 100k timeouts, zero per-event closures."""
        engine = Engine()
        fired = [0]

        def proc():
            for _ in range(100_000):
                yield Timeout(0.001)
                fired[0] += 1

        process = engine.spawn(proc(), name="driver")
        engine.run(until=0.5)  # mid-flight: inspect the pending event
        (entry,) = engine._heap
        assert entry[2].__self__ is process
        assert entry[2].__func__ is type(process).resume
        engine.run()
        assert fired[0] == 100_000
        assert engine.live_processes == 0
