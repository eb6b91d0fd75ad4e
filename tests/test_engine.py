"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import (Condition, MultiChannelResource, SerialResource,
                              Simulator)


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(5))
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(3.0, lambda: seen.append(3))
        sim.run()
        assert seen == [1, 3, 5]

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        seen = []
        for i in range(10):
            sim.schedule(2.0, lambda i=i: seen.append(i))
        sim.run()
        assert seen == list(range(10))

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(4.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [4.5]

    def test_callbacks_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append("first")
            sim.schedule(sim.now + 2.0, lambda: seen.append("second"))

        sim.schedule(1.0, first)
        end = sim.run()
        assert seen == ["first", "second"]
        assert end == 3.0

    def test_scheduling_in_past_raises(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: sim.schedule(5.0, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_sampler_runs_once_per_horizon_before_the_event(self):
        """``on_advance`` is consulted at the first event (the initial
        horizon is ``-inf``), then once before the first event at or
        past each horizon it returns, with ``now`` still at the previous
        event — and never while the clock stays short of the horizon."""
        sim = Simulator()
        log = []
        horizons = iter([5.0, 10.0, 100.0])

        def advance(at):
            log.append(("hook", at, sim.now))
            return next(horizons)

        sim.on_advance = advance
        for t in (1.0, 2.0, 5.0, 5.0, 7.0, 12.0, 40.0):
            sim.schedule(t, lambda t=t: log.append(("event", t)))
        assert sim.run() == 40.0
        assert log == [
            ("hook", 1.0, 0.0), ("event", 1.0), ("event", 2.0),
            ("hook", 5.0, 2.0), ("event", 5.0), ("event", 5.0),
            ("event", 7.0),
            ("hook", 12.0, 7.0), ("event", 12.0), ("event", 40.0),
        ]

    def test_empty_run_returns_zero(self):
        assert Simulator().run() == 0.0

    def test_determinism_across_runs(self):
        def trace():
            sim = Simulator()
            seen = []
            for i in range(50):
                sim.schedule((i * 7) % 13 + 0.25, lambda i=i: seen.append(i))
            sim.run()
            return seen

        assert trace() == trace()


class TestCondition:
    def test_fire_wakes_waiter_at_max_of_times(self):
        sim = Simulator()
        cond = Condition(sim, "c")
        woken = []
        cond.park(clock=10.0, wake=lambda at: woken.append(at))
        sim.schedule(1.0, lambda: cond.fire(3.0))
        sim.run()
        # Waiter's own clock (10) is later than the fire time (3).
        assert woken == [10.0]

    def test_fire_after_waiter_clock_uses_fire_time(self):
        sim = Simulator()
        cond = Condition(sim, "c")
        woken = []
        cond.park(clock=1.0, wake=lambda at: woken.append(at))
        sim.schedule(0.0, lambda: cond.fire(7.5))
        sim.run()
        assert woken == [7.5]

    def test_fire_with_no_waiters_is_noop(self):
        sim = Simulator()
        cond = Condition(sim, "c")
        cond.fire(5.0)
        sim.run()
        assert cond.num_waiters == 0

    def test_unpark_removes_waiter(self):
        sim = Simulator()
        cond = Condition(sim, "c")
        woken = []
        wake = lambda at: woken.append(at)
        cond.park(1.0, wake)
        cond.unpark(wake)
        cond.fire(2.0)
        sim.run()
        assert woken == []

    def test_fire_wakes_all_waiters(self):
        sim = Simulator()
        cond = Condition(sim, "c")
        woken = []
        for i in range(4):
            cond.park(float(i), lambda at, i=i: woken.append(i))
        sim.schedule(0.0, lambda: cond.fire(10.0))
        sim.run()
        assert sorted(woken) == [0, 1, 2, 3]


class TestSerialResource:
    def test_uncontended_service(self):
        bus = SerialResource("bus")
        begin, end = bus.acquire(10.0, 5.0)
        assert (begin, end) == (10.0, 15.0)

    def test_queueing_delay(self):
        bus = SerialResource("bus")
        bus.acquire(0.0, 10.0)
        begin, end = bus.acquire(2.0, 3.0)
        assert (begin, end) == (10.0, 13.0)

    def test_idle_gap_not_carried(self):
        bus = SerialResource("bus")
        bus.acquire(0.0, 1.0)
        begin, end = bus.acquire(100.0, 1.0)
        assert (begin, end) == (100.0, 101.0)

    def test_busy_time_accumulates(self):
        bus = SerialResource("bus")
        bus.acquire(0.0, 2.0)
        bus.acquire(0.0, 3.0)
        assert bus.busy_time == 5.0
        assert bus.total_requests == 2

    def test_negative_duration_raises(self):
        with pytest.raises(SimulationError):
            SerialResource().acquire(0.0, -1.0)


class TestMultiChannelResource:
    def test_parallel_channels(self):
        mc = MultiChannelResource(2)
        b1, e1 = mc.acquire(0.0, 10.0)
        b2, e2 = mc.acquire(0.0, 10.0)
        assert (b1, b2) == (0.0, 0.0)  # both run concurrently
        b3, e3 = mc.acquire(0.0, 10.0)
        assert b3 == 10.0  # third waits for a free channel

    def test_picks_earliest_free_channel(self):
        mc = MultiChannelResource(2)
        mc.acquire(0.0, 10.0)
        mc.acquire(0.0, 2.0)
        begin, _ = mc.acquire(3.0, 1.0)
        assert begin == 3.0  # channel 2 free at 2.0

    def test_zero_channels_rejected(self):
        with pytest.raises(SimulationError):
            MultiChannelResource(0)


class TestTimelineBackfill:
    """The timeline semantics added for out-of-order bookings."""

    def test_backfill_into_earlier_gap(self):
        bus = SerialResource("bus")
        bus.acquire(100.0, 10.0)     # a leader books [100, 110)
        begin, end = bus.acquire(2.0, 3.0)  # a laggard books at t=2
        # The bus was genuinely idle at t=2: no queueing behind the future.
        assert (begin, end) == (2.0, 5.0)

    def test_gap_between_intervals_used(self):
        bus = SerialResource("bus")
        bus.acquire(0.0, 10.0)
        bus.acquire(50.0, 10.0)
        begin, end = bus.acquire(5.0, 8.0)  # fits in [10, 50)
        assert (begin, end) == (10.0, 18.0)

    def test_too_small_gap_skipped(self):
        bus = SerialResource("bus")
        bus.acquire(0.0, 10.0)
        bus.acquire(12.0, 10.0)
        begin, end = bus.acquire(0.0, 5.0)  # [10,12) too small
        assert (begin, end) == (22.0, 27.0)

    def test_adjacent_intervals_merge(self):
        bus = SerialResource("bus")
        for i in range(100):
            bus.acquire(float(i), 1.0)
        assert len(bus._intervals) == 1
        assert bus.free_at == 100.0

    def test_peek_matches_acquire(self):
        bus = SerialResource("bus")
        bus.acquire(0.0, 10.0)
        bus.acquire(15.0, 10.0)
        for start, dur in [(0.0, 3.0), (11.0, 2.0), (30.0, 1.0)]:
            expected_end = bus.peek(start, dur)
            b, e = bus.acquire(start, dur)
            assert e == expected_end

    def test_tail_peek_and_acquire_do_not_search(self, monkeypatch):
        # RequestEngine.fetch_page peeks the service timeline and
        # then books it; when the request lands past the timeline's end
        # (the common case) neither may pay for the gap search.
        bus = SerialResource("bus")
        bus.acquire(0.0, 10.0)
        bus.acquire(15.0, 10.0)

        def no_search(start, duration):
            raise AssertionError("tail booking searched the timeline")

        monkeypatch.setattr(bus, "_find", no_search)
        assert bus.peek(25.0, 1e-6) == 25.0 + 1e-6
        assert bus.peek(40.0, 3.0) == 43.0
        assert bus.acquire(25.0, 2.0) == (25.0, 27.0)   # touches: extends
        assert bus.acquire(26.0, 2.0) == (27.0, 29.0)   # inside the tail
        assert bus.acquire(40.0, 1.0) == (40.0, 41.0)
        assert bus._intervals == [(0.0, 10.0), (15.0, 29.0), (40.0, 41.0)]

    def test_condition_fire_without_waiters_schedules_nothing(self):
        sim = Simulator()
        cond = Condition(sim, "c")
        cond.fire(5.0)
        assert sim.pending_events == 0
        woken = []
        cond.park(7.0, woken.append)
        cond.fire(5.0)      # wakes at max(fire time, waiter clock)
        cond.fire(9.0)      # still registered: fires again
        sim.run()
        assert woken == [7.0, 9.0]

    def test_zero_duration_is_free(self):
        bus = SerialResource("bus")
        bus.acquire(0.0, 10.0)
        assert bus.acquire(5.0, 0.0) == (5.0, 5.0)

    def test_multichannel_uses_both_timelines(self):
        mc = MultiChannelResource(2)
        mc.acquire(0.0, 10.0)
        mc.acquire(0.0, 10.0)
        # Channel timelines full until 10; a laggard fits neither earlier.
        b, e = mc.acquire(0.0, 10.0)
        assert b == 10.0
        # But a booking before both intervals backfills.
        mc2 = MultiChannelResource(2)
        mc2.acquire(100.0, 10.0)
        b, e = mc2.acquire(0.0, 5.0)
        assert (b, e) == (0.0, 5.0)
