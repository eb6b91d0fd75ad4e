"""Property-based tests for the interval-timeline resources."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import MultiChannelResource, SerialResource

pytestmark = pytest.mark.heavy  # long hypothesis suite

bookings = st.lists(
    st.tuples(st.floats(min_value=0, max_value=1000),
              st.floats(min_value=0.1, max_value=50)),
    min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(bookings)
def test_serial_resource_never_overlaps(reqs):
    bus = SerialResource("bus")
    granted = []
    for start, dur in reqs:
        begin, end = bus.acquire(start, dur)
        assert begin >= start
        assert abs((end - begin) - dur) < 1e-9
        granted.append((begin, end))
    granted.sort()
    for (b1, e1), (b2, e2) in zip(granted, granted[1:]):
        assert e1 <= b2 + 1e-9, "bookings overlap"


@settings(max_examples=100, deadline=None)
@given(bookings)
def test_serial_resource_busy_time_conserved(reqs):
    bus = SerialResource("bus")
    for start, dur in reqs:
        bus.acquire(start, dur)
    assert abs(bus.busy_time - sum(d for _, d in reqs)) < 1e-6
    # The merged timeline covers exactly busy_time worth of intervals.
    covered = sum(e - b for b, e in bus._intervals)
    assert abs(covered - bus.busy_time) < 1e-6


@settings(max_examples=100, deadline=None)
@given(bookings)
def test_serial_resource_work_conserving(reqs):
    """Every booking takes the EARLIEST gap that fits (no needless delay):
    re-asking for the same slot after booking must land strictly later."""
    bus = SerialResource("bus")
    for start, dur in reqs:
        begin, end = bus.acquire(start, dur)
        assert bus.peek(start, dur) >= end - 1e-9


@settings(max_examples=100, deadline=None)
@given(bookings, st.integers(min_value=1, max_value=4))
def test_multichannel_capacity_respected(reqs, channels):
    mc = MultiChannelResource(channels)
    granted = []
    for start, dur in reqs:
        begin, end = mc.acquire(start, dur)
        assert begin >= start
        granted.append((begin, end))
    # At no grant boundary do more than `channels` bookings overlap.
    for point, _ in granted:
        active = sum(1 for b, e in granted if b <= point < e)
        assert active <= channels


class _PeekEveryChannel(MultiChannelResource):
    """Reference booking rule, kept here: peek at every channel, book the
    one finishing earliest, ties to the lowest-numbered channel."""

    def acquire(self, start, duration):
        self.total_requests += 1
        if duration == 0:
            return start, start
        best = min(self._channels, key=lambda c: c.peek(start, duration))
        return best.acquire(start, duration)


#: Whole-number times make exact ties and touching intervals common —
#: the cases where "channel 0 is idle from ``start``" is decided by ``<=``.
tie_prone_bookings = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 60).map(float),
                  st.floats(min_value=0, max_value=60)),
        st.one_of(st.integers(0, 8).map(float),
                  st.floats(min_value=0.1, max_value=20))),
    min_size=1, max_size=80)


@settings(max_examples=300, deadline=None)
@given(tie_prone_bookings, st.integers(min_value=1, max_value=4))
def test_multichannel_idle_first_channel_shortcut_is_exact(reqs, channels):
    """Booking channel 0 directly when it is idle from ``start`` on gives
    the same grants and the same per-channel timelines as probing every
    channel."""
    fast = MultiChannelResource(channels)
    ref = _PeekEveryChannel(channels)
    for start, dur in reqs:
        assert fast.acquire(start, dur) == ref.acquire(start, dur)
    for a, b in zip(fast._channels, ref._channels):
        assert a._intervals == b._intervals
        assert a.total_requests == b.total_requests
        assert a.busy_time == b.busy_time
    assert fast.total_requests == ref.total_requests
