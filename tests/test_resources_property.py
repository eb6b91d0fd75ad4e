"""Property-based tests for the interval-timeline resources.

The first half checks the resources' own contract (no overlap, busy time
conserved, earliest gap, channel capacity). The second half is a
differential test: ``RefSerialResource`` / ``RefMultiChannel`` below are
the representation and the booking rule the engine used before its
timelines became two float lists with one search per booking; every
booking must return the same ``(begin, end)`` and leave the same
timeline in both, including through the end-of-timeline fast path
inlined in ``Processor.run_compute``.
"""

import bisect
import random
from dataclasses import replace

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MachineConfig
from repro.apps import make_app
from repro.cluster.machine import Cluster
from repro.runtime.program import ParallelRuntime
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


# ---------------------------------------------------------------------------
# Reference model.
# ---------------------------------------------------------------------------

class RefSerialResource:
    """The list-of-lists timeline ``repro.sim.engine.SerialResource`` was
    until the substrate diet (DESIGN.md §18), kept verbatim as the
    reference model: ``[begin, end]`` lists in one list, searched with
    list-vs-list ``bisect_right``, once to scan and once more to insert."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        #: Non-overlapping busy intervals [begin, end), sorted by begin.
        self._intervals: list[list[float]] = []
        self.busy_time = 0.0
        self.total_requests = 0

    @property
    def free_at(self) -> float:
        """End of the last busy interval (0 when idle)."""
        return self._intervals[-1][1] if self._intervals else 0.0

    def acquire(self, start: float, duration: float) -> tuple[float, float]:
        """Book ``duration`` of service at the earliest gap >= ``start``."""
        if duration < 0:
            raise ValueError(f"negative service time {duration}")
        self.total_requests += 1
        self.busy_time += duration
        if duration == 0:
            return start, start
        iv = self._intervals
        # Fast path: booking after (or touching) the end of the timeline —
        # the overwhelmingly common case when clocks advance monotonically.
        if not iv or iv[-1][1] <= start:
            if iv and iv[-1][1] == start:
                iv[-1][1] = start + duration
            else:
                iv.append([start, start + duration])
                if len(iv) > 4096:
                    del iv[:2048]  # prune ancient history
            return start, start + duration
        last = iv[-1]
        if last[0] <= start:
            # Start lands inside the final interval: the earliest gap at
            # or after ``start`` begins exactly at its end — extend it in
            # place. This is the common case under saturation (every
            # processor queues behind the tail) and skips the bisect.
            begin = last[1]
            last[1] = begin + duration
            return begin, begin + duration
        # Find the first interval that could overlap [start, ...).
        lo = bisect.bisect_right(iv, [start]) - 1
        if lo >= 0 and iv[lo][1] <= start:
            lo += 1
        lo = max(lo, 0)
        t = start
        i = lo
        while i < len(iv) and iv[i][0] < t + duration:
            if iv[i][1] > t:
                t = iv[i][1]
            i += 1
        begin, end = t, t + duration
        # Insert, merging with touching neighbours.
        j = bisect.bisect_right(iv, [begin])
        if j > 0 and iv[j - 1][1] >= begin:
            iv[j - 1][1] = max(iv[j - 1][1], end)
            k = j
            while k < len(iv) and iv[k][0] <= iv[j - 1][1]:
                iv[j - 1][1] = max(iv[j - 1][1], iv[k][1])
                k += 1
            del iv[j:k]
        else:
            iv.insert(j, [begin, end])
            k = j + 1
            while k < len(iv) and iv[k][0] <= iv[j][1]:
                iv[j][1] = max(iv[j][1], iv[k][1])
                k += 1
            del iv[j + 1:k]
        if len(iv) > 4096:
            del iv[:2048]  # prune ancient history
        return begin, end

    def peek(self, start: float, duration: float) -> float:
        """The end time ``acquire(start, duration)`` would return, without
        booking."""
        if duration <= 0:
            return start
        iv = self._intervals
        lo = bisect.bisect_right(iv, [start]) - 1
        if lo >= 0 and iv[lo][1] <= start:
            lo += 1
        lo = max(lo, 0)
        t = start
        i = lo
        while i < len(iv) and iv[i][0] < t + duration:
            if iv[i][1] > t:
                t = iv[i][1]
            i += 1
        return t + duration


class RefMultiChannel:
    """Reference booking rule: peek at every channel, book the one
    finishing earliest, ties to the lowest-numbered channel."""

    def __init__(self, channels):
        self._channels = [RefSerialResource() for _ in range(channels)]
        self.total_requests = 0

    def acquire(self, start, duration):
        self.total_requests += 1
        if duration == 0:
            return start, start
        best = min(self._channels, key=lambda c: c.peek(start, duration))
        return best.acquire(start, duration)


def timeline(resource):
    return [tuple(iv) for iv in resource._intervals]


def assert_same_state(fast, ref):
    assert timeline(fast) == timeline(ref)
    assert fast.total_requests == ref.total_requests
    assert fast.busy_time == ref.busy_time


# ---------------------------------------------------------------------------
# Differential tests.
# ---------------------------------------------------------------------------

#: Whole-number times make exact ties, touching neighbours and merges
#: common — the cases decided by ``<=`` against ``<`` — and the duration
#: set includes zero.
tie_prone_bookings = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 60).map(float),
                  st.floats(min_value=0, max_value=60)),
        st.one_of(st.integers(0, 8).map(float),
                  st.floats(min_value=0.1, max_value=20))),
    min_size=1, max_size=80)


@settings(max_examples=400, deadline=None)
@given(tie_prone_bookings, st.booleans())
def test_serial_bookings_match_reference(reqs, peek_first):
    """Out-of-order starts, touching and merging neighbours, zero
    durations: same grant and same interval list after every booking,
    and ``peek`` (which now shares the search) agrees beforehand."""
    fast, ref = SerialResource("bus"), RefSerialResource("bus")
    for start, dur in reqs:
        if peek_first:
            assert fast.peek(start, dur) == ref.peek(start, dur)
        assert fast.acquire(start, dur) == ref.acquire(start, dur)
        assert timeline(fast) == timeline(ref)
    assert_same_state(fast, ref)
    assert fast.free_at == ref.free_at


@settings(max_examples=300, deadline=None)
@given(tie_prone_bookings, st.integers(min_value=1, max_value=4))
def test_multichannel_idle_first_channel_shortcut_is_exact(reqs, channels):
    """One search per channel, the winner booked at the index that search
    found, and channel 0 booked directly when it is idle from ``start``
    on: the same grants and the same per-channel timelines as peeking
    every channel and then booking the winner from scratch."""
    fast = MultiChannelResource(channels)
    ref = RefMultiChannel(channels)
    for start, dur in reqs:
        assert fast.acquire(start, dur) == ref.acquire(start, dur)
    for a, b in zip(fast._channels, ref._channels):
        assert_same_state(a, b)
    assert fast.total_requests == ref.total_requests


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(min_value=1, max_value=3))
def test_long_run_crosses_the_prune(seed, channels):
    """More than 4,096 live intervals: both models drop the oldest 2,048
    at the same booking, and bookings that land in (or before) what is
    left keep agreeing afterwards."""
    rng = random.Random(seed)
    fast, ref = MultiChannelResource(channels), RefMultiChannel(channels)
    serial, serial_ref = SerialResource(), RefSerialResource()
    prunes = 0
    for i in range(6000):
        if rng.random() < 0.85:   # near the frontier, never touching
            start = 10.0 * i + rng.choice((0.0, 0.5, rng.random()))
            dur = rng.choice((1.0, 2.5, 7.0))
        else:                     # a laggard, anywhere in the past
            start = rng.uniform(0.0, 10.0 * i + 1.0)
            dur = rng.choice((0.25, 1.0, 30.0))
        before = len(serial_ref._intervals)
        assert serial.acquire(start, dur) == serial_ref.acquire(start, dur)
        assert fast.acquire(start, dur) == ref.acquire(start, dur)
        prunes += len(serial_ref._intervals) < before - 1000
    assert prunes == 1, "the run must cross the 4,096-interval prune once"
    assert_same_state(serial, serial_ref)
    for a, b in zip(fast._channels, ref._channels):
        assert_same_state(a, b)


# ---------------------------------------------------------------------------
# The inlined end-of-timeline fast paths book what ``acquire`` books.
# ---------------------------------------------------------------------------

compute_steps = st.lists(
    st.tuples(st.integers(0, 3),                       # which processor
              st.one_of(st.just(0.0), st.integers(0, 12).map(float),
                        st.floats(min_value=0, max_value=12)),   # cpu_us
              st.one_of(st.just(0.0), st.integers(0, 4000).map(float))),
    min_size=1, max_size=80)


@settings(max_examples=200, deadline=None)
@given(compute_steps)
def test_run_compute_books_what_acquire_books(steps):
    """``Processor.run_compute`` appends to (or extends) the bus timeline
    in line when its booking lands at the tail. Four processors whose
    clocks drift apart drive one bus through it; a reference bus takes
    the same requests through ``acquire`` with the traced path's
    charge arithmetic."""
    cluster = Cluster(MachineConfig(nodes=1, procs_per_node=4,
                                    page_bytes=512))
    costs = cluster.config.costs
    bus = cluster.nodes[0].bus
    ref = RefSerialResource()
    clocks = [0.0] * 4
    for p, cpu, mem in steps:
        cluster.processors[p].run_compute(cpu, mem)
        c = clocks[p]
        if cpu > 0:
            c += cpu
        if mem > 0:
            _, end = ref.acquire(c, mem / costs.node_bus_bandwidth)
            if end - c > 0:
                c += end - c
        if cluster.config.polling and costs.poll_check > 0:
            c += costs.poll_check
        clocks[p] = c
        assert cluster.processors[p].clock == c
        assert timeline(bus) == timeline(ref)
    assert_same_state(bus, ref)


def _bus_state(app_name, cfg):
    app = make_app(app_name)
    runtime = ParallelRuntime(app, app.small_params(), cfg, "2L")
    runtime.run()
    return [(timeline(node.bus), node.bus.busy_time, node.bus.total_requests)
            for node in runtime.cluster.nodes]


@pytest.mark.parametrize("app_name", ["SOR", "LU"])
def test_interpreted_run_books_what_acquire_books(app_name):
    """An untraced run books its compute through ``run_compute``'s
    inline tail copy; a traced run books every compute through
    ``acquire``. Both leave every node's bus timeline identical."""
    cfg = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512)
    interpreted = _bus_state(app_name, cfg)
    assert any(tl for tl, _, _ in interpreted)
    assert interpreted == _bus_state(app_name, replace(cfg, tracing=True))
