"""Float-order guard for the release-side write-notice fan-out.

``BaseProtocol._post_write_notices`` books a whole burst of notices in
locals: the count and the traffic are added once, but the processor
clock and the "protocol" bucket must still take one float add per notice
— ``clock + n * w`` is a different double from ``n`` adds of ``w``, and
the simulated results are pinned byte for byte. Each case here builds
two identical machines, drives the helper on one and the per-notice
reference loop below on the other, and requires identical state.
"""

from dataclasses import replace

import pytest

from repro.cluster.machine import Cluster
from repro.config import CostModel, MachineConfig
from repro.protocol import make_protocol
from repro.trace import attach_tracer

PAGE = 3
SENDER = 5

#: (start, mc_word_write) candidates; each burst size picks the first
#: pair whose sequential sum differs from the multiply (checked below, so
#: a multiply in the helper cannot pass).
CANDIDATES = ((1000.1, 0.1), (123456.7, 0.25 + 1e-9), (0.3, 0.7),
              (98765.4321, 0.3))
BURSTS = (0, 1, 2, 7, 31, 255)


def sequential(start: float, w: float, n: int) -> float:
    for _ in range(n):
        start += w
    return start


def pair_for(n: int) -> tuple[float, float]:
    for start, w in CANDIDATES:
        if n < 2 or sequential(start, w, n) != start + n * w:
            return start, w
    raise AssertionError(f"no candidate separates add from multiply, n={n}")


def world(w: float, *, trace=False):
    """A 256-owner one-level machine whose processor ``SENDER`` is about
    to release ``PAGE``."""
    cfg = MachineConfig(nodes=64, procs_per_node=4, page_bytes=512,
                        shared_bytes=512 * 8, superpage_pages=1,
                        costs=replace(CostModel(), mc_word_write=w))
    cluster = Cluster(cfg)
    proto = make_protocol("1LD", cluster)
    tracer = attach_tracer(cluster, proto) if trace else None
    return cluster, proto, cluster.processors[SENDER], tracer


def start_at(proc, start: float) -> None:
    proc.clock = start
    proc.stats.buckets["protocol"] = start


def post_one_at_a_time(proto, proc, from_owner, page, dests) -> None:
    """The reference: what a release did before the burst was batched,
    each notice traced as an instant."""
    visible = proto.mc.visibility(proc.clock)
    for owner in dests:
        proto.owners[owner].board.post(from_owner, page, visible)
        if proc.trace is not None:
            proc.trace.instant("write_notice", None, visible, obj=page,
                               from_owner=from_owner, to_owner=owner)
        proc.charge(proto.costs.mc_word_write, "protocol")
        proc.stats.bump("write_notices")
        proto.mc.account("write_notice", 4)


def observable(proto, proc):
    return {
        "clock": proc.clock,
        "protocol_us": proc.stats.buckets["protocol"],
        "write_notices": proc.stats.counters.get("write_notices"),
        "traffic": proto.mc.traffic.get("write_notice"),
        "bins": [[list(bin_) for bin_ in rec.board.bins]
                 for rec in proto.owners],
        "posted": [rec.board.posted for rec in proto.owners],
    }


def dests_for(n: int) -> list[int]:
    return [o for o in range(256) if o != SENDER][:n]


@pytest.mark.parametrize("n", BURSTS)
def test_burst_equals_per_notice_loop(n):
    start, w = pair_for(n)
    dests = dests_for(n)
    _, batched, proc_b, _ = world(w)
    _, single, proc_s, _ = world(w)
    for proc in (proc_b, proc_s):
        start_at(proc, start)
    batched._post_write_notices(proc_b, SENDER, PAGE, dests)
    post_one_at_a_time(single, proc_s, SENDER, PAGE, dests)

    got = observable(batched, proc_b)
    assert got == observable(single, proc_s)
    # ... and the reference is the add sequence, not the multiply.
    assert got["clock"] == sequential(start, w, n)
    assert got["protocol_us"] == sequential(start, w, n)
    if n >= 2:
        assert got["clock"] != start + n * w
    assert got["write_notices"] == (n or None)
    assert got["traffic"] == (4 * n or None)
    for owner in dests:
        (notice,) = batched.owners[owner].board.bins[SENDER]
        assert (notice.page, notice.from_owner) == (PAGE, SENDER)
    assert sum(got["posted"]) == n


def test_zero_cost_word_write_moves_no_clock():
    """``Processor.charge`` ignores non-positive amounts; so must the
    burst (the notices are still posted and counted)."""
    _, proto, proc, _ = world(0.0)
    start_at(proc, 17.5)
    proto._post_write_notices(proc, SENDER, PAGE, dests_for(7))
    assert proc.clock == 17.5 and proc.stats.buckets["protocol"] == 17.5
    assert proc.stats.counters["write_notices"] == 7


def test_burst_with_tracer_attached():
    n = 31
    start, w = pair_for(n)
    dests = dests_for(n)
    _, batched, proc_b, trace_b = world(w, trace=True)
    _, single, proc_s, trace_s = world(w, trace=True)
    for proc in (proc_b, proc_s):
        start_at(proc, start)
    batched._post_write_notices(proc_b, SENDER, PAGE, dests)
    post_one_at_a_time(single, proc_s, SENDER, PAGE, dests)

    assert observable(batched, proc_b) == observable(single, proc_s)
    assert proc_b.clock == sequential(start, w, n)
    assert len(trace_b.by_kind("write_notice")) == n
    # Same events in the same order.
    assert trace_b.events == trace_s.events

