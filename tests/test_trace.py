"""The event-tracing layer: ring-buffer tracer, determinism guarantee,
Chrome trace export, and the contention profiler.

The central promise is the determinism one: tracing is strictly
observational, so a traced run and an untraced run of the same program
must produce byte-identical statistics — execution time, every counter,
every time bucket, every traffic category — under every protocol.
"""

import json
from dataclasses import replace

import pytest

from repro import MachineConfig, run_app
from repro.apps import make_app
from repro.check.events import MemoryEvent
from repro.runtime.program import ParallelRuntime
from repro.trace import (KIND_FAMILY, NO_PROC, ContentionProfile, TraceEvent,
                         Tracer, to_chrome_trace, write_chrome_trace)

SMALL = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512)
TRACED = replace(SMALL, tracing=True)


class _FakeNode:
    def __init__(self, nid):
        self.id = nid


class _FakeProc:
    def __init__(self, gid, nid):
        self.global_id = gid
        self.node = _FakeNode(nid)


# ---------------------------------------------------------------------------
# Determinism: tracing must not perturb the simulation.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", ["2L", "2LS", "1LD", "1L"])
@pytest.mark.parametrize("app_name", ["SOR", "Water"])
def test_tracing_does_not_perturb_run(app_name, protocol):
    app = make_app(app_name)
    plain = run_app(app, app.small_params(), SMALL, protocol)
    traced = run_app(make_app(app_name), app.small_params(), TRACED,
                     protocol)

    assert traced.exec_time_us == plain.exec_time_us
    assert traced.stats.aggregate.counters == plain.stats.aggregate.counters
    assert traced.stats.aggregate.buckets == plain.stats.aggregate.buckets
    assert traced.stats.mc_traffic_bytes == plain.stats.mc_traffic_bytes
    for t_ps, p_ps in zip(traced.stats.per_proc, plain.stats.per_proc):
        assert t_ps.counters == p_ps.counters
        assert t_ps.buckets == p_ps.buckets

    assert plain.trace is None
    assert traced.trace is not None and len(traced.trace) > 0


# ---------------------------------------------------------------------------
# Tracer mechanics.
# ---------------------------------------------------------------------------

class TestTracer:
    def test_span_records_proc_and_node(self):
        tr = Tracer()
        tr.span("page_fetch", _FakeProc(3, 1), 10.0, 5.0, obj=7, bytes=512)
        (ev,) = tr.events
        assert (ev.kind, ev.proc, ev.node) == ("page_fetch", 3, 1)
        assert ev.t0 == 10.0 and ev.dur == 5.0 and ev.t1 == 15.0
        assert ev.obj == 7 and ev.bytes == 512
        assert ev.family == "transfer"

    def test_none_proc_maps_to_no_proc(self):
        tr = Tracer()
        tr.instant("mc_word", None, 1.0, obj="lock")
        (ev,) = tr.events
        assert ev.proc == NO_PROC and ev.node == NO_PROC
        assert ev.dur == 0.0

    def test_ring_buffer_drops_oldest(self):
        tr = Tracer(capacity=4)
        for i in range(10):
            tr.instant("user", _FakeProc(0, 0), float(i))
        assert len(tr) == 4
        assert tr.emitted == 10
        assert tr.dropped == 6
        assert [ev.t0 for ev in tr] == [6.0, 7.0, 8.0, 9.0]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_by_kind_and_counts(self):
        tr = Tracer()
        p = _FakeProc(0, 0)
        tr.span("lock_hold", p, 0.0, 2.0, obj="lock 1")
        tr.span("lock_wait", p, 0.0, 1.0, obj="lock 1")
        tr.span("lock_hold", p, 5.0, 1.0, obj="lock 1")
        assert len(tr.by_kind("lock_hold")) == 2
        assert len(tr.by_kind("lock_hold", "lock_wait")) == 3
        assert tr.kind_counts() == {"lock_hold": 2, "lock_wait": 1}

    def test_finalize_accumulates_meta(self):
        tr = Tracer()
        tr.finalize(app="SOR", protocol="2L")
        tr.finalize(exec_time_us=42.0)
        assert tr.meta == {"app": "SOR", "protocol": "2L",
                           "exec_time_us": 42.0, "trace_dropped": 0}

    def test_event_json_is_serializable(self):
        ev = TraceEvent("diff_out", 1, 0, 3.5, 0.0, 9, {"bytes": 64})
        doc = json.dumps(ev.to_json())
        assert json.loads(doc)["payload"]["bytes"] == 64

    def test_records_are_immutable(self):
        ev = TraceEvent("page_fetch", 1, 0, 2.0, 3.0, 7, {"bytes": 512})
        mev = MemoryEvent("read", 1, 0, 2, 3, 67, 1.5, 4)
        for record, name in ((ev, "t0"), (ev, "payload"), (mev, "clock")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        assert (ev.t1, ev.family, ev.bytes) == (5.0, "transfer", 512)
        assert mev.epoch == (4, 1)
        assert "page 2 word 3 (global word 67) by p1" in mev.describe()

    def test_default_payload_is_not_shared_mutable(self):
        a, b = TraceEvent("user", 0, 0, 0.0), TraceEvent("user", 1, 0, 1.0)
        with pytest.raises(TypeError):
            a.payload["bytes"] = 1
        assert b.payload == {} and "payload" not in b.to_json()
        # Tracer-built records each own their payload.
        tr = Tracer()
        tr.instant("user", None, 0.0)
        tr.span("user", None, 1.0, 2.0)
        first, second = tr.events
        assert first.payload == second.payload == {}
        assert first.payload is not second.payload

    def test_kind_family_covers_bucket_names(self):
        for bucket in ("user", "protocol", "polling", "comm_wait",
                       "write_double"):
            assert KIND_FAMILY[bucket] == "bucket"


# ---------------------------------------------------------------------------
# Wiring: the config flag (the one switch), RunResult.trace.
# ---------------------------------------------------------------------------

class TestWiring:
    def test_config_flag(self):
        app = make_app("SOR")
        assert ParallelRuntime(app, app.small_params(), SMALL,
                               "2L").trace is None
        rt = ParallelRuntime(app, app.small_params(), TRACED, "2L")
        sites = [rt.cluster, rt.cluster.mc, rt.protocol,
                 *rt.cluster.processors]
        assert all(site.trace is rt.trace for site in sites)

    def test_context_manager_attaches_tracer(self):
        app = make_app("SOR")
        result = run_app(app, app.small_params(), TRACED, "2L")
        assert result.trace is not None
        assert result.trace.meta["app"] == "SOR"
        assert result.trace.meta["protocol"] == "2L"
        assert result.trace.meta["exec_time_us"] == result.exec_time_us


# ---------------------------------------------------------------------------
# End-to-end consumers, sharing one traced run.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def traced_sor():
    app = make_app("SOR")
    return run_app(app, app.small_params(), TRACED, "2L")


class TestTraceContents:
    def test_protocol_events_present(self, traced_sor):
        counts = traced_sor.trace.kind_counts()
        assert counts.get("read_fault", 0) > 0
        assert counts.get("page_fetch", 0) > 0
        assert counts.get("page_flush", 0) > 0
        assert counts.get("barrier", 0) > 0
        assert counts.get("mc_transfer", 0) > 0
        assert counts.get("user", 0) > 0

    def test_fetch_events_carry_bytes(self, traced_sor):
        fetches = traced_sor.trace.by_kind("page_fetch")
        assert fetches and all(ev.bytes > 0 for ev in fetches)
        assert all(ev.dur > 0 for ev in fetches)

    def test_events_within_run_window(self, traced_sor):
        end = traced_sor.exec_time_us
        for ev in traced_sor.trace:
            assert 0.0 <= ev.t0 <= end + 1e-9
            assert ev.dur >= 0.0


class TestChromeExport:
    def test_document_structure(self, traced_sor):
        doc = to_chrome_trace(traced_sor.trace)
        json.dumps(doc)  # must be serializable as-is
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["app"] == "SOR"
        phases = {ev["ph"] for ev in doc["traceEvents"]}
        assert {"X", "i", "M"} <= phases

    def test_one_track_per_processor(self, traced_sor):
        doc = to_chrome_trace(traced_sor.trace)
        tracks = {(ev["pid"], ev["tid"]) for ev in doc["traceEvents"]
                  if ev["ph"] == "X"}
        cfg = SMALL
        for proc in range(cfg.nodes * cfg.procs_per_node):
            assert (proc // cfg.procs_per_node, proc) in tracks

    def test_track_names(self, traced_sor):
        doc = to_chrome_trace(traced_sor.trace)
        names = {ev["args"]["name"] for ev in doc["traceEvents"]
                 if ev["ph"] == "M" and ev["name"] == "thread_name"}
        assert "cpu 0" in names and "wire" in names

    def test_write_chrome_trace_round_trip(self, traced_sor, tmp_path):
        out = tmp_path / "trace.json"
        n = write_chrome_trace(traced_sor.trace, str(out))
        doc = json.loads(out.read_text())
        assert n == len(doc["traceEvents"])
        assert n > len(traced_sor.trace)  # events + metadata records
        durations = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        instants = [ev for ev in doc["traceEvents"] if ev["ph"] == "i"]
        assert durations and instants


class TestContentionProfile:
    def test_tables_render(self, traced_sor):
        report = ContentionProfile(traced_sor.trace).format()
        assert "Hot pages" in report
        assert "Barrier episodes" in report
        assert "Memory Channel traffic" in report

    def test_hot_pages_ranked_by_service_time(self, traced_sor):
        prof = ContentionProfile(traced_sor.trace)
        rows = prof.hot_pages()
        assert rows
        times = [ps.service_us for _, ps in rows]
        assert times == sorted(times, reverse=True)
        assert any(ps.faults > 0 for _, ps in rows)

    def test_barrier_episodes_have_spread(self, traced_sor):
        prof = ContentionProfile(traced_sor.trace)
        episodes = prof.barrier_table()
        assert episodes
        for _, ep in episodes:
            assert ep.spread_us >= 0.0
            assert len(ep.arrivals) <= SMALL.nodes * SMALL.procs_per_node

    def test_json_export(self, traced_sor):
        doc = ContentionProfile(traced_sor.trace).to_json()
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["meta"]["app"] == "SOR"
        assert back["hot_pages"]
        assert back["dropped_events"] == 0
