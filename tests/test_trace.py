"""The event-tracing layer: ring-buffer tracer, determinism guarantee,
Chrome trace export, and the contention profiler.

The central promise is the determinism one: tracing is strictly
observational, so a traced run and an untraced run of the same program
must produce byte-identical statistics — execution time, every counter,
every time bucket, every traffic category — under every protocol.
"""

import json
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import pytest

from repro import MachineConfig, run_app
from repro.apps import make_app
from repro.check.events import MemoryEvent
from repro.runtime.program import ParallelRuntime
from repro.trace import (NO_PROC, ContentionProfile, TraceEvent, Tracer,
                         to_chrome_trace, write_chrome_trace)

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

    def test_ring_buffer_across_trims(self):
        # Capacity 32 lets the columns run 4 rows past it, then cuts 4.
        # ``read`` is checked after every emission (each read trims to
        # exactly 32), ``unread`` only at the end, after many chunked
        # trims; payload events sit on both sides of every cut.
        cap = 32
        read, unread = Tracer(capacity=cap), Tracer(capacity=cap)
        made = []
        for i in range(150):
            proc = _FakeProc(i % 4, i % 2) if i % 5 else None
            pid = NO_PROC if proc is None else i % 4
            nid = NO_PROC if proc is None else i % 2
            for tr in (read, unread):
                if i % 3 == 0:
                    tr.instant("diff_out", proc, float(i), obj=i, bytes=i)
                else:
                    tr.span("user", proc, float(i), 0.5)
            if i % 3 == 0:
                made.append(TraceEvent("diff_out", pid, nid, float(i), 0.0,
                                       i, {"bytes": i}))
            else:
                made.append(TraceEvent("user", pid, nid, float(i), 0.5))
            assert list(read) == made[-cap:]
            assert len(unread._kind) <= cap + cap // 8
        want = made[-cap:]
        for tr in (read, unread):
            assert list(tr) == want
            assert [ev.payload for ev in tr] == [ev.payload for ev in want]
            assert (len(tr), tr.emitted, tr.dropped) == (cap, 150, 118)
            kinds = [ev.kind for ev in want]
            assert tr.kind_counts() == {"diff_out": kinds.count("diff_out"),
                                        "user": kinds.count("user")}
            assert tr.by_kind("diff_out") == [ev for ev in want
                                              if ev.kind == "diff_out"]
            doc = to_chrome_trace(tr)
            assert doc["otherData"]["dropped_events"] == 118
            assert [ev["ts"] for ev in doc["traceEvents"]
                    if ev["ph"] != "M"] == [ev.t0 for ev in want]

    def test_bytes_per_event(self):
        def bytes_per_event(emit, n=200_000):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tr = Tracer(capacity=n)
                p = _FakeProc(3, 1)
                for i in range(n):
                    emit(tr, p, i)
                used = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(tr) == n
            return used / n

        # 200k spans, 1 in 8 with a payload, fit in 96 bytes per event
        # (a tuple record per event in a deque takes about 215).
        def sparse(tr, p, i):
            if i % 8:
                tr.span("protocol", p, i * 0.5, 0.25)
            else:
                tr.span("page_fetch", p, i * 0.5, 0.25, obj=i % 64,
                        bytes=512)

        used = bytes_per_event(sparse)
        assert used <= 96, f"{used:.1f} B per event"

        # Like a traced Gauss run: half the events carry a payload drawn
        # from a few distinct values, and each ``obj`` is a page number
        # above 256 (a fresh int object per event). The tracer keeps one
        # copy of each distinct value, so an event costs its columns
        # only: 72 bytes bounds it (about 58), where a dict per payload
        # and an int per ``obj`` take about 224.
        def gauss_like(tr, p, i):
            if i % 2:
                tr.span("read_fault", p, i * 0.5, 0.25, obj=300 + i % 500)
            else:
                tr.span("page_fetch", p, i * 0.5, 0.25, obj=300 + i % 500,
                        bytes=512 * (1 + i % 3), home=i % 4)

        used = bytes_per_event(gauss_like)
        assert used <= 72, f"{used:.1f} B per event"

    def test_values_keep_their_type_across_trims(self):
        # Equal values of different types (``1 == 1.0 == True``,
        # ``0.0 == -0.0``) must not be interned as one; an unhashable
        # value is kept as given. Capacity 8 trims every event past 9.
        values = [True, 1, 1.0, -0.0, 0.0, "lock 3", [1, 2], 1, -0.0,
                  (1,), (True,), (-0.0,), None, False, 0]
        tr = Tracer(capacity=8)
        for i, v in enumerate(values * 3):
            if i % 2:
                tr.instant("user", None, float(i), obj=v, value=v)
            else:
                tr.span("user", None, float(i), 1.0, obj=v, value=v, n=i)
        assert tr.dropped == len(values) * 3 - 8
        want = (values * 3)[-8:]
        for tr_ev, v in zip(tr, want):
            for got in (tr_ev.obj, tr_ev.payload["value"]):
                assert type(got) is type(v) and repr(got) == repr(v)
        rows = to_chrome_trace(tr)["traceEvents"]
        for rec, v in zip((r for r in rows if r["ph"] != "M"), want):
            assert type(rec["args"]["value"]) is type(v)
            assert repr(rec["args"]["value"]) == repr(v)

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
        # A tracer-built record without a payload gets the read-only
        # empty mapping; records built with payloads never share a dict.
        tr = Tracer()
        tr.instant("user", None, 0.0)
        tr.span("user", None, 1.0, 2.0)
        tr.instant("diff_out", None, 2.0, bytes=8)
        tr.span("page_fetch", None, 3.0, 1.0, bytes=8)
        bare, _, third, fourth = tr.events
        assert bare.payload == {}
        with pytest.raises(TypeError):
            bare.payload["bytes"] = 1
        assert third.payload == fourth.payload == {"bytes": 8}
        assert third.payload is not fourth.payload


# ---------------------------------------------------------------------------
# Wiring: the config flag (the one switch), RunResult.trace.
# ---------------------------------------------------------------------------

class TestWiring:
    def test_config_flag(self):
        app = make_app("SOR")
        assert ParallelRuntime(app, app.small_params(), SMALL,
                               "2L").trace is None
        rt = ParallelRuntime(app, app.small_params(), TRACED, "2L")
        sites = [rt.cluster.mc, rt.protocol, *rt.cluster.processors]
        assert all(site.trace is rt.trace for site in sites)

    def test_context_manager_attaches_tracer(self):
        app = make_app("SOR")
        result = run_app(app, app.small_params(), TRACED, "2L")
        assert result.trace is not None
        assert result.trace.meta["app"] == "SOR"
        assert result.trace.meta["protocol"] == "2L"
        assert result.trace.meta["exec_time_us"] == result.exec_time_us

    def test_observers_load_only_when_used(self):
        # An unobserved run loads neither the checker nor the trace
        # export and profile; the package names still resolve after. A
        # checked run then loads the checker but not the model checker.
        code = (
            "import sys\n"
            "from repro import MachineConfig, run_app\n"
            "from repro.apps import make_app\n"
            "import repro.experiments.sweep\n"
            "app = make_app('Water')\n"
            "cfg = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512)\n"
            "run_app(app, app.small_params(), cfg)\n"
            "lazy = ('repro.check', 'repro.trace.chrome',"
            " 'repro.trace.profile')\n"
            "print(sorted(m for m in sys.modules if m.startswith(lazy)))\n"
            "from repro.trace import ContentionProfile, write_chrome_trace\n"
            "import repro.trace\n"
            "assert repro.trace.to_chrome_trace.__module__"
            " == 'repro.trace.chrome'\n"
            "from dataclasses import replace\n"
            "run_app(app, app.small_params(), replace(cfg, checking=True))\n"
            "assert 'repro.check.context' in sys.modules\n"
            "print('repro.check.explore' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["[]", "False"]


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
