"""The metrics collector: sampled series, their pins, and parity.

The central promise mirrors the checker's and the tracer's: metrics
collection is strictly observational, so a metered run and an unmetered
run of the same program produce byte-identical statistics *and result
arrays* — under every protocol. And because the simulator is
deterministic, the same metered run recorded twice yields identical
series, making any series change between source revisions a real
behavioral difference.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro import MachineConfig, run_app
from repro.apps import make_app
from repro.metrics import DEFAULT_INTERVAL_US, MetricsCollector
from repro.runtime.program import ParallelRuntime

SMALL = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512)
METERED = replace(SMALL, metrics=True)


# ---------------------------------------------------------------------------
# Parity: metrics must not perturb the simulation.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", ["2L", "2LS", "1LD", "1L"])
@pytest.mark.parametrize("app_name", ["SOR", "Water"])
def test_metrics_do_not_perturb_run(app_name, protocol):
    app = make_app(app_name)
    plain = run_app(app, app.small_params(), SMALL, protocol)
    metered = run_app(make_app(app_name), app.small_params(), METERED,
                      protocol)

    assert metered.exec_time_us == plain.exec_time_us
    assert metered.stats.aggregate.counters == \
        plain.stats.aggregate.counters
    assert metered.stats.aggregate.buckets == plain.stats.aggregate.buckets
    assert metered.stats.mc_traffic_bytes == plain.stats.mc_traffic_bytes
    for m_ps, p_ps in zip(metered.stats.per_proc, plain.stats.per_proc):
        assert m_ps.counters == p_ps.counters
        assert m_ps.buckets == p_ps.buckets
    for name in app.result_arrays(app.small_params()):
        assert np.array_equal(metered.array(name), plain.array(name))

    assert plain.metrics is None
    assert metered.metrics is not None
    assert metered.metrics.num_samples > 0


def test_same_run_recorded_twice_yields_identical_series():
    app = make_app("SOR")
    a = run_app(app, app.small_params(), METERED, "2L")
    b = run_app(make_app("SOR"), app.small_params(), METERED, "2L")
    assert a.metrics.to_payload()["series"] == \
        b.metrics.to_payload()["series"]


# ---------------------------------------------------------------------------
# Pins: what the collector records, byte for byte. A deliberate change to
# the cost model, an app or the series vocabulary moves these; re-pin by
# running this file as a script with ``src`` on ``PYTHONPATH``.
# ---------------------------------------------------------------------------

SERIES_APPS = ("SOR", "Water", "Gauss")
PROTOCOLS = ("2L", "2LS", "1LD", "1L")

SERIES_PINS = {
    ('SOR', '2L'): '14:8cf18326d4b91e3e',
    ('SOR', '2LS'): '14:8cf18326d4b91e3e',
    ('SOR', '1LD'): '18:03321789be42963f',
    ('SOR', '1L'): '28:dc0996fd52f9e80b',
    ('Water', '2L'): '215:3e8d9e9dfebdd4ae',
    ('Water', '2LS'): '215:2c144595c43d8878',
    ('Water', '1LD'): '222:bd4658e0bd7f430e',
    ('Water', '1L'): '238:a8f5c60046cd5258',
    ('Gauss', '2L'): '21:713203a96d42e616',
    ('Gauss', '2LS'): '21:713203a96d42e616',
    ('Gauss', '1LD'): '28:eddc2c2dd7f1a3a6',
    ('Gauss', '1L'): '34:c58be5ae702447e9',
}


def series_digest(app_name: str, protocol: str) -> str:
    """Sample count and a digest of every series one metered
    small-params run records."""
    app = make_app(app_name)
    series = run_app(app, app.small_params(), METERED,
                     protocol).metrics.to_payload()["series"]
    h = hashlib.sha256(json.dumps(series, sort_keys=True).encode())
    samples = max(len(s["t"]) for s in series.values())
    return f"{samples}:{h.hexdigest()[:16]}"


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("app_name", SERIES_APPS)
def test_series_are_pinned(app_name, protocol):
    assert series_digest(app_name, protocol) == \
        SERIES_PINS[app_name, protocol]


@pytest.mark.parametrize("app_name", ["Water", "Gauss"])
def test_every_directory_sample_equals_a_rescan(app_name, monkeypatch):
    """The collector's directory gauges read kept totals; at every sample
    of a metered run they equal a rescan of every entry."""
    from repro.protocol.directory import GlobalDirectory

    from .dense_directory import rescan_occupancy

    kept = GlobalDirectory.occupancy
    samples = []

    def checked(directory):
        got = kept(directory)
        assert got == rescan_occupancy(directory.entries,
                                       directory.num_owners)
        samples.append(got)
        return got

    monkeypatch.setattr(GlobalDirectory, "occupancy", checked)
    app = make_app(app_name)
    result = run_app(app, app.small_params(), METERED, "2L")
    assert len(samples) == result.metrics.num_samples
    assert any(hist[0] < sum(hist) for _, hist in samples)


# ---------------------------------------------------------------------------
# Wiring: the config flag (the one switch), RunResult.metrics.
# ---------------------------------------------------------------------------

class TestWiring:
    def test_config_flag(self):
        app = make_app("SOR")
        plain = ParallelRuntime(app, app.small_params(), SMALL, "2L")
        metered = ParallelRuntime(app, app.small_params(), METERED, "2L")
        assert plain.metrics is None and plain.cluster.sim.on_advance is None
        assert metered.cluster.sim.on_advance == metered.metrics.on_advance

    def test_context_manager_attaches_collector(self):
        app = make_app("SOR")
        result = run_app(app, app.small_params(), METERED, "2L")
        assert result.metrics is not None
        assert result.metrics.meta["app"] == "SOR"
        assert result.metrics.meta["protocol"] == "2L"


# ---------------------------------------------------------------------------
# Collector contents, sharing one metered run.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def metered_sor():
    app = make_app("SOR")
    return run_app(app, app.small_params(), METERED, "2L")


class TestCollectorContents:
    def test_expected_series_present(self, metered_sor):
        series = metered_sor.metrics.series
        for name in ("ctr.read_faults", "ctr.page_transfers", "mc.util",
                     "dir.occ.total", "pages.invalid",
                     "pages.read", "pages.write", "pages.excl",
                     "proto.twins", "tlb.hits", "tlb.misses",
                     "tlb.hit_rate"):
            assert name in series, name

    def test_sample_times_are_interval_aligned(self, metered_sor):
        times, values = metered_sor.metrics.series["dir.occ.total"]
        assert len(times) == len(values)
        # Every boundary except the final partial-interval sample lands
        # on a multiple of the sampling interval.
        for t in times[:-1]:
            assert t % DEFAULT_INTERVAL_US == 0.0
        assert times == sorted(times)
        assert times[-1] == pytest.approx(metered_sor.exec_time_us)

    def test_counter_deltas_sum_to_final_totals(self, metered_sor):
        final = metered_sor.stats.aggregate.counters
        series = metered_sor.metrics.series
        for counter in ("read_faults", "write_faults", "page_transfers",
                        "directory_updates"):
            _, deltas = series[f"ctr.{counter}"]
            assert sum(deltas) == final[counter], counter

    def test_mc_byte_deltas_sum_to_traffic(self, metered_sor):
        traffic = metered_sor.stats.mc_traffic_bytes
        series = metered_sor.metrics.series
        for category, total in traffic.items():
            _, deltas = series[f"mc.bytes.{category}"]
            assert sum(deltas) == total, category

    def test_page_state_histogram_covers_all_pages(self, metered_sor):
        series = metered_sor.metrics.series
        pages = metered_sor.runtime.config.num_pages
        states = [series[f"pages.{s}"][1]
                  for s in ("invalid", "read", "write", "excl")]
        for counts in zip(*states):
            assert sum(counts) == pages

    def test_utilization_bounded(self, metered_sor):
        _, util = metered_sor.metrics.series["mc.util"]
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in util)

    def test_tlb_rate_consistent_with_cells(self, metered_sor):
        coll = metered_sor.metrics
        accesses, misses = coll.tlb
        assert accesses > misses > 0
        assert sum(coll.series["tlb.hits"][1]) == accesses - misses
        assert sum(coll.series["tlb.misses"][1]) == misses

    def test_payload_is_json_serializable(self, metered_sor):
        payload = metered_sor.metrics.to_payload()
        doc = json.loads(json.dumps(payload))
        assert doc["interval_us"] == DEFAULT_INTERVAL_US
        assert doc["meta"]["app"] == "SOR"
        assert set(doc["series"]) == set(metered_sor.metrics.series)

    def test_finalize_is_idempotent(self):
        coll = MetricsCollector()
        assert coll.interval_us == DEFAULT_INTERVAL_US
        with pytest.raises(ValueError):
            MetricsCollector(interval_us=0)


def test_slow_path_run_records_no_tlb_hits():
    """With the fast path off every access falls back to dispatch."""
    app = make_app("SOR")
    result = run_app(app, app.small_params(),
                     replace(METERED, fastpath=False), "2L")
    accesses, misses = result.metrics.tlb
    assert accesses == misses > 0
    assert sum(result.metrics.series["tlb.hits"][1]) == 0
    assert sum(result.metrics.series["tlb.misses"][1]) == misses


def test_metrics_compose_with_tracing():
    app = make_app("SOR")
    both = replace(SMALL, metrics=True, tracing=True)
    result = run_app(app, app.small_params(), both, "2L")
    assert result.trace is not None and result.metrics is not None
    _, dropped = result.metrics.series["trace.dropped"]
    assert dropped[-1] == result.trace.dropped


def test_trace_dropped_surfaces_in_meta_and_profile():
    from repro.trace import ContentionProfile
    app = make_app("SOR")
    result = run_app(app, app.small_params(),
                     replace(SMALL, tracing=True), "2L")
    assert result.trace.meta["trace_dropped"] == result.trace.dropped
    profile = ContentionProfile(result.trace)
    assert f"trace_dropped={result.trace.dropped}" in profile.format()
    assert profile.to_json()["trace_dropped"] == result.trace.dropped


if __name__ == "__main__":
    for app_name in SERIES_APPS:
        for protocol in PROTOCOLS:
            print(f"    {(app_name, protocol)!r}: "
                  f"{series_digest(app_name, protocol)!r},")
