"""Unit tests for statistics collection and aggregation."""

import pickle

import pytest

from repro.cluster.machine import Cluster
from repro.config import MachineConfig
from repro.errors import UnknownCounterError
from repro.sim.process import TIME_BUCKETS
from repro.stats.counters import COUNTER_NAMES, ProcStats, RunStats
from repro.stats.report import _fmt, format_table, kilo, pct_change


class TestProcStats:
    def test_charge_accumulates(self):
        proc = Cluster(MachineConfig(nodes=1, procs_per_node=1)).processors[0]
        proc.charge(10.0, "user")
        proc.charge(5.0, "protocol")
        proc.charge(2.5, "user")
        proc.charge(0.0, "polling")
        ps = proc.stats
        assert ps.buckets["user"] == 12.5
        assert ps.total_time == 17.5 == proc.clock

    def test_bump(self):
        ps = ProcStats()
        ps.bump("read_faults")
        ps.bump("read_faults", 3)
        assert ps.counters["read_faults"] == 4

    def test_merge(self):
        a, b = ProcStats(), ProcStats()
        a.buckets["user"] += 1.0
        a.bump("barriers")
        b.buckets["user"] += 2.0
        a.merged_into(b)
        assert b.buckets["user"] == 3.0
        assert b.counters["barriers"] == 1

    def test_counter_names_documented(self):
        assert "write_notices" in COUNTER_NAMES
        assert "shootdowns" in COUNTER_NAMES
        assert "check_events" in COUNTER_NAMES

    def test_counter_names_closed(self):
        """The canonical name set is strict: a typo'd counter raises
        instead of accumulating into a name nobody will ever read."""
        ps = ProcStats()
        with pytest.raises(UnknownCounterError, match="read_fautls"):
            ps.bump("read_fautls")
        assert not ps.counters  # nothing was recorded

    def test_unknown_counter_suggests_nearest_name(self):
        ps = ProcStats()
        with pytest.raises(UnknownCounterError,
                           match="did you mean 'read_faults'"):
            ps.bump("read_fautls")

    def test_unknown_counter_with_no_close_match(self):
        ps = ProcStats()
        with pytest.raises(UnknownCounterError) as exc:
            ps.bump("zzzzzzzz")
        assert "did you mean" not in str(exc.value)

    def test_names_validated_on_first_use(self):
        """Names are validated when first seen, not on every bump: the
        unknown name raises at once and leaves no entry behind, and a
        known name keeps counting after its first use."""
        ps = ProcStats()
        with pytest.raises(UnknownCounterError):
            ps.bump("write_notcies", 7)
        assert "write_notcies" not in ps.counters
        assert dict(ps.counters) == {}
        with pytest.raises(UnknownCounterError):
            ps.counters["write_notcies"] += 1  # the fan-out's direct add
        assert dict(ps.counters) == {}
        ps.bump("write_notices", 7)
        ps.counters["write_notices"] += 2
        assert ps.counters["write_notices"] == 9

    def test_merge_target_stays_strict(self):
        a, b = ProcStats(), ProcStats()
        a.bump("barriers", 2)
        a.merged_into(b)
        assert b.counters["barriers"] == 2
        with pytest.raises(UnknownCounterError):
            b.bump("barierz")
        assert dict(b.counters) == {"barriers": 2}

    def test_pickle_round_trip_keeps_strict_mapping(self):
        """The sweep cache pickles ProcStats; what comes back must still
        reject unknown names (and keep its counts)."""
        ps = ProcStats()
        ps.bump("page_transfers", 5)
        ps.buckets["protocol"] += 3.0
        back = pickle.loads(pickle.dumps(ps, pickle.HIGHEST_PROTOCOL))
        assert back == ps
        assert type(back.counters) is type(ps.counters)
        back.bump("page_transfers")
        assert back.counters["page_transfers"] == 6
        with pytest.raises(UnknownCounterError, match="page_transferz"):
            back.bump("page_transferz")
        assert "page_transferz" not in back.counters


class TestRunStats:
    def make(self):
        procs = []
        for i in range(4):
            ps = ProcStats()
            ps.buckets["user"] += 10.0 * (i + 1)
            ps.buckets["comm_wait"] += 5.0
            ps.bump("page_transfers", i)
            procs.append(ps)
        return RunStats.collect(procs, exec_time_us=2_000_000.0,
                                mc_traffic={"page": 1_000_000,
                                            "diff": 500_000})

    def test_aggregation(self):
        run = self.make()
        assert run.aggregate.buckets["user"] == 100.0
        assert run.counter("page_transfers") == 6
        assert run.exec_time_s == pytest.approx(2.0)
        assert run.data_mbytes == pytest.approx(1.5)

    def test_counter_rejects_unknown_name(self):
        run = self.make()
        with pytest.raises(UnknownCounterError):
            run.counter("page_transferz")

    def test_counter_known_but_untouched_is_zero(self):
        run = self.make()
        assert run.counter("shootdowns") == 0

    def test_aggregate_stays_strict(self):
        run = self.make()
        with pytest.raises(UnknownCounterError):
            run.aggregate.bump("page_transferz")
        back = pickle.loads(pickle.dumps(run))
        assert back.counter("page_transfers") == 6
        with pytest.raises(UnknownCounterError):
            back.aggregate.counters["page_transferz"] += 1

    def test_breakdown_fractions_normalized(self):
        run = self.make()
        fracs = run.breakdown_fractions()
        assert sum(fracs.values()) == pytest.approx(1.0)
        assert fracs["user"] == pytest.approx(100.0 / 120.0)

    def test_breakdown_empty_run(self):
        run = RunStats()
        assert sum(run.breakdown_fractions().values()) == 0.0

    def test_breakdown_zero_time_covers_every_bucket(self):
        """The zero-time path must still return one entry per bucket so
        callers can index without KeyError."""
        fracs = RunStats().breakdown_fractions()
        assert set(fracs) == set(TIME_BUCKETS)
        assert all(v == 0.0 for v in fracs.values())

    def test_table3_row_fields(self):
        row = self.make().table3_row()
        assert row["page_transfers"] == 6
        assert row["exec_time_s"] == pytest.approx(2.0)
        assert row["data_mbytes"] == pytest.approx(1.5)


class TestReportFormatting:
    def test_fmt_none_is_dash(self):
        assert _fmt(None) == "-"

    def test_fmt_strings_pass_through(self):
        assert _fmt("2LS") == "2LS"

    def test_fmt_bools_before_ints(self):
        """bool is a subclass of int; it must render yes/no, not 1/0."""
        assert _fmt(True) == "yes"
        assert _fmt(False) == "no"

    def test_fmt_small_ints_plain(self):
        assert _fmt(0) == "0"
        assert _fmt(99999) == "99999"

    def test_fmt_large_ints_space_grouped(self):
        assert _fmt(100000) == "100 000"
        assert _fmt(1234567) == "1 234 567"

    def test_fmt_negative_ints(self):
        assert _fmt(-42) == "-42"
        assert _fmt(-1234567) == "-1 234 567"

    def test_fmt_float_magnitudes(self):
        assert _fmt(0.0) == "0"
        assert _fmt(3.14159) == "3.14"
        assert _fmt(12.345) == "12.3"
        assert _fmt(1234.5) == "1 234"

    def test_fmt_negative_floats(self):
        assert _fmt(-3.14159) == "-3.14"
        assert _fmt(-12.345) == "-12.3"
        assert _fmt(-1234.5) == "-1 234"

    def test_format_table_renders_all_rows(self):
        out = format_table("T", ["a", "b"],
                           [("row1", [1, None]), ("row2", [True, 2.5])])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "row1" in out and "row2" in out
        assert "-" in lines[4] and "yes" in lines[5]

    def test_kilo_and_pct_change(self):
        assert kilo(2500) == pytest.approx(2.5)
        assert pct_change(50.0, 100.0) == pytest.approx(50.0)
        assert pct_change(150.0, 100.0) == pytest.approx(-50.0)
        assert pct_change(1.0, 0.0) == 0.0
