"""Smoke tests for the experiment harnesses (small scale) and reporters."""

import pytest

from repro.experiments.configs import (APP_ORDER, PLACEMENT_ORDER,
                                       PROTOCOL_ORDER, experiment_config)
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import run_figure7
from repro.stats.report import format_table, kilo, pct_change


class TestReport:
    def test_format_table_alignment(self):
        out = format_table("T", ["a", "b"],
                           [("row", [1, 2.5]), ("other", [None, "x"])])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "row" in out and "2.50" in out and "-" in out

    def test_kilo(self):
        assert kilo(2500) == 2.5

    def test_pct_change(self):
        assert pct_change(90.0, 100.0) == pytest.approx(10.0)
        assert pct_change(110.0, 100.0) == pytest.approx(-10.0)
        assert pct_change(1.0, 0.0) == 0.0

    def test_format_large_numbers(self):
        out = format_table("T", ["v"], [("big", [1234567])])
        assert "1 234 567" in out


class TestConfigs:
    def test_canonical_orders(self):
        assert len(APP_ORDER) == 8
        assert PROTOCOL_ORDER == ("2L", "2LS", "1LD", "1L")
        assert len(PLACEMENT_ORDER) == 9

    def test_experiment_config_placements(self):
        cfg = experiment_config("24:3")
        assert cfg.total_procs == 24
        assert cfg.procs_per_node == 3


class TestTable1:
    def test_costs_and_format(self):
        results = run_table1()
        out = results.format()
        assert "Lock Acquire" in out
        assert results.lock_acquire["2L"] > results.lock_acquire["1LD"]
        assert results.page_transfer_remote["1LD"] > 0
        # Two-level nodes share the frame in hardware: no local transfer.
        assert results.page_transfer_local["2L"] is None


class TestTable2:
    def test_rows_and_format(self):
        rows = run_table2(apps=("SOR", "Em3d"))
        out = format_table2(rows)
        assert "SOR" in out and "Em3d" in out
        assert all(r.seq_time_s > 0 and r.shared_kbytes > 0 for r in rows)


class TestSmallScaleHarnesses:
    """Run the table/figure harnesses on a small platform + small apps."""

    def test_table3_small(self):
        from repro.experiments.configs import FULL_PLATFORM
        cfg = FULL_PLATFORM.with_placement(8, 2)
        res = run_table3(apps=("Em3d",), protocols=("2L", "1LD"),
                         config=cfg)
        row = res.stats["Em3d"]["2L"]
        assert row["barriers"] > 0
        assert "Em3d" in res.format()

    def test_figure6_small(self):
        from repro.experiments.configs import FULL_PLATFORM
        cfg = FULL_PLATFORM.with_placement(8, 2)
        res = run_figure6(apps=("Em3d",), protocols=("2L", "1L"),
                          config=cfg)
        assert sum(res.breakdown["Em3d"]["2L"].values()) == \
            pytest.approx(100.0)
        assert res.breakdown["Em3d"]["1L"]["write_double"] > 0

    def test_figure7_small(self):
        res = run_figure7(apps=("Em3d",), protocols=("2L",),
                          placements=("4:1", "8:4"), home_opt=False)
        sp = res.speedup["Em3d"]["2L"]
        assert set(sp) == {"4:1", "8:4"}
        assert sp["8:4"] > sp["4:1"] * 0.8
        assert "Em3d" in res.format()


class TestRunnerCLI:
    def test_unknown_app_rejected(self):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["table2", "NotAnApp"])

    def test_table2_cli(self, capsys):
        from repro.experiments.runner import main
        assert main(["table2", "Em3d"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_table2_cli_json(self, capsys):
        import json
        from repro.experiments.runner import main
        assert main(["table2", "Em3d", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["experiment"] == "table2"
        assert doc["data"][0]["app"] == "Em3d"

    def test_json_flag_takes_no_argument(self, capsys):
        # --json before the app must not swallow it as a value.
        import json
        from repro.experiments.runner import main
        assert main(["table2", "--json", "Em3d"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["app"] for row in doc["data"]] == ["Em3d"]

    def test_trace_cli_requires_single_app(self):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["trace"])
        with pytest.raises(SystemExit):
            main(["profile", "SOR", "Water"])

    def test_trace_cli_writes_chrome_json(self, tmp_path, capsys):
        import json
        from repro.experiments.runner import main
        out = tmp_path / "trace.json"
        assert main(["trace", "sor", "--out", str(out)]) == 0
        assert "perfetto" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["app"] == "SOR"

    def test_modelcheck_out_is_honoured(self, tmp_path, monkeypatch,
                                        capsys):
        # `--out trace.json` is the trace subcommand's default name; an
        # explicit --out must still be where the counterexample goes.
        import json
        from repro.experiments.runner import main
        monkeypatch.chdir(tmp_path)
        assert main(["modelcheck", "--mutant", "no-notices",
                     "--out", "trace.json"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "counterexample.json").exists()
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert doc["traceEvents"]

    def test_profile_cli(self, capsys):
        from repro.experiments.runner import main
        assert main(["profile", "sor", "--protocol", "1LD"]) == 0
        out = capsys.readouterr().out
        assert "Hot pages" in out and "Barrier episodes" in out


class TestScaleFamily:
    """The big-cluster scaling ladder (repro.experiments.scale)."""

    def _tiny(self, sweep=None):
        from repro.experiments.scale import run_scale
        from repro.experiments.sweep import Sweep
        return run_scale(apps=("SOR",), ladder=((2, 2), (4, 2)),
                         quick=True, sweep=sweep or Sweep(cache=None))

    def test_tiny_ladder_rows(self):
        res = self._tiny()
        per = res.rows["SOR"]
        assert set(per) == {"2x2", "4x2"}
        row = per["4x2"]
        assert row["procs"] == 8
        assert row["speedup"] > 1.0
        assert row["mc_mbytes"] > 0
        assert row["barrier_us_per_episode"] > 0  # tree departures cost
        assert row["combine_hops"] > 0
        assert row["sharers_per_page"] > 0
        assert res.seq_time_s["SOR"] > 0
        assert "Scale — SOR" in res.format()

    def test_json_is_the_same_cold_and_cache_warm(self, tmp_path):
        # The document holds no host measurement, so serving every cell
        # from the cache cannot change it.
        import json
        from repro.experiments.runner import _jsonable
        from repro.experiments.sweep import ResultCache, Sweep
        cache = ResultCache(root=str(tmp_path))
        cold, warm = Sweep(cache=cache), Sweep(cache=cache)
        docs = [json.dumps(_jsonable(self._tiny(sweep)), sort_keys=True)
                for sweep in (cold, warm)]
        assert cold.stats.executed == 3 and warm.stats.executed == 0
        assert docs[0] == docs[1]
        assert json.loads(docs[0])["rows"]["SOR"]["4x2"]["procs"] == 8

    def test_cell_scale_metadata(self):
        from repro.experiments.scale import QUICK_PARAMS, scale_config
        from repro.experiments.sweep import RunSpec, execute_cell
        spec = RunSpec.app_run("SOR", "2L", scale_config(2, 2),
                               params=QUICK_PARAMS["SOR"])
        cell = execute_cell(spec)
        s = cell.scale
        assert s is not None
        assert s["procs"] == 4
        assert s["dir_pages"] > 0 and s["dir_sharers"] > 0
        assert s["barrier_episodes"] > 0
        assert s["barrier_combine_hops"] > 0  # scale_config uses tree

    def test_scale_cli_rejects_unscalable_app(self):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["scale", "Em3d"])
