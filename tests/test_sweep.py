"""The sweep engine: parallel determinism, the content-addressed cache,
and the CLI knobs.

The load-bearing properties:

1. Parallel execution (``jobs=2`` and ``jobs=4``) produces **byte-
   identical** formatted and JSON output to serial execution — results
   are merged back in spec order, and cells are independent.
2. The cache round-trips bit-exact results, and is invalidated by any
   RunSpec field change or any source-tree change (via the digest).
3. ``--no-cache`` never touches the disk.
4. One sweep executes each distinct spec once: across experiments that
   share it and within one ``run_cells`` call.
"""

import dataclasses
import hashlib
import json
import os
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ALL_APPS, make_app
from repro.errors import ConfigError
from repro.experiments import sweep as sweep_mod
from repro.experiments.configs import FULL_PLATFORM
from repro.experiments.sweep import (CACHE_SCHEMA, CellResult, ResultCache,
                                     RunSpec, Sweep, cache_key,
                                     cell_params, config_from_key,
                                     config_key, execute_cell, run_cells)
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import run_figure7
from repro.experiments.table3 import run_table3

SMALL = FULL_PLATFORM.with_placement(8, 2)


def small_spec(protocol="2L", app="Em3d", **kwargs):
    return RunSpec.app_run(app, protocol, SMALL, **kwargs)


class TestRunSpec:
    def test_config_round_trip(self):
        key = config_key(SMALL)
        assert config_from_key(key) == SMALL
        assert hash(key)  # usable as part of a frozen spec

    def test_spec_is_hashable_and_picklable(self):
        spec = small_spec(params={"_compute_scale": 2.0})
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(spec)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            execute_cell(dataclasses.replace(small_spec(), kind="nope"))

    @pytest.mark.parametrize("kind", ["app", "seq"])
    def test_unknown_param_rejected(self, kind):
        # A typo'd key used to run the default problem under a new key.
        spec = small_spec(app="SOR",
                          params={"rowz": 3, "_compute_scale": 2.0})
        with pytest.raises(ConfigError, match=r"SOR has no parameter\(s\) "
                                              r"rowz$"):
            execute_cell(dataclasses.replace(spec, kind=kind))

    @pytest.mark.parametrize("kind", ["app", "seq"])
    def test_unknown_app_rejected(self, kind):
        spec = dataclasses.replace(small_spec(app="Foo"), kind=kind)
        with pytest.raises(ConfigError, match=r"'Foo' is not one of SOR, "
                                              r"LU, .*, Barnes$"):
            execute_cell(spec)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bad_param_value_rejected(self, data):
        """Every value is a positive value of its default's type (Ilink's
        density is also at most 1); anything else is named before a
        cell runs."""
        name = data.draw(st.sampled_from(sorted(ALL_APPS)))
        app = make_app(name)
        key, default = data.draw(st.sampled_from(
            sorted(app.default_params().items())))
        numbers = st.integers(-5, 0) if type(default) is int \
            else st.floats(-5.0, 0.0)
        wrong = st.floats(0.5, 9.5) if type(default) is int \
            else st.integers(1, 1)
        bad = data.draw(st.one_of(
            numbers, wrong, st.just(True), st.just(str(default)),
            *([st.floats(1.0, 9.0, exclude_min=True)]
              if key in app.param_max else [])))
        spec = small_spec(app=name, params={key: bad})
        with pytest.raises(ConfigError, match=re.escape(
                f"{name} parameter {key}={bad!r}: must be a positive")):
            execute_cell(spec)
        good = data.draw(st.integers(1, 50) if type(default) is int
                         else st.floats(0.01, 1.0))
        assert cell_params(app, ((key, good),))[key] == good


class TestParallelDeterminism:
    """Parallel output must be byte-identical to serial output."""

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_figure7_quick_byte_identical(self, jobs):
        kwargs = dict(apps=("SOR",), placements=("4:1", "8:4"),
                      home_opt=False)
        serial = run_figure7(sweep=Sweep(jobs=1), **kwargs)
        parallel = run_figure7(sweep=Sweep(jobs=jobs), **kwargs)
        assert parallel.format() == serial.format()
        assert json.dumps(dataclasses.asdict(parallel)) == \
            json.dumps(dataclasses.asdict(serial))

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_table3_all_protocols_byte_identical(self, jobs):
        kwargs = dict(apps=("SOR",),
                      protocols=("2L", "2LS", "1LD", "1L"), config=SMALL)
        serial = run_table3(sweep=Sweep(jobs=1), **kwargs)
        parallel = run_table3(sweep=Sweep(jobs=jobs), **kwargs)
        assert parallel.format() == serial.format()
        assert json.dumps(dataclasses.asdict(parallel)) == \
            json.dumps(dataclasses.asdict(serial))

    def test_pool_and_serial_cells_bit_exact(self):
        specs = [small_spec("2L"), small_spec("1LD")]
        serial = run_cells(specs, Sweep(jobs=1))
        pooled = run_cells(specs, Sweep(jobs=2))
        for a, b in zip(serial, pooled):
            assert a == b  # dataclass equality: every float bit-exact


class TestCache:
    def test_round_trip_bit_exact(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = small_spec()
        cold = Sweep(cache=cache)
        first = run_cells([spec], cold)[0]
        assert (cold.stats.hits, cold.stats.misses,
                cold.stats.executed) == (0, 1, 1)
        warm = Sweep(cache=cache)
        second = run_cells([spec], warm)[0]
        assert (warm.stats.hits, warm.stats.misses,
                warm.stats.executed) == (1, 0, 0)
        assert second == first
        assert second.table3 == first.table3

    def test_spec_field_change_invalidates(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        run_cells([small_spec("2L")], Sweep(cache=cache))
        changed = Sweep(cache=cache)
        run_cells([small_spec("1LD")], changed)
        assert changed.stats.misses == 1
        for variant in (small_spec(params={"_compute_scale": 2.0}),
                        small_spec(lock_free=False),
                        RunSpec.seq_run("Em3d", SMALL)):
            assert cache.get(variant) is None

    def test_source_digest_change_invalidates(self, tmp_path,
                                              monkeypatch):
        cache = ResultCache(root=str(tmp_path))
        spec = small_spec()
        run_cells([spec], Sweep(cache=cache))
        assert cache.get(spec) is not None
        monkeypatch.setattr(sweep_mod, "_source_digest",
                            "0" * 64)
        assert cache.get(spec) is None
        stale = Sweep(cache=cache)
        run_cells([spec], stale)
        assert stale.stats.misses == 1 and stale.stats.executed == 1

    def test_version_in_key(self, monkeypatch):
        spec = small_spec()
        before = cache_key(spec)
        monkeypatch.setattr(sweep_mod, "__version__", "999.0.0")
        assert cache_key(spec) != before

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = small_spec()
        run_cells([spec], Sweep(cache=cache))
        path = cache.path(cache_key(spec))
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        assert cache.get(spec) is None
        recovered = Sweep(cache=cache)
        run_cells([spec], recovered)  # re-executes and heals the entry
        assert recovered.stats.executed == 1
        assert cache.get(spec) is not None

    def test_wrong_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = small_spec()
        path = cache.path(cache_key(spec))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        body = pickle.dumps({"schema": "other", "result": CellResult()})
        with open(path, "wb") as fh:  # intact, so only the schema differs
            fh.write(hashlib.sha256(body).digest() + body)
        assert cache.get(spec) is None
        assert CACHE_SCHEMA != "other"

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CASHMERE_CACHE_DIR", str(tmp_path / "alt"))
        cache = ResultCache()
        assert cache.root == str(tmp_path / "alt")


@pytest.fixture(scope="module")
def sor_entry(tmp_path_factory):
    """A cache holding one SOR 2x2 result: (cache, spec, result, the
    entry's path, its bytes)."""
    cache = ResultCache(root=str(tmp_path_factory.mktemp("cache")))
    spec = RunSpec.app_run("SOR", "2L", FULL_PLATFORM.with_placement(4, 2))
    result = run_cells([spec], Sweep(cache=cache))[0]
    path = cache.path(cache_key(spec))
    with open(path, "rb") as fh:
        return cache, spec, result, path, fh.read()


class TestCacheIntegrity:
    """A damaged entry is a miss: never a different result, never an
    exception out of ``get``."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_flipped_or_truncated_entry(self, sor_entry, data):
        cache, spec, result, path, good = sor_entry
        if data.draw(st.booleans(), label="truncate"):
            bad = good[:data.draw(st.integers(0, len(good) - 1),
                                  label="length")]
        else:
            bit = data.draw(st.integers(0, 8 * len(good) - 1), label="bit")
            bad = bytearray(good)
            bad[bit // 8] ^= 1 << (bit % 8)
        with open(path, "wb") as fh:
            fh.write(bad)
        got = cache.get(spec)
        assert got is None or got == result


class TestNoCache:
    def test_no_cache_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CASHMERE_CACHE_DIR", str(tmp_path / "c"))
        sweep = Sweep(cache=None)
        run_cells([small_spec()], sweep)
        assert not (tmp_path / "c").exists()
        assert sweep.stats.executed == 1
        assert sweep.stats.hits == 0 and sweep.stats.misses == 0


class TestJobsResolution:
    def test_default_serial(self):
        assert Sweep().jobs == 1

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ConfigError):
            Sweep(jobs=jobs)


class TestMemo:
    """One sweep executes each distinct spec once."""

    APPS = ("SOR", "Em3d")

    def test_figure6_reuses_table3_cells(self):
        shared = Sweep()
        run_table3(apps=self.APPS, sweep=shared)
        assert shared.stats.executed == 8
        fig6 = run_figure6(apps=self.APPS, sweep=shared)
        assert shared.stats.executed == 8 and shared.stats.hits == 8
        fresh = run_figure6(apps=self.APPS, sweep=Sweep())
        assert fig6.format() == fresh.format()
        assert json.dumps(dataclasses.asdict(fig6)) == \
            json.dumps(dataclasses.asdict(fresh))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_repeated_spec_in_one_call_executes_once(self, jobs):
        a, b = small_spec("2L"), small_spec("1LD")
        sweep = Sweep(jobs=jobs)
        results = run_cells([a, b, a, a], sweep)
        assert sweep.stats.executed == 2 and sweep.stats.hits == 2
        assert results[0] is results[2] is results[3]
        assert results[0] == run_cells([a], Sweep())[0]


class TestRunnerCLI:
    def run_cli(self, capsys, argv):
        from repro.experiments.runner import main
        assert main(argv) == 0
        return capsys.readouterr()

    def test_json_all_is_single_array(self, capsys, tmp_path,
                                      monkeypatch):
        monkeypatch.setenv("CASHMERE_CACHE_DIR", str(tmp_path))
        # 'all' limited to one cheap app still covers every experiment.
        captured = self.run_cli(capsys, ["all", "SOR", "--quick",
                                         "--json"])
        docs = json.loads(captured.out)
        assert isinstance(docs, list) and len(docs) == 10
        assert [d["experiment"] for d in docs] == [
            "table1", "table2", "table3", "figure6", "figure7",
            "shootdown", "lockfree", "sensitivity", "polling", "claims"]
        assert "misses" in captured.err and "hits" in captured.err

    def test_warm_rerun_executes_nothing_and_matches(self, capsys,
                                                     tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("CASHMERE_CACHE_DIR", str(tmp_path))
        first = self.run_cli(capsys, ["figure7", "SOR", "--quick", "-j",
                                      "2"])
        assert "0 hits" in first.err
        second = self.run_cli(capsys, ["figure7", "SOR", "--quick"])
        assert second.out == first.out
        assert "0 misses; 0 simulations executed" in second.err
        assert "[figure7:" in second.err  # per-experiment progress line

    def test_no_cache_flag(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CASHMERE_CACHE_DIR", str(tmp_path / "c"))
        captured = self.run_cli(capsys, ["table2", "SOR", "--no-cache"])
        assert "cache disabled" in captured.err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit) as exc:
            main(["table2", "SOR", "--jobs", jobs])
        assert exc.value.code == 2
        assert "at least 1" in capsys.readouterr().err

    def test_dispatch_table_covers_every_sweep_experiment(self, capsys):
        import re
        from repro.experiments.runner import (EXPERIMENTS,
                                              PAPER_EXPERIMENTS, main)
        with pytest.raises(SystemExit):
            main(["--help"])
        usage = capsys.readouterr().out
        choices = set(re.search(r"\{([a-z0-9,]+)\}", usage)[1].split(","))
        assert choices - {"all", "trace", "profile", "modelcheck"} == \
            set(EXPERIMENTS)
        assert PAPER_EXPERIMENTS == (
            "table1", "table2", "table3", "figure6", "figure7",
            "shootdown", "lockfree", "sensitivity", "polling")
