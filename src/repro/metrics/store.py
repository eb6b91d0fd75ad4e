"""The sqlite-backed run store: provenance-stamped metrics history.

Every recorded run — a metered simulation, a wall-clock bench suite, an
imported ``BENCH_*.json`` — becomes one row in ``runs`` with a manifest
(JSON provenance: store schema version, canonical config key, source
digest, seed, environment) plus its final scalar ``counters`` and any
sampled time ``series``. The store is the substrate the trend/regression
dashboard (:mod:`repro.metrics.dashboard`) and the ``cashmere-repro
metrics`` CLI (:mod:`repro.metrics.cli`) query.

Determinism contract: *simulated* content (counters derived from a run,
metric series) is a pure function of the spec and the source tree, same
as the sweep cache (DESIGN.md §11); only the ``ingested_at`` stamp and
the wall-clock numbers inside bench manifests read real time, which is
why ``repro/metrics`` is a sanctioned wall-clock package for the
determinism lint — timestamps at ingest only, never inside simulation.

Import this module explicitly (``from repro.metrics.store import
RunStore``): ``repro.metrics``'s package init stays collector-only so
the runtime can import it without dragging in the experiments layer.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time

#: Bump when the table layout or manifest/counter naming changes.
STORE_SCHEMA = "cashmere-metrics-1"

#: Default store location, unless ``CASHMERE_METRICS_DB`` says otherwise.
DEFAULT_DB = "metrics.db"

#: Bench report schemas this store knows how to flatten.
BENCH_SCHEMAS = ("cashmere-bench-1", "cashmere-bench-2",
                 "cashmere-bench-3")

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id             INTEGER PRIMARY KEY AUTOINCREMENT,
    label          TEXT NOT NULL,
    kind           TEXT NOT NULL,
    app            TEXT,
    protocol       TEXT,
    schema_version TEXT NOT NULL,
    config_key     TEXT,
    source_digest  TEXT,
    seed           TEXT,
    ingested_at    TEXT NOT NULL,
    manifest       TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS counters (
    run_id INTEGER NOT NULL REFERENCES runs(id),
    name   TEXT NOT NULL,
    value  REAL NOT NULL,
    PRIMARY KEY (run_id, name)
);
CREATE TABLE IF NOT EXISTS series (
    run_id INTEGER NOT NULL REFERENCES runs(id),
    name   TEXT NOT NULL,
    idx    INTEGER NOT NULL,
    t_us   REAL NOT NULL,
    value  REAL NOT NULL,
    PRIMARY KEY (run_id, name, idx)
);
"""


def default_db_path() -> str:
    """Store location: ``CASHMERE_METRICS_DB`` or ``./metrics.db``."""
    return os.environ.get("CASHMERE_METRICS_DB") or DEFAULT_DB


def ingest_stamp() -> str:
    """Wall-clock provenance stamp for a store write.

    The only place the metrics layer reads real time directly; analogous
    to :func:`repro.experiments.sweep.wall_clock` (and sanctioned the
    same way by the determinism lint). Never called during simulation.
    """
    return time.strftime("%Y-%m-%dT%H:%M:%S")


class StoreError(Exception):
    """A store file is unreadable or from an incompatible schema."""


class RunStore:
    """One sqlite metrics store (created on first open)."""

    def __init__(self, path: str | None = None) -> None:
        self.path = path or default_db_path()
        self.db = sqlite3.connect(self.path)
        self.db.executescript(_TABLES)
        row = self.db.execute(
            "SELECT value FROM meta WHERE key = 'schema'").fetchone()
        if row is None:
            self.db.execute("INSERT INTO meta VALUES ('schema', ?)",
                            (STORE_SCHEMA,))
            self.db.commit()
        elif row[0] != STORE_SCHEMA:
            raise StoreError(
                f"{self.path}: store schema {row[0]!r} != {STORE_SCHEMA!r};"
                f" start a fresh store")

    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # --- ingestion ----------------------------------------------------------

    def ingest(self, *, label: str, kind: str, manifest: dict,
               counters: dict, series: dict | None = None) -> int:
        """Record one run; returns its store id.

        ``counters`` maps name -> final scalar; ``series`` maps name ->
        ``{"t": [...], "v": [...]}`` sampled over simulated time.
        """
        row = (label, kind, manifest.get("app"), manifest.get("protocol"),
               str(manifest.get("schema_version", STORE_SCHEMA)),
               manifest.get("config_key"), manifest.get("source_digest"),
               None if manifest.get("seed") is None
               else str(manifest["seed"]),
               ingest_stamp(), json.dumps(manifest, sort_keys=True))
        cur = self.db.execute(
            "INSERT INTO runs (label, kind, app, protocol, schema_version,"
            " config_key, source_digest, seed, ingested_at, manifest)"
            " VALUES (?,?,?,?,?,?,?,?,?,?)", row)
        run_id = cur.lastrowid
        assert run_id is not None
        self.db.executemany(
            "INSERT INTO counters VALUES (?,?,?)",
            [(run_id, name, float(value))
             for name, value in sorted(counters.items())])
        for name, sv in sorted((series or {}).items()):
            self.db.executemany(
                "INSERT INTO series VALUES (?,?,?,?,?)",
                [(run_id, name, i, float(t), float(v))
                 for i, (t, v) in enumerate(zip(sv["t"], sv["v"]))])
        self.db.commit()
        return run_id

    def ingest_result(self, result, *, label: str | None = None) -> int:
        """Record a metered simulation (:class:`~repro.runtime.RunResult`).

        The run must have been executed with metrics enabled; its final
        aggregate counters, time buckets, and traffic become store
        counters and its sampled series go in whole.
        """
        from ..experiments.sweep import config_key, source_digest
        if result.metrics is None:
            raise StoreError(
                "run has no metrics; enable MachineConfig.metrics or "
                "run under repro.metering()")
        rt = result.runtime
        stats = result.stats
        payload = result.metrics.to_payload()
        manifest = {
            "schema_version": STORE_SCHEMA,
            "config_key": repr(config_key(rt.config)),
            "source_digest": source_digest(),
            "seed": rt.params.get("seed"),
            "app": rt.app.name,
            "protocol": rt.protocol.name,
            "nodes": rt.config.nodes,
            "procs_per_node": rt.config.procs_per_node,
            "interval_us": payload["interval_us"],
        }
        counters: dict = {"exec_time_us": stats.exec_time_us}
        for name, value in stats.aggregate.counters.items():
            counters[f"ctr.{name}"] = value
        for name, value in stats.aggregate.buckets.items():
            counters[f"bucket.{name}"] = value
        for cat, nbytes in stats.mc_traffic_bytes.items():
            counters[f"mc_bytes.{cat}"] = nbytes
        counters["mc_bytes.total"] = sum(stats.mc_traffic_bytes.values())
        return self.ingest(
            label=label or f"{rt.app.name}/{rt.protocol.name}",
            kind="run", manifest=manifest, counters=counters,
            series=payload["series"])

    def ingest_bench(self, report: dict, *, label: str) -> int:
        """Record a bench report (the ``BENCH_*.json`` document shape).

        Accepts any schema in :data:`BENCH_SCHEMAS`: every benchmark's
        wall time (and simulated throughput, where present) flattens to
        ``<bench>.wall_s`` / ``<bench>.sim_us`` / ... counters, so bench
        runs from before and after the ``cashmere-bench-2`` bump compare
        in one trend report.
        """
        schema = report.get("schema")
        if schema not in BENCH_SCHEMAS:
            raise StoreError(
                f"unknown bench schema {schema!r} (expected one of "
                f"{', '.join(BENCH_SCHEMAS)})")
        manifest = {
            "schema_version": schema,
            "timestamp": report.get("timestamp"),
            "python": report.get("python"),
            "numpy": report.get("numpy"),
            "platform": report.get("platform"),
            "quick": report.get("quick"),
            # bench-2 additions (absent from bench-1 documents):
            "fastpath": report.get("fastpath"),
            "jobs": report.get("jobs"),
        }
        counters: dict = {}
        for name, entry in report.get("benchmarks", {}).items():
            for key in ("wall_s", "sim_us", "sim_us_per_wall_s", "hits",
                        "misses", "executed", "cells", "jobs", "speedup",
                        # scale-family and directory-bench series:
                        "procs", "mc_mbytes", "barrier_us_per_episode",
                        "sharers_per_page", "per_op_us_8",
                        "per_op_us_64", "per_op_us_512", "flatness",
                        "dense_per_op_us_512"):
                value = entry.get(key)
                if isinstance(value, (int, float)):
                    counters[f"{name}.{key}"] = value
        return self.ingest(label=label, kind="bench", manifest=manifest,
                           counters=counters)

    def import_bench_json(self, path: str, *,
                          label: str | None = None) -> int:
        """Ingest a ``BENCH_*.json`` file from disk."""
        try:
            with open(path) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            raise StoreError(f"cannot read bench report {path}: {exc}") \
                from exc
        return self.ingest_bench(report, label=label
                                 or os.path.basename(path))

    # --- queries ------------------------------------------------------------

    def runs(self, kind: str | None = None) -> list[dict]:
        """All recorded runs (oldest first), as plain dicts."""
        sql = ("SELECT id, label, kind, app, protocol, schema_version,"
               " config_key, source_digest, seed, ingested_at FROM runs")
        params: tuple = ()
        if kind is not None:
            sql += " WHERE kind = ?"
            params = (kind,)
        cols = ("id", "label", "kind", "app", "protocol", "schema_version",
                "config_key", "source_digest", "seed", "ingested_at")
        return [dict(zip(cols, row))
                for row in self.db.execute(sql + " ORDER BY id", params)]

    def manifest(self, run_id: int) -> dict:
        row = self.db.execute("SELECT manifest FROM runs WHERE id = ?",
                              (run_id,)).fetchone()
        if row is None:
            raise StoreError(f"no run {run_id} in {self.path}")
        return json.loads(row[0])

    def counters(self, run_id: int) -> dict:
        return dict(self.db.execute(
            "SELECT name, value FROM counters WHERE run_id = ?"
            " ORDER BY name", (run_id,)))

    def series_names(self, run_id: int) -> list[str]:
        return [row[0] for row in self.db.execute(
            "SELECT DISTINCT name FROM series WHERE run_id = ?"
            " ORDER BY name", (run_id,))]

    def series(self, run_id: int, name: str) \
            -> tuple[list[float], list[float]]:
        times: list[float] = []
        values: list[float] = []
        for t, v in self.db.execute(
                "SELECT t_us, value FROM series WHERE run_id = ?"
                " AND name = ? ORDER BY idx", (run_id, name)):
            times.append(t)
            values.append(v)
        return times, values
