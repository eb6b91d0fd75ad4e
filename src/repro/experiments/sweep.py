"""Parallel sweep engine: declarative experiment cells, a process pool,
and a content-addressed result cache.

The paper's evaluation is an embarrassingly parallel grid: every table
and figure is assembled from *independent* simulations (one per
application x protocol x placement x config-override cell). This module
turns that structure into a first-class object:

* :class:`RunSpec` — one cell, described declaratively (application,
  protocol, canonicalized :class:`~repro.config.MachineConfig`,
  parameter overrides, protocol variant flags). Specs are frozen,
  hashable, and picklable; :func:`execute_cell` is a *pure function*
  ``RunSpec -> CellResult``.
* :func:`run_cells` — executes a list of specs, serially by default or
  on a :class:`concurrent.futures.ProcessPoolExecutor` when ``jobs > 1``
  (``--jobs N`` on the CLI). Results are merged back **in spec order**,
  so parallel output is byte-identical to serial output by
  construction. A :class:`Sweep` remembers every result it has seen,
  so a spec repeated within one call or across experiments sharing the
  sweep executes once.
* :class:`ResultCache` — an on-disk content-addressed memo table
  (default ``.cashmere-cache/``, overridable via ``CASHMERE_CACHE_DIR``).
  The key hashes the RunSpec together with the package version and a
  digest of every ``src/repro`` source file, so *any* code change
  invalidates every entry; the value is the pickled
  :class:`CellResult`, headed by its SHA-256 so a damaged entry reads
  as a miss. Because the simulator is fully deterministic
  (asserted by the fast-path and tracing determinism suites), a cache
  hit is bit-exact with a re-execution.

Fan-out is sound for the same reason memoization is: a cell's outcome
depends only on its spec and the source tree, never on what other cells
ran before it in the same process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .. import __version__
from ..apps import make_app
from ..config import CostModel, MachineConfig
from ..errors import ConfigError
from ..runtime.api import SharedSegment
from ..runtime.program import run_app
from ..runtime.sequential import run_sequential

#: Bump when the CellResult layout or the key derivation changes.
#: 2: CellResult gained the ``scale`` dict (directory occupancy,
#: barrier cost, MC traffic — the scale experiment family's series).
#: 3: an entry is the SHA-256 of its pickled bytes, then those bytes.
CACHE_SCHEMA = "cashmere-sweep-3"

#: Length of the SHA-256 digest that heads every cache entry.
_DIGEST_BYTES = hashlib.sha256().digest_size

#: Default on-disk cache location (relative to the working directory),
#: unless ``CASHMERE_CACHE_DIR`` says otherwise.
DEFAULT_CACHE_DIR = ".cashmere-cache"


# --- RunSpec ------------------------------------------------------------------


def config_key(config: MachineConfig) -> tuple:
    """Canonical, hashable encoding of a :class:`MachineConfig`.

    Every field (including the nested cost model) is flattened into
    sorted-by-declaration ``(name, value)`` tuples of plain scalars, so
    two configs compare equal iff every simulated cost and geometry
    parameter is equal — exactly the cache-correctness condition.
    """
    items = []
    for f in dataclasses.fields(MachineConfig):
        value = getattr(config, f.name)
        if f.name == "costs":
            value = tuple((cf.name, getattr(value, cf.name))
                          for cf in dataclasses.fields(CostModel))
        items.append((f.name, value))
    return tuple(items)


def config_from_key(key: tuple) -> MachineConfig:
    """Rebuild the :class:`MachineConfig` a :func:`config_key` encodes."""
    kwargs = dict(key)
    kwargs["costs"] = CostModel(**dict(kwargs["costs"]))
    return MachineConfig(**kwargs)


@dataclass(frozen=True)
class RunSpec:
    """One experiment cell, fully described by value.

    ``kind`` selects the worker: ``"app"`` runs the application under a
    protocol (:func:`~repro.runtime.program.run_app`), ``"seq"`` runs the
    uninstrumented sequential baseline, and ``"table1"`` runs the basic
    operation micro-measurements (no application). ``params`` holds only
    *overrides* on the application's ``default_params()`` — defaults live
    in source, which the cache key digests. :func:`cell_params` rejects
    a key the application does not have (``_compute_scale``, read by
    every worker environment, is the one generic key) and a value that
    is not a positive value of its default's type.
    """

    kind: str = "app"
    app: str = ""
    protocol: str = "2L"
    config: tuple = ()
    params: tuple = ()
    lock_free: bool = True
    home_opt: bool = False

    @classmethod
    def app_run(cls, app: str, protocol: str, config: MachineConfig, *,
                params: dict | None = None, lock_free: bool = True,
                home_opt: bool = False) -> "RunSpec":
        return cls(kind="app", app=app, protocol=protocol,
                   config=config_key(config),
                   params=tuple(sorted((params or {}).items())),
                   lock_free=lock_free, home_opt=home_opt)

    @classmethod
    def seq_run(cls, app: str, config: MachineConfig, *,
                params: dict | None = None) -> "RunSpec":
        return cls(kind="seq", app=app, protocol="",
                   config=config_key(config),
                   params=tuple(sorted((params or {}).items())))

    @classmethod
    def table1_run(cls) -> "RunSpec":
        return cls(kind="table1", app="", protocol="")


@dataclass
class CellResult:
    """What one cell produces: everything any table/figure reads.

    Kept deliberately small and de-normalized (plain dicts of floats)
    so it pickles cheaply across the process pool and into the cache.
    """

    exec_time_us: float = 0.0
    #: Table 3 row (also carries the counters the ablations read).
    table3: dict | None = None
    #: Aggregate Figure-6 time buckets and their sum.
    buckets: dict | None = None
    total_time: float | None = None
    #: Sequential cells: shared-segment footprint (Table 2).
    shared_kbytes: float | None = None
    #: ``table1`` cells: the full Table1Results object.
    payload: object | None = None
    #: Big-cluster scaling series (the ``scale`` experiment): end-of-run
    #: directory occupancy, barrier episode cost, and MC traffic.
    scale: dict | None = None


def cell_params(app, overrides) -> dict:
    """``app``'s default parameters with ``overrides`` (key, value) pairs
    applied. Raises :class:`ConfigError` for a key the application does
    not have, or a value that is not a positive value of its default's
    type or exceeds the application's ``param_max``."""
    params = app.default_params()
    unknown = [k for k, _ in overrides
               if k not in params and k != "_compute_scale"]
    if unknown:
        raise ConfigError(f"{app.name} has no parameter(s) "
                          f"{', '.join(unknown)}")
    for key, value in overrides:
        default = params.get(key)  # None for ``_compute_scale``
        bound = app.param_max.get(key)
        if default is not None and (
                type(value) is not type(default) or not value > 0
                or bound is not None and value > bound):
            raise ConfigError(
                f"{app.name} parameter {key}={value!r}: must be a positive "
                f"{type(default).__name__}"
                + ("" if bound is None else f" at most {bound}"))
    params.update(overrides)
    return params


def execute_cell(spec: RunSpec) -> CellResult:
    """Pure worker: run one cell. Safe to call in any process."""
    if spec.kind == "table1":
        from .table1 import _measure_table1
        return CellResult(payload=_measure_table1())
    config = config_from_key(spec.config)
    app = make_app(spec.app)
    params = cell_params(app, spec.params)
    if spec.kind == "seq":
        _, seq_us = run_sequential(app, params, config)
        seg = SharedSegment(config)
        app.declare(seg, params)
        return CellResult(exec_time_us=seq_us,
                          shared_kbytes=seg.words_used * 8 / 1024)
    if spec.kind != "app":
        raise ValueError(f"unknown RunSpec kind {spec.kind!r}")
    run = run_app(app, params, config, spec.protocol,
                  lock_free=spec.lock_free, home_opt=spec.home_opt)
    stats = run.stats
    rt = run.runtime
    per_owner, histogram = rt.protocol.directory.occupancy()
    barrier = rt.barrier
    scale = {
        "procs": config.total_procs,
        "mc_traffic_bytes": sum(stats.mc_traffic_bytes.values()),
        "dir_histogram": histogram,
        "dir_sharers": sum(per_owner),
        "dir_pages": len(rt.protocol.directory.entries),
        "barrier_episodes": barrier.episodes,
        "barrier_depart_us": barrier.depart_latency_us,
        "barrier_combine_hops":
            stats.aggregate.counters["barrier_combine_hops"],
    }
    return CellResult(exec_time_us=stats.exec_time_us,
                      table3=stats.table3_row(),
                      buckets=dict(stats.aggregate.buckets),
                      total_time=stats.aggregate.total_time,
                      scale=scale)


# --- content-addressed cache --------------------------------------------------

#: Process-wide memo of the source-tree digest (hashing ~100 files once
#: per process is cheap; once per cell lookup would not be).
_source_digest: str | None = None


def source_digest() -> str:
    """SHA-256 over every ``.py`` file under ``src/repro``, in sorted
    relative-path order. Any source change — a cost constant, a protocol
    fix, an application kernel tweak — changes the digest and therefore
    every cache key."""
    global _source_digest
    if _source_digest is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        h = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
        _source_digest = h.hexdigest()
    return _source_digest


def cache_key(spec: RunSpec) -> str:
    """Content address of a cell: schema + version + sources + spec."""
    raw = repr((CACHE_SCHEMA, __version__, source_digest(), spec))
    return hashlib.sha256(raw.encode()).hexdigest()


class ResultCache:
    """Pickled :class:`CellResult` objects keyed by :func:`cache_key`.

    Layout: ``<root>/<key[:2]>/<key>.pkl`` (two-level fan-out keeps
    directories small). Writes are atomic (temp file + rename), so
    concurrent sweeps sharing a cache directory can only ever observe
    complete entries. An entry starts with the SHA-256 of the pickle
    that follows it, and :meth:`get` checks it before unpickling: a
    damaged entry (a flipped bit, a truncated file) is a miss, never a
    different result or an exception.
    """

    def __init__(self, root: str | None = None) -> None:
        self.root = root or os.environ.get("CASHMERE_CACHE_DIR") \
            or DEFAULT_CACHE_DIR

    def path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".pkl")

    def get(self, spec: RunSpec) -> CellResult | None:
        try:
            with open(self.path(cache_key(spec)), "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        digest, body = data[:_DIGEST_BYTES], data[_DIGEST_BYTES:]
        if hashlib.sha256(body).digest() != digest:
            return None
        try:
            entry = pickle.loads(body)
        except Exception:
            return None
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA:
            return None
        result = entry.get("result")
        return result if isinstance(result, CellResult) else None

    def put(self, spec: RunSpec, result: CellResult) -> None:
        path = self.path(cache_key(spec))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        body = pickle.dumps({"schema": CACHE_SCHEMA, "spec": spec,
                             "result": result},
                            protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(hashlib.sha256(body).digest() + body)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass


# --- the sweep driver ---------------------------------------------------------


@dataclass
class SweepStats:
    """Hit/miss/execution counters, accumulated across experiments."""

    hits: int = 0
    misses: int = 0
    executed: int = 0

    @property
    def cells(self) -> int:
        return self.hits + self.executed

    def summary(self, cache_enabled: bool = True) -> str:
        if not cache_enabled:
            return (f"cache disabled; {self.executed} simulations "
                    f"executed")
        return (f"cache: {self.hits} hits, {self.misses} misses; "
                f"{self.executed} simulations executed")


@dataclass
class Sweep:
    """How to execute cells: parallelism, an optional result cache, and
    an in-process memo.

    The library default (``Sweep()``) is serial with no disk cache. The
    CLI constructs one Sweep per invocation, shared across every
    experiment of an ``all`` run. ``memo`` maps every spec the sweep has
    executed or read from disk to its result, so a cell that several
    experiments read (Table 3 and Figure 6 are the same 32 runs)
    executes once even under ``--no-cache``. The results are shared,
    not copied: an experiment must never mutate a cell it is handed.
    """

    jobs: int = 1
    cache: ResultCache | None = None
    stats: SweepStats = field(default_factory=SweepStats)
    memo: dict[RunSpec, CellResult] = field(default_factory=dict,
                                            init=False, repr=False)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigError(f"jobs must be at least 1, got {self.jobs}")


def run_cells(specs: list[RunSpec], sweep: Sweep | None = None) \
        -> list[CellResult]:
    """Execute every spec; returns results in spec order.

    Memo and cache hits are filled in first, and a spec repeated in
    ``specs`` counts as a hit after its first occurrence; the misses run
    serially or on a process pool. The merge is positional, so for a
    fixed spec list the output — and everything assembled from it — is
    identical no matter how many workers ran or which cells were cached.
    """
    sweep = sweep if sweep is not None else Sweep()
    memo = sweep.memo
    pending: dict[RunSpec, None] = {}  # a set that keeps spec order
    for spec in specs:
        if spec in memo or spec in pending:
            sweep.stats.hits += 1
            continue
        cached = sweep.cache.get(spec) if sweep.cache else None
        if cached is not None:
            memo[spec] = cached
            sweep.stats.hits += 1
        else:
            pending[spec] = None
            if sweep.cache:
                sweep.stats.misses += 1
    if pending:
        if sweep.jobs > 1 and len(pending) > 1:
            with ProcessPoolExecutor(
                    max_workers=min(sweep.jobs, len(pending))) as pool:
                executed = list(pool.map(execute_cell, pending))
        else:
            executed = [execute_cell(spec) for spec in pending]
        sweep.stats.executed += len(pending)
        for spec, result in zip(pending, executed):
            memo[spec] = result
            if sweep.cache:
                sweep.cache.put(spec, result)
    return [memo[spec] for spec in specs]
