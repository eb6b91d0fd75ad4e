"""The shared-memory segment and array handles.

Applications allocate named :class:`SharedArray` objects from a
:class:`SharedSegment`. Arrays are laid out in a single word-addressed
shared address space split into pages; by default each array starts on a
fresh page (false sharing between *different* arrays is an accident of
layout, not an algorithm property, and the paper's applications were laid
out the same way). Within an array, page boundaries fall where they fall
— that is where the protocols' multiple-writer false-sharing handling
earns its keep.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from ..config import MachineConfig
from ..errors import ConfigError

#: Nesting depth of active :func:`checking` context managers. When
#: positive, every :class:`~repro.runtime.ParallelRuntime` built runs
#: under the correctness checker regardless of its config flag.
_checking_depth = 0


@contextlib.contextmanager
def checking():
    """Force correctness checking for all runtimes built in this scope.

    The scoped equivalent of ``MachineConfig(checking=True)``: any app,
    example, or test that builds a :class:`~repro.runtime.ParallelRuntime`
    inside the ``with`` block runs under the happens-before race detector
    and the coherence oracle (:mod:`repro.check`) without threading a
    config flag through::

        with checking():
            result = run_app(app, params, config, protocol="2L")

    Nesting is allowed; checking stays on until the outermost block exits.
    """
    global _checking_depth
    _checking_depth += 1
    try:
        yield
    finally:
        _checking_depth -= 1


def checking_enabled(config: MachineConfig) -> bool:
    """Should a runtime built with ``config`` attach the checker?"""
    return bool(config.checking or _checking_depth)


#: Nesting depth of active :func:`tracing` context managers. When
#: positive, every :class:`~repro.runtime.ParallelRuntime` built attaches
#: an event tracer regardless of its config flag.
_tracing_depth = 0


@contextlib.contextmanager
def tracing():
    """Force event tracing for all runtimes built in this scope.

    The scoped equivalent of ``MachineConfig(tracing=True)``: any app,
    example, or test that builds a :class:`~repro.runtime.ParallelRuntime`
    inside the ``with`` block records protocol events into a
    :class:`~repro.trace.Tracer`, available afterwards as
    ``result.trace``::

        with tracing():
            result = run_app(app, params, config, protocol="2L")
        write_chrome_trace(result.trace, "trace.json")

    Nesting is allowed; tracing stays on until the outermost block exits.
    """
    global _tracing_depth
    _tracing_depth += 1
    try:
        yield
    finally:
        _tracing_depth -= 1


def tracing_enabled(config: MachineConfig) -> bool:
    """Should a runtime built with ``config`` attach an event tracer?"""
    return bool(config.tracing or _tracing_depth)


#: Nesting depth of active :func:`metering` context managers. When
#: positive, every :class:`~repro.runtime.ParallelRuntime` built attaches
#: a metrics collector regardless of its config flag.
_metering_depth = 0


@contextlib.contextmanager
def metering():
    """Force metrics collection for all runtimes built in this scope.

    The scoped equivalent of ``MachineConfig(metrics=True)``: any app,
    example, or test that builds a :class:`~repro.runtime.ParallelRuntime`
    inside the ``with`` block samples time-series metrics into a
    :class:`~repro.metrics.MetricsCollector`, available afterwards as
    ``result.metrics``::

        with metering():
            result = run_app(app, params, config, protocol="2L")
        print(result.metrics.series["mc.util"])

    (Named ``metering`` rather than ``metrics`` so the context manager
    does not shadow the :mod:`repro.metrics` package.) Nesting is
    allowed; collection stays on until the outermost block exits.
    """
    global _metering_depth
    _metering_depth += 1
    try:
        yield
    finally:
        _metering_depth -= 1


def metrics_enabled(config: MachineConfig) -> bool:
    """Should a runtime built with ``config`` attach a metrics collector?"""
    return bool(config.metrics or _metering_depth)


@dataclass(frozen=True)
class SharedArray:
    """A named, contiguous range of shared words."""

    name: str
    base: int      # first word index in the shared segment
    length: int    # number of 64-bit words

    def index(self, i: int) -> int:
        return self.base + i

    def idx2(self, row: int, col: int, cols: int) -> int:
        """Word index of a row-major 2-D element."""
        return self.base + row * cols + col


class SharedSegment:
    """A bump allocator over the shared address space."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.total_words = config.shared_bytes // 8
        self._next = 0
        self.arrays: dict[str, SharedArray] = {}

    def alloc(self, name: str, length: int,
              page_aligned: bool = True) -> SharedArray:
        """Allocate ``length`` words, optionally starting on a page boundary."""
        if name in self.arrays:
            raise ConfigError(f"shared array {name!r} already allocated")
        if length <= 0:
            raise ConfigError(f"array {name!r} must have positive length")
        base = self._next
        wpp = self.config.words_per_page
        if page_aligned and base % wpp:
            base += wpp - base % wpp
        if base + length > self.total_words:
            raise ConfigError(
                f"shared segment exhausted allocating {name!r}: need "
                f"{length} words at {base}, have {self.total_words} total; "
                f"increase MachineConfig.shared_bytes")
        arr = SharedArray(name, base, length)
        self.arrays[name] = arr
        self._next = base + length
        return arr

    def array(self, name: str) -> SharedArray:
        return self.arrays[name]

    @property
    def words_used(self) -> int:
        return self._next

    def pages_used(self) -> int:
        wpp = self.config.words_per_page
        return (self._next + wpp - 1) // wpp
