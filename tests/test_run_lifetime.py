"""A finished run is freed as soon as its caller drops it.

Sweeps run hundreds of cells in one process, so a run must not outlive
its result: nothing the caller does not hold may keep the protocol, the
owners' memory or an observer reachable. Each case runs with the
garbage collector off, so only reference counting can free the run —
anything a reference cycle holds stays alive and fails the case.
"""

import gc
import mmap
import weakref
from dataclasses import replace

import pytest

from repro.apps import make_app
from repro.config import MachineConfig
from repro.runtime import run_app
from repro.runtime.sequential import run_sequential

SMALL = MachineConfig(nodes=2, procs_per_node=2)


@pytest.fixture(autouse=True)
def no_collector():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _run_refs(protocol: str, observer: str | None = None,
              **flags) -> dict:
    """Weak references to one finished run's state, taken while its
    result is alive; the result is dropped on return."""
    app = make_app("SOR")
    result = run_app(app, app.small_params(), replace(SMALL, **flags),
                     protocol)
    rt = result.runtime
    refs = {"protocol": weakref.ref(rt.protocol),
            "backing": weakref.ref(rt.protocol.owners[0].backing)}
    if observer is not None:
        refs[observer] = weakref.ref(getattr(rt, observer))
    assert _alive(refs) == list(refs)
    return refs


def _alive(refs: dict) -> list[str]:
    return [name for name, ref in refs.items() if ref() is not None]


@pytest.mark.parametrize("protocol", ["2L", "2LS", "1LD", "1L"])
def test_dropped_result_frees_the_run(protocol):
    assert _alive(_run_refs(protocol)) == []


@pytest.mark.parametrize("flag,observer", [("tracing", "trace"),
                                           ("metrics", "metrics"),
                                           ("checking", "checker")])
def test_dropped_result_frees_its_observer(flag, observer):
    assert _alive(_run_refs("2L", observer, **{flag: True})) == []


def test_sequential_memory_is_an_mmap_freed_with_its_env():
    app = make_app("SOR")
    env, _ = run_sequential(app, app.small_params(), SMALL)
    base = env.mem.base
    assert isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap)
    ref = weakref.ref(base.obj)
    del base, env
    assert ref() is None
