"""Cross-validation: the static lockset pass vs the dynamic detector.

A corpus of tiny kernels with *known* data races is run both ways:

* dynamically, under the PR 1 vector-clock race detector
  (``MachineConfig(checking=True)``) — every corpus program's race must
  actually be observed at runtime, so the corpus stays honest;
* statically, through :func:`repro.lint.lint_source` — every
  dynamically-observed race must map to a static finding with the
  expected rule ID.

A DRF control program closes the loop: clean under both. Finally,
Water — whose barrier-fenced owner-slice accesses used to need two
``# cashmere: ignore[A004]`` suppressions before the integration phase
moved into a region kernel — is shown to lint clean with *no*
suppressions and to run race-free under the detector.
"""

import os

import pytest

from repro.apps import make_app
from repro.apps.base import Application
from repro.config import MachineConfig
from repro.errors import DataRaceError
from repro.lint import lint_source
from repro.runtime.program import ParallelRuntime

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (name, expected static rule, shared arrays, kernel source).
RACY_CORPUS = [
    ("ww_unguarded", "A005", [("data", 8)], '''
def worker(env, params):
    data = env.arr("data")
    yield from env.barrier()
    env.set(data, 0, float(env.rank))
    yield from env.barrier()
'''),
    ("mixed_lockset", "A004", [("acc", 8)], '''
def worker(env, params):
    acc = env.arr("acc")
    yield from env.barrier()
    if env.rank == 0:
        env.set(acc, 0, 1.0)
    else:
        yield from env.acquire(0)
        env.set(acc, 0, env.get(acc, 0) + 1.0)
        env.release(0)
    yield from env.barrier()
'''),
    ("partial_protect", "A004", [("best", 8)], '''
def worker(env, params):
    best = env.arr("best")
    yield from env.barrier()
    yield from env.acquire(1)
    env.set(best, 0, env.get(best, 0) + float(env.rank))
    env.release(1)
    peek = env.get(best, 0)
    yield from env.barrier()
    return peek
'''),
    ("init_race", "A006", [("data", 8)], '''
def worker(env, params):
    data = env.arr("data")
    env.set(data, 0, 1.0)
    yield from env.barrier()
    v = env.get(data, env.rank)
    yield from env.barrier()
    return v
'''),
]

DRF_CONTROL = ("drf_control", None, [("data", 8)], '''
def worker(env, params):
    data = env.arr("data")
    if env.rank == 0:
        for i in range(env.nprocs):
            env.set(data, i, 0.0)
    yield from env.barrier()
    env.set(data, env.rank, float(env.rank) + 1.0)
    yield from env.barrier()
    total = 0.0
    for i in range(env.nprocs):
        total = total + env.get(data, i)
    yield from env.barrier()
    env.set(data, env.rank, total)
    yield from env.barrier()
''')


class CorpusApp(Application):
    """Wrap one corpus kernel in the Application interface."""

    name = "Corpus"

    def __init__(self, source, arrays):
        namespace = {}
        exec(compile(source, "<corpus>", "exec"), namespace)
        self._fn = namespace["worker"]
        self._arrays = arrays

    def default_params(self):
        return {}

    def declare(self, segment, params):
        for name, words in self._arrays:
            segment.alloc(name, words)

    def worker(self, env, params):
        return self._fn(env, params)

    def result_arrays(self, params):
        return [name for name, _ in self._arrays]


def _dynamic_races(source, arrays):
    """Run a corpus kernel under the detector; return the race reports."""
    config = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                           shared_bytes=2048, superpage_pages=2,
                           checking=True)
    runtime = ParallelRuntime(CorpusApp(source, arrays), {}, config,
                              protocol="2L")
    try:
        runtime.run()
    except DataRaceError:
        pass
    return runtime.checker.races


def _static_rules(source):
    active, _ = lint_source(source, "corpus.py")
    return {d.rule for d in active}


@pytest.mark.parametrize("name,rule,arrays,source",
                         RACY_CORPUS, ids=[c[0] for c in RACY_CORPUS])
def test_dynamic_race_is_statically_flagged(name, rule, arrays, source):
    races = _dynamic_races(source, arrays)
    assert races, f"{name}: corpus program did not race dynamically"
    fired = _static_rules(source)
    assert rule in fired, \
        f"{name}: dynamic race not caught statically (static={fired})"


def test_drf_control_clean_both_ways():
    name, _, arrays, source = DRF_CONTROL
    races = _dynamic_races(source, arrays)
    assert not races, f"{name}: control program raced: {races}"
    assert _static_rules(source) == set(), \
        "static analyzer flagged the DRF control program"


def test_water_lints_clean_and_runs_race_free():
    """Water used to carry two ``ignore[A004]`` comments for a
    feasible-path over-approximation (barrier-fenced owner-slice
    accesses inside the locked phase's lockset). Moving the integration
    phase into the barrier-free ``_integrate`` helper removed the need:
    the file now lints clean with no suppressions at all. Keep the
    dynamic half of
    the old proof — Water under the detector reports zero races — so
    the lint silence is still cross-checked against reality."""
    with open(os.path.join(REPO, "src", "repro", "apps",
                           "water.py")) as fh:
        source = fh.read()
    active, suppressed = lint_source(source, "water.py")
    assert active == []
    assert suppressed == []

    app = make_app("Water")
    config = MachineConfig(nodes=2, procs_per_node=2, checking=True)
    runtime = ParallelRuntime(app, app.small_params(), config,
                              protocol="2L")
    runtime.run()  # DataRaceError here would invalidate the suppression
    assert runtime.checker.races == []
