"""A cell's result is a function of its ``RunSpec`` alone.

The result cache replays a cell from its spec and a digest of the
source tree, so any other input would poison it. This test runs a fixed
set of cells in two fresh interpreters that differ in hash seed (set
order), working directory, environment and cell order (state one cell
leaves for the next). Each run turns every other hidden-input source
into a tripwire that raises once the cells start. The two runs' pickled
results must match byte for byte, and no cell may change its spec.

Run as a script, ``python tests/test_hidden_inputs.py [reverse]``, this
file is the driver: it writes the pickled ``{label: CellResult}`` map to
stdout.
"""

import os
import pickle
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: ``time`` functions that read a clock (each has an ``_ns`` twin), and
#: those that read it when called without a time argument.
CLOCKS = ("time", "perf_counter", "monotonic", "process_time",
          "thread_time", "clock_gettime")
DATES = ("localtime", "gmtime", "ctime", "asctime", "strftime")

_armed = False


class HiddenInput(BaseException):
    """A cell read a hidden input. Not an ``Exception``, so no handler
    on the simulated path can swallow it."""


def _trip(name, real, unseeded_only=False):
    def tripwire(*args, **kwargs):
        seed = args[0] if args else next(iter(kwargs.values()), None)
        if _armed and (seed is None or not unseeded_only):
            raise HiddenInput(name)
        return real(*args, **kwargs)
    return tripwire


def _install_tripwires():
    """Wrap each source before ``repro`` is imported, so that a name a
    module from-imports (``from time import perf_counter``) is the
    tripwire too."""
    import builtins
    import datetime
    import random
    import time

    import numpy as np

    for name in CLOCKS + tuple(n + "_ns" for n in CLOCKS) + DATES:
        setattr(time, name, _trip(f"time.{name}", getattr(time, name)))
    for cls, names in ((datetime.datetime, ("now", "utcnow", "today")),
                       (datetime.date, ("today",))):
        setattr(datetime, cls.__name__, type(cls.__name__, (cls,), {
            n: staticmethod(_trip(f"datetime.{n}", getattr(cls, n)))
            for n in names}))
    for module, rng in ((random, random._inst),
                        (np.random, np.random.mtrand._rand)):
        for name in dir(module):
            func = getattr(module, name)
            if getattr(func, "__self__", None) is rng:
                setattr(module, name, _trip(f"global {name}", func))
    random.Random = _trip("unseeded Random", random.Random, True)
    for name in ("default_rng", "RandomState", "SeedSequence"):
        setattr(np.random, name, _trip(f"unseeded {name}",
                                       getattr(np.random, name), True))
    for name in ("__getitem__", "__iter__", "__len__"):  # every read
        setattr(os._Environ, name,
                _trip("os.environ", getattr(os._Environ, name)))
    os.getenv = _trip("os.getenv", os.getenv)
    os.urandom = _trip("os.urandom", os.urandom)
    builtins.id = _trip("id", builtins.id)


def _cells():
    """Every app's sequential cell and its runs under each protocol
    (TSP's one-level cells are slow, so TSP runs 2L only), SOR under
    every variant flag and observer, and the Table 1 cell."""
    from dataclasses import replace

    from repro import MachineConfig
    from repro.apps import make_app
    from repro.experiments.configs import APP_ORDER, PROTOCOL_ORDER
    from repro.experiments.sweep import RunSpec

    config = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512)
    cells = {}
    for app in APP_ORDER:
        params = make_app(app).small_params()
        cells[f"{app}/seq"] = RunSpec.seq_run(app, config, params=params)
        for protocol in ("2L",) if app == "TSP" else PROTOCOL_ORDER:
            cells[f"{app}/{protocol}"] = RunSpec.app_run(
                app, protocol, config, params=params)
    for label, protocol, flags, kwargs in (
            ("1LD+HO", "1LD", {}, {"home_opt": True}),
            ("1L+HO", "1L", {}, {"home_opt": True}),
            ("lock_free=False", "2L", {}, {"lock_free": False}),
            ("polling=False", "2LS", {"polling": False}, {}),
            ("barrier=tree", "2L", {"barrier": "tree"}, {}),
            ("tracing+metrics", "2L", {"tracing": True, "metrics": True}, {}),
            ("checking", "2L", {"checking": True}, {}),
            ("fastpath=False", "2L", {"fastpath": False}, {})):
        cells[f"SOR/{protocol}/{label}"] = RunSpec.app_run(
            "SOR", protocol, replace(config, **flags),
            params=make_app("SOR").small_params(), **kwargs)
    cells["table1"] = RunSpec.table1_run()
    return cells


def _drive(order):
    global _armed
    _install_tripwires()
    from repro.experiments.sweep import execute_cell
    cells = list(_cells().items())
    if order == "reverse":
        cells.reverse()
    results = {}
    _armed = True
    for label, spec in cells:
        before = pickle.dumps(spec)
        results[label] = pickle.dumps(execute_cell(spec))
        assert pickle.dumps(spec) == before, f"{label} changed its spec"
    _armed = False
    sys.stdout.buffer.write(pickle.dumps(results))


def _start(cwd, hash_seed, order, **extra_env):
    cwd.mkdir()
    env = dict(os.environ, **extra_env, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), order], cwd=cwd,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_cell_results_depend_on_their_spec_alone(tmp_path):
    runs = [_start(tmp_path / "a", 0, "forward"),
            _start(tmp_path / "b", 1, "reverse", REPRO_UNRELATED="1")]
    outputs = []
    try:
        for run in runs:
            out, err = run.communicate(timeout=600)
            assert run.returncode == 0, err.decode()
            outputs.append(pickle.loads(out))
    finally:
        for run in runs:
            run.kill()
    first, second = outputs
    assert first.keys() == second.keys()
    differ = [label for label in first if first[label] != second[label]]
    assert not differ, f"results differ between the two runs: {differ}"


if __name__ == "__main__":
    _drive(sys.argv[1] if len(sys.argv) > 1 else "forward")
