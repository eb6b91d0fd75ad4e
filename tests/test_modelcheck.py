"""Contracts of the exhaustive small-config model checker (DESIGN.md §12).

* the real protocols pass the default 2-node x 2-proc x 2-page workload
  exhaustively (every schedule, zero violations);
* a planted protocol bug (a 2L that never sends write notices) is
  caught, with a *minimal* counterexample (BFS order guarantees no
  shorter schedule violates);
* a counterexample replays exactly from its schedule and exports
  through the Chrome trace writer as loadable JSON;
* the configuration guard rail holds (script count bounded by
  processors).
"""

import json

import pytest

from repro.check.explore import MUTANTS, ModelChecker, default_scripts
from repro.errors import (CoherenceViolation, InvariantViolation,
                          ProtocolError)

# The mutant's minimal failing schedule: proc 0 writes page 0 (3 steps),
# proc 2 reads it before and after (first critical section: 3 steps),
# then the 8th step is proc 2's second acquire+load observing the stale
# copy. Checked exactly so a regression in the BFS minimality shows up.
MUTANT_MINIMAL_STEPS = 8


@pytest.fixture(scope="module")
def mutant_result():
    checker = ModelChecker(protocol=MUTANTS["no-notices"])
    return checker, checker.run()


# --- the real protocols pass --------------------------------------------------


# The exact partition of the default workload's schedules into states.
# ``state_key`` digests the protocol's whole state; a change to how that
# state is stored must neither merge nor split states.


def test_1ld_passes_exhaustively():
    res = ModelChecker(protocol="1LD").run()
    assert res.ok and res.exhaustive, res.summary()
    assert (res.states, res.replays, res.complete_schedules) == \
        (1_051, 1_782, 120)
    assert res.max_depth_seen == sum(len(s) for s in default_scripts())


@pytest.mark.heavy
def test_2l_passes_exhaustively():
    res = ModelChecker(protocol="2L").run()
    assert res.ok and res.exhaustive, res.summary()
    assert (res.states, res.replays, res.complete_schedules) == \
        (9_266, 13_730, 2_153)


def test_1l_passes_exhaustively():
    res = ModelChecker(protocol="1L").run()
    assert res.ok and res.exhaustive, res.summary()
    assert (res.states, res.replays, res.complete_schedules) == \
        (1_054, 1_786, 122)


@pytest.mark.heavy
def test_2ls_passes_exhaustively():
    res = ModelChecker(protocol="2LS").run()
    assert res.ok and res.exhaustive, res.summary()
    assert (res.states, res.replays, res.complete_schedules) == \
        (9_266, 13_730, 2_153)


def test_budget_exhaustion_is_reported_not_hidden():
    res = ModelChecker(protocol="1LD", max_states=10).run()
    assert res.ok              # no violation found...
    assert not res.exhaustive  # ...but coverage was not complete


# --- the checker catches a planted bug ----------------------------------------


def test_mutant_is_caught_with_minimal_counterexample(mutant_result):
    _, res = mutant_result
    cx = res.counterexample
    assert cx is not None, "the dropped-invalidation mutant slipped through"
    assert isinstance(cx.error, CoherenceViolation)
    assert len(cx.schedule) == MUTANT_MINIMAL_STEPS
    assert len(cx.steps) == len(cx.schedule)
    # The violating step is the stale re-read of page 0 on processor 2.
    _, proc, op = cx.steps[-1]
    assert proc == 2
    assert op[0] in ("acquire", "load")
    assert str(len(cx.schedule)) in cx.describe()


def test_counterexample_replays_exactly(mutant_result):
    checker, res = mutant_result
    with pytest.raises(CoherenceViolation):
        checker.replay(res.counterexample.schedule)


def test_clean_prefix_of_counterexample_replays_cleanly(mutant_result):
    checker, res = mutant_result
    world = checker.replay(res.counterexample.schedule[:-1])
    assert not world.all_done()


def test_check_raises_invariant_violation_with_recipe(mutant_result):
    checker, _ = mutant_result
    with pytest.raises(InvariantViolation) as exc:
        ModelChecker(protocol=MUTANTS["no-notices"]).check()
    err = exc.value
    assert err.schedule == checker.run().counterexample.schedule
    assert len(err.trace) == len(err.schedule)
    assert isinstance(err.cause, CoherenceViolation)


def test_counterexample_exports_as_chrome_trace(mutant_result, tmp_path):
    checker, res = mutant_result
    out = tmp_path / "counterexample.json"
    events = checker.export_counterexample(res.counterexample, out)
    assert events > 0
    with open(out) as fh:
        doc = json.load(fh)  # must round-trip as JSON
    names = {ev.get("name") for ev in doc["traceEvents"]}
    assert "modelcheck_step" in names
    assert "modelcheck_violation" in names
    recovered = tuple(int(i)
                      for i in doc["otherData"]["schedule"].split())
    assert recovered == res.counterexample.schedule


# --- guard rails --------------------------------------------------------------


def test_checker_refuses_more_scripts_than_processors():
    scripts = [[("load", 0, 0)]] * 5  # small_config has 4 processors
    with pytest.raises(ProtocolError):
        ModelChecker(scripts=scripts)


def test_decode_expands_schedule_in_program_order():
    checker = ModelChecker()
    steps = checker.decode((0, 0, 0))
    assert [op for _, _, op in steps] == default_scripts()[0]
