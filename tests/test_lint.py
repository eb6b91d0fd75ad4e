"""The determinism lint, run as a tier-1 test.

Every rule fires exactly its own ID on its bad fixture and nothing on
its good twin, the output is deterministic, and — the acceptance bar —
the simulator source and the examples have no findings.
"""

import os

import pytest

from repro.lint import RULES, findings, lint_source

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO, "tests", "fixtures", "lint")

#: Rule ID -> fixture basename (D101 -> d101.py).
FIXTURE_RULES = sorted(RULES)


def _fixture(kind: str, rule: str) -> str:
    return os.path.join(FIXTURES, kind, f"{rule.lower()}.py")


def _rules(*paths: str) -> set[str]:
    """Rule IDs of the findings in ``paths`` (``path:l:c: RULE msg``)."""
    return {line.split()[1] for line in findings(*paths)}


# --- rule coverage over the fixture corpus ------------------------------------


@pytest.mark.parametrize("rule", FIXTURE_RULES)
def test_bad_fixture_triggers_rule(rule):
    assert _rules(_fixture("bad", rule)) == {rule}


@pytest.mark.parametrize("rule", FIXTURE_RULES)
def test_good_fixture_is_clean(rule):
    if rule == "D105":
        # Sanctioned-module exemption: the good twin is named sweep.py.
        path = os.path.join(FIXTURES, "good", "sweep.py")
    else:
        path = _fixture("good", rule)
    assert list(findings(path)) == []


def test_every_rule_has_both_fixtures():
    def names(kind):
        found = os.listdir(os.path.join(FIXTURES, kind))
        return {n[:-3].upper() for n in found if n.endswith(".py")}
    assert names("bad") == set(RULES)
    assert names("good") == set(RULES) - {"D105"} | {"SWEEP"}


def test_parse_error_exits_one_not_crash():
    # A file that does not parse is one E001 finding, not an exception.
    (line,) = findings(_fixture("bad", "E001"))
    assert line.split()[1] == "E001"
    assert line.startswith(_fixture("bad", "E001") + ":4:")


def test_finding_format():
    source = "import time\n\n\ndef stamp():\n    return time.time()\n"
    assert lint_source(source, "x.py") == [
        "x.py:5:11: D101 wall-clock read time.time() outside sweep: "
        "simulated results must not depend on real time"]


# --- determinism of the linter itself -----------------------------------------


def test_output_byte_identical_across_runs():
    path = os.path.join(FIXTURES, "bad")
    assert list(findings(path)) == list(findings(path))


def test_discovery_order_independent_of_arguments():
    bad, good = (os.path.join(FIXTURES, k) for k in ("bad", "good"))
    assert list(findings(bad, good)) == list(findings(good, bad))


# --- the acceptance bar: this repository lints clean --------------------------


def test_repo_tree_is_clean():
    found = list(findings(os.path.join(REPO, "src", "repro"),
                          os.path.join(REPO, "examples")))
    assert found == [], "\n".join(found)
