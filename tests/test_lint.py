"""The static analyzer's own contract tests.

Covers, per ISSUE: every shipped rule ID firing on its bad fixture and
staying quiet on its good twin, suppression semantics, the JSON schema
round-trip, the CLI exit-code contract (0 clean / 1 findings / 2 usage
error), byte-identical output across runs, and — the acceptance bar —
the repository's own tree linting clean.
"""

import json
import os

import pytest

from repro.experiments.runner import main as cli_main
from repro.lint import (RULES, SCHEMA, Diagnostic, LintResult, UsageError,
                        lint_source, run)
from repro.lint.api import resolve_select

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO, "tests", "fixtures", "lint")

#: Rule ID -> fixture basename (D101 -> d101.py).
FIXTURE_RULES = sorted(RULES)


def _fixture(kind: str, rule: str) -> str:
    return os.path.join(FIXTURES, kind, f"{rule.lower()}.py")


# --- rule coverage over the fixture corpus ------------------------------------


@pytest.mark.parametrize("rule", FIXTURE_RULES)
def test_bad_fixture_triggers_rule(rule):
    path = _fixture("bad", rule)
    if not os.path.exists(path):  # D105's good twin is sweep.py
        pytest.fail(f"no bad fixture for {rule}")
    result = run([path])
    fired = {d.rule for d in result.diagnostics}
    assert rule in fired, \
        f"{rule} did not fire on its bad fixture (got {fired})"
    assert result.exit_code == 1


@pytest.mark.parametrize("rule", FIXTURE_RULES)
def test_good_fixture_is_clean(rule):
    if rule == "D105":
        # Sanctioned-module exemption: the good twin is named sweep.py.
        path = os.path.join(FIXTURES, "good", "sweep.py")
    else:
        path = _fixture("good", rule)
    result = run([path])
    assert result.diagnostics == [], result.format_text()
    assert result.exit_code == 0


def test_every_rule_has_both_fixtures():
    bad = {n[:-3].upper() for n in os.listdir(os.path.join(FIXTURES, "bad"))
           if n.endswith(".py")}
    assert bad == set(RULES)


# --- suppression semantics ----------------------------------------------------

CLOCK = """
import time


def stamp():
    return time.time(){comment}
"""


def test_suppression_moves_finding_aside():
    active, suppressed = lint_source(
        CLOCK.format(comment="  # cashmere: ignore[D101]"), "x.py")
    assert active == []
    assert [d.rule for d in suppressed] == ["D101"]


def test_bare_ignore_suppresses_everything():
    active, suppressed = lint_source(
        CLOCK.format(comment="  # cashmere: ignore"), "x.py")
    assert active == []
    assert [d.rule for d in suppressed] == ["D101"]


def test_wrong_rule_in_ignore_does_not_suppress():
    active, suppressed = lint_source(
        CLOCK.format(comment="  # cashmere: ignore[D102]"), "x.py")
    assert [d.rule for d in active] == ["D101"]
    assert suppressed == []


def test_suppressed_findings_still_counted():
    result = LintResult()
    _, result.suppressed = lint_source(
        CLOCK.format(comment="  # cashmere: ignore"), "x.py")
    result.files.append("x.py")
    assert result.finish().counts()["suppressed"] == 1
    assert result.exit_code == 0


# --- --select -----------------------------------------------------------------


def test_select_exact_and_prefix():
    assert resolve_select("D101") == frozenset({"D101"})
    assert resolve_select("D") == frozenset(
        r for r in RULES if r.startswith("D"))
    combo = resolve_select("E001,D101")
    assert "E001" in combo and "D101" in combo and "D102" not in combo


def test_select_unknown_rule_is_usage_error():
    with pytest.raises(UsageError):
        resolve_select("Z999")
    with pytest.raises(UsageError):  # retired with the kernel analyzer
        resolve_select("A")


def test_select_filters_findings():
    result = run([_fixture("bad", "D102")], select="D101")
    assert result.diagnostics == []
    result = run([_fixture("bad", "D102")], select="D102")
    assert {d.rule for d in result.diagnostics} == {"D102"}


# --- JSON schema --------------------------------------------------------------


def test_json_document_shape_and_roundtrip():
    result = run([_fixture("bad", "D105")])
    doc = json.loads(result.format_json())
    assert doc["schema"] == SCHEMA
    assert set(doc) == {"schema", "diagnostics", "suppressed", "summary"}
    assert set(doc["summary"]) == {"files", "errors", "warnings",
                                   "suppressed"}
    for entry in doc["diagnostics"]:
        assert set(entry) == {"rule", "slug", "engine", "severity",
                              "path", "line", "col", "message"}
        rebuilt = Diagnostic.from_json(entry)
        assert rebuilt.to_json() == entry


def test_parse_error_exits_one_not_crash():
    result = run([_fixture("bad", "E001")])
    assert [d.rule for d in result.diagnostics] == ["E001"]
    assert result.exit_code == 1


# --- determinism of the linter itself -----------------------------------------


def test_output_byte_identical_across_runs():
    paths = [os.path.join(FIXTURES, "bad")]
    first, second = run(paths), run(paths)
    assert first.format_text() == second.format_text()
    assert first.format_json() == second.format_json()


def test_discovery_order_independent_of_arguments():
    a = run([os.path.join(FIXTURES, "bad"),
             os.path.join(FIXTURES, "good")])
    b = run([os.path.join(FIXTURES, "good"),
             os.path.join(FIXTURES, "bad")])
    assert a.format_text() == b.format_text()


# --- CLI exit-code contract ---------------------------------------------------


def test_cli_exit_codes(capsys):
    assert cli_main(["lint", _fixture("good", "D101")]) == 0
    assert cli_main(["lint", _fixture("bad", "D103")]) == 1
    assert cli_main(["lint", "--select", "Z999",
                     _fixture("bad", "D103")]) == 2
    assert cli_main(["lint", os.path.join(FIXTURES, "no-such-dir")]) == 2
    capsys.readouterr()


def test_cli_json_format(capsys):
    code = cli_main(["lint", "--format", "json", _fixture("bad", "D101")])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 1
    assert doc["schema"] == SCHEMA
    assert doc["summary"]["errors"] == 1


# --- the acceptance bar: this repository lints clean --------------------------


def test_repo_tree_is_clean():
    result = run([os.path.join(REPO, "src", "repro"),
                  os.path.join(REPO, "examples")])
    assert result.diagnostics == [], result.format_text()
    assert {d.rule for d in result.suppressed} == set()
