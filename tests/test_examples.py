"""Smoke test: every example script runs end to end in quick mode.

The examples are the package's user-facing documentation; they are
loaded by path (they are scripts, not a package) and driven through
``main(quick=True)``, which each one exposes for exactly this test.
"""

import importlib.util
import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(REPO, "examples")

SCRIPTS = ["quickstart.py", "custom_application.py",
           "protocol_comparison.py", "clustering_study.py"]


def _load(script):
    spec = importlib.util.spec_from_file_location(
        f"example_{script[:-3]}", os.path.join(EXAMPLES, script))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs_quick(script, monkeypatch, capsys):
    # Examples read sys.argv; give them a bare one so pytest's own
    # arguments don't leak in.
    monkeypatch.setattr(sys, "argv", [script])
    module = _load(script)
    module.main(quick=True)
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"
