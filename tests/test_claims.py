"""The claims gate that ``cashmere-repro all`` prints after its nine
experiments (repro.experiments.claims)."""

import re
from dataclasses import replace
from types import SimpleNamespace

from repro.experiments import claims, runner
from repro.experiments.configs import APP_ORDER
from repro.experiments.figure7 import Figure7Results
from repro.experiments.runner import main

#: The ablations run their own applications whatever ``all`` is given.
ABLATIONS = ("§3.3.4", "§3.3.5")


def _speedup(app):
    return lambda v: {"figure7": Figure7Results(
        speedup={app: {"2L": {"32:4": v}}})}


#: Where each expected-deviation row reads its value: value -> results.
PLANT = {
    "t1.barrier32.2L":
        lambda v: {"table1": SimpleNamespace(barrier_32p={"2L": v})},
    "f7.sp2L[SOR]": _speedup("SOR"),
    "f7.sp2L[Gauss]": _speedup("Gauss"),
}


def test_all_em3d_evaluates_every_claim_it_ran(capsys):
    assert main(["all", "em3d", "--quick", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert out.count("Claims — ") == 1
    status = {line.split()[0]: line.split()[-1]
              for line in out[out.index("Claims — "):].splitlines()}
    others = {a for a in APP_ORDER if a != "Em3d"}
    for c in claims.CLAIMS:
        app = re.search(r"\[(\w+)\]$", c.id)
        filtered = c.source not in ABLATIONS and app is not None \
            and app.group(1) in others
        assert status[c.id] == ("n/a" if filtered else "ok"), c.id


def test_deviation_rows_fail_past_either_edge(monkeypatch):
    rows = [c for c in claims.CLAIMS if c.deviation]
    assert {c.id for c in rows} == set(PLANT)
    for c in rows:
        assert c.paper not in c.band, c.id
        monkeypatch.setattr(claims, "CLAIMS", (c,))
        lo, hi = c.band.lo, c.band.hi
        for value, want in ((lo * 0.999, "FAIL"), (lo, "ok"), (hi, "ok"),
                            (hi * 1.001, "FAIL")):
            [outcome] = claims.check(PLANT[c.id](value), filtered=False)
            assert outcome.status == want, (c.id, value)


def test_a_failing_claim_makes_all_exit_1(monkeypatch, capsys):
    # Table 1 alone keeps the run cheap.
    monkeypatch.setattr(runner, "PAPER_EXPERIMENTS", ("table1",))
    lock = next(c for c in claims.CLAIMS if c.id == "t1.lock.2L")
    monkeypatch.setattr(claims, "CLAIMS", (lock,))
    assert main(["all", "--no-cache"]) == 0
    assert "1 ok, 0 FAIL, 0 n/a" in capsys.readouterr().out
    monkeypatch.setattr(claims, "CLAIMS",
                        (replace(lock, band=claims.Band(0, 1)),))
    assert main(["all", "--no-cache"]) == 1
    assert "0 ok, 1 FAIL, 0 n/a" in capsys.readouterr().out
