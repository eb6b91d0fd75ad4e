"""The reproduction's claims about the paper, checked on one ``all`` run.

Each row of :data:`CLAIMS` is one statement EXPERIMENTS.md makes: an
ordering, a ratio, or a value beside the paper's. Its ``measure`` reads
the results of the nine experiments ``all`` ran (a dict keyed by
experiment name) and returns one number; the claim holds when that
number lies in its closed ``band``. The simulator is deterministic, so
a band is an exact bound, not a confidence interval.

A ``deviation`` row pins a documented gap from the paper. Its band
brackets the value measured today, and the paper's value lies outside
it, so the row fails if the gap drifts either way.

A row about one application ends its id in ``[App]``. A row reading an
application the run filtered out (``all em3d``) raises ``KeyError`` and
reports ``n/a``; the ablations run their own applications regardless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..apps import ALL_APPS
from ..stats.report import format_table, pct_change
from .configs import APP_ORDER
from .table1 import PAPER_TABLE1

INF = math.inf

#: Table 3 at 32 processors, per application: 2L's speedup over the
#: sequential run, and the 1LD and 1L execution times over 2L's.
PAPER_HEADLINE = {
    "SOR": (31.0, 1.05, 2.22),
    "LU": (19.0, 1.10, 3.27),
    "Water": (28.1, 1.06, 1.14),
    "TSP": (27.4, 1.01, 1.13),
    "Gauss": (21.7, 1.82, 2.44),
    "Ilink": (12.9, 1.68, 2.07),
    "Em3d": (11.4, 1.28, 1.22),
    "Barnes": (7.8, 1.72, 1.72),
}

#: The communication-bound applications of Figure 7, where 2L beats
#: 1LD by 22-46% at 32 processors.
COMM_BOUND = ("Gauss", "Em3d", "Barnes")

#: Section 3.3.5: execution-time improvement (%) of lock-free directory
#: and write-notice structures over cluster-wide locks.
PAPER_LOCKFREE_GAIN = {"Barnes": 5.0, "Em3d": 5.0, "Ilink": 7.0,
                       "Water": 0.0, "SOR": 0.0}


@dataclass(frozen=True)
class Band:
    """Closed interval ``[lo, hi]``; ``label`` overrides its rendering."""

    lo: float
    hi: float = INF
    label: str = ""

    def __contains__(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def __str__(self) -> str:
        if self.label:
            return self.label
        if self.lo == self.hi:
            return f"= {self.lo:g}"
        if self.hi == INF:
            return f"≥ {self.lo:g}"
        return f"[{self.lo:g}, {self.hi:g}]"


def near(paper: float, tol: float) -> Band:
    """Within ``tol`` (a fraction) of the paper's value."""
    return Band(paper * (1 - tol), paper * (1 + tol), f"±{tol:.0%}")


@dataclass(frozen=True)
class Claim:
    id: str
    source: str
    paper: float | None
    measure: Callable[[dict], float]
    band: Band
    deviation: bool = False


def _t1(id: str, key: tuple[str, str], band: Band, over=None,
        deviation: bool = False) -> Claim:
    """Table 1's ``key`` = (row, protocol), or its ratio ``over`` a second
    key, as measured and as in :data:`PAPER_TABLE1`."""
    def ratio(table: dict) -> float:
        v = table[key[0]][key[1]]
        return v if over is None else v / table[over[0]][over[1]]
    return Claim(id, "Table 1", ratio(PAPER_TABLE1),
                 lambda r: ratio(vars(r["table1"])), band, deviation)


def _sp(r: dict, app: str, proto: str = "2L", place: str = "32:4") -> float:
    return r["figure7"].speedup[app][proto][place]


def _seq(r: dict, app: str) -> float:
    return {row.app: row for row in r["table2"]}[app].seq_time_s


def _diffs(per_proto: dict, proto: str = "2L") -> int:
    """Incoming diffs plus flush-updates: two-way diffing at work."""
    return per_proto[proto]["incoming_diffs"] \
        + per_proto[proto]["flush_updates"]


def _gain(r: dict, app: str) -> float:
    t = r["lockfree"].exec_time_s[app]
    return pct_change(t["lock_free"], t["locked"])


def _gap(r: dict, scale: float) -> float:
    return r["sensitivity"].ratio["Em3d"][scale]["1LD"]


def _shoot(r: dict, app: str, variant: str) -> float:
    t = r["shootdown"].exec_time_s[app]
    return t[variant] / t["2L" if variant == "2LS-poll" else "2LS-poll"]


CLAIMS: tuple[Claim, ...] = (
    # -- Table 1: basic operation costs (us, scaled to 8K pages).
    _t1("t1.lock.2L", ("lock_acquire", "2L"), Band(17, 21)),
    _t1("t1.lock.1LD", ("lock_acquire", "1LD"), Band(9, 13)),
    _t1("t1.barrier2.2L/1LD", ("barrier_2p", "2L"), Band(1),
        over=("barrier_2p", "1LD")),
    _t1("t1.barrier32.2L/1LD", ("barrier_32p", "2L"), Band(0, 1),
        over=("barrier_32p", "1LD")),
    _t1("t1.barrier32.1LD", ("barrier_32p", "1LD"), Band(300)),
    # A simpler intra-node gather than the real ll/sc contention.
    _t1("t1.barrier32.2L", ("barrier_32p", "2L"), Band(198, 220),
        deviation=True),
    _t1("t1.xfer.local/remote.1LD", ("page_transfer_local", "1LD"),
        Band(0, 1), over=("page_transfer_remote", "1LD")),
    _t1("t1.xfer.remote.2L/1LD", ("page_transfer_remote", "2L"), Band(1),
        over=("page_transfer_remote", "1LD")),
    *(_t1(f"t1.xfer.remote.{p}", ("page_transfer_remote", p),
          near(PAPER_TABLE1["page_transfer_remote"][p], 0.15))
      for p in ("2L", "1LD")),
    Claim("t1.dir.lockfree", "§3.1", 5.0,
          lambda r: r["table1"].dir_update_lock_free, Band(5, 5)),
    Claim("t1.dir.locked", "§3.1", 16.0,
          lambda r: r["table1"].dir_update_locked, Band(16, 16)),
    # -- Table 2: the long sequential runs stay long.
    *(Claim(f"t2.seq/Em3d[{app}]", "Table 2",
            ALL_APPS[app].paper_seq_time_s / ALL_APPS["Em3d"].paper_seq_time_s,
            lambda r, app=app: _seq(r, app) / _seq(r, "Em3d"), Band(1))
      for app in ("Water", "TSP", "Gauss")),
    # -- Table 3 at 32 processors: exec-time ratios over 2L ...
    *(Claim(f"t3.1LD/2L[{app}]", "Table 3", PAPER_HEADLINE[app][1],
            lambda r, app=app: _sp(r, app) / _sp(r, app, "1LD"),
            Band(1.10 if app in COMM_BOUND else 0.97))
      for app in APP_ORDER),
    *(Claim(f"t3.1L/2L[{app}]", "Table 3", PAPER_HEADLINE[app][2],
            lambda r, app=app: _sp(r, app) / _sp(r, app, "1L"),
            near(PAPER_HEADLINE[app][2], 0.10))
      for app in APP_ORDER),
    # ... and counters: node-level coalescing moves less data.
    Claim("t3.data.2L/1LD", "Table 3", None,
          lambda r: max(s["2L"]["data_mbytes"] / s["1LD"]["data_mbytes"]
                        for s in r["table3"].stats.values()), Band(0, 1)),
    Claim("t3.xfers.2L/1LD", "Table 3", None,
          lambda r: max(s["2L"]["page_transfers"] / s["1LD"]["page_transfers"]
                        for s in r["table3"].stats.values()), Band(0, 1)),
    Claim("t3.barriers.2L-1LD", "Table 3", None,
          lambda r: max(abs(s["2L"]["barriers"] - s["1LD"]["barriers"])
                        for s in r["table3"].stats.values()), Band(0, 0)),
    Claim("t3.shootdowns.2L", "Table 3", 0,
          lambda r: sum(s["2L"]["shootdowns"]
                        for s in r["table3"].stats.values()), Band(0, 0)),
    Claim("t3.diffs.2LS", "Table 3", 0,
          lambda r: sum(_diffs(s, "2LS")
                        for s in r["table3"].stats.values()), Band(0, 0)),
    Claim("t3.diffs.2L[Water]", "Table 3", None,
          lambda r: _diffs(r["table3"].stats["Water"]), Band(1)),
    Claim("t3.diffs.2L.not-Water", "Table 3", 0,
          lambda r: sum(_diffs(s) for a, s in r["table3"].stats.items()
                        if a != "Water"), Band(0, 0)),
    Claim("t3.shootdowns.2LS.not-Water", "Table 3", 0,
          lambda r: sum(s["2LS"]["shootdowns"]
                        for a, s in r["table3"].stats.items()
                        if a != "Water"), Band(0, 0)),
    Claim("t3.locks[Barnes]", "Table 3", 0,
          lambda r: r["table3"].stats["Barnes"]["2L"]["lock_flag_acquires"],
          Band(0, 0)),
    # -- Figure 6: time breakdown, % of 2L's total.
    Claim("f6.doubling.not-1L", "Figure 6", 0,
          lambda r: max(per[p]["write_double"]
                        for per in r["figure6"].breakdown.values()
                        for p in ("2L", "2LS", "1LD")), Band(0, 0)),
    Claim("f6.doubling.1L", "Figure 6", None,
          lambda r: min(per["1L"]["write_double"]
                        for per in r["figure6"].breakdown.values()),
          Band(0.1)),
    Claim("f6.user.spread", "Figure 6", None,
          lambda r: max(max(b["user"] for b in per.values())
                        - min(b["user"] for b in per.values())
                        for per in r["figure6"].breakdown.values()),
          Band(0, 12)),
    *(Claim(f"f6.total.1LD[{app}]", "Figure 6", None,
            lambda r, app=app: sum(
                r["figure6"].breakdown[app]["1LD"].values()), Band(110))
      for app in COMM_BOUND),
    # -- Figure 7: speedups.
    *(Claim(f"f7.sp2L[{app}]", "Figure 7", PAPER_HEADLINE[app][0],
            lambda r, app=app: _sp(r, app), near(PAPER_HEADLINE[app][0], 0.10))
      for app in APP_ORDER if app not in ("SOR", "Gauss")),
    # Scaled inputs: SOR's bands are ~2 pages deep; Gauss's 224-row
    # pivot pipeline fills and drains across 32 processors.
    Claim("f7.sp2L[SOR]", "Figure 7", PAPER_HEADLINE["SOR"][0],
          lambda r: _sp(r, "SOR"), Band(22.8, 25.2), deviation=True),
    Claim("f7.sp2L[Gauss]", "Figure 7", PAPER_HEADLINE["Gauss"][0],
          lambda r: _sp(r, "Gauss"), Band(6.8, 7.5), deviation=True),
    Claim("f7.2LS~2L", "Figure 7", None,
          lambda r: max(abs(sp["2L"]["32:4"] - sp["2LS"]["32:4"])
                        / sp["2L"]["32:4"]
                        for sp in r["figure7"].speedup.values()),
          Band(0, 0.10)),
    Claim("f7.sp2L.32:4/4:1", "Figure 7", None,
          lambda r: min(sp["2L"]["32:4"] / sp["2L"]["4:1"]
                        for sp in r["figure7"].speedup.values()), Band(1)),
    # -- Section 3.3.4: shootdown vs two-way diffing.
    *(Claim(f"e6.poll/2L[{app}]", "§3.3.4", 1.0 if app == "Water" else None,
            lambda r, app=app: _shoot(r, app, "2LS-poll"), Band(0.92, 1.08))
      for app in ("Water", "SOR", "Em3d")),
    *(Claim(f"e6.intr/poll[{app}]", "§3.3.4",
            1.06 if app == "Water" else None,
            lambda r, app=app: _shoot(r, app, "2LS-intr"),
            Band(1.02 if app == "Water" else 0.99))
      for app in ("Water", "SOR", "Em3d")),
    Claim("e6.shootdowns[Water]", "§3.3.4", 161,
          lambda r: r["shootdown"].shootdowns["Water"]["2LS-poll"], Band(1)),
    Claim("e6.shootdowns.SOR+Em3d", "§3.3.4", 0,
          lambda r: sum(r["shootdown"].shootdowns[a]["2LS-poll"]
                        for a in ("SOR", "Em3d")), Band(0, 0)),
    # -- Section 3.3.5: lock-free structures (% improvement).
    *(Claim(f"e7.gain[{app}]", "§3.3.5", gain,
            lambda r, app=app: _gain(r, app),
            Band(0.5) if app == "Barnes" else
            Band(-2, 3) if app == "SOR" else Band(-2))
      for app, gain in PAPER_LOCKFREE_GAIN.items()),
    Claim("e7.dir.Barnes/SOR", "§3.3.5", None,
          lambda r: (r["lockfree"].dir_updates["Barnes"]
                     / r["lockfree"].dir_updates["SOR"]), Band(1)),
    Claim("e7.gain.Barnes-SOR", "§3.3.5", None,
          lambda r: _gain(r, "Barnes") - _gain(r, "SOR"), Band(-1)),
    # -- The compute-density sweep: more compute, smaller 1LD penalty.
    Claim("e9.1LD/2L.x0.25/x4[Em3d]", "§3.3.2", None,
          lambda r: _gap(r, 0.25) / _gap(r, 4.0), Band(1)),
    Claim("e9.1LD/2L.min[Em3d]", "§3.3.2", None,
          lambda r: min(v["1LD"]
                        for v in r["sensitivity"].ratio["Em3d"].values()),
          Band(0.99)),
    # -- Section 2.3: polling beats interrupts, fast or slow.
    Claim("e10.intr/poll", "§2.3", None,
          lambda r: min(t["interrupts"] / t["polling"]
                        for t in r["polling"].exec_time_s.values()), Band(1)),
    Claim("e10.slow/intr", "§2.3", None,
          lambda r: min(t["slow-intr"] / t["interrupts"]
                        for t in r["polling"].exec_time_s.values()), Band(1)),
)


@dataclass(frozen=True)
class Outcome:
    claim: Claim
    measured: float | None
    status: str  # "ok", "FAIL" or "n/a"

    def to_json(self) -> dict:
        c = self.claim
        return {"id": c.id, "source": c.source, "paper": c.paper,
                "measured": self.measured, "lo": c.band.lo,
                "hi": None if c.band.hi == INF else c.band.hi,
                "deviation": c.deviation, "status": self.status}


def check(results: dict, filtered: bool) -> list[Outcome]:
    """Evaluate :data:`CLAIMS` on ``results``. A claim whose application
    is missing is ``n/a`` when the run was ``filtered`` to some
    applications, and a bug (the ``KeyError`` propagates) otherwise."""
    outcomes = []
    for claim in CLAIMS:
        try:
            value = claim.measure(results)
        except KeyError:
            if not filtered:
                raise
            outcomes.append(Outcome(claim, None, "n/a"))
            continue
        outcomes.append(Outcome(claim, value,
                                "ok" if value in claim.band else "FAIL"))
    return outcomes


def format_claims(outcomes: list[Outcome]) -> str:
    count = {s: sum(o.status == s for o in outcomes)
             for s in ("ok", "FAIL", "n/a")}
    table = format_table(
        f"Claims — the paper's shape on this run: {count['ok']} ok, "
        f"{count['FAIL']} FAIL, {count['n/a']} n/a",
        ["source", "paper", "measured", "band", "status"],
        [(o.claim.id, [o.claim.source, o.claim.paper, o.measured,
                       str(o.claim.band), o.status]) for o in outcomes],
        col_width=13, label_width=28)
    deviations = ", ".join(o.claim.id for o in outcomes if o.claim.deviation)
    return (f"{table}\nExpected deviations (band brackets today's value, "
            f"not the paper's): {deviations}")
