"""CFG builder edge cases (:mod:`repro.lint.cfg`).

The statement CFG is the front end of the lint's app analyzer
(:mod:`repro.lint.appcheck`: lock balance, barrier divergence, the
static lockset), so its corner cases decide what every A-rule sees.
These tests pin the shapes kernels actually exhibit: nested
loops with ``break``/``continue`` (which loop does each one target?),
``try``/``finally`` around sync points (does the finally body stay on
every path?), and generator kernels that ``return`` mid-loop (is the
code after the loop still reachable through the normal exit?).
"""

import ast
import textwrap

from repro.lint.appcheck import KernelAnalyzer
from repro.lint.cfg import build_cfg, node_calls, node_exprs, walk_no_defs


def _cfg(source):
    func = ast.parse(textwrap.dedent(source)).body[0]
    return build_cfg(func)


def _kernel(source):
    """What the app analyzer sees in a kernel: its barrier calls, the
    arrays it reads and writes (first-seen order), and its ``yield``
    sites, over the CFG nodes reachable from the entry."""
    func = ast.parse(textwrap.dedent(source)).body[0]
    analyzer = KernelAnalyzer(func, lambda *diag: None)
    analyzer._prepass()
    cfg = build_cfg(func)
    seen = cfg.reachable_from({cfg.entry})
    barriers, reads, writes, yields = 0, [], [], 0
    for node in cfg.nodes:
        if node not in seen:
            continue
        ops = analyzer._classify(node)
        barriers += len(ops.barriers)
        for acc in ops.accesses:
            (reads if acc.kind == "read" else writes).append(acc.array)
        # Per-node expressions only: a yield belongs to its own
        # statement node, never again to an enclosing header.
        yields += sum(isinstance(expr, ast.Yield)
                      for root in node_exprs(node)
                      for expr in walk_no_defs(root))
    return (barriers, tuple(dict.fromkeys(reads)),
            tuple(dict.fromkeys(writes)), yields)


def _node(cfg, marker):
    """The CFG node whose statement contains ``marker`` — the smallest
    one, so a marker inside a loop body picks the body statement, not
    the enclosing header (header nodes unparse with their whole body)."""
    hits = [n for n in cfg.nodes
            if n.stmt is not None and marker in ast.unparse(n.stmt)]
    assert hits, f"no node matching {marker!r}"
    return min(hits, key=lambda n: len(ast.unparse(n.stmt)))


def _reachable(cfg):
    return cfg.reachable_from({cfg.entry})


# --- nested loops with break/continue ---------------------------------------

NESTED = '''
def f():
    before = 1
    for i in range(3):
        outer_top = 1
        for j in range(3):
            if j:
                break
            if i:
                continue
            inner_tail = 1
        outer_tail = 1
    after = 1
'''


def test_nested_break_targets_inner_loop_only():
    cfg = _cfg(NESTED)
    seen = _reachable(cfg)
    # Everything is reachable: break leaves only the inner loop, so the
    # outer loop's tail still runs.
    for marker in ("before", "outer_top", "inner_tail", "outer_tail",
                   "after"):
        assert _node(cfg, marker) in seen, marker
    # break's successor is the code *after* the inner loop, not the
    # inner loop header and not the function exit.
    brk = _node(cfg, "break")
    assert _node(cfg, "outer_tail") in brk.succs
    assert cfg.exit not in brk.succs


def test_nested_continue_jumps_to_inner_header():
    cfg = _cfg(NESTED)
    cont = _node(cfg, "continue")
    inner = _node(cfg, "for j")
    outer = _node(cfg, "for i")
    assert inner in cont.succs
    assert outer not in cont.succs
    # continue skips the rest of the inner body: inner_tail is not a
    # direct successor (it stays reachable via the no-continue path).
    assert _node(cfg, "inner_tail") not in cont.succs


def test_while_true_without_break_makes_tail_unreachable():
    cfg = _cfg('''
def f():
    while True:
        spin = 1
    tail = 1
''')
    seen = _reachable(cfg)
    assert _node(cfg, "spin") in seen
    assert _node(cfg, "tail = 1") not in seen


def test_while_true_with_break_keeps_tail_reachable():
    cfg = _cfg('''
def f():
    while True:
        if done():
            break
        spin = 1
    tail = 1
''')
    seen = _reachable(cfg)
    assert _node(cfg, "tail = 1") in seen


# --- try/finally around sync -------------------------------------------------

def test_finally_runs_on_both_paths():
    cfg = _cfg('''
def f():
    try:
        risky = 1
    except ValueError:
        handled = 1
    finally:
        cleanup = 1
    after = 1
''')
    seen = _reachable(cfg)
    fin = _node(cfg, "cleanup")
    assert fin in seen
    # The finally body postdominates both the try body and the handler:
    # each reaches cleanup, and `after` is only entered through it.
    risky, handled = _node(cfg, "risky"), _node(cfg, "handled")
    assert fin in cfg.reachable_from({risky})
    assert fin in cfg.reachable_from({handled})
    assert _node(cfg, "after").preds == [fin]


def test_handler_entered_from_anywhere_in_try_body():
    cfg = _cfg('''
def f():
    try:
        a = 1
        b = 2
    except OSError:
        h = 1
''')
    h = _node(cfg, "h = 1").preds[0]  # the handler header node
    entries = set(h.preds)
    assert {_node(cfg, "a = 1"), _node(cfg, "b = 2")} <= entries


def test_sync_inside_try_finally_is_seen_once():
    """The analyzer sees through try/finally: a barrier in either the
    body or the finally clause sits on a reachable node, counted once."""
    for where in ("try", "finally"):
        body = '''
def interp(self, env):
    for r in self._rows:
        try:
            row = env.get_block(self._src, r, r + 8)
        finally:
            pass
        yield self.cost
'''
        poisoned = body.replace(
            "pass" if where == "finally" else
            "row = env.get_block(self._src, r, r + 8)",
            "x = env.get_block(self._src, r, r + 8)\n"
            "            yield from env.barrier()")
        barriers, _reads, _writes, _yields = _kernel(poisoned)
        assert barriers == 1, where


def test_try_finally_accesses_are_reachable():
    barriers, reads, writes, _yields = _kernel('''
def interp(self, env):
    for r in self._rows:
        try:
            row = env.get_block(self._src, r, r + 8)
        finally:
            env.set_block(self._dst, r, row)
        yield self.cost
''')
    assert barriers == 0
    assert reads == ("self._src",)
    assert writes == ("self._dst",)


# --- generators that return mid-loop -----------------------------------------

def test_return_mid_loop_keeps_tail_reachable():
    """A bare ``return`` in a generator ends iteration early; the code
    after the loop must stay reachable via the normal loop exit, and
    the return node must be wired to the function exit."""
    cfg = _cfg('''
def gen(self, env):
    for r in self._rows:
        if r > self._limit:
            return
        yield self.cost
    tail = 1
''')
    seen = _reachable(cfg)
    ret = _node(cfg, "return")
    assert ret in seen
    assert _node(cfg, "tail = 1") in seen
    assert cfg.exit in ret.succs
    # Nothing falls through a return: its only successor is the exit.
    assert ret.succs == [cfg.exit]


def test_return_mid_loop_region_still_analyzable():
    """An early return (the loop just covers fewer steps) leaves the
    accesses and the yield on the paths around it reachable."""
    _barriers, reads, writes, yields = _kernel('''
def interp(self, env):
    for r in self._rows:
        if r > self._limit:
            return
        row = env.get_block(self._src, r, r + 8)
        env.set_block(self._dst, r, row)
        yield self.cost
''')
    assert reads == ("self._src",)
    assert writes == ("self._dst",)
    assert yields == 1


def test_code_after_unconditional_return_is_unreachable():
    cfg = _cfg('''
def f():
    return 1
    dead = 1
''')
    seen = _reachable(cfg)
    assert _node(cfg, "dead") not in seen


# --- with-statement item nodes -----------------------------------------------

WITH_TWO = '''
def f():
    before = 1
    with open_a() as a, open_b() as b:
        body = 1
    after = 1
'''


def test_with_items_get_one_node_each_in_entry_order():
    cfg = _cfg(WITH_TWO)
    items = [n for n in cfg.nodes if n.item is not None]
    assert [ast.unparse(n.item.context_expr) for n in items] == \
        ["open_a()", "open_b()"]
    first, second = items
    # Managers chain left to right: before -> open_a -> open_b -> body.
    assert second in first.succs
    assert first in _node(cfg, "before").succs
    assert _node(cfg, "body = 1").preds == [second]
    # Both item nodes share the with statement itself.
    assert first.stmt is second.stmt


def test_with_item_nodes_attribute_calls_exactly_once():
    cfg = _cfg(WITH_TWO)
    counts = {}
    for n in cfg.nodes:
        for call in node_calls(n):
            key = ast.unparse(call)
            counts[key] = counts.get(key, 0) + 1
    assert counts == {"open_a()": 1, "open_b()": 1}


def test_handler_node_owns_only_its_exception_type():
    """An except-handler node evaluates its exception type — the
    handler body's calls belong to the body statements' own nodes."""
    cfg = _cfg('''
def f():
    try:
        risky()
    except pick_error():
        recover()
''')
    per_node = [sorted(ast.unparse(c) for c in node_calls(n))
                for n in cfg.nodes if node_calls(n)]
    assert sorted(per_node) == [["pick_error()"], ["recover()"],
                                ["risky()"]]


def test_with_region_yields_counted_exactly_once():
    """Each yield is attributed to exactly one node — no double count
    at loop or ``with`` headers."""
    _barriers, reads, writes, yields = _kernel('''
def interp(self, env):
    for r in self._rows:
        with self._guard():
            row = env.get_block(self._src, r, r + 8)
            env.set_block(self._dst, r, row)
        yield self.cost
''')
    assert yields == 1
    assert reads == ("self._src",)
    assert writes == ("self._dst",)


# --- comprehension scopes in the taint analysis ------------------------------

def _lint(source):
    from repro.lint import lint_source
    active, _ = lint_source(textwrap.dedent(source), "x.py")
    return {d.rule for d in active}


def test_comprehension_target_shadows_outer_taint():
    """A comprehension-local loop variable is its own binding: reusing
    the name of a rank-tainted outer variable must not make the
    comprehension's value rank-dependent (no phantom A003)."""
    rules = _lint('''
def worker(env, params):
    data = env.arr("data")
    for i in range(env.rank):
        env.set(data, i, 0.0)
    vals = [i * 2 for i in range(3)]
    if vals[0] < 1:
        yield from env.barrier()
''')
    assert "A003" not in rules


def test_comprehension_over_tainted_iterable_still_diverges():
    """The scope fix must not lose real taint: iterating a
    rank-dependent range taints the comprehension's result."""
    rules = _lint('''
def worker(env, params):
    data = env.arr("data")
    vals = [j * 2 for j in range(env.rank)]
    if len(vals) > 1:
        yield from env.barrier()
''')
    assert "A003" in rules
