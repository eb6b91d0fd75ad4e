"""Engine 1: static analysis of application worker kernels.

Analyzes every function that takes a parameter named ``env`` — the
convention of the :class:`~repro.runtime.env.WorkerEnv` API used by
``src/repro/apps``, ``examples/``, and user kernels — intraprocedurally:

* **Lock balance** (A001/A002): a path-sensitive must/may lockset
  dataflow over the CFG flags locks that may still be held at worker
  exit and ``release()`` calls not dominated by an ``acquire()``.
* **Barrier divergence** (A003): barriers are global — a ``barrier()``
  reachable under control flow that depends on the processor rank makes
  workers arrive at different episodes and deadlock (or worse,
  mis-pair). Rank-dependence is found by a small taint analysis seeded
  at ``env.rank`` / ``env.local_rank`` / ``env.node_rank``.
* **Static lockset** (A004/A005): an Eraser-style discipline check —
  an array written under a lock somewhere must not be accessed
  lock-free after the first barrier — plus a partitioning heuristic
  that flags unlocked writes whose index is rank-independent and which
  are not guarded by a rank test (every worker would write the same
  words concurrently).
* **Phase misuse** (A006/A007): writes reachable before the first
  barrier outside a rank guard (the initialization phase is read-only
  for non-elected ranks), and ``get_block`` results passed directly to
  ``set_block`` on the same array (an overlapping self-copy that is
  only safe while ``get_block`` returns a private copy).

The analysis understands the local idioms of real kernels: bound-method
aliases (``get_block = env.get_block``), array handles bound from
``env.arr("name")`` (including tuple assignments), and taint flowing
through arithmetic, calls, and loop targets.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .cfg import CFG, CFGNode, build_cfg, node_calls, walk_no_defs

#: WorkerEnv data-access methods: name -> ("read"|"write", index arg slots).
_ACCESS_METHODS: dict[str, tuple[str, tuple[int, ...]]] = {
    "get": ("read", (1,)),
    "get_block": ("read", (1, 2)),
    "set": ("write", (1,)),
    "set_block": ("write", (1,)),
}

#: All WorkerEnv methods a kernel may alias to a local name.
_ENV_METHODS = frozenset(_ACCESS_METHODS) | frozenset({
    "barrier", "acquire", "release", "arr", "compute", "end_init",
    "flag_set", "flag_wait", "flag_peek",
})

#: Rank-identity attributes on env: the divergence taint seeds.
_RANK_ATTRS = frozenset({"rank", "local_rank", "node_rank"})

#: report(rule, line, col, message)
Reporter = Callable[[str, int, int, str], None]


#: Per-node expression walkers live with the CFG builder
#: (:func:`repro.lint.cfg.node_exprs` / :func:`~repro.lint.cfg.node_calls`).
_walk_no_defs = walk_no_defs

#: Comprehension forms whose generator targets open a nested scope.
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                   ast.DictComp)


@dataclass
class _Access:
    kind: str              # "read" | "write"
    array: str
    call: ast.Call
    index_tainted: bool


@dataclass
class _Ops:
    """What one CFG node does, in WorkerEnv terms."""

    syncs: list[tuple[str, str, ast.Call]] = field(default_factory=list)
    barriers: list[ast.Call] = field(default_factory=list)
    accesses: list[_Access] = field(default_factory=list)


_State = tuple[frozenset[str], frozenset[str]]  # (must, may)


def _meet(a: _State | None, b: _State) -> _State:
    if a is None:
        return b
    return (a[0] & b[0], a[1] | b[1])


class KernelAnalyzer:
    """One worker kernel (a function with an ``env`` parameter)."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef,
                 report: Reporter) -> None:
        self.func = func
        self.report = report
        self.env_names: set[str] = {"env"}
        self.method_alias: dict[str, str] = {}
        self.array_names: dict[str, str] = {}
        self.tainted: set[str] = set()
        self.guarded: dict[ast.stmt, bool] = {}    # stmt -> rank-guarded
        self.divergent: dict[ast.stmt, bool] = {}  # stmt -> rank-divergent

    # --- name resolution ----------------------------------------------

    def _env_method(self, call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in self.env_names \
                and func.attr in _ENV_METHODS:
            return func.attr
        if isinstance(func, ast.Name):
            return self.method_alias.get(func.id)
        return None

    def _array_key(self, expr: ast.expr) -> str:
        if isinstance(expr, ast.Name):
            return self.array_names.get(expr.id, expr.id)
        if isinstance(expr, ast.Call) and self._env_method(expr) == "arr" \
                and expr.args and isinstance(expr.args[0], ast.Constant) \
                and isinstance(expr.args[0].value, str):
            return expr.args[0].value
        return ast.unparse(expr)

    @staticmethod
    def _lock_key(call: ast.Call) -> str:
        return ast.unparse(call.args[0]) if call.args else "<?>"

    def _expr_tainted(self, expr: ast.AST,
                      shadow: frozenset[str] = frozenset(),
                      extra: frozenset[str] = frozenset()) -> bool:
        """Whether evaluating ``expr`` can depend on the rank.

        Comprehensions open a scope: their generator targets *shadow*
        outer names (``[i for i in range(3)]`` is rank-independent even
        when an outer ``i`` is tainted), and a tainted iterator taints
        its targets inside the comprehension (the *extra* set) without
        leaking that name outward.
        """
        if isinstance(expr, ast.Name):
            if expr.id in extra:
                return True
            if expr.id in shadow:
                return False
            return expr.id in self.tainted
        if isinstance(expr, ast.Attribute) \
                and expr.attr in _RANK_ATTRS \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id in self.env_names \
                and expr.value.id not in shadow:
            return True
        if isinstance(expr, _COMPREHENSIONS):
            inner_shadow, inner_extra = set(shadow), set(extra)
            tainted = False
            for gen in expr.generators:
                # A tainted iterator taints the whole result (its
                # length depends on the rank) and its loop targets.
                it_tainted = self._expr_tainted(
                    gen.iter, frozenset(inner_shadow),
                    frozenset(inner_extra))
                tainted |= it_tainted
                targets = {n.id for n in ast.walk(gen.target)
                           if isinstance(n, ast.Name)}
                inner_shadow |= targets
                if it_tainted:
                    inner_extra |= targets
                else:
                    inner_extra -= targets
            ish, iex = frozenset(inner_shadow), frozenset(inner_extra)
            elts = ([expr.key, expr.value]
                    if isinstance(expr, ast.DictComp) else [expr.elt])
            conds = [c for gen in expr.generators for c in gen.ifs]
            return tainted or any(self._expr_tainted(e, ish, iex)
                                  for e in elts + conds)
        if isinstance(expr, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return False  # separate analysis units
        return any(self._expr_tainted(child, shadow, extra)
                   for child in ast.iter_child_nodes(expr))

    # --- pre-passes ----------------------------------------------------

    def _iter_stmts(self) -> Iterator[ast.stmt]:
        """All statements of this function, excluding nested defs."""
        stack: list[ast.stmt] = list(reversed(self.func.body))
        while stack:
            stmt = stack.pop()
            yield stmt
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for attr in ("body", "orelse", "finalbody"):
                stack.extend(reversed(getattr(stmt, attr, [])))
            for handler in getattr(stmt, "handlers", []):
                stack.extend(reversed(handler.body))
            for case in getattr(stmt, "cases", []):
                stack.extend(reversed(case.body))

    def _bind(self, target: ast.expr, value: ast.expr | None,
              value_tainted: bool) -> None:
        """Process one (target <- value) binding for aliases/arrays/taint."""
        if isinstance(target, (ast.Tuple, ast.List)) \
                and isinstance(value, (ast.Tuple, ast.List)) \
                and len(target.elts) == len(value.elts):
            for t, v in zip(target.elts, value.elts):
                self._bind(t, v, self._expr_tainted(v))
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for t in target.elts:
                self._bind(t, None, value_tainted)
            return
        if not isinstance(target, ast.Name):
            return
        name = target.id
        if value_tainted:
            self.tainted.add(name)
        if value is None:
            return
        # env aliases and bound-method aliases.
        if isinstance(value, ast.Name) and value.id in self.env_names:
            self.env_names.add(name)
        elif isinstance(value, ast.Attribute) \
                and isinstance(value.value, ast.Name) \
                and value.value.id in self.env_names \
                and value.attr in _ENV_METHODS:
            self.method_alias[name] = value.attr
        # array handles from env.arr("name").
        elif isinstance(value, ast.Call) \
                and self._env_method(value) == "arr" and value.args \
                and isinstance(value.args[0], ast.Constant) \
                and isinstance(value.args[0].value, str):
            self.array_names[name] = value.args[0].value

    def _prepass(self) -> None:
        """Fixpoint over assignments: aliases, array handles, taint."""
        for _ in range(8):
            before = (len(self.tainted), len(self.env_names),
                      len(self.method_alias), len(self.array_names))
            for stmt in self._iter_stmts():
                if isinstance(stmt, ast.Assign):
                    tainted = self._expr_tainted(stmt.value)
                    for target in stmt.targets:
                        self._bind(target, stmt.value, tainted)
                elif isinstance(stmt, ast.AnnAssign) \
                        and stmt.value is not None:
                    self._bind(stmt.target, stmt.value,
                               self._expr_tainted(stmt.value))
                elif isinstance(stmt, ast.AugAssign):
                    if self._expr_tainted(stmt.value):
                        self._bind(stmt.target, None, True)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    if self._expr_tainted(stmt.iter):
                        self._bind(stmt.target, None, True)
            after = (len(self.tainted), len(self.env_names),
                     len(self.method_alias), len(self.array_names))
            if after == before:
                break

    def _annotate_guards(self, stmts: list[ast.stmt], guarded: bool,
                         divergent: bool) -> None:
        """Per-statement flags: under a rank guard / rank-divergent flow."""
        for stmt in stmts:
            self.guarded[stmt] = guarded
            self.divergent[stmt] = divergent
            if isinstance(stmt, ast.If):
                t = self._expr_tainted(stmt.test)
                self._annotate_guards(stmt.body, guarded or t,
                                      divergent or t)
                self._annotate_guards(stmt.orelse, guarded or t,
                                      divergent or t)
            elif isinstance(stmt, ast.While):
                t = self._expr_tainted(stmt.test)
                self._annotate_guards(stmt.body, guarded or t,
                                      divergent or t)
                self._annotate_guards(stmt.orelse, guarded, divergent)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                t = self._expr_tainted(stmt.iter)
                self._annotate_guards(stmt.body, guarded, divergent or t)
                self._annotate_guards(stmt.orelse, guarded, divergent)
            elif isinstance(stmt, ast.Try):
                self._annotate_guards(stmt.body, guarded, divergent)
                self._annotate_guards(stmt.orelse, guarded, divergent)
                self._annotate_guards(stmt.finalbody, guarded, divergent)
                for handler in stmt.handlers:
                    self._annotate_guards(handler.body, guarded,
                                          divergent)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._annotate_guards(stmt.body, guarded, divergent)
            elif isinstance(stmt, ast.Match):
                for case in stmt.cases:
                    self._annotate_guards(case.body, guarded, divergent)

    # --- per-node classification ---------------------------------------

    def _classify(self, node: CFGNode) -> _Ops:
        ops = _Ops()
        if node.stmt is None:
            return ops
        for call in node_calls(node):
            method = self._env_method(call)
            if method is None:
                continue
            if method == "barrier":
                ops.barriers.append(call)
            elif method in ("acquire", "release"):
                ops.syncs.append((method, self._lock_key(call), call))
            elif method in _ACCESS_METHODS:
                kind, index_slots = _ACCESS_METHODS[method]
                if not call.args:
                    continue
                array = self._array_key(call.args[0])
                idx_tainted = any(
                    self._expr_tainted(call.args[i])
                    for i in index_slots if i < len(call.args))
                ops.accesses.append(_Access(kind, array, call,
                                            idx_tainted))
                if method == "set_block" and len(call.args) >= 3:
                    self._check_alias(array, call)
        return ops

    def _check_alias(self, array: str, set_call: ast.Call) -> None:
        """A007: get_block of the same array inline inside set_block."""
        for node in _walk_no_defs(set_call.args[2]):
            if isinstance(node, ast.Call) \
                    and self._env_method(node) == "get_block" \
                    and node.args \
                    and self._array_key(node.args[0]) == array:
                self.report("A007", set_call.lineno, set_call.col_offset,
                            f"get_block result of {array!r} passed "
                            f"directly to set_block on the same array: "
                            f"safe only while get_block copies; bind "
                            f"and .copy() explicitly")
                return

    # --- the analysis ---------------------------------------------------

    def analyze(self) -> None:
        self._prepass()
        self._annotate_guards(self.func.body, False, False)
        cfg = build_cfg(self.func)
        ops = {node: self._classify(node) for node in cfg.nodes}

        in_state = self._lockset_fixpoint(cfg, ops)
        self._check_lock_balance(cfg, ops, in_state)
        self._check_barriers(cfg, ops)
        self._check_locksets(cfg, ops, in_state)

    def _lockset_fixpoint(self, cfg: CFG, ops: dict[CFGNode, _Ops]
                          ) -> dict[CFGNode, _State]:
        in_state: dict[CFGNode, _State | None] = {
            node: None for node in cfg.nodes}
        in_state[cfg.entry] = (frozenset(), frozenset())
        worklist = [cfg.entry]
        while worklist:
            node = worklist.pop()
            state = in_state[node]
            if state is None:
                continue
            must, may = state
            for op, key, _call in ops[node].syncs:
                if op == "acquire":
                    must, may = must | {key}, may | {key}
                else:
                    must, may = must - {key}, may - {key}
            out = (must, may)
            for succ in node.succs:
                merged = _meet(in_state[succ], out)
                if merged != in_state[succ]:
                    in_state[succ] = merged
                    worklist.append(succ)
        empty: _State = (frozenset(), frozenset())
        return {node: state if state is not None else empty
                for node, state in in_state.items()}

    def _check_lock_balance(self, cfg: CFG, ops: dict[CFGNode, _Ops],
                            in_state: dict[CFGNode, _State]) -> None:
        # A002: a release must be dominated by an acquire on every path.
        for node in cfg.nodes:
            must, _may = in_state[node]
            for op, key, call in ops[node].syncs:
                if op == "release":
                    if key not in must:
                        self.report(
                            "A002", call.lineno, call.col_offset,
                            f"release of lock {key} is not matched by "
                            f"an acquire on every path to this point")
                    must = must - {key}
                else:
                    must = must | {key}
        # A001: nothing may be held when the worker exits.
        _must, may = in_state[cfg.exit]
        if not may:
            return
        for key in sorted(may):
            sites = sorted(
                (call.lineno, call.col_offset)
                for node in cfg.nodes
                for op, k, call in ops[node].syncs
                if op == "acquire" and k == key)
            line, col = sites[0] if sites else (self.func.lineno, 0)
            self.report("A001", line, col,
                        f"lock {key} acquired here may still be held "
                        f"when the worker exits (unbalanced "
                        f"acquire/release on some path)")

    def _check_barriers(self, cfg: CFG, ops: dict[CFGNode, _Ops]) -> None:
        # A003: every worker must execute the same barrier sequence.
        for node in cfg.nodes:
            if node.stmt is None:
                continue
            for call in ops[node].barriers:
                if self.divergent.get(node.stmt, False):
                    self.report(
                        "A003", call.lineno, call.col_offset,
                        "barrier under rank-dependent control flow: "
                        "workers would arrive at different episodes")

    def _check_locksets(self, cfg: CFG, ops: dict[CFGNode, _Ops],
                        in_state: dict[CFGNode, _State]) -> None:
        barrier_nodes = {n for n in cfg.nodes if ops[n].barriers}
        if not barrier_nodes:
            # Helper functions (no barrier) are analyzed for lock
            # balance only; phase rules need a barrier structure.
            return
        after_barrier: set[CFGNode] = set()
        for bnode in barrier_nodes:
            after_barrier |= cfg.reachable_from(set(bnode.succs))
        before_barrier = cfg.reachable_from({cfg.entry},
                                            blocked=barrier_nodes)

        # Evidence pass: which arrays are written under which locks?
        locked_writes: dict[str, set[str]] = {}
        for node in cfg.nodes:
            must, _may = in_state[node]
            for acc in ops[node].accesses:
                if acc.kind == "write" and must:
                    locked_writes.setdefault(acc.array, set()).update(
                        must)

        for node in cfg.nodes:
            must, _may = in_state[node]
            stmt_guarded = node.stmt is not None and \
                self.guarded.get(node.stmt, False)
            for acc in ops[node].accesses:
                call = acc.call
                if node in before_barrier and acc.kind == "write" \
                        and not stmt_guarded:
                    self.report(
                        "A006", call.lineno, call.col_offset,
                        f"write to {acc.array!r} reachable before the "
                        f"first barrier without a rank guard: the "
                        f"initialization phase is read-only for "
                        f"non-elected ranks")
                if node not in after_barrier or must:
                    continue
                locks = locked_writes.get(acc.array)
                if locks:
                    self.report(
                        "A004", call.lineno, call.col_offset,
                        f"array {acc.array!r} is written under lock "
                        f"{'/'.join(sorted(locks))} elsewhere but "
                        f"accessed lock-free here after the first "
                        f"barrier")
                elif acc.kind == "write" and not acc.index_tainted \
                        and not stmt_guarded:
                    self.report(
                        "A005", call.lineno, call.col_offset,
                        f"unlocked write to {acc.array!r} after the "
                        f"first barrier with a rank-independent index "
                        f"and no rank guard: every worker writes the "
                        f"same words concurrently")


def _has_env_param(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    args = func.args
    every = (args.posonlyargs + args.args + args.kwonlyargs)
    return any(a.arg == "env" for a in every)


def check_app(tree: ast.AST, report: Reporter) -> None:
    """Run the kernel analyzer over every env-taking function."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and _has_env_param(node):
            KernelAnalyzer(node, report).analyze()
