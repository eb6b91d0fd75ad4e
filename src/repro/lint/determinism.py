"""The determinism checks (the D-rules of :mod:`repro.lint.rules`).

The simulator's contract is that a run is a pure function of
``(RunSpec, source digest)`` — that is what makes the content-addressed
result cache sound and the differential-testing harness reproducible.
:class:`DeterminismChecker` flags the constructs that silently break
it: wall-clock reads (D101) and environment reads (D105) outside the
sanctioned sweep module, the global or an unseeded RNG (D102), set
iteration (D103), ``id()`` keys (D104) and mutation of a frozen spec
(D106). Resolution is import-aware: ``import numpy as np;
np.random.rand()`` and ``from time import perf_counter;
perf_counter()`` are both caught.
"""

from __future__ import annotations

import ast
from typing import Callable

from .rules import SANCTIONED_MODULES

#: report(rule, line, col, message)
Reporter = Callable[[str, int, int, str], None]


def is_sanctioned(display: str) -> bool:
    """May this file read wall clock / environment? (By basename, with
    either path separator; :data:`SANCTIONED_MODULES`.)"""
    base = display.replace("\\", "/").rsplit("/", 1)[-1]
    return base in SANCTIONED_MODULES

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today", "time.strftime", "time.localtime",
    "time.gmtime",
})

#: Functions on the process-global ``random`` module RNG.
_GLOBAL_RANDOM = frozenset({
    "random.random", "random.randint", "random.randrange",
    "random.choice", "random.choices", "random.sample",
    "random.shuffle", "random.uniform", "random.gauss",
    "random.normalvariate", "random.lognormvariate",
    "random.expovariate", "random.betavariate", "random.gammavariate",
    "random.triangular", "random.vonmisesvariate",
    "random.paretovariate", "random.weibullvariate",
    "random.getrandbits", "random.randbytes", "random.seed",
})

#: Functions on numpy's legacy process-global RNG.
_NUMPY_GLOBAL_RANDOM = frozenset({
    "rand", "randn", "randint", "random", "random_sample",
    "ranf", "sample", "choice", "shuffle", "permutation", "normal",
    "uniform", "standard_normal", "poisson", "exponential", "bytes",
})

#: Generator constructors that are deterministic only when seeded.
_RNG_CONSTRUCTORS = frozenset({
    "random.Random", "numpy.random.default_rng",
    "numpy.random.RandomState", "numpy.random.Generator",
    "numpy.random.SeedSequence", "numpy.random.PCG64",
})

#: Frozen spec classes whose instances must never be mutated (cache
#: keys hash their field values at construction time).
_FROZEN_CLASSES = frozenset({"RunSpec", "MachineConfig", "CostModel"})

#: Methods in which ``object.__setattr__`` on frozen instances is the
#: sanctioned construction idiom.
_CTOR_METHODS = frozenset({
    "__init__", "__post_init__", "__setstate__", "__new__"})


class DeterminismChecker(ast.NodeVisitor):
    """One file's worth of determinism checks."""

    def __init__(self, display: str, report: Reporter) -> None:
        self.sanctioned = is_sanctioned(display)
        self.report = report
        #: import alias -> canonical module path ("np" -> "numpy")
        self.modules: dict[str, str] = {}
        #: from-imported name -> canonical dotted path
        self.names: dict[str, str] = {}
        self.func_stack: list[str] = []
        #: local names known to hold frozen spec instances
        self.frozen_vars: set[str] = set()

    # --- import-aware name resolution ----------------------------------

    def _collect_imports(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or
                                 alias.name.split(".")[0]] = \
                        alias.name if alias.asname else \
                        alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"

    def _canonical(self, expr: ast.expr) -> str | None:
        """Resolve an attribute chain to a canonical dotted path."""
        parts: list[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = node.id
        if base in self.names:
            root = self.names[base]
        elif base in self.modules:
            root = self.modules[base]
        else:
            return None
        return ".".join([root] + list(reversed(parts)))

    # --- entry point ----------------------------------------------------

    def check(self, tree: ast.AST) -> None:
        self._collect_imports(tree)
        self.visit(tree)

    # --- scope tracking -------------------------------------------------

    def _visit_function(
            self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.func_stack.append(node.name)
        self.generic_visit(node)
        self.func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # --- calls: D101/D102/D104/D105/D106 --------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        canon = self._canonical(node.func)
        if canon is not None:
            if canon in _WALL_CLOCK and not self.sanctioned:
                self.report(
                    "D101", node.lineno, node.col_offset,
                    f"wall-clock read {canon}() outside sweep: "
                    f"simulated results must not depend on real time")
            if canon in _GLOBAL_RANDOM or (
                    canon.startswith("numpy.random.")
                    and canon.rsplit(".", 1)[1] in _NUMPY_GLOBAL_RANDOM):
                self.report(
                    "D102", node.lineno, node.col_offset,
                    f"{canon}() uses the process-global RNG: draw from "
                    f"an explicitly seeded generator instead")
            if canon in _RNG_CONSTRUCTORS and not node.args \
                    and not node.keywords:
                self.report(
                    "D102", node.lineno, node.col_offset,
                    f"{canon}() constructed without a seed: output "
                    f"would vary across runs and poison the result "
                    f"cache")
            if canon == "os.getenv" and not self.sanctioned:
                self.report(
                    "D105", node.lineno, node.col_offset,
                    "os.getenv() outside sweep: hidden input that "
                    "the result-cache key cannot see")
        # D104: key=id in sorted()/min()/max()/.sort().
        for kw in node.keywords:
            if kw.arg == "key" and isinstance(kw.value, ast.Name) \
                    and kw.value.id == "id":
                self.report(
                    "D104", kw.value.lineno, kw.value.col_offset,
                    "sort key is id(): ordering by identity differs "
                    "between runs")
        # D106: object.__setattr__ outside construction methods.
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr == "__setattr__" \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "object" \
                and (not self.func_stack
                     or self.func_stack[-1] not in _CTOR_METHODS):
            self.report(
                "D106", node.lineno, node.col_offset,
                "object.__setattr__ on a frozen instance outside a "
                "constructor: cache keys assume spec values never "
                "change after construction")
        self.generic_visit(node)

    # --- D105: any expression resolving to os.environ -------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not self.sanctioned \
                and self._canonical(node) == "os.environ":
            self.report(
                "D105", node.lineno, node.col_offset,
                "os.environ read outside sweep: hidden input that "
                "the result-cache key cannot see")
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if not self.sanctioned \
                and self.names.get(node.id) == "os.environ":
            self.report(
                "D105", node.lineno, node.col_offset,
                "os.environ read outside sweep: hidden input that "
                "the result-cache key cannot see")

    # --- D103: iteration over sets --------------------------------------

    def _check_iterable(self, expr: ast.expr) -> None:
        is_set = isinstance(expr, ast.Set) or isinstance(expr, ast.SetComp)
        if isinstance(expr, ast.Call) \
                and isinstance(expr.func, ast.Name) \
                and expr.func.id in ("set", "frozenset"):
            is_set = True
        if is_set:
            self.report(
                "D103", expr.lineno, expr.col_offset,
                "iteration over a set: element order is not canonical; "
                "wrap in sorted(...) to fix the order")

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", []):
            self._check_iterable(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    # --- D104: id() as a key --------------------------------------------

    @staticmethod
    def _is_id_call(expr: ast.expr) -> bool:
        return isinstance(expr, ast.Call) \
            and isinstance(expr.func, ast.Name) \
            and expr.func.id == "id"

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._is_id_call(node.slice):
            self.report(
                "D104", node.slice.lineno, node.slice.col_offset,
                "id() used as a collection key: identity values differ "
                "between runs")
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is not None and self._is_id_call(key):
                self.report(
                    "D104", key.lineno, key.col_offset,
                    "id() used as a dict key: identity values differ "
                    "between runs")
        self.generic_visit(node)

    # --- D106: assignment tracking for frozen instances -----------------

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        ctor: str | None = None
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name):
                ctor = func.id
            elif isinstance(func, ast.Attribute):
                ctor = func.attr
        for target in node.targets:
            if isinstance(target, ast.Name):
                if ctor in _FROZEN_CLASSES:
                    self.frozen_vars.add(target.id)
                else:
                    self.frozen_vars.discard(target.id)
            elif isinstance(target, ast.Attribute):
                self._check_frozen_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Attribute):
            self._check_frozen_target(node.target)
        self.generic_visit(node)

    def _check_frozen_target(self, target: ast.Attribute) -> None:
        if isinstance(target.value, ast.Name) \
                and target.value.id in self.frozen_vars:
            self.report(
                "D106", target.lineno, target.col_offset,
                f"attribute assignment to frozen "
                f"{target.value.id!r}: use dataclasses.replace() to "
                f"derive a new spec")


def check_determinism(tree: ast.AST, display: str,
                      report: Reporter) -> None:
    """Run the determinism checks over one parsed file, reporting
    against its displayed path ``display``."""
    DeterminismChecker(display, report).check(tree)
