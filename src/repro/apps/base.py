"""Application interface.

Each benchmark application (Section 3.2) implements this interface. The
same ``worker`` generator runs sequentially (rank 0 of 1, plain numpy —
the Table 2 baseline) and in parallel on any placement, which is also how
correctness is established: the protocols genuinely move application
data, so the parallel result must match the sequential one.

Workers must be *data-race-free*: concurrent accesses to the same shared
word must be separated by the env's locks, barriers, or flags. The
simulator enforces the consequence the protocol relies on (incoming
diffs never overlap local modifications) and raises
:class:`~repro.errors.DataRaceError` otherwise.

A run hosts every simulated processor's worker in one interpreter, so
on a 512-processor rung any per-rank host cost is paid 512 times.
Kernels therefore keep three rules (none of them changes a simulated
access, charge or their order):

* a processor's host work and host state are proportional to its own
  share: it visits its own blocks or chunks, not every block to ask
  whose it is (LU lists its blocks once, Water tests every chunk in one
  vectorised pass);
* a table that is the same for every rank (a chunk layout, an owner
  map) is built once per run and is immutable, not rebuilt per rank;
* scratch arrays die before the next yield: compute them in a helper
  that returns only what the processor keeps (Water's ``_forces``), so
  that hundreds of suspended workers do not each hold a dead copy.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..runtime.api import SharedSegment


class Application:
    """Base class for the eight benchmark applications."""

    #: Short name ("SOR", "LU", ...).
    name: str = "?"
    #: The problem size string reported in Table 2 (paper scale).
    paper_problem_size: str = ""
    #: The paper's sequential execution time in seconds (Table 2).
    paper_seq_time_s: float = 0.0
    #: Dominant synchronization style ("barriers", "locks", "flags").
    sync_style: str = "barriers"
    #: Cashmere-1L in-line write-doubling cost per simulated word, in us.
    #: One simulated word stands for many real words at the scaled problem
    #: sizes, so this is the paper's per-store doubling cost times the
    #: application's scaling factor (None = the raw cost model value).
    write_double_us: float | None = None
    #: Upper bounds on parameters beyond the rule every value obeys (a
    #: positive value of its default's type).
    param_max: dict[str, float] = {}

    # --- configuration ---------------------------------------------------------

    def default_params(self) -> dict:
        """Scaled-down default problem parameters."""
        raise NotImplementedError

    def small_params(self) -> dict:
        """Extra-small parameters for fast unit tests."""
        return self.default_params()

    def flags_needed(self, params: dict) -> dict[str, int]:
        """Flag sets the application uses: name -> count."""
        return {}

    # --- workload ---------------------------------------------------------------

    def declare(self, segment: SharedSegment, params: dict) -> None:
        """Allocate the application's shared arrays."""
        raise NotImplementedError

    def worker(self, env, params: dict):
        """The per-processor program (a generator; see WorkerEnv docs)."""
        raise NotImplementedError

    # --- verification -------------------------------------------------------------

    def result_arrays(self, params: dict) -> Iterable[str]:
        """Names of the shared arrays that constitute the result."""
        raise NotImplementedError

    def results_equal(self, name: str, expected: np.ndarray,
                      actual: np.ndarray, rtol: float, atol: float) -> bool:
        """Whether a parallel result array matches the sequential one.

        The default requires element-wise closeness; applications whose
        parallel schedule legitimately reassociates floating-point sums
        (or is non-deterministic, like TSP's branch-and-bound) override
        this with a weaker check.
        """
        return bool(np.allclose(expected, actual, rtol=rtol, atol=atol))

    def result_error(self, name: str, expected: np.ndarray,
                     actual: np.ndarray) -> float:
        """Maximum absolute deviation (for reporting)."""
        if len(expected) == 0:
            return 0.0
        return float(np.max(np.abs(np.asarray(expected)
                                   - np.asarray(actual))))


def split_range(n: int, parts: int, which: int) -> tuple[int, int]:
    """Contiguous block partition of range(n): bounds of block ``which``."""
    base = n // parts
    extra = n % parts
    lo = which * base + min(which, extra)
    hi = lo + base + (1 if which < extra else 0)
    return lo, hi
