"""Sequential execution: the uninstrumented single-processor baseline.

Runs the same application worker (rank 0 of 1) against plain numpy
arrays, with no protocol library linked in — exactly how the paper
measured the Table 2 sequential times. Compute blocks accumulate CPU time
plus uncontended memory-bus service; there is no polling overhead and no
fault cost. Speedups in Figure 7 are parallel time divided by this time.
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from ..errors import SimulationError
from ..sim.process import Compute
from .api import SharedArray, SharedSegment


class SequentialEnv:
    """Drop-in replacement for WorkerEnv running directly on numpy."""

    def __init__(self, config: MachineConfig, segment: SharedSegment) -> None:
        self.config = config
        self.segment = segment
        self.rank = 0
        self.nprocs = 1
        self.node_rank = 0
        self.local_rank = 0
        self.mem = np.zeros(segment.total_words, dtype=np.float64)
        self.time_us = 0.0
        self._flags: dict[str, dict[int, int]] = {}
        self._cscale = 1.0  # set from params by run_sequential

    @property
    def words_per_page(self) -> int:
        return self.config.words_per_page

    def arr(self, name: str) -> SharedArray:
        return self.segment.array(name)

    # --- data ------------------------------------------------------------------

    def get(self, arr: SharedArray, i: int) -> float:
        return self.mem[arr.base + i]

    def set(self, arr: SharedArray, i: int, value: float) -> None:
        self.mem[arr.base + i] = value

    def get_block(self, arr: SharedArray, lo: int, hi: int) -> np.ndarray:
        return self.mem[arr.base + lo:arr.base + hi].copy()

    def set_block(self, arr: SharedArray, lo: int,
                  values: np.ndarray) -> None:
        self.mem[arr.base + lo:arr.base + lo + len(values)] = values

    # --- time ------------------------------------------------------------------

    def compute(self, cpu_us: float, mem_bytes: float = 0.0) -> Compute:
        return Compute(cpu_us * self._cscale, mem_bytes * self._cscale)

    # --- synchronization: no-ops for one processor --------------------------------

    def barrier(self):
        return iter(())

    def acquire(self, lock_id: int):
        return iter(())

    def release(self, lock_id: int) -> None:
        pass

    def flag_set(self, name: str, index: int, value: int = 1) -> None:
        self._flags.setdefault(name, {})[index] = value

    def flag_wait(self, name: str, index: int, value: int = 1):
        have = self._flags.get(name, {}).get(index, 0)
        if have < value:
            raise SimulationError(
                f"sequential run would deadlock waiting for flag "
                f"{name}[{index}] >= {value}")
        return iter(())

    def flag_peek(self, name: str, index: int) -> int:
        return self._flags.get(name, {}).get(index, 0)

    def end_init(self) -> None:
        pass

    @property
    def parallel(self) -> bool:
        return False


def run_sequential(app, params: dict,
                   config: MachineConfig) -> tuple[SequentialEnv, float]:
    """Run ``app`` sequentially; returns (env, elapsed simulated us)."""
    segment = SharedSegment(config)
    app.declare(segment, params)
    env = SequentialEnv(config, segment)
    env._cscale = float(params.get("_compute_scale", 1.0))
    bus_bw = config.costs.node_bus_bandwidth
    for instr in app.worker(env, params):
        if isinstance(instr, Compute):
            env.time_us += instr.cpu_us + instr.mem_bytes / bus_bw
        else:
            raise SimulationError(
                f"sequential worker yielded non-compute {instr!r}; "
                f"synchronization must go through env methods")
    return env, env.time_us
