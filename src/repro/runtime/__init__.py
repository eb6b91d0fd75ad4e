"""DSM runtime: shared segment, worker environment, program runners."""

from .api import SharedArray, SharedSegment
from .env import WorkerEnv
from .program import (ComparisonResult, ParallelRuntime, RunResult, run_app,
                      run_and_verify)
from .sequential import SequentialEnv, run_sequential

__all__ = [
    "SharedArray", "SharedSegment", "WorkerEnv", "SequentialEnv",
    "ParallelRuntime", "RunResult", "ComparisonResult",
    "run_app", "run_and_verify", "run_sequential",
]
