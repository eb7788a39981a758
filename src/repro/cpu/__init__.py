"""Core timing model and trace drivers."""

from repro.cpu.core import HierarchyRunner, LLCRunner, RunResult
from repro.cpu.timing import TimingModel

__all__ = [
    "HierarchyRunner",
    "LLCRunner",
    "RunResult",
    "TimingModel",
]
