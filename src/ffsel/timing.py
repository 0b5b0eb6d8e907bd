"""The CPU-time clock shared by selection and benchmarking code."""

from __future__ import annotations

import time

__all__ = ["thread_cpu_time"]


def thread_cpu_time() -> float:
    """CPU time consumed by the calling thread only."""
    try:
        return time.clock_gettime(time.CLOCK_THREAD_CPUTIME_ID)
    except (AttributeError, OSError):  # non-POSIX fallback
        return time.process_time()

