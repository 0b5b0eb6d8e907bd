"""CPU-time clocks shared by selection and benchmarking code."""

from __future__ import annotations

import time

__all__ = ["thread_cpu_time", "cpu_timer"]


def thread_cpu_time() -> float:
    """CPU time consumed by the calling thread only."""
    try:
        return time.clock_gettime(time.CLOCK_THREAD_CPUTIME_ID)
    except (AttributeError, OSError):  # non-POSIX fallback
        return time.process_time()


class cpu_timer:
    """Context manager measuring process CPU time (user+system, all threads).

    The reading covers any worker threads the block spawns, never wall-clock
    waits.  Read `.seconds` after the block exits; nested timers sum
    consistently because they share one process-wide clock.
    """

    seconds: float

    def __enter__(self) -> "cpu_timer":
        self.seconds = 0.0
        self._t0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = max(time.process_time() - self._t0, 0.0)
        return False
