"""Executors: serial, threads, and the simulated work/span model.

The paper targets shared-memory machines — threads, one accumulator per
thread, no processes — so these are the only substrates:

* :class:`SerialExecutor` — baseline; also what ``executor=None`` means.
* :class:`ThreadExecutor` — real threads. numpy kernels release the GIL for
  parts of their work, Python glue does not; speedups are real but damped.
* :class:`SimulatedExecutor` — runs chunks serially, times each, and reports
  the **makespan** a greedy p-worker list schedule of those chunk times
  would achieve. This is a deterministic work/span model of the paper's
  OpenMP dynamic loop, used for strong-scaling *shape* experiments on small
  CI boxes. Its results (the actual matrices) are bit-identical to serial.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np


class SerialExecutor:
    """Run chunks one after another in the calling thread."""

    def __init__(self):
        self.nworkers = 1

    def map(self, fn: Callable, items: Sequence) -> list:
        return [fn(it) for it in items]

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


class ThreadExecutor:
    """Thread-pool execution (GIL-limited for pure-Python sections)."""

    def __init__(self, nworkers: int | None = None):
        self.nworkers = int(nworkers or os.cpu_count() or 1)
        self._pool = ThreadPoolExecutor(max_workers=self.nworkers)

    def map(self, fn: Callable, items: Sequence) -> list:
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class SimulatedExecutor:
    """Serial execution + greedy list-schedule makespan model.

    After :meth:`map`, :attr:`last_serial_seconds` holds the summed chunk
    times and :attr:`last_makespan_seconds` the simulated parallel time on
    ``nworkers`` workers (each chunk, in submission order, goes to the
    least-loaded worker — OpenMP ``dynamic`` semantics). ``speedup()``
    reports their ratio.
    """

    def __init__(self, nworkers: int):
        self.nworkers = int(nworkers)
        if self.nworkers <= 0:
            raise ValueError("nworkers must be positive")
        self.last_serial_seconds = 0.0
        self.last_makespan_seconds = 0.0
        self.last_chunk_seconds: list[float] = []

    def map(self, fn: Callable, items: Sequence) -> list:
        results = []
        chunk_times = []
        for it in items:
            t0 = time.perf_counter()
            results.append(fn(it))
            chunk_times.append(time.perf_counter() - t0)
        self.last_chunk_seconds = chunk_times
        self.last_serial_seconds = float(sum(chunk_times))
        loads = np.zeros(self.nworkers)
        for t in chunk_times:  # greedy: next chunk to least-loaded worker
            loads[int(np.argmin(loads))] += t
        self.last_makespan_seconds = float(loads.max(initial=0.0))
        return results

    def speedup(self) -> float:
        if self.last_makespan_seconds <= 0:
            return 1.0
        return self.last_serial_seconds / self.last_makespan_seconds

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass
