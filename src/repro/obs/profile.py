"""Wall-clock sampling profiler under the spans — stdlib only.

Spans bound *phases* (``numeric``, ``cache.lookup``, one ``chunk``); what
they cannot show is where the time goes *inside* a chunk — which kernel
helper, which numpy call. :class:`SamplingProfiler` fills that floor: a
daemon thread wakes every ``interval`` seconds, snapshots every thread's
Python stack via ``sys._current_frames()``, and accumulates them as
collapsed stacks (``module:function;module:function... count``) — the
input format of ``flamegraph.pl`` and the "collapsed stack" importer at
https://speedscope.app.

Scoping: with ``spans={"numeric", ...}`` the sampler only attributes
threads that currently have a matching span open (the tracer maintains an
open-span table *only while a profiler is attached* — the per-span cost
otherwise is a single global None check), and roots each stack under
``span:<name>`` so the flame graph separates phases. Without ``spans`` it
profiles every thread.

Off by default everywhere; sampled on demand via ``repro profile
workload.json -o prof.txt`` or ``GET /profile?seconds=N`` on the sidecar.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from typing import Iterable

from . import trace as _trace

__all__ = ["SamplingProfiler", "sample_for"]

#: stacks deeper than this are truncated from the outermost frames
MAX_DEPTH = 64


def _frame_stack(frame) -> list[str]:
    """Innermost-first walk rendered ``module:function``, returned
    outermost-first (the collapsed-stack convention)."""
    out: list[str] = []
    while frame is not None and len(out) < MAX_DEPTH:
        out.append(f"{frame.f_globals.get('__name__', '?')}:"
                   f"{frame.f_code.co_name}")
        frame = frame.f_back
    out.reverse()
    return out


class SamplingProfiler:
    """Sample all (or span-scoped) thread stacks on a fixed interval."""

    def __init__(self, *, interval: float = 0.005,
                 spans: Iterable[str] | None = None):
        self.interval = float(interval)
        self.spans = frozenset(spans) if spans else None
        self._counts: Counter = Counter()
        self._samples = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------ #
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        if self.spans is not None:
            _trace._profile_attach()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        if self.spans is not None:
            _trace._profile_detach()

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- sampling loop -------------------------------------------------- #
    def _run(self) -> None:
        me = threading.get_ident()
        while not self._stop.wait(self.interval):
            self._tick(me)

    def _tick(self, me: int) -> None:
        frames = sys._current_frames()
        open_spans = (_trace._profile_snapshot()
                      if self.spans is not None else {})
        batch: list[str] = []
        for tid, frame in frames.items():
            if tid == me:
                continue
            prefix = ""
            if self.spans is not None:
                names = open_spans.get(tid)
                anchor = next((n for n in reversed(names or ())
                               if n in self.spans), None)
                if anchor is None:
                    continue
                prefix = f"span:{anchor};"
            batch.append(prefix + ";".join(_frame_stack(frame)))
        with self._lock:
            self._samples += 1
            self._counts.update(batch)

    # -- export --------------------------------------------------------- #
    @property
    def samples(self) -> int:
        """Sampler wake-ups so far (each may attribute several threads)."""
        with self._lock:
            return self._samples

    def collapsed(self) -> str:
        """Collapsed-stack text, hottest first — pipe straight into
        ``flamegraph.pl`` or import into speedscope."""
        with self._lock:
            items = self._counts.most_common()
        return "".join(f"{stack} {count}\n" for stack, count in items)


def sample_for(seconds: float, *, interval: float = 0.005,
               spans: Iterable[str] | None = None) -> str:
    """Profile the process for ``seconds`` and return collapsed stacks —
    the one-shot face behind ``GET /profile?seconds=N``."""
    prof = SamplingProfiler(interval=interval, spans=spans)
    with prof:
        time.sleep(max(0.0, float(seconds)))
    return prof.collapsed()
