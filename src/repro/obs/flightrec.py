"""Failure flight recorder: request ring + debug bundles on resilience edges.

When a kernel rung fails or a deadline sheds work, the interesting state
is what the process looked like *right then* — by the time someone greps the
metrics the evidence has been averaged away. :class:`FlightRecorder` keeps
two things:

* a bounded **ring of per-request summaries** (serving tier, kernel tier,
  phase timings, outcome — the dicts from
  :meth:`repro.service.requests.RequestStats.as_summary`), cheap enough to
  feed on every request;
* **debug bundles**: whenever a resilience edge fires — tier degrade,
  deadline shed — :meth:`capture` spools one
  JSON document holding the offending (possibly still-open) trace, a full
  metrics snapshot, whatever live state the owner's ``context`` callable
  reports (the engine's open/closed state), and the process
  environment (python/platform/pid, ``REPRO_*`` vars, git revision).

Bundles land in a spool directory, are downloadable at
``/debug/bundle/<id>`` on the sidecar, and can be captured on demand with
``repro bundle``. By default the spool is a per-recorder temp dir that
:meth:`FlightRecorder.close` (or, failing that, garbage collection or
interpreter exit) removes; bundles meant to outlive the recorder go to a
``spool_dir`` the caller names, which is never removed. Capture is
rate-limited per reason (first one always wins) so a fault storm records
the interesting first edge instead of filling the disk, and the bundle
index is bounded — evicted bundles are deleted from the spool.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from collections import OrderedDict, deque
from pathlib import Path
from typing import Any, Callable

from .metrics import MetricsRegistry
from .trace import TraceRecord, Tracer, current_record

__all__ = ["FlightRecorder"]

_GIT_REV: str | None = None


def _git_rev() -> str:
    """Best-effort repo revision for bundle provenance (cached; "unknown"
    outside a git checkout or without a git binary)."""
    global _GIT_REV
    if _GIT_REV is None:
        try:
            _GIT_REV = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True, text=True, timeout=5.0,
            ).stdout.strip() or "unknown"
        except Exception:
            _GIT_REV = "unknown"
    return _GIT_REV


class FlightRecorder:
    """Bounded request ring + spooled debug bundles.

    ``context`` is a zero-argument callable returning a JSON-able dict of
    live owner state (the engine wires its closed flag in);
    ``registry`` and ``tracer`` are snapshotted into each bundle when
    given. All methods are thread-safe and never raise into the caller's
    hot path — a failing capture returns ``None``.
    """

    def __init__(self, *, capacity: int = 256, max_bundles: int = 32,
                 spool_dir: str | os.PathLike | None = None,
                 registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 context: Callable[[], dict] | None = None,
                 min_interval: float = 10.0,
                 clock: Callable[[], float] = time.monotonic):
        self.capacity = int(capacity)
        self.max_bundles = int(max_bundles)
        self.registry = registry
        self.tracer = tracer
        self.context = context
        self.min_interval = float(min_interval)
        self._clock = clock
        self._spool = Path(spool_dir) if spool_dir is not None else None
        # removes a spool this recorder made itself; None for a caller's
        self._remove_own_spool: weakref.finalize | None = None
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=self.capacity)
        self._bundles: OrderedDict[str, Path] = OrderedDict()
        self._last_capture: dict[str, float] = {}
        self._seq = 0
        self._c_bundles = registry.counter(
            "repro_flightrec_bundles_total",
            "debug bundles captured, by triggering edge",
            labels=("reason",)) if registry is not None else None

    # -- request ring --------------------------------------------------- #
    def note_request(self, summary: dict[str, Any]) -> None:
        """Append one per-request summary dict to the ring."""
        with self._lock:
            self._ring.append(dict(summary))

    def ring(self) -> list[dict[str, Any]]:
        with self._lock:
            return [dict(entry) for entry in self._ring]

    # -- spool ---------------------------------------------------------- #
    @property
    def spool_dir(self) -> Path:
        """The bundle directory (created lazily on first use)."""
        with self._lock:
            if self._spool is None:
                self._spool = Path(tempfile.mkdtemp(prefix="repro-debug-"))
                self._remove_own_spool = weakref.finalize(
                    self, shutil.rmtree, self._spool, ignore_errors=True)
            else:
                self._spool.mkdir(parents=True, exist_ok=True)
            return self._spool

    def close(self) -> None:
        """Delete a spool this recorder created, with its bundles, and
        forget them. A caller-named ``spool_dir`` is left as it is.
        Idempotent; a later capture starts a fresh spool."""
        with self._lock:
            if self._remove_own_spool is None:
                return
            self._remove_own_spool()
            self._remove_own_spool = None
            self._spool = None
            self._bundles.clear()

    def bundle_ids(self) -> list[str]:
        with self._lock:
            return list(self._bundles)

    def bundle_path(self, bundle_id: str) -> Path | None:
        with self._lock:
            return self._bundles.get(bundle_id)

    def bundle(self, bundle_id: str) -> dict[str, Any] | None:
        """Load one spooled bundle (``None`` if unknown or unreadable)."""
        path = self.bundle_path(bundle_id)
        if path is None:
            return None
        try:
            return json.loads(path.read_text())
        except Exception:
            return None

    # -- capture -------------------------------------------------------- #
    def capture(self, reason: str, *, detail: str = "",
                record: TraceRecord | None = None,
                extra: dict[str, Any] | None = None,
                force: bool = False) -> str | None:
        """Spool a debug bundle for ``reason``; returns its id, or ``None``
        when rate-limited (per reason) or the write failed. The offending
        trace defaults to the caller's active record — resilience edges
        fire mid-request, so the bundle holds the flame view *up to the
        moment the edge fired*."""
        now = self._clock()
        with self._lock:
            last = self._last_capture.get(reason)
            if not force and last is not None and \
                    now - last < self.min_interval:
                return None
            self._last_capture[reason] = now
            self._seq += 1
            bundle_id = f"b{self._seq:04d}-{reason.replace('_', '-')}"
        if record is None:
            record = current_record()
        try:
            path = self._write(bundle_id, reason, detail, record, extra)
        except Exception:
            return None
        with self._lock:
            self._bundles[bundle_id] = path
            while len(self._bundles) > self.max_bundles:
                _, old = self._bundles.popitem(last=False)
                try:
                    old.unlink()
                except OSError:
                    pass
        if self._c_bundles is not None:
            self._c_bundles.inc(reason=reason)
        return bundle_id

    def _write(self, bundle_id: str, reason: str, detail: str,
               record: TraceRecord | None,
               extra: dict[str, Any] | None) -> Path:
        doc: dict[str, Any] = {
            "bundle_id": bundle_id,
            "reason": reason,
            "detail": detail,
            "unix_time": time.time(),
            "trace_id": record.trace_id if record is not None else None,
            "trace": record.chrome() if record is not None else None,
            "ring": self.ring(),
            "metrics": (self.registry.render()
                        if self.registry is not None else ""),
            "context": self._context_state(),
            "env": {
                "python": sys.version.split()[0],
                "platform": platform.platform(),
                "pid": os.getpid(),
                "git_rev": _git_rev(),
                "repro_env": {k: v for k, v in os.environ.items()
                              if k.startswith("REPRO_")},
            },
        }
        if extra:
            doc["extra"] = extra
        path = self.spool_dir / f"{bundle_id}.json"
        path.write_text(json.dumps(doc, indent=1, default=str))
        return path

    def _context_state(self) -> dict[str, Any]:
        if self.context is None:
            return {}
        try:
            return dict(self.context())
        except Exception as exc:  # a dying probe must not kill the capture
            return {"error": f"{type(exc).__name__}: {exc}"}
