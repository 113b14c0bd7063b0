"""A tiny stdlib HTTP thread serving metrics, traces, and diagnosis.

``repro serve --metrics-port N`` starts one of these next to the async
server: a daemon ``ThreadingHTTPServer`` whose handler only reads from the
registry/tracer/recorder (all internally locked), so it never contends with
the serving hot path. Port ``0`` binds an ephemeral port — the smoke legs
use that and read :attr:`ObsHTTPServer.port` back.

Routes:

* ``GET /metrics`` — Prometheus text exposition with OpenMetrics trace
  exemplars on histogram buckets (an attached ``SLOEvaluator`` is
  re-evaluated first, so scraped burn rates are current);
* ``GET /slo`` — SLO burn-rate evaluation as JSON: per-objective window
  burn rates, alert state, and the exemplar traces that burned budget;
* ``GET /traces`` — scannable JSON listing of retained requests (id,
  duration, tier, outcome, start offset);
* ``GET /trace/<request_id>.json`` — Chrome-trace JSON for one retained
  request (404 once it ages out of the tracer ring);
* ``GET /debug/bundles`` / ``GET /debug/bundle/<id>`` — flight-recorder
  bundle index / one spooled debug bundle;
* ``GET /profile?seconds=N[&interval=S]`` — run the sampling profiler for
  N seconds (capped at 60) and return collapsed stacks as text;
* ``GET /healthz`` — liveness: 200 as long as this sidecar thread runs;
* ``GET /readyz`` — readiness: 200 when the optional ``ready`` callable
  says the service can take traffic (503 otherwise) — ``repro serve``
  wires it to ``Engine.ready``, so a closed engine drains out of rotation
  while a merely *degraded* one (a failed kernel rung) keeps serving
  bit-identically from the lower rungs.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Callable
from urllib.parse import parse_qs

from .metrics import MetricsRegistry
from .profile import sample_for
from .trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .flightrec import FlightRecorder
    from .slo import SLOEvaluator

__all__ = ["ObsHTTPServer"]

#: longest profiling run the sidecar will perform per request
MAX_PROFILE_SECONDS = 60.0


class ObsHTTPServer:
    """Observability sidecar: registry + tracer + diagnosis over HTTP."""

    def __init__(self, registry: MetricsRegistry, tracer: Tracer | None = None,
                 *, host: str = "127.0.0.1", port: int = 0,
                 ready: Callable[[], bool] | None = None,
                 slo: "SLOEvaluator | None" = None,
                 flight: "FlightRecorder | None" = None):
        self.registry = registry
        self.tracer = tracer
        self.ready = ready
        self.slo = slo
        self.flight = flight
        obs = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):  # keep stdout clean
                pass

            def _send(self, status: int, body: bytes,
                      ctype: str = "text/plain; charset=utf-8") -> None:
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _send_json(self, doc) -> None:
                self._send(200, json.dumps(doc).encode(), "application/json")

            def do_GET(self):
                path, _, query = self.path.partition("?")
                if path == "/metrics":
                    if obs.slo is not None:
                        try:
                            obs.slo.evaluate()
                        except Exception:  # never break the scrape
                            pass
                    body = obs.registry.render().encode()
                    self._send(200, body,
                               "text/plain; version=0.0.4; charset=utf-8")
                elif path == "/slo":
                    if obs.slo is None:
                        self._send(404, b"no SLOs configured "
                                        b"(serve --slo name=50ms:0.99)\n")
                    else:
                        self._send_json({"slos": obs.slo.evaluate()})
                elif path == "/traces":
                    entries = (obs.tracer.summaries() if obs.tracer else [])
                    self._send_json({"traces": entries})
                elif path.startswith("/trace/") and path.endswith(".json"):
                    trace_id = path[len("/trace/"):-len(".json")]
                    doc = (obs.tracer.export(trace_id)
                           if obs.tracer else None)
                    if doc is None:
                        self._send(404, b"unknown trace\n")
                    else:
                        self._send_json(doc)
                elif path == "/debug/bundles":
                    ids = (obs.flight.bundle_ids()
                           if obs.flight is not None else [])
                    self._send_json({"bundles": ids})
                elif path.startswith("/debug/bundle/"):
                    bundle_id = path[len("/debug/bundle/"):]
                    doc = (obs.flight.bundle(bundle_id)
                           if obs.flight is not None else None)
                    if doc is None:
                        self._send(404, b"unknown bundle\n")
                    else:
                        self._send_json(doc)
                elif path == "/profile":
                    params = parse_qs(query)
                    try:
                        seconds = float(params.get("seconds", ["5"])[0])
                        interval = float(params.get("interval",
                                                    ["0.005"])[0])
                    except ValueError:
                        self._send(400, b"seconds/interval must be numbers\n")
                        return
                    seconds = min(max(seconds, 0.0), MAX_PROFILE_SECONDS)
                    interval = min(max(interval, 0.0005), 1.0)
                    text = sample_for(seconds, interval=interval)
                    self._send(200, text.encode())
                elif path == "/healthz":
                    self._send(200, b"ok\n")
                elif path == "/readyz":
                    try:
                        up = obs.ready is None or bool(obs.ready())
                    except Exception:  # a dying probe means "not ready"
                        up = False
                    if up:
                        self._send(200, b"ready\n")
                    else:
                        self._send(503, b"not ready\n")
                else:
                    self._send(404, b"try /metrics, /slo, /traces, "
                                    b"/trace/<id>.json, /debug/bundles, "
                                    b"/debug/bundle/<id>, /profile, "
                                    b"/healthz, /readyz\n")

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-obs-http", daemon=True)

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "ObsHTTPServer":
        self._thread.start()
        return self

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread.is_alive():  # pragma: no branch
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "ObsHTTPServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
