"""HTTP front-end for the advisor: stdlib-only, thread-per-request.

``ThreadingHTTPServer`` keeps the dependency budget at zero while still
letting concurrent queries overlap — which is exactly what the
:class:`~repro.serve.advisor.SweepBatcher` exploits: handler threads
that arrive together are simulated together in one pooled dispatch.

Routes
------
``POST /advise``
    Body: JSON query (see :meth:`AdviseRequest.from_json`).  Returns
    the technique ranking; 400 with a structured body on a malformed
    query.
``GET /metrics``
    Prometheus exposition of the server's metrics registry.
``GET /healthz``
    Liveness: ``{"status": "ok"}``.
``GET /techniques``, ``GET /scenarios``
    What the server will accept — registered technique names and
    scenario presets.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..core.registry import technique_names
from ..obs import metrics as obs_metrics
from .advisor import AdviseValidationError, Advisor

__all__ = ["AdvisorHTTPServer", "make_server"]

#: refuse request bodies beyond this many bytes (a query is tiny)
MAX_BODY_BYTES = 1 << 20


class AdvisorHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared :class:`Advisor`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], advisor: Advisor):
        super().__init__(address, _Handler)
        self.advisor = advisor


class _Handler(BaseHTTPRequestHandler):
    server: AdvisorHTTPServer
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; with Nagle's algorithm
    # on, a kept-alive connection holds the body back until the client's
    # delayed ACK fires (~40 ms per response).
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------
    def log_message(self, format: str, *args) -> None:
        # Access logging is the journal's job (one `advise` record per
        # query); stderr chatter from the stdlib default is just noise.
        pass

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str,
                   content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _count_error(self, kind: str) -> None:
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.counter(
                f"serve_errors_{kind}_total",
                f"advisor requests rejected ({kind})",
            ).incr(1)

    # -- routes ------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            registry = obs_metrics.active_registry()
            text = registry.render_prometheus() if registry else ""
            self._send_text(
                200, text, "text/plain; version=0.0.4; charset=utf-8"
            )
        elif path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif path == "/techniques":
            self._send_json(200, {"techniques": technique_names()})
        elif path == "/scenarios":
            from ..scenarios import PRESETS

            self._send_json(200, {"scenarios": sorted(PRESETS)})
        else:
            self._count_error("not_found")
            self._send_json(
                404,
                {
                    "error": "not_found",
                    "message": f"no such route {path!r}; try POST /advise, "
                    "GET /metrics, /healthz, /techniques, /scenarios",
                },
            )

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler contract)
        path = self.path.split("?", 1)[0]
        if path != "/advise":
            self._count_error("not_found")
            self._send_json(
                404,
                {
                    "error": "not_found",
                    "message": f"no such route {path!r}; POST /advise",
                },
            )
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._count_error("validation")
            self._send_json(
                400,
                {
                    "error": "validation",
                    "field": "",
                    "message": "request body must carry a Content-Length "
                    f"of at most {MAX_BODY_BYTES} bytes",
                },
            )
            return
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw or b"null")
        except json.JSONDecodeError as exc:
            self._count_error("validation")
            self._send_json(
                400,
                {
                    "error": "validation",
                    "field": "",
                    "message": f"request body is not valid JSON: {exc}",
                },
            )
            return
        advisor = self.server.advisor
        try:
            request = advisor.parse(payload)
        except AdviseValidationError as exc:
            self._count_error("validation")
            self._send_json(400, exc.to_json())
            return
        try:
            response = advisor.advise(request)
        except Exception as exc:  # simulation failure -> structured 500
            self._count_error("internal")
            self._send_json(
                500,
                {
                    "error": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                },
            )
            return
        self._send_json(200, response.to_json())


def make_server(
    host: str, port: int, advisor: Advisor
) -> AdvisorHTTPServer:
    """Bind an :class:`AdvisorHTTPServer` (port 0 picks a free port)."""
    return AdvisorHTTPServer((host, port), advisor)


def serve_forever_in_thread(
    server: AdvisorHTTPServer,
) -> threading.Thread:
    """Run ``server`` on a daemon thread (tests and embedding)."""
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return thread
