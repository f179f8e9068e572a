"""Tiny local HTTP stub used to exercise the real wire paths in tests."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubService:
    """Runs ``handler(body, headers) -> (status, reply[, reply_headers])`` on a local port.

    Records every request (path, headers, parsed JSON body) for assertions.
    Reply may be any JSON-serializable object or raw bytes; the optional
    third element is a dict of extra reply headers, which override the
    defaults. A handler that returns None drops the connection without
    replying.
    """

    def __init__(self, handler):
        self.handler = handler
        self.requests: list[dict] = []
        stub = self

        class _Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                try:
                    body = json.loads(raw)
                except json.JSONDecodeError:
                    body = None
                stub.requests.append(
                    {"path": self.path, "headers": dict(self.headers), "body": body}
                )
                outcome = stub.handler(body, dict(self.headers))
                if outcome is None:
                    self.close_connection = True
                    return
                status, reply, *extra = outcome
                data = reply if isinstance(reply, bytes) else json.dumps(reply).encode("utf-8")
                self.send_response(status)
                headers = {"Content-Type": "application/json", "Content-Length": str(len(data))}
                for name, value in {**headers, **(extra[0] if extra else {})}.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):  # keep test output clean
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    def __enter__(self) -> "StubService":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()

    @property
    def url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1"
