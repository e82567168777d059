"""A chat-completions endpoint on loopback: replies served from a list, each request recorded.

    with ChatStub([reply(None, [call("git_blame", file_path="a.c")]),
                   reply("BIC: abc1234")]) as stub:
        LiveBackend(stub.url, "test-model", "sk-test")...
    stub.requests  # [(headers, body), ...] in the order they arrived

An entry of the list is a reply (a 200 carrying one assistant message and
its usage), a `Status` (an HTTP error with headers and a body), a `Delay`
before another entry, or `DROP` (the connection closes with no reply). A
request past the end of the list gets a 500.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DROP = "drop"


def call(name: str, **args) -> dict:
    """One entry of a message's `tool_calls`."""
    return {"id": f"id_{name}", "type": "function",
            "function": {"name": name, "arguments": json.dumps(args)}}


def reply(content: str | None, tool_calls: list[dict] | None = None,
          usage: tuple[int, int] = (0, 0)) -> dict:
    """A 200 response body: one assistant message and its (prompt, completion) token usage."""
    message = {"role": "assistant", "content": content}
    if tool_calls:
        message["tool_calls"] = tool_calls
    return {"choices": [{"index": 0, "message": message}],
            "usage": {"prompt_tokens": usage[0], "completion_tokens": usage[1]}}


@dataclass
class Status:
    code: int
    headers: dict = field(default_factory=dict)
    body: str = ""


@dataclass
class Delay:
    seconds: float
    then: object  # the entry served after the delay


class ChatStub:
    def __init__(self, replies: list):
        self.replies = list(replies)
        self.requests: list[tuple[dict, dict]] = []
        self._lock = threading.Lock()
        self._closing = threading.Event()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                with stub._lock:
                    stub.requests.append((dict(self.headers), body))
                    entry = stub.replies.pop(0) if stub.replies else Status(500, body="no reply left")
                while isinstance(entry, Delay):
                    if stub._closing.wait(entry.seconds):
                        return
                    entry = entry.then
                if entry == DROP:
                    return
                code, headers, data = (
                    (entry.code, entry.headers, entry.body.encode()) if isinstance(entry, Status)
                    else (200, {"Content-Type": "application/json"}, json.dumps(entry).encode()))
                try:
                    self.send_response(code)
                    for name, value in {**headers, "Content-Length": str(len(data))}.items():
                        self.send_header(name, value)
                    self.end_headers()
                    self.wfile.write(data)
                except OSError:  # the client gave up first (its read timed out)
                    pass

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = False  # server_close joins each request's thread
        self._thread = threading.Thread(target=self._server.serve_forever)

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self) -> "ChatStub":
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._closing.set()  # a delayed reply ends at once
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()
