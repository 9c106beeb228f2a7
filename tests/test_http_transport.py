"""Wire-format behavior of the chat-completion HTTP transport."""

from __future__ import annotations

import base64
import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from clear_ga.backends import EvaluationFailure, EvaluationRequest
from clear_ga.backends.llm import AuthenticationError, HttpTransport, LlmEvaluator, TransportError
from clear_ga.schema import DataItem, Genotype

from conftest import build_record


class _Handler(BaseHTTPRequestHandler):
    server_version = "stub"

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        request = json.loads(body)
        self.server.requests.append(
            {"path": self.path, "auth": self.headers.get("Authorization"), "json": request}
        )
        status, payload = self.server.responses.pop(0)
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    httpd = HTTPServer(("127.0.0.1", 0), _Handler)
    httpd.requests = []
    httpd.responses = []
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)


# Imports the package, reports whether the HTTP stack came with it, then makes
# eight first sends at once from a pool, each answered with its own prompt.
FRESH_PROCESS = """
import sys
import clear_ga, clear_ga.cli
print(sorted(name for name in ("requests", "urllib3") if name in sys.modules))

import json, threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from clear_ga.backends.llm import HttpTransport

class Echo(BaseHTTPRequestHandler):
    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        text = request["messages"][0]["content"][0]["text"]
        data = json.dumps({"choices": [{"message": {"content": text}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass

with ThreadingHTTPServer(("127.0.0.1", 0), Echo) as httpd:
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    transport = HttpTransport(f"http://127.0.0.1:{httpd.server_address[1]}", "k", timeout=30)
    start = threading.Barrier(8)

    def first_send(i):
        start.wait(timeout=30)
        return transport.send(str(i), [])

    with ThreadPoolExecutor(8) as pool:
        print(list(pool.map(first_send, range(8))))
    httpd.shutdown()
"""


def test_http_stack_loads_on_first_send_only():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", str([str(i) for i in range(8)])]


def test_package_import_leaves_stdlib_statistics_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = (
        "import sys, clear_ga, clear_ga.cli\n"
        "print(sorted(name for name in ('statistics', 'fractions', 'decimal', 'numbers')"
        " if name in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def completion(text: str) -> dict:
    return {"choices": [{"message": {"content": text}}]}


def make_transport(server, **kwargs) -> HttpTransport:
    endpoint = f"http://127.0.0.1:{server.server_address[1]}"
    return HttpTransport(endpoint=endpoint, api_key="test-key", **kwargs)


class TestHttpTransport:
    def test_sends_single_user_message_with_text_and_images(self, server, tmp_path):
        image = tmp_path / "front.png"
        image.write_bytes(b"\x89PNG fake")
        server.responses.append((200, completion("### double glazed ###")))
        transport = make_transport(server)
        text = transport.send("estimate please", [image])
        assert text == "### double glazed ###"
        request = server.requests[0]
        assert request["path"] == "/chat/completions"
        assert request["auth"] == "Bearer test-key"
        assert request["json"]["model"] == "gpt-4o"
        messages = request["json"]["messages"]
        assert len(messages) == 1 and messages[0]["role"] == "user"
        content = messages[0]["content"]
        assert content[0] == {"type": "text", "text": "estimate please"}
        url = content[1]["image_url"]["url"]
        prefix, encoded = url.split(",", 1)
        assert prefix == "data:image/png;base64"
        assert base64.b64decode(encoded) == b"\x89PNG fake"
        assert len(server.requests) == 1

    def test_auth_rejection_is_not_transient(self, server):
        server.responses.append((401, {"error": "bad key"}))
        transport = make_transport(server)
        with pytest.raises(AuthenticationError, match="CLEAR_LLM_API_KEY"):
            transport.send("hello", [])

    def test_server_error_is_transient(self, server):
        server.responses.append((500, {"error": "overloaded"}))
        transport = make_transport(server)
        with pytest.raises(TransportError, match="HTTP 500"):
            transport.send("hello", [])

    def test_malformed_completion_is_transient(self, server):
        server.responses.append((200, {"unexpected": True}))
        transport = make_transport(server)
        with pytest.raises(TransportError, match="malformed"):
            transport.send("hello", [])

    @pytest.mark.parametrize("content", [None, 5, [{"type": "text", "text": "### 120 ###"}]])
    def test_completion_whose_content_is_not_a_string_is_transient(self, server, content):
        server.responses.append((200, {"choices": [{"message": {"content": content}}]}))
        transport = make_transport(server)
        with pytest.raises(TransportError, match="malformed completion response"):
            transport.send("hello", [])

    def test_null_content_is_retried_then_fails_the_evaluation(self, server):
        refusal = {"choices": [{"message": {"content": None}}]}
        server.responses.extend([(200, refusal), (200, refusal)])
        evaluator = LlmEvaluator(make_transport(server), retry_limit=1)
        request = EvaluationRequest(
            genotype=Genotype((("brick",),)), building=build_record(), data_item=DataItem.ENERGY
        )
        with pytest.raises(EvaluationFailure, match="after 2 attempts: malformed"):
            evaluator.evaluate(request)
        assert len(server.requests) == 2

    def test_connection_refused_is_transient(self):
        transport = HttpTransport(endpoint="http://127.0.0.1:9", api_key="k", timeout=0.5)
        with pytest.raises(TransportError, match="request failed"):
            transport.send("hello", [])

    def test_missing_key_fails_at_construction(self, monkeypatch):
        monkeypatch.delenv("CLEAR_LLM_API_KEY", raising=False)
        with pytest.raises(AuthenticationError, match="CLEAR_LLM_API_KEY"):
            HttpTransport(endpoint="http://127.0.0.1:9")

    def test_endpoint_from_environment(self, server, monkeypatch):
        endpoint = f"http://127.0.0.1:{server.server_address[1]}"
        monkeypatch.setenv("CLEAR_LLM_ENDPOINT", endpoint)
        monkeypatch.setenv("CLEAR_LLM_API_KEY", "env-key")
        server.responses.append((200, completion("ok")))
        transport = HttpTransport(model="small-vision")
        assert transport.send("ping", []) == "ok"
        assert server.requests[0]["auth"] == "Bearer env-key"
        assert server.requests[0]["json"]["model"] == "small-vision"

    def test_rate_ceiling_spaces_requests(self, server):
        import time

        server.responses.extend([(200, completion("a")), (200, completion("b"))])
        transport = make_transport(server, min_request_interval=0.2)
        start = time.monotonic()
        transport.send("one", [])
        transport.send("two", [])
        assert time.monotonic() - start >= 0.2
