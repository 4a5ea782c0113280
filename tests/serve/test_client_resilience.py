"""GatewayClient resilience: retry policy, circuit breaker, deadlines.

The HTTP tests run against a scripted one-endpoint server so every
status sequence is exact — no model, no timing-dependent pool state."""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from random import Random

import numpy as np
import pytest

from repro.serve import (
    CircuitBreaker,
    CircuitOpen,
    DeadlineExceeded,
    GatewayClient,
    GatewayHTTPError,
    GatewayOverloaded,
    RetryPolicy,
)


class ScriptedGateway:
    """Answers each POST with the next status in the script (200 after)."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                self.rfile.read(length)
                with outer._lock:
                    outer.calls += 1
                    status = outer.script.pop(0) if outer.script else 200
                body = (
                    b'{"model": "m", "version": "v", "outputs": [1.0], "cached": false}'
                    if status == 200
                    else b'{"error": "scripted"}'
                )
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.httpd.server_address[1]}"

    def stop(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def scripted():
    servers = []

    def make(script):
        server = ScriptedGateway(script)
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.stop()


FAST_RETRY = dict(backoff_base_s=0.001, backoff_max_s=0.002, jitter=0.0)


class TestRetryPolicy:
    def test_delay_doubles_and_caps(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_max_s=0.5, jitter=0.0)
        rng = Random(0)
        assert policy.delay_s(1, rng) == pytest.approx(0.1)
        assert policy.delay_s(2, rng) == pytest.approx(0.2)
        assert policy.delay_s(3, rng) == pytest.approx(0.4)
        assert policy.delay_s(4, rng) == pytest.approx(0.5)  # capped

    def test_jitter_bounds_and_seed_determinism(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_max_s=0.1, jitter=0.5)
        delays = [policy.delay_s(1, Random(7)) for _ in range(4)]
        assert len(set(delays)) == 1  # same seed, same draw
        rng = Random(3)
        for _ in range(64):
            d = policy.delay_s(1, rng)
            assert 0.05 <= d <= 0.15  # base * [1 - jitter, 1 + jitter]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base_s": -1.0},
            {"backoff_base_s": 1.0, "backoff_max_s": 0.5},
            {"jitter": 1.0},
            {"jitter": -0.1},
        ],
    )
    def test_bad_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestCircuitBreaker:
    def test_state_machine(self):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=2, recovery_timeout_s=5.0, clock=lambda: clock["t"]
        )
        assert breaker.state == "closed"
        breaker.check()
        breaker.record_failure()
        breaker.check()  # one failure: still closed
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpen):
            breaker.check()
        clock["t"] = 6.0  # past the recovery timeout: one probe admitted
        breaker.check()
        assert breaker.state == "half_open"
        with pytest.raises(CircuitOpen):  # second concurrent probe rejected
            breaker.check()
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.check()  # fully back in business

    def test_half_open_failure_reopens(self):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout_s=5.0, clock=lambda: clock["t"]
        )
        breaker.record_failure()
        assert breaker.state == "open"
        clock["t"] = 6.0
        breaker.check()
        breaker.record_failure()  # the probe failed
        assert breaker.state == "open"
        assert breaker.stats()["opens"] == 2

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # never two *consecutive* failures


class TestPredictRetries:
    def test_retries_503_then_succeeds(self, scripted):
        server = scripted([503, 503, 200])
        client = GatewayClient(
            server.url, retry=RetryPolicy(max_attempts=4, **FAST_RETRY)
        )
        out = client.predict("m", np.asarray([1.0]))
        np.testing.assert_array_equal(np.asarray(out), [1.0])
        assert server.calls == 3

    def test_retries_429_then_succeeds(self, scripted):
        server = scripted([429, 200])
        client = GatewayClient(
            server.url, retry=RetryPolicy(max_attempts=2, **FAST_RETRY)
        )
        client.predict("m", np.asarray([1.0]))
        assert server.calls == 2

    def test_no_retry_on_400(self, scripted):
        server = scripted([400])
        client = GatewayClient(
            server.url, retry=RetryPolicy(max_attempts=4, **FAST_RETRY)
        )
        with pytest.raises(GatewayHTTPError) as exc:
            client.predict("m", np.asarray([1.0]))
        assert exc.value.status == 400
        assert server.calls == 1

    def test_attempts_exhausted_raises_last_error(self, scripted):
        server = scripted([503] * 8)
        client = GatewayClient(
            server.url, retry=RetryPolicy(max_attempts=3, **FAST_RETRY)
        )
        with pytest.raises(GatewayHTTPError) as exc:
            client.predict("m", np.asarray([1.0]))
        assert exc.value.status == 503
        assert server.calls == 3

    def test_bare_client_never_retries(self, scripted):
        server = scripted([429, 200])
        client = GatewayClient(server.url)
        with pytest.raises(GatewayOverloaded):
            client.predict("m", np.asarray([1.0]))
        assert server.calls == 1

    def test_mutating_verbs_never_retry(self, scripted):
        server = scripted([503, 200])
        client = GatewayClient(
            server.url, retry=RetryPolicy(max_attempts=4, **FAST_RETRY)
        )
        with pytest.raises(GatewayHTTPError):
            client.unload("m")
        assert server.calls == 1

    def test_connection_errors_are_retried(self):
        # bind-then-close leaves a port with nothing listening
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        breaker = CircuitBreaker(failure_threshold=10)
        client = GatewayClient(
            f"http://127.0.0.1:{port}",
            retry=RetryPolicy(max_attempts=3, **FAST_RETRY),
            breaker=breaker,
        )
        with pytest.raises(OSError):  # URLError(ConnectionRefused) is OSError
            client.predict("m", np.asarray([1.0]))
        assert breaker.stats()["failures"] == 3  # every attempt was counted


class TestClientBreaker:
    def test_breaker_opens_and_rejects_locally(self, scripted):
        server = scripted([503] * 8)
        breaker = CircuitBreaker(failure_threshold=2, recovery_timeout_s=60.0)
        client = GatewayClient(
            server.url, retry=RetryPolicy(max_attempts=1), breaker=breaker
        )
        for _ in range(2):
            with pytest.raises(GatewayHTTPError):
                client.predict("m", np.asarray([1.0]))
        assert breaker.state == "open"
        with pytest.raises(CircuitOpen):
            client.predict("m", np.asarray([1.0]))
        assert server.calls == 2  # the rejected call never hit the wire

    def test_4xx_does_not_trip_breaker(self, scripted):
        server = scripted([404, 404, 404])
        breaker = CircuitBreaker(failure_threshold=2)
        client = GatewayClient(server.url, breaker=breaker)
        for _ in range(3):
            with pytest.raises(GatewayHTTPError):
                client.predict("m", np.asarray([1.0]))
        assert breaker.state == "closed"
        assert breaker.stats()["failures"] == 0

    def test_half_open_probe_success_closes(self, scripted):
        server = scripted([503, 200])
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout_s=5.0, clock=lambda: clock["t"]
        )
        client = GatewayClient(
            server.url, retry=RetryPolicy(max_attempts=1), breaker=breaker
        )
        with pytest.raises(GatewayHTTPError):
            client.predict("m", np.asarray([1.0]))
        assert breaker.state == "open"
        clock["t"] = 6.0  # recovery window passed: next call is the probe
        client.predict("m", np.asarray([1.0]))
        assert breaker.state == "closed"


class TestDeadlines:
    def test_backoff_overrunning_deadline_raises(self, scripted):
        server = scripted([503] * 4)
        client = GatewayClient(
            server.url,
            retry=RetryPolicy(
                max_attempts=4, backoff_base_s=30.0, backoff_max_s=30.0, jitter=0.0
            ),
        )
        t0 = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            client.predict("m", np.asarray([1.0]), deadline_s=0.25)
        assert time.monotonic() - t0 < 5.0  # failed fast, never slept 30s
        assert server.calls == 1

    def test_deadline_unused_on_success(self, scripted):
        server = scripted([200])
        client = GatewayClient(server.url)
        out = client.predict("m", np.asarray([1.0]), deadline_s=30.0)
        np.testing.assert_array_equal(np.asarray(out), [1.0])

    def test_exhausted_deadline_before_attempt(self, scripted):
        server = scripted([503, 503, 200])
        client = GatewayClient(
            server.url,
            retry=RetryPolicy(max_attempts=8, backoff_base_s=0.1,
                              backoff_max_s=0.1, jitter=0.0),
        )
        with pytest.raises(DeadlineExceeded):
            client.predict("m", np.asarray([1.0]), deadline_s=0.15)


class TestWireFormat:
    def test_predict_sends_inputs_json(self, scripted):
        """The resilient path must not change the wire format."""
        server = scripted([200])
        seen = {}
        original = GatewayClient._request

        def spy(self, method, path, body=None, timeout_s=None):
            seen.update(method=method, path=path, body=body)
            return original(self, method, path, body, timeout_s)

        client = GatewayClient(server.url, retry=RetryPolicy(max_attempts=2))
        client._request = spy.__get__(client)
        client.predict("m", np.asarray([1.0, 2.0], dtype=np.float32))
        assert seen["method"] == "POST"
        assert seen["path"] == "/v1/models/m/predict"
        assert json.dumps(seen["body"])  # JSON-able
        # float32 [1.0, 2.0] as a tensor object: its 8 little-endian bytes
        assert seen["body"] == {
            "inputs": {"dtype": "<f4", "shape": [2], "b64": "AACAPwAAAEA="}
        }
