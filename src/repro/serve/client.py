"""Minimal stdlib HTTP client for the serving gateway.

Used by the CLI self-traffic mode, the scaling benchmark, and the test
suite — anything that wants to speak the gateway's JSON protocol without
hand-rolling ``urllib`` calls. Numeric arrays are sent as tensor objects
``{"dtype", "shape", "b64"}`` — the base64 of their C-contiguous bytes,
~4x smaller than decimal JSON and bitwise exact; tuple payloads (QA:
``(tokens, mask)``) are sent as a two-element list of them. The gateway
reads them back with :func:`decode_inputs`.

Resilience (PR 6) — all opt-in, so a bare ``GatewayClient(url)`` behaves
exactly as before:

- ``retry=RetryPolicy(...)`` retries **predict only** (the one
  idempotent mutation-free POST) on the retryable statuses — 429
  (overloaded) and 503 (pool down, supervisor recovery in flight) by
  default — and on connection resets, with exponential backoff plus
  seeded jitter so a thundering herd of clients decorrelates.
- ``breaker=CircuitBreaker(...)`` stops hammering a gateway that keeps
  failing: ``failure_threshold`` consecutive predict failures open the
  circuit (instant :class:`CircuitOpen`, no socket touched); after
  ``recovery_timeout_s`` one half-open probe request is let through —
  success closes the circuit, failure re-opens it.
- ``deadline_s=...`` on :meth:`GatewayClient.predict` bounds the *whole*
  call — attempts, backoffs, and all; a backoff that would overrun the
  deadline raises :class:`DeadlineExceeded` instead of sleeping.

Observability (PR 7): ``predict(request_id=..., trace=True)`` propagates
``X-Request-Id`` and asks for the span timeline inline;
:meth:`GatewayClient.metrics_text`, :meth:`GatewayClient.traces`, and
:meth:`GatewayClient.events` wrap the ``/metrics``, ``/v1/traces``, and
``/v1/events`` endpoints.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from random import Random

import numpy as np

#: dtype kinds a tensor object may carry: bool, signed, unsigned, float.
_TENSOR_KINDS = "biuf"


class GatewayHTTPError(RuntimeError):
    """Non-2xx gateway response, carrying the status and decoded body."""

    def __init__(self, status: int, body: dict):
        self.status = status
        self.body = body
        super().__init__(f"HTTP {status}: {body.get('error', body)}")


class GatewayOverloaded(GatewayHTTPError):
    """429: every replica queue of the target model was full."""


class CircuitOpen(RuntimeError):
    """The client's circuit breaker is rejecting requests locally."""


class DeadlineExceeded(TimeoutError):
    """A predict's per-request deadline ran out across its attempts."""


@dataclass(frozen=True)
class RetryPolicy:
    """Predict retry knobs: bounded attempts, decorrelated backoff.

    The k-th retry waits ``min(backoff_base_s * 2**(k-1),
    backoff_max_s)`` scaled by a seeded jitter in ``[1 - jitter,
    1 + jitter]``. Only ``retry_statuses`` (and connection-level
    failures) are retried — a 400/404/500 is the caller's bug or the
    model's bug, and repeating it is noise.
    """

    max_attempts: int = 4
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    jitter: float = 0.5
    retry_statuses: tuple[int, ...] = (429, 503)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_s < 0:
            raise ValueError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.backoff_max_s < self.backoff_base_s:
            raise ValueError(
                f"backoff_max_s ({self.backoff_max_s}) must be >= "
                f"backoff_base_s ({self.backoff_base_s})"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay_s(self, attempt: int, rng: Random) -> float:
        """Backoff before retrying after the ``attempt``-th try (1-based)."""
        base = min(self.backoff_base_s * (2 ** max(attempt - 1, 0)), self.backoff_max_s)
        if self.jitter == 0.0:
            return base
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


class CircuitBreaker:
    """Closed -> open -> half-open failure gate for one gateway.

    Thread-safe; shared by every request the owning client makes.
    ``check()`` raises :class:`CircuitOpen` while the circuit is open
    (and admits exactly one probe once ``recovery_timeout_s`` passes);
    the client reports each request's outcome back through
    ``record_success()`` / ``record_failure()``.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        recovery_timeout_s: float = 5.0,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if recovery_timeout_s <= 0:
            raise ValueError(
                f"recovery_timeout_s must be > 0, got {recovery_timeout_s}"
            )
        self.failure_threshold = failure_threshold
        self.recovery_timeout_s = recovery_timeout_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0  # consecutive, while closed
        self._reopen_ts = 0.0
        self._probe_in_flight = False
        # cumulative counters for stats()
        self.opens = 0
        self.rejected = 0
        self.successes = 0
        self.failures = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def check(self) -> None:
        """Admit or reject one request *before* it touches the network."""
        with self._lock:
            if self._state == "closed":
                return
            if self._state == "open":
                if self._clock() < self._reopen_ts:
                    self.rejected += 1
                    raise CircuitOpen(
                        f"circuit open for another "
                        f"{self._reopen_ts - self._clock():.2f}s"
                    )
                self._state = "half_open"
                self._probe_in_flight = False
            # half-open: exactly one probe at a time
            if self._probe_in_flight:
                self.rejected += 1
                raise CircuitOpen("circuit half-open; probe already in flight")
            self._probe_in_flight = True

    def record_success(self) -> None:
        with self._lock:
            self.successes += 1
            self._failures = 0
            self._probe_in_flight = False
            if self._state != "closed":
                self._state = "closed"

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            self._probe_in_flight = False
            if self._state == "half_open":
                self._trip()
            elif self._state == "closed":
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._trip()

    def _trip(self) -> None:  # caller holds the lock
        self._state = "open"
        self._failures = 0
        self._reopen_ts = self._clock() + self.recovery_timeout_s
        self.opens += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "failure_threshold": self.failure_threshold,
                "recovery_timeout_s": self.recovery_timeout_s,
                "opens": self.opens,
                "rejected": self.rejected,
                "successes": self.successes,
                "failures": self.failures,
            }


def _encode_tensor(a) -> dict | list:
    """One array -> a JSON-able tensor object (non-numeric: nested lists)."""
    a = np.asarray(a, order="C")  # ascontiguousarray would lift 0-d to 1-d
    if a.dtype.kind not in _TENSOR_KINDS:
        return a.tolist()
    return {"dtype": a.dtype.str, "shape": list(a.shape),
            "b64": base64.b64encode(a.data).decode("ascii")}


def _decode_tensor(obj: dict) -> np.ndarray:
    """Tensor object -> owned ndarray; ``ValueError`` on anything malformed.

    The object is untrusted request input: only numeric dtypes, a list of
    non-negative int dims, strict base64, exactly ``prod(shape) * itemsize``
    bytes, and (for bool) bytes of 0 or 1 are accepted.
    """
    if set(obj) != {"dtype", "shape", "b64"}:
        raise ValueError(
            f"tensor object needs exactly the keys dtype, shape, b64; got {sorted(obj)}"
        )
    dtype, shape, data = obj["dtype"], obj["shape"], obj["b64"]
    if not isinstance(dtype, str):
        raise ValueError(f"tensor dtype must be a string, got {dtype!r}")
    try:
        dtype = np.dtype(dtype)
    except TypeError as exc:
        raise ValueError(f"unknown tensor dtype {obj['dtype']!r}") from exc
    if dtype.kind not in _TENSOR_KINDS:
        raise ValueError(f"tensor dtype {obj['dtype']!r} is not boolean or numeric")
    if not isinstance(shape, list) or not all(
        type(d) is int and d >= 0 for d in shape
    ):
        raise ValueError(f"tensor shape must be a list of non-negative ints, got {shape!r}")
    if not isinstance(data, str):
        raise ValueError("tensor b64 must be a string")
    try:
        raw = base64.b64decode(data, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"tensor b64 is not strict base64: {exc}") from None
    expected = math.prod(shape) * dtype.itemsize
    if len(raw) != expected:
        raise ValueError(
            f"tensor of shape {shape} and dtype {dtype.str} needs {expected} "
            f"bytes, b64 decodes to {len(raw)}"
        )
    if dtype.kind == "b" and raw.translate(None, b"\0\1"):
        raise ValueError("bool tensor bytes must be 0 or 1")
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def encode_inputs(payload) -> dict | list:
    """Server payload (array or tuple of arrays) -> JSON-able tensor objects."""
    if isinstance(payload, tuple):
        return [_encode_tensor(f) for f in payload]
    return _encode_tensor(payload)


def decode_inputs(inputs):
    """Predict ``inputs`` -> the same with every tensor object an ndarray.

    Tensor objects may be the whole of ``inputs`` or fields of a top-level
    list (QA); nested lists pass through for the model's payload codec.
    """
    if isinstance(inputs, dict):
        return _decode_tensor(inputs)
    if isinstance(inputs, list):
        return [_decode_tensor(f) if isinstance(f, dict) else f for f in inputs]
    return inputs


#: Connection-level failures worth a retry: refused/reset sockets and
#: timeouts, bare or wrapped in ``URLError`` by ``urlopen``.
_CONNECTION_ERRORS = (urllib.error.URLError, ConnectionError, TimeoutError, OSError)


class GatewayClient:
    """Tiny synchronous client; one instance per base URL, thread-safe.

    ``retry`` and ``breaker`` (both optional) apply to :meth:`predict`
    only — the other verbs (load/swap/unload) mutate serving state and
    must fail loudly, not repeat themselves.
    """

    def __init__(
        self,
        url: str,
        timeout_s: float = 60.0,
        *,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ):
        self.url = url.rstrip("/")
        self.timeout_s = timeout_s
        self.retry = retry
        self.breaker = breaker
        self._rng = Random(retry.seed if retry is not None else 0)
        self._rng_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, body: dict | None = None,
        timeout_s: float | None = None, headers: dict | None = None,
        raw: bool = False,
    ):
        data = json.dumps(body).encode() if body is not None else None
        hdrs = {"Content-Type": "application/json"} if data else {}
        if headers:
            hdrs.update(headers)
        req = urllib.request.Request(
            f"{self.url}{path}", data=data, method=method, headers=hdrs,
        )
        try:
            timeout = self.timeout_s if timeout_s is None else timeout_s
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                if raw:
                    return resp.read().decode()
                return json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read())
            except (json.JSONDecodeError, OSError):
                payload = {"error": str(exc)}
            cls = GatewayOverloaded if exc.code == 429 else GatewayHTTPError
            raise cls(exc.code, payload) from None

    def _jittered_delay(self, policy: RetryPolicy, attempt: int) -> float:
        with self._rng_lock:  # one shared seeded stream, race-free
            return policy.delay_s(attempt, self._rng)

    def _resilient_post(
        self, path: str, body: dict, deadline_s: float | None,
        headers: dict | None = None,
    ) -> dict:
        """Predict's retry loop: breaker gate, bounded attempts, deadline."""
        policy = self.retry if self.retry is not None else RetryPolicy(max_attempts=1)
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        attempt = 0
        while True:
            attempt += 1
            if self.breaker is not None:
                self.breaker.check()
            timeout_s = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlineExceeded(
                        f"deadline of {deadline_s}s exhausted after "
                        f"{attempt - 1} attempt(s)"
                    )
                timeout_s = min(self.timeout_s, remaining)
            try:
                # headers only when set, so test doubles with the old
                # _request signature keep working
                extra = {"headers": headers} if headers else {}
                response = self._request(
                    "POST", path, body, timeout_s=timeout_s, **extra
                )
            except GatewayHTTPError as exc:
                # 429/5xx are the gateway failing; 4xx is this caller's
                # bug and must not poison the shared breaker.
                if self.breaker is not None and (exc.status == 429 or exc.status >= 500):
                    self.breaker.record_failure()
                if exc.status not in policy.retry_statuses:
                    raise
                failure = exc
            except _CONNECTION_ERRORS as exc:
                if self.breaker is not None:
                    self.breaker.record_failure()
                failure = exc
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                return response
            if attempt >= policy.max_attempts:
                raise failure
            delay = self._jittered_delay(policy, attempt)
            if deadline is not None and time.monotonic() + delay > deadline:
                raise DeadlineExceeded(
                    f"deadline of {deadline_s}s cannot absorb a {delay:.2f}s "
                    f"backoff after attempt {attempt}"
                ) from failure
            time.sleep(delay)

    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def models(self) -> list[dict]:
        return self._request("GET", "/v1/models")["models"]

    def model(self, name: str) -> dict:
        return self._request("GET", f"/v1/models/{name}")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def metrics_text(self) -> str:
        """Raw Prometheus exposition text from ``GET /metrics``."""
        return self._request("GET", "/metrics", raw=True)

    def traces(self, *, sort: str = "recent", limit: int = 20) -> dict:
        """Recorded request traces (``sort`` is ``recent`` or ``slowest``)."""
        return self._request("GET", f"/v1/traces?sort={sort}&limit={limit}")

    def events(self, *, source: str | None = None, model: str | None = None,
               event: str | None = None, limit: int | None = None) -> dict:
        """Filtered view of the shared event bus (``GET /v1/events``)."""
        params = [
            f"{k}={v}"
            for k, v in (("source", source), ("model", model),
                         ("event", event), ("limit", limit))
            if v is not None
        ]
        query = "?" + "&".join(params) if params else ""
        return self._request("GET", f"/v1/events{query}")

    def predict(self, name: str, inputs, *, raw: bool = False,
                deadline_s: float | None = None, request_id: str | None = None,
                trace: bool = False):
        """POST one prediction; returns the outputs array.

        ``inputs`` may be a numpy array, a tuple of arrays (QA; both sent
        as tensor objects), or already-JSON-able inputs: nested lists or
        the output of :func:`encode_inputs`. ``raw=True`` returns the whole
        response dict (model, version, outputs, cached) instead.
        ``deadline_s`` bounds the entire call — every retry attempt and
        backoff included — raising :class:`DeadlineExceeded` past it.
        ``request_id`` is sent as ``X-Request-Id`` so the gateway's trace
        carries the caller's id; ``trace=True`` asks the gateway to embed
        the span timeline in the response body (implies ``raw``-style
        access — read ``result["trace"]``).
        """
        if isinstance(inputs, (np.ndarray, tuple)):
            inputs = encode_inputs(inputs)
        body: dict = {"inputs": inputs}
        if trace:
            body["trace"] = True
        headers = {"X-Request-Id": request_id} if request_id else None
        body = self._resilient_post(
            f"/v1/models/{name}/predict", body, deadline_s, headers=headers
        )
        return body if raw or trace else np.asarray(body["outputs"])

    def load(self, name: str, artifact: str, **options) -> dict:
        return self._request(
            "POST", f"/v1/models/{name}/load", {"artifact": str(artifact), **options}
        )

    def swap(self, name: str, artifact: str, **options) -> dict:
        """Zero-downtime rollout: flip ``name`` to a new artifact version.

        Returns the swap report (old/new version, replica count,
        ``outcome`` — ``"rolled_back"`` means a canary refused the new
        version and the old one kept serving). A 4xx raise means the
        previous version never stopped serving.
        """
        return self._request(
            "POST", f"/v1/models/{name}/swap", {"artifact": str(artifact), **options}
        )

    def unload(self, name: str) -> dict:
        return self._request("POST", f"/v1/models/{name}/unload", {})
