"""The three workloads: direct engine calls, HTTP batch-1, process-replica pool.

Each workload has the same life cycle, driven by ``perfbench/run.py``:
``build`` (quantize + save artifacts), ``references`` (batch-1 ``integer``
outputs for the bitwise check, excluded from set-up time), ``start``
(load + serve), ``warm_up`` (one verified reply per model, which ends
set-up), ``measure`` (one timed phase, traced or not), ``layer_metrics``
(per-layer numbers of a traced run) and ``close``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.compile.runtime import kernel_cache_stats
from repro.deploy import IntegerEngine
from repro.obs.metrics import Histogram

from vsbench import trace as tr
from vsbench.inputs import (
    MODELS,
    ReplyChecker,
    closed_sequence,
    payload_pool,
    reference_rows,
    stack,
)
from vsbench.models import build_artifact
from vsbench.stats import (
    MIN_BEYOND,
    STEAL_WINDOW_S,
    beyond,
    geomean,
    hist_quantile,
    percentile,
    quiet_mask,
    quiet_windows,
    read_steal,
)

#: Engine knobs every workload serves with: batch-invariant per-sample
#: activation scales and float32 glue.
ENGINE_KNOBS = dict(per_sample_scale=True, precision="float32")


@dataclass
class Phase:
    """What one timed phase observed."""

    latency_ms: dict = field(default_factory=lambda: {m: [] for m in MODELS})
    #: per model: when each timed call ended, seconds from the phase start
    done_s: dict = field(default_factory=lambda: {m: [] for m in MODELS})
    #: per model: correct samples of each timed call
    good: dict = field(default_factory=lambda: {m: [] for m in MODELS})
    #: ``(seconds from the phase start, read_steal())`` at each window edge
    steal: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0

    @staticmethod
    def merged(phases: list["Phase"]) -> "Phase":
        out = Phase()
        for ph in phases:
            for m in MODELS:
                out.latency_ms[m] += ph.latency_ms[m]
                out.done_s[m] += [out.elapsed_s + t for t in ph.done_s[m]]
                out.good[m] += ph.good[m]
            out.attempted += ph.attempted
            out.failed += ph.failed
            out.elapsed_s += ph.elapsed_s
        return out

    def poll_steal(self, now: float, end: bool = False) -> None:
        """Sample the host's steal counter at the next window edge and at the ``end``."""
        if end or now >= len(self.steal) * STEAL_WINDOW_S:
            self.steal.append((now, read_steal()))

    def quiet_latency_ms(self, model: str, share: float) -> np.ndarray:
        """Latencies of the calls that ended in the ``share`` of least-stolen windows."""
        lat = np.asarray(self.latency_ms[model], dtype=np.float64)
        return lat[quiet_mask(self.steal, self.done_s[model], share)]

    def quiet_throughput(self, share: float) -> float:
        """Correct samples per second over the ``share`` of least-stolen windows."""
        if len(self.steal) < 2:
            return sum(map(sum, self.good.values())) / self.elapsed_s
        secs = np.diff([t for t, _ in self.steal])[quiet_windows(self.steal, share)].sum()
        done = sum(np.asarray(self.good[m], dtype=np.int64)[
            quiet_mask(self.steal, self.done_s[m], share)].sum() for m in MODELS)
        return float(done / secs)


@contextmanager
def _patched(obj, attr: str, value):
    """Temporarily replace a module or class attribute (restored verbatim)."""
    old = vars(obj)[attr]
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, old)


def _model_id(name: str) -> int:
    return MODELS.index(name)


class Workload:
    name = ""
    fmt = ""
    pool_size = 0
    #: The percentile ``*.tail_ms`` reports. Fixed per workload, so the
    #: parent commit and a change are compared on the same percentile;
    #: a run with fewer than ``MIN_BEYOND`` samples beyond it is invalid.
    #: p90 on every workload: in a 30 s run on a 2-vCPU host engine-b16
    #: keeps ~120-190 calls per model in its quiet windows, and http-b1
    #: and pool-b1 ~300-400, for which ``stats.tail_percentile`` picks p90.
    tail_q = 90.0
    #: ``throughput_sps``, ``*.p50_ms`` and ``*.tail_ms`` count the calls
    #: that ended in this share of the run's one-second windows, those in
    #: which the host stole the least CPU time (``stats.quiet_windows``),
    #: over those windows' time. A call slowed by steal
    #: measures the host, not the program: on the batch-1 serving
    #: workloads every call waits on several thread or process wake-ups,
    #: and the p90 of a whole run followed the run's steal (run-to-run
    #: spread up to 0.5 of the median on a 2-vCPU VM).
    quiet_share = 1.0

    def __init__(self, seed: int, work: Path, tracer: tr.Tracer | None):
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.timings: dict = {}
        self.paths: dict[str, Path] = {}
        self.pools = {m: payload_pool(m, seed, self.pool_size) for m in MODELS}
        self.checker: ReplyChecker | None = None
        self.compile_stats: dict = {}

    # -- set-up ---------------------------------------------------------
    def build(self) -> None:
        for m in MODELS:
            self.paths[m] = build_artifact(m, self.fmt, self.work, self.seed, self.timings)

    def references(self, count: int | None = None) -> None:
        """Batch-1 ``integer`` outputs for the first ``count`` payloads."""
        refs = {}
        for m in MODELS:
            engine = IntegerEngine.load(self.paths[m], backend="integer", **ENGINE_KNOBS)
            refs[m] = reference_rows(engine, self.pools[m][:count])
        self.checker = ReplyChecker(refs)

    def start(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One verified reply per model; raises when a reply is wrong."""
        for m in MODELS:
            if not self.checker.matches(m, 0, self.reply(m, 0)):
                raise RuntimeError(f"{self.name}: warm-up reply of {m} differs from reference")
        with self._span("compile.stats"):
            self.compile_stats = kernel_cache_stats()

    def reply(self, model: str, index: int):
        raise NotImplementedError

    def _load_engine(self, model: str) -> IntegerEngine:
        t0 = time.perf_counter()
        with self._span("deploy.load", _model_id(model)):
            engine = IntegerEngine.load(self.paths[model], backend="auto", **ENGINE_KNOBS)
        self.timings["load_s"] = self.timings.get("load_s", 0.0) + time.perf_counter() - t0
        if self.tracer is not None:
            tr.instrument_engine(self.tracer, engine, _model_id(model))
        return engine

    def _span(self, name: str, model: int = -1, request: int = -1):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, model, request)

    # -- measurement ----------------------------------------------------
    def measure(self, seconds: float, traced: bool) -> Phase:
        raise NotImplementedError

    def thin_tails(self, phase: Phase) -> list[str]:
        """Models whose ``tail_q`` has fewer than ``MIN_BEYOND`` quiet samples beyond it."""
        return [m for m in MODELS
                if beyond(phase.quiet_latency_ms(m, self.quiet_share).size, self.tail_q)
                < MIN_BEYOND - 1e-9]

    def serve_stats(self) -> dict:
        """``ReplicaPool.stats()`` per model (empty when nothing serves)."""
        return {}

    def layer_metrics(self, phases: dict[str, Phase], records: list[np.ndarray]) -> dict:
        """The serving layers' per-layer numbers (zero where a layer is absent)."""
        stats = self.serve_stats()
        hists = [s.queue_wait_hist for s in stats.values() if s.queue_wait_hist]
        wait = Histogram.merged(hists)
        batches = sum(s.batches for s in stats.values())
        finished = sum(s.completed + s.errors for s in stats.values())
        stack_ms = np.concatenate(
            [tr.span_ms(rec, "serve.batch_fn", self_time=True) for rec in records]
        )
        return {
            "serve.runners.stack_ms": ("ms", percentile(stack_ms, 50) if stack_ms.size else 0.0),
            "serve.server.queue_wait_p50_ms": ("ms", hist_quantile(wait, 0.50)),
            "serve.server.queue_wait_p99_ms": ("ms", hist_quantile(wait, 0.99)),
            "serve.server.mean_batch": ("samples", finished / batches if batches else 0.0),
            "serve.server.batches": ("count", batches),
            "serve.worker.overhead_ms": ("ms", 0.0),
            "serve.gateway.overhead_ms": ("ms", 0.0),
            "serve.client.encode_ms": ("ms", 0.0),
            "serve.client.decode_ms": ("ms", 0.0),
            "serve.rejected": ("count", sum(s.rejected for s in stats.values())),
            "serve.errors": ("count", sum(s.errors for s in stats.values())),
            "serve.crashes": ("count", sum(s.crashes for s in stats.values())),
        }

    def budget(self, phase: Phase, layers: dict) -> list[str]:
        """Human-readable lines splitting the traced p50 into its parts."""
        return []

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# engine-b16
# ----------------------------------------------------------------------

class EngineB16(Workload):
    """Closed loop on one thread calling ``IntegerEngine`` at batch 16."""

    name = "engine-b16"
    fmt = "w4a8"
    pool_size = 48
    batch = 16
    #: Drop only the most-stolen quarter: ~190 calls per model leave too
    #: few beyond p90 at a smaller share.
    quiet_share = 0.75

    def start(self) -> None:
        self.engines = {m: self._load_engine(m) for m in MODELS}
        self._seq = closed_sequence(self.seed, self.pool_size, self.batch)

    def reply(self, model: str, index: int):
        return self.engines[model](*stack([self.pools[model][index]]))[0]

    def measure(self, seconds: float, traced: bool) -> Phase:
        ph = Phase()
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = traced
        call_id = tr.NAME_ID["engine.call"]
        t_start = time.perf_counter()
        deadline = t_start + seconds
        ph.poll_steal(0.0)
        k = 0
        while time.perf_counter() < deadline:
            model = MODELS[k % 2]
            idx = next(self._seq)
            args = stack([self.pools[model][j] for j in idx])
            engine = self.engines[model]
            ph.attempted += len(idx)
            t0 = time.perf_counter()
            span = tracer.begin(call_id, k % 2, k) if tracer is not None else -1
            try:
                out = engine(*args)
            except Exception:  # noqa: BLE001 - a failed call is a counted failure
                ph.failed += len(idx)
                continue
            finally:
                if tracer is not None:
                    tracer.end(span)
                k += 1
            t_done = time.perf_counter()
            ph.latency_ms[model].append(1e3 * (t_done - t0))
            ph.done_s[model].append(t_done - t_start)
            ph.poll_steal(t_done - t_start)
            wrong = sum(not self.checker.matches(model, j, row) for j, row in zip(idx, out))
            ph.failed += wrong
            ph.good[model].append(len(idx) - wrong)
        ph.elapsed_s = time.perf_counter() - t_start
        ph.poll_steal(ph.elapsed_s, end=True)
        return ph

    def budget(self, phase: Phase, layers: dict) -> list[str]:
        lines = []
        for m in MODELS:
            p50 = percentile(phase.latency_ms[m], 50)
            q, g = layers[f"quant.layers_ms.{m}"][1], layers[f"nn.glue_ms.{m}"][1]
            lines.append(
                f"{m}: engine call p50 {p50:.2f} ms = quantized layers {q:.2f} + glue {g:.2f}"
                f" + rest {p50 - q - g:.2f} ({100 * (q + g) / p50:.0f}% accounted)"
            )
        return lines


# ----------------------------------------------------------------------
# http-b1
# ----------------------------------------------------------------------

class HttpB1(Workload):
    """One closed-loop ``GatewayClient`` at batch 1 through ``serve_gateway``."""

    name = "http-b1"
    fmt = "w4a4"
    pool_size = 64
    quiet_share = 1 / 3

    def start(self) -> None:
        from repro.serve import GatewayClient, serve_gateway

        if self.tracer is None:
            t0 = time.perf_counter()
            self.gateway = serve_gateway({m: str(self.paths[m]) for m in MODELS})
            self.timings["load_s"] = time.perf_counter() - t0
        else:
            self.gateway = self._traced_gateway(serve_gateway)
        self.client = GatewayClient(self.gateway.url)
        self._seq = closed_sequence(self.seed, self.pool_size, 1)
        if self.tracer is not None:
            from repro.serve import client as client_mod

            # The client's own JSON work runs inside ``predict``; trace it
            # as the client layer's, not the front door's.
            client_mod.json = _TracedJson(self.tracer)

    def _traced_gateway(self, serve_gateway):
        """``serve_gateway`` with its engine loads and batch functions traced.

        The gateway builds engines and ``batch_fn``s internally, so the
        two public entry points it calls are wrapped for the duration of
        the call: ``IntegerEngine.load`` (timed, and its engine
        instrumented) and ``model_batch_fn`` as the registry sees it.
        """
        from repro.serve import registry as registry_mod

        tracer = self.tracer
        load, make_batch_fn = IntegerEngine.load.__func__, registry_mod.model_batch_fn
        owners: dict[int, int] = {}

        def traced_load(cls, path, **kwargs):
            model = _model_id(Path(path).name.split("-")[0])
            t0 = time.perf_counter()
            with tracer.span("deploy.load", model):
                engine = load(cls, path, **kwargs)
            self.timings["load_s"] = self.timings.get("load_s", 0.0) + time.perf_counter() - t0
            tr.instrument_engine(tracer, engine, model)
            owners[id(engine.model)] = model
            return engine

        def traced_batch_fn(module, forward=None):
            fn = make_batch_fn(module, forward=forward)
            return tr.traced_batch_fn(tracer, fn, owners[id(module)])

        with _patched(IntegerEngine, "load", classmethod(traced_load)), \
                _patched(registry_mod, "model_batch_fn", traced_batch_fn):
            return serve_gateway({m: str(self.paths[m]) for m in MODELS})

    def reply(self, model: str, index: int):
        return self.client.predict(model, self.pools[model][index])

    def measure(self, seconds: float, traced: bool) -> Phase:
        from repro.serve.client import encode_inputs

        ph = Phase()
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = traced
        t_start = time.perf_counter()
        deadline = t_start + seconds
        ph.poll_steal(0.0)
        k = 0
        while time.perf_counter() < deadline:
            model = MODELS[k % 2]
            mid = k % 2
            j = int(next(self._seq)[0])
            payload = self.pools[model][j]
            ph.attempted += 1
            t0 = time.perf_counter()
            try:
                with self._span("client.encode", mid, k):
                    inputs = encode_inputs(payload)
                with self._span("client.predict", mid, k):
                    body = self.client.predict(model, inputs, raw=True)
                with self._span("client.decode", mid, k):
                    out = np.asarray(body["outputs"])
            except Exception:  # noqa: BLE001 - refused or failed: a counted failure
                ph.failed += 1
                continue
            finally:
                k += 1
            t_done = time.perf_counter()
            ph.latency_ms[model].append(1e3 * (t_done - t0))
            ph.done_s[model].append(t_done - t_start)
            ph.poll_steal(t_done - t_start)
            ok = self.checker.matches(model, j, out)
            ph.good[model].append(int(ok))
            ph.failed += not ok
        ph.elapsed_s = time.perf_counter() - t_start
        ph.poll_steal(ph.elapsed_s, end=True)
        return ph

    def serve_stats(self) -> dict:
        return _pool_stats(self, self.gateway.registry)

    @staticmethod
    def _client_parts(rec: np.ndarray, model: int | None, pool_ms: float) -> tuple:
        """p50 client encode, client decode and front door (ms).

        Encode is ``encode_inputs`` plus the client's ``json.dumps`` of the
        request, decode the client's ``json.loads`` of the reply plus the
        array conversion; the front door is the rest of ``predict`` (HTTP
        both ways and the gateway's own work) minus the pool's latency.
        """
        enc = tr.request_ms(rec, ("client.encode", "client.json_encode"), model)
        dec = tr.request_ms(rec, ("client.json_decode", "client.decode"), model)
        door = tr.span_ms(rec, "client.predict", model, self_time=True)
        return percentile(enc, 50), percentile(dec, 50), percentile(door, 50) - pool_ms

    def layer_metrics(self, phases, records) -> dict:
        out = super().layer_metrics(phases, records)
        stats = self.serve_stats()
        parts = [self._client_parts(records[0], _model_id(m), stats[m].latency_ms_p50)
                 for m in MODELS]
        enc, dec, door = (float(np.mean(col)) for col in zip(*parts))
        out["serve.gateway.overhead_ms"] = ("ms", door)
        out["serve.client.encode_ms"] = ("ms", enc)
        out["serve.client.decode_ms"] = ("ms", dec)
        return out

    def budget(self, phase: Phase, layers: dict) -> list[str]:
        stats = self.serve_stats()
        rec = self.tracer.records()[0]
        lines = []
        for m in MODELS:
            mid = _model_id(m)
            p50 = percentile(phase.latency_ms[m], 50)
            pool = stats[m].latency_ms_p50
            enc, dec, door = self._client_parts(rec, mid, pool)
            wait = hist_quantile(stats[m].queue_wait_hist, 0.5)
            execute = percentile(tr.span_ms(rec, "serve.batch_fn", mid), 50)
            parts = enc + dec + door + wait + execute
            lines.append(
                f"{m}: client p50 {p50:.2f} ms = encode incl. JSON {enc:.2f} + decode incl."
                f" JSON {dec:.2f} + front door {door:.2f} + pool latency {pool:.2f} [queue wait"
                f" {wait:.2f} + execute {execute:.2f} + batch formation and hand-off, untraced,"
                f" {pool - wait - execute:.2f}]; {100 * parts / p50:.0f}% traced"
            )
        return lines

    def close(self) -> None:
        if self.tracer is not None:
            from repro.serve import client as client_mod

            client_mod.json = json
        gateway = getattr(self, "gateway", None)
        if gateway is not None:
            gateway.stop()


class _TracedJson:
    """Stand-in for the ``json`` module as ``repro.serve.client`` uses it."""

    JSONDecodeError = json.JSONDecodeError

    def __init__(self, tracer: tr.Tracer):
        self._tracer = tracer

    def dumps(self, obj, **kwargs):
        with self._tracer.span("client.json_encode"):
            return json.dumps(obj, **kwargs)

    def loads(self, text, **kwargs):
        with self._tracer.span("client.json_decode"):
            return json.loads(text, **kwargs)


def _pool_stats(wl: Workload, registry) -> dict:
    """``ReplicaPool.stats()`` of each model's stable pool."""
    out = {}
    for m in MODELS:
        pool, _ = registry.get(m).snapshot()
        with wl._span("serve.stats", _model_id(m)):
            out[m] = pool.stats()
    return out


# ----------------------------------------------------------------------
# pool-b1
# ----------------------------------------------------------------------

class PoolB1(Workload):
    """One closed-loop caller at batch 1 into one process replica per model.

    Each call is ``ModelRegistry.get(name).route()`` -> ``ReplicaPool.submit``
    -> ``PendingResponse.wait``; the replicas run at the pool's default
    batching knobs, so with one request in flight every batch is a single
    request that waits out ``max_wait_ms`` for company.
    """

    name = "pool-b1"
    fmt = "w4a4"
    pool_size = 64
    quiet_share = 1 / 3

    def start(self) -> None:
        from repro.serve import ModelRegistry
        from repro.serve.runners import model_batch_fn

        self.registry = ModelRegistry()
        for m in MODELS:
            engine = self._load_engine(m)
            batch_fn = model_batch_fn(engine)
            if self.tracer is not None:
                batch_fn = tr.traced_batch_fn(self.tracer, batch_fn, _model_id(m))
            self.registry.register(m, batch_fn, task=engine.task, replicas=1,
                                   replica_mode="process")
        self._seq = closed_sequence(self.seed, self.pool_size, 1)
        #: per model: submit -> reply as this process sees it (ms), every phase
        self.parent_ms = {m: [] for m in MODELS}

    def reply(self, model: str, index: int):
        pool, _ = self.registry.get(model).route()
        return pool.submit(self.pools[model][index], block=True, timeout=60).wait(60)

    def measure(self, seconds: float, traced: bool) -> Phase:
        ph = Phase()
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = traced
        t_start = time.perf_counter()
        deadline = t_start + seconds
        ph.poll_steal(0.0)
        k = 0
        while time.perf_counter() < deadline:
            model = MODELS[k % 2]
            mid = k % 2
            j = int(next(self._seq)[0])
            ph.attempted += 1
            t0 = time.perf_counter()
            try:
                with self._span("serve.route", mid, k):
                    pool, _ = self.registry.get(model).route()
                t_sub = time.perf_counter()
                with self._span("serve.submit", mid, k):
                    handle = pool.submit(self.pools[model][j], block=True, timeout=60)
                with self._span("serve.wait", mid, k):
                    out = handle.wait(60)
            except Exception:  # noqa: BLE001 - refused or failed: a counted failure
                ph.failed += 1
                continue
            finally:
                k += 1
            t_done = time.perf_counter()
            ph.latency_ms[model].append(1e3 * (t_done - t0))
            ph.done_s[model].append(t_done - t_start)
            ph.poll_steal(t_done - t_start)
            self.parent_ms[model].append(1e3 * (t_done - t_sub))
            ok = self.checker.matches(model, j, out)
            ph.good[model].append(int(ok))
            ph.failed += not ok
        ph.elapsed_s = time.perf_counter() - t_start
        ph.poll_steal(ph.elapsed_s, end=True)
        return ph

    def serve_stats(self) -> dict:
        return _pool_stats(self, self.registry)

    def layer_metrics(self, phases, records) -> dict:
        out = super().layer_metrics(phases, records)
        stats = self.serve_stats()
        over = [percentile(self.parent_ms[m], 50) - stats[m].latency_ms_p50 for m in MODELS]
        out["serve.worker.overhead_ms"] = ("ms", float(np.mean(over)))
        return out

    def budget(self, phase: Phase, layers: dict) -> list[str]:
        stats = self.serve_stats()
        records = self.tracer.records()
        lines = []
        for m in MODELS:
            mid = _model_id(m)
            p50 = percentile(phase.latency_ms[m], 50)
            route = percentile(tr.span_ms(records[0], "serve.route", mid), 50)
            replica = stats[m].latency_ms_p50
            ipc = percentile(self.parent_ms[m], 50) - replica
            wait = hist_quantile(stats[m].queue_wait_hist, 0.5)
            execute = percentile(
                np.concatenate([tr.span_ms(rec, "serve.batch_fn", mid) for rec in records]), 50
            )
            parts = route + ipc + wait + execute
            lines.append(
                f"{m}: call p50 {p50:.2f} ms = route {route:.2f} + worker IPC {ipc:.2f}"
                f" + replica latency {replica:.2f} [queue wait {wait:.2f} + execute"
                f" {execute:.2f} + batch formation, untraced, {replica - wait - execute:.2f}];"
                f" {100 * parts / p50:.0f}% traced"
            )
        return lines

    def close(self) -> None:
        registry = getattr(self, "registry", None)
        if registry is not None:
            registry.stop_all()


WORKLOADS = {cls.name: cls for cls in (EngineB16, HttpB1, PoolB1)}


# ----------------------------------------------------------------------
# per-backend table (traced runs)
# ----------------------------------------------------------------------

TABLE_BACKENDS = ("integer", "integer-prefolded", "compiled")
#: (format, batch) of each table column: engine-b16's and http-b1's.
TABLE_POINTS = (("w4a8", 16), ("w4a4", 1))
TABLE_REPEATS = 7


def backend_table(seed: int, work: Path) -> tuple[dict, int, int]:
    """Median whole-model forward time per backend, model and batch.

    Returns the metrics, the number of checked forwards and how many of
    them differed from the ``integer`` backend's output (every backend
    must agree bitwise).
    """
    metrics, forwards, mismatches, timings = {}, 0, 0, {}
    for fmt, batch in TABLE_POINTS:
        for m in MODELS:
            path = build_artifact(m, fmt, work, seed, timings)
            args = stack(payload_pool(m, seed, batch))
            expect = None
            for backend in TABLE_BACKENDS:
                engine = IntegerEngine.load(path, backend=backend, **ENGINE_KNOBS)
                out = engine(*args)  # first call compiles, if the backend does
                if expect is None:
                    expect = out.tobytes()
                forwards += 1
                mismatches += out.tobytes() != expect
                ts = []
                for _ in range(TABLE_REPEATS):
                    t0 = time.perf_counter()
                    engine(*args)
                    ts.append(1e3 * (time.perf_counter() - t0))
                metrics[f"quant.backend_ms.{backend}.{m}.b{batch}"] = ("ms", percentile(ts, 50))
    return metrics, forwards, mismatches


def forward_metrics(records: list[np.ndarray]) -> dict:
    """Quantized-layer time, GMAC/s and glue per model, over all slots."""
    out = {}
    for m in MODELS:
        mid = _model_id(m)
        parts = [tr.forward_breakdown(rec, mid) for rec in records]
        layers = [x for p in parts for x in p["layers_ms"]]
        glue = [x for p in parts for x in p["glue_ms"]]
        macs = sum(p["macs"] for p in parts)
        secs = sum(p["layer_s"] for p in parts)
        out[f"quant.layers_ms.{m}"] = ("ms", percentile(layers, 50) if layers else 0.0)
        out[f"quant.gmacs.{m}"] = ("GMAC/s", macs / secs / 1e9 if secs else 0.0)
        out[f"nn.glue_ms.{m}"] = ("ms", percentile(glue, 50) if glue else 0.0)
    return out


def trace_overhead(plain: Phase, traced: Phase) -> float:
    """Traced over untraced p50, geometric mean over the two models."""
    return geomean(
        percentile(traced.latency_ms[m], 50) / percentile(plain.latency_ms[m], 50)
        for m in MODELS
    )
