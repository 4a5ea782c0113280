"""In-memory span tracing around calls into the program's public API.

Spans live in fixed-size buffers of shared anonymous memory. The owning
process writes slot 0; each process forked after the :class:`Tracer` is
made (a ``replica_mode="process"`` worker) takes the next free slot, so
spans recorded inside replica children are readable by the parent after
they exit. One shared flag turns recording on and off in every process
at once. Nothing is written to disk until the benchmark asks for it.

A record is ``(name, model, start, end, parent, request, macs)``:
``parent`` is the index of the enclosing span of the same thread in the
same slot (-1 for a root), ``request`` the caller's request id (-1 when
the recording side cannot know it, e.g. inside a batch). A span opened
without a model or request id takes its parent's.
"""

from __future__ import annotations

import mmap
import os
import threading
import time
from contextlib import contextmanager

import numpy as np

SPAN_NAMES = (
    "engine.call",      # IntegerEngine.__call__
    "nn.forward",       # the engine's top-level module forward
    "quant.layer",      # one QuantizedLayer instance's forward
    "serve.batch_fn",   # model_batch_fn's batch_fn
    "serve.route",      # ModelRegistry.get(name).route()
    "serve.submit",     # ReplicaPool.submit
    "serve.wait",       # PendingResponse.wait
    "client.predict",   # GatewayClient.predict
    "client.encode",    # encode_inputs
    "client.decode",    # reply outputs -> array
    "client.json_encode",  # the client's json.dumps of a request
    "client.json_decode",  # the client's json.loads of a reply
    "serve.stats",      # ReplicaPool.stats()
    "compile.stats",    # kernel_cache_stats()
    "deploy.load",      # IntegerEngine.load
)
NAME_ID = {name: i for i, name in enumerate(SPAN_NAMES)}
COLS = 7
NAME, MODEL, START, END, PARENT, REQ, MACS = range(COLS)


class _Slot:
    """One process's span buffer: a count header plus ``capacity`` records."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._mem = mmap.mmap(-1, 8 * (1 + capacity * COLS))
        flat = np.frombuffer(self._mem, dtype=np.float64)
        self.header = flat[:1]
        self.rec = flat[1:].reshape(capacity, COLS)

    def snapshot(self) -> np.ndarray:
        n = min(int(self.header[0]), self.capacity)
        return self.rec[:n].copy()


class Tracer:
    """Span recorder shared by this process and its forked children."""

    def __init__(self, capacity: int = 200_000, child_slots: int = 3):
        self._slots = [_Slot(capacity) for _ in range(1 + child_slots)]
        self._flag_mem = mmap.mmap(-1, 8)
        self._flag = np.frombuffer(self._flag_mem, dtype=np.float64)
        self._slot: _Slot | None = self._slots[0]
        self._next_child = 1
        self._fork_slot = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        os.register_at_fork(before=self._before_fork, after_in_child=self._after_fork)

    # -- fork handling --------------------------------------------------
    def _before_fork(self) -> None:
        self._fork_slot = self._next_child
        self._next_child += 1

    def _after_fork(self) -> None:
        slot = self._fork_slot
        self._slot = self._slots[slot] if slot < len(self._slots) else None
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording --------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return bool(self._flag[0])

    @enabled.setter
    def enabled(self, on: bool) -> None:
        self._flag[0] = 1.0 if on else 0.0

    def begin(self, name: int, model: int = -1, request: int = -1) -> int:
        slot = self._slot
        if not self._flag[0] or slot is None:
            return -1
        with self._lock:
            i = int(slot.header[0])
            slot.header[0] = i + 1
        if i >= slot.capacity:
            return -1
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        if parent >= 0:
            model = slot.rec[parent, MODEL] if model < 0 else model
            request = slot.rec[parent, REQ] if request < 0 else request
        slot.rec[i] = (name, model, time.perf_counter(), np.nan, parent, request, 0.0)
        stack.append(i)
        return i

    def end(self, i: int, macs: float = 0.0) -> None:
        if i < 0:
            return
        t = time.perf_counter()
        rec = self._slot.rec[i]
        rec[END] = t
        rec[MACS] = macs
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str, model: int = -1, request: int = -1):
        i = self.begin(NAME_ID[name], model, request)
        try:
            yield
        finally:
            self.end(i)

    def records(self) -> list[np.ndarray]:
        """Every slot's finished records (call once the children have exited)."""
        out = []
        for slot in self._slots:
            rec = slot.snapshot()
            open_ = ~np.isfinite(rec[:, END])  # still open: count as empty
            rec[open_, END] = rec[open_, START]
            out.append(rec)
        return out

    def dump(self, path) -> None:
        """Write every slot's records to one ``.npz`` file."""
        np.savez_compressed(path, **{f"slot{i}": r for i, r in enumerate(self.records())},
                            names=np.array(SPAN_NAMES))


# ----------------------------------------------------------------------
# wrappers installed from the benchmark (nothing inside ``src/`` changes)
# ----------------------------------------------------------------------

def wrap_forward(tracer: Tracer, module, name: str, model: int, macs: bool = False) -> None:
    """Shadow one module instance's ``forward`` with a traced call."""
    inner = module.forward
    name_id = NAME_ID[name]

    def forward(*args, **kwargs):
        i = tracer.begin(name_id, model)
        try:
            return inner(*args, **kwargs)
        finally:
            tracer.end(i, module.last_macs if macs else 0.0)

    module.forward = forward  # instance attribute wins over the class method


def instrument_engine(tracer: Tracer, engine, model: int) -> None:
    """Trace the engine's forward and every ``QuantizedLayer`` in it."""
    from repro.quant.qlayers import quant_layers

    for _, layer in quant_layers(engine.model):
        wrap_forward(tracer, layer, "quant.layer", model, macs=True)
    wrap_forward(tracer, engine.model, "nn.forward", model)


def traced_batch_fn(tracer: Tracer, batch_fn, model: int):
    name_id = NAME_ID["serve.batch_fn"]

    def traced(payloads):
        i = tracer.begin(name_id, model)
        try:
            return batch_fn(payloads)
        finally:
            tracer.end(i)

    return traced


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

def self_times(rec: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its children cover (s)."""
    dur = rec[:, END] - rec[:, START]
    children: dict[int, list[int]] = {}
    for i, parent in enumerate(rec[:, PARENT].astype(np.int64)):
        if parent >= 0:
            children.setdefault(int(parent), []).append(i)
    out = dur.copy()
    for parent, kids in children.items():
        spans = sorted((rec[k, START], rec[k, END]) for k in kids)
        covered, cur_lo, cur_hi = 0.0, None, None
        lo_p, hi_p = rec[parent, START], rec[parent, END]
        for lo, hi in spans:
            lo, hi = max(lo, lo_p), min(hi, hi_p)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[parent] = dur[parent] - covered
    return out


def forward_breakdown(rec: np.ndarray, model: int) -> dict:
    """Per-forward quantized-layer and glue time (ms) for one model.

    ``layers_ms``/``glue_ms`` are lists over the model's forward spans:
    the summed self time of the ``QuantizedLayer`` spans directly under
    each forward, and the forward's own self time. ``macs``/``layer_s``
    are totals for the GMAC/s ratio.
    """
    if rec.size == 0:
        return {"layers_ms": [], "glue_ms": [], "macs": 0.0, "layer_s": 0.0}
    selfs = self_times(rec)
    name = rec[:, NAME].astype(np.int64)
    parent = rec[:, PARENT].astype(np.int64)
    fwd = np.flatnonzero((name == NAME_ID["nn.forward"]) & (rec[:, MODEL] == model))
    layer = name == NAME_ID["quant.layer"]
    layers_ms, glue_ms, macs, layer_s = [], [], 0.0, 0.0
    for f in fwd:
        kids = np.flatnonzero(layer & (parent == f))
        t = float(selfs[kids].sum())
        layers_ms.append(1e3 * t)
        glue_ms.append(1e3 * float(selfs[f]))
        macs += float(rec[kids, MACS].sum())
        layer_s += t
    return {"layers_ms": layers_ms, "glue_ms": glue_ms, "macs": macs, "layer_s": layer_s}


def span_ms(rec: np.ndarray, name: str, model: int | None = None, self_time: bool = False):
    """Durations (or self times) in ms of every span called ``name``."""
    if rec.size == 0:
        return np.array([])
    mask = rec[:, NAME] == NAME_ID[name]
    if model is not None:
        mask &= rec[:, MODEL] == model
    vals = self_times(rec) if self_time else rec[:, END] - rec[:, START]
    return 1e3 * vals[mask]


def request_ms(rec: np.ndarray, names: tuple[str, ...], model: int | None = None):
    """Per request id, the summed durations (ms) of its spans called ``names``."""
    if rec.size == 0:
        return np.array([])
    mask = np.isin(rec[:, NAME], [NAME_ID[n] for n in names]) & (rec[:, REQ] >= 0)
    if model is not None:
        mask &= rec[:, MODEL] == model
    ids, inverse = np.unique(rec[mask, REQ], return_inverse=True)
    return 1e3 * np.bincount(inverse, weights=(rec[mask, END] - rec[mask, START]),
                             minlength=ids.size)
