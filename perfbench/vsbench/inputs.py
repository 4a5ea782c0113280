"""Seeded inputs, call sequences and the bitwise reply check.

Everything here is a pure function of the workload seed: the same seed
gives byte-identical payloads and call sequences, so a parent commit and a
change are measured on identical load.
"""

from __future__ import annotations

import numpy as np

from repro.models.bert import MINIBERT_BASE

MODELS = ("resnet", "bert")
IMAGE_SHAPE = (3, 32, 32)
SEQ_LEN = MINIBERT_BASE.max_seq_len
VOCAB = MINIBERT_BASE.vocab_size

_STREAMS = {"resnet": 1, "bert": 2, "sequence": 4, "calib": 5}


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, stream) pair."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), _STREAMS[stream]]))


def payload_pool(model: str, seed: int, count: int) -> list:
    """``count`` single-sample payloads for ``model``.

    Images are standard-normal float32; QA payloads are ``(tokens, mask)``
    with a random valid length per sample (the rest is padding).
    """
    rng = rng_for(seed, model)
    if model == "resnet":
        return [rng.standard_normal(IMAGE_SHAPE).astype(np.float32) for _ in range(count)]
    out = []
    for _ in range(count):
        tokens = rng.integers(0, VOCAB, SEQ_LEN, dtype=np.int64)
        length = int(rng.integers(SEQ_LEN // 3, SEQ_LEN + 1))
        out.append((tokens, np.arange(SEQ_LEN) < length))
    return out


def calibration_batch(model: str, seed: int, rows: int = 8) -> tuple:
    """Model arguments for the PTQ calibration pass."""
    rng = rng_for(seed, "calib")
    if model == "resnet":
        return (rng.standard_normal((rows, *IMAGE_SHAPE)).astype(np.float32),)
    tokens = rng.integers(0, VOCAB, (rows, SEQ_LEN), dtype=np.int64)
    return (tokens, np.ones_like(tokens, dtype=bool))


def stack(payloads: list) -> tuple:
    """Batched model arguments from single-sample payloads."""
    if isinstance(payloads[0], tuple):
        return tuple(np.stack([p[i] for p in payloads]) for i in range(len(payloads[0])))
    return (np.stack(payloads),)


def closed_sequence(seed: int, pool_size: int, batch: int):
    """Endless payload-index arrays for closed-loop calls of ``batch`` samples."""
    rng = rng_for(seed, "sequence")
    while True:
        yield rng.integers(0, pool_size, batch, dtype=np.int64)


class ReplyChecker:
    """Byte-for-byte comparison of replies against batch-1 references.

    References come from the ``integer`` backend at batch 1. A reply may
    arrive as float32 (engine rows, pool replies) or as the float64 that
    JSON decoding gives; the latter must round-trip through float32
    exactly, which the float32 -> JSON -> float64 path always does.
    """

    def __init__(self, references: dict[str, list[np.ndarray]]):
        self.refs = {m: [np.ascontiguousarray(r, dtype=np.float32) for r in rows]
                     for m, rows in references.items()}

    def matches(self, model: str, index: int, reply) -> bool:
        ref = self.refs[model][index]
        arr = np.asarray(reply)
        if arr.shape != ref.shape or arr.dtype.kind != "f":
            return False
        if arr.dtype != np.float32:
            as32 = arr.astype(np.float32)
            if not np.array_equal(as32.astype(arr.dtype), arr):
                return False
            arr = as32
        return np.ascontiguousarray(arr).tobytes() == ref.tobytes()


def reference_rows(engine, payloads: list) -> list[np.ndarray]:
    """Each payload's output row, one batch-1 call at a time."""
    return [np.array(engine(*stack([p]))[0], dtype=np.float32) for p in payloads]
