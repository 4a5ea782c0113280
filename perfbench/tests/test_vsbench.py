"""Tests for the benchmark's own logic (inputs, statistics, reply check, spans)."""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from vsbench import trace as tr  # noqa: E402
from vsbench.inputs import (  # noqa: E402
    ReplyChecker,
    closed_sequence,
    payload_pool,
)
from vsbench.stats import (  # noqa: E402
    MIN_BEYOND,
    beyond,
    hist_quantile,
    quiet_mask,
    tail_percentile,
)
from vsbench.workloads import WORKLOADS, Phase  # noqa: E402


def _pool_bytes(pool) -> bytes:
    parts = []
    for p in pool:
        for arr in p if isinstance(p, tuple) else (p,):
            parts.append(np.ascontiguousarray(arr).tobytes())
    return b"".join(parts)


@pytest.mark.parametrize("model", ["resnet", "bert"])
def test_same_seed_gives_identical_payloads(model):
    a, b = payload_pool(model, 7, 5), payload_pool(model, 7, 5)
    assert _pool_bytes(a) == _pool_bytes(b)
    assert _pool_bytes(a) != _pool_bytes(payload_pool(model, 8, 5))


def test_closed_sequence_is_seeded():
    a, b = closed_sequence(5, 48, 16), closed_sequence(5, 48, 16)
    for _ in range(3):
        assert next(a).tobytes() == next(b).tobytes()
    c = closed_sequence(6, 48, 16)
    assert b"".join(next(a).tobytes() for _ in range(3)) != \
        b"".join(next(c).tobytes() for _ in range(3))


@pytest.mark.parametrize(
    "n, expected",
    [(5, 50.0), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    assert beyond(n, expected) >= MIN_BEYOND - 1e-9 or expected == 50.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tail_percentile_is_fixed_and_thin_runs_are_flagged(name):
    cls = WORKLOADS[name]
    assert cls.tail_q == 90.0
    wl = cls.__new__(cls)  # thin_tails needs no set-up
    ph = Phase()
    ph.latency_ms = {"resnet": [1.0] * 100, "bert": [1.0] * 5000}
    ph.done_s = {m: np.linspace(0.0, 1.0, len(v)).tolist() for m, v in ph.latency_ms.items()}
    assert wl.thin_tails(ph) == []  # 5000 samples still report p90
    ph.latency_ms["resnet"], ph.done_s["resnet"] = [1.0] * 99, [0.5] * 99
    assert wl.thin_tails(ph) == ["resnet"]


def test_quiet_windows_are_picked_by_steal_alone():
    # Four 1 s windows; the host stole 0, 9, 1 and 5 ticks in them.
    steal = [(0.0, 100), (1.0, 100), (2.0, 109), (3.0, 110), (4.0, 115)]
    done = [0.5, 1.5, 2.5, 3.5, 4.0]
    assert quiet_mask(steal, done, 0.5).tolist() == [True, False, True, False, False]
    assert quiet_mask(steal, done, 0.75).tolist() == [True, False, True, True, True]
    assert quiet_mask(steal, done, 1.0).all()
    ph = Phase()
    ph.steal = steal
    ph.latency_ms["bert"], ph.done_s["bert"] = [50.0, 1.0, 2.0, 1.0, 1.0], done
    # The slowest call sits in a quiet window and stays; fast ones in stolen windows go.
    assert ph.quiet_latency_ms("bert", 0.5).tolist() == [50.0, 2.0]
    # Throughput: correct samples of calls in quiet windows over those windows' seconds.
    ph.good["bert"] = [1, 1, 0, 1, 1]
    ph.good["resnet"], ph.done_s["resnet"] = [16, 16], [0.2, 1.2]
    assert ph.quiet_throughput(0.5) == pytest.approx((16 + 1 + 0) / 2.0)
    assert quiet_mask(steal[:1], done, 0.5).all()  # one sample: no windows, all calls count


def _checker():
    ref = np.linspace(-3.0, 3.0, 12, dtype=np.float32).reshape(3, 4)
    return ref, ReplyChecker({"resnet": [ref]})


def test_checker_accepts_exact_reply_and_json_round_trip():
    ref, checker = _checker()
    assert checker.matches("resnet", 0, ref.copy())
    assert checker.matches("resnet", 0, np.asarray(json.loads(json.dumps(ref.tolist()))))


def test_checker_flags_one_ulp_perturbation():
    ref, checker = _checker()
    bad = ref.copy()
    bad[1, 2] = np.nextafter(bad[1, 2], np.float32(np.inf))
    assert not checker.matches("resnet", 0, bad)
    assert not checker.matches("resnet", 0, bad.astype(np.float64))


def test_checker_flags_float64_not_representable_in_float32():
    ref, checker = _checker()
    near = ref.astype(np.float64)
    near[0, 0] += 1e-12  # rounds back to the same float32: must still fail
    assert not checker.matches("resnet", 0, near)


def test_checker_flags_shape_mismatch():
    ref, checker = _checker()
    assert not checker.matches("resnet", 0, ref.reshape(4, 3))


def test_hist_quantile_interpolates_within_bucket():
    snap = {"bounds": [1.0, 2.0, 5.0], "counts": [0, 10, 10, 0], "sum": 0.0, "count": 20}
    assert hist_quantile(snap, 0.25) == pytest.approx(1.5)
    assert hist_quantile(snap, 0.75) == pytest.approx(3.5)
    assert hist_quantile(None, 0.5) == 0.0


def test_self_time_subtracts_union_of_children():
    rec = np.zeros((4, tr.COLS))
    rec[:, tr.PARENT] = [-1, 0, 0, 0]
    rec[:, tr.START] = [0.0, 1.0, 2.0, 6.0]
    rec[:, tr.END] = [10.0, 3.0, 4.0, 7.0]  # children cover [1, 4] and [6, 7]
    assert tr.self_times(rec).tolist() == [6.0, 2.0, 2.0, 1.0]


def test_tracer_nests_spans_and_collects_forked_child():
    tracer = tr.Tracer(capacity=16, child_slots=1)
    tracer.enabled = True
    with tracer.span("nn.forward", 0, 7):
        with tracer.span("quant.layer", 0):
            pass
    pid = os.fork()
    if pid == 0:  # child: record into the next slot, then leave at once
        try:
            with tracer.span("serve.batch_fn", 1):
                pass
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    parent, child = tracer.records()
    assert parent[:, tr.NAME].tolist() == [tr.NAME_ID["nn.forward"], tr.NAME_ID["quant.layer"]]
    assert parent[:, tr.PARENT].tolist() == [-1, 0]
    assert parent[0, tr.REQ] == 7
    assert child[:, tr.NAME].tolist() == [tr.NAME_ID["serve.batch_fn"]]
    tracer.enabled = False
    assert tracer.begin(tr.NAME_ID["nn.forward"]) == -1


def test_child_spans_inherit_request_and_sum_per_request():
    tracer = tr.Tracer(capacity=16, child_slots=0)
    tracer.enabled = True
    for k in (3, 4):
        with tracer.span("client.encode", 1, k):
            pass
        with tracer.span("client.predict", 1, k):
            with tracer.span("client.json_encode"):
                pass
    (rec,) = tracer.records()
    json_rows = rec[rec[:, tr.NAME] == tr.NAME_ID["client.json_encode"]]
    assert json_rows[:, tr.REQ].tolist() == [3, 4]
    assert json_rows[:, tr.MODEL].tolist() == [1, 1]
    per_req = tr.request_ms(rec, ("client.encode", "client.json_encode"), model=1)
    mask = np.isin(rec[:, tr.NAME], [tr.NAME_ID["client.encode"], tr.NAME_ID["client.json_encode"]])
    assert len(per_req) == 2
    assert per_req.sum() == pytest.approx(1e3 * (rec[mask, tr.END] - rec[mask, tr.START]).sum())
    assert tr.request_ms(rec, ("client.encode",), model=0).size == 0
