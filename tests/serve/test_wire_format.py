"""Predict wire format: tensor objects vs nested lists, and admission.

A request array travels either as a tensor object ``{"dtype", "shape",
"b64"}`` (what ``GatewayClient`` sends) or as nested JSON lists (curl,
hand-written clients). Both must serve bitwise-identical outputs, share
response-cache entries, and every malformed tensor object — like an
image of the wrong shape — must be a 400 that never reaches a queue.
"""

import base64
import json
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.serve import Gateway, GatewayClient, GatewayHTTPError, ModelRegistry
from repro.serve.client import decode_inputs, encode_inputs

IMAGE_SHAPE = (3, 16, 16)


@pytest.fixture(scope="module")
def zoo_artifacts(tmp_path_factory):
    """Tiny quantized MiniResNet (image) and MiniBERT (qa) artifacts, each
    with its serving-mode engine for solo reference calls."""
    from repro.deploy import IntegerEngine, save_artifact
    from repro.models.bert import MiniBERT, MiniBERTConfig
    from repro.models.resnet import MiniResNet
    from repro.quant import PTQConfig, quantize_model
    from repro.utils.rng import seeded_rng

    rng = seeded_rng("wire-format-tests")
    base = tmp_path_factory.mktemp("wire")
    config = PTQConfig.vs_quant(4, 4, weight_scale="4", act_scale="4")

    resnet = MiniResNet(num_classes=4, width=1, depth=1, seed=0)
    resnet.eval()
    qresnet = quantize_model(
        resnet, config, calib_batches=[(rng.standard_normal((4, *IMAGE_SHAPE)),)]
    )
    save_artifact(qresnet, base / "resnet", task="image", input_shape=IMAGE_SHAPE)

    bert_config = MiniBERTConfig(
        name="minibert-wire", vocab_size=16, max_seq_len=12, d_model=32,
        num_layers=2, num_heads=2, d_ff=48, dropout=0.0,
    )
    bert = MiniBERT(bert_config, seed=0)
    bert.eval()
    tokens = rng.integers(0, bert_config.vocab_size, (4, bert_config.max_seq_len))
    qbert = quantize_model(
        bert, config, calib_batches=[(tokens, np.ones_like(tokens, dtype=bool))],
        forward=lambda m, b: m(b[0], mask=b[1]),
    )
    save_artifact(qbert, base / "bert", task="qa")

    return {
        name: (base / name,
               IntegerEngine.load(base / name, per_sample_scale=True, precision="float32"))
        for name in ("resnet", "bert")
    }


@pytest.fixture(scope="module")
def zoo_gateway(zoo_artifacts):
    from repro.serve import serve_gateway

    gw = serve_gateway(
        {name: path for name, (path, _) in zoo_artifacts.items()},
        max_batch_size=8, max_wait_ms=50.0,
    )
    yield gw
    gw.stop()


def _image():
    return np.linspace(-1, 1, int(np.prod(IMAGE_SHAPE)), dtype=np.float32).reshape(IMAGE_SHAPE)


def _qa():
    tokens = np.arange(12, dtype=np.int64) % 16
    return tokens, np.arange(12) < 7


def _counters(client: GatewayClient, name: str) -> tuple[int, int]:
    m = client.stats()["models"][name]
    return m["completed"], m["errors"]


class TestWireForms:
    @pytest.mark.parametrize("name", ["resnet", "bert"])
    def test_tensor_and_list_forms_serve_identical_outputs(self, zoo_gateway, name):
        client = GatewayClient(zoo_gateway.url, timeout_s=30.0)
        payload = _image() if name == "resnet" else _qa()
        as_lists = (
            np.asarray(payload).tolist()
            if name == "resnet" else [np.asarray(f).tolist() for f in payload]
        )
        tensor = client.predict(name, payload, raw=True)
        listed = client.predict(name, as_lists, raw=True)
        assert tensor["cached"] is False and listed["cached"] is False
        assert json.dumps(tensor["outputs"]) == json.dumps(listed["outputs"])

    def test_list_form_hits_cache_entry_of_tensor_form(self):
        reg = ModelRegistry()
        reg.register("image", lambda ps: [2 * p for p in ps], task="image")
        reg.register("qa", lambda ps: [p[0] * p[1] for p in ps], task="qa")
        gw = Gateway(reg, cache_entries=8).start()
        try:
            client = GatewayClient(gw.url, timeout_s=10.0)
            image, (tokens, mask) = _image(), _qa()
            first = client.predict("image", image, raw=True)
            second = client.predict("image", image.tolist(), raw=True)
            assert first["cached"] is False and second["cached"] is True
            assert first["outputs"] == second["outputs"]
            first = client.predict("qa", (tokens, mask), raw=True)
            second = client.predict("qa", [tokens.tolist(), mask.tolist()], raw=True)
            assert first["cached"] is False and second["cached"] is True
        finally:
            gw.stop()


_DTYPES = st.sampled_from([np.float32, np.float64, np.int64, np.bool_])
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5)


class TestRoundTrip:
    @given(
        arrays=st.lists(
            st.tuples(_DTYPES, _SHAPES, st.booleans()).flatmap(
                lambda spec: hnp.arrays(spec[0], spec[1]).map(
                    lambda a: a.T if spec[2] else a  # non-contiguous when ndim > 1
                )
            ),
            min_size=1, max_size=2,
        )
    )
    def test_encode_decode_is_bitwise(self, arrays):
        payload = arrays[0] if len(arrays) == 1 else tuple(arrays)
        wire = json.loads(json.dumps(encode_inputs(payload)))
        decoded = decode_inputs(wire)
        fields = [decoded] if len(arrays) == 1 else decoded
        for sent, got in zip(arrays, fields):
            assert got.dtype == sent.dtype and got.shape == sent.shape
            assert got.tobytes() == np.ascontiguousarray(sent).tobytes()
            assert got.flags.owndata and got.flags.writeable


def _tensor(**overrides):
    obj = encode_inputs(_image())
    obj.update(overrides)
    return obj


_MALFORMED = {
    "bad base64": _tensor(b64="not*base64!"),
    "truncated base64": _tensor(b64=_tensor()["b64"][:-1]),
    "short bytes": _tensor(b64=base64.b64encode(b"\0" * 16).decode()),
    "object dtype": _tensor(dtype="O"),
    "unicode dtype": _tensor(dtype="U4"),
    "void dtype": _tensor(dtype="V8"),
    "structured dtype": _tensor(dtype=[["a", "<f4"]]),
    "structured dtype string": _tensor(dtype="f4,i4"),
    "complex dtype": _tensor(dtype="<c8"),
    "unknown dtype": _tensor(dtype="float33"),
    "negative dim": _tensor(shape=[-3, 16, 16]),
    "float dim": _tensor(shape=[3.0, 16, 16]),
    "bool dim": _tensor(shape=[True, 16, 16]),
    "shape not a list": _tensor(shape=768),
    "missing b64": {"dtype": "<f4", "shape": [3, 16, 16]},
    "missing dtype": {"shape": [3, 16, 16], "b64": _tensor()["b64"]},
    "missing shape": {"dtype": "<f4", "b64": _tensor()["b64"]},
    "extra key": _tensor(order="F"),
    "wrong image shape": encode_inputs(np.zeros((3, 8, 8), dtype=np.float32)),
}


class TestAdmission:
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_tensor_is_400_and_never_queued(self, zoo_gateway, case):
        client = GatewayClient(zoo_gateway.url, timeout_s=30.0)
        before = _counters(client, "resnet")
        with pytest.raises(GatewayHTTPError) as exc:
            client.predict("resnet", _MALFORMED[case])
        assert exc.value.status == 400
        assert _counters(client, "resnet") == before

    @pytest.mark.parametrize("b64", [
        "AA==",  # one byte for a 12-element mask
        base64.b64encode(b"\1" * 11 + b"\2").decode(),  # a bool byte of 2
    ])
    def test_malformed_qa_mask_is_400_and_never_queued(self, zoo_gateway, b64):
        client = GatewayClient(zoo_gateway.url, timeout_s=30.0)
        before = _counters(client, "bert")
        tokens, mask = encode_inputs(_qa())
        with pytest.raises(GatewayHTTPError) as exc:
            client.predict("bert", [tokens, {**mask, "b64": b64}])
        assert exc.value.status == 400
        assert _counters(client, "bert") == before

    def test_wrong_shape_neighbour_fails_alone(self, zoo_gateway, zoo_artifacts):
        """One wrong-shaped image among four good ones sent at once through
        a max_batch_size=8 gateway: only the bad request fails, with a 400,
        and the good ones equal solo engine calls."""
        _, engine = zoo_artifacts["resnet"]
        rng = np.random.default_rng(7)
        good = [rng.standard_normal(IMAGE_SHAPE).astype(np.float32) for _ in range(4)]
        requests = good + [rng.standard_normal((3, 8, 8)).astype(np.float32)]
        barrier = threading.Barrier(len(requests))
        results: list = [None] * len(requests)

        def send(i: int) -> None:
            client = GatewayClient(zoo_gateway.url, timeout_s=30.0)
            barrier.wait(10.0)
            try:
                results[i] = (200, client.predict("resnet", requests[i]))
            except GatewayHTTPError as exc:
                results[i] = (exc.status, exc.body)

        threads = [threading.Thread(target=send, args=(i,)) for i in range(len(requests))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not any(t.is_alive() for t in threads)
        assert [status for status, _ in results] == [200, 200, 200, 200, 400]
        assert "input_shape" in results[4][1]["error"]
        for x, (_, out) in zip(good, results):
            np.testing.assert_array_equal(
                np.asarray(out, dtype=np.float32), engine(x[None])[0].astype(np.float32)
            )
