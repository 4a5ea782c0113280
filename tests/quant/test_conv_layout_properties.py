"""Differential checks for the channel-major folded conv tail.

The serving conv path folds ``codes * sq`` into a zero-padded
``(B, C, H+2p, W+2p)`` buffer, builds im2col rows in (channel, r, s)
order and scales the ``(K, B*P*Q)`` GEMM result straight into NCHW.
Every accumulator is an exact integer, so the result must equal the
per-(r, s) einsum path (``integer_conv2d`` with a full-width
``scale_product_bits``) bit for bit, and the ``integer`` and
``integer-prefolded`` layers must agree bit for bit over the same draws.
Hypothesis draws the geometry (channel counts that V does not divide,
non-square kernels, stride, padding), the vector size, the W4/A4 S4/S4
(float32 GEMM) and W4/A8 S4/S6 (float64 GEMM) formats, per-sample or
per-tensor activation gamma and the output precision; the layer check
also draws the ``REPRO_COMPUTE_DTYPE`` policy the quantizers compute in.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.quant import IntFormat, VectorLayout
from repro.quant.granularity import Granularity
from repro.quant.integer_exec import (
    exact_gemm_dtype,
    fold_quantize_conv_nchw,
    integer_conv2d,
    quantize_tensor,
)
from repro.quant.plan import LayerQuantSpec
from repro.quant.qlayers import QuantizedLayer
from repro.quant.quantizer import QuantSpec, ScaleFormat, ScaleKind
from repro.tensor.tensor import Tensor
from repro.utils.dtypes import compute_dtype

#: (weight bits, act bits, weight scale bits, act scale bits).
FORMATS = {"w4a4-s4s4": (4, 4, 4, 4), "w4a8-s4s6": (4, 8, 4, 6)}


def assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def conv_cases(draw, square=False):
    V = draw(st.sampled_from([4, 8, 16]))
    C = draw(st.integers(1, 3 * V))  # C % V != 0 included
    R = draw(st.integers(1, 3))
    S = R if square else draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    H = draw(st.integers(max(1, R - 2 * padding), 7))
    W = draw(st.integers(max(1, S - 2 * padding), 7))
    return dict(
        B=draw(st.integers(1, 3)),
        C=C,
        K=draw(st.integers(1, 5)),
        R=R,
        S=S,
        H=H,
        W=W,
        stride=draw(st.integers(1, 2)),
        padding=padding,
        V=V,
        fmt=draw(st.sampled_from(sorted(FORMATS))),
        per_sample=draw(st.booleans()),
        out_dtype=draw(st.sampled_from([None, np.float32])),
        seed=draw(st.integers(0, 2**16)),
    )


def _spec(bits: int, scale_bits: int, V: int, channel_axes=()) -> QuantSpec:
    return QuantSpec(
        bits=bits,
        granularity=Granularity.PER_VECTOR,
        vector_size=V,
        vector_axis=1,
        channel_axes=channel_axes,
        scale=ScaleFormat(ScaleKind.INT, scale_bits),
    )


@given(conv_cases())
def test_folded_tail_equals_per_rs_einsum(case):
    rng = np.random.default_rng(case["seed"])
    wb, ab, wsb, asb = FORMATS[case["fmt"]]
    layout = VectorLayout(1, case["V"])
    x = rng.standard_normal((case["B"], case["C"], case["H"], case["W"]))
    w = rng.standard_normal((case["K"], case["C"], case["R"], case["S"]))
    xq = quantize_tensor(
        x, layout, IntFormat(ab), IntFormat(asb, signed=False),
        channel_axes=(0,) if case["per_sample"] else (),
    )
    wq = quantize_tensor(w, layout, IntFormat(wb), IntFormat(wsb, signed=False), channel_axes=(0,))
    kw = dict(stride=case["stride"], padding=case["padding"], out_dtype=case["out_dtype"])
    folded = integer_conv2d(xq, wq, **kw)
    einsum = integer_conv2d(xq, wq, scale_product_bits=wsb + asb, **kw)
    assert_bitwise(folded, einsum)


@given(
    conv_cases(square=True),  # layer geometry has one kernel size
    st.sampled_from(["preserve", "float32", "float64"]),
)
def test_integer_layer_equals_prefolded_layer(case, policy):
    rng = np.random.default_rng(case["seed"])
    wb, ab, wsb, asb = FORMATS[case["fmt"]]
    spec = LayerQuantSpec(
        name="fuzz",
        kind="conv2d",
        geometry={
            "in_channels": case["C"],
            "out_channels": case["K"],
            "kernel_size": case["R"],
            "stride": case["stride"],
            "padding": case["padding"],
            "bias": True,
        },
        weight=_spec(wb, wsb, case["V"], channel_axes=(0,)),
        inputs=_spec(ab, asb, case["V"]),
    )
    layer = QuantizedLayer(
        spec,
        weight=rng.standard_normal((case["K"], case["C"], case["R"], case["S"])),
        bias=rng.standard_normal(case["K"]),
        backend="integer",
        per_sample_scale=case["per_sample"],
        out_dtype=case["out_dtype"],
    )
    x = Tensor(rng.standard_normal((case["B"], case["C"], case["H"], case["W"])))
    with compute_dtype(policy):
        want = layer(x).data
        got = layer.set_backend("integer-prefolded")(x).data
    assert_bitwise(got, want)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_fold_buffer_contract(rng, fmt, padding, dtype):
    """The fused fold returns a C-contiguous zero-bordered NCHW buffer whose
    interior is the NHWC fold of a ``quantize_tensor`` result, transposed."""
    B, C, H, W, V = 2, 16, 5, 6, 8
    wb, ab, wsb, asb = FORMATS[fmt]
    act, scale = IntFormat(ab), IntFormat(asb, signed=False)
    fold_dtype = exact_gemm_dtype(act, scale, IntFormat(wb), IntFormat(wsb, signed=False), C * 9)
    x = rng.standard_normal((B, C, H, W)).astype(dtype)
    buf, gamma = fold_quantize_conv_nchw(x, V, act, scale, True, fold_dtype, padding)
    assert buf.shape == (B, C, H + 2 * padding, W + 2 * padding)
    assert buf.dtype == fold_dtype and buf.flags.c_contiguous
    inside = (slice(None), slice(None), slice(padding, padding + H), slice(padding, padding + W))
    border = buf.copy()
    border[inside] = 0
    assert not border.any()
    xq = quantize_tensor(x, VectorLayout(1, V), act, scale, channel_axes=(0,))
    nhwc = np.multiply(xq.codes, xq.sq[..., None], dtype=fold_dtype).reshape(B, H, W, C)
    nchw = np.ascontiguousarray(nhwc.transpose(0, 3, 1, 2))
    assert_bitwise(np.ascontiguousarray(buf[inside]), nchw)
    assert_bitwise(gamma, xq.gamma)
