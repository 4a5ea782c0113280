"""Differential checks for the shared per-vector absmax (Eq. 7a).

:func:`repro.quant.granularity.vectors_absmax` replaces two reference
formulas: ``np.abs(xv).max(axis=-1)`` (``VectorLayout.vector_absmax``) and
the ``max`` / ``-min`` pair :func:`quantize_tensor` used. Hypothesis draws
layouts, shapes (empty ones too), dtypes and special values, and every
result must match the reference bit for bit. NaN payload signs may differ
between the two quantize formulas, so NaN positions are compared as a mask
and every other element by its bits.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.quant import VectorLayout
from repro.quant import granularity
from repro.quant.formats import IntFormat
from repro.quant.granularity import vectors_absmax
from repro.quant.integer_exec import quantize_tensor
from repro.quant.two_level import decompose_scales
from repro.quant.vsquant import per_vector_scales

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
_BITS = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    bits = _BITS[want.dtype]
    np.testing.assert_array_equal(got[~nan].view(bits), want[~nan].view(bits))


def reference_quantize(x, layout, fmt, scale_fmt, channel_axes, code_dtype):
    """``quantize_tensor`` as it was with the ``max`` / ``-min`` absmax."""
    xv = layout.to_vectors(x)
    alpha = np.maximum(xv.max(axis=-1), -xv.min(axis=-1))
    s_fp = per_vector_scales(x, layout, fmt, alpha=alpha)
    scales = decompose_scales(s_fp, scale_fmt, channel_axes)
    codes = xv / np.maximum(s_fp, 1e-12)[..., None]
    np.rint(codes, out=codes)
    np.clip(codes, fmt.qmin, fmt.qmax, out=codes)
    if code_dtype is not None:
        codes = codes.astype(code_dtype, copy=False)
    return codes, scales.sq, scales.gamma


@st.composite
def tensors(draw):
    """(x, layout): a tensor with specials mixed in and a vector layout."""
    ndim = draw(st.integers(1, 4))
    axis = draw(st.integers(-ndim, ndim - 1))
    V = draw(st.sampled_from([1, 3, 8, 16, 17, 64]))
    shape = [draw(st.integers(0, 5)) for _ in range(ndim)]
    shape[axis] = draw(st.integers(0, 3 * V + 2))  # padded tails included
    if draw(st.booleans()):  # enough vectors for the transposed path
        lead = next(i for i in range(ndim) if i != axis % ndim) if ndim > 1 else None
        if lead is not None:
            shape[lead] = draw(st.integers(16, 300))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)).astype(dtype)
    if x.size and draw(st.booleans()):  # scattered specials
        hits = rng.random(x.shape) < draw(st.sampled_from([0.01, 0.2]))
        x[hits] = rng.choice(SPECIALS, hits.sum())
    if x.size and draw(st.booleans()):  # some all-zero vectors of either sign
        moved = np.moveaxis(x, axis, -1)
        moved[..., :V] = draw(st.sampled_from([0.0, -0.0]))
    if draw(st.booleans()):  # a negative-stride view
        x = np.flip(x, axis=draw(st.integers(0, ndim - 1)))
    return x, VectorLayout(axis=axis, vector_size=V)


@given(tensors())
def test_vectors_absmax_matches_abs_max(case):
    x, layout = case
    want = np.abs(layout.to_vectors(x)).max(axis=-1)
    assert_same_bits(vectors_absmax(layout.to_vectors(x)), want)
    assert_same_bits(layout.vector_absmax(x), want)


@given(
    tensors(),
    st.integers(2, 8),
    st.booleans(),
    st.integers(2, 8),
    st.booleans(),
    st.sampled_from([None, np.float32]),
)
def test_quantize_tensor_matches_max_min_reference(
    case, bits, signed, scale_bits, per_sample, code_dtype
):
    x, layout = case
    if x.size == 0:
        return  # the reference's empty absmax was float64 zeros, whatever x was
    fmt, scale_fmt = IntFormat(bits, signed), IntFormat(scale_bits, signed=False)
    channel_axes = (0,) if per_sample else ()
    with np.errstate(all="ignore"):
        qt = quantize_tensor(x, layout, fmt, scale_fmt, channel_axes, code_dtype)
        codes, sq, gamma = reference_quantize(
            x, layout, fmt, scale_fmt, channel_axes, code_dtype
        )
    assert_same_bits(qt.codes, codes)
    assert_same_bits(qt.sq, sq)
    assert_same_bits(qt.gamma, gamma)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("V", [1, 16, 17])
def test_blocked_path_matches_across_block_edges(dtype, V):
    """Inputs several transposed blocks long, specials on the block edges."""
    step = granularity._BLOCK_BYTES // (V * np.dtype(dtype).itemsize)
    n = 2 * step + 3
    x = np.random.default_rng(V).standard_normal((n, V)).astype(dtype)
    for row, value in zip((0, step - 1, step, 2 * step, n - 1), SPECIALS[1:]):
        x[row, V // 2] = value
    x[step + 1] = -0.0
    assert_same_bits(vectors_absmax(x.reshape(n, 1, V)), np.abs(x).max(axis=-1)[:, None])

