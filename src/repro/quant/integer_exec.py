"""True integer execution of VS-Quant layers (the hardware's arithmetic).

The fake-quantization layers in :mod:`repro.quant.qlayers` simulate
quantization in floating point. This module executes the *actual* integer
pipeline of the paper's vector MAC unit (Fig. 2b, Eq. 5):

    y(j) = [ sum_i wq(j,i) * aq(j,i) ] * swq(j) * saq(j)   (integer)
    y    = y(j) summed over vectors j, scaled by gamma_w * gamma_a (fp)

and therefore lets us:

- verify bit-exact equivalence between the fake-quant simulation and the
  integer datapath (a correctness invariant the test suite checks), and
- study the *accuracy* effect of rounding the scale product sw*sa to fewer
  bits — the knob Fig. 3 evaluates for energy and the paper leaves to
  future work for accuracy (§8). See ``benchmarks/bench_ablation_rounding``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.quant.formats import IntFormat, scale_from_absmax
from repro.quant.granularity import VectorLayout, vectors_absmax
from repro.quant.two_level import TwoLevelScales, decompose_scales
from repro.quant.vsquant import per_vector_scales


@dataclass
class QuantizedTensor:
    """A tensor in two-level VS-Quant representation.

    ``codes`` are N-bit integer element values grouped per vector:
    shape (..., n_vectors, V). ``sq`` are the M-bit unsigned integer
    per-vector scales, shape (..., n_vectors). ``gamma`` is the fp
    coarse-grained scale broadcastable against ``sq``. ``axis_len`` is the
    original length of the vectorized axis (to strip padding on
    dequantization); ``layout`` records which axis was vectorized.
    """

    codes: np.ndarray
    sq: np.ndarray
    gamma: np.ndarray
    layout: VectorLayout
    axis_len: int
    fmt: IntFormat
    scale_fmt: IntFormat

    @property
    def n_vectors(self) -> int:
        return self.codes.shape[-2]

    def dequantize(self) -> np.ndarray:
        """Reconstruct the simulated-quantized real tensor (Eq. 7j)."""
        effective = (self.sq * self.gamma)[..., None]  # broadcast over V
        flat = self.codes * effective
        return self.layout.from_vectors(flat, self.axis_len)


def quantize_tensor(
    x: np.ndarray,
    layout: VectorLayout,
    fmt: IntFormat,
    scale_fmt: IntFormat,
    channel_axes: tuple[int, ...] = (),
    code_dtype: type | None = None,
) -> QuantizedTensor:
    """Quantize a real tensor into the two-level integer representation.

    Works entirely in the ``(..., n_vectors, V)`` vector view — one
    ``to_vectors`` pass instead of the expand/re-vectorize round-trip, and
    the round/clip steps reuse one temporary — which matters on the
    serving hot path where every activation tensor goes through here once
    per layer. Codes are bitwise identical to
    :func:`repro.quant.two_level.fake_quant_two_level`'s Eq. 7c codes
    (padded tail elements are zero either way, and both divide in the
    dtype :func:`repro.utils.dtypes.resolve_dtype` picks for the input, so
    ties round identically). ``code_dtype`` optionally stores the integer
    codes narrower (e.g. float32, exact for any width the formats allow)
    to halve downstream kernel traffic.
    """
    x = np.asarray(x)
    xv = layout.to_vectors(x)
    s_fp = per_vector_scales(x, layout, fmt, alpha=vectors_absmax(xv))
    scales: TwoLevelScales = decompose_scales(s_fp, scale_fmt, channel_axes)
    axis_len = x.shape[layout.axis]
    codes = xv / np.maximum(s_fp, 1e-12)[..., None]
    np.rint(codes, out=codes)
    np.clip(codes, fmt.qmin, fmt.qmax, out=codes)
    if code_dtype is not None:
        codes = codes.astype(code_dtype, copy=False)
    return QuantizedTensor(
        codes=codes,
        sq=scales.sq,
        gamma=scales.gamma,
        layout=layout,
        axis_len=axis_len,
        fmt=fmt,
        scale_fmt=scale_fmt,
    )


def _padded_channel_major(
    B: int, nv: int, V: int, H: int, W: int, padding: int, dtype: type
) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed ``(B, nv*V, H+2p, W+2p)`` conv operand buffer, plus its
    interior as a ``(B, nv, V, H, W)`` view for the fold to write into."""
    Hp, Wp = H + 2 * padding, W + 2 * padding
    buf = np.zeros((B, nv * V, Hp, Wp), dtype=dtype)
    inner = buf.reshape(B, nv, V, Hp, Wp)[..., padding : padding + H, padding : padding + W]
    return buf, inner


def fold_quantize_conv_nchw(
    x: np.ndarray,
    vector_size: int,
    fmt: IntFormat,
    scale_fmt: IntFormat,
    per_sample: bool,
    fold_dtype: type,
    padding: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Serving fast path: quantize + scale-fold an NCHW activation, channel-major.

    Vectors are contiguous channel blocks, so no transposed copy of the
    input is needed; when ``vector_size`` does not divide C, zero tail
    channels complete the last vector (as :func:`quantize_tensor` pads
    it). The folded operand ``codes * sq`` — exactly what
    :func:`fold_conv_activations` builds from a :func:`quantize_tensor`
    result — is written in NCHW order straight into the interior of a
    zeroed ``(B, nv*V, H+2p, W+2p)`` buffer, the layout
    :func:`integer_conv2d_folded` consumes. Also returns the coarse gamma
    (per-sample ``(B, 1, 1, 1)`` or per-tensor).
    """
    B, C, H, W = x.shape
    nv = -(-C // vector_size)
    if nv * vector_size != C:
        x = np.concatenate([x, np.zeros((B, nv * vector_size - C, H, W), x.dtype)], axis=1)
    xr = x.reshape(B, nv, vector_size, H, W)
    absmax = np.maximum(xr.max(axis=2), -xr.min(axis=2))  # (B, nv, H, W)
    s = scale_from_absmax(absmax, fmt)  # in the dtype policy's dtype
    sq_qmax = 2**scale_fmt.bits - 1
    axes = (1, 2, 3) if per_sample else (0, 1, 2, 3)
    gamma = np.maximum(s.max(axis=axes, keepdims=True) / sq_qmax, 1e-30)
    sq = np.clip(np.rint(s / gamma), 0, sq_qmax)
    codes = xr / s[:, :, None]
    np.rint(codes, out=codes)
    # Clip is load-bearing for unsigned formats: the absmax scale covers the
    # magnitude of negative inputs, but their codes must clamp to qmin=0.
    np.clip(codes, fmt.qmin, fmt.qmax, out=codes)
    folded, inner = _padded_channel_major(B, nv, vector_size, H, W, padding, fold_dtype)
    np.multiply(codes, sq[:, :, None], out=inner)
    return folded, gamma


def fold_conv_activations(x: QuantizedTensor, padding: int, dtype: type) -> np.ndarray:
    """Folded ``codes * sq`` of a C-vectorized activation (codes
    ``(B, H, W, nv, V)``) as the padded channel-major buffer of
    :func:`fold_quantize_conv_nchw`; padded tail channels stay zero."""
    B, H, W, nv, V = x.codes.shape
    folded, inner = _padded_channel_major(B, nv, V, H, W, padding, dtype)
    codes = x.codes.transpose(0, 3, 4, 1, 2)
    sq = x.sq.transpose(0, 3, 1, 2)[:, :, None]
    np.multiply(codes, sq, out=inner, dtype=dtype)
    return folded


def fold_conv_weights(w: QuantizedTensor, dtype: type) -> np.ndarray:
    """Folded ``(K, R, S, nv, V)`` weight codes as ``(K, nv*V*R*S)`` GEMM
    rows, reduction ordered (channel, r, s) like the im2col rows."""
    wf = np.multiply(w.codes, w.sq[..., None], dtype=dtype)
    return wf.transpose(0, 3, 4, 1, 2).reshape(wf.shape[0], -1)


def _im2col_cols(
    xp: np.ndarray, R: int, S: int, stride: int
) -> tuple[np.ndarray, int, int, int]:
    """Padded (B, C, Hp, Wp) folded activations -> im2col matrix (C*R*S, B*P*Q)."""
    B, C, Hp, Wp = xp.shape
    P = (Hp - R) // stride + 1
    Q = (Wp - S) // stride + 1
    sb, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(C, R, S, B, P, Q), strides=(sc, sh, sw, sb, sh * stride, sw * stride)
    )
    return windows.reshape(C * R * S, B * P * Q), B, P, Q  # materializes patches


def _fused_gamma_scale(gamma_x, gamma_w: np.ndarray) -> np.ndarray:
    """Fold both coarse scales into one per-output factor ((K,) or batched)."""
    gx = np.asarray(gamma_x)
    if gx.size > 1:
        return gx * gamma_w
    return float(gx.reshape(-1)[0]) * gamma_w


def integer_linear_folded(
    xf: np.ndarray,
    gamma_x: np.ndarray,
    wf: np.ndarray,
    gamma_w: np.ndarray,
    out_dtype: type | None,
) -> np.ndarray:
    """GEMM over scale-folded linear operands (``codes * sq`` flattened).

    The shared tail of :func:`integer_linear`'s fast path and the
    ``integer-prefolded`` execution backend (which precomputes ``wf`` once
    instead of per call) — one implementation, so the two are bitwise
    identical by construction. ``out_dtype=None`` applies the coarse
    gammas in float64 with the reference operation order;
    ``out_dtype=np.float32`` fuses them into one low-precision multiply.
    """
    acc = xf @ wf.T  # exact integers
    gamma_w = np.asarray(gamma_w).reshape(wf.shape[0])
    gamma_x = np.asarray(gamma_x)
    if out_dtype is not None:
        scale = _fused_gamma_scale(gamma_x, gamma_w)
        return np.multiply(acc, scale.astype(out_dtype, copy=False), dtype=out_dtype)
    acc = acc.astype(np.float64, copy=False)
    if gamma_x.size == 1:  # per-tensor: multiply by a scalar
        return acc * float(gamma_x.reshape(-1)[0]) * gamma_w
    # Per-sample: singleton non-batch axes broadcast against the output.
    return acc * gamma_w * gamma_x


def integer_conv2d_folded(
    xp: np.ndarray,
    gamma_x: np.ndarray,
    wf: np.ndarray,
    gamma_w: np.ndarray,
    kernel_size: int | tuple[int, int],
    stride: int,
    out_dtype: type | None,
) -> np.ndarray:
    """im2col GEMM over pre-folded conv operands (the serving hot loop).

    ``xp``: (B, C, H+2p, W+2p) zero-padded folded activation codes (from
    :func:`fold_quantize_conv_nchw` or :func:`fold_conv_activations`);
    ``wf``: (K, C*R*S) folded weight codes (:func:`fold_conv_weights`);
    ``kernel_size`` is an int for square kernels or an ``(R, S)`` pair.
    The GEMM yields (K, B*P*Q) and the gamma scaling writes it straight
    into the (B, K, P, Q) output. Equivalent to :func:`integer_conv2d`
    with ``scale_product_bits=None`` — same exact integer accumulators,
    same scaling order — minus the per-call folds.
    """
    R, S = (
        (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
    )
    K = wf.shape[0]
    cols, B, P, Q = _im2col_cols(xp, R, S, stride)
    acc = (wf @ cols).reshape(K, B, P * Q).transpose(1, 0, 2)  # (B, K, PQ) view
    return _scale_conv_acc(acc, gamma_x, gamma_w, out_dtype).reshape(B, K, P, Q)


def _scale_conv_acc(acc: np.ndarray, gamma_x, gamma_w, out_dtype: type | None) -> np.ndarray:
    """Apply the coarse gammas to a (B, K, P*Q) integer accumulator in one
    pass into a new C-contiguous array. ``out_dtype`` as in
    :func:`integer_linear`: ``None`` keeps the float64 reference order."""
    gamma_w = np.asarray(gamma_w).reshape(acc.shape[1], 1)
    gamma_x = np.asarray(gamma_x).reshape(-1, 1, 1)
    out = np.empty(acc.shape, dtype=out_dtype or np.float64)
    if out_dtype is not None:
        scale = _fused_gamma_scale(gamma_x, gamma_w)  # (K, 1) or (B, K, 1)
        np.multiply(acc, scale.astype(out_dtype, copy=False), out=out, dtype=out_dtype)
    elif gamma_x.size == 1:  # per-tensor: (acc * gamma_x) * gamma_w
        np.multiply(acc, float(gamma_x.reshape(-1)[0]), out=out, dtype=np.float64)
        out *= gamma_w
    else:  # per-sample: (acc * gamma_w) * gamma_x
        np.multiply(acc, gamma_w, out=out, dtype=np.float64)
        out *= gamma_x
    return out


def round_scale_product(
    product: np.ndarray, full_bits: int, product_bits: int | None
) -> np.ndarray:
    """Hardware rounder: keep the top ``product_bits`` of a ``full_bits``
    integer product by dropping LSBs with round-half-even, then shift back.

    Returns a value on the original scale (so downstream math is unchanged);
    with ``product_bits=None`` this is the identity.
    """
    if product_bits is None or product_bits >= full_bits:
        return np.asarray(product, dtype=np.float64)
    shift = 2 ** (full_bits - product_bits)
    return np.rint(np.asarray(product, dtype=np.float64) / shift) * shift


#: Largest integer float32 represents exactly (2**24); integer GEMMs whose
#: worst-case accumulator stays below this can run in single precision with
#: bitwise-identical results.
_F32_EXACT_LIMIT = float(2**24)


def exact_gemm_dtype(
    x_fmt: IntFormat,
    x_scale_fmt: IntFormat,
    w_fmt: IntFormat,
    w_scale_fmt: IntFormat,
    reduction: int,
):
    """float32 when the folded integer GEMM cannot overflow 24 bits.

    With the scales folded into the codes, every product is bounded by
    qmax_x * sqmax_x * qmax_w * sqmax_w and every partial sum by that times
    the reduction length; below 2**24 all of them are exact float32
    integers, so SGEMM (≈2x DGEMM throughput, half the im2col traffic)
    returns the same integers DGEMM would. The paper's flagship W4/A4
    S4/S4 format qualifies for every layer of the model zoo.
    """
    bound = (
        x_fmt.qmax
        * (2**x_scale_fmt.bits - 1)
        * w_fmt.qmax
        * (2**w_scale_fmt.bits - 1)
        * reduction
    )
    return np.float32 if bound < _F32_EXACT_LIMIT else np.float64


def integer_linear(
    x: QuantizedTensor,
    w: QuantizedTensor,
    scale_product_bits: int | None = None,
    out_dtype: type | None = None,
) -> np.ndarray:
    """Execute a linear layer exactly as the VS-Quant PE does (Eq. 5).

    ``x``: activations quantized along the feature axis, codes shape
    (batch..., n_vectors, V); ``w``: weights quantized along the input
    axis, codes shape (out_features, n_vectors, V). Per-vector integer
    dot products are scaled by the (optionally rounded) integer scale
    product and accumulated; the two fp gammas are applied once at the end.

    The activation gamma may be per-tensor (``channel_axes=()``, one value)
    or per-sample (``channel_axes=(0,)``, the serving engine's
    batch-invariant mode); any non-batch gamma axis must be singleton.

    ``out_dtype=None`` (default) applies the fp gammas in float64 with the
    reference operation order — the bit-consistency contract the tests pin
    down. ``out_dtype=np.float32`` is the serving engine's low-precision
    mode: the integer accumulator is still exact, but the coarse scales are
    applied as one fused float32 multiply (~1e-7 relative noise).

    Returns the real-valued output (batch..., out_features).
    """
    if x.codes.shape[-2:] != w.codes.shape[-2:]:
        raise ValueError(
            f"vector geometry mismatch: activations {x.codes.shape[-2:]} vs "
            f"weights {w.codes.shape[-2:]}"
        )
    if scale_product_bits is None:
        # Fast path: with no scale-product rounding, sq distributes into the
        # codes — every code*scale product and partial sum is a small exact
        # integer, so one GEMM over the flattened (nv, V) axis is bitwise
        # identical to the per-vector accumulation below (in float32 when
        # the 24-bit accumulator bound allows, float64 otherwise).
        nv, V = x.codes.shape[-2:]
        dt = exact_gemm_dtype(x.fmt, x.scale_fmt, w.fmt, w.scale_fmt, nv * V)
        xf = np.multiply(x.codes, x.sq[..., None], dtype=dt).reshape(
            x.codes.shape[:-2] + (-1,)
        )
        wf = np.multiply(w.codes, w.sq[..., None], dtype=dt).reshape(
            w.codes.shape[0], -1
        )
        return integer_linear_folded(xf, x.gamma, wf, w.gamma, out_dtype)
    # Integer dot product per vector: (batch..., 1, nv, V) x (K, nv, V).
    dot = np.einsum("...vi,kvi->...kv", x.codes, w.codes, optimize=True)
    product = x.sq[..., None, :] * w.sq[None, :, :]  # (batch..., K, nv)
    full_bits = x.scale_fmt.bits + w.scale_fmt.bits
    product = round_scale_product(product, full_bits, scale_product_bits)
    acc = (dot * product).sum(axis=-1)  # (batch..., K)
    # The weight gamma is per output channel: shape (K, 1) -> (K,).
    gamma_w = np.asarray(w.gamma).reshape(w.codes.shape[0])
    gamma_x = np.asarray(x.gamma)
    if out_dtype is not None:
        # Fused low-precision scaling: fold both gammas into one small
        # per-output factor ((K,) or (batch, 1, K)), one accumulator pass.
        scale = _fused_gamma_scale(gamma_x, gamma_w)
        return np.multiply(acc, scale.astype(out_dtype, copy=False), dtype=out_dtype)
    if gamma_x.size == 1:  # per-tensor: multiply by a scalar
        return acc * float(gamma_x.reshape(-1)[0]) * gamma_w
    # Per-sample: gamma keeps sq's ndim with singleton non-batch axes, e.g.
    # (B, 1, 1) against acc (B, T, K) — trailing broadcast lines up.
    return acc * gamma_w * gamma_x


def integer_conv2d(
    x: QuantizedTensor,
    w: QuantizedTensor,
    stride: int = 1,
    padding: int = 0,
    scale_product_bits: int | None = None,
    out_dtype: type | None = None,
) -> np.ndarray:
    """Execute a conv layer with the VS-Quant integer pipeline.

    ``x`` quantized along C of an NCHW tensor (codes (B, H, W, nv, V)),
    ``w`` along C of a KCRS tensor (codes (K, R, S, nv, V)) — each spatial
    position owns its vectors, matching Fig. 1's V x 1 x 1 geometry. The
    per-(r, s) vector dot products are scaled by the rounded integer scale
    product and accumulated across (r, s, vectors); fp gammas apply once.
    ``out_dtype`` as in :func:`integer_linear`.

    Returns the real-valued output (B, K, P, Q).
    """
    if x.codes.ndim != 5 or w.codes.ndim != 5:
        raise ValueError("expected NCHW activations and KCRS weights quantized on C")
    B, H, W_, nv, V = x.codes.shape
    K, R, S, nvw, Vw = w.codes.shape
    if (nv, V) != (nvw, Vw):
        raise ValueError(f"vector geometry mismatch: {(nv, V)} vs {(nvw, Vw)}")
    full_bits = x.scale_fmt.bits + w.scale_fmt.bits
    P = (H + 2 * padding - R) // stride + 1
    Q = (W_ + 2 * padding - S) // stride + 1

    if scale_product_bits is None:
        # Fast path (see integer_linear): fold the integer per-vector scales
        # into the codes — all products and partial sums stay exact
        # integers, so this is bitwise identical to the rounding path with
        # rounding disabled, but runs as one im2col GEMM per layer (float32
        # when the 24-bit accumulator bound allows). The shared folded tail
        # is also the integer-prefolded backend's hot loop, which folds the
        # weights once at load instead of per call.
        dt = exact_gemm_dtype(x.fmt, x.scale_fmt, w.fmt, w.scale_fmt, R * S * nv * V)
        return integer_conv2d_folded(
            fold_conv_activations(x, padding, dt),
            x.gamma,
            fold_conv_weights(w, dt),
            w.gamma,
            (R, S),
            stride,
            out_dtype,
        )
    else:
        codes = x.codes
        sq = x.sq
        if padding:
            pad_c = ((0, 0), (padding, padding), (padding, padding), (0, 0), (0, 0))
            codes = np.pad(codes, pad_c)
            sq = np.pad(sq, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
        out = np.zeros((B, K, P, Q))
        # Loop over the R x S kernel footprint (vectorized over B, P, Q, K,
        # nv): the same strided-slice structure hardware uses for weight
        # reuse.
        for r in range(R):
            for s in range(S):
                xs = codes[:, r : r + stride * P : stride, s : s + stride * Q : stride]
                ss = sq[:, r : r + stride * P : stride, s : s + stride * Q : stride]
                dot = np.einsum("bpqvi,kvi->bkpqv", xs, w.codes[:, r, s], optimize=True)
                # (B,1,P,Q,nv) x (1,K,1,1,nv) -> (B,K,P,Q,nv)
                product = ss[:, None, :, :, :] * w.sq[None, :, r, s, :][:, :, None, None, :]
                product = round_scale_product(product, full_bits, scale_product_bits)
                out += (dot * product).sum(axis=-1)
    acc = out.reshape(B, K, P * Q)
    return _scale_conv_acc(acc, x.gamma, w.gamma, out_dtype).reshape(B, K, P, Q)


def fake_quant_linear_reference(
    x_real: np.ndarray,
    w_real: np.ndarray,
    vector_size: int,
    fmt: IntFormat,
    scale_fmt: IntFormat,
) -> np.ndarray:
    """Float-side reference: fake-quantize operands, then a real matmul.

    ``integer_linear`` must match this bit-exactly when no scale-product
    rounding is applied — the equivalence test of Eq. 5 vs Eq. 7j.
    """
    from repro.quant.two_level import fake_quant_two_level

    xl = VectorLayout(axis=-1, vector_size=vector_size)
    wl = VectorLayout(axis=1, vector_size=vector_size)
    xq = fake_quant_two_level(x_real, xl, fmt, scale_fmt, channel_axes=())
    wq = fake_quant_two_level(w_real, wl, fmt, scale_fmt, channel_axes=(0,))
    return xq @ wq.T
