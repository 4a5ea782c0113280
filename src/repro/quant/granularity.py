"""Scale-factor granularities and vector-view machinery (paper Fig. 1).

A *granularity* decides how many elements share one scale factor:

- ``PER_TENSOR`` — one scale for the whole tensor (per-layer scaling)
- ``PER_CHANNEL`` — one scale per output channel (weights only)
- ``PER_VECTOR`` — one scale per V-element vector along the dot-product
  reduction axis (input channels for conv, input features for linear)

:class:`VectorLayout` turns an arbitrary tensor into a ``(..., n_vectors,
V)`` view (zero-padded at the tail when the axis length is not a multiple of
V) and back, so all per-vector reductions are single vectorized NumPy calls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


#: The transposed path below pays off only for short vectors (V at most
#: this) and enough of them (at least ``_FEW_VECTORS``); elsewhere one
#: plain reduction is faster.
_SHORT_VECTOR = 32
_FEW_VECTORS = 16
#: Bytes of ``|x|`` per transposed block; weight-sized inputs stream
#: through blocks that stay in the L2 cache.
_BLOCK_BYTES = 1 << 19


def vectors_absmax(xv: np.ndarray) -> np.ndarray:
    """Per-vector absolute maximum of a ``(..., n_vectors, V)`` view.

    Returns shape ``(..., n_vectors)`` in ``xv``'s dtype, bitwise equal to
    ``np.abs(xv).max(axis=-1)`` (``max`` is exact; NaN and inf propagate the
    same way). NumPy reduces a short, contiguous last axis with one tiny
    inner loop per vector, so for short vectors innermost in memory
    ``|x|`` is written transposed into C-contiguous ``(V, vectors)``
    blocks and reduced across rows: every inner loop then runs over a long
    contiguous row. When V is not innermost, NumPy's own reduction
    already iterates in memory order and is used as is.
    """
    V = xv.shape[-1]
    n = xv.size // V
    if V > _SHORT_VECTOR or n < _FEW_VECTORS or xv.strides[-1] != xv.itemsize:
        return np.abs(xv).max(axis=-1)
    flat = xv.reshape(n, V)
    step = _BLOCK_BYTES // (V * flat.itemsize)
    if n <= step:
        return np.abs(flat.T, order="C").max(axis=0).reshape(xv.shape[:-1])
    out = np.empty(n, flat.dtype)
    buf = np.empty((V, step), flat.dtype)
    for start in range(0, n, step):
        stop = min(start + step, n)
        block = buf[:, : stop - start]
        np.abs(flat[start:stop].T, out=block)
        block.max(axis=0, out=out[start:stop])
    return out.reshape(xv.shape[:-1])


class Granularity(enum.Enum):
    """How widely a scale factor is shared (paper §3/§4)."""

    PER_TENSOR = "per_tensor"
    PER_CHANNEL = "per_channel"
    PER_VECTOR = "per_vector"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class VectorLayout:
    """Describes per-vector grouping of one tensor axis.

    Parameters
    ----------
    axis:
        The axis subdivided into vectors (the reduction axis of the matmul
        or convolution the tensor feeds).
    vector_size:
        V, the number of elements sharing one scale factor.
    """

    axis: int
    vector_size: int

    def __post_init__(self):
        if self.vector_size < 1:
            raise ValueError(f"vector_size must be >= 1, got {self.vector_size}")

    def n_vectors(self, axis_len: int) -> int:
        """Number of vectors covering an axis of the given length."""
        return -(-axis_len // self.vector_size)

    def to_vectors(self, x: np.ndarray) -> np.ndarray:
        """Reshape ``x`` to (..., n_vectors, V) with the target axis last.

        The tail vector is zero-padded; zeros never affect absmax reductions
        and are stripped again by :meth:`from_vectors`.
        """
        x = np.asarray(x)
        moved = np.moveaxis(x, self.axis, -1)
        length = moved.shape[-1]
        nv = self.n_vectors(length)
        pad = nv * self.vector_size - length
        if pad:
            width = [(0, 0)] * (moved.ndim - 1) + [(0, pad)]
            moved = np.pad(moved, width)
        return moved.reshape(moved.shape[:-1] + (nv, self.vector_size))

    def from_vectors(self, xv: np.ndarray, axis_len: int) -> np.ndarray:
        """Inverse of :meth:`to_vectors` for an axis of ``axis_len``."""
        xv = np.asarray(xv)
        flat = xv.reshape(xv.shape[:-2] + (-1,))[..., :axis_len]
        return np.moveaxis(flat, -1, self.axis)

    def vector_absmax(self, x: np.ndarray) -> np.ndarray:
        """Per-vector absolute maximum, shape (..., n_vectors) — Eq. 7a."""
        return vectors_absmax(self.to_vectors(x))

    def expand(self, per_vector: np.ndarray, axis_len: int) -> np.ndarray:
        """Broadcast per-vector values (..., n_vectors) back over elements.

        Returns an array shaped like the original tensor, each element
        carrying its vector's value — used to apply scales elementwise.
        """
        per_vector = np.asarray(per_vector)
        repeated = np.repeat(per_vector, self.vector_size, axis=-1)[..., :axis_len]
        return np.moveaxis(repeated, -1, self.axis)


def group_reduce_absmax(
    x: np.ndarray,
    granularity: Granularity,
    channel_axis: int = 0,
    layout: VectorLayout | None = None,
) -> np.ndarray:
    """Absolute maximum per scale-sharing group.

    Returns scalar () for PER_TENSOR, (n_channels,) for PER_CHANNEL, and
    (..., n_vectors) for PER_VECTOR (via ``layout``).
    """
    x = np.asarray(x)
    if granularity is Granularity.PER_TENSOR:
        return np.abs(x).max()
    if granularity is Granularity.PER_CHANNEL:
        axes = tuple(i for i in range(x.ndim) if i != channel_axis % x.ndim)
        return np.abs(x).max(axis=axes)
    if granularity is Granularity.PER_VECTOR:
        if layout is None:
            raise ValueError("PER_VECTOR reduction requires a VectorLayout")
        return layout.vector_absmax(x)
    raise ValueError(f"unknown granularity {granularity}")
