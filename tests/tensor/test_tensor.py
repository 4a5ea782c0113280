"""Tensor core: construction, arithmetic, broadcasting, backward mechanics."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor.tensor import unbroadcast


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_int_input_promoted_to_float(self):
        t = Tensor(np.arange(4))
        assert t.dtype.kind == "f"

    def test_from_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert b.data is a.data

    def test_requires_grad_flag(self):
        assert Tensor([1.0], requires_grad=True).requires_grad
        assert not Tensor([1.0]).requires_grad

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_item_scalar_only(self):
        assert Tensor([3.5]).item() == 3.5
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2


class TestArithmetic:
    def test_add_sub_mul_div_values(self, rng):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4)) + 5
        ta, tb = Tensor(a), Tensor(b)
        np.testing.assert_allclose((ta + tb).data, a + b)
        np.testing.assert_allclose((ta - tb).data, a - b)
        np.testing.assert_allclose((ta * tb).data, a * b)
        np.testing.assert_allclose((ta / tb).data, a / b)

    def test_scalar_operands(self):
        t = Tensor([1.0, 2.0])
        np.testing.assert_allclose((2 + t).data, [3.0, 4.0])
        np.testing.assert_allclose((2 - t).data, [1.0, 0.0])
        np.testing.assert_allclose((2 * t).data, [2.0, 4.0])
        np.testing.assert_allclose((2 / t).data, [2.0, 1.0])

    def test_python_scalars_are_weak(self):
        t = Tensor(np.array([1.0, 2.0], dtype=np.float32))
        for out in (t + 1e-5, 2 + t, t - 1, 2 - t, 0.5 * t, t / 3, 2 / t):
            assert out.dtype == np.float32
        np.testing.assert_array_equal((t + 1e-5).data, t.data + np.float32(1e-5))
        # NumPy scalars and arrays keep their own dtype, as under NEP 50.
        assert (t + np.float64(1e-5)).dtype == np.float64
        assert (t * np.asarray(0.5)).dtype == np.float64
        assert (Tensor([1.0]) * 3).dtype == np.float64

    def test_pow(self):
        t = Tensor([2.0, 3.0])
        np.testing.assert_allclose((t**2).data, [4.0, 9.0])
        with pytest.raises(TypeError):
            t ** Tensor([1.0])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_matmul_values(self, rng):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_comparisons_return_arrays(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert (t > 1.5).tolist() == [False, True, True]
        assert (t <= 2.0).tolist() == [True, True, False]


class TestBackward:
    def test_simple_chain(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + 3 * x
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])  # 2x + 3

    def test_grad_accumulates_across_uses(self):
        x = Tensor([1.0], requires_grad=True)
        y = x + x + x
        y.backward()
        np.testing.assert_allclose(x.grad, [3.0])

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        (x * 2).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_backward_requires_scalar_without_grad_arg(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_with_explicit_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        (x * 3).backward(np.ones((2, 2)))
        np.testing.assert_allclose(x.grad, 3 * np.ones((2, 2)))

    def test_backward_grad_shape_mismatch_raises(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 3).backward(np.ones(3))

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_diamond_graph(self):
        # f = (x*2) + (x*3); df/dx = 5
        x = Tensor([1.0], requires_grad=True)
        a = x * 2
        b = x * 3
        (a + b).backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_detach_cuts_graph(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * 3).detach()
        assert not y.requires_grad
        z = Tensor(y.data, requires_grad=False) * 2
        assert not z.requires_grad


class TestBroadcasting:
    def test_broadcast_add_grad(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4,)), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, 3 * np.ones(4))

    def test_broadcast_keepdim_axis(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        c = Tensor(np.ones((3, 1)), requires_grad=True)
        (x * c).sum().backward()
        np.testing.assert_allclose(c.grad, 4 * np.ones((3, 1)))

    def test_unbroadcast_identity(self):
        g = np.ones((3, 4))
        assert unbroadcast(g, (3, 4)) is g

    def test_unbroadcast_leading_and_kept_axes(self):
        g = np.ones((5, 3, 4))
        out = unbroadcast(g, (3, 1))
        assert out.shape == (3, 1)
        np.testing.assert_allclose(out, 20 * np.ones((3, 1)))


class TestNoGrad:
    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert y._parents == ()

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_tensor_created_in_no_grad_ignores_requires_grad(self):
        with no_grad():
            t = Tensor([1.0], requires_grad=True)
        assert not t.requires_grad


class TestShapes:
    def test_reshape_roundtrip_grad(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        y = x.reshape(2, 3).reshape((6,))
        y.backward(np.arange(6.0))
        np.testing.assert_allclose(x.grad, np.arange(6.0))

    def test_transpose_default_reverses(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.transpose().shape == (4, 3, 2)
        assert x.T.shape == (4, 3, 2)

    def test_swapaxes(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.swapaxes(0, 2).shape == (4, 3, 2)

    def test_getitem_scatter_grad_with_duplicates(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        y = x[np.array([0, 0, 1])]
        y.backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x.grad, [3.0, 3.0, 0.0, 0.0])


class TestReductions:
    def test_sum_axis_tuple(self, rng):
        x = rng.standard_normal((2, 3, 4))
        t = Tensor(x)
        np.testing.assert_allclose(t.sum(axis=(0, 2)).data, x.sum(axis=(0, 2)))

    def test_mean_matches_numpy(self, rng):
        x = rng.standard_normal((2, 3, 4))
        np.testing.assert_allclose(Tensor(x).mean(axis=1).data, x.mean(axis=1))

    def test_var_matches_numpy(self, rng):
        x = rng.standard_normal((5, 6))
        np.testing.assert_allclose(Tensor(x).var(axis=0).data, x.var(axis=0))

    def test_max_ties_split_gradient(self):
        x = Tensor(np.array([1.0, 1.0, 0.0]), requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5, 0.0])

    def test_min_value(self):
        assert Tensor([3.0, -1.0, 2.0]).min().item() == -1.0

    def test_argmax(self):
        assert Tensor([[0.0, 2.0, 1.0]]).argmax(axis=1).tolist() == [1]
