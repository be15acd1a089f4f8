"""Tensor core: forward semantics, backward rules vs finite differences."""

import numpy as np
import pytest

from avhgnn.tensor import (ComputeGraph, NumericError, Rng, ShapeError, Tensor,
                           xavier_init)
from conftest import assert_grad_close, numeric_gradient


def _leaf(rng, rows, cols, lo=-2.0, hi=2.0):
    return Tensor(rng.uniform(lo, hi, (rows, cols)), requires_grad=True)


class TestForward:
    def test_matmul_identity(self):
        g = ComputeGraph()
        eye = Tensor(np.eye(2))
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(g.matmul(eye, m).data, m.data)

    def test_matmul_hand(self):
        g = ComputeGraph()
        out = g.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.item() == 11.0

    def test_matmul_shape_error_names_both_shapes(self):
        g = ComputeGraph()
        with pytest.raises(ShapeError, match=r"\(1, 2\).*\(3, 1\)"):
            g.matmul(Tensor(np.zeros((1, 2))), Tensor(np.zeros((3, 1))))

    def test_relu(self):
        g = ComputeGraph()
        np.testing.assert_array_equal(
            g.relu(Tensor([[-1.0, 2.0]])).data, [[0.0, 2.0]])

    def test_row_softmax_uniform(self):
        g = ComputeGraph()
        out = g.row_softmax_masked(Tensor([[0.0, 0.0]]), np.array([[True, True]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_row_softmax_masked_row_sums(self):
        g = ComputeGraph()
        rng = np.random.default_rng(0)
        mask = rng.random((6, 5)) > 0.4
        out = g.row_softmax_masked(Tensor(rng.normal(0, 1, (6, 5))), mask)
        sums = out.data.sum(axis=1)
        live = mask.any(axis=1)
        np.testing.assert_allclose(sums[live], 1.0, atol=1e-6)
        np.testing.assert_array_equal(sums[~live], 0.0)
        assert np.all(out.data[~mask] == 0.0)

    def test_row_softmax_dead_row_yields_zeros_not_nan(self):
        g = ComputeGraph()
        out = g.row_softmax_masked(Tensor([[5.0, 7.0]]), np.array([[False, False]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0]])

    def test_sigmoid_derivative_at_zero(self):
        g = ComputeGraph()
        x = Tensor([[0.0]], requires_grad=True)
        g.backward(g.sum_all(g.sigmoid(x)))
        np.testing.assert_allclose(x.grad, [[0.25]])

    def test_log_domain_error(self):
        g = ComputeGraph()
        with pytest.raises(NumericError):
            g.log(Tensor([[1.0, 0.0]]))

    def test_add_broadcast_row(self):
        g = ComputeGraph()
        out = g.add(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[10.0, 20.0]]))
        np.testing.assert_array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])

    def test_add_shape_error(self):
        g = ComputeGraph()
        with pytest.raises(ShapeError):
            g.add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))

    @pytest.mark.parametrize("other", [(3, 2), (2, 2)])
    def test_add_rejects_non_broadcastable(self, other):
        g = ComputeGraph()
        with pytest.raises(ShapeError, match="incompatible"):
            g.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(other)))

    def test_concat_cols(self):
        g = ComputeGraph()
        out = g.concat_cols(Tensor([[1.0], [2.0]]), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 3.0, 4.0], [2.0, 5.0, 6.0]])

    def test_col_reductions(self):
        g = ComputeGraph()
        x = Tensor([[1.0, -4.0], [3.0, 2.0]])
        np.testing.assert_array_equal(g.col_sum(x).data, [[4.0, -2.0]])
        np.testing.assert_array_equal(g.col_mean(x).data, [[2.0, -1.0]])
        np.testing.assert_array_equal(g.col_max(x).data, [[3.0, 2.0]])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        g = ComputeGraph()
        w = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        g.backward(g.sum_all(w))
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))

    def test_square_gradient(self):
        g = ComputeGraph()
        w = Tensor([[3.0]], requires_grad=True)
        g.backward(g.sum_all(g.mul(w, w)))
        np.testing.assert_allclose(w.grad, [[6.0]])

    def test_repeated_backward_accumulates(self):
        g = ComputeGraph()
        w = Tensor([[2.0]], requires_grad=True)
        loss = g.sum_all(g.mul(w, w))
        g.backward(loss)
        g.backward(loss)
        np.testing.assert_allclose(w.grad, [[8.0]])  # 2 passes x 2w

    def test_non_scalar_loss_rejected(self):
        g = ComputeGraph()
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            g.backward(g.relu(w))

    def test_leaf_without_requires_grad_gets_none(self):
        g = ComputeGraph()
        w = Tensor([[1.0, 2.0]], requires_grad=True)
        x = Tensor([[3.0], [4.0]])
        g.backward(g.sum_all(g.matmul(w, x)))
        assert x.grad is None
        assert w.grad is not None


class TestGradientOracle:
    """Each recorded op matches central finite differences at float64."""

    def _check(self, build, leaves, rel=1e-4):
        def scalar():
            g = ComputeGraph()
            return build(g).item()

        for leaf in leaves:
            leaf.zero_grad()
        g = ComputeGraph()
        loss = build(g)
        g.backward(loss)
        numeric = numeric_gradient(scalar, [leaf.data for leaf in leaves])
        for leaf, num in zip(leaves, numeric):
            assert_grad_close(leaf.grad, num, rel=rel)

    def test_matmul_5x4_by_4x3(self, rng64):
        a, b = _leaf(rng64, 5, 4), _leaf(rng64, 4, 3)
        self._check(lambda g: g.sum_all(g.matmul(a, b)), [a, b])

    def test_add_same_shape_and_broadcast(self, rng64):
        a, b = _leaf(rng64, 3, 4), _leaf(rng64, 3, 4)
        self._check(lambda g: g.sum_all(g.mul(g.add(a, b), a)), [a, b])
        row = _leaf(rng64, 1, 4)
        self._check(lambda g: g.sum_all(g.mul(g.add(a, row), a)), [a, row])

    def test_add_broadcast_row_and_column(self, rng64):
        col, row, full = _leaf(rng64, 3, 1), _leaf(rng64, 1, 4), _leaf(rng64, 3, 4)
        weight = Tensor(rng64.uniform(-2.0, 2.0, (3, 4)))
        for a, b in ((col, row), (row, full), (full, col)):
            self._check(lambda g: g.sum_all(g.mul(g.add(a, b), weight)), [a, b])

    def test_sub_mul(self, rng64):
        a, b = _leaf(rng64, 2, 5), _leaf(rng64, 2, 5)
        self._check(
            lambda g: g.sum_all(g.mul(g.add(a, g.scalar_mul(b, -1.0)), b)), [a, b])

    def test_scalar_ops(self, rng64):
        a = _leaf(rng64, 3, 3)
        self._check(
            lambda g: g.sum_all(g.scalar_add(g.scalar_mul(a, -1.5), 0.5)), [a])

    def test_pow(self, rng64):
        a = _leaf(rng64, 3, 3, lo=0.1, hi=2.0)
        self._check(lambda g: g.sum_all(g.pow_scalar(a, 2.0)), [a])
        self._check(lambda g: g.sum_all(g.pow_scalar(a, 0.5)), [a])

    def test_pow_zero_exponent_gradient_is_zero(self, rng64):
        g = ComputeGraph()
        a = _leaf(rng64, 2, 2, lo=0.1, hi=2.0)
        g.backward(g.sum_all(g.pow_scalar(a, 0.0)))
        np.testing.assert_array_equal(a.grad, np.zeros((2, 2)))

    def test_log(self, rng64):
        a = _leaf(rng64, 3, 3, lo=0.05, hi=2.0)
        self._check(lambda g: g.sum_all(g.log(a)), [a])

    def test_activations(self, rng64):
        a = _leaf(rng64, 4, 4)
        self._check(lambda g: g.sum_all(g.relu(a)), [a])
        self._check(lambda g: g.sum_all(g.leaky_relu(a, 0.2)), [a])
        self._check(lambda g: g.sum_all(g.sigmoid(a)), [a])

    def test_clamp(self, rng64):
        a = _leaf(rng64, 4, 4)
        self._check(lambda g: g.sum_all(g.mul(g.clamp(a, -1.0, 1.0), a)), [a])

    def test_concat_transpose(self, rng64):
        a, b = _leaf(rng64, 3, 2), _leaf(rng64, 3, 4)
        self._check(
            lambda g: g.sum_all(g.mul(g.concat_cols(a, b),
                                      g.concat_cols(a, b))), [a, b])
        self._check(lambda g: g.sum_all(g.mul(g.transpose(a), g.transpose(a))), [a])

    def test_row_softmax_masked(self, rng64):
        a = _leaf(rng64, 5, 6)
        mask = np.random.default_rng(7).random((5, 6)) > 0.3
        mask[0, :] = False  # one dead row
        mask[1, :] = True
        weight = Tensor(np.random.default_rng(8).normal(0, 1, (5, 6)))
        self._check(
            lambda g: g.sum_all(g.mul(g.row_softmax_masked(a, mask), weight)), [a])

    def test_reductions(self, rng64):
        a = _leaf(rng64, 4, 3)
        self._check(lambda g: g.sum_all(g.mul(g.col_sum(a), g.col_sum(a))), [a])
        self._check(lambda g: g.sum_all(g.mul(g.col_mean(a), g.col_mean(a))), [a])
        self._check(lambda g: g.sum_all(g.mul(g.col_max(a), g.col_max(a))), [a])

    def test_shared_input_fan_out(self, rng64):
        a = _leaf(rng64, 3, 3)
        self._check(lambda g: g.sum_all(g.add(g.mul(a, a), g.relu(a))), [a])


class TestXavier:
    def test_bound_1x1(self):
        rng = Rng(1)
        vals = np.array([xavier_init(1, 1, rng).data[0, 0] for _ in range(1000)])
        assert np.all(np.abs(vals) <= np.sqrt(3.0))

    def test_bound_128x512_large_sample(self):
        bound = np.sqrt(6.0 / (128 + 512))
        assert abs(bound - 0.0968) < 1e-3
        rng = Rng(2)
        draws = [xavier_init(128, 512, rng).data for _ in range(2)]  # 131072 values
        peak = max(np.abs(d).max() for d in draws)
        assert peak <= bound
        # The draws should actually fill the interval, not hide near zero.
        assert peak > 0.95 * bound

    def test_same_seed_identical(self):
        a = xavier_init(16, 8, Rng(123)).data
        b = xavier_init(16, 8, Rng(123)).data
        np.testing.assert_array_equal(a, b)

    def test_bad_dims(self):
        with pytest.raises(ShapeError):
            xavier_init(0, 4, Rng(0))


class TestDeterminism:
    def test_forward_and_grads_bitwise(self):
        def run():
            rng = Rng(99)
            w = xavier_init(6, 4, rng)
            x = Tensor(rng.normal(0, 1, (3, 6)).astype(np.float32))
            g = ComputeGraph()
            out = g.sigmoid(g.matmul(x, w))
            g.backward(g.sum_all(out))
            return out.data.copy(), w.grad.copy()

        out1, grad1 = run()
        out2, grad2 = run()
        assert out1.tobytes() == out2.tobytes()
        assert grad1.tobytes() == grad2.tobytes()
