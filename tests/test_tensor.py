"""Tensor core: forward semantics, backward rules vs finite differences."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avhgnn.tensor import (ComputeGraph, NumericError, Rng, ShapeError, Tensor,
                           xavier_init)
from conftest import assert_grad_close, numeric_gradient
from reference_ops import ReferenceGraph


def _leaf(rng, *shape, lo=-2.0, hi=2.0):
    return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)


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

    @pytest.mark.parametrize("shapes", [((8, 1), (1, 6)), ((3, 8, 1), (1, 6)),
                                        ((8, 1), (3, 1, 6)), ((3, 8, 1), (3, 1, 6))])
    def test_length_one_matmul_bitwise_equals_numpy(self, shapes):
        # A length-1 contraction runs as a broadcast product: on non-zero
        # float32 data that is numpy's matmul bit for bit. Only a -0.0
        # product keeps its sign, where numpy's matmul gives +0.0.
        rng = np.random.default_rng(3)
        x, y = (rng.uniform(0.5, 2.0, s) * rng.choice([-1.0, 1.0], s) for s in shapes)
        x, y = x.astype(np.float32), y.astype(np.float32)
        out = ComputeGraph().matmul(Tensor(x), Tensor(y)).data
        assert out.tobytes() == (x @ y).tobytes()
        x[..., 0, 0] = -0.0  # row 0 of each product is then +-0.0 * y
        out = ComputeGraph().matmul(Tensor(x), Tensor(y)).data
        assert (out == x @ y).all()
        assert (np.signbit(out[..., 0, :]) == (y[..., 0, :] > 0)).all()
        assert not np.signbit((x @ y)[..., 0, :]).any()

    def test_relu(self):
        g = ReferenceGraph()
        np.testing.assert_array_equal(
            g.relu(Tensor([[-1.0, 2.0]])).data, [[0.0, 2.0]])

    def test_row_softmax_uniform(self):
        g = ReferenceGraph()
        out = g.row_softmax_masked(Tensor([[0.0, 0.0]]), np.array([[True, True]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_row_softmax_masked_row_sums(self):
        g = ReferenceGraph()
        rng = np.random.default_rng(0)
        mask = rng.random((6, 5)) > 0.4
        out = g.row_softmax_masked(Tensor(rng.normal(0, 1, (6, 5))), mask)
        sums = out.data.sum(axis=1)
        live = mask.any(axis=1)
        np.testing.assert_allclose(sums[live], 1.0, atol=1e-6)
        np.testing.assert_array_equal(sums[~live], 0.0)
        assert np.all(out.data[~mask] == 0.0)

    def test_row_softmax_dead_row_yields_zeros_not_nan(self):
        g = ReferenceGraph()
        out = g.row_softmax_masked(Tensor([[5.0, 7.0]]), np.array([[False, False]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0]])

    def test_row_softmax_nan_score_propagates_to_its_row_only(self):
        mask = np.ones((2, 3), bool)
        clean = ReferenceGraph().row_softmax_masked(Tensor([[0.1, 0.2, 0.3]]), mask[:1]).data
        with np.errstate(invalid="ignore"):
            out = ReferenceGraph().row_softmax_masked(
                Tensor([[0.5, np.nan, 1.0], [0.1, 0.2, 0.3]]), mask).data
        assert np.isnan(out[0]).all()
        assert out[1].tobytes() == clean[0].tobytes()

    def test_sigmoid_derivative_at_zero(self):
        g = ReferenceGraph()
        x = Tensor([[0.0]], requires_grad=True)
        g.backward(g.sum_all(g.sigmoid(x)))
        np.testing.assert_allclose(x.grad, [[0.25]])

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
        # pool sets the parts' rows side by side: here a sum, a max and a learned row.
        g = ComputeGraph()
        a, b = Tensor([[1.0], [2.0]]), Tensor([[3.0, 4.0], [5.0, 6.0]])
        out = g.pool([(a, 1.0), (b, None), (b, Tensor([[0.5], [-1.0]]))])
        np.testing.assert_array_equal(out.data, [[3.0, 5.0, 6.0, -3.5, -4.0]])
        batch = g.pool([(Tensor(np.ones((2, 3, 1))), 0.5), (Tensor(np.zeros((2, 3, 2))), None)])
        np.testing.assert_array_equal(batch.data, [[[1.5, 0.0, 0.0]]] * 2)

    def test_col_max(self):
        g = ComputeGraph()
        x = Tensor([[1.0, -4.0], [3.0, 2.0]])
        np.testing.assert_array_equal(g.pool([(x, None)]).data, [[3.0, 2.0]])
        batch = Tensor([[[1.0, -4.0], [3.0, 2.0]], [[0.0, 5.0], [-1.0, 5.0]]])
        np.testing.assert_array_equal(g.pool([(batch, None)]).data,
                                      [[[3.0, 2.0]], [[0.0, 5.0]]])

    def test_col_max_gradient_goes_to_the_first_argmax(self):
        x = Tensor([[1.0, 5.0, 2.0], [3.0, 5.0, 2.0], [3.0, 0.0, 2.0]], requires_grad=True)
        g = ReferenceGraph()
        g.backward(g.sum_all(g.mul(g.pool([(x, None)]), Tensor([[1.0, 2.0, 3.0]]))))
        np.testing.assert_array_equal(x.grad, [[0.0, 2.0, 3.0], [1.0, 0.0, 0.0],
                                               [0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("parts", [[((3, 4), (2, 1))], [((3, 4), (3, 2))],
                                       [((3, 4), (1, 3))], [((2, 3, 4), None), ((3, 3, 4), 1.0)],
                                       [((3, 4), None), ((2, 3, 4), 1.0)]])
    def test_pool_parts_that_do_not_fit_are_shape_errors(self, parts):
        tensors = [(Tensor(np.ones(h)), Tensor(np.ones(w)) if isinstance(w, tuple) else w)
                   for h, w in parts]
        with pytest.raises(ShapeError, match="pool parts"):
            ComputeGraph().pool(tensors)

    def test_readout_only_ops_are_gone(self):
        for name in ("transpose", "concat_cols", "col_max"):
            assert not hasattr(ComputeGraph, name)


class TestBatchAxis:
    """A B x rows x cols tensor is B matrices: each op acts on every one alike."""

    def test_rows_and_cols_are_the_last_two_axes(self):
        t = Tensor(np.zeros((4, 2, 3)))
        assert (t.rows, t.cols, t.shape) == (2, 3, (4, 2, 3))
        with pytest.raises(ShapeError, match="2-D or 3-D"):
            Tensor(np.zeros((1, 4, 2, 3)))

    def test_ops_match_each_matrix_alone(self, rng64):
        stack = rng64.normal(0, 1, (3, 4, 5))
        weight, other = rng64.normal(0, 1, (5, 2)), rng64.normal(0, 1, (3, 4, 2))
        mask = rng64.random((4, 5)) > 0.4
        mask[0] = False
        g = ReferenceGraph()

        def ops(x, y):
            return {"matmul": g.matmul(x, Tensor(weight)), "transpose": g.transpose(x),
                    "softmax": g.row_softmax_masked(x, mask), "col_max": g.pool([(x, None)]),
                    "pool": g.pool([(x, Tensor(weight[:4, :1])), (y, 0.5), (x, None)]),
                    "sigmoid": g.sigmoid(x)}

        batched = ops(Tensor(stack), Tensor(other))
        for b in range(3):
            for name, out in ops(Tensor(stack[b]), Tensor(other[b])).items():
                np.testing.assert_allclose(batched[name].data[b], out.data, atol=1e-12,
                                           err_msg=name)

    def test_mask_must_match_the_last_two_axes(self):
        with pytest.raises(ShapeError, match="mask shape"):
            ReferenceGraph().row_softmax_masked(Tensor(np.zeros((2, 3, 4))),
                                              np.ones((2, 3, 4), dtype=bool))

    def test_focal_loss_over_a_batch_is_one_scalar(self):
        probs = Tensor(np.full((3, 1, 2), 0.5))
        loss = ComputeGraph().focal_loss(probs, np.ones((3, 1, 2)), 0.0, 1e-7)
        assert loss.shape == (1, 1)
        assert abs(loss.item() - 6.0 * np.log(2.0)) < 1e-12


class TestBackward:
    def test_sum_gradient_is_ones(self):
        g = ReferenceGraph()
        w = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        g.backward(g.sum_all(w))
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))

    def test_square_gradient(self):
        g = ReferenceGraph()
        w = Tensor([[3.0]], requires_grad=True)
        g.backward(g.sum_all(g.mul(w, w)))
        np.testing.assert_allclose(w.grad, [[6.0]])

    def test_repeated_backward_accumulates(self):
        g = ReferenceGraph()
        w = Tensor([[2.0]], requires_grad=True)
        loss = g.sum_all(g.mul(w, w))
        g.backward(loss)
        g.backward(loss)
        np.testing.assert_allclose(w.grad, [[8.0]])  # 2 passes x 2w

    def test_non_scalar_loss_rejected(self):
        g = ReferenceGraph()
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            g.backward(g.relu(w))

    def test_tape_freed_without_cyclic_gc(self, rng64):
        # Backward rules must not hold their tape: with the cyclic collector
        # off, dropping the last reference has to free it.
        w = _leaf(rng64, 4, 3)
        x = Tensor(rng64.normal(0, 1, (5, 4)))
        gc.disable()
        try:
            g = ReferenceGraph()
            h = g.leaky_relu(g.matmul(x, w), 0.2)
            alpha = g.row_softmax_masked(g.matmul(h, g.transpose(h)),
                                         np.ones((5, 5), dtype=bool))
            pooled = g.pool([(g.relu(g.matmul(alpha, h)), None),
                             (g.mul(h, h), _leaf(rng64, 5, 1))])
            pooled = g.add(pooled, Tensor(np.zeros((1, 6))))
            g.backward(g.focal_loss(g.sigmoid(pooled), np.ones((1, 6)), 2.0, 1e-7))
            tape = weakref.ref(g)
            del g
            assert tape() is None
        finally:
            gc.enable()
        assert w.grad is not None

    def test_shared_weight_gradient_needs_no_per_graph_stack(self):
        # A batch times a shared weight folds the batch into GEMM rows, so the
        # weight's gradient is one k x m product: no B x k x m stack of
        # per-graph gradients is ever allocated.
        x = Tensor(np.ones((8, 4, 64), dtype=np.float32))
        w = Tensor(np.ones((64, 64), dtype=np.float32), requires_grad=True)
        g = ReferenceGraph()
        loss = g.sum_all(g.matmul(x, w))
        tracemalloc.start()
        try:
            g.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 64 * 64 * w.data.itemsize / 2
        np.testing.assert_array_equal(w.grad, np.full((64, 64), 32.0))

    @pytest.mark.parametrize("op", ["add", "matmul", "mul"])
    def test_one_tensor_as_both_operands_gets_both_gradients(self, op):
        # The first side's gradient is stored first; the second must add into
        # it, not be added into an array the first side adopted.
        x = Tensor(np.arange(1.0, 10.0).reshape(3, 3), requires_grad=True)
        up = np.random.default_rng(0).normal(0, 1, (3, 3))
        g = ReferenceGraph()
        g.backward(g.sum_all(g.mul(getattr(g, op)(x, x), Tensor(up))))
        expected = {"add": up + up, "matmul": up @ x.data.T + x.data.T @ up,
                    "mul": up * x.data + up * x.data}[op]
        assert x.grad.tobytes() == expected.tobytes()

    # Sign, exponent-all-ones and quiet bits of each float width.
    FLOAT_BITS = {np.float32: (np.uint32, 1 << 31, 0xFF << 23, 1 << 22),
                  np.float64: (np.uint64, 1 << 63, 0x7FF << 52, 1 << 51)}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_an_add_into_negative_zero_is_a_copy_at_the_edges(self, dtype):
        # IEEE 754 round to nearest: x + (-0) = x for every x, +-0 included; a
        # +0.0 fill would turn -0.0 into +0.0. An optimizer's -0.0 gradient fill
        # rests on this.
        fi = np.finfo(dtype)
        x = np.array([0.0, -0.0, np.inf, -np.inf, fi.max, -fi.max, fi.tiny, -fi.tiny,
                      fi.smallest_subnormal, -fi.smallest_subnormal, fi.tiny / 3,
                      np.nan, -np.nan, 1.5, -2.0**-20], dtype)
        assert (np.full_like(x, -0.0) + x).tobytes() == x.tobytes()
        assert (np.zeros_like(x) + x).tobytes() != x.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_an_add_into_negative_zero_is_a_copy(self, dtype, data):
        # Any bit pattern but a signaling NaN, which every arithmetic op quiets
        # (so no computed gradient holds one); a NaN's payload and sign survive.
        uint, sign, exp, quiet = self.FLOAT_BITS[dtype]
        bits = np.array(data.draw(st.lists(st.integers(0, 2 * sign - 1), min_size=1,
                                           max_size=64)), uint)
        nan = (bits & exp == exp) & (bits & (sign - 1 - exp) != 0)
        bits[nan] |= uint(quiet)
        x = bits.view(dtype)
        assert (np.full_like(x, -0.0) + x).tobytes() == x.tobytes()

    def test_a_record_whose_output_got_no_gradient_is_skipped(self):
        # Each sigmoid below is recorded and never read, so backward skips its rule:
        # its input keeps the gradient of the live branch alone, or none at all.
        g = ReferenceGraph()
        dead, shared = (Tensor([[1.0, -2.0]], requires_grad=True) for _ in range(2))
        g.sigmoid(dead)
        g.sigmoid(shared)
        g.backward(g.sum_all(g.add(shared, shared)))
        assert dead.grad is None
        np.testing.assert_array_equal(shared.grad, [[2.0, 2.0]])

    def test_check_finite_names_the_recorded_kind(self):
        g = ComputeGraph()
        g._emit("first", np.ones((1, 1)), lambda g: None)
        bad = g._emit("second", np.full((1, 2), np.inf), lambda g: None)
        g.check_finite(g._records[0][1])
        with pytest.raises(NumericError, match=r"^op 1 \(second\) produced a non-finite"):
            g.check_finite(bad)

    def test_leaf_without_requires_grad_gets_none(self):
        g = ReferenceGraph()
        w = Tensor([[1.0, 2.0]], requires_grad=True)
        x = Tensor([[3.0], [4.0]])
        g.backward(g.sum_all(g.matmul(w, x)))
        assert x.grad is None
        assert w.grad is not None


class TestGradientOracle:
    """Each recorded op matches central finite differences at float64."""

    def _check(self, build, leaves, rel=1e-4):
        def scalar():
            g = ReferenceGraph()
            return build(g).item()

        for leaf in leaves:
            leaf.grad = None
        g = ReferenceGraph()
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
        minus_one = Tensor(-np.ones((2, 5)))
        self._check(
            lambda g: g.sum_all(g.mul(g.add(a, g.mul(b, minus_one)), b)), [a, b])

    def test_activations(self, rng64):
        a = _leaf(rng64, 4, 4)
        self._check(lambda g: g.sum_all(g.relu(a)), [a])
        self._check(lambda g: g.sum_all(g.leaky_relu(a, 0.2)), [a])
        self._check(lambda g: g.sum_all(g.sigmoid(a)), [a])

    def test_concat_transpose(self, rng64):
        # pool's learned rows are transposed weights, its parts concatenated.
        a, b = _leaf(rng64, 3, 2), _leaf(rng64, 3, 4)
        wa, wb = _leaf(rng64, 3, 1), _leaf(rng64, 3, 1)
        self._check(lambda g: g.sum_all(g.mul(g.pool([(a, wa), (b, wb)]),
                                              g.pool([(a, wa), (b, wb)]))), [a, b, wa, wb])
        self._check(lambda g: g.sum_all(g.mul(g.transpose(a), g.transpose(a))), [a])

    def test_row_softmax_masked(self, rng64):
        a = _leaf(rng64, 5, 6)
        mask = np.random.default_rng(7).random((5, 6)) > 0.3
        mask[0, :] = False  # one dead row
        mask[1, :] = True
        weight = Tensor(np.random.default_rng(8).normal(0, 1, (5, 6)))
        self._check(
            lambda g: g.sum_all(g.mul(g.row_softmax_masked(a, mask), weight)), [a])

    def test_col_max(self, rng64):
        a = _leaf(rng64, 4, 3)
        self._check(lambda g: g.sum_all(g.mul(g.pool([(a, None)]), g.pool([(a, None)]))), [a])
        batch = _leaf(rng64, 3, 4, 3)
        self._check(lambda g: g.sum_all(g.mul(g.pool([(batch, None)]),
                                              g.pool([(batch, None)]))), [batch])

    def test_constant_row_pooling(self, rng64):
        # Mean and sum pooling: a constant 1 x n row times one matrix or a batch.
        for a in (_leaf(rng64, 4, 3), _leaf(rng64, 2, 4, 3)):
            for value in (0.25, 1.0):
                row = Tensor(np.full((1, 4), value))
                self._check(lambda g: g.sum_all(g.mul(g.matmul(row, a),
                                                      g.matmul(row, a))), [a])
                self._check(lambda g: g.sum_all(g.mul(g.pool([(a, value)]),
                                                      g.pool([(a, value)]))), [a])

    # The last nine contract over length 1 in the forward product (a.cols == 1),
    # in a's gradient (b.cols == 1) or in b's (one row of a, or of the folded
    # batch), on the fold, 2-D @ 3-D and 3-D @ 3-D paths.
    @pytest.mark.parametrize("shapes", [
        ((3, 4, 5), (5, 2)), ((4, 5), (3, 5, 2)), ((3, 4, 5), (3, 5, 2)),
        ((1, 4, 5), (5, 2)), ((3, 1, 5), (5, 2)),
        ((3, 4, 1), (1, 5)), ((3, 4, 5), (5, 1)), ((1, 1, 5), (5, 2)),
        ((4, 1), (3, 1, 5)), ((4, 5), (3, 5, 1)), ((1, 5), (3, 5, 2)),
        ((3, 4, 1), (3, 1, 5)), ((3, 4, 5), (3, 5, 1)), ((3, 1, 5), (3, 5, 2))])
    def test_batched_matmul(self, rng64, shapes):
        a, b = _leaf(rng64, *shapes[0]), _leaf(rng64, *shapes[1])
        weight = Tensor(rng64.normal(0, 1, np.matmul(a.data, b.data).shape))
        self._check(lambda g: g.sum_all(g.mul(g.matmul(a, b), weight)), [a, b])

    @pytest.mark.parametrize("shapes", [((3, 4, 1), (3, 1, 5)), ((3, 1, 5), (1, 5))])
    def test_add_batch_broadcast(self, rng64, shapes):
        a, b = _leaf(rng64, *shapes[0]), _leaf(rng64, *shapes[1])
        out_shape = np.broadcast_shapes(shapes[0], shapes[1])
        weight = Tensor(rng64.normal(0, 1, out_shape))
        self._check(lambda g: g.sum_all(g.mul(g.add(a, b), weight)), [a, b])

    def test_batched_concat_cols(self, rng64):
        a, b, wa = _leaf(rng64, 3, 4, 2), _leaf(rng64, 3, 5, 3), _leaf(rng64, 4, 1)
        weight = Tensor(rng64.normal(0, 1, (3, 1, 8)))
        self._check(lambda g: g.sum_all(g.mul(g.pool([(a, wa), (b, None), (b, 0.2)]), weight)),
                    [a, b, wa])

    def test_shared_input_fan_out(self, rng64):
        a = _leaf(rng64, 3, 3)
        self._check(lambda g: g.sum_all(g.add(g.mul(a, a), g.relu(a))), [a])

    @pytest.mark.parametrize("adj_shape, feats_shape", [((4, 4), (4, 3)), ((2, 4), (3, 4, 3))])
    def test_gcn(self, rng64, adj_shape, feats_shape):
        adj = rng64.uniform(0.0, 1.0, adj_shape)
        feats, weight = _leaf(rng64, *feats_shape), _leaf(rng64, 3, 5)
        up = Tensor(rng64.normal(0, 1, np.matmul(adj, feats.data @ weight.data).shape))
        self._check(lambda g: g.sum_all(g.mul(g.gcn(adj, feats, weight), up)),
                    [feats, weight])

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_gat_attention(self, rng64, batch):
        # The attention's gradient reaches its leaves through gat_fusion's message.
        audio, video = _leaf(rng64, *batch, 4, 3), _leaf(rng64, *batch, 5, 6)
        w_msg, att_audio, att_video = _leaf(rng64, 6, 2), _leaf(rng64, 3, 1), _leaf(rng64, 2, 1)
        base = _leaf(rng64, *batch, 4, 2)
        mask = np.random.default_rng(7).random((4, 5)) > 0.3
        mask[0, :] = False  # one dead row
        mask[1, :] = True
        up = Tensor(rng64.normal(0, 1, batch + (4, 2)))
        leaves = [base, audio, video, w_msg, att_audio, att_video]
        self._check(lambda g: g.sum_all(g.mul(g.gat_fusion(*leaves, mask, 0.2)[0], up)),
                    leaves)


def _softmax_reference(x, mask):
    """row_softmax_masked's former forward, which applied the mask five times."""
    x = np.where(mask, x, -np.inf)
    row_max = np.max(x, axis=-1, keepdims=True)
    live = np.isfinite(row_max)
    shifted = np.where(mask, x - np.where(live, row_max, 0.0), -np.inf)
    ex = np.where(mask, np.exp(np.where(mask, shifted, 0.0)), 0.0)
    denom = ex.sum(axis=-1, keepdims=True)
    out = np.divide(ex, denom, out=np.zeros_like(ex), where=denom > 0)
    return out.astype(x.dtype)


def _sigmoid_reference(x):
    """sigmoid's former forward, which scattered each sign's branch by boolean index."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _leaky_scale_reference(x, slope):
    """leaky_relu's former scale, built in float64 and cast."""
    return np.where(x > 0, 1.0, slope).astype(x.dtype)


class TestRewrittenOpsBitwise:
    """row_softmax_masked, sigmoid and leaky_relu give the bytes of their former
    bodies, forward and backward, in f32 and f64, unbatched and for B = 3."""

    SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf])

    @staticmethod
    def _assert_same_bits(new, old):
        # A NaN's payload may differ; its place may not.
        assert new.dtype == old.dtype and new.shape == old.shape
        nan = np.isnan(old)
        assert (np.isnan(new) == nan).all()
        assert new[~nan].tobytes() == old[~nan].tobytes()

    def _cases(self):
        """(x, upstream gradient, mask): |x| up to 100, with +-0 and +-inf scattered
        in; mask row 0 is all False."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for dtype in (np.float32, np.float64):
                for shape in ((5, 7), (3, 5, 7)):
                    x = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-1, 3, shape)
                    spots = rng.random(shape) < 0.1 * (seed % 2)
                    x[spots] = rng.choice(self.SPECIALS, spots.sum())
                    mask = rng.random(shape[-2:]) > 0.4
                    mask[0] = False
                    yield (x.astype(dtype), rng.normal(0, 1, shape).astype(dtype), mask)

    def _check(self, op, ref_forward, ref_backward):
        for x, upstream, mask in self._cases():
            leaf = Tensor(x, requires_grad=True)
            g = ReferenceGraph()
            with np.errstate(invalid="ignore"):  # inf - inf and inf / inf make NaN
                out = op(g, leaf, mask)
                g.backward(g.sum_all(g.mul(out, Tensor(upstream))))
                ref = ref_forward(x, mask)
                self._assert_same_bits(out.data, ref)
                self._assert_same_bits(leaf.grad, ref_backward(upstream, ref, x))

    def test_row_softmax_masked(self):
        def backward(g, out, x):
            return out * (g - (g * out).sum(axis=-1, keepdims=True))

        self._check(lambda g, a, mask: g.row_softmax_masked(a, mask),
                    _softmax_reference, backward)

    def test_sigmoid(self):
        self._check(lambda g, a, mask: g.sigmoid(a), lambda x, mask: _sigmoid_reference(x),
                    lambda g, out, x: g * out * (1.0 - out))

    def test_leaky_relu(self):
        self._check(lambda g, a, mask: g.leaky_relu(a, 0.2),
                    lambda x, mask: x * _leaky_scale_reference(x, 0.2),
                    lambda g, out, x: g * _leaky_scale_reference(x, 0.2))


def _gcn_fused(g, adj, feats, weight):
    return g.gcn(adj.data, feats, weight)  # the fused op takes its adjacency as an array


def _gcn_chain(g, adj, feats, weight):
    return g.relu(g.matmul(adj, g.matmul(feats, weight)))


def _attend_chain(g, base, alpha, video, w_msg):
    return g.add(base, g.matmul(g.matmul(alpha, video), w_msg))


def _gat_chain(g, audio, video, w_msg, att_audio, att_video, mask, slope):
    score_v = g.matmul(video, g.matmul(w_msg, att_video))
    score_a = g.matmul(audio, att_audio)
    scores = g.leaky_relu(g.add(score_a, g.transpose(score_v)), slope)
    return g.row_softmax_masked(scores, mask)


def _gat_fusion_chain(g, base, audio, video, w_msg, att_audio, att_video, mask, slope):
    alpha = _gat_chain(g, audio, video, w_msg, att_audio, att_video, mask, slope)
    return _attend_chain(g, base, alpha, video, w_msg), alpha.data


class TestFusedOpsBitwise:
    """gcn and gat_fusion give the bytes of the op chains they replace: the
    outputs and every input gradient, in f32 and f64, for one matrix and for a
    batch of 3, with trainable and with frozen features."""

    @staticmethod
    def _run(op, arrays, trainable, upstream, extra=()):
        """The op's outputs as arrays (the first, a tensor, differentiated against
        `upstream`), the leaves' gradients, and the tape's length."""
        leaves = [Tensor(a.copy(), requires_grad=t) for a, t in zip(arrays, trainable)]
        g = ReferenceGraph()
        outs = op(g, *leaves, *extra)
        outs = outs if isinstance(outs, tuple) else (outs,)
        g.backward(g.sum_all(g.mul(outs[0], Tensor(upstream))))
        return [outs[0].data, *outs[1:]] + [leaf.grad for leaf in leaves], len(g)

    def _assert_same(self, fused, chain, n_chain_ops):
        (fused_arrays, fused_len), (chain_arrays, chain_len) = fused, chain
        assert chain_len - fused_len == n_chain_ops - 1
        for new, old in zip(fused_arrays, chain_arrays):
            if old is None:
                assert new is None
            else:
                assert new.dtype == old.dtype and new.shape == old.shape
                assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("n_out", [6, 4])  # 4: a non-square adjacency
    def test_gcn(self, dtype, batch, frozen, n_out):
        rng = np.random.default_rng(n_out + len(batch))
        adj = rng.uniform(0.0, 1.0, (n_out, 6)) * (rng.random((n_out, 6)) > 0.4)
        feats = rng.normal(0, 1, batch + (6, 5))
        weight = rng.normal(0, 1, (5, 7))
        arrays = [a.astype(dtype) for a in (adj, feats, weight)]
        upstream = rng.normal(0, 1, batch + (n_out, 7)).astype(dtype)
        trainable = [False, not frozen, True]
        fused = self._run(_gcn_fused, arrays, trainable, upstream)
        self._assert_same(fused, self._run(_gcn_chain, arrays, trainable, upstream), 3)
        assert (fused[0][2] is None) == frozen

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_gcn_mask_from_its_output_on_signed_zeros_and_nan(self, dtype, batch):
        # Length-1 contractions are broadcasts, so the pre-activations are exactly
        # adj[i] * weight[j]: negatives, +0, -0.0 and NaN. Each column's weight
        # gradient sums adj[i] times the masked upstream, so a mask that passed a
        # zero or a NaN entry would change it.
        adj = np.array([[2.0], [-1.0], [0.5], [-3.0]])
        weight = np.array([[1.5, -0.0, 0.0, np.nan, -2.0]])
        arrays = [a.astype(dtype) for a in (adj, np.ones(batch + (1, 1)), weight)]
        pre = arrays[0] * arrays[2]
        assert (pre < 0).any() and np.isnan(pre).any()
        assert (np.signbit(pre) & (pre == 0)).any() and (~np.signbit(pre) & (pre == 0)).any()
        upstream = np.random.default_rng(7).normal(0, 1, batch + (4, 5)).astype(dtype)
        trainable = [False, True, True]
        fused = self._run(_gcn_fused, arrays, trainable, upstream)
        self._assert_same(fused, self._run(_gcn_chain, arrays, trainable, upstream), 3)
        assert np.isfinite(fused[0][3]).all()  # the weight gradient

    def test_gcn_record_holds_no_mask(self):
        rng = np.random.default_rng(0)
        g = ComputeGraph()
        g.gcn(rng.random((4, 4)), Tensor(rng.normal(0, 1, (4, 3))),
              Tensor(rng.normal(0, 1, (3, 5)), requires_grad=True))
        held = [cell.cell_contents for cell in g._records[-1][2].__closure__]
        assert not any(isinstance(x, np.ndarray) and x.dtype == bool for x in held)

    def _check_gat_fusion(self, dtype, batch, frozen, n_audio, n_video):
        # The aggregate and the projection also feed video and w_msg, so their
        # gradients must be added in the chain's order too.
        rng = np.random.default_rng(n_audio + n_video + len(batch))
        arrays = [rng.normal(0, s, shape).astype(dtype) for s, shape in (
            (1.0, batch + (n_audio, 4)), (2.0, batch + (n_audio, 3)),
            (2.0, batch + (n_video, 6)), (1.0, (6, 4)), (1.0, (3, 1)), (1.0, (4, 1)))]
        mask = rng.random((n_audio, n_video)) > 0.3
        mask[-1, :3] = True
        if n_audio > 1:
            mask[0] = False  # an all-masked row attends to nothing
        upstream = rng.normal(0, 1, batch + (n_audio, 4)).astype(dtype)
        trainable = [True, not frozen, not frozen, True, True, True]
        fused = self._run(ComputeGraph.gat_fusion, arrays, trainable, upstream, (mask, 0.2))
        chain = self._run(_gat_fusion_chain, arrays, trainable, upstream, (mask, 0.2))
        self._assert_same(fused, chain, 10)
        _, alpha, _, audio_grad, video_grad = fused[0][:5]
        assert (audio_grad is None) == (video_grad is None) == frozen
        if n_audio > 1:
            assert not alpha[..., 0, :].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("n_audio", [4, 1])
    def test_gat_attention_and_message(self, dtype, batch, frozen, n_audio):
        self._check_gat_fusion(dtype, batch, frozen, n_audio, n_video=5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("n_video", [5, 1])  # 1: the aggregate is a broadcast
    def test_attend(self, dtype, batch, frozen, n_video):
        """The message's cases: as many video nodes as above, and one."""
        self._check_gat_fusion(dtype, batch, frozen, n_audio=4, n_video=n_video)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("n", [5, 1])  # 1: each product is a broadcast
    def test_pool(self, dtype, batch, n):
        # Learned, constant and max parts: the output is each part's chain (transpose
        # and matmul, matmul of the constant row, column max) side by side, and each
        # leaf's gradient is the one its chain gets from its slice of the upstream.
        rng = np.random.default_rng(n + len(batch))
        arrays = [rng.normal(0, 1, shape).astype(dtype)
                  for shape in (batch + (n, 4), (n, 1), batch + (n, 3), batch + (n, 2))]
        upstream = rng.normal(0, 1, batch + (1, 9)).astype(dtype)

        def run(chain):
            a, w, b, c = (Tensor(x.copy(), requires_grad=True) for x in arrays)
            g = ReferenceGraph()
            if chain:
                row = Tensor(np.full((1, n), 1.0 / n, dtype))
                outs = [g.matmul(g.transpose(w), a), g.matmul(row, b), g.pool([(c, None)])]
            else:
                outs = [g.pool([(a, w), (b, 1.0 / n), (c, None)])]
            for out, up in zip(outs, np.split(upstream, [4, 7], axis=-1) if chain else [upstream]):
                g.backward(g.sum_all(g.mul(out, Tensor(up.copy()))))
            return [np.concatenate([o.data for o in outs], axis=-1)] + [
                t.grad for t in (a, w, b, c)]

        for fused, chain in zip(run(False), run(True)):
            assert fused.dtype == chain.dtype and fused.shape == chain.shape
            assert fused.tobytes() == chain.tobytes()

    def test_gat_fusion_record_holds_no_aggregate_or_projection(self):
        # Neither the aggregate alpha @ video (4 x 6) nor the projection (4 x 5):
        # beside its inputs, only the attention's arrays, 4 x 3 or one column.
        rng = np.random.default_rng(0)
        inputs = [Tensor(rng.normal(0, 1, shape), requires_grad=True)
                  for shape in ((4, 5), (4, 2), (3, 6), (6, 5), (2, 1), (5, 1))]
        g = ComputeGraph()
        g.gat_fusion(*inputs, np.ones((4, 3), bool), 0.2)
        held = [cell.cell_contents for cell in g._records[-1][2].__closure__]
        arrays = [x for x in held if not any(x is t for t in inputs)]
        assert all(isinstance(x, np.ndarray) and x.shape[-1] in (1, 3) for x in arrays)

    def test_gat_fusion_dims_mismatch_is_shape_error(self):
        shapes = ((4, 5), (4, 2), (3, 6), (6, 5), (2, 1), (5, 1))
        mask = np.ones((4, 3), bool)
        for i, bad in enumerate(((4, 4), (4, 3), (3, 7), (6, 4), (3, 1), (5, 2))):
            tensors = [Tensor(np.ones(bad if j == i else s)) for j, s in enumerate(shapes)]
            with pytest.raises(ShapeError, match="gat_fusion dims differ"):
                ComputeGraph().gat_fusion(*tensors, mask, 0.2)
        with pytest.raises(ShapeError, match="gat_fusion dims differ"):  # a batched base
            ComputeGraph().gat_fusion(Tensor(np.ones((3, 4, 5))),
                                      *[Tensor(np.ones(s)) for s in shapes[1:]], mask, 0.2)

    @pytest.mark.parametrize("adj", [Tensor(np.ones((2, 2)), requires_grad=True),
                                     np.ones((3, 2, 2))])
    def test_gcn_adjacency_needing_a_gradient_or_batched_is_shape_error(self, adj):
        with pytest.raises(ShapeError, match="must be a 2-D ndarray"):
            ComputeGraph().gcn(adj, Tensor(np.ones((3, 2, 3))), Tensor(np.ones((3, 4))))

    def test_gcn_dims_mismatch_is_shape_error(self):
        with pytest.raises(ShapeError, match="gcn dims differ"):
            ComputeGraph().gcn(np.ones((2, 3)), Tensor(np.ones((2, 3))),
                               Tensor(np.ones((3, 4))))

    def test_gat_fusion_mask_of_another_shape_is_shape_error(self):
        ones = [np.ones(s) for s in ((2, 6), (2, 3), (4, 5), (5, 6), (3, 1), (6, 1))]
        with pytest.raises(ShapeError, match="mask shape"):
            ComputeGraph().gat_fusion(*map(Tensor, ones), np.ones((4, 2), bool), 0.2)


def _focal_chain_reference(probs, y, gamma, eps):
    """Focal loss and d loss / d probs as a tape of 14 elementwise ops gives them.

    The forward runs one numpy expression per op: clamp, scalar_mul,
    scalar_add, pow, log, mul, mul, pow, log, mul, mul, add, sum_all,
    scalar_mul. The backward applies each op's reverse-mode rule in reverse
    tape order, with the tape's accumulation: an input's first gradient is
    copied, later ones are added in place.
    """
    e = float(gamma)
    neg = 1.0 - y
    inside = (probs >= eps) & (probs <= 1.0 - eps)
    p = np.clip(probs, eps, 1.0 - eps)                    # 0 clamp
    s1 = p * -1.0                                         # 1 scalar_mul
    omp = s1 + 1.0                                        # 2 scalar_add
    pw1 = np.power(omp, e)                                # 3 pow
    l1 = np.log(p)                                        # 4 log
    m1 = pw1 * l1                                         # 5 mul
    t1 = y * m1                                           # 6 mul
    pw2 = np.power(p, e)                                  # 7 pow
    l2 = np.log(omp)                                      # 8 log
    m2 = pw2 * l2                                         # 9 mul
    t2 = neg * m2                                         # 10 mul
    s = t1 + t2                                           # 11 add
    total = np.asarray(s.sum(dtype=s.dtype)).reshape(1, 1)  # 12 sum_all
    loss = total * -1.0                                   # 13 scalar_mul

    grads = {}

    def accum(name, g):
        if name in grads:
            grads[name] += g
        else:
            grads[name] = g.astype(probs.dtype, copy=True)

    def dpow(g, x):
        return np.zeros_like(x) if e == 0.0 else g * e * np.power(x, e - 1.0)

    accum("loss", np.ones((1, 1), dtype=probs.dtype))
    accum("total", grads["loss"] * -1.0)                  # 13
    accum("s", np.full_like(s, grads["total"][0, 0]))     # 12
    accum("t1", grads["s"])                               # 11
    accum("t2", grads["s"])
    accum("m2", grads["t2"] * neg)                        # 10
    accum("pw2", grads["m2"] * l2)                        # 9
    accum("l2", grads["m2"] * pw2)
    accum("omp", grads["l2"] / omp)                       # 8
    accum("p", dpow(grads["pw2"], p))                     # 7
    accum("m1", grads["t1"] * y)                          # 6
    accum("pw1", grads["m1"] * l1)                        # 5
    accum("l1", grads["m1"] * pw1)
    accum("p", grads["l1"] / p)                           # 4
    accum("omp", dpow(grads["pw1"], omp))                 # 3
    accum("s1", grads["omp"])                             # 2
    accum("p", grads["s1"] * -1.0)                        # 1
    return loss, grads["p"] * inside                      # 0


class TestFocalLossOp:
    EPS = 1e-7
    GAMMAS = (0.0, 0.5, 1.0, 2.0, 2.5, 3.0)

    def _cases(self, dtype):
        """Probability rows with the clamp's edges, beyond them, and random values;
        binary and soft targets."""
        edges = np.array([0.0, 5e-8, self.EPS, 2e-7, 0.5, 1.0 - 2e-7, 1.0 - self.EPS,
                          1.0 - 5e-8, 1.0], dtype=dtype)
        rng = np.random.default_rng(11)
        for y_edge in (0.0, 1.0):
            yield edges.reshape(1, -1), np.full((1, edges.size), y_edge, dtype=dtype)
        for binary in (True, False):  # soft targets make both branches add up
            for _ in range(40):
                c = int(rng.integers(1, 12))
                probs = rng.choice(np.concatenate([edges, rng.random(8)]), size=(1, c))
                y = rng.random((1, c))
                yield probs.astype(dtype), (y > 0.5 if binary else y).astype(dtype)

    def _run(self, probs, y, gamma):
        g = ComputeGraph()
        x = Tensor(probs.copy(), requires_grad=True)
        loss = g.focal_loss(x, y, gamma, self.EPS)
        assert len(g) == 1
        g.backward(loss)
        return loss.data, x.grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_bitwise_equal_to_elementwise_chain(self, dtype, gamma):
        for probs, y in self._cases(dtype):
            loss, grad = self._run(probs, y, gamma)
            ref_loss, ref_grad = _focal_chain_reference(probs, y, gamma, self.EPS)
            assert loss.dtype == grad.dtype == dtype
            assert loss.tobytes() == ref_loss.tobytes()
            assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_gradient_outside_clamp(self, dtype):
        probs = np.array([[0.0, 5e-8, self.EPS, 0.5, 1.0 - self.EPS, 1.0]], dtype=dtype)
        for gamma in self.GAMMAS:
            for target in (0.0, 1.0):
                _, grad = self._run(probs, np.full_like(probs, target), gamma)
                assert np.all(grad[0, [0, 1, 5]] == 0.0)
                assert np.all(grad[0, [2, 3, 4]] != 0.0)

    def test_gradient_matches_finite_differences(self, rng64):
        probs = Tensor(rng64.uniform(0.05, 0.95, (1, 6)), requires_grad=True)
        y = np.array([[1.0, 0.0, 1.0, 1.0, 0.0, 0.0]])
        for gamma in (0.0, 0.5, 2.0):
            probs.grad = None

            def scalar():
                return ComputeGraph().focal_loss(probs, y, gamma, self.EPS).item()

            g = ComputeGraph()
            g.backward(g.focal_loss(probs, y, gamma, self.EPS))
            assert_grad_close(probs.grad, numeric_gradient(scalar, [probs.data])[0])

    def test_non_finite_loss_names_the_op(self):
        g = ComputeGraph()
        loss = g.focal_loss(Tensor([[np.nan, 0.5]]), np.ones((1, 2), np.float32),
                            2.0, self.EPS)
        with pytest.raises(NumericError, match=r"op 0 \(focal_loss\)"):
            g.check_finite(loss)

    def test_loss_only_ops_are_gone(self):
        for name in ("clamp", "scalar_mul", "scalar_add", "pow_scalar", "log"):
            assert not hasattr(ComputeGraph, name)


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
            g = ReferenceGraph()
            out = g.sigmoid(g.matmul(x, w))
            g.backward(g.sum_all(out))
            return out.data.copy(), w.grad.copy()

        out1, grad1 = run()
        out2, grad2 = run()
        assert out1.tobytes() == out2.tobytes()
        assert grad1.tobytes() == grad2.tobytes()
