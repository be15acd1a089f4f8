"""Loss, schedule, optimizer, loop determinism, checkpoint round-trips."""

import builtins
import gc
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from avhgnn import layers, tensor, training

from avhgnn.data import LabeledGraph
from avhgnn.graph import EdgeRule, EdgeRules, build_hetero_graph, stack_graphs
from avhgnn.tensor import ComputeGraph, NumericError, Tensor
from avhgnn.metrics import EvalResult
from avhgnn.training import (Adam, ConfigError, TrainConfig, batch_indices,
                             focal_loss, load_checkpoint, lr_at, run_seeds,
                             save_checkpoint, split_dataset, train, write_history_csv)
from reference_ops import ChainGraph, ReferenceGraph

RULES = EdgeRules(audio=EdgeRule(1, 1), video=EdgeRule(1, 1), cross=EdgeRule(1, 1))


def _bce(probs, targets, clamp=1e-7):
    p = np.clip(probs, clamp, 1.0 - clamp)
    return float(-(targets * np.log(p) + (1 - targets) * np.log(1 - p)).sum())


def _focal_value(probs, targets, gamma):
    g = ComputeGraph()
    return focal_loss(g, Tensor(np.asarray(probs, dtype=np.float64)),
                      np.asarray(targets, dtype=np.float64), gamma).item()


def make_items(n_items, num_classes=2, seed=0, n_audio=3, n_video=4,
               d_audio=5, d_video=6):
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n_items):
        graph = build_hetero_graph(
            rng.normal(0, 1, (n_audio, d_audio)).astype(np.float32),
            rng.normal(0, 1, (n_video, d_video)).astype(np.float32), RULES)
        labels = np.zeros((1, num_classes), dtype=np.float32)
        labels[0, i % num_classes] = 1.0
        items.append(LabeledGraph(item_id=f"item-{i}", graph=graph, labels=labels))
    return items


# Trains 3 iterations at paper widths and prints the checkpoint's sha256 and the
# process's thread count; argv[1] is the checkpoint path.
_BLAS_CHILD = """
import hashlib, sys
import numpy as np
from avhgnn.data import LabeledGraph
from avhgnn.graph import EdgeRules, build_hetero_graph
from avhgnn.training import TrainConfig, train
rng, rules = np.random.default_rng(0), EdgeRules.default()
items = [LabeledGraph(f"item-{i}", build_hetero_graph(
    rng.normal(0, 1, (40, 128)).astype(np.float32),
    rng.normal(0, 1, (100, 1024)).astype(np.float32), rules),
    np.eye(4, dtype=np.float32)[[i % 4]]) for i in range(16)]
cfg = TrainConfig(hidden=256, num_layers=2, batch_size=8, max_iters=3, seed=1,
                  warmup_iters=1, rules=rules)
train(items, cfg).save(sys.argv[1])
status = open("/proc/self/status").read().split()
print(hashlib.sha256(open(sys.argv[1], "rb").read()).hexdigest(),
      status[status.index("Threads:") + 1])
"""


def small_config(**overrides):
    base = dict(lr=0.01, warmup_iters=5, decay_at_iter=10_000, gamma=2.0,
                num_layers=1, hidden=8, rules=RULES, seed=1, max_iters=20,
                batch_size=2, pooling="mean", fusion="gat", modality="both",
                eval_every=1000)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.mark.parametrize("field, value", [
    ("lr", 0.0), ("decay_factor", 0.0), ("val_fraction", 0.0), ("val_fraction", 1.0)])
def test_a_zero_rate_or_an_empty_side_of_the_split_is_rejected(field, value):
    with pytest.raises(ConfigError, match=field):
        small_config(**{field: value})


def test_a_negative_gamma_is_rejected():
    with pytest.raises(ConfigError, match=r"gamma must be >= 0, got -0\.5"):
        small_config(gamma=-0.5)


def test_gamma_0_is_accepted_and_trains():
    cfg = small_config(gamma=0.0, max_iters=2)
    assert np.isfinite([row["loss"] for row in train(make_items(4), cfg).history]).all()


class TestFocalLoss:
    def test_gamma_zero_is_bce(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = int(rng.integers(1, 6))
            probs = rng.uniform(1e-6, 1 - 1e-6, (1, c))
            targets = (rng.random((1, c)) > 0.5).astype(float)
            assert abs(_focal_value(probs, targets, 0.0)
                       - _bce(probs, targets)) < 1e-12

    def test_half_probability_positive_gamma_two(self):
        expected = 0.25 * np.log(2.0)
        assert abs(_focal_value([[0.5]], [[1.0]], 2.0) - expected) < 1e-12
        assert abs(expected - 0.17328680) < 1e-7

    def test_confident_positive_loss_vanishes_monotonically(self):
        probs = [0.5, 0.9, 0.99, 0.999, 0.999999]
        losses = [_focal_value([[p]], [[1.0]], 2.0) for p in probs]
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-12

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            probs = rng.uniform(0, 1, (1, 4))
            targets = (rng.random((1, 4)) > 0.5).astype(float)
            assert _focal_value(probs, targets, 2.0) >= 0.0

    def test_batch_takes_one_target_row_per_graph(self):
        probs = Tensor(np.full((3, 1, 2), 0.5))
        rows = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        loss = focal_loss(ComputeGraph(), probs, rows, 2.0).item()
        assert abs(loss - 3 * _focal_value([[0.5, 0.5]], [[1.0, 0.0]], 2.0)) < 1e-12
        with pytest.raises(ValueError, match="targets shape"):
            focal_loss(ComputeGraph(), probs, np.zeros((2, 3)), 2.0)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ConfigError):
            _focal_value([[0.5]], [[1.0]], -1.0)

    def test_gradient_matches_finite_differences(self):
        from conftest import assert_grad_close, numeric_gradient
        rng = np.random.default_rng(2)
        logits = Tensor(rng.normal(0, 1, (1, 4)), requires_grad=True)
        targets = np.array([[1.0, 0.0, 1.0, 0.0]])

        def scalar():
            g = ComputeGraph()
            return focal_loss(g, g.sigmoid(logits), targets, 2.0).item()

        g = ComputeGraph()
        g.backward(focal_loss(g, g.sigmoid(logits), targets, 2.0))
        assert_grad_close(logits.grad, numeric_gradient(scalar, [logits.data])[0])


class TestSchedule:
    def test_paper_defaults(self):
        cfg = TrainConfig()
        assert lr_at(500, cfg) == pytest.approx(0.0025, abs=0)
        assert lr_at(1000, cfg) == 0.005
        assert lr_at(1500, cfg) == pytest.approx(0.0005, abs=0)

    def test_piecewise_shape(self):
        cfg = TrainConfig()
        assert lr_at(0, cfg) == 0.0
        assert lr_at(1, cfg) == 0.005 / 1000
        assert lr_at(1250, cfg) == 0.005
        assert lr_at(5000, cfg) == pytest.approx(0.0005)

    def test_continuous_at_warmup_boundary(self):
        cfg = TrainConfig()
        assert abs(lr_at(999, cfg) - lr_at(1000, cfg)) <= cfg.lr / cfg.warmup_iters

    def test_zero_warmup(self):
        cfg = TrainConfig(warmup_iters=0)
        assert lr_at(1, cfg) == cfg.lr

    def test_a_negative_iteration_is_rejected(self):
        with pytest.raises(ValueError, match="iteration must be >= 0, got -1"):
            lr_at(-1, TrainConfig())


class TestAdam:
    def test_first_step_is_signed_lr(self):
        rng = np.random.default_rng(0)
        p = Tensor(np.zeros((3, 4), dtype=np.float32), requires_grad=True, name="w")
        grad = rng.normal(0, 1, (3, 4)).astype(np.float32)
        opt = Adam([("w", p)])
        buffer = opt.gradients()
        p.grad[...] = grad
        opt.step(buffer, lr=0.01)
        np.testing.assert_allclose(p.data, -0.01 * np.sign(grad), atol=1e-6)

    def test_zero_grad_means_no_update(self):
        p = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True, name="w")
        before = p.data.copy()
        opt = Adam([("w", p)])
        opt.step(opt.gradients(), lr=0.5)  # the -0.0 fill
        np.testing.assert_array_equal(p.data, before)

    def test_matches_float64_reference_over_100_steps(self):
        rng = np.random.default_rng(3)
        p = Tensor(rng.normal(0, 1, (4, 5)).astype(np.float32),
                   requires_grad=True, name="w")
        ref = p.data.astype(np.float64)
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        opt = Adam([("w", p)])
        buffer = opt.gradients()
        lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
        for t in range(1, 101):
            grad = rng.normal(0, 1, (4, 5))
            p.grad[...] = grad.astype(np.float32)
            opt.step(buffer, lr)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        np.testing.assert_allclose(p.data, ref, rtol=1e-5, atol=1e-6)

    def test_bitwise_equal_to_textbook_formula_in_float32(self):
        # The in-place update must round exactly as the textbook expression
        # does, for parameters of different sizes sharing the scratch buffers.
        # Every grad is a view of the optimizer's buffer: "real" gets its gradient
        # from a backward, "big" and "small" are written into by hand, and
        # "unused" keeps the -0.0 fill.
        rng = np.random.default_rng(7)
        shapes = {"big": (6, 5), "small": (2, 3), "real": (3, 2), "unused": (4, 4)}
        params = {name: Tensor(rng.normal(0, 1, shape).astype(np.float32),
                               requires_grad=True, name=name)
                  for name, shape in shapes.items()}
        ref = {name: p.data.copy() for name, p in params.items()}
        m = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
        v = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
        opt = Adam(list(params.items()))
        buffer = opt.gradients()
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t, lr in enumerate([0.001, 0.004, 0.0025, 0.0005], start=1):
            for name in ("big", "small"):
                params[name].grad[...] = rng.normal(0, 1, shapes[name]).astype(np.float32)
            g = ReferenceGraph()
            x, w = (Tensor(rng.normal(0, 1, shape).astype(np.float32)) for shape in
                    ((4, 3), (4, 2)))
            g.backward(g.sum_all(g.mul(g.matmul(x, params["real"]), w)))
            assert np.shares_memory(params["real"].grad, buffer)
            grads = {name: p.grad.copy() for name, p in params.items()}
            opt.step(buffer, lr)
            for name in shapes:
                grad = grads[name]
                m[name] = b1 * m[name] + (1 - b1) * grad
                v[name] = b2 * v[name] + (1 - b2) * grad * grad
                m_hat = m[name] / (1 - b1 ** t)
                v_hat = v[name] / (1 - b2 ** t)
                ref[name] = ref[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
                assert ref[name].dtype == np.float32
                np.testing.assert_array_equal(params[name].data, ref[name])
            for block, want in zip(opt.blocks[1:], (m, v)):
                np.testing.assert_array_equal(block, np.concatenate(list(want.values()), None))
        unused = params["unused"].grad
        assert np.shares_memory(unused, buffer) and np.signbit(unused).all()
        assert not unused.any()

    def test_first_touch_copies_into_the_buffer_and_keeps_a_negative_zero(self):
        # The first touch adds into the -0.0 fill, which equals a copy; a +0.0
        # fill plus an add would give +0.0 where the gradient is -0.0.
        p = Tensor(np.ones((1, 3), np.float32), requires_grad=True, name="w")
        buffer = Adam([("w", p)]).gradients()
        view = p.grad
        first = Tensor(np.array([[-0.0, 1.5, -2.0]], np.float32))
        g = ReferenceGraph()
        g.backward(g.sum_all(g.mul(p, first)))
        assert p.grad is view and np.shares_memory(p.grad, buffer)
        assert np.signbit(buffer[0]) and buffer.tobytes() == first.data.tobytes()
        g = ReferenceGraph()
        g.backward(g.sum_all(g.mul(p, Tensor(np.ones((1, 3), np.float32)))))
        assert p.grad is view  # the second touch adds in place
        np.testing.assert_array_equal(buffer, [1.0, 2.5, -1.0])

    def test_nan_gradient_aborts_with_parameter_name(self):
        p = Tensor(np.ones((1, 1), dtype=np.float32), requires_grad=True,
                   name="layer0.audio.weight")
        opt = Adam([("layer0.audio.weight", p)])
        buffer = opt.gradients()
        p.grad[...] = np.nan
        with pytest.raises(NumericError, match="layer0.audio.weight"):
            opt.step(buffer, 0.01)

    def test_non_finite_gradient_names_the_first_bad_parameter(self):
        params = {name: Tensor(np.full((2, 3), k, np.float32), requires_grad=True, name=name)
                  for k, name in enumerate(("first", "second", "third"))}
        opt = Adam(list(params.items()))
        buffer = opt.gradients()
        for p in params.values():
            p.grad[...] = 1.0
        params["second"].grad[1, 2] = np.inf
        params["third"].grad[0, 0] = np.nan
        with pytest.raises(NumericError, match="'second'") as err:
            opt.step(buffer, 0.01, grad_scale=0.5)
        assert "first" not in str(err.value) and "third" not in str(err.value)
        for k, p in enumerate(params.values()):
            np.testing.assert_array_equal(p.data, np.full((2, 3), k, np.float32))
        assert not opt.blocks[1].any() and not opt.blocks[2].any()

    def test_chunked_scaled_step_bitwise_equal_to_textbook_formula(self):
        # A parameter spanning several chunks, updated from grad * grad_scale,
        # rounds exactly as the textbook expression on the scaled gradient.
        rng = np.random.default_rng(11)
        shapes = {"big": (300, 250), "small": (3, 7), "unused": (4, 4)}
        assert 300 * 250 > training.CHUNK
        params = {name: Tensor(rng.normal(0, 1, shape).astype(np.float32),
                               requires_grad=True, name=name)
                  for name, shape in shapes.items()}
        ref = {name: p.data.copy() for name, p in params.items()}
        m = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
        v = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
        opt = Adam(list(params.items()))
        buffer = opt.gradients()
        b1, b2, eps, scale = 0.9, 0.999, 1e-8, 1 / 8
        for t, lr in enumerate([0.002, 0.0005, 0.003, 0.001], start=1):
            grads = {name: rng.normal(0, 3, shapes[name]).astype(np.float32)
                     for name in ("big", "small")}
            for name, grad in grads.items():
                params[name].grad[...] = grad
            grads["unused"] = params["unused"].grad.copy()
            opt.step(buffer, lr, grad_scale=scale)
            for name in shapes:
                grad = grads[name] * np.float32(scale)
                m[name] = b1 * m[name] + (1 - b1) * grad
                v[name] = b2 * v[name] + (1 - b2) * grad * grad
                m_hat = m[name] / (1 - b1 ** t)
                v_hat = v[name] / (1 - b2 ** t)
                ref[name] = ref[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
                assert ref[name].dtype == np.float32
                np.testing.assert_array_equal(params[name].data, ref[name])
            for block, want in zip(opt.blocks[1:], (m, v)):
                np.testing.assert_array_equal(block, np.concatenate(list(want.values()), None))
        unused = params["unused"].grad
        assert np.shares_memory(unused, buffer) and np.signbit(unused).all()
        assert not unused.any()


class TestMemory:
    """A step sees no live tape, and a finished run holds no gradient buffer."""

    def test_train_returns_without_gradients(self):
        result = train(make_items(4), small_config(max_iters=3))
        assert all(p.grad is None for _, p in result.model.named_params())

    def test_every_tape_of_an_iteration_is_freed_before_the_step(self, monkeypatch):
        tapes, checked = [], []

        class RecordingGraph(ComputeGraph):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        step = Adam.step

        def checking_step(self, *args, **kwargs):
            assert tapes and all(ref() is None for ref in tapes)
            checked.append(len(tapes))
            return step(self, *args, **kwargs)

        monkeypatch.setattr(training, "ComputeGraph", RecordingGraph)
        monkeypatch.setattr(Adam, "step", checking_step)
        items = make_items(3) + make_items(3, n_audio=5, n_video=6, seed=3)
        gc.disable()  # freed by reference counting alone, not by a collection
        try:
            train(items, small_config(max_iters=3, batch_size=6))
        finally:
            gc.enable()
        assert checked == [2, 4, 6]  # two same-shape groups per iteration

    def test_backward_accumulates_into_the_optimizers_buffer(self):
        cfg, items = small_config(), make_items(2)
        model = training.HgnnModel(training.model_config_for(cfg, 5, 6, 3, 4, 2),
                                   training.Rng(0))
        buffer = Adam(model.named_params()).gradients()
        g = ComputeGraph()
        probs = model.forward(g, stack_graphs([item.graph for item in items])).probs
        g.backward(focal_loss(g, probs, [item.labels for item in items], cfg.gamma))
        named = model.named_params()
        assert all(np.shares_memory(p.grad, buffer) for _, p in named)
        assert b"".join(p.grad.tobytes() for _, p in named) == buffer.tobytes()

    def test_a_step_refills_the_buffer_with_negative_zero_and_keeps_every_view(self):
        # Each p.grad is its view of the buffer from gradients() on; a step leaves
        # the buffer all -0.0, so the next backward's first add equals a copy.
        cfg, items = small_config(), make_items(2)
        model = training.HgnnModel(training.model_config_for(cfg, 5, 6, 3, 4, 2),
                                   training.Rng(0))
        opt = Adam(model.named_params())
        assert all(p.grad is None for _, p in model.named_params())
        buffer = opt.gradients()
        views = [p.grad for _, p in model.named_params()]
        assert np.signbit(buffer).all() and not buffer.any()
        for t in (1, 2):  # as train() runs an iteration: tapes, then the step
            training._group_loss(model, items, [0, 1], cfg.gamma)
            assert buffer.any()
            opt.step(buffer, 0.01, grad_scale=np.float32(0.5))
            assert np.signbit(buffer).all() and not buffer.any()
            assert all(p.grad is view for (_, p), view in zip(model.named_params(), views))
        assert opt.step_count == 2

    def test_a_held_result_costs_three_parameter_sized_arrays(self):
        # Parameters, m and v: train() frees the gradient buffer and Adam's
        # scratch as it returns. Measured 3.01x the parameter bytes, 16 KB beyond
        # the three blocks; a held buffer or scratch would add 1.3 MB or 0.5 MB.
        items = make_items(4, d_audio=128, d_video=1024)
        cfg = small_config(hidden=128, num_layers=2, max_iters=2)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = train(items, cfg)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        param_bytes = result.optimizer.blocks[0].nbytes  # 1.3 MB
        assert held < 3 * param_bytes + 64 * 1024, (held, param_bytes)

    def test_gradient_buffer_and_scratch_die_when_train_returns(self, monkeypatch):
        # The buffer is the run's: train() takes it once and drops its views as it
        # returns. Adam's scratch lives only within a step call.
        refs = []
        gradients = Adam.gradients

        def recording_gradients(self):
            buffer = gradients(self)
            refs.extend(map(weakref.ref, [buffer, *(p.grad for _, p in self._params)]))
            return buffer

        monkeypatch.setattr(Adam, "gradients", recording_gradients)
        gc.disable()  # freed by reference counting alone, not by a collection
        try:
            result = train(make_items(4), small_config(max_iters=3))
            assert refs and all(ref() is None for ref in refs)
        finally:
            gc.enable()
        assert all(p.grad is None for _, p in result.model.named_params())
        opt = result.optimizer
        assert len(opt.blocks) == 3 and opt.step_count == 3

    def test_an_adam_costs_three_parameter_sized_arrays(self):
        # Parameters, m and v; no gradient buffer or scratch until a run asks.
        # The model's own arrays are held, so the count is the optimizer's alone.
        cfg = small_config(hidden=128, num_layers=2)
        model = training.HgnnModel(training.model_config_for(cfg, 128, 1024, 3, 4, 2),
                                   training.Rng(0))
        own = [p.data for _, p in model.named_params()]
        param_bytes = sum(a.nbytes for a in own)  # 1.3 MB
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            opt = Adam(model.named_params())
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert 3 * param_bytes <= held < 3 * param_bytes + 16 * 1024, (held, param_bytes)
        assert all(p.grad is None for _, p in model.named_params())
        assert sum(block.nbytes for block in opt.blocks) == 3 * param_bytes

    def test_an_adam_built_directly_or_from_a_checkpoint_steps_on_its_buffer(self, tmp_path):
        cfg = small_config()
        model = training.HgnnModel(training.model_config_for(cfg, 5, 6, 3, 4, 2),
                                   training.Rng(0))
        path = tmp_path / "ck.hgck"
        save_checkpoint(path, model, Adam(model.named_params()), 0, training.Rng(0), cfg)
        ckpt = load_checkpoint(path)
        restored = ckpt.build_model()
        for opt, owner in ((Adam(model.named_params()), model),
                           (ckpt.build_optimizer(restored), restored)):
            buffer = opt.gradients()
            assert buffer.shape == opt.blocks[0].shape
            assert all(np.shares_memory(p.grad, buffer) for _, p in owner.named_params())
            opt.step(buffer, 0.1)
            assert opt.step_count == 1


class TestSplitAndBatches:
    def test_split_sizes_and_determinism(self):
        items = make_items(20, num_classes=4)
        train_a, val_a = split_dataset(items, 0.2, seed=5)
        train_b, val_b = split_dataset(items, 0.2, seed=5)
        assert len(val_a) == 4 and len(train_a) == 16
        assert [it.item_id for it in train_a] == [it.item_id for it in train_b]
        assert [it.item_id for it in val_a] == [it.item_id for it in val_b]

    def test_a_split_with_no_item_to_spare_holds_out_the_last_of_two(self):
        """0.2 of a one-item label group rounds to 0; the last item is held out,
        unless it is the only one."""
        items = make_items(2)
        train_items, val_items = split_dataset(items, 0.2, seed=0)
        assert (train_items, val_items) == (items[:1], items[1:])
        assert split_dataset(items[:1], 0.2, seed=0) == (items[:1], [])

    def test_an_empty_dataset_has_no_split(self):
        with pytest.raises(ValueError, match="cannot split an empty dataset"):
            split_dataset([], 0.2, 0)

    def test_split_stratified(self):
        items = make_items(40, num_classes=4)
        _, val = split_dataset(items, 0.25, seed=2)
        per_class = {c: 0 for c in range(4)}
        for it in val:
            per_class[int(np.argmax(it.labels))] += 1
        assert all(count > 0 for count in per_class.values())

    def test_batch_stream_is_pure_in_iteration(self):
        seq_a = [batch_indices(9, 7, 3, t) for t in range(1, 20)]
        # query out of order: must not depend on traversal history
        seq_b = [batch_indices(9, 7, 3, t) for t in (5, 1, 19, 7)]
        assert seq_b == [seq_a[4], seq_a[0], seq_a[18], seq_a[6]]

    def test_batch_stream_covers_each_epoch(self):
        seen = [i for t in range(1, 4) for i in batch_indices(0, 6, 2, t)]
        assert sorted(seen) == list(range(6))


class TestTrainLoop:
    def test_overfit_single_item_loss_decreases(self):
        items = make_items(1, num_classes=1)
        cfg = small_config(max_iters=200, batch_size=1, warmup_iters=20,
                           modality="both", hidden=8)
        result = train(items, cfg)
        losses = [row["loss"] for row in result.history]
        after_warmup = losses[cfg.warmup_iters:]
        drops = sum(b < a for a, b in zip(after_warmup, after_warmup[1:]))
        assert drops / (len(after_warmup) - 1) >= 0.95
        assert after_warmup[-1] < after_warmup[0]

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="the child reads its thread count from /proc")
    def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS fixes its thread count as it loads, so each count runs in a child.
        src = os.path.dirname(os.path.dirname(training.__file__))
        out = {}
        for n in (1, 2):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n),
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
                           "PYTHONPATH")])))
            run = subprocess.run([sys.executable, "-c", _BLAS_CHILD, str(tmp_path / f"{n}.hgck")],
                                 env=env, capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            out[n] = run.stdout.split()
        assert int(out[2][1]) > 1, "the 2-thread child runs one thread: the setting did not take"
        assert out[1][0] == out[2][0]

    def test_same_seed_bitwise_identical_curves(self):
        items = make_items(6)
        cfg = small_config(max_iters=15)
        hist_a = [row["loss"] for row in train(items, cfg).history]
        hist_b = [row["loss"] for row in train(items, cfg).history]
        assert hist_a == hist_b

    def test_different_seed_differs(self):
        items = make_items(6)
        losses_a = [r["loss"] for r in train(items, small_config(seed=1)).history]
        losses_b = [r["loss"] for r in train(items, small_config(seed=2)).history]
        assert losses_a != losses_b

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            train([], small_config())

    def test_inconsistent_dims_rejected_before_training(self):
        items = make_items(3) + make_items(1, d_audio=9, seed=7)
        items[-1].item_id = "odd-one"
        with pytest.raises(ConfigError, match="odd-one"):
            train(items, small_config())

    @pytest.mark.parametrize("modality, odd", [("audio_only", {"d_video": 9}),
                                               ("video_only", {"d_audio": 9})])
    def test_an_unused_modality_may_mix_widths(self, modality, odd):
        """A minibatch is stacked by feature shape, so the width of a node set the
        model does not read is never read."""
        items = make_items(4) + make_items(4, seed=3, **odd)
        result = train(items, small_config(modality=modality, max_iters=6, batch_size=8))
        assert len(result.history) == 6
        assert all(np.isfinite(row["loss"]) for row in result.history)

    def test_learned_pooling_requires_uniform_counts(self):
        items = make_items(2) + make_items(1, n_audio=5, seed=8)
        items[-1].item_id = "tall-one"
        with pytest.raises(ConfigError, match="tall-one"):
            train(items, small_config(pooling="learned"))

    @staticmethod
    def _items_with_an_odd_validation_item(**odd):
        """Six items in one-item label groups, then `odd`, which split_dataset's
        fallback puts in the validation set."""
        items = make_items(6, num_classes=7) + make_items(1, seed=9, **odd)
        items[-1].item_id = "odd"
        assert split_dataset(items, 0.2, 1)[1] == items[-1:]
        return items

    ODD_ITEMS = pytest.mark.parametrize("odd, message", [
        ({"num_classes": 7, "n_audio": 5}, "learned pooling expects 3 audio nodes, got 5"),
        ({"num_classes": 3}, "labels have 3 classes != model num_classes 7"),
    ], ids=["node-count", "label-width"])

    @ODD_ITEMS
    def test_a_bad_validation_item_is_rejected_before_iteration_1(self, odd, message):
        items = self._items_with_an_odd_validation_item(**odd)
        rows = []
        with pytest.raises(ConfigError, match=f"item 'odd': {message}"):
            train(items[:-1], small_config(pooling="learned"), val_items=items[-1:],
                  progress=rows.append)
        assert rows == []

    @staticmethod
    def _saved_at_iteration_2(items, path):
        """Trains `items` to iteration 2 and saves there; the config to resume with."""
        cfg = small_config(pooling="learned", max_iters=4)
        train(items, replace(cfg, max_iters=2)).save(path)
        return cfg

    @ODD_ITEMS
    def test_a_resume_rejects_a_bad_validation_item_before_iteration_1(
            self, tmp_path, odd, message):
        """The check runs against the model the checkpoint builds; the failed resume
        reports no row and writes nothing, so the checkpoint keeps its bytes."""
        items = self._items_with_an_odd_validation_item(**odd)
        path = tmp_path / "ck.hgck"
        cfg = self._saved_at_iteration_2(items[:-1], path)
        saved = path.read_bytes()
        rows = []
        with pytest.raises(ConfigError, match=f"item 'odd': {message}"):
            train(items[:-1], cfg, val_items=items[-1:], resume=load_checkpoint(path),
                  progress=rows.append)
        assert rows == []
        assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == saved

    def test_a_resume_reports_a_changed_checkpoint_before_a_bad_item(self, tmp_path):
        """The model and optimizer are built before the items are checked, so a
        checkpoint that changed since it was loaded is the error a resume gives."""
        items = self._items_with_an_odd_validation_item(num_classes=3)
        path = tmp_path / "ck.hgck"
        cfg = self._saved_at_iteration_2(items[:-1], path)
        checkpoint = load_checkpoint(path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ConfigError, match="checkpoint changed since it was loaded"):
            train(items[:-1], cfg, val_items=items[-1:], resume=checkpoint)

    @ODD_ITEMS
    def test_run_seeds_rejects_a_bad_validation_item_before_iteration_1(self, odd, message):
        items = self._items_with_an_odd_validation_item(**odd)
        rows = []

        def run(train_items, val_items, cfg):
            return train(train_items, cfg, val_items=val_items, progress=rows.append).final_eval

        with pytest.raises(ConfigError, match=f"item 'odd': {message}"):
            run_seeds(items, small_config(pooling="learned"), [1, 2], run=run)
        assert rows == []


    def test_mixed_lengths_train_one_tape_per_shape(self, monkeypatch):
        items = make_items(3) + make_items(3, n_audio=5, n_video=6, seed=3)
        cfg = small_config(max_iters=4, batch_size=6)
        stacked = []

        def recording_stack(graphs):
            stacked.append([(g.n_audio, g.n_video) for g in graphs])
            return stack_graphs(graphs)

        monkeypatch.setattr(training, "stack_graphs", recording_stack)
        result = train(items, cfg)
        assert len(stacked) == 2 * cfg.max_iters
        for groups in zip(stacked[::2], stacked[1::2]):
            assert sorted(len(group) for group in groups) == [3, 3]
            assert {shape for group in groups for shape in group} == {(3, 4), (5, 6)}
            assert all(len(set(group)) == 1 for group in groups)
        assert all(np.isfinite(row["loss"]) for row in result.history)

        # Iteration 1's loss is the mean of per-graph losses of the initial model.
        model = training.HgnnModel(
            training.model_config_for(cfg, 5, 6, 3, 4, 2), training.Rng(cfg.seed))
        per_graph = []
        for item in items:
            g = ComputeGraph()
            probs = model.forward(g, item.graph).probs
            per_graph.append(focal_loss(g, probs, item.labels, cfg.gamma).item())
        assert abs(result.history[0]["loss"] - np.mean(per_graph)) < 1e-6

    def test_resume_below_the_checkpoint_iteration_rejected(self, tmp_path):
        items = make_items(4)
        part = train(items, small_config(max_iters=6))
        path = tmp_path / "ck.hgck"
        part.save(path)
        rows = []
        with pytest.raises(ConfigError, match="max_iters 3 .* iteration 6"):
            train(items, small_config(max_iters=3), resume=load_checkpoint(path),
                  progress=rows.append)
        assert rows == []


def append_four_bytes(path):
    with path.open("ab") as f:
        f.write(bytes(4))


def replace_by_a_copy(path):
    """Replace `path` by an atomic rename of a new file with the same bytes."""
    copy = path.with_name(path.name + ".copy")
    copy.write_bytes(path.read_bytes())
    os.replace(copy, path)


# Bad header values for a parameter's rows, from the saved value; int() would take
# the first three.
bad_rows = pytest.mark.parametrize("rows", [
    lambda rows: rows + 0.9, str, lambda rows: True, lambda rows: 0, lambda rows: -1,
], ids=["float", "string", "true", "zero", "negative"])


def edit_header(path, edit):
    """Rewrite a checkpoint's header as `edit` changes its JSON object in place; the
    payload stays as it is."""
    blob = path.read_bytes()
    header_len = struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12:12 + header_len])
    edit(header)
    text = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + header_len:])


def edit_first_param(path, key, change):
    """Rewrite a checkpoint's header so that its first parameter's `key` is
    change(the old value); the payload stays as it is."""
    edit_header(path, lambda header: header["params"][0].update(
        {key: change(header["params"][0][key])}))


class TestCheckpoint:
    def test_round_trip_resume_is_bitwise(self, tmp_path):
        items = make_items(5)
        full_cfg = small_config(max_iters=14)
        full = train(items, full_cfg)

        part = train(items, small_config(max_iters=7))
        ckpt_path = tmp_path / "mid.hgck"
        save_checkpoint(ckpt_path, part.model, part.optimizer, 7, part.rng,
                        small_config(max_iters=7))
        ckpt = load_checkpoint(ckpt_path)
        resumed = train(items, small_config(max_iters=14), resume=ckpt)

        full_tail = [r["loss"] for r in full.history if r["iteration"] > 7]
        resumed_losses = [r["loss"] for r in resumed.history]
        assert resumed_losses == full_tail
        for (name, p_full), (_, p_res) in zip(full.model.named_params(),
                                              resumed.model.named_params()):
            assert p_full.data.tobytes() == p_res.data.tobytes(), name

    @pytest.mark.parametrize("fusion", ["gat", "gcn"])
    def test_fused_ops_and_adopted_gradients_write_the_chains_bytes(
            self, tmp_path, monkeypatch, fusion):
        """Training through the fused gcn / gat_fusion ops, with first-touch
        gradients adopted, writes the checkpoint of the elementary op chains
        with every first-touch gradient copied."""
        items = make_items(6)
        cfg = small_config(max_iters=12, num_layers=2, batch_size=3, fusion=fusion,
                           pooling="learned")

        def checkpoint_bytes(name):
            result = train(items, cfg)
            path = tmp_path / name
            save_checkpoint(path, result.model, result.optimizer, cfg.max_iters,
                            result.rng, cfg)
            return path.read_bytes()

        fused = checkpoint_bytes("fused.hgck")
        accum = tensor._accum
        monkeypatch.setattr(tensor, "_accum", lambda t, g, own=False: accum(t, g))
        monkeypatch.setattr(training, "ComputeGraph", ChainGraph)
        assert checkpoint_bytes("chain.hgck") == fused

    def test_resume_at_max_iters_returns_the_final_scores(self, tmp_path):
        items = make_items(8)
        cfg = small_config(max_iters=6, eval_every=4)
        original = train(items[:6], cfg, val_items=items[6:])
        path = tmp_path / "ck.hgck"
        original.save(path)
        rows = []
        resumed = train(items[:6], cfg, val_items=items[6:], resume=load_checkpoint(path),
                        progress=rows.append)
        assert rows == [] and resumed.history == []
        assert resumed.final_eval.to_dict() == original.final_eval.to_dict()  # NaN as None
        assert train(items[:6], cfg, resume=load_checkpoint(path)).final_eval is None

    def test_resume_validates_only_on_the_schedule(self, tmp_path, monkeypatch):
        items = make_items(8)
        cfg = small_config(max_iters=12, eval_every=3)
        path = tmp_path / "ck.hgck"
        train(items[:6], replace(cfg, max_iters=6), val_items=items[6:]).save(path)
        calls, evaluate = [], training.evaluate

        def counting_evaluate(model, val_items):
            calls.append(len(val_items))
            return evaluate(model, val_items)

        monkeypatch.setattr(training, "evaluate", counting_evaluate)
        rows = train(items[:6], cfg, val_items=items[6:], resume=load_checkpoint(path)).history
        assert len(calls) == 2  # iterations 9 and 12, not the checkpoint's 6
        assert [r["iteration"] for r in rows if not np.isnan(r["map"])] == [9, 12]

    def test_validation_schedule(self):
        cfg = small_config(max_iters=10, eval_every=4)
        assert [t for t in range(12) if cfg.validates(t)] == [4, 8, 10]

    def test_iteration_1_validates_on_the_schedule_and_as_the_last(self):
        assert small_config(eval_every=1).validates(1)
        result = train(make_items(4), small_config(max_iters=1), val_items=make_items(2, seed=5))
        assert result.final_eval is not None and not np.isnan(result.history[0]["map"])

    @pytest.mark.parametrize("change", [
        {"hidden": 16}, {"num_layers": 2}, {"fusion": "gcn"}, {"pooling": "max"},
        {"modality": "audio_only"},
    ])
    def test_resume_rejects_a_different_model(self, tmp_path, change):
        items = make_items(4)
        part = train(items, small_config(max_iters=2))
        path = tmp_path / "ck.hgck"
        part.save(path)
        rows = []
        with pytest.raises(ConfigError, match=f"{next(iter(change))} .* differs"):
            train(items, small_config(max_iters=4, **change), resume=load_checkpoint(path),
                  progress=rows.append)
        assert rows == []

    @pytest.mark.parametrize("change", [{"seed": 3}, {"val_fraction": 0.5}])
    def test_resume_rejects_a_different_split(self, tmp_path, change):
        """The seed and val_fraction pick the held-out items (and the seed the
        batches), so a resume keeps both."""
        items = make_items(4)
        part = train(items, small_config(max_iters=2))
        path = tmp_path / "ck.hgck"
        part.save(path)
        rows = []
        name, value = next(iter(change.items()))
        with pytest.raises(ConfigError, match=f"{name} {value} differs from the checkpoint's"):
            train(items, small_config(max_iters=4, **change), resume=load_checkpoint(path),
                  progress=rows.append)
        assert rows == []

    def test_checkpoint_preserves_everything(self, tmp_path):
        items = make_items(4)
        result = train(items, small_config(max_iters=5))
        path = tmp_path / "ck.hgck"
        save_checkpoint(path, result.model, result.optimizer, 5, result.rng,
                        small_config(max_iters=5))
        ckpt = load_checkpoint(path)
        assert ckpt.iteration == 5
        assert ckpt.adam_step == 5
        model = ckpt.build_model()
        for (name, p0), (_, p1) in zip(result.model.named_params(),
                                       model.named_params()):
            assert p0.data.tobytes() == p1.data.tobytes(), name
        opt = ckpt.build_optimizer(model)
        assert opt.step_count == 5
        for saved, trained in zip(opt.blocks[1:], result.optimizer.blocks[1:]):
            assert saved.tobytes() == trained.tobytes()

    def test_model_and_optimizer_share_storage(self, tmp_path):
        items = make_items(4)
        cfg = small_config(max_iters=1)
        initial = training.HgnnModel(training.model_config_for(cfg, 5, 6, 3, 4, 2),
                                     training.Rng(cfg.seed))
        result = train(items, cfg)
        named = result.model.named_params()
        blocks = result.optimizer.blocks
        model_bytes = b"".join(p.data.tobytes() for _, p in named)
        assert all(np.shares_memory(p.data, blocks[0]) for _, p in named)
        assert model_bytes == blocks[0].tobytes()
        assert model_bytes != b"".join(p.data.tobytes() for _, p in initial.named_params())

        path = tmp_path / "ck.hgck"
        save_checkpoint(path, result.model, result.optimizer, 1, result.rng, cfg)
        payload = b"".join(block.tobytes() for block in blocks)
        assert path.read_bytes()[-len(payload):] == payload
        assert payload[:len(model_bytes)] == model_bytes

        ckpt = load_checkpoint(path)
        model = ckpt.build_model()
        opt = ckpt.build_optimizer(model)
        assert all(np.shares_memory(p.data, opt.blocks[0]) for _, p in model.named_params())
        assert [b.tobytes() for b in opt.blocks] == [b.tobytes() for b in blocks]
        resumed = train(items, small_config(max_iters=3), resume=ckpt)
        full = train(items, small_config(max_iters=3))
        assert resumed.optimizer.blocks[0].tobytes() == full.optimizer.blocks[0].tobytes()

        # A second Adam re-homes the parameters; the first no longer holds them.
        second = Adam(named)
        assert all(np.shares_memory(p.data, second.blocks[0]) for _, p in named)
        with pytest.raises(ValueError, match="does not hold"):
            save_checkpoint(path, result.model, result.optimizer, 1, result.rng, cfg)

    @staticmethod
    def _saved_model(tmp_path, hidden, dim):
        """A checkpoint of a 2-layer model; returns (path, model, payload bytes)."""
        cfg = TrainConfig(hidden=hidden, num_layers=2, pooling="mean")
        model = training.HgnnModel(training.model_config_for(cfg, dim, dim, 4, 6, 4),
                                   training.Rng(0))
        path = tmp_path / "ck.hgck"
        save_checkpoint(path, model, Adam(model.named_params()), 0, training.Rng(0), cfg)
        return path, model, 3 * 4 * sum(p.data.size for _, p in model.named_params())

    def test_load_reads_only_the_parameter_block(self, tmp_path):
        # Measured peak: 0.39x the payload, the parameter block (a third) plus
        # the header's parse.
        path, model, payload = self._saved_model(tmp_path, hidden=64, dim=96)  # 0.38 MB
        tracemalloc.start()
        try:
            ckpt = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ckpt.params == [(name, *p.data.shape) for name, p in model.named_params()]
        assert ckpt.param_block.nbytes == payload // 3
        assert peak < 0.45 * payload, (peak, payload)

    def test_restore_adopts_the_payload(self, tmp_path, monkeypatch):
        # The optimizer's parameters are the checkpoint's block, not a copy of it,
        # and its moments are read once, straight into their own arrays; so a
        # restore holds one copy of the training state, plus the gradient buffer
        # (a third of the payload) and Adam's 0.5 MB of scratch. Measured: 1.38x.
        path, _, payload = self._saved_model(tmp_path, hidden=384, dim=384)  # 10.6 MB
        opened = []

        def recording_open(*args):
            opened.append(args)
            return builtins.open(*args)

        monkeypatch.setattr(training, "open", recording_open, raising=False)
        tracemalloc.start()
        try:
            ckpt = load_checkpoint(path)
            opt = ckpt.build_optimizer(ckpt.build_model())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert opt.blocks[0] is ckpt.param_block
        assert all(block.flags.owndata for block in opt.blocks[1:])
        assert opened == [(path, "rb"), (os.path.abspath(path), "rb")]  # load, then moments
        blob = path.read_bytes()
        assert b"".join(block.tobytes() for block in opt.blocks) == blob[-payload:]
        assert peak < 1.5 * payload, (peak, payload)

    def test_build_model_draws_nothing_and_copies_nothing(self, tmp_path, monkeypatch):
        # The model is built over views of the parameter block: no init is drawn,
        # no parameter is allocated and no moment is read. Measured peak for
        # load + build: 0.3345x the payload, whose parameter block is a third.
        path, model, payload = self._saved_model(tmp_path, hidden=384, dim=384)  # 10.6 MB

        def no_draw(*args, **kwargs):
            raise AssertionError("build_model drew random values")

        monkeypatch.setattr(layers, "xavier_init", no_draw)  # the model's only draw
        tracemalloc.start()
        try:
            ckpt = load_checkpoint(path)
            restored = ckpt.build_model()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.34 * payload, (peak, payload)
        for (name, p), (_, saved) in zip(restored.named_params(), model.named_params()):
            assert p.data.base is ckpt.param_block, name
            assert p.data.tobytes() == saved.data.tobytes(), name

    @pytest.mark.parametrize("change", [
        lambda path: os.truncate(path, path.stat().st_size - 4),
        append_four_bytes,
        replace_by_a_copy,
    ], ids=["truncated", "appended", "replaced"])
    def test_a_file_changed_after_load_builds_no_optimizer(self, tmp_path, change):
        path, _, _ = self._saved_model(tmp_path, hidden=8, dim=5)
        ckpt = load_checkpoint(path)
        model = ckpt.build_model()
        change(path)
        with pytest.raises(ConfigError, match="changed since it was loaded"):
            ckpt.build_optimizer(model)

    def test_a_file_cut_short_while_it_is_read_is_rejected(self, tmp_path, monkeypatch):
        """fstat still reports the size the load checks, as if the file were cut after
        it; the short read of the parameter block is then the error."""
        path, _, _ = self._saved_model(tmp_path, hidden=8, dim=5)
        size = path.stat().st_size
        os.truncate(path, 12 + struct.unpack("<I", path.read_bytes()[8:12])[0] + 4)
        real_fstat = os.fstat

        def fstat(fd):  # the file's identity, with the size it had before the cut
            st = real_fstat(fd)
            return SimpleNamespace(st_dev=st.st_dev, st_ino=st.st_ino, st_size=size,
                                   st_mtime_ns=st.st_mtime_ns)

        monkeypatch.setattr(training.os, "fstat", fstat)
        with pytest.raises(ConfigError, match="checkpoint changed while it was read"):
            load_checkpoint(path)

    @bad_rows
    def test_header_shapes_must_be_positive_integers(self, tmp_path, rows):
        path, model, _ = self._saved_model(tmp_path, hidden=8, dim=5)
        edit_first_param(path, "rows", rows)
        name = model.named_params()[0][0]
        with pytest.raises(ConfigError, match=f"parameter '{name}' has rows "):
            load_checkpoint(path)

    def test_a_saved_header_holds_only_what_a_load_reads(self, tmp_path):
        """So a field that no load reads, as `rng_state` was, cannot come back unnoticed."""
        path, _, _ = self._saved_model(tmp_path, hidden=8, dim=5)
        blob = path.read_bytes()
        header = json.loads(blob[12:12 + struct.unpack("<I", blob[8:12])[0]])
        assert list(header) == ["train_config", "model_config", "iteration", "adam_step",
                                "params"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.hgck"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ConfigError, match=r"^not a checkpoint file: bad magic b'NOPE'$"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        items = make_items(2)
        result = train(items, small_config(max_iters=2))
        path = tmp_path / "ck.hgck"
        save_checkpoint(path, result.model, result.optimizer, 2, result.rng,
                        small_config(max_iters=2))
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(ConfigError, match="truncated"):
            load_checkpoint(path)


class _FailOnSecondWrite:
    """A file whose second write raises, after the first reached the disk."""

    def __init__(self, f):
        self._f, self._writes = f, 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError("no space left on device")
        return self._f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


class TestAtomicWrites:
    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        result = train(make_items(4), small_config(max_iters=3))
        ckpt, hist = tmp_path / "checkpoint.hgck", tmp_path / "history.csv"
        result.save(ckpt)
        write_history_csv(hist, result.history)
        old = {path: path.read_bytes() for path in (ckpt, hist)}

        monkeypatch.setattr(training, "open",
                            lambda path, mode: _FailOnSecondWrite(builtins.open(path, mode)),
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            result.save(ckpt)
        with pytest.raises(OSError, match="no space"):
            write_history_csv(hist, result.history[:1])
        assert {path: path.read_bytes() for path in (ckpt, hist)} == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.hgck", "history.csv"]

        monkeypatch.undo()
        write_history_csv(hist, result.history[:1])
        assert len(hist.read_text().splitlines()) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.hgck", "history.csv"]


class TestRunSeeds:
    def test_two_seeds_report_the_sample_std(self):
        evals = {seed: EvalResult([], m, [], auc, [], [], [])
                 for seed, m, auc in ((1, 0.25, 0.5), (2, 0.75, 1.0))}
        summary = run_seeds(make_items(10), small_config(), [1, 2],
                            run=lambda tr, val, c: evals[c.seed])
        assert list(summary) == ["seeds", "per_seed_map", "per_seed_auc",
                                 "map_mean", "map_std", "auc_mean", "auc_std"]
        assert (summary["map_mean"], summary["auc_mean"]) == (0.5, 0.75)
        assert summary["map_std"] == np.std([0.25, 0.75], ddof=1) == 0.5 ** 0.5 / 2
        assert summary["auc_std"] == np.std([0.5, 1.0], ddof=1) == 0.5 ** 0.5 / 2

    def test_single_seed_zero_std(self):
        items = make_items(10)
        summary = run_seeds(items, small_config(max_iters=5), seeds=[3])
        assert summary["map_std"] == 0.0
        assert summary["auc_std"] == 0.0

    def test_identical_seeds_identical_metrics(self):
        items = make_items(10)
        first, second = (run_seeds(items, small_config(max_iters=5), seeds=[4])
                         for _ in range(2))
        assert first["per_seed_map"] == second["per_seed_map"]

    def test_rejects_a_repeated_seed(self):
        with pytest.raises(ConfigError, match=r"distinct integers, got \[4, 4\]"):
            run_seeds(make_items(10), small_config(max_iters=5), seeds=[4, 4])

    def test_requires_a_seed(self):
        with pytest.raises(ConfigError):
            run_seeds(make_items(4), small_config(), seeds=[])

    def test_requires_a_validation_split(self):
        with pytest.raises(ConfigError, match="non-empty validation split"):
            run_seeds(make_items(1), small_config(), seeds=[1])

    def test_three_seeds_on_learnable_task_agree(self, tmp_path):
        from avhgnn.data import SynthSpec, generate_synthetic, load_dataset
        manifest = generate_synthetic(
            SynthSpec(n_items=24, n_classes=2, mode="audio_only_solvable",
                      noise_sigma=0.1, seed=0), tmp_path)
        cfg = small_config(modality="audio_only", fusion="none", hidden=16,
                           max_iters=300, batch_size=4, warmup_iters=20,
                           rules=EdgeRules.default())
        items = load_dataset(manifest, cfg.rules)
        summary = run_seeds(items, cfg, seeds=[1, 2, 3])
        assert summary["map_std"] < 0.05
        assert summary["map_mean"] > 0.8
