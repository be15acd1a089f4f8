"""f32 drift: the desk model trained in float32 against a float64 copy.

Both copies start from the same float32 init and take the same minibatches,
so the gap between them is float32 rounding alone, compounded by training.
A change that reorders float32 sums moves this gap; the test bounds it.
Print the table for some seeds with
`PYTHONPATH=src python3 tests/test_drift.py 1 2 3`.
"""

import sys
from functools import partial

import numpy as np

from avhgnn.data import LabeledGraph, SynthSpec, generate_synthetic, load_dataset
from avhgnn.graph import build_hetero_graph
from avhgnn.layers import HgnnModel
from avhgnn.tensor import Rng
from avhgnn.training import (Adam, TrainConfig, _group_loss, batch_indices, lr_at,
                             model_config_for, split_dataset, train)
from conftest import float64_shadow

# The benchmark's desk-train task and model, trained for REPORT_AT[-1] iterations.
DESK_SPEC = dict(mode="fusion_required", n_items=80, n_audio=10, n_video=25,
                 d_audio=16, d_video=32, n_classes=4)
DESK_CONFIG = dict(lr=0.005, warmup_iters=300, decay_at_iter=1500, gamma=2.0,
                   hidden=32, num_layers=2, batch_size=8, pooling="learned",
                   fusion="gat", modality="both")

# The largest (loss, parameter) drift measured per reported iteration over
# seeds 1-3, with the fusion projecting every video node before aggregating
# and with it aggregating first. Up to t=100 the drift is small and steady;
# later it can jump by 1000x within a stretch of iterations (projecting first,
# seed 3 went 2.7e-7 -> 6.4e-4 in parameters between t=100 and t=200).
MEASURED_MAX = {1: (6.8e-8, 3.0e-8), 10: (3.2e-7, 8.5e-8), 100: (1.9e-7, 2.7e-7),
                200: (6.9e-5, 6.4e-4), 300: (8.6e-4, 7.9e-4), 400: (1.6e-3, 7.9e-4),
                500: (3.0e-4, 7.8e-4)}
BOUND_FACTOR = 10
REPORT_AT = tuple(MEASURED_MAX)


def desk_items(workdir, seed):
    """The desk-train split's training items, in float32 and as float64 copies."""
    cfg = TrainConfig(seed=seed, max_iters=REPORT_AT[-1], **DESK_CONFIG)
    items = load_dataset(generate_synthetic(SynthSpec(seed=seed, **DESK_SPEC), workdir),
                         cfg.rules)
    items32, _ = split_dataset(items, cfg.val_fraction, seed)
    items64 = [LabeledGraph(it.item_id, build_hetero_graph(
        it.graph.audio_feats.data.astype(np.float64),
        it.graph.video_feats.data.astype(np.float64), cfg.rules), it.labels)
        for it in items32]
    return cfg, items32, items64


def _step(model, opt, grad, items, batch, cfg, lr, scale):
    """One train() iteration on one same-shape minibatch, by train()'s own group
    loss and backward into `grad`, then the step; returns its mean loss."""
    total = _group_loss(model, items, batch, cfg.gamma)
    opt.step(grad, lr, grad_scale=scale)
    return total / len(batch)


def drift(cfg, items32, items64):
    """{t: (relative loss drift, relative parameter drift)} at REPORT_AT, plus
    the float32 copy's loss curve. The parameter drift is the 2-norm of the
    flat difference over the float64 copy's 2-norm."""
    first = items32[0].graph
    model_cfg = model_config_for(cfg, first.audio_feats.cols, first.video_feats.cols,
                                 first.n_audio, first.n_video, items32[0].labels.size)
    m32 = HgnnModel(model_cfg, Rng(cfg.seed))
    m64 = float64_shadow(partial(HgnnModel, model_cfg), cfg.seed)
    opt32, opt64 = Adam(m32.named_params()), Adam(m64.named_params())
    grad32, grad64 = opt32.gradients(), opt64.gradients()
    report, losses = {}, []
    for t in range(1, REPORT_AT[-1] + 1):
        lr = lr_at(t, cfg)
        batch = batch_indices(cfg.seed, len(items32), cfg.batch_size, t)
        loss32 = _step(m32, opt32, grad32, items32, batch, cfg, lr,
                       np.float32(1.0 / len(batch)))
        loss64 = _step(m64, opt64, grad64, items64, batch, cfg, lr, 1.0 / len(batch))
        losses.append(loss32)
        if t in REPORT_AT:
            theta32, theta64 = opt32.blocks[0], opt64.blocks[0]
            report[t] = (abs(loss32 - loss64) / abs(loss64),
                         float(np.linalg.norm(theta32 - theta64) / np.linalg.norm(theta64)))
    return report, losses


def test_f32_drift_from_an_f64_copy_stays_in_budget(tmp_path):
    cfg, items32, items64 = desk_items(tmp_path, seed=1)
    report, losses = drift(cfg, items32, items64)
    # The float32 copy is train() itself: same batches, same steps, same bytes.
    assert losses == [row["loss"] for row in train(items32, cfg).history]
    for t, drifts in report.items():
        for value, measured in zip(drifts, MEASURED_MAX[t]):
            assert value < BOUND_FACTOR * measured, (t, drifts)


if __name__ == "__main__":
    import tempfile

    print("seed  iter  loss_drift  param_drift")
    for seed in map(int, sys.argv[1:] or ["1"]):
        with tempfile.TemporaryDirectory() as tmp:
            rows, _ = drift(*desk_items(tmp, seed))
        for t, (loss_drift, param_drift) in rows.items():
            print(f"{seed:4d}  {t:4d}  {loss_drift:10.2e}  {param_drift:11.2e}")
