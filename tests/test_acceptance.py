"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run `pytest tests/test_acceptance.py -v`; a summary section prints one
PASS/FAIL line per criterion. The heavier criteria (a3, a4) train real
models and take a few minutes combined.
"""

import time
from functools import partial

import numpy as np
import pytest

from avhgnn.data import SynthSpec, generate_synthetic, load_dataset
from avhgnn.graph import EdgeRule, EdgeRules, anchor_index, build_hetero_graph
from avhgnn.layers import GatFusionLayer, GcnLayer, HgnnModel, ModelConfig
from avhgnn.metrics import average_precision, evaluate, roc_auc
from avhgnn.tensor import ComputeGraph, Rng, Tensor
from avhgnn.training import (TrainConfig, focal_loss, load_checkpoint, lr_at,
                             save_checkpoint, split_dataset, train)
from conftest import assert_grad_close, float64_layer, float64_shadow, numeric_gradient
from test_graph import brute_force_temporal
from test_layers import gat_message, gat_oracle, gcn_oracle
from test_metrics import ap_by_hand, auc_by_pairs

DESK_RULES = EdgeRules(audio=EdgeRule(6, 3), video=EdgeRule(4, 4), cross=EdgeRule(3, 1))


def desk_train_config(**overrides):
    """Calibrated desk-scale hyperparameters used by the training criteria."""
    base = dict(lr=0.005, warmup_iters=300, decay_at_iter=1500, gamma=2.0,
                hidden=32, num_layers=2, batch_size=8, max_iters=3000,
                pooling="learned", fusion="gat", modality="both",
                eval_every=1000, rules=DESK_RULES)
    base.update(overrides)
    return TrainConfig(**base)


def _median(values):
    return float(np.median(np.asarray(values, dtype=np.float64)))


def test_a1_gradient_correctness_full_model():
    """Every learnable's analytic gradient matches f64 central differences."""
    start = time.time()
    config = ModelConfig(d_audio=16, d_video=32, n_audio=3, n_video=3,
                         num_classes=2, hidden=8, num_layers=2,
                         fusion="gat", pooling="learned", modality="both")
    model = float64_shadow(partial(HgnnModel, config), 21)
    rng = np.random.default_rng(21)
    graph = build_hetero_graph(
        rng.normal(0, 1, (3, 16)), rng.normal(0, 1, (3, 32)),
        EdgeRules(audio=EdgeRule(1, 1), video=EdgeRule(1, 1), cross=EdgeRule(1, 1)))
    targets = np.array([[1.0, 0.0]])

    def scalar():
        g = ComputeGraph()
        return focal_loss(g, model.forward(g, graph).probs, targets, 2.0).item()

    g = ComputeGraph()
    g.backward(focal_loss(g, model.forward(g, graph).probs, targets, 2.0))

    named = model.named_params()
    numeric = numeric_gradient(scalar, [p.data for _, p in named], h=1e-5)
    for (name, p), num in zip(named, numeric):
        assert p.grad is not None, f"no gradient reached {name}"
        assert_grad_close(p.grad, num, rel=1e-4, abs_floor=1e-6)
    assert time.time() - start < 30.0


def test_a2_oracle_equivalence_100_random_instances():
    """A built graph's adjacencies and the GCN and GAT layers equal brute-force per-edge /
    per-entry loops."""
    start = time.time()
    rng = np.random.default_rng(33)
    for trial in range(100):
        n = int(rng.integers(1, 21))
        m = int(rng.integers(1, 21))
        span = int(rng.integers(0, 7))
        dilation = int(rng.integers(1, 7))

        rule = EdgeRule(span, dilation)
        adj_aa, _, adj_va = build_hetero_graph(np.zeros((n, 1)), np.zeros((m, 1)),
                                               EdgeRules(rule, rule, rule)).structure()
        adj = brute_force_temporal(n, span, dilation)
        np.testing.assert_array_equal((adj_aa != 0) - np.eye(n), adj)

        expected_cross = np.zeros((n, m))
        for i in range(n):
            c = anchor_index(i, n, m)
            for k in range(-span, span + 1):
                j = c + dilation * k
                if 0 <= j < m:
                    expected_cross[i, j] = 1.0
        np.testing.assert_array_equal(adj_va != 0, expected_cross)
        row_mean = expected_cross / expected_cross.sum(axis=1, keepdims=True)
        assert np.abs(adj_va - row_mean).max() <= 1e-6

        with_loops = adj + np.eye(n)
        deg = with_loops.sum(axis=1)
        per_entry = with_loops / np.sqrt(np.outer(deg, deg))
        assert np.abs(adj_aa - per_entry).max() <= 1e-6

        d_in, d_out = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        gcn = float64_layer(partial(GcnLayer, d_in, d_out), trial)
        feats = rng.normal(0, 1, (n, d_in))
        out = gcn.forward(ComputeGraph(), Tensor(feats), per_entry).data
        assert np.abs(out - gcn_oracle(per_entry, feats, gcn.weight.data)).max() <= 1e-6

        d_a = int(rng.integers(1, 9))
        gat = float64_layer(partial(GatFusionLayer, d_a, d_in, d_out), trial + 1)
        video = rng.normal(0, 1, (m, d_in))
        audio = rng.normal(0, 1, (n, d_a))
        mask = (rng.random((n, m)) > 0.4).astype(float)
        fused, alpha = gat_message(gat, ComputeGraph(), Tensor(video), mask, Tensor(audio))
        exp_out, exp_alpha = gat_oracle(video, mask, audio, gat.w_msg.data,
                                        gat.att_audio.data, gat.att_video.data)
        assert np.abs(fused.data - exp_out).max() <= 1e-6
        assert np.abs(alpha - exp_alpha).max() <= 1e-6
    assert time.time() - start < 60.0


def test_a3_fusion_advantage_ordering(tmp_path):
    """Full model >= 0.90 held-out mAP; single-modality models <= 0.70.

    Median over seeds {1, 2, 3} on the cross-modal synthetic dataset with
    default sizes and noise.
    """
    start = time.time()
    manifest = generate_synthetic(SynthSpec(mode="fusion_required", seed=0), tmp_path)
    items = load_dataset(manifest, DESK_RULES)
    train_items, val_items = split_dataset(items, 0.2, seed=0)

    def median_map(modality, fusion):
        scores = []
        for seed in (1, 2, 3):
            cfg = desk_train_config(modality=modality, fusion=fusion, seed=seed)
            result = train(train_items, cfg)
            scores.append(evaluate(result.model, val_items).map)
        return _median(scores)

    full = median_map("both", "gat")
    audio_only = median_map("audio_only", "none")
    video_only = median_map("video_only", "none")
    print(f"\na3 medians: both={full:.3f} audio={audio_only:.3f} video={video_only:.3f}")
    assert full >= 0.90
    assert audio_only <= 0.70
    assert video_only <= 0.70
    assert full > audio_only > 0 and full > video_only > 0
    assert time.time() - start < 600.0


def test_a4_audio_solvable_sanity(tmp_path):
    """Audio-only model reaches mAP >= 0.95 on the audio-separable task."""
    start = time.time()
    manifest = generate_synthetic(
        SynthSpec(mode="audio_only_solvable", seed=0), tmp_path)
    items = load_dataset(manifest, DESK_RULES)
    train_items, val_items = split_dataset(items, 0.2, seed=0)
    scores = []
    for seed in (1, 2, 3):
        cfg = desk_train_config(modality="audio_only", fusion="none", seed=seed,
                                max_iters=2000)
        result = train(train_items, cfg)
        scores.append(evaluate(result.model, val_items).map)
    print(f"\na4 per-seed mAP: {[round(s, 3) for s in scores]}")
    assert _median(scores) >= 0.95
    assert time.time() - start < 300.0


def test_a5_focal_loss_reduces_to_bce():
    """gamma=0 focal equals summed BCE within 1e-12; default gamma is 2."""
    rng = np.random.default_rng(55)
    for _ in range(1000):
        c = int(rng.integers(1, 8))
        probs = rng.uniform(1e-6, 1.0 - 1e-6, (1, c))
        targets = (rng.random((1, c)) > 0.5).astype(np.float64)
        g = ComputeGraph()
        focal = focal_loss(g, Tensor(probs), targets, gamma=0.0).item()
        clipped = np.clip(probs, 1e-7, 1.0 - 1e-7)
        bce = float(-(targets * np.log(clipped)
                      + (1.0 - targets) * np.log(1.0 - clipped)).sum())
        assert abs(focal - bce) <= 1e-12
    assert TrainConfig().gamma == 2.0


def test_a6_metric_oracles():
    """AP vs hand ranking (50 cases); AUC vs exhaustive pairs (n <= 12)."""
    rng = np.random.default_rng(66)
    for _ in range(50):
        n = int(rng.integers(1, 16))
        scores = np.round(rng.random(n), 2)
        labels = rng.random(n) > 0.5
        if not labels.any():
            labels[int(rng.integers(0, n))] = True
        assert abs(average_precision(scores, labels)
                   - ap_by_hand(scores.tolist(), labels.tolist())) <= 1e-12
    for _ in range(200):
        n = int(rng.integers(2, 13))
        scores = np.round(rng.random(n), 1)
        labels = rng.random(n) > 0.5
        if not labels.any():
            labels[0] = True
        if labels.all():
            labels[-1] = False
        assert abs(roc_auc(scores, labels)
                   - auc_by_pairs(scores.tolist(), labels.tolist())) <= 1e-12


def test_a7_parameter_count_full_scale():
    """Full-scale config (128/1024 dims, hidden 512, 4 layers, 33 classes)."""
    config = ModelConfig(d_audio=128, d_video=1024, n_audio=40, n_video=100,
                         num_classes=33, hidden=512, num_layers=4,
                         fusion="gat", pooling="learned", modality="both")
    count = sum(p.data.size for _, p in HgnnModel(config, Rng(0)).named_params())
    print(f"\na7 parameter count: {count:,}")
    assert 1_000_000 <= count <= 4_000_000


def test_a8_schedule_values():
    """Warmup midpoint, warmup end, decay point - exact."""
    cfg = TrainConfig()
    assert lr_at(500, cfg) == 0.0025
    assert lr_at(1000, cfg) == 0.005
    assert lr_at(1500, cfg) == 0.0005


def test_a9_determinism_and_checkpoint_round_trip(tmp_path):
    """Same seed is bitwise identical; mid-run save/reload changes nothing."""
    start = time.time()
    manifest = generate_synthetic(SynthSpec(n_items=16, seed=3), tmp_path)
    items = load_dataset(manifest, DESK_RULES)

    cfg_full = desk_train_config(hidden=16, num_layers=1, max_iters=30,
                                 batch_size=4, warmup_iters=5, seed=7)
    run_a = train(items, cfg_full)
    run_b = train(items, cfg_full)
    assert [r["loss"] for r in run_a.history] == [r["loss"] for r in run_b.history]
    for (name, pa), (_, pb) in zip(run_a.model.named_params(),
                                   run_b.model.named_params()):
        assert pa.data.tobytes() == pb.data.tobytes(), name

    cfg_half = desk_train_config(hidden=16, num_layers=1, max_iters=15,
                                 batch_size=4, warmup_iters=5, seed=7)
    half = train(items, cfg_half)
    ckpt_path = tmp_path / "half.hgck"
    save_checkpoint(ckpt_path, half.model, half.optimizer, 15, half.rng, cfg_half)
    resumed = train(items, cfg_full, resume=load_checkpoint(ckpt_path))
    tail = [r["loss"] for r in run_a.history if r["iteration"] > 15]
    assert [r["loss"] for r in resumed.history] == tail
    for (name, pa), (_, pr) in zip(run_a.model.named_params(),
                                   resumed.model.named_params()):
        assert pa.data.tobytes() == pr.data.tobytes(), name
    assert time.time() - start < 120.0


def test_a10_update_asymmetry():
    """Video branch never sees audio; audio sees video only through fusion."""
    rng = np.random.default_rng(10)

    def graph_with(video_scale=1.0, audio_shift=0.0):
        gen = np.random.default_rng(77)  # same base features every call
        audio = gen.normal(0, 1, (4, 6)).astype(np.float32) + audio_shift
        video = (gen.normal(0, 1, (5, 7)).astype(np.float32)) * video_scale
        return build_hetero_graph(audio, video, EdgeRules(
            audio=EdgeRule(1, 1), video=EdgeRule(1, 1), cross=EdgeRule(1, 1)))

    def states(model, graph):
        result = model.forward(ComputeGraph(), graph)
        return result.audio_states, result.video_states

    config = dict(d_audio=6, d_video=7, n_audio=4, n_video=5, num_classes=3,
                  hidden=8, num_layers=3, pooling="mean", modality="both")
    fusion_off = HgnnModel(ModelConfig(fusion="none", **config), Rng(1))
    fusion_on = HgnnModel(ModelConfig(fusion="gat", **config), Rng(1))

    base_audio_off, base_video_off = states(fusion_off, graph_with())
    base_audio_on, base_video_on = states(fusion_on, graph_with())

    for scale in (-3.0, 0.0, 17.5, 1e4):
        audio_states, _ = states(fusion_off, graph_with(video_scale=scale))
        for got, want in zip(audio_states, base_audio_off):
            assert got.tobytes() == want.tobytes()

    for shift in (-2.0, 5.0, 1e3):
        for model, base in ((fusion_off, base_video_off), (fusion_on, base_video_on)):
            _, video_states = states(model, graph_with(audio_shift=shift))
            for got, want in zip(video_states, base):
                assert got.tobytes() == want.tobytes()

    changed, _ = states(fusion_on, graph_with(video_scale=-3.0))
    assert changed[-1].tobytes() != base_audio_on[-1].tobytes()
