"""Hypothesis draws across the model's config space: fusion x pooling x modality,
1-3 layers, hidden 1-6, nodes 1-6, dims 1-5, classes 1-3, and each edge rule
with span 0-3 and dilation 1-3.

A saved model restores to bitwise-equal parameters and scores, a header listing
that differs from the model's in one entry is a ConfigError naming the first
index at which the two differ, a stack of 1-4 graphs gives each graph's own
scores, loss and parameter gradients, backward's gradients match central
differences, a run resumed at any iteration ends as the run that never stopped,
and items that do not fit a model raise ConfigError or ShapeError alone.
"""

import json
import struct
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from avhgnn.data import LabeledGraph
from avhgnn.graph import EdgeRule, EdgeRules, build_hetero_graph, stack_graphs
from avhgnn.layers import (FUSION_MODES, MODALITIES, POOLING_MODES, GcnLayer, HgnnModel,
                           ModelConfig)
from avhgnn.metrics import evaluate
from avhgnn.tensor import ComputeGraph, Rng, ShapeError
from avhgnn.training import (ARCHITECTURE, Adam, ConfigError, TrainConfig, focal_loss,
                             load_checkpoint, save_checkpoint, train)
from conftest import assert_grad_close, float64_shadow, numeric_gradient

CONFIGS = st.builds(
    ModelConfig, d_audio=st.integers(1, 5), d_video=st.integers(1, 5),
    n_audio=st.integers(1, 6), n_video=st.integers(1, 6), num_classes=st.integers(1, 3),
    hidden=st.integers(1, 6), num_layers=st.integers(1, 3),
    fusion=st.sampled_from(FUSION_MODES), pooling=st.sampled_from(POOLING_MODES),
    modality=st.sampled_from(MODALITIES))
RULE = st.builds(EdgeRule, span=st.integers(0, 3), dilation=st.integers(1, 3))
RULES = st.builds(EdgeRules, audio=RULE, video=RULE, cross=RULE)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("config_space")


def _saved(path, config: ModelConfig, seed: int) -> HgnnModel:
    """A fresh model of `config` drawn from `seed`, saved at `path`."""
    model = HgnnModel(config, Rng(seed))
    train_config = TrainConfig(**{k: getattr(config, k) for k in ARCHITECTURE})
    save_checkpoint(path, model, Adam(model.named_params()), 0, Rng(seed), train_config)
    return model


def _bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype=np.float32).tobytes()


def _graph(config: ModelConfig, rng, rules: EdgeRules, dtype=np.float32):
    return build_hetero_graph(
        rng.normal(size=(config.n_audio, config.d_audio)).astype(dtype),
        rng.normal(size=(config.n_video, config.d_video)).astype(dtype), rules)


@settings(max_examples=200, deadline=None)
@given(config=CONFIGS, rules=RULES, seed=st.integers(0, 2**32 - 1))
def test_save_load_build_restores_parameters_and_scores_bitwise(scratch, config, rules, seed):
    path = scratch / "round_trip.hgck"
    model = _saved(path, config, seed)
    restored = load_checkpoint(path).build_model()
    assert ([(name, _bits(p.data)) for name, p in restored.named_params()]
            == [(name, _bits(p.data)) for name, p in model.named_params()])
    graph = _graph(config, Rng(seed), rules)
    scores = [m.forward(ComputeGraph(), graph).probs.data for m in (model, restored)]
    assert _bits(scores[0]) == _bits(scores[1])


def _drop(listing, i):
    return listing[:i] + listing[i + 1:], i


def _append(listing, i):
    return listing + [listing[i]], len(listing)


def _reshape(listing, i):
    return listing[:i] + [listing[i] | {"cols": listing[i]["cols"] + 1}] + listing[i + 1:], i


def _swap(listing, i):
    i = min(i, len(listing) - 2)  # a model has at least three parameters, all named apart
    return listing[:i] + [listing[i + 1], listing[i]] + listing[i + 2:], i


@settings(max_examples=200, deadline=None)
@given(config=CONFIGS, edit=st.sampled_from([_drop, _append, _reshape, _swap]),
       where=st.floats(0, 1, exclude_max=True))
def test_a_listing_one_entry_off_names_its_first_differing_index(scratch, config, edit,
                                                                    where):
    path = scratch / "listing.hgck"
    _saved(path, config, 0)
    blob = path.read_bytes()
    header_len = struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12:12 + header_len])
    listing = header["params"]
    header["params"], first = edit(listing, int(where * len(listing)))
    text = json.dumps(header).encode()
    total = sum(s["rows"] * s["cols"] for s in header["params"])
    path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + bytes(3 * 4 * total))

    def entry(specs, i):
        return (specs[i]["name"], specs[i]["rows"], specs[i]["cols"]) if i < len(specs) else None

    with pytest.raises(ConfigError) as raised:
        load_checkpoint(path).build_model()
    assert str(raised.value) == (
        f"checkpoint parameter {first} is {entry(header['params'], first)}, the model's "
        f"is {entry(listing, first)}; the parameter list must match the model's exactly")


@settings(max_examples=300, deadline=None)
@given(config=CONFIGS, rules=RULES, batch=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_a_stack_of_graphs_scores_and_learns_as_its_graphs_do(config, rules, batch, seed):
    """In float64, the stack's scores equal each graph's, and its focal loss and
    parameter gradients equal the sums over the graphs, within 1e-6."""
    model = float64_shadow(partial(HgnnModel, config), seed)
    rng = Rng(seed)
    graphs = [_graph(config, rng, rules, np.float64) for _ in range(batch)]
    labels = [(rng.random(config.num_classes) > 0.5).astype(np.float64) for _ in graphs]

    def loss_and_grads(graph, y):
        for _, p in model.named_params():
            p.grad = None
        g = ComputeGraph()
        probs = model.forward(g, graph).probs
        loss = focal_loss(g, probs, y, gamma=2.0)
        g.backward(loss)
        return probs.data, loss.item(), {name: p.grad.copy() for name, p in model.named_params()}

    each = [loss_and_grads(graph, y) for graph, y in zip(graphs, labels)]
    probs, loss, grads = loss_and_grads(stack_graphs(graphs), labels)
    np.testing.assert_allclose(probs, np.stack([p for p, _, _ in each]), rtol=0, atol=1e-6)
    assert abs(loss - sum(l for _, l, _ in each)) < 1e-6
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, sum(g[name] for _, _, g in each), rtol=0, atol=1e-6,
                                   err_msg=name)


# A central difference steps each parameter entry by STEP. Near a kink (a ReLU or
# LeakyReLU input near 0, a max near its runner-up) a step may cross it: at 1e-5 a few
# draws in 10^4 did. Near 0 or 1, a probability's rounding, divided by the step, passes
# the tolerance: at 1e-7 a draw with p = 1 - 2.2e-6 did. Such draws are rejected.
STEP = 1e-6
KINK_MARGIN = 1e-4
PROB_MARGIN = 1e-3


def _near_a_kink(model: HgnnModel, graph, result) -> bool:
    """Whether an input of the forward's ReLUs (in each GCN) or LeakyReLUs (each attended
    score) lies within KINK_MARGIN of 0, a max-pooled column's positive max within
    KINK_MARGIN of its runner-up, or a probability within PROB_MARGIN of 0 or 1."""
    near = [np.minimum(result.probs.data, 1.0 - result.probs.data) < PROB_MARGIN]
    h_a, h_v = graph.audio_feats.data, graph.video_feats.data
    for i, layer in enumerate(model.layers):
        fusion, gcn = layer.fusion, isinstance(layer.fusion, GcnLayer)
        inputs = [(layer.audio_gcn, graph.adj_aa, h_a), (layer.video_gcn, graph.adj_vv, h_v),
                  (fusion if gcn else None, graph.adj_va, h_v)]
        near += [np.abs(adj @ (h @ part.weight.data)) < KINK_MARGIN
                 for part, adj, h in inputs if part is not None]
        if fusion is not None and not gcn:
            score_v = h_v @ (fusion.w_msg.data @ fusion.att_video.data)
            scores = h_a @ fusion.att_audio.data + score_v.swapaxes(-1, -2)
            near.append(np.abs(scores[graph.adj_va > 0]) < KINK_MARGIN)
        h_a = result.audio_states[i] if result.audio_states else None
        h_v = result.video_states[i] if result.video_states else None
    if model.config.pooling == "max":
        for h in (h for h in (h_a, h_v) if h is not None and h.shape[-2] > 1):
            top = np.sort(h, axis=-2)[::-1]
            near.append((top[0] > 0) & (top[0] - top[1] < KINK_MARGIN))
    return any(x.any() for x in near)


@settings(max_examples=150, deadline=None)
@given(config=CONFIGS, rules=RULES, seed=st.integers(0, 2**32 - 1))
def test_backward_matches_central_differences_for_every_parameter(config, rules, seed):
    """In float64, every entry of every parameter's focal-loss gradient is within
    A1's tolerance (1e-4 relative, 1e-6 absolute) of its central difference, in every
    pooling mode; draws near a kink or a saturated probability are rejected."""
    model = float64_shadow(partial(HgnnModel, config), seed)
    rng = Rng(seed)
    graph = _graph(config, rng, rules, np.float64)
    labels = (rng.random(config.num_classes) > 0.5).astype(np.float64)

    def loss(g):
        return focal_loss(g, model.forward(g, graph).probs, labels, gamma=2.0)

    assume(not _near_a_kink(model, graph, model.forward(ComputeGraph(), graph)))
    g = ComputeGraph()
    g.backward(loss(g))
    named = model.named_params()
    numeric = numeric_gradient(lambda: loss(ComputeGraph()).item(), [p.data for _, p in named],
                               h=STEP)
    for (name, p), num in zip(named, numeric):
        assert_grad_close(p.grad, num, rel=1e-4, abs_floor=1e-6)


def _items(config: ModelConfig, rng, rules: EdgeRules, n: int, **odd) -> list:
    """`n` labeled graphs of `config`'s shapes, each label row with one positive;
    `odd` overrides a node count, a feature width or the label width."""
    shape = {k: getattr(config, k) for k in ("n_audio", "n_video", "d_audio", "d_video",
                                             "num_classes")} | odd
    return [LabeledGraph(f"item-{i}", build_hetero_graph(
        rng.normal(size=(shape["n_audio"], shape["d_audio"])).astype(np.float32),
        rng.normal(size=(shape["n_video"], shape["d_video"])).astype(np.float32), rules),
        np.eye(shape["num_classes"], dtype=np.float32)[[i % shape["num_classes"]]])
        for i in range(n)]


def _train_config(config: ModelConfig, rules: EdgeRules, **fields) -> TrainConfig:
    return TrainConfig(rules=rules, **{k: getattr(config, k) for k in ARCHITECTURE}, **fields)


@settings(max_examples=100, deadline=None)
@given(config=CONFIGS, rules=RULES, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_a_resumed_run_ends_as_the_uninterrupted_run(scratch, config, rules, seed, data):
    """A run stopped and saved at a drawn iteration k, then resumed, writes the
    checkpoint bytes of the run that never stopped, and its rows are that run's
    rows after k."""
    max_iters = data.draw(st.integers(1, 6), "max_iters")
    cfg = _train_config(config, rules, seed=seed, max_iters=max_iters,
                        batch_size=data.draw(st.integers(1, 3), "batch_size"),
                        warmup_iters=data.draw(st.integers(0, 3), "warmup_iters"),
                        decay_at_iter=data.draw(st.integers(0, 6), "decay_at_iter"),
                        eval_every=data.draw(st.integers(1, 3), "eval_every"))
    k = data.draw(st.integers(1, max_iters), "k")
    rng = Rng(seed)
    items, val_items = _items(config, rng, rules, 4), _items(config, rng, rules, 2)
    whole = train(items, cfg, val_items=val_items)
    train(items, replace(cfg, max_iters=k), val_items=val_items).save(scratch / "at_k.hgck")
    resumed = train(items, cfg, val_items=val_items, resume=load_checkpoint(scratch / "at_k.hgck"))
    for name, result in (("whole.hgck", whole), ("resumed.hgck", resumed)):
        result.save(scratch / name)
    assert (scratch / "resumed.hgck").read_bytes() == (scratch / "whole.hgck").read_bytes()
    np.testing.assert_equal(resumed.history, whole.history[k:])


def _bad_field(config: ModelConfig) -> st.SearchStrategy:
    """A field whose wrong value no model of `config` can take: a node count under
    learned pooling or a feature width, of a node set the model reads, or the
    label width."""
    fields = ["num_classes"]
    for read, n, d in ((config.audio, "n_audio", "d_audio"), (config.video, "n_video", "d_video")):
        if read:
            fields += [d, n] if config.pooling == "learned" else [d]
    return st.sampled_from(fields)


@settings(max_examples=300, deadline=None)
@given(config=CONFIGS, rules=RULES, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_a_bad_combination_is_a_config_or_shape_error(scratch, config, rules, seed, data):
    """Items that do not fit the model raise ConfigError or ShapeError, and
    nothing else, at every entry point: training with them in the training or the
    validation set, a resume, a forward and loss, a stack and an evaluation."""
    field = data.draw(_bad_field(config), "field")
    wrong = data.draw(st.integers(1, 7).filter(lambda v: v != getattr(config, field)), "wrong")
    rng = Rng(seed)
    good, bad = _items(config, rng, rules, 2), _items(config, rng, rules, 1, **{field: wrong})
    cfg = _train_config(config, rules, max_iters=1, batch_size=2)
    model = HgnnModel(config, Rng(seed))
    save_checkpoint(scratch / "bad.hgck", model, Adam(model.named_params()), 0, Rng(seed), cfg)

    def forward_and_loss(item):
        g = ComputeGraph()
        focal_loss(g, model.forward(g, item.graph).probs, item.labels, gamma=2.0)

    for call in (lambda: train(good + bad, cfg), lambda: train(good, cfg, val_items=bad),
                 lambda: train(good + bad, cfg, resume=load_checkpoint(scratch / "bad.hgck")),
                 lambda: forward_and_loss(bad[0]), lambda: evaluate(model, bad),
                 lambda: forward_and_loss(LabeledGraph("stack", stack_graphs(
                     [good[0].graph, bad[0].graph]), [good[0].labels, bad[0].labels]))):
        with pytest.raises((ConfigError, ShapeError)):
            call()


# The bad-combination fuzz's shrunk examples, each a defect it found: a ValueError
# from numpy, where a ShapeError names the mismatch.
SHRUNK = ModelConfig(d_audio=1, d_video=1, n_audio=1, n_video=1, num_classes=2, hidden=1,
                     num_layers=1, fusion="gat", pooling="learned", modality="both")
SPAN_0 = EdgeRules(audio=EdgeRule(0, 1), video=EdgeRule(0, 1), cross=EdgeRule(0, 1))


def test_stacking_graphs_of_two_feature_widths_is_a_shape_error():
    config = replace(SHRUNK, d_audio=1, d_video=2, n_audio=4, n_video=3, num_classes=1,
                     hidden=2, pooling="mean", modality="video_only")
    graphs = [item.graph for item in (_items(config, Rng(0), SPAN_0, 1)
                                      + _items(config, Rng(0), SPAN_0, 1, d_video=1))]
    with pytest.raises(ShapeError, match="share their feature widths"):
        stack_graphs(graphs)


def test_a_label_width_other_than_num_classes_is_a_shape_error():
    model = HgnnModel(SHRUNK, Rng(0))
    good, bad = _items(SHRUNK, Rng(0), SPAN_0, 1), _items(SHRUNK, Rng(0), SPAN_0, 1,
                                                          num_classes=1)
    g = ComputeGraph()
    probs = model.forward(g, bad[0].graph).probs
    with pytest.raises(ShapeError, match=r"targets shape \(1, 1\) != probs shape \(1, 2\)"):
        focal_loss(g, probs, bad[0].labels, gamma=2.0)
    with pytest.raises(ShapeError, match="'item-0' has 1 labels for 2 classes"):
        evaluate(model, good + bad)
    batch = model.forward(g, stack_graphs([good[0].graph, bad[0].graph])).probs
    with pytest.raises(ShapeError, match=r"targets rows differ in size: \[2, 1\]"):
        focal_loss(g, batch, [good[0].labels, bad[0].labels], gamma=2.0)
