"""Hypothesis draws across the model's config space: fusion x pooling x modality,
1-3 layers, hidden 1-6, nodes 1-6, dims 1-5, classes 1-3, and each edge rule
with span 0-3 and dilation 1-3.

A saved model restores to bitwise-equal parameters and scores, a header listing
that differs from the model's in one entry is a ConfigError naming the first
index at which the two differ, and a stack of 1-4 graphs gives each graph's own
scores, loss and parameter gradients.
"""

import json
import struct
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avhgnn.graph import EdgeRule, EdgeRules, build_hetero_graph, stack_graphs
from avhgnn.layers import FUSION_MODES, MODALITIES, POOLING_MODES, HgnnModel, ModelConfig
from avhgnn.tensor import ComputeGraph, Rng
from avhgnn.training import (ARCHITECTURE, Adam, ConfigError, TrainConfig, focal_loss,
                             load_checkpoint, save_checkpoint)
from conftest import float64_shadow

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
