"""Layers vs per-edge loop oracles, pooling, head, parameter counting."""

from functools import partial

import numpy as np
import pytest

from avhgnn import tensor
from avhgnn.graph import (EdgeRule, EdgeRules, _shared_adjacencies, build_hetero_graph,
                          stack_graphs)
from avhgnn.layers import (FUSION_MODES, MODALITIES, POOLING_MODES, GatFusionLayer,
                           GcnLayer, HgnnModel, ModelConfig, _param)
from avhgnn.tensor import ComputeGraph, NumericError, Rng, ShapeError, Tensor
from avhgnn.training import focal_loss
from conftest import assert_grad_close, float64_layer, float64_shadow, numeric_gradient
from reference_ops import ReferenceGraph

TINY_RULES = EdgeRules(audio=EdgeRule(1, 1), video=EdgeRule(1, 1), cross=EdgeRule(1, 1))


def gcn_oracle(adj, feats, weight):
    """Per-node loop: out[i] = relu(sum_j adj[i,j] * feats[j] @ W)."""
    out = np.zeros((adj.shape[0], weight.shape[1]))
    projected = feats @ weight
    for i in range(adj.shape[0]):
        for j in range(adj.shape[1]):
            out[i] += adj[i, j] * projected[j]
    return np.maximum(out, 0.0)


def gat_oracle(video, mask, audio, w_msg, att_audio, att_video):
    """Per-edge loop of the fusion attention (LeakyReLU slope 0.2), one audio row at a time."""
    n_audio, n_video = mask.shape
    msgs = video @ w_msg
    out = np.zeros((n_audio, w_msg.shape[1]))
    alphas = np.zeros((n_audio, n_video))
    for i in range(n_audio):
        neigh = np.flatnonzero(mask[i] > 0)
        if neigh.size == 0:
            continue
        scores = []
        for j in neigh:
            e = float(audio[i] @ att_audio[:, 0] + msgs[j] @ att_video[:, 0])
            scores.append(e if e > 0 else 0.2 * e)
        scores = np.asarray(scores)
        ex = np.exp(scores - scores.max())
        alpha = ex / ex.sum()
        alphas[i, neigh] = alpha
        for a, j in zip(alpha, neigh):
            out[i] += a * msgs[j]
    return out, alphas


def gat_message(layer, g, video, mask, audio):
    """The fusion layer's message alone: its update of a zero residual."""
    zero = Tensor(np.zeros(audio.shape[:-1] + (layer.w_msg.cols,), layer.w_msg.dtype))
    return layer.forward(g, video, mask, audio, zero)


def project_then_aggregate(layer, g, video, mask, audio):
    """The fusion as first written: every video node projected by w_msg, the
    video score taken on the projection, the message a sum of projections."""
    wh_v = g.matmul(video, layer.w_msg)
    score_v = g.matmul(wh_v, layer.att_video)
    score_a = g.matmul(audio, layer.att_audio)
    scores = g.leaky_relu(g.add(score_a, g.transpose(score_v)))
    alpha = g.row_softmax_masked(scores, mask > 0)
    return g.matmul(alpha, wh_v), alpha.data


def random_graph(rng, n_audio, n_video, d_audio, d_video, dtype=np.float64):
    feats_a = rng.normal(0, 1, (n_audio, d_audio)).astype(dtype)
    feats_v = rng.normal(0, 1, (n_video, d_video)).astype(dtype)
    rules = EdgeRules(audio=EdgeRule(2, 1), video=EdgeRule(2, 2), cross=EdgeRule(1, 1))
    return build_hetero_graph(feats_a, feats_v, rules)


class TestGcnLayer:
    def test_single_node_identity_weight(self):
        layer = float64_layer(partial(GcnLayer, 3, 3))
        layer.weight.data = np.eye(3)
        g = ComputeGraph()
        h = Tensor(np.array([[-1.0, 0.5, 2.0]]))
        out = layer.forward(g, h, np.array([[1.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.5, 2.0]])

    def test_two_node_path_hand_computation(self):
        # A = path graph, normalized entries all 1/2; H and W hand-set.
        layer = float64_layer(partial(GcnLayer, 2, 1))
        layer.weight.data = np.array([[1.0], [-1.0]])
        adj = np.full((2, 2), 0.5)
        h = Tensor(np.array([[2.0, 1.0], [0.0, 3.0]]))
        g = ComputeGraph()
        out = layer.forward(g, h, adj)
        # projected = [[1], [-3]]; aggregated = [[-1], [-1]]; relu -> 0
        np.testing.assert_array_equal(out.data, [[0.0], [0.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        layer = float64_layer(partial(GcnLayer, 6, 4), seed)
        graph = build_hetero_graph(
            rng.normal(0, 1, (n, 6)), rng.normal(0, 1, (3, 5)),
            EdgeRules(audio=EdgeRule(2, 2), video=EdgeRule(1, 1), cross=EdgeRule(1, 1)))
        g = ComputeGraph()
        out = layer.forward(g, graph.audio_feats, graph.adj_aa)
        expected = gcn_oracle(graph.adj_aa, graph.audio_feats.data,
                              layer.weight.data)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_permutation_equivariance_exact(self):
        # Integer-valued inputs keep float sums exact under reordering.
        rng = np.random.default_rng(11)
        n, d = 7, 4
        feats = rng.integers(-3, 4, (n, d)).astype(np.float64)
        weight = rng.integers(-2, 3, (d, 3)).astype(np.float64)
        adj = np.triu(rng.integers(0, 2, (n, n)), 1).astype(np.float64)
        adj = adj + adj.T + np.eye(n)  # integer entries, synthetic "normalized"
        layer = float64_layer(partial(GcnLayer, d, 3))
        layer.weight.data = weight
        perm = rng.permutation(n)
        p_mat = np.eye(n)[perm]

        out = layer.forward(ComputeGraph(), Tensor(feats), adj).data
        out_perm = layer.forward(
            ComputeGraph(), Tensor(feats[perm]),
            p_mat @ adj @ p_mat.T).data
        np.testing.assert_array_equal(out_perm, out[perm])


class TestGatFusion:
    def _layer(self, seed, d_audio=3, d_video=4, d_out=5):
        return float64_layer(partial(GatFusionLayer, d_audio, d_video, d_out), seed)

    def test_single_neighbour_alpha_one(self):
        layer = self._layer(0)
        g = ComputeGraph()
        video = Tensor(np.array([[1.0, -2.0, 0.5, 3.0]]))
        audio = Tensor(np.array([[0.2, 0.4, -0.1]]))
        out, alpha = gat_message(layer, g, video, np.array([[1.0]]), audio)
        np.testing.assert_allclose(alpha, [[1.0]])
        np.testing.assert_allclose(out.data, video.data @ layer.w_msg.data)

    def test_identical_neighbours_split_evenly(self):
        layer = self._layer(1)
        g = ComputeGraph()
        row = np.array([0.3, -1.0, 2.0, 0.7])
        video = Tensor(np.vstack([row, row]))
        audio = Tensor(np.array([[1.0, 0.0, -1.0]]))
        _, alpha = gat_message(layer, g, video, np.array([[1.0, 1.0]]), audio)
        np.testing.assert_allclose(alpha, [[0.5, 0.5]])

    def test_no_neighbours_zero_message(self):
        layer = self._layer(2)
        g = ComputeGraph()
        video = Tensor(np.ones((2, 4)))
        audio = Tensor(np.ones((2, 3)))
        mask = np.array([[1.0, 0.0], [0.0, 0.0]])
        out, alpha = gat_message(layer, g, video, mask, audio)
        np.testing.assert_array_equal(out.data[1], np.zeros(5))
        np.testing.assert_array_equal(alpha[1], np.zeros(2))

    @pytest.mark.parametrize("mask_shape", [(2, 4), (3, 2), (1, 3, 2)])
    def test_mask_of_another_shape_is_shape_error(self, mask_shape):
        # The attention softmax checks the mask against the (audio, video) scores.
        with pytest.raises(ShapeError, match=r"mask shape .* != tensor shape \(3, 4\)"):
            gat_message(self._layer(3), ComputeGraph(), Tensor(np.ones((4, 4))),
                        np.ones(mask_shape), Tensor(np.ones((3, 3))))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n_audio, n_video = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        layer = self._layer(seed)
        video = Tensor(rng.normal(0, 1, (n_video, 4)))
        audio = Tensor(rng.normal(0, 1, (n_audio, 3)))
        mask = (rng.random((n_audio, n_video)) > 0.4).astype(float)
        g = ComputeGraph()
        out, alpha = gat_message(layer, g, video, mask, audio)
        exp_out, exp_alpha = gat_oracle(video.data, mask, audio.data,
                                        layer.w_msg.data, layer.att_audio.data,
                                        layer.att_video.data)
        np.testing.assert_allclose(out.data, exp_out, atol=1e-6)
        np.testing.assert_allclose(alpha, exp_alpha, atol=1e-6)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        layer = self._layer(3)
        video = Tensor(rng.normal(0, 1, (6, 4)))
        audio = Tensor(rng.normal(0, 1, (4, 3)))
        mask = (rng.random((4, 6)) > 0.3).astype(float)
        mask[0] = 1.0
        _, alpha = gat_message(layer, ComputeGraph(), video, mask, audio)
        live = mask.sum(axis=1) > 0
        np.testing.assert_allclose(alpha[live].sum(axis=1), 1.0, atol=1e-6)

    def test_broadcast_scores_bitwise_equal_ones_matmul(self):
        """The broadcast score sum equals the ones-matrix matmul formulation bit
        for bit, and so do the attention and the residual plus message built on it."""
        rng = np.random.default_rng(11)
        layer = GatFusionLayer(3, 4, 5, partial(_param, Rng(6)))  # float32, the training dtype
        video = Tensor(rng.normal(0, 1, (6, 4)).astype(np.float32))
        audio = Tensor(rng.normal(0, 1, (4, 3)).astype(np.float32))
        mask = (rng.random((4, 6)) > 0.3).astype(float)
        residual = Tensor(rng.normal(0, 1, (4, 5)).astype(np.float32))
        g = ComputeGraph()
        out, alpha = layer.forward(g, video, mask, audio, residual)
        assert len(g) == 1  # gat_fusion: attention, aggregate, projection, residual add

        g = ReferenceGraph()
        score_v = g.matmul(video, g.matmul(layer.w_msg, layer.att_video))
        score_a = g.matmul(audio, layer.att_audio)
        ones_row = Tensor(np.ones((1, 6), dtype=np.float32))
        ones_col = Tensor(np.ones((4, 1), dtype=np.float32))
        old_scores = g.add(g.matmul(score_a, ones_row),
                           g.matmul(ones_col, g.transpose(score_v)))
        new_scores = g.add(score_a, g.transpose(score_v))
        assert new_scores.data.tobytes() == old_scores.data.tobytes()
        old_alpha = g.row_softmax_masked(g.leaky_relu(old_scores), mask > 0)
        assert alpha.tobytes() == old_alpha.data.tobytes()
        message = g.matmul(g.matmul(old_alpha, video), layer.w_msg)
        assert out.data.tobytes() == g.add(residual, message).data.tobytes()

    @pytest.mark.parametrize("batch", [None, 1, 3, 8])
    def test_aggregate_then_project_equals_project_then_aggregate(self, batch):
        """Aggregating before projecting is the same map in float64: message,
        attention and every gradient, with d_video != out_dim and an audio
        node that has no video neighbour. The gradients reach the attention
        through the message: gat_fusion's alpha is a constant."""
        rng = np.random.default_rng(30)
        layer = float64_layer(partial(GatFusionLayer, 3, 6, 4), 7)
        lead = () if batch is None else (batch,)
        video = Tensor(rng.normal(0, 1, lead + (7, 6)), requires_grad=True)
        audio = Tensor(rng.normal(0, 1, lead + (5, 3)), requires_grad=True)
        mask = (rng.random((5, 7)) > 0.5).astype(float)
        mask[1] = 0.0
        mix_out = Tensor(rng.normal(0, 1, lead + (5, 4)))
        leaves = [layer.w_msg, layer.att_audio, layer.att_video, video, audio]

        results = []
        for fusion in (partial(gat_message, layer), partial(project_then_aggregate, layer)):
            for leaf in leaves:
                leaf.grad = None
            g = ReferenceGraph()
            out, alpha = fusion(g, video, mask, audio)
            g.backward(g.sum_all(g.mul(out, mix_out)))
            results.append([out.data, alpha] + [leaf.grad for leaf in leaves])
        np.testing.assert_array_equal(results[0][1][..., 1, :], 0.0)
        for new, old in zip(*results):
            np.testing.assert_allclose(new, old, rtol=0, atol=1e-6)

    def test_no_video_node_is_projected(self, monkeypatch):
        """At paper-like shapes, w_msg multiplies one aggregated row per audio
        node, never the n_video video rows: 40 rows of the 1024 x 512 GEMM
        per graph instead of 100, the batch folded into those rows."""
        n_audio, n_video, batch = 40, 100, 2
        layer = GatFusionLayer(128, 1024, 512, partial(_param, Rng(0)))
        rng = np.random.default_rng(0)
        video = Tensor(rng.normal(0, 1, (batch, n_video, 1024)).astype(np.float32))
        audio = Tensor(rng.normal(0, 1, (batch, n_audio, 128)).astype(np.float32))
        mask = build_hetero_graph(np.ones((n_audio, 1)), np.ones((n_video, 1)),
                                  EdgeRules.default()).adj_va != 0
        by_w_msg = []
        product = tensor._product

        def recording(x, y):
            if y is layer.w_msg.data:
                by_w_msg.append(x.shape)
            return product(x, y)

        monkeypatch.setattr(tensor, "_product", recording)
        gat_message(layer, ComputeGraph(), video, mask, audio)
        assert by_w_msg == [(batch * n_audio, 1024)]

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        layer = self._layer(4)
        video = Tensor(rng.normal(0, 1, (5, 4)), requires_grad=True)
        audio = Tensor(rng.normal(0, 1, (3, 3)), requires_grad=True)
        mask = (rng.random((3, 5)) > 0.3).astype(float)
        weight = rng.normal(0, 1, (3, 5))  # fixed mixing to make loss non-trivial
        residual = Tensor(rng.normal(0, 1, (3, 5)), requires_grad=True)
        params = [layer.w_msg, layer.att_audio, layer.att_video, video, audio, residual]

        def build(g):
            out, _ = layer.forward(g, video, mask, audio, residual)
            return g.sum_all(g.mul(out, Tensor(weight)))

        g = ReferenceGraph()
        g.backward(build(g))
        numeric = numeric_gradient(lambda: build(ReferenceGraph()).item(),
                                   [p.data for p in params])
        for p, num in zip(params, numeric):
            assert_grad_close(p.grad, num)


class TestGcnFusion:
    def test_mean_aggregation_with_isolated_row(self):
        # a hand-built mask: every row of a built graph holds its anchor
        layer = float64_layer(partial(GcnLayer, 2, 2))
        layer.weight.data = np.eye(2)
        video = Tensor(np.array([[2.0, -2.0], [4.0, 6.0]]))
        mask = np.array([[1.0, 1.0], [0.0, 0.0]])
        mean = mask / np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
        out = layer.forward(ComputeGraph(), video, mean)
        np.testing.assert_allclose(out.data, [[3.0, 2.0], [0.0, 0.0]])


def tiny_config(fusion="gat", modality="both", pooling="learned", hidden=4, layers=2,
                num_classes=2):
    return ModelConfig(d_audio=5, d_video=7, n_audio=3, n_video=3,
                       num_classes=num_classes, hidden=hidden, num_layers=layers,
                       fusion=fusion, pooling=pooling, modality=modality)


def tiny_model(seed=0, dtype=np.float64, **config):
    build = partial(HgnnModel, tiny_config(**config))
    return float64_shadow(build, seed) if dtype == np.float64 else build(Rng(seed))


def tiny_graph(seed=0, dtype=np.float64, n_audio=3, n_video=3):
    rng = np.random.default_rng(seed)
    return build_hetero_graph(
        rng.normal(0, 1, (n_audio, 5)).astype(dtype),
        rng.normal(0, 1, (n_video, 7)).astype(dtype), TINY_RULES)


class TestHeteroLayer:
    def test_fusion_none_is_pure_audio_gcn(self):
        model = tiny_model(fusion="none", layers=1)
        graph = tiny_graph()
        layer = model.layers[0]
        g = ComputeGraph()
        h_a, _, alpha = layer.forward(g, graph, graph.audio_feats, graph.video_feats)
        assert alpha is None
        expected = gcn_oracle(graph.adj_aa, graph.audio_feats.data,
                              layer.audio_gcn.weight.data)
        np.testing.assert_allclose(h_a.data, expected, atol=1e-12)

    def test_zero_video_features_contribute_nothing(self):
        model = tiny_model(fusion="gat", layers=1)
        layer = model.layers[0]
        graph = tiny_graph()
        zero_video = Tensor(np.zeros_like(graph.video_feats.data))
        g = ComputeGraph()
        h_a, _, _ = layer.forward(g, graph, graph.audio_feats, zero_video)
        audio_only = gcn_oracle(graph.adj_aa, graph.audio_feats.data,
                                layer.audio_gcn.weight.data)
        np.testing.assert_allclose(h_a.data, audio_only, atol=1e-12)

    def test_hand_built_graph_matches_composed_oracle(self):
        model = tiny_model(fusion="gat", layers=1)
        layer = model.layers[0]
        graph = tiny_graph(seed=3)
        g = ComputeGraph()
        h_a, h_v, _ = layer.forward(g, graph, graph.audio_feats, graph.video_feats)
        exp_audio = gcn_oracle(graph.adj_aa, graph.audio_feats.data,
                               layer.audio_gcn.weight.data)
        exp_fused, _ = gat_oracle(graph.video_feats.data, graph.adj_va,
                                  graph.audio_feats.data,
                                  layer.fusion.w_msg.data,
                                  layer.fusion.att_audio.data,
                                  layer.fusion.att_video.data)
        exp_video = gcn_oracle(graph.adj_vv, graph.video_feats.data,
                               layer.video_gcn.weight.data)
        np.testing.assert_allclose(h_a.data, exp_audio + exp_fused, atol=1e-6)
        np.testing.assert_allclose(h_v.data, exp_video, atol=1e-6)

    def test_gcn_fusion_matches_composed_oracle(self):
        model = tiny_model(fusion="gcn", layers=1, pooling="mean")
        layer = model.layers[0]
        graph = tiny_graph(seed=5, n_audio=4, n_video=9)
        result = model.forward(ComputeGraph(), graph)
        assert result.attention == []
        mean_va = np.zeros(graph.adj_va.shape)
        for i in range(graph.n_audio):  # each audio node averages its masked video nodes
            neigh = np.flatnonzero(graph.adj_va[i] > 0)
            mean_va[i, neigh] = 1.0 / neigh.size
        expected = (gcn_oracle(graph.adj_aa, graph.audio_feats.data,
                               layer.audio_gcn.weight.data)
                    + gcn_oracle(mean_va, graph.video_feats.data, layer.fusion.weight.data))
        np.testing.assert_allclose(result.audio_states[0], expected, rtol=0, atol=1e-12)


class TestPoolingAndHead:
    def test_learned_one_hot_selects_row(self):
        model = tiny_model(pooling="learned")
        model.pool_audio.data = np.array([[1.0], [0.0], [0.0]])
        h = Tensor(np.arange(12.0).reshape(3, 4))
        pooled = ComputeGraph().pool([(h, model.pool_audio)])
        np.testing.assert_array_equal(pooled.data, [[0.0, 1.0, 2.0, 3.0]])

    def test_learned_starts_as_mean(self):
        model = tiny_model(pooling="learned")
        h = Tensor(np.random.default_rng(0).normal(0, 1, (3, 4)))
        learned = ComputeGraph().pool([(h, model.pool_audio)])
        np.testing.assert_allclose(learned.data, h.data.mean(axis=0, keepdims=True),
                                   atol=1e-12)

    def test_mean_of_identical_rows(self):
        row = np.array([1.0, -2.0, 0.5, 4.0])
        pooled = ComputeGraph().pool([(Tensor(np.vstack([row, row])), 1.0 / 2)])
        np.testing.assert_allclose(pooled.data, row[None, :])

    def test_sum_is_column_sums(self):
        mat = np.random.default_rng(1).normal(0, 1, (4, 3))
        pooled = ComputeGraph().pool([(Tensor(mat), 1.0)])
        np.testing.assert_allclose(pooled.data, mat.sum(axis=0, keepdims=True))

    @pytest.mark.parametrize("pooling, reduce", [("mean", np.mean), ("sum", np.sum)])
    @pytest.mark.parametrize("shape", [(6, 4), (3, 6, 4)])
    def test_constant_row_pooling_matches_column_reduction(self, pooling, reduce, shape):
        h = np.random.default_rng(2).normal(0, 1, shape).astype(np.float32)
        pooled = ComputeGraph().pool([(Tensor(h), 1.0 / 6 if pooling == "mean" else 1.0)])
        assert pooled.dtype == np.float32
        np.testing.assert_allclose(pooled.data, reduce(h, axis=-2, keepdims=True),
                                   rtol=0, atol=1e-6)

    @pytest.mark.parametrize("modality", MODALITIES)
    @pytest.mark.parametrize("pooling", POOLING_MODES)
    def test_each_pooling_mode_reads_the_final_states(self, pooling, modality):
        # The head reads each modality's final states pooled as the mode says:
        # learned weights, the mean, the column max or the column sum.
        model = tiny_model(seed=4, pooling=pooling, modality=modality)
        if pooling == "learned":
            for weights in (model.pool_audio, model.pool_video):
                if weights is not None:
                    weights.data = np.random.default_rng(5).normal(0, 1, weights.shape)
        result = model.forward(ComputeGraph(), tiny_graph(seed=4))
        states = [(s[-1], w) for s, w in ((result.audio_states, model.pool_audio),
                                          (result.video_states, model.pool_video)) if s]
        reduce = {"learned": lambda h, w: w.data[:, 0] @ h, "mean": lambda h, w: h.mean(0),
                  "max": lambda h, w: h.max(0), "sum": lambda h, w: h.sum(0)}[pooling]
        pooled = np.concatenate([reduce(h, w) for h, w in states])[None, :]
        logits = pooled @ model.cls_weight.data + model.cls_bias.data
        np.testing.assert_allclose(result.logits.data, logits, rtol=0, atol=1e-12)

    def test_zero_head_gives_half_probabilities(self):
        model = tiny_model()
        model.cls_weight.data = np.zeros_like(model.cls_weight.data)
        result = model.forward(ComputeGraph(), tiny_graph())
        np.testing.assert_allclose(result.probs.data, 0.5)

    def test_single_class_hand_sigmoid(self):
        model = tiny_model(num_classes=1, layers=1, pooling="sum")
        graph = tiny_graph()
        g = ComputeGraph()
        result = model.forward(g, graph)
        logit = result.logits.item()
        np.testing.assert_allclose(result.probs.item(), 1.0 / (1.0 + np.exp(-logit)))

    def test_probabilities_strictly_inside_unit_interval(self):
        result = tiny_model(seed=5).forward(ComputeGraph(), tiny_graph(seed=5))
        assert np.all(result.probs.data > 0.0)
        assert np.all(result.probs.data < 1.0)


class TestModelForward:
    def test_learned_pooling_node_count_mismatch(self):
        model = tiny_model(pooling="learned")
        with pytest.raises(ShapeError, match="audio nodes"):
            model.forward(ComputeGraph(), tiny_graph(n_audio=4))

    def test_feature_width_mismatch(self):
        model = tiny_model()
        rng = np.random.default_rng(0)
        bad = build_hetero_graph(rng.normal(0, 1, (3, 6)),
                                 rng.normal(0, 1, (3, 7)), TINY_RULES)
        with pytest.raises(ShapeError, match="audio dim"):
            model.forward(ComputeGraph(), bad)

    def test_non_finite_logits_name_first_bad_op(self):
        model = tiny_model(dtype=np.float32)
        model.layers[0].fusion.w_msg.data[0, 0] = 1e30
        graph = tiny_graph(dtype=np.float32)
        graph.video_feats.data[:] = 1e10  # 1e30 * 1e10 overflows float32
        # Op 0 is layer 0's audio GCN; op 1 is the fusion's gat_fusion, whose
        # scores reach about 1e37, still finite, and whose projection of the
        # aggregated video nodes makes the first inf.
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match=r"op 1 \(gat_fusion\)"):
            model.forward(ComputeGraph(), graph)

    def test_non_finite_first_gcn_names_the_fused_op(self):
        model = tiny_model(dtype=np.float32)
        model.layers[0].audio_gcn.weight.data[:] = 1e30
        graph = tiny_graph(dtype=np.float32)
        graph.audio_feats.data[:] = 1e10
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match=r"op 0 \(gcn\)"):
            model.forward(ComputeGraph(), graph)

    def test_nan_attention_vector_names_the_attention_op(self):
        # A NaN score once gave an all-zero attention row and finite probs.
        model = tiny_model(dtype=np.float32)
        model.layers[0].fusion.att_audio.data[3, 0] = np.nan
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericError, match=r"op 1 \(gat_fusion\)"):
            model.forward(ComputeGraph(), tiny_graph(dtype=np.float32))

    def test_attention_collected_per_layer(self):
        model = tiny_model(layers=3)
        result = model.forward(ComputeGraph(), tiny_graph())
        assert len(result.attention) == 3
        for alpha in result.attention:
            np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-6)

    def test_single_layer_model_composes_the_pieces(self):
        model = tiny_model(seed=12, layers=1, pooling="mean")
        graph = tiny_graph(seed=12)
        result = model.forward(ComputeGraph(), graph)

        audio = gcn_oracle(graph.adj_aa, graph.audio_feats.data,
                           model.layers[0].audio_gcn.weight.data)
        fused, _ = gat_oracle(graph.video_feats.data, graph.adj_va,
                              graph.audio_feats.data,
                              model.layers[0].fusion.w_msg.data,
                              model.layers[0].fusion.att_audio.data,
                              model.layers[0].fusion.att_video.data)
        video = gcn_oracle(graph.adj_vv, graph.video_feats.data,
                           model.layers[0].video_gcn.weight.data)
        pooled = np.concatenate([(audio + fused).mean(axis=0),
                                 video.mean(axis=0)])[None, :]
        logits = pooled @ model.cls_weight.data + model.cls_bias.data
        np.testing.assert_allclose(result.probs.data, 1.0 / (1.0 + np.exp(-logits)),
                                   atol=1e-9)

    def test_audio_branch_matches_audio_only_model(self):
        both = tiny_model(seed=7, fusion="none")
        solo = tiny_model(seed=8, modality="audio_only")
        for layer_b, layer_s in zip(both.layers, solo.layers):
            layer_s.audio_gcn.weight.data = layer_b.audio_gcn.weight.data.copy()
        graph = tiny_graph(seed=2)
        res_b = both.forward(ComputeGraph(), graph)
        res_s = solo.forward(ComputeGraph(), graph)
        for state_b, state_s in zip(res_b.audio_states, res_s.audio_states):
            assert state_b.tobytes() == state_s.tobytes()

    def test_video_branch_ignores_audio_perturbation(self):
        model = tiny_model(seed=9, fusion="gat")
        graph = tiny_graph(seed=4)
        res1 = model.forward(ComputeGraph(), graph)
        graph.audio_feats.data = graph.audio_feats.data + 100.0
        res2 = model.forward(ComputeGraph(), graph)
        for v1, v2 in zip(res1.video_states, res2.video_states):
            assert v1.tobytes() == v2.tobytes()

    def test_audio_branch_with_fusion_disabled_ignores_video(self):
        model = tiny_model(seed=10, fusion="none")
        graph = tiny_graph(seed=6)
        res1 = model.forward(ComputeGraph(), graph)
        graph.video_feats.data = graph.video_feats.data * -3.0 + 1.0
        res2 = model.forward(ComputeGraph(), graph)
        for a1, a2 in zip(res1.audio_states, res2.audio_states):
            assert a1.tobytes() == a2.tobytes()

    def test_audio_branch_with_fusion_enabled_sees_video(self):
        model = tiny_model(seed=10, fusion="gat")
        graph = tiny_graph(seed=6)
        res1 = model.forward(ComputeGraph(), graph)
        graph.video_feats.data = graph.video_feats.data * -3.0 + 1.0
        res2 = model.forward(ComputeGraph(), graph)
        assert res1.audio_states[-1].tobytes() != res2.audio_states[-1].tobytes()


class TestCountParams:
    def test_single_gcn_layer(self):
        layer = GcnLayer(2, 3, partial(_param, Rng(0)))
        assert layer.weight.data.size == 6

    def test_full_scale_config_arithmetic(self):
        config = ModelConfig(d_audio=128, d_video=1024, n_audio=40, n_video=100,
                             num_classes=33, hidden=512, num_layers=4,
                             fusion="gat", pooling="learned", modality="both")
        model = HgnnModel(config, Rng(0))
        h = 512
        first = 128 * h + 1024 * h + 1024 * h + 128 + h
        later = 3 * (h * h + h * h + h * h + h + h)
        pools = 40 + 100
        head = 2 * h * 33 + 33
        count = sum(p.data.size for _, p in model.named_params())
        assert count == first + later + pools + head
        assert 1_000_000 <= count <= 4_000_000

    def test_hidden_size_monotonicity(self):
        def count(hidden):
            config = ModelConfig(d_audio=8, d_video=8, n_audio=3, n_video=3,
                                 num_classes=4, hidden=hidden, num_layers=2)
            return sum(p.data.size for _, p in HgnnModel(config, Rng(0)).named_params())

        small, big = count(16), count(32)
        assert big > 2 * small  # superlinear growth


class TestParameterDtype:
    """A model's dtype is its parameters': float32 from an Rng, and from an init
    function whatever arrays it returns."""

    def test_a_fresh_draw_holds_float32_parameters(self):
        """Every layer's parameters: the tiny model has GCNs and a GAT fusion."""
        params = HgnnModel(tiny_config(), Rng(0)).params()
        assert params and all(p.dtype == np.float32 for p in params)

    def test_float64_arrays_are_held_as_given_and_run_in_float64(self):
        rng = np.random.default_rng(6)
        arrays = [rng.normal(0, 0.5, p.shape) for _, p in tiny_model().named_params()]
        given = iter(arrays)
        model = HgnnModel(tiny_config(), lambda *_: next(given))
        assert all(p.data is array for (_, p), array in zip(model.named_params(), arrays))
        g = ComputeGraph()
        result = model.forward(g, tiny_graph())
        loss = focal_loss(g, result.probs, np.array([[1.0, 0.0]]), gamma=2.0)
        g.backward(loss)
        states = result.attention + result.audio_states + result.video_states
        assert all(a.dtype == np.float64 for a in states + [result.probs.data, loss.data])
        assert all(p.grad.dtype == np.float64 for _, p in model.named_params())

    @pytest.mark.parametrize("fusion", FUSION_MODES)
    def test_the_float64_shadow_scores_within_1e_6_of_its_float32_source(self, fusion):
        build = partial(HgnnModel, tiny_config(fusion=fusion))
        source, shadow = build(Rng(3)), float64_shadow(build, 3)
        for (_, p32), (_, p64) in zip(source.named_params(), shadow.named_params()):
            assert p64.dtype == np.float64
            np.testing.assert_array_equal(p64.data, p32.data)
        graph32 = tiny_graph(seed=3, dtype=np.float32)
        graph64 = build_hetero_graph(graph32.audio_feats.data.astype(np.float64),
                                     graph32.video_feats.data.astype(np.float64), TINY_RULES)
        probs32 = source.forward(ComputeGraph(), graph32).probs.data
        probs64 = shadow.forward(ComputeGraph(), graph64).probs.data
        assert probs32.dtype == np.float32 and probs64.dtype == np.float64
        np.testing.assert_allclose(probs32, probs64, rtol=0, atol=1e-6)


class TestFullModelGradients:
    def test_every_parameter_matches_finite_differences(self):
        model = tiny_model(seed=13, hidden=4, layers=2)
        graph = tiny_graph(seed=13)
        targets = np.array([[1.0, 0.0]])

        def scalar():
            g = ComputeGraph()
            result = model.forward(g, graph)
            return focal_loss(g, result.probs, targets, gamma=2.0).item()

        g = ComputeGraph()
        result = model.forward(g, graph)
        g.backward(focal_loss(g, result.probs, targets, gamma=2.0))

        names_params = model.named_params()
        numeric = numeric_gradient(scalar, [p.data for _, p in names_params])
        for (name, p), num in zip(names_params, numeric):
            assert p.grad is not None, f"no gradient for {name}"
            assert_grad_close(p.grad, num)


class TestBatchedForward:
    """A stack of B graphs on one tape gives each graph's own loss and gradients."""

    @pytest.mark.parametrize("modality", MODALITIES)
    @pytest.mark.parametrize("fusion", FUSION_MODES)
    @pytest.mark.parametrize("pooling", POOLING_MODES)
    def test_batch_equals_sum_of_graphs(self, pooling, fusion, modality):
        model = tiny_model(seed=3, fusion=fusion, modality=modality, pooling=pooling)
        rng = np.random.default_rng(4)
        for batch in (1, 3, 8):
            graphs = [tiny_graph(seed=int(s)) for s in rng.integers(0, 1000, batch)]
            labels = [(rng.random(2) > 0.5).astype(np.float64) for _ in graphs]

            for _, p in model.named_params():
                p.grad = None
            per_graph = 0.0
            for graph, y in zip(graphs, labels):
                g = ComputeGraph()
                loss = focal_loss(g, model.forward(g, graph).probs, y, gamma=2.0)
                g.backward(loss)
                per_graph += loss.item()
            expected = {name: p.grad.copy() for name, p in model.named_params()}

            for _, p in model.named_params():
                p.grad = None
            g = ComputeGraph()
            result = model.forward(g, stack_graphs(graphs))
            assert result.probs.shape == (batch, 1, 2)
            loss = focal_loss(g, result.probs, labels, gamma=2.0)
            g.backward(loss)
            assert abs(loss.item() - per_graph) < 1e-6
            for name, p in model.named_params():
                np.testing.assert_allclose(p.grad, expected[name], rtol=0, atol=1e-6,
                                           err_msg=f"{name} at B={batch}")

    def test_equal_structures_held_in_distinct_arrays_stack(self):
        """Past the cache's 128 shapes a shape is built afresh, so two graphs can hold
        equal adjacencies in distinct arrays; they stack as if they shared them."""
        model = tiny_model(seed=3)
        first = tiny_graph(seed=1)
        _shared_adjacencies.cache_clear()
        second = tiny_graph(seed=2)
        assert all(x is not y for x, y in zip(first.structure(), second.structure()))
        stacked = model.forward(ComputeGraph(), stack_graphs([first, second])).probs.data
        for b, one in enumerate((first, second)):
            np.testing.assert_allclose(stacked[b], model.forward(ComputeGraph(), one).probs.data,
                                       rtol=0, atol=1e-6)

    def test_stack_rejects_graphs_with_different_structures(self):
        with pytest.raises(ShapeError, match="one structure"):
            stack_graphs([tiny_graph(), tiny_graph(n_audio=4)])


class TestDeskTape:
    """The desk-scale model (a3's task: 10/25 nodes, 16/32 dims, hidden 32,
    2 layers, 4 classes) on a minibatch of 8."""

    KINDS = ["gcn", "gat_fusion", "gcn"] * 2 + ["pool", "matmul", "add", "sigmoid", "focal_loss"]

    @staticmethod
    def _step(g=None):
        config = ModelConfig(d_audio=16, d_video=32, n_audio=10, n_video=25,
                             num_classes=4, hidden=32, num_layers=2)
        model = HgnnModel(config, Rng(1))
        rng = np.random.default_rng(1)
        graphs = [build_hetero_graph(rng.normal(0, 1, (10, 16)).astype(np.float32),
                                     rng.normal(0, 1, (25, 32)).astype(np.float32),
                                     EdgeRules.default()) for _ in range(8)]
        labels = [(rng.random(4) > 0.5).astype(np.float32) for _ in graphs]
        g = ComputeGraph() if g is None else g
        loss = focal_loss(g, model.forward(g, stack_graphs(graphs)).probs, labels, gamma=2.0)
        return model, g, loss

    def test_forward_and_loss_record_11_ops(self):
        # Per layer: audio gcn, gat_fusion (attention, aggregate, projection
        # and residual add), video gcn (6); pool (both modalities' learned
        # rows), head matmul and bias add, sigmoid, focal loss (5).
        _, g, _ = self._step()
        assert [kind for kind, _, _ in g._records] == self.KINDS

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("at", range(11))
    def test_a_non_finite_output_names_its_op(self, at, value):
        class Poisoned(ComputeGraph):  # puts `value` into one entry of op `at`'s output
            def _emit(self, kind, data, backward):
                if len(self) == at:
                    data[..., -1, 0] = value
                return super()._emit(kind, data, backward)

        # The forward checks the logits; an inf probability clips to a finite loss.
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(NumericError, match=rf"^op {at} \({self.KINDS[at]}\) "):
            _, g, loss = self._step(Poisoned())
            g.check_finite(loss)
            g.check_finite(g._records[9][1])

    def test_the_tape_keeps_no_fusion_aggregate_or_projection(self):
        # The bytes kept for backward: each record's output and every array its
        # rule holds, alone or in a list (pool's rows), each array once. An
        # aggregate or projection held again would add 8 x 10 x 32 float32
        # values (10240 bytes) per layer for each.
        # The graph's adjacencies belong to the per-shape cache, not the tape.
        _, g, _ = self._step()
        zeros = np.zeros((10, 16), np.float32), np.zeros((25, 32), np.float32)
        shared = build_hetero_graph(*zeros, EdgeRules.default()).structure()
        kept = {}
        for _, out, backward in g._records:
            held = [cell.cell_contents for cell in backward.__closure__ or ()]
            held += [x for cell in held if isinstance(cell, list) for x in cell]
            for x in [out.data] + held:
                if isinstance(x, np.ndarray) and not any(x is a for a in shared):
                    kept[id(x)] = x.nbytes
        assert sum(kept.values()) == 128176

    def test_no_two_parameter_gradients_share_memory(self):
        model, g, loss = self._step()
        g.backward(loss)
        grads = [p.grad for _, p in model.named_params()]
        assert all(grad is not None for grad in grads)
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)
