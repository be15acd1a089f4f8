"""Graph construction vs brute-force enumeration and per-entry oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avhgnn.graph import (EdgeRule, EdgeRules, anchor_index, build_hetero_graph,
                          cross_modal_edges, normalize_adjacency, temporal_edges)
from avhgnn.tensor import ShapeError


def brute_force_temporal(n, span, dilation):
    """Reference: i ~ j iff |i - j| is dilation*k for some k in 1..span."""
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            delta = abs(i - j)
            if delta % dilation == 0 and 1 <= delta // dilation <= span:
                adj[i, j] = 1.0
    return adj


class TestTemporalEdges:
    def test_span2_dilation1_neighbourhood(self):
        adj = temporal_edges(5, EdgeRule(span=2, dilation=1))
        assert sorted(np.flatnonzero(adj[2]).tolist()) == [0, 1, 3, 4]

    def test_span1_dilation3_exact_edges(self):
        adj = temporal_edges(5, EdgeRule(span=1, dilation=3))
        pairs = {(i, j) for i, j in zip(*np.nonzero(np.triu(adj)))}
        assert pairs == {(0, 3), (1, 4)}

    def test_span0_no_edges(self):
        assert temporal_edges(3, EdgeRule(span=0)).sum() == 0

    def test_no_self_loops(self):
        adj = temporal_edges(12, EdgeRule(span=4, dilation=2))
        assert np.all(np.diag(adj) == 0)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 50), span=st.integers(0, 8), dilation=st.integers(1, 8))
    def test_matches_brute_force(self, n, span, dilation):
        adj = temporal_edges(n, EdgeRule(span=span, dilation=dilation))
        np.testing.assert_array_equal(adj, brute_force_temporal(n, span, dilation))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), span=st.integers(0, 8), dilation=st.integers(1, 8))
    def test_symmetric(self, n, span, dilation):
        adj = temporal_edges(n, EdgeRule(span=span, dilation=dilation))
        np.testing.assert_array_equal(adj, adj.T)

    def test_invalid_rule(self):
        with pytest.raises(ValueError):
            EdgeRule(span=-1)
        with pytest.raises(ValueError):
            EdgeRule(span=1, dilation=0)


class TestCrossModalEdges:
    def test_single_nodes_anchor_only(self):
        adj = cross_modal_edges(1, 1, EdgeRule(span=0, dilation=1))
        np.testing.assert_array_equal(adj, [[1.0]])

    def test_two_audio_four_video(self):
        adj = cross_modal_edges(2, 4, EdgeRule(span=1, dilation=1))
        assert sorted(np.flatnonzero(adj[0]).tolist()) == [0, 1]
        assert sorted(np.flatnonzero(adj[1]).tolist()) == [2, 3]

    def test_full_scale_degree_range(self):
        adj = cross_modal_edges(40, 100, EdgeRule(span=3, dilation=1))
        degrees = adj.sum(axis=1)
        assert degrees.min() >= 4 and degrees.max() <= 7

    @settings(max_examples=80, deadline=None)
    @given(n_audio=st.integers(1, 30), n_video=st.integers(1, 60),
           span=st.integers(0, 5), dilation=st.integers(1, 5))
    def test_matches_enumeration(self, n_audio, n_video, span, dilation):
        adj = cross_modal_edges(n_audio, n_video, EdgeRule(span, dilation))
        expected = np.zeros((n_audio, n_video))
        for i in range(n_audio):
            c = anchor_index(i, n_audio, n_video)
            for k in range(-span, span + 1):
                j = c + dilation * k
                if 0 <= j < n_video:
                    expected[i, j] = 1.0
        np.testing.assert_array_equal(adj, expected)

    def test_anchor_matches_exact_rational_rounding(self):
        """anchor(i) = floor(i*(n_video-1)/(n_audio-1) + 1/2) in exact rationals,
        for an int and for an ndarray of indices (every n_audio, every 11th n_video)."""
        for n_audio in range(1, 201):
            for n_video in range(1, 201, 11):
                if n_audio == 1:
                    expected = [0]
                else:
                    step = Fraction(n_video - 1, n_audio - 1)
                    expected = [math.floor(i * step + Fraction(1, 2))
                                for i in range(n_audio)]
                anchors = anchor_index(np.arange(n_audio), n_audio, n_video)
                assert anchors.tolist() == expected, (n_audio, n_video)
                assert [anchor_index(i, n_audio, n_video)
                        for i in range(n_audio)] == expected, (n_audio, n_video)

    @settings(max_examples=60, deadline=None)
    @given(n_audio=st.integers(2, 60), n_video=st.integers(1, 80))
    def test_anchor_monotone(self, n_audio, n_video):
        anchors = [anchor_index(i, n_audio, n_video) for i in range(n_audio)]
        assert anchors == sorted(anchors)
        assert anchors[0] == 0 and anchors[-1] == n_video - 1


class TestHugeRuleValues:
    """No edge joins nodes n or more apart, so a rule value past the node count n,
    even one too large for numpy's integers, gives the mask of a value equal to n."""

    HUGE = st.sampled_from([2 ** 63, 2 ** 64, 10 ** 20])

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 30), small=st.integers(0, 8), huge=HUGE)
    def test_temporal_edges(self, n, small, huge):
        np.testing.assert_array_equal(temporal_edges(n, EdgeRule(small, huge)),
                                      temporal_edges(n, EdgeRule(small, n)))
        np.testing.assert_array_equal(temporal_edges(n, EdgeRule(huge, small + 1)),
                                      temporal_edges(n, EdgeRule(n, small + 1)))

    @settings(max_examples=60, deadline=None)
    @given(n_audio=st.integers(1, 30), n_video=st.integers(1, 30), small=st.integers(0, 8),
           huge=HUGE)
    def test_cross_modal_edges(self, n_audio, n_video, small, huge):
        np.testing.assert_array_equal(cross_modal_edges(n_audio, n_video, EdgeRule(small, huge)),
                                      cross_modal_edges(n_audio, n_video, EdgeRule(small, n_video)))
        np.testing.assert_array_equal(
            cross_modal_edges(n_audio, n_video, EdgeRule(huge, small + 1)),
            cross_modal_edges(n_audio, n_video, EdgeRule(n_video, small + 1)))


class TestNormalizeAdjacency:
    def test_isolated_node(self):
        out = normalize_adjacency(np.zeros((1, 1)))
        np.testing.assert_array_equal(out.data, [[1.0]])

    def test_two_node_path(self):
        out = normalize_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5], [0.5, 0.5]])

    def test_per_entry_oracle_random_graph(self):
        rng = np.random.default_rng(3)
        raw = rng.random((20, 20)) > 0.7
        adj = np.triu(raw, 1).astype(float)
        adj = adj + adj.T
        out = normalize_adjacency(adj, dtype=np.float64).data
        with_loops = adj + np.eye(20)
        deg = with_loops.sum(axis=1)
        expected = np.zeros_like(with_loops)
        for i in range(20):
            for j in range(20):
                expected[i, j] = with_loops[i, j] / np.sqrt(deg[i] * deg[j])
        np.testing.assert_allclose(out, expected, atol=1e-7)

    def test_spectral_radius_at_most_one(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            raw = rng.random((12, 12)) > 0.6
            adj = np.triu(raw, 1).astype(float)
            adj = adj + adj.T
            norm = normalize_adjacency(adj, dtype=np.float64).data
            radius = np.abs(np.linalg.eigvalsh(norm)).max()
            assert radius <= 1.0 + 1e-6

    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeError):
            normalize_adjacency(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            normalize_adjacency(np.zeros((2, 3)))


class TestBuildHeteroGraph:
    def test_tiny_shapes_and_edge_counts(self):
        rules = EdgeRules(audio=EdgeRule(1, 1), video=EdgeRule(1, 1),
                          cross=EdgeRule(1, 1))
        g = build_hetero_graph(np.ones((2, 3)), np.ones((2, 5)), rules)
        assert g.adj_aa.shape == (2, 2)
        assert g.adj_vv.shape == (2, 2)
        assert g.adj_va.shape == (2, 2)
        # one undirected edge per modality, plus anchors +/- 1 clipped
        assert brute_force_temporal(2, 1, 1).sum() == 2
        assert np.count_nonzero(g.adj_va) == 4  # both audio nodes see both video nodes
        np.testing.assert_array_equal(g.adj_va, np.full((2, 2), 0.5))

    def test_paper_scale_audio_edge_count(self):
        rules = EdgeRules.default()  # audio (6,3), video (4,4), cross (3,1)
        g = build_hetero_graph(np.zeros((40, 8)), np.zeros((100, 8)), rules)
        brute = brute_force_temporal(40, 6, 3)
        # recover the raw 0/1 adjacency from the normalized one
        rebuilt = (g.adj_aa > 0).astype(float) - np.eye(40)
        np.testing.assert_array_equal(rebuilt, brute)
        assert rebuilt.sum() / 2 == brute.sum() / 2

    def test_single_node_modalities(self):
        rules = EdgeRules.default()
        g = build_hetero_graph(np.ones((1, 4)), np.ones((1, 6)), rules)
        np.testing.assert_array_equal(g.adj_aa, [[1.0]])
        np.testing.assert_array_equal(g.adj_vv, [[1.0]])
        np.testing.assert_array_equal(g.adj_va, [[1.0]])

    @pytest.mark.parametrize("cross", [EdgeRule(0, 1), EdgeRule(1, 1), EdgeRule(3, 1),
                                       EdgeRule(2, 3), EdgeRule(6, 4)])
    def test_cross_adjacency_nonzeros_are_the_window_and_each_row_averages(self, cross):
        rules = EdgeRules(audio=EdgeRule(1, 1), video=EdgeRule(1, 1), cross=cross)
        shapes = [(a, v) for a in range(1, 7) for v in range(1, 7)] + [(10, 25), (40, 100)]
        for n_audio, n_video in shapes:
            adj_va = build_hetero_graph(np.ones((n_audio, 2), np.float32),
                                        np.ones((n_video, 2), np.float32), rules).adj_va
            window = cross_modal_edges(n_audio, n_video, cross) > 0
            assert adj_va.dtype == np.float32  # the features' dtype, which the mean reads
            np.testing.assert_array_equal(np.asarray(adj_va, bool), window)
            rows = window.any(axis=1)
            np.testing.assert_allclose(adj_va[rows].sum(axis=1, dtype=np.float64), 1.0,
                                       rtol=0, atol=n_video * np.finfo(np.float32).eps)

    def test_empty_features_rejected(self):
        with pytest.raises(ShapeError):
            build_hetero_graph(np.ones((0, 3)), np.ones((2, 5)),
                               EdgeRules.default())
