"""Graph construction vs brute-force enumeration and per-entry oracles."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avhgnn.graph import (EdgeRule, EdgeRules, _shared_adjacencies, anchor_index,
                          build_hetero_graph, relation_edges)
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


def brute_force_window(anchors, n, span, dilation):
    """Reference: row i holds column anchors[i] + dilation*k for each |k| <= span in [0, n)."""
    mask = np.zeros((len(anchors), n))
    for i, c in enumerate(anchors):
        for k in range(-span, span + 1):
            if 0 <= c + dilation * k < n:
                mask[i, c + dilation * k] = 1.0
    return mask


def brute_force_cross(n_audio, n_video, span, dilation):
    """Reference: audio node i sees the window around its anchor."""
    anchors = [anchor_index(i, n_audio, n_video) for i in range(n_audio)]
    return brute_force_window(anchors, n_video, span, dilation)


def intra_mask(n, rule):
    """The audio-audio list of `relation_edges` for n nodes as a 0/1 mask, its k = 0
    entries (the diagonal) dropped."""
    rows, cols = relation_edges(n, 1, EdgeRules(rule, rule, rule))[0]
    mask = np.zeros((n, n))
    mask[rows, cols] = 1.0
    return mask - np.eye(n)


def cross_mask(n_audio, n_video, rule):
    """The audio-video list of `relation_edges` as a 0/1 mask."""
    rows, cols = relation_edges(n_audio, n_video, EdgeRules(rule, rule, rule))[2]
    mask = np.zeros((n_audio, n_video))
    mask[rows, cols] = 1.0
    return mask


def structure(n_audio, n_video, rules, dtype=np.float64):
    return build_hetero_graph(np.ones((n_audio, 1), dtype), np.ones((n_video, 1), dtype),
                              rules).structure()


def dense_chain(n_audio, n_video, rules, dtype):
    """The dense construction the edge lists replace, kept as the reference: a 0/1 mask
    minus the identity, plus the identity, scaled by the inverse square roots of its row
    sums on both sides, cast; the cross mask divided by its row sums, cast."""
    def normalized(n, rule):
        mask = brute_force_window(range(n), n, rule.span, rule.dilation)
        a_tilde = (mask - np.eye(n)) + np.eye(n)
        inv_sqrt_deg = 1.0 / np.sqrt(a_tilde.sum(axis=1))
        return (a_tilde * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]).astype(dtype)

    mask = brute_force_cross(n_audio, n_video, rules.cross.span, rules.cross.dilation)
    return (normalized(n_audio, rules.audio), normalized(n_video, rules.video),
            (mask / np.maximum(mask.sum(axis=1, keepdims=True), 1.0)).astype(dtype))


class TestRelationEdges:
    @settings(max_examples=60, deadline=None)
    @given(n_audio=st.integers(1, 30), n_video=st.integers(1, 40),
           spans=st.tuples(*[st.integers(0, 6)] * 3),
           dilations=st.tuples(*[st.integers(1, 6)] * 3))
    def test_rows_are_row_major_and_each_lists_its_k0_entry(self, n_audio, n_video, spans,
                                                            dilations):
        rules = EdgeRules(*map(EdgeRule, spans, dilations))
        anchors = (np.arange(n_audio), np.arange(n_video),
                   anchor_index(np.arange(n_audio), n_audio, n_video))
        for (rows, cols), anchor, n in zip(relation_edges(n_audio, n_video, rules), anchors,
                                           (n_audio, n_video, n_audio)):
            assert np.all(np.diff(rows) >= 0)
            np.testing.assert_array_equal(np.unique(rows), np.arange(n))
            assert set(zip(rows.tolist(), cols.tolist())) >= set(enumerate(anchor.tolist()))

    def test_the_order_is_audio_video_cross(self):
        rules = EdgeRules(EdgeRule(1, 1), EdgeRule(0, 1), EdgeRule(1, 1))
        (aa_rows, aa_cols), (vv_rows, vv_cols), (va_rows, va_cols) = relation_edges(3, 2, rules)
        assert (aa_rows.tolist(), aa_cols.tolist()) == ([0, 0, 1, 1, 1, 2, 2],
                                                        [0, 1, 0, 1, 2, 1, 2])
        assert (vv_rows.tolist(), vv_cols.tolist()) == ([0, 1], [0, 1])
        assert (va_rows.tolist(), va_cols.tolist()) == ([0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 0, 1])


class TestTemporalEdges:
    def test_span2_dilation1_neighbourhood(self):
        adj = intra_mask(5, EdgeRule(span=2, dilation=1))
        assert sorted(np.flatnonzero(adj[2]).tolist()) == [0, 1, 3, 4]

    def test_span1_dilation3_exact_edges(self):
        adj = intra_mask(5, EdgeRule(span=1, dilation=3))
        pairs = {(i, j) for i, j in zip(*np.nonzero(np.triu(adj)))}
        assert pairs == {(0, 3), (1, 4)}

    def test_span0_no_edges(self):
        assert intra_mask(3, EdgeRule(span=0)).sum() == 0

    def test_no_self_loops(self):
        adj = intra_mask(12, EdgeRule(span=4, dilation=2))
        assert np.all(np.diag(adj) == 0)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 50), span=st.integers(0, 8), dilation=st.integers(1, 8))
    def test_matches_brute_force(self, n, span, dilation):
        rule = EdgeRule(span=span, dilation=dilation)
        brute = brute_force_temporal(n, span, dilation)
        np.testing.assert_array_equal(intra_mask(n, rule), brute)
        rows, cols = relation_edges(1, n, EdgeRules(rule, rule, rule))[1]
        video = np.zeros((n, n))
        video[rows, cols] = 1.0
        np.testing.assert_array_equal(video - np.eye(n), brute)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), span=st.integers(0, 8), dilation=st.integers(1, 8))
    def test_symmetric(self, n, span, dilation):
        adj = intra_mask(n, EdgeRule(span=span, dilation=dilation))
        np.testing.assert_array_equal(adj, adj.T)

    def test_invalid_rule(self):
        with pytest.raises(ValueError):
            EdgeRule(span=-1)
        with pytest.raises(ValueError):
            EdgeRule(span=1, dilation=0)


class TestCrossModalEdges:
    def test_single_nodes_anchor_only(self):
        adj = cross_mask(1, 1, EdgeRule(span=0, dilation=1))
        np.testing.assert_array_equal(adj, [[1.0]])

    def test_two_audio_four_video(self):
        adj = cross_mask(2, 4, EdgeRule(span=1, dilation=1))
        assert sorted(np.flatnonzero(adj[0]).tolist()) == [0, 1]
        assert sorted(np.flatnonzero(adj[1]).tolist()) == [2, 3]

    def test_full_scale_degree_range(self):
        adj = cross_mask(40, 100, EdgeRule(span=3, dilation=1))
        degrees = adj.sum(axis=1)
        assert degrees.min() >= 4 and degrees.max() <= 7

    @settings(max_examples=80, deadline=None)
    @given(n_audio=st.integers(1, 30), n_video=st.integers(1, 60),
           span=st.integers(0, 5), dilation=st.integers(1, 5))
    def test_matches_enumeration(self, n_audio, n_video, span, dilation):
        np.testing.assert_array_equal(cross_mask(n_audio, n_video, EdgeRule(span, dilation)),
                                      brute_force_cross(n_audio, n_video, span, dilation))

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
    even one too large for numpy's integers, gives the lists of a value equal to n."""

    HUGE = st.sampled_from([2 ** 63, 2 ** 64, 10 ** 20])

    @staticmethod
    def _assert_same_lists(n_audio, n_video, edge, rule, equal_rule):
        def lists(r):
            rules = EdgeRules(EdgeRule(1, 1), EdgeRule(1, 1), EdgeRule(1, 1))
            return relation_edges(n_audio, n_video, replace(rules, **{edge: r}))

        for got, expected in zip(lists(rule), lists(equal_rule)):
            np.testing.assert_array_equal(got, expected)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 30), small=st.integers(0, 8), huge=HUGE)
    def test_temporal_edges(self, n, small, huge):
        for edge in ("audio", "video"):
            self._assert_same_lists(n, n, edge, EdgeRule(small, huge), EdgeRule(small, n))
            self._assert_same_lists(n, n, edge, EdgeRule(huge, small + 1),
                                    EdgeRule(n, small + 1))

    @settings(max_examples=60, deadline=None)
    @given(n_audio=st.integers(1, 30), n_video=st.integers(1, 30), small=st.integers(0, 8),
           huge=HUGE)
    def test_cross_modal_edges(self, n_audio, n_video, small, huge):
        self._assert_same_lists(n_audio, n_video, "cross", EdgeRule(small, huge),
                                EdgeRule(small, n_video))
        self._assert_same_lists(n_audio, n_video, "cross", EdgeRule(huge, small + 1),
                                EdgeRule(n_video, small + 1))


RULE = st.builds(EdgeRule, st.integers(0, 8), st.integers(1, 8))


class TestNormalizeAdjacency:
    """The intra adjacencies are D~^-1/2 (A + I) D~^-1/2, with D~ the degrees of A + I."""

    def test_isolated_node(self):
        adj_aa, adj_vv, _ = structure(1, 3, EdgeRules(EdgeRule(4), EdgeRule(0), EdgeRule(0)),
                                      np.float32)
        np.testing.assert_array_equal(adj_aa, [[1.0]])
        np.testing.assert_array_equal(adj_vv, np.eye(3))

    def test_two_node_path(self):
        adj_aa, _, _ = structure(2, 1, EdgeRules(EdgeRule(1), EdgeRule(0), EdgeRule(0)))
        np.testing.assert_allclose(adj_aa, [[0.5, 0.5], [0.5, 0.5]])

    @settings(max_examples=60, deadline=None)
    @given(n_audio=st.integers(1, 30), n_video=st.integers(1, 30), audio=RULE, video=RULE)
    def test_per_entry_oracle_random_graph(self, n_audio, n_video, audio, video):
        adjs = structure(n_audio, n_video, EdgeRules(audio, video, EdgeRule(0)))
        for adj, n, rule in zip(adjs, (n_audio, n_video), (audio, video)):
            with_loops = brute_force_temporal(n, rule.span, rule.dilation) + np.eye(n)
            deg = with_loops.sum(axis=1)
            expected = np.zeros_like(with_loops)
            for i in range(n):
                for j in range(n):
                    expected[i, j] = with_loops[i, j] / np.sqrt(deg[i] * deg[j])
            np.testing.assert_allclose(adj, expected, rtol=0, atol=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(n_audio=st.integers(1, 40), n_video=st.integers(1, 40), audio=RULE, video=RULE)
    def test_spectral_radius_at_most_one(self, n_audio, n_video, audio, video):
        for adj in structure(n_audio, n_video, EdgeRules(audio, video, EdgeRule(0)))[:2]:
            radius = np.abs(np.linalg.eigvalsh(adj)).max()
            assert radius <= 1.0 + 1e-6


class TestDenseReference:
    @settings(max_examples=150, deadline=None)
    @given(n_audio=st.integers(1, 40), n_video=st.integers(1, 60),
           rules=st.builds(EdgeRules, RULE, RULE, RULE),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_every_adjacency_is_byte_equal_to_the_dense_chain(self, n_audio, n_video, rules,
                                                               dtype):
        for adj, expected in zip(structure(n_audio, n_video, rules, dtype),
                                 dense_chain(n_audio, n_video, rules, dtype)):
            assert adj.dtype == expected.dtype and adj.shape == expected.shape
            assert adj.tobytes() == expected.tobytes()

    def test_a_build_peaks_under_twice_its_output(self):
        """The edge lists of a 2000 x 100 graph, not dense n x n masks, are all a build
        holds besides its three output arrays."""
        tracemalloc.start()
        try:
            adjs = _shared_adjacencies.__wrapped__(2000, 100, EdgeRules.default(),
                                                   np.dtype(np.float32))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * sum(adj.nbytes for adj in adjs)


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
            window = brute_force_cross(n_audio, n_video, cross.span, cross.dilation) > 0
            assert adj_va.dtype == np.float32  # the features' dtype, which the mean reads
            np.testing.assert_array_equal(np.asarray(adj_va, bool), window)
            rows = window.any(axis=1)
            np.testing.assert_allclose(adj_va[rows].sum(axis=1, dtype=np.float64), 1.0,
                                       rtol=0, atol=n_video * np.finfo(np.float32).eps)

    def test_empty_features_rejected(self):
        with pytest.raises(ShapeError):
            build_hetero_graph(np.ones((0, 3)), np.ones((2, 5)),
                               EdgeRules.default())
