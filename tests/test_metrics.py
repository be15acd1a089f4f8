"""Ranking metrics vs hand computations and exhaustive pair counting."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avhgnn.graph import EdgeRule, EdgeRules, build_hetero_graph
from avhgnn.layers import HgnnModel, ModelConfig
from avhgnn.metrics import (average_precision, evaluate, evaluate_scores,
                            roc_auc)
from avhgnn.data import LabeledGraph
from avhgnn.tensor import Rng


def ap_by_hand(scores, labels):
    """Rank by descending score (stable), then average precision-at-hits."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, total = 0, 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx]:
            hits += 1
            total += hits / rank
    return total / sum(labels)


def auc_by_pairs(scores, labels):
    """Brute force: (wins + 0.5 * ties) / (positives * negatives)."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = sum(1 for p in pos for n in neg if p > n)
    ties = sum(1 for p in pos for n in neg if p == n)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestAveragePrecision:
    def test_hand_ranked_example(self):
        value = average_precision([0.9, 0.8, 0.7], [1, 0, 1])
        assert abs(value - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12

    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_positive_is_one(self):
        assert average_precision([0.1, 0.9, 0.4], [1, 1, 1]) == 1.0

    def test_zero_positives_undefined(self):
        with pytest.raises(ValueError):
            average_precision([0.5, 0.4], [0, 0])

    @pytest.mark.parametrize("scores, labels", [([], []), ([0.5, 0.4], [1])],
                             ids=["empty", "unequal"])
    def test_empty_or_unequal_inputs_rejected(self, scores, labels):
        with pytest.raises(ValueError, match="must be equal-length and non-empty"):
            average_precision(scores, labels)

    def test_ties_keep_original_order(self):
        # With equal scores the first item stays ranked first.
        assert average_precision([0.5, 0.5], [1, 0]) == 1.0
        assert average_precision([0.5, 0.5], [0, 1]) == 0.5

    @pytest.mark.parametrize("seed", range(50))
    def test_random_small_cases_match_hand_ranking(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 15))
        scores = np.round(rng.random(n), 2)  # coarse grid forces ties
        labels = rng.random(n) > 0.5
        if not labels.any():
            labels[int(rng.integers(0, n))] = True
        assert abs(average_precision(scores, labels)
                   - ap_by_hand(scores.tolist(), labels.tolist())) < 1e-12


class TestRocAuc:
    def test_separated_pair(self):
        assert roc_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_identical_scores_half(self):
        assert roc_auc([0.7] * 6, [1, 0, 1, 0, 0, 1]) == 0.5

    def test_eight_sample_pair_counting(self):
        scores = [0.1, 0.4, 0.35, 0.8, 0.65, 0.9, 0.5, 0.3]
        labels = [0, 0, 1, 1, 0, 1, 1, 0]
        assert abs(roc_auc(scores, labels) - auc_by_pairs(scores, labels)) < 1e-12

    def test_single_class_undefined(self):
        with pytest.raises(ValueError):
            roc_auc([0.2, 0.7], [1, 1])

    def test_unequal_inputs_rejected(self):
        with pytest.raises(ValueError, match=r"scores \(3\) and labels \(2\) must be equal-length"):
            roc_auc([0.2, 0.7, 0.1], [1, 0])

    @pytest.mark.parametrize("seed", range(100))
    def test_exhaustive_pair_oracle_n_up_to_12(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 13))
        scores = np.round(rng.random(n), 1)  # heavy ties
        labels = rng.random(n) > 0.5
        if not labels.any():
            labels[0] = True
        if labels.all():
            labels[-1] = False
        assert abs(roc_auc(scores, labels)
                   - auc_by_pairs(scores.tolist(), labels.tolist())) < 1e-12

    def test_random_scores_near_half_large_n(self):
        rng = np.random.default_rng(7)
        scores = rng.random(1000)
        labels = np.arange(1000) % 2 == 0
        assert 0.45 <= roc_auc(scores, labels) <= 0.55


def pairwise_order(values):
    """Sign of every pairwise difference: the ranking, ties included."""
    values = np.asarray(values)
    return np.sign(values[:, None] - values[None, :])


class TestMonotoneInvariance:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.01, 0.99), min_size=3, max_size=20),
           st.integers(0, 2 ** 20 - 1))
    # In floating point 2x+1 and exp map these two distinct scores to one
    # value; a tie changes the ranking, so only arctan is compared here.
    @example(scores=[0.010000000000000002, 0.5, 0.01], label_bits=0)
    def test_ap_and_auc_invariant(self, scores, label_bits):
        n = len(scores)
        labels = [(label_bits >> i) & 1 for i in range(n)]
        if sum(labels) == 0:
            labels[0] = 1
        if sum(labels) == n:
            labels[-1] = 0
        for transform in (lambda x: 2.0 * x + 1.0, np.exp,
                          lambda x: np.arctan(x) * 3.0):
            mapped = transform(np.asarray(scores))
            # The metrics depend on the ranking only, so invariance is owed
            # to maps that keep it; rounding can merge near-equal scores.
            if not np.array_equal(pairwise_order(scores),
                                  pairwise_order(mapped)):
                continue
            assert abs(average_precision(scores, labels)
                       - average_precision(mapped, labels)) < 1e-12
            assert abs(roc_auc(scores, labels) - roc_auc(mapped, labels)) < 1e-12


class TestEvaluate:
    def test_scores_equal_labels_is_perfect(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        result = evaluate_scores(labels.copy(), labels)
        assert result.map == 1.0
        assert result.roc_auc == 1.0

    def test_map_is_mean_of_per_class_aps(self):
        rng = np.random.default_rng(0)
        scores = rng.random((30, 5))
        labels = (rng.random((30, 5)) > 0.5).astype(float)
        labels[:, 0] = 1.0  # class with no negatives: AP defined, AUC excluded
        result = evaluate_scores(scores, labels)
        defined = [a for a in result.per_class_ap if a is not None]
        assert result.map == pytest.approx(float(np.mean(defined)), abs=1e-12)
        assert result.per_class_auc[0] is None
        assert any("class 0" in w for w in result.warnings)

    def test_zero_positive_class_excluded_and_flagged(self):
        scores = np.array([[0.2, 0.9], [0.8, 0.3]])
        labels = np.array([[0.0, 1.0], [0.0, 0.0]])
        result = evaluate_scores(scores, labels)
        assert result.per_class_ap[0] is None
        assert result.positives == [0, 1]
        assert any("no positives" in w for w in result.warnings)

    @pytest.mark.parametrize("scores, labels", [(np.zeros((2, 2)), np.zeros((2, 3))),
                                                (np.zeros(3), np.zeros(3))],
                             ids=["mismatched", "1-D"])
    def test_scores_and_labels_must_be_matching_2d_arrays(self, scores, labels):
        with pytest.raises(ValueError, match="must be matching 2-D arrays"):
            evaluate_scores(scores, labels)

    def test_an_empty_dataset_is_not_evaluated(self):
        with pytest.raises(ValueError, match="cannot evaluate an empty dataset"):
            evaluate(None, [])

    def test_tie_flags_surface(self):
        scores = np.array([[0.5, 0.1], [0.5, 0.2]])
        labels = np.array([[1.0, 1.0], [0.0, 0.0]])
        result = evaluate_scores(scores, labels)
        assert result.tied_scores == [True, False]

    def test_json_round_trip(self):
        import json
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        result = evaluate_scores(labels.copy(), labels)
        parsed = json.loads(json.dumps(result.to_dict(), indent=2))
        assert parsed["map"] == 1.0
        assert len(parsed["per_class_ap"]) == 2

    def test_model_evaluation_is_pure(self):
        rules = EdgeRules(audio=EdgeRule(1, 1), video=EdgeRule(1, 1),
                          cross=EdgeRule(1, 1))
        rng = np.random.default_rng(0)
        items = []
        for i in range(6):
            graph = build_hetero_graph(rng.normal(0, 1, (3, 4)).astype(np.float32),
                                       rng.normal(0, 1, (3, 5)).astype(np.float32),
                                       rules)
            labels = np.zeros((1, 2), dtype=np.float32)
            labels[0, i % 2] = 1.0
            items.append(LabeledGraph(item_id=str(i), graph=graph, labels=labels))
        config = ModelConfig(d_audio=4, d_video=5, n_audio=3, n_video=3,
                             num_classes=2, hidden=6, num_layers=1, pooling="mean")
        model = HgnnModel(config, Rng(3))
        first = evaluate(model, items)
        second = evaluate(model, items)
        assert first.per_class_ap == second.per_class_ap
        assert first.roc_auc == second.roc_auc
