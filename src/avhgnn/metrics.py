"""Multi-label ranking metrics: per-class average precision and ROC-AUC.

AP is the non-interpolated form over a descending-score ranking with
stable tie order; AUC is the Mann-Whitney rank statistic with midranks
for ties. Classes without both kinds of examples are excluded from the
macro means and flagged rather than poisoning them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .tensor import ComputeGraph, ShapeError


def average_precision(scores, labels) -> float:
    """Non-interpolated AP; ties keep their original order in the ranking."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel().astype(bool)
    if scores.size == 0 or scores.size != labels.size:
        raise ValueError(f"scores ({scores.size}) and labels ({labels.size}) "
                         "must be equal-length and non-empty")
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("average precision is undefined without positives")
    order = np.argsort(-scores, kind="stable")
    hits = labels[order]
    cum_hits = np.cumsum(hits)
    ranks = np.arange(1, scores.size + 1)
    precision_at_hit = cum_hits[hits] / ranks[hits]
    return float(precision_at_hit.sum() / n_pos)


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values sharing their average rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    group_midrank = starts + (counts + 1) / 2.0
    return group_midrank[inverse]


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC: P(random positive outranks random negative)."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel().astype(bool)
    if scores.size != labels.size:
        raise ValueError(f"scores ({scores.size}) and labels ({labels.size}) "
                         "must be equal-length")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC-AUC needs at least one positive and one negative")
    ranks = _midranks(scores)
    pos_rank_sum = ranks[labels].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass
class EvalResult:
    """Per-class and aggregate metrics; None marks an excluded class."""

    per_class_ap: list
    map: float
    per_class_auc: list
    roc_auc: float
    positives: list
    negatives: list
    tied_scores: list                      # per class: any duplicate scores?
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """The fields, a NaN mean as None (JSON null), as an excluded class is."""
        return nan_to_null(asdict(self))


def nan_to_null(value):
    """`value` with each NaN in it, in its lists and dicts too, as None: strict JSON
    (RFC 8259) has no NaN, and its null also marks an excluded class."""
    if isinstance(value, dict):
        return {k: nan_to_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [nan_to_null(v) for v in value]
    return None if isinstance(value, float) and math.isnan(value) else value


def score_matrix(model, items) -> tuple[np.ndarray, np.ndarray]:
    """Run the model over every item; returns (scores, labels), each n x C."""
    scores, labels = [], []
    for item in items:
        g = ComputeGraph()
        result = model.forward(g, item.graph)
        scores.append(result.probs.data.ravel().astype(np.float64))
        labels.append(np.asarray(item.labels, dtype=np.float64).ravel())
        if labels[-1].size != scores[-1].size:
            raise ShapeError(f"item {item.item_id!r} has {labels[-1].size} labels for "
                             f"{scores[-1].size} classes")
    return np.vstack(scores), np.vstack(labels)


def evaluate_scores(scores: np.ndarray, labels: np.ndarray) -> EvalResult:
    """Metrics from precomputed per-item class scores and binary labels."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ValueError(f"scores {scores.shape} and labels {labels.shape} must be "
                         "matching 2-D arrays")
    n, num_classes = scores.shape
    aps, aucs, tied, positives, negatives = [], [], [], [], []
    warnings = []
    for c in range(num_classes):
        col_scores, col_labels = scores[:, c], labels[:, c].astype(bool)
        n_pos = int(col_labels.sum())
        n_neg = n - n_pos
        positives.append(n_pos)
        negatives.append(n_neg)
        tied.append(bool(np.unique(col_scores).size < n))
        if n_pos == 0:
            aps.append(None)
            warnings.append(f"class {c}: no positives, excluded from mAP")
        else:
            aps.append(average_precision(col_scores, col_labels))
        if n_pos == 0 or n_neg == 0:
            aucs.append(None)
            warnings.append(f"class {c}: single-class labels, excluded from ROC-AUC")
        else:
            aucs.append(roc_auc(col_scores, col_labels))
    defined_aps = [a for a in aps if a is not None]
    defined_aucs = [a for a in aucs if a is not None]
    return EvalResult(
        per_class_ap=aps,
        map=float(np.mean(defined_aps)) if defined_aps else float("nan"),
        per_class_auc=aucs,
        roc_auc=float(np.mean(defined_aucs)) if defined_aucs else float("nan"),
        positives=positives, negatives=negatives, tied_scores=tied,
        warnings=warnings)


def evaluate(model, items) -> EvalResult:
    """Score a dataset with the model and compute per-class AP / ROC-AUC."""
    if not items:
        raise ValueError("cannot evaluate an empty dataset")
    scores, labels = score_matrix(model, items)
    return evaluate_scores(scores, labels)
