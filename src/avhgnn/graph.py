"""Heterogeneous graph construction over audio and video segment sequences.

Nodes are time-ordered segments per modality. One window rule,
`window_edges`, lists every edge: within a modality, each node links to
neighbours at strides of `dilation`, up to `span` of them per direction;
across modalities, each audio node is anchored to the video node at the
proportional position in time and linked to a dilated window around that
anchor. The 0/1 masks are scattered from those lists. Intra-modality
adjacencies are symmetrically normalized with self-loops; the cross-modal
adjacency is row-normalized, so the attention-free fusion averages over it
and its nonzeros are the attention's mask. Edges never depend on the clip,
so all graphs with the same (n_audio, n_video, rules, dtype) share one
read-only array per relation, and such graphs stack into one minibatch graph.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import Record
from .tensor import ShapeError, Tensor


@dataclass(frozen=True)
class EdgeRule(Record):
    """Temporal connectivity rule: `span` neighbours per direction, `dilation` stride."""

    FLOORS = {"dilation": 1}

    span: int
    dilation: int = 1


@dataclass(frozen=True)
class EdgeRules:
    """The three rules governing graph construction (six hyperparameters)."""

    audio: EdgeRule
    video: EdgeRule
    cross: EdgeRule

    @classmethod
    def default(cls) -> "EdgeRules":
        return cls(audio=EdgeRule(6, 3), video=EdgeRule(4, 4), cross=EdgeRule(3, 1))


@dataclass
class HeteroGraph:
    """One audio-visual clip as a two-modality graph (or B stacked clips).

    adj_aa / adj_vv are the normalized intra-modality adjacencies; adj_va,
    shape (n_audio, n_video), is the 0/1 video-to-audio window with each row
    divided by its sum: the attention-free fusion averages over it, and its
    nonzeros are the attention's mask. All three are read-only arrays shared
    per (n_audio, n_video, rules, dtype).
    """

    audio_feats: Tensor
    video_feats: Tensor
    adj_aa: np.ndarray
    adj_vv: np.ndarray
    adj_va: np.ndarray

    def structure(self) -> tuple:
        """The three shared adjacency arrays."""
        return self.adj_aa, self.adj_vv, self.adj_va

    @property
    def n_audio(self) -> int:
        return self.audio_feats.rows

    @property
    def n_video(self) -> int:
        return self.video_feats.rows


def window_edges(anchors: np.ndarray, n: int, rule: EdgeRule) -> tuple:
    """(rows, cols), row-major: row i links to column anchors[i] + dilation*k for each
    |k| <= span that lands in [0, n). No column is n or more from its anchor, so dilation
    clamped to n and span to n // dilation give the same lists in O(edges) work, and no
    rule value reaches numpy."""
    dilation = min(rule.dilation, n)
    span = min(rule.span, n // dilation)
    cols = anchors[:, None] + dilation * np.arange(-span, span + 1)
    rows, k = np.nonzero((cols >= 0) & (cols < n))
    return rows, cols[rows, k]


def temporal_edges(n_nodes: int, rule: EdgeRule) -> np.ndarray:
    """Symmetric binary adjacency linking i to i +/- dilation*k, k = 1..span: the
    `window_edges` lists around each node, scattered into a dense mask.

    Out-of-range targets are dropped; no self-loops are added here.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    adj = np.zeros((n_nodes, n_nodes))
    adj[window_edges(np.arange(n_nodes), n_nodes, rule)] = 1.0
    return adj - np.eye(n_nodes)  # k = 0: no edge


def anchor_index(i, n_audio: int, n_video: int):
    """Proportional audio-to-video index map, rounded half-up in exact integer
    arithmetic; `i` is an int or an integer ndarray."""
    if n_audio == 1:
        return i * 0
    return (2 * i * (n_video - 1) + n_audio - 1) // (2 * (n_audio - 1))


def cross_modal_edges(n_audio: int, n_video: int, rule: EdgeRule) -> np.ndarray:
    """Binary (n_audio, n_video) mask; row i holds audio node i's video neighbours.

    Each audio node connects to video nodes anchor(i) + dilation*k for
    k in [-span, span] (the anchor itself included), clipped to range: the
    `window_edges` lists around the anchors, scattered into a dense mask.
    """
    if n_audio < 1 or n_video < 1:
        raise ValueError(f"node counts must be >= 1, got ({n_audio}, {n_video})")
    mask = np.zeros((n_audio, n_video))
    mask[window_edges(anchor_index(np.arange(n_audio), n_audio, n_video), n_video, rule)] = 1.0
    return mask


def normalize_adjacency(adj: np.ndarray, dtype=np.float32) -> np.ndarray:
    """Symmetric normalization with self-loops: D~^-1/2 (A + I) D~^-1/2.

    D~ is the degree matrix of A + I, so isolated nodes come out with a
    unit self-loop entry.
    """
    adj = np.asarray(adj, dtype=np.float64)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ShapeError(f"adjacency must be square, got shape {adj.shape}")
    if not np.array_equal(adj, adj.T):
        raise ShapeError("adjacency must be symmetric")
    a_tilde = adj + np.eye(adj.shape[0])
    inv_sqrt_deg = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    normalized = a_tilde * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]
    return normalized.astype(dtype)


def mean_adjacency(mask: np.ndarray, dtype=np.float32) -> np.ndarray:
    """A 0/1 mask with each row divided by its sum; a row with no neighbour stays zero."""
    return (mask / np.maximum(mask.sum(axis=1, keepdims=True), 1.0)).astype(dtype)


@functools.lru_cache(maxsize=128)
def _shared_adjacencies(n_audio: int, n_video: int, rules: EdgeRules, dtype):
    """The three adjacencies for one shape and rule set, built once, read-only."""
    adjs = (normalize_adjacency(temporal_edges(n_audio, rules.audio), dtype=dtype),
            normalize_adjacency(temporal_edges(n_video, rules.video), dtype=dtype),
            mean_adjacency(cross_modal_edges(n_audio, n_video, rules.cross), dtype=dtype))
    for arr in adjs:
        arr.flags.writeable = False
    return adjs


def build_hetero_graph(audio_feats: np.ndarray, video_feats: np.ndarray,
                       rules: EdgeRules) -> HeteroGraph:
    """Assemble a HeteroGraph from per-segment feature matrices."""
    a, v = Tensor(audio_feats), Tensor(video_feats)
    if a.rows < 1 or a.cols < 1 or v.rows < 1 or v.cols < 1:
        raise ShapeError("feature matrices must be non-empty")
    return HeteroGraph(a, v, *_shared_adjacencies(a.rows, v.rows, rules, a.dtype))


def stack_graphs(graphs) -> HeteroGraph:
    """Graphs that share one structure and feature widths, their features stacked on a
    batch axis."""
    first = graphs[0]
    if not all(x is y or np.array_equal(x, y) for g in graphs[1:]
               for x, y in zip(first.structure(), g.structure())):
        raise ShapeError("stack_graphs needs graphs that share one structure")
    try:
        audio = np.stack([g.audio_feats.data for g in graphs])
        video = np.stack([g.video_feats.data for g in graphs])
    except ValueError:  # the graphs share their node counts, so a feature width differs
        raise ShapeError("stack_graphs needs graphs that share their feature widths") from None
    return HeteroGraph(Tensor(audio), Tensor(video), *first.structure())
