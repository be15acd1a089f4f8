"""Heterogeneous graph construction over audio and video segment sequences.

Nodes are time-ordered segments per modality. One window rule,
`window_edges`, lists every edge: within a modality, each node links to
neighbours at strides of `dilation`, up to `span` of them per direction;
across modalities, each audio node is anchored to the video node at the
proportional position in time and linked to a dilated window around that
anchor. Intra-modality adjacencies are symmetrically normalized with
self-loops; the cross-modal adjacency is row-normalized, so the
attention-free fusion averages over it and its nonzeros are the attention's
mask. Edges never depend on the clip, so all graphs with the same (n_audio,
n_video, rules, dtype) share one read-only array per relation, and such
graphs stack into one minibatch graph.
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


def anchor_index(i, n_audio: int, n_video: int):
    """Proportional audio-to-video index map, rounded half-up in exact integer
    arithmetic; `i` is an int or an integer ndarray."""
    if n_audio == 1:
        return i * 0
    return (2 * i * (n_video - 1) + n_audio - 1) // (2 * (n_audio - 1))


def relation_edges(n_audio: int, n_video: int, rules: EdgeRules) -> tuple:
    """The `window_edges` lists of the audio-audio, video-video and audio-video relations,
    each row's k = 0 entry included: the node itself, or its anchor."""
    # np.indices, not np.arange: np.arange(n) is empty for 2**63 <= n < 2**64
    return (window_edges(np.indices((n_audio,))[0], n_audio, rules.audio),
            window_edges(np.indices((n_video,))[0], n_video, rules.video),
            window_edges(anchor_index(np.arange(n_audio), n_audio, n_video), n_video, rules.cross))


@functools.lru_cache(maxsize=128)
def _shared_adjacencies(n_audio: int, n_video: int, rules: EdgeRules, dtype):
    """The three adjacencies for one shape and rule set, built once, read-only, straight
    from the edge lists. With d the count of a row's entries (its self-loop or anchor
    included), an intra edge (i, j) holds d_i^-1/2 d_j^-1/2, which is D~^-1/2 (A + I) D~^-1/2,
    and a cross edge holds 1 / d_i."""
    adjs = []
    for (rows, cols), n_cols, intra in zip(relation_edges(n_audio, n_video, rules),
                                           (n_audio, n_video, n_video), (True, True, False)):
        d = np.bincount(rows)  # every row lists its k = 0 entry, so d >= 1
        inv = 1.0 / np.sqrt(d)
        adj = np.zeros((len(d), n_cols), dtype)
        adj[rows, cols] = inv[rows] * inv[cols] if intra else 1.0 / d[rows]
        adj.flags.writeable = False
        adjs.append(adj)
    return tuple(adjs)


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
