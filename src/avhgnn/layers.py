"""Model layers: per-modality GCNs, video-to-audio attention fusion, pooling.

The stacked layer updates audio nodes from two flows (audio GCN plus a
fused video message) and video nodes from one (video GCN); video never
reads from audio. The attention fusion scores the video neighbours,
aggregates the attended video features, projects them and adds them to the
audio GCN's output, all in one tape op. The attention-free fusion is one
more GCN, over the graph's row-normalized video-to-audio adjacency, whose
nonzeros are the attention's mask. Graph-level readout pools each modality's
final node embeddings, by default with learnable per-position weights, and a
sigmoid head scores each class independently. Every learnable is made by
the model's maker, `param(rows, cols, name, fill=None)`, which the layers
take, so the model lists its parameters in the order it made them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Record
from .graph import HeteroGraph
from .tensor import ComputeGraph, ShapeError, Tensor, xavier_init

FUSION_GAT = "gat"
FUSION_GCN = "gcn"
FUSION_NONE = "none"
FUSION_MODES = (FUSION_GAT, FUSION_GCN, FUSION_NONE)

MODALITY_BOTH = "both"
MODALITY_AUDIO = "audio_only"
MODALITY_VIDEO = "video_only"
MODALITIES = (MODALITY_BOTH, MODALITY_AUDIO, MODALITY_VIDEO)

POOLING_MODES = ("learned", "mean", "max", "sum")

GAT_LEAKY_SLOPE = 0.2


@dataclass
class ModelConfig(Record):
    """Shape and architecture knobs for HgnnModel. `audio` and `video` say which
    node sets the model reads; `check` decides which graphs and labels a model
    of this config can score and train on."""

    FLOORS = dict.fromkeys(("d_audio", "d_video", "n_audio", "n_video", "num_classes",
                            "hidden", "num_layers"), 1)
    CHOICES = {"fusion": FUSION_MODES, "pooling": POOLING_MODES, "modality": MODALITIES}

    d_audio: int
    d_video: int
    n_audio: int
    n_video: int
    num_classes: int
    hidden: int = 512
    num_layers: int = 4
    fusion: str = FUSION_GAT
    pooling: str = "learned"
    modality: str = MODALITY_BOTH

    @property
    def audio(self) -> bool:
        return self.modality != MODALITY_VIDEO

    @property
    def video(self) -> bool:
        return self.modality != MODALITY_AUDIO

    def check(self, graph: HeteroGraph, labels=None):
        """Raise ShapeError unless the widths of the modalities in use match, the
        node counts too under learned pooling, and `labels`, if given, hold one
        value per class. Attribute compares only, on the forward's hot path."""
        if self.audio and graph.audio_feats.cols != self.d_audio:
            raise ShapeError(f"graph audio dim {graph.audio_feats.cols} != model {self.d_audio}")
        if self.video and graph.video_feats.cols != self.d_video:
            raise ShapeError(f"graph video dim {graph.video_feats.cols} != model {self.d_video}")
        if self.pooling == "learned":
            if self.audio and graph.n_audio != self.n_audio:
                raise ShapeError(
                    f"learned pooling expects {self.n_audio} audio nodes, got {graph.n_audio}")
            if self.video and graph.n_video != self.n_video:
                raise ShapeError(
                    f"learned pooling expects {self.n_video} video nodes, got {graph.n_video}")
        if labels is not None and np.size(labels) != self.num_classes:
            raise ShapeError(f"labels have {np.size(labels)} classes != model "
                             f"num_classes {self.num_classes}")


def _param(init, rows: int, cols: int, name: str, fill=None) -> Tensor:
    """A learnable rows x cols tensor. From a Generator: a float32 Xavier draw, or
    the constant `fill` with no draw. Otherwise `init(name, rows, cols)` returns
    the array, which the tensor holds as it is, in its own dtype, with no copy."""
    if not isinstance(init, np.random.Generator):
        data = init(name, rows, cols)
    elif fill is None:
        return xavier_init(rows, cols, init, name=name)
    else:
        data = np.full((rows, cols), fill, dtype=np.float32)
    return Tensor(data, requires_grad=True, name=name)


class GcnLayer:
    """One graph convolution: ReLU(A_norm @ H @ W)."""

    def __init__(self, in_dim: int, out_dim: int, param, name="gcn"):
        self.weight = param(in_dim, out_dim, f"{name}.weight")

    def forward(self, g: ComputeGraph, feats: Tensor, adj_norm: np.ndarray) -> Tensor:
        return g.gcn(adj_norm, feats, self.weight)


class GatFusionLayer:
    """Single-head attention carrying video node content to audio nodes.

    Each audio node scores its masked video neighbours with
    LeakyReLU(att_a . h_audio + att_v . W h_video), softmax-normalizes the
    scores, and takes the message (sum_j alpha_j h_video_j) W: it aggregates,
    then projects, so no video node is projected. Audio and video widths may
    differ, so the audio endpoint scores its raw features with its own vector.
    """

    def __init__(self, audio_dim: int, video_dim: int, out_dim: int, param, name="fusion"):
        self.w_msg = param(video_dim, out_dim, f"{name}.w_msg")
        self.att_audio = param(audio_dim, 1, f"{name}.att_audio")
        self.att_video = param(out_dim, 1, f"{name}.att_video")

    def forward(self, g: ComputeGraph, video_feats: Tensor, mask_va: np.ndarray,
                audio_feats: Tensor, residual: Tensor):
        """Returns (residual + message [n_audio x out_dim], attention [n_audio x
        n_video]) over the nonzeros of mask_va [n_audio x n_video], as one
        `gat_fusion` op, which keeps neither the message's aggregate nor projection."""
        return g.gat_fusion(residual, audio_feats, video_feats, self.w_msg, self.att_audio,
                            self.att_video, mask_va, GAT_LEAKY_SLOPE)


class HeteroLayer:
    """One stacked update step over the modalities `config` reads; a fusion only
    when it reads both."""

    def __init__(self, audio_in: int, video_in: int, config: ModelConfig, param, name="layer"):
        out_dim = config.hidden
        self.audio_gcn = self.video_gcn = self.fusion = None
        if config.audio:
            self.audio_gcn = GcnLayer(audio_in, out_dim, param, f"{name}.audio")
        if config.video:
            self.video_gcn = GcnLayer(video_in, out_dim, param, f"{name}.video")
        fusion = config.fusion if config.audio and config.video else FUSION_NONE
        if fusion == FUSION_GAT:
            self.fusion = GatFusionLayer(audio_in, video_in, out_dim, param, f"{name}.fusion")
        elif fusion == FUSION_GCN:
            self.fusion = GcnLayer(video_in, out_dim, param, f"{name}.fusion")

    def forward(self, g: ComputeGraph, graph: HeteroGraph, h_a, h_v):
        """Returns (h_audio', h_video', attention or None)."""
        alpha = None
        new_a, new_v = None, None
        if self.audio_gcn is not None:
            new_a = self.audio_gcn.forward(g, h_a, graph.adj_aa)
            if isinstance(self.fusion, GcnLayer):
                new_a = g.add(new_a, self.fusion.forward(g, h_v, graph.adj_va))
            elif self.fusion is not None:
                new_a, alpha = self.fusion.forward(g, h_v, graph.adj_va, h_a, new_a)
        if self.video_gcn is not None:
            new_v = self.video_gcn.forward(g, h_v, graph.adj_vv)
        return new_a, new_v, alpha


@dataclass
class ForwardResult:
    probs: Tensor
    logits: Tensor
    # Per-layer numpy arrays. They are the arrays the tape's records hold, not
    # copies, so they must not be mutated.
    attention: list = field(default_factory=list)       # per-layer alpha
    audio_states: list = field(default_factory=list)
    video_states: list = field(default_factory=list)


class HgnnModel:
    """The full classifier: stacked hetero layers, pooling, sigmoid head.

    `init` is `Rng(seed)`, for a fresh float32 init, or a function
    `init(name, rows, cols)` called once per parameter in the order the model
    makes them, whose arrays the model then holds as they are. The model's dtype
    is its parameters': float64 arrays give a float64 model."""

    def __init__(self, config: ModelConfig, init):
        self.config = config
        cfg = config
        self._params = []

        def param(rows, cols, name, fill=None):
            self._params.append(_param(init, rows, cols, name, fill))
            return self._params[-1]

        self.layers = []
        audio_in, video_in = cfg.d_audio, cfg.d_video
        for i in range(cfg.num_layers):
            self.layers.append(HeteroLayer(audio_in, video_in, cfg, param, name=f"layer{i}"))
            audio_in = video_in = cfg.hidden

        self.pool_audio = self.pool_video = None
        if cfg.pooling == "learned":
            # Uniform start: learned pooling begins exactly at mean pooling.
            if cfg.audio:
                self.pool_audio = param(cfg.n_audio, 1, "pool.audio", fill=1.0 / cfg.n_audio)
            if cfg.video:
                self.pool_video = param(cfg.n_video, 1, "pool.video", fill=1.0 / cfg.n_video)

        head_in = cfg.hidden * (cfg.audio + cfg.video)
        self.cls_weight = param(head_in, cfg.num_classes, "classifier.weight")
        self.cls_bias = param(1, cfg.num_classes, "classifier.bias", fill=0.0)

    # -- parameters -----------------------------------------------------------

    def params(self) -> list[Tensor]:
        """All learnables in the order the model made them: the checkpoint's order."""
        return self._params

    def named_params(self) -> list[tuple[str, Tensor]]:
        return [(p.name, p) for p in self.params()]

    # -- forward --------------------------------------------------------------

    def forward(self, g: ComputeGraph, graph: HeteroGraph) -> ForwardResult:
        """Scores one graph, or B stacked graphs (outputs then lead with axis B);
        a graph that `ModelConfig.check` rejects raises ShapeError first."""
        cfg = self.config
        cfg.check(graph)
        result = ForwardResult(probs=None, logits=None)

        h_a = graph.audio_feats if cfg.audio else None
        h_v = graph.video_feats if cfg.video else None
        for layer in self.layers:
            h_a, h_v, alpha = layer.forward(g, graph, h_a, h_v)
            if alpha is not None:
                result.attention.append(alpha)
            if h_a is not None:
                result.audio_states.append(h_a.data)
            if h_v is not None:
                result.video_states.append(h_v.data)

        # Each graph's row: learned weights, a constant one (mean 1/n, sum 1) or the max.
        parts = [(h, {"learned": w, "mean": 1.0 / h.rows, "sum": 1.0, "max": None}[cfg.pooling])
                 for h, w in ((h_a, self.pool_audio), (h_v, self.pool_video)) if h is not None]
        result.logits = g.add(g.matmul(g.pool(parts), self.cls_weight), self.cls_bias)
        g.check_finite(result.logits)
        result.probs = g.sigmoid(result.logits)
        return result
