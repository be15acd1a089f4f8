"""The benchmark's workloads: inputs made from the seed, set-up, the timed op, checks.

Each workload drives the library only through its public calls
(`data.load_dataset`, `training.train`, `training.save_checkpoint` /
`load_checkpoint`, `metrics.evaluate`). Every op is a closed loop: the next
one starts when the previous one has returned. Ops within a run are
identical, so their outputs must be bitwise identical too.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from avhgnn import data, metrics, training
from avhgnn.layers import HgnnModel, ModelConfig
from avhgnn.tensor import ComputeGraph, Rng

TARGET_MAP = 0.9          # the a3 bar: desk-train must reach it
FINAL_LOSS_ITERS = 50     # final_loss averages the train loss over these
EVAL_SAMPLE_ITEMS = 8     # paper-eval items re-scored by a fresh forward


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class OpResult:
    graphs: int                 # graphs trained (train) or scored (eval)
    seconds: float              # wall time of the op
    steps_s: list               # wall time of each counted step
    quality: dict = field(default_factory=dict)   # reported, not gated


class TrainWorkload:
    """Setup loads and splits the dataset; one op is one `training.train` call.

    A step is one iteration. Iteration 1 (which also builds the model) and
    iterations that ran validation are not counted as steps.
    """

    kind = "train"

    def __init__(self, name: str, probe: str, spec: dict, config: dict,
                 map_floor: float | None):
        self.name, self.probe = name, probe
        self._spec, self._config, self.map_floor = spec, config, map_floor
        self.manifest = self.config = self._checkpoint = None
        self._reference_losses = None

    def make_inputs(self, workdir: Path, seed: int):
        spec = data.SynthSpec(seed=seed, **self._spec)
        self.manifest = data.generate_synthetic(spec, workdir / "data")
        self.config = training.TrainConfig(seed=seed, **self._config)
        self._checkpoint = workdir / "trained.hgck"

    def setup(self):
        items = data.load_dataset(self.manifest, self.config.rules)
        return training.split_dataset(items, self.config.val_fraction, self.config.seed)

    def _validates(self, iteration: int) -> bool:
        cfg = self.config
        return iteration % cfg.eval_every == 0 or iteration == cfg.max_iters

    def op(self, state) -> tuple[OpResult, object]:
        train_items, val_items = state
        stamps, rows = [], []

        def progress(row):
            stamps.append(time.perf_counter())
            rows.append(row)

        start = time.perf_counter()
        result = training.train(train_items, self.config, val_items=val_items,
                                progress=progress)
        seconds = time.perf_counter() - start

        cfg = self.config
        if len(rows) != cfg.max_iters:
            raise CheckFailed(f"progress ran {len(rows)} times for {cfg.max_iters} iterations")
        losses = [row["loss"] for row in rows]
        if not all(math.isfinite(x) for x in losses):
            raise CheckFailed("a train loss is not finite")
        if self._reference_losses is None:
            self._reference_losses = losses
        elif losses != self._reference_losses:
            raise CheckFailed("train losses differ from the first op of this run")
        final_map = rows[-1]["map"]
        if self.map_floor is not None and not final_map >= self.map_floor:
            raise CheckFailed(f"held-out mAP {final_map:.4f} is below {self.map_floor}")

        steps = [stamps[i] - stamps[i - 1] for i in range(1, len(stamps))
                 if not self._validates(i + 1)]
        reached = [stamps[i] - start for i, row in enumerate(rows)
                   if row["map"] >= TARGET_MAP]
        quality = {
            "map": final_map,
            "final_loss": float(np.mean(losses[-FINAL_LOSS_ITERS:])),
            "time_to_target_s": reached[0] if reached else None,
        }
        graphs = cfg.batch_size * cfg.max_iters
        return OpResult(graphs, seconds, steps, quality), result

    def finish(self, state, result):
        """Checkpoint round trip: the reloaded model scores the held-out set alike."""
        _, val_items = state
        training.save_checkpoint(self._checkpoint, result.model, result.optimizer,
                                 result.final_iteration, result.rng, result.config)
        reloaded = training.load_checkpoint(self._checkpoint).build_model()
        before = metrics.evaluate(result.model, val_items)
        after = metrics.evaluate(reloaded, val_items)
        if after.to_dict() != before.to_dict():
            raise CheckFailed("a reloaded checkpoint scores the held-out set differently")


class _RecordingModel:
    """Passed to `metrics.evaluate` in place of the model: times each item's
    forward pass and keeps its class scores."""

    def __init__(self, model):
        self.model = model
        self.seconds: list[float] = []
        self.scores: list[np.ndarray] = []

    def forward(self, g, graph):
        start = time.perf_counter()
        result = self.model.forward(g, graph)
        self.seconds.append(time.perf_counter() - start)
        self.scores.append(result.probs.data.copy())
        return result


class EvalWorkload:
    """The `avhgnn eval` path at paper dimensions.

    Setup loads the checkpoint, builds the model and loads the dataset; one
    op is one `metrics.evaluate` pass over every item. A step is one item's
    forward pass. Clips come in three lengths, so the model mean-pools.
    """

    kind = "eval"

    def __init__(self, name: str, probe: str, lengths, spec: dict, model: dict):
        self.name, self.probe = name, probe
        self._lengths, self._spec, self._model = lengths, spec, model
        self.manifest = self.checkpoint = None
        self._reference_scores = None

    def make_inputs(self, workdir: Path, seed: int):
        root = workdir / "data"
        items, num_classes = [], self._spec["n_classes"]
        for k, (n_audio, n_video) in enumerate(self._lengths):
            sub = f"len{n_audio}"
            spec = data.SynthSpec(n_audio=n_audio, n_video=n_video,
                                  seed=seed * len(self._lengths) + k, **self._spec)
            part = data.read_manifest(data.generate_synthetic(spec, root / sub))
            items += [data.ManifestItem(f"{sub}-{it.item_id}", f"{sub}/{it.container_path}",
                                        it.labels) for it in part.items]
        self.manifest = root / "manifest.json"
        data.write_manifest(self.manifest, data.DatasetManifest(
            num_classes=num_classes,
            class_names=[f"class_{c}" for c in range(num_classes)], items=items))

        n_audio, n_video = self._lengths[0]
        config = ModelConfig(d_audio=self._spec["d_audio"], d_video=self._spec["d_video"],
                             n_audio=n_audio, n_video=n_video, num_classes=num_classes,
                             **self._model)
        rng = Rng(seed)
        model = HgnnModel(config, rng)
        self.checkpoint = workdir / "eval.hgck"
        training.save_checkpoint(self.checkpoint, model, training.Adam(model.named_params()),
                                 0, rng, training.TrainConfig(seed=seed,
                                                              pooling=config.pooling))

    def setup(self):
        checkpoint = training.load_checkpoint(self.checkpoint)
        model = checkpoint.build_model()
        items = data.load_dataset(self.manifest, checkpoint.train_config.rules)
        return model, items

    def op(self, state) -> tuple[OpResult, object]:
        model, items = state
        recorder = _RecordingModel(model)
        start = time.perf_counter()
        result = metrics.evaluate(recorder, items)
        seconds = time.perf_counter() - start

        if len(recorder.scores) != len(items):
            raise CheckFailed(f"evaluate scored {len(recorder.scores)} of {len(items)} items")
        scores = np.vstack(recorder.scores)
        if not np.isfinite(scores).all() or not math.isfinite(result.map):
            raise CheckFailed("a score or the mAP is not finite")
        if self._reference_scores is None:
            self._reference_scores = scores
            self._check_fresh_forward(model, items, scores)
        elif not np.array_equal(scores, self._reference_scores):
            raise CheckFailed("scores differ bitwise from the first pass of this run")
        quality = {"map": result.map}
        return OpResult(len(items), seconds, recorder.seconds, quality), None

    @staticmethod
    def _check_fresh_forward(model, items, scores):
        stride = max(1, len(items) // EVAL_SAMPLE_ITEMS)
        for i in range(0, len(items), stride)[:EVAL_SAMPLE_ITEMS]:
            fresh = model.forward(ComputeGraph(), items[i].graph).probs.data
            if not np.array_equal(fresh.ravel(), scores[i]):
                raise CheckFailed(f"item {items[i].item_id}: evaluate's scores differ "
                                  "from a fresh forward pass")

    def finish(self, state, result):
        pass


PAPER_DIMS = dict(d_audio=128, d_video=1024, n_classes=33)

# name -> factory; each run builds a fresh workload object.
WORKLOADS = {
    # a3's task and model; Python per-op cost of the tape dominates.
    "desk-train": partial(
        TrainWorkload, "desk-train", probe="interp",
        spec=dict(mode="fusion_required", n_items=80, n_audio=10, n_video=25,
                  d_audio=16, d_video=32, n_classes=4),
        config=dict(lr=0.005, warmup_iters=300, decay_at_iter=1500, gamma=2.0,
                    hidden=32, num_layers=2, batch_size=8, max_iters=500,
                    eval_every=250, pooling="learned", fusion="gat", modality="both"),
        map_floor=TARGET_MAP),
    # Paper shapes with the default TrainConfig schedule; BLAS dominates.
    "paper-train": partial(
        TrainWorkload, "paper-train", probe="blas",
        spec=dict(mode="audio_only_solvable", n_items=264, n_audio=40, n_video=100,
                  **PAPER_DIMS),
        config=dict(batch_size=8, max_iters=24),
        map_floor=None),
    # Forward only over three clip lengths at the 2:5 audio:video ratio.
    "paper-eval": partial(
        EvalWorkload, "paper-eval", probe="blas",
        lengths=((20, 50), (40, 100), (60, 150)),
        spec=dict(mode="audio_only_solvable", n_items=99, **PAPER_DIMS),
        model=dict(hidden=512, num_layers=4, fusion="gat", pooling="mean")),
}
