"""Training: focal loss, Adam with warmup + one-step decay, checkpoints.

Graphs of a minibatch with the same feature shapes are stacked and run as one
forward and backward on one tape, freed before the step. Adam holds parameters
and moments as three flat blocks, the checkpoint's payload. A run owns a fourth,
`Adam.gradients()`, which backward adds into a -0.0 fill (so a first add equals
a copy); each step averages it over the minibatch, updates the blocks in chunks
and refills each chunk with -0.0. It dies as train() returns. A checkpoint load
reads only the parameter block; a resume reads the moments as it builds Adam,
which adopts the three blocks as they are. Batch composition at iteration t is a
pure function of (seed, t) - concatenated per-epoch permutations - so a resume
replays the identical stream, and a history row holds only its own iteration's
scores (TrainConfig.validates(t)).
A run builds its model from the checkpoint on a resume, else from the first item;
every train and validation item then passes that model's `ModelConfig.check` before
iteration 1, so an item the model cannot score or train on is a ConfigError naming
it, not a failure at the first validation.
For a fixed seed and thread count, curves and resumes are bitwise identical; the
checkpoint bytes measure equal at 1 and 2 BLAS threads (the test
test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count)."""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, Record
from .graph import EdgeRules, stack_graphs
from .layers import HgnnModel, ModelConfig
from .metrics import EvalResult, evaluate, nan_to_null
from .tensor import ComputeGraph, NumericError, Rng, ShapeError, Tensor

CHECKPOINT_MAGIC = b"HGCK"
CHECKPOINT_VERSION = 1
_IDENTITY = operator.attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns")

PROB_CLAMP = 1e-7
CHUNK = 1 << 16  # values per Adam pass: 64K ran a paper-scale step fastest
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's constants, Kingma & Ba 2015's defaults


@dataclass
class TrainConfig(Record):
    """Hyperparameters for optimization, architecture, and graph building."""

    FLOORS = dict.fromkeys(("max_iters", "batch_size", "eval_every", "hidden",
                            "num_layers"), 1)
    CHOICES = ModelConfig.CHOICES

    lr: float = 0.005
    decay_factor: float = 0.1
    decay_at_iter: int = 1500
    warmup_iters: int = 1000
    gamma: float = 2.0
    num_layers: int = 4
    hidden: int = 512
    rules: EdgeRules = field(default_factory=EdgeRules.default)
    seed: int = 0
    max_iters: int = 3000
    batch_size: int = 32
    pooling: str = "learned"
    fusion: str = "gat"
    modality: str = "both"
    eval_every: int = 100
    val_fraction: float = 0.2

    def __post_init__(self):
        super().__post_init__()
        if self.lr <= 0 or self.decay_factor <= 0:
            raise ConfigError("lr and decay_factor must be positive")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in (0, 1), got {self.val_fraction}")

    def validates(self, t: int) -> bool:
        """Whether iteration t ends with a validation pass: every eval_every-th
        and the last; never 0, the untrained model."""
        return t > 0 and (t % self.eval_every == 0 or t == self.max_iters)


ARCHITECTURE = ("hidden", "num_layers", "fusion", "pooling", "modality")  # set by TrainConfig


def model_config_for(cfg: TrainConfig, d_audio: int, d_video: int,
                     n_audio: int, n_video: int, num_classes: int) -> ModelConfig:
    return ModelConfig(d_audio=d_audio, d_video=d_video, n_audio=n_audio, n_video=n_video,
                       num_classes=num_classes, **{k: getattr(cfg, k) for k in ARCHITECTURE})


def check_items(model_cfg: ModelConfig, items):
    """A ConfigError naming the first item that `model_cfg.check` rejects."""
    for item in items:
        try:
            model_cfg.check(item.graph, item.labels)
        except ShapeError as exc:
            raise ConfigError(f"item {item.item_id!r}: {exc}") from None


# -- loss ----------------------------------------------------------------------


def focal_loss(g: ComputeGraph, probs: Tensor, targets: np.ndarray,
               gamma: float) -> Tensor:
    """Per-class binary focal loss, summed over classes and graphs.

    `targets` has one row of C labels per graph. Positive classes contribute
    -(1-p)^gamma log p, negatives -p^gamma log(1-p); gamma = 0 reduces
    exactly to binary cross-entropy. Probabilities are clamped away from
    {0, 1} before the logs.
    """
    if gamma < 0:
        raise ConfigError(f"gamma must be >= 0, got {gamma}")
    try:
        y = np.asarray(targets, dtype=probs.dtype)
    except ValueError:  # rows of different lengths
        raise ShapeError(f"targets rows differ in size: {[np.size(t) for t in targets]}") from None
    y = y.reshape(y.shape[:probs.data.ndim - 2] + (1, -1))
    if y.shape != probs.shape:
        raise ShapeError(f"targets shape {y.shape} != probs shape {probs.shape}")
    return g.focal_loss(probs, y, gamma, PROB_CLAMP)


# -- schedule ------------------------------------------------------------------


def lr_at(iteration: int, cfg: TrainConfig) -> float:
    """Linear warmup from 0, constant plateau, one-time decay step."""
    if iteration < 0:
        raise ValueError(f"iteration must be >= 0, got {iteration}")
    if cfg.warmup_iters > 0 and iteration < cfg.warmup_iters:
        return cfg.lr * iteration / cfg.warmup_iters
    if iteration >= cfg.decay_at_iter:
        return cfg.lr * cfg.decay_factor
    return cfg.lr


# -- optimizer -----------------------------------------------------------------


def _split(block, shapes) -> list:
    """Consecutive views of a flat block, one per shape."""
    ends = np.cumsum([math.prod(shape) for shape in shapes], dtype=np.int64).tolist()
    return [block[lo:hi].reshape(shape) for shape, lo, hi in zip(shapes, [0] + ends, ends)]


class Adam:
    """Standard Adam with bias correction over flat blocks.

    `blocks` is (parameters, m, v), the checkpoint payload in `named_params`
    order, adopted as given and advanced in place; by default the parameters
    are packed and m and v zeroed. Each `p.data` becomes a view of `blocks[0]`,
    so a second Adam on the same parameters re-homes them."""

    def __init__(self, named_params, blocks=None):
        self.step_count = 0
        self._params = list(named_params)
        if blocks is None:
            dtype = np.result_type(np.float32, *(p.data for _, p in self._params))
            data = np.concatenate([p.data for _, p in self._params], axis=None, dtype=dtype)
            blocks = (data, np.zeros_like(data), np.zeros_like(data))
        self.blocks = tuple(blocks)
        for (_, p), view in zip(self._params, self._views(self.blocks[0])):
            p.data = view

    def _views(self, flat) -> list:
        return _split(flat, [p.data.shape for _, p in self._params])

    def gradients(self) -> np.ndarray:
        """A new gradient buffer filled with -0.0, into which backward adds (so a first
        add equals a copy); each `p.grad` becomes its view of it."""
        grad = np.full_like(self.blocks[0], -0.0)
        for (_, p), view in zip(self._params, self._views(grad)):
            p.grad = view
        return grad

    def step(self, grad: np.ndarray, lr: float, grad_scale: float = 1.0):
        """Scale `grad`, the buffer from `gradients()`, in place and check it once, then
        update CHUNK values at a time, refilling each chunk of it with -0.0 after it."""
        self.step_count += 1
        grad *= grad_scale
        if not np.isfinite(grad).all():
            bad = next(name for (name, _), g in zip(self._params, self._views(grad))
                       if not np.isfinite(g).all())
            raise NumericError(f"non-finite gradient for parameter {bad!r}")
        scratch = [np.empty(min(grad.size, CHUNK), grad.dtype) for _ in range(2)]
        for lo in range(0, grad.size, CHUNK):
            p, m, v, g = (a[lo:lo + CHUNK] for a in self.blocks + (grad,))
            s, d = (buf[:g.size] for buf in scratch)
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=s)
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=s)
            v += np.multiply(s, g, out=s)
            np.divide(m, 1.0 - BETA1 ** self.step_count, out=s)  # m_hat
            np.divide(v, 1.0 - BETA2 ** self.step_count, out=d)  # v_hat
            np.sqrt(d, out=d)
            d += EPS
            s *= lr
            p -= np.divide(s, d, out=s)
            g.fill(-0.0)


# -- dataset split ---------------------------------------------------------------


def split_dataset(items, fraction: float, seed: int):
    """Deterministic held-out split, stratified by label signature.

    Returns (train_items, val_items). Each distinct label combination is
    shuffled independently and contributes ~fraction of its items to the
    validation side, so small classes are not starved from either split.
    """
    if not items:
        raise ValueError("cannot split an empty dataset")
    groups: dict[tuple, list[int]] = {}
    for i, item in enumerate(items):
        key = tuple(np.flatnonzero(np.asarray(item.labels).ravel() > 0).tolist())
        groups.setdefault(key, []).append(i)
    rng = Rng(seed)
    val_idx = set()
    for key in sorted(groups):
        idx = groups[key]
        order = rng.permutation(len(idx))
        n_val = int(len(idx) * fraction)
        val_idx.update(idx[order[j]] for j in range(n_val))
    if not val_idx and len(items) > 1:
        val_idx.add(len(items) - 1)
    train_items = [it for i, it in enumerate(items) if i not in val_idx]
    val_items = [it for i, it in enumerate(items) if i in val_idx]
    return train_items, val_items


# -- batch stream ----------------------------------------------------------------


@functools.lru_cache(maxsize=2)  # a batch no larger than an epoch spans at most two
def _epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    return Rng(np.random.SeedSequence([seed, epoch])).permutation(n)


def batch_indices(seed: int, n_items: int, batch_size: int, t: int) -> list[int]:
    """Batch b(t) for iteration t >= 1, a pure function of its arguments.

    The stream is the concatenation of per-epoch permutations, each keyed
    by (seed, epoch); iteration t takes positions [(t-1)*B, t*B).
    """
    return [int(_epoch_permutation(seed, pos // n_items, n_items)[pos % n_items])
            for pos in range((t - 1) * batch_size, t * batch_size)]


# -- checkpoint ------------------------------------------------------------------


@dataclass
class Checkpoint(Record):
    """A loaded header and the parameter block. The block is the training state,
    not a copy of it: `build_model` makes the parameters views of it, and
    `build_optimizer` reads the two moment blocks and adopts all three, so a
    resume advances them in place. A model alone never reads the moments."""

    train_config: TrainConfig
    model_config: ModelConfig
    iteration: int
    adam_step: int
    rng_state: dict
    params: list          # the header's (name, rows, cols), in declared order
    param_block: np.ndarray  # flat f32 parameters
    path: str             # absolute, for build_optimizer's read of the moments
    identity: tuple       # the file's _IDENTITY at load

    def check_resume(self, cfg: TrainConfig):
        """ConfigError unless `cfg` keeps the model (ARCHITECTURE), the seed and
        val_fraction (so the batches and the held-out split) and reaches `iteration`."""
        for name in ARCHITECTURE + ("seed", "val_fraction"):
            kept = self.model_config if name in ARCHITECTURE else self.train_config
            new, old = getattr(cfg, name), getattr(kept, name)
            if new != old:
                raise ConfigError(f"{name} {new!r} differs from the checkpoint's {old!r}; "
                                  "a resume keeps the model and the held-out split")
        if self.iteration > cfg.max_iters:
            raise ConfigError(f"max_iters {cfg.max_iters} is below the checkpoint's "
                              f"iteration {self.iteration}")

    def build_model(self) -> HgnnModel:
        """The model over views of the parameter block, built with no random draw; each
        parameter it makes, and then the list's end, must be the header's next entry."""
        views = _split(self.param_block, [(rows, cols) for _, rows, cols in self.params])
        listed = enumerate(itertools.chain(zip(self.params, views), [(None, None)]))

        def take(*want):
            i, (got, view) = next(listed)
            want = want or None
            if got != want:
                raise ConfigError(f"checkpoint parameter {i} is {got}, the model's is {want}; "
                                  "the parameter list must match the model's exactly")
            return view

        model = HgnnModel(self.model_config, take)
        take()  # the header lists no parameter past the model's
        return model

    def build_optimizer(self, model: HgnnModel) -> Adam:
        """Adam adopting the parameter block and the moments, read from the file now;
        a file that is no longer the one loaded is a ConfigError."""
        moments = (np.empty_like(self.param_block), np.empty_like(self.param_block))
        with open(self.path, "rb") as f:  # the moments are the file's last two blocks
            f.seek(self.identity[2] - 2 * self.param_block.nbytes)
            if (_IDENTITY(os.fstat(f.fileno())) != self.identity
                    or sum(map(f.readinto, moments)) != 2 * self.param_block.nbytes):
                raise ConfigError("checkpoint changed since it was loaded")
        opt = Adam(model.named_params(), (self.param_block, *moments))
        opt.step_count = self.adam_step
        return opt


def save_checkpoint(path, model: HgnnModel, optimizer: Adam, iteration: int,
                    rng: np.random.Generator, train_config: TrainConfig):
    """Single binary file: magic, version, JSON header, then f32 LE tensors.

    The payload is the optimizer's `blocks`, one write each: parameters, first
    and second moments, in the model's declared parameter order. The optimizer
    must hold the model's parameters, as `Adam(model.named_params())` does."""
    named = model.named_params()
    blocks = optimizer.blocks
    if [n for n, _ in named] != [n for n, _ in optimizer._params] or any(
            p.data.base is not blocks[0] for _, p in named):
        raise ValueError("the optimizer does not hold the model's parameters")
    header = json.dumps({
        "train_config": train_config.to_dict(),
        "model_config": model.config.to_dict(),
        "iteration": int(iteration),
        "adam_step": int(optimizer.step_count),
        "rng_state": rng.bit_generator.state,
        "params": [{"name": name, "rows": p.rows, "cols": p.cols} for name, p in named],
    }).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(header)) + header)
        for block in blocks:
            f.write(np.ascontiguousarray(block, dtype="<f4"))


@contextmanager
def atomic_open(path, mode: str):
    """Open a sibling temp file for writing; on success rename it over `path`.

    A write that fails or is killed part way leaves any old file at `path`
    intact; a failed write also removes the temp file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint's header and parameter block; build_optimizer reads the moments."""
    with open(path, "rb") as f:
        head = f.read(12)
        if head[:4] != CHECKPOINT_MAGIC:
            raise ConfigError(f"not a checkpoint file: bad magic {head[:4]!r}")
        if len(head) < 12:
            raise ConfigError(f"checkpoint truncated: {len(head)} bytes, header needs 12")
        version, header_len = struct.unpack("<II", head[4:12])
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {version}")
        try:
            header = json.loads(f.read(header_len).decode("utf-8"))
            specs = [(s["name"], s["rows"], s["cols"]) for s in header["params"]]
            for name, *dims in specs:
                for key, n in zip(("rows", "cols"), dims):
                    if type(n) is not int or n < 1:
                        raise ValueError(f"parameter {name!r} has {key} {n!r}; "
                                         "shapes must be >= 1, as non-bool integers")
            train_config = TrainConfig.from_dict(header["train_config"])
            model_config = ModelConfig.from_dict(header["model_config"])
            iteration, adam_step = header["iteration"], header["adam_step"]
            rng_state = header["rng_state"]
            Rng(0).bit_generator.state = rng_state
        except (KeyError, TypeError, ValueError, OverflowError,  # bad or out-of-range values
                RecursionError) as exc:  # too-deep JSON
            detail = exc if isinstance(exc, ConfigError) else repr(exc)
            raise ConfigError(f"malformed checkpoint header: {detail}") from exc
        total = sum(rows * cols for _, rows, cols in specs)
        expected = 12 + header_len + 3 * 4 * total
        identity = _IDENTITY(os.fstat(f.fileno()))
        size = identity[2]
        if size < expected:
            raise ConfigError(f"checkpoint truncated: need {expected} bytes, have {size}")
        if size > expected:
            raise ConfigError(f"checkpoint has {size - expected} bytes after its last tensor")
        param_block = np.empty(total, "<f4")
        if f.readinto(param_block) != 4 * total:
            raise ConfigError("checkpoint changed while it was read")
    return Checkpoint(
        train_config=train_config, model_config=model_config, iteration=iteration,
        adam_step=adam_step, rng_state=rng_state, params=specs, param_block=param_block,
        path=os.path.abspath(path), identity=identity)


# -- training loop ----------------------------------------------------------------


@dataclass
class TrainResult:
    """A finished run; its parameter-sized arrays are its optimizer's blocks."""

    model: HgnnModel
    optimizer: Adam
    rng: np.random.Generator
    config: TrainConfig
    history: list          # rows: {iteration, loss, lr, map, roc_auc}
    final_iteration: int
    final_eval: EvalResult | None = None   # the final model on val_items, if any

    def save(self, checkpoint_path):
        save_checkpoint(checkpoint_path, self.model, self.optimizer,
                        self.final_iteration, self.rng, self.config)


def _group_loss(model: HgnnModel, items, group, gamma: float) -> float:
    """One same-shape group's loss, backpropagated on a tape that dies on return."""
    g = ComputeGraph()
    result = model.forward(g, stack_graphs([items[i].graph for i in group]))
    loss = focal_loss(g, result.probs, [items[i].labels for i in group], gamma)
    g.backward(loss)
    return loss.item()


def train(items, cfg: TrainConfig, val_items=None, resume: Checkpoint | None = None,
          progress=None) -> TrainResult:
    """Run the loop to cfg.max_iters; returns the trained model and history.

    A row scores val_items only where cfg.validates(t), nan elsewhere.
    `resume` continues a run bitwise-identically from its saved iteration,
    advancing its blocks in place; `resume.check_resume(cfg)` must pass.
    `progress(row)` is called once per iteration with the history row.
    """
    if not items:
        raise ConfigError("empty dataset")
    rng = Rng(cfg.seed)
    if resume is not None:
        resume.check_resume(cfg)
        model = resume.build_model()
        optimizer = resume.build_optimizer(model)
        rng.bit_generator.state = resume.rng_state
        start = resume.iteration
    else:
        first = items[0].graph
        model = HgnnModel(model_config_for(cfg, first.audio_feats.cols, first.video_feats.cols,
                                           first.n_audio, first.n_video,
                                           np.size(items[0].labels)), rng)
        optimizer = Adam(model.named_params())
        start = 0
    check_items(model.config, itertools.chain(items, val_items or ()))

    history = []
    grad = optimizer.gradients()
    ev = evaluate(model, val_items) if val_items and start == cfg.max_iters else None
    for t in range(start + 1, cfg.max_iters + 1):
        lr = lr_at(t, cfg)
        batch = batch_indices(cfg.seed, len(items), cfg.batch_size, t)
        groups: dict[tuple, list[int]] = {}  # one tape per feature shape
        for i in batch:
            graph = items[i].graph
            groups.setdefault(graph.audio_feats.shape + graph.video_feats.shape, []).append(i)
        total = 0.0
        for group in groups.values():
            total += _group_loss(model, items, group, cfg.gamma)
        optimizer.step(grad, lr, grad_scale=np.float32(1.0 / len(batch)))

        ev = evaluate(model, val_items) if val_items and cfg.validates(t) else None
        row = {"iteration": t, "loss": total / len(batch), "lr": lr,
               "map": ev.map if ev else float("nan"),
               "roc_auc": ev.roc_auc if ev else float("nan")}
        history.append(row)
        if progress is not None:
            progress(row)

    for _, p in model.named_params():
        p.grad = None  # the buffer dies here: a finished run holds the three blocks alone
    return TrainResult(model=model, optimizer=optimizer, rng=rng, config=cfg,
                       history=history, final_iteration=cfg.max_iters, final_eval=ev)


def write_history_csv(path, history):
    with atomic_open(path, "w") as f:
        f.write("iter,loss,lr,map,roc_auc\n")
        for row in history:
            f.write(f"{row['iteration']},{row['loss']:.8g},{row['lr']:.8g},"
                    f"{row['map']:.8g},{row['roc_auc']:.8g}\n")


# -- multi-seed protocol ------------------------------------------------------------


@dataclass
class SeedSummary:
    seeds: list
    per_seed_map: list
    per_seed_auc: list
    map_mean: float
    map_std: float
    auc_mean: float
    auc_std: float

    @classmethod
    def from_evals(cls, seeds, evals) -> "SeedSummary":
        """Mean and sample std (0 for one seed) of per-seed held-out results."""
        maps = [ev.map for ev in evals]
        aucs = [ev.roc_auc for ev in evals]
        return cls(list(seeds), maps, aucs, *_mean_std(maps), *_mean_std(aucs))

    def to_dict(self) -> dict:
        return nan_to_null(vars(self))


def _mean_std(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


def seed_configs(cfg: TrainConfig, seeds) -> list[TrainConfig]:
    """`cfg` once per seed of a multi-seed run."""
    if not seeds or len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds must be one or more distinct integers, got {list(seeds)}")
    return [replace(cfg, seed=int(s)) for s in seeds]


def run_seeds(items, cfg: TrainConfig, seeds, run=None) -> SeedSummary:
    """Train once per seed on a shared split; report mean and sample std.
    `run(train_items, val_items, seed_cfg)` trains one seed and returns its
    held-out EvalResult; the default is `train(...).final_eval`."""
    configs = seed_configs(cfg, seeds)
    train_items, val_items = split_dataset(items, cfg.val_fraction, cfg.seed)
    if not val_items:
        raise ConfigError("multi-seed run needs a non-empty validation split")
    run = run or (lambda tr, val, c: train(tr, c, val_items=val).final_eval)
    return SeedSummary.from_evals(seeds, [run(train_items, val_items, c) for c in configs])
