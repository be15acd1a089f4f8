"""Dataset boundary: feature containers, manifests, synthetic generation.

A container file holds one clip's precomputed per-segment embeddings for
both modalities (audio rows x d_a, video rows x d_v, f32 LE). A manifest
is a JSON index with sparse multi-label targets. The synthetic generator
produces desk-scale datasets in two flavours: one solvable from audio
alone, and one whose class signal lives only in which audio/video pattern
pair co-occurs at the same relative time, leaving each modality's marginal
distribution identical across classes.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, Record
from .graph import EdgeRules, HeteroGraph, anchor_index, build_hetero_graph
from .tensor import Rng

CONTAINER_MAGIC = b"HGAV"
CONTAINER_VERSION = 1
MANIFEST_VERSION = 1

SYNTH_MODES = ("audio_only_solvable", "fusion_required")
SIGNAL_AMPLITUDE = 2.0
AUDIO_BUMP_WIDTH = 2    # consecutive audio nodes carrying the pattern
VIDEO_BUMP_HALF = 1     # video nodes each side of the aligned anchor
N_BUMP_POSITIONS = 5    # distinct start positions cycled through per class


class DataFormatError(ValueError):
    """A container or manifest file does not match the expected format."""


class DatasetError(ValueError):
    """Dataset-level problem: missing files, unreadable items, bad labels."""


# -- feature containers ----------------------------------------------------------


@dataclass
class FeatureContainer:
    audio: np.ndarray   # n_audio x d_a, float32
    video: np.ndarray   # n_video x d_v, float32

    def __post_init__(self):
        self.audio = np.ascontiguousarray(self.audio, dtype=np.float32)
        self.video = np.ascontiguousarray(self.video, dtype=np.float32)
        if self.audio.ndim != 2 or self.video.ndim != 2:
            raise DataFormatError("feature blocks must be 2-D")
        if not np.isfinite(self.audio).all() or not np.isfinite(self.video).all():
            raise DataFormatError("feature blocks must be finite")


def write_container(path, container: FeatureContainer):
    a, v = container.audio, container.video
    with open(path, "wb") as f:
        f.write(CONTAINER_MAGIC)
        f.write(struct.pack("<5I", CONTAINER_VERSION,
                            a.shape[0], a.shape[1], v.shape[0], v.shape[1]))
        f.write(a.astype("<f4").tobytes())
        f.write(v.astype("<f4").tobytes())


def read_container(path, out=None) -> FeatureContainer:
    """Read a container. With `out`, a float32 array at least as long as the
    payload, both blocks are read into it and returned as views of it."""
    with open(path, "rb") as f:
        head = f.read(24)
        if head[:4] != CONTAINER_MAGIC:
            raise DataFormatError(
                f"{path}: bad magic {head[:4]!r}, expected {CONTAINER_MAGIC!r}")
        if len(head) < 24:
            raise DataFormatError(f"{path}: header truncated at {len(head)} bytes")
        version, n_audio, d_a, n_video, d_v = struct.unpack("<5I", head[4:24])
        if version != CONTAINER_VERSION:
            raise DataFormatError(f"{path}: unsupported container version {version}")
        for block, shape in (("audio", (n_audio, d_a)), ("video", (n_video, d_v))):
            if 0 in shape:
                raise DataFormatError(
                    f"{path}: {block} block has shape {shape}, must be non-empty")
        expected = 24 + 4 * (n_audio * d_a + n_video * d_v)
        size = os.fstat(f.fileno()).st_size
        if size != expected:
            raise DataFormatError(
                f"{path}: expected {expected} bytes for declared shapes, got {size}")
        n_a = n_audio * d_a
        payload = (np.empty(n_a + n_video * d_v, "<f4") if out is None
                   else out[:n_a + n_video * d_v])
        if f.readinto(payload) != expected - 24:
            raise DataFormatError(f"{path}: file changed while it was read")
    return FeatureContainer(audio=payload[:n_a].reshape(n_audio, d_a),
                            video=payload[n_a:].reshape(n_video, d_v))


# -- manifests --------------------------------------------------------------------


@dataclass
class ManifestItem(Record):
    item_id: str
    container_path: str
    labels: list  # class indices

    def __post_init__(self):
        super().__post_init__()
        path = self.container_path  # string tests: a Path would cost 4 us per item
        if os.path.isabs(path) or ".." in path.split("/"):
            raise ConfigError(f"container_path {self.container_path!r} must be relative "
                              "and inside the manifest's directory")
        if "\0" in path:
            raise ConfigError(f"container_path {path!r} holds a NUL byte")
        try:
            os.fsencode(path)
        except UnicodeEncodeError as exc:
            raise ConfigError(f"container_path {path!r} is not a file name this system "
                              f"can encode: {exc.reason}") from None


@dataclass
class DatasetManifest(Record):
    FLOORS = {"num_classes": 1}
    CHOICES = {"version": (MANIFEST_VERSION,)}

    num_classes: int
    class_names: list
    items: list           # of ManifestItem
    version: int = MANIFEST_VERSION

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "num_classes": self.num_classes,
            "class_names": self.class_names,
            "items": [
                {"id": it.item_id, "container_path": it.container_path,
                 "labels": list(it.labels)}
                for it in self.items
            ],
        }

    @classmethod
    def from_dict(cls, d) -> "DatasetManifest":
        """Read a manifest's JSON object; unknown keys are ignored.

        A malformed field is a DataFormatError naming it (and the item's
        index), a label out of range a DatasetError.
        """
        try:
            if isinstance(d, dict):
                d = {k: v for k, v in d.items() if k in cls.__dataclass_fields__}
            manifest = super().from_dict(d)
        except ConfigError as exc:
            raise DataFormatError(str(exc)) from exc
        if len(manifest.class_names) != manifest.num_classes:
            raise DataFormatError(
                f"manifest has {len(manifest.class_names)} class names for "
                f"{manifest.num_classes} classes")
        items, first_index = [], {}
        for i, it in enumerate(manifest.items):
            try:
                if not isinstance(it, dict):
                    raise ConfigError(f"must be a JSON object, got {it!r}")
                item = ManifestItem(it.get("id"), it.get("container_path"), it.get("labels"))
            except ConfigError as exc:
                raise DataFormatError(f"manifest item {i}: {exc}") from exc
            j = first_index.setdefault(item.item_id, i)
            if j != i:
                raise DataFormatError(
                    f"manifest items {j} and {i} share the id {item.item_id!r}")
            for label in item.labels:
                if type(label) is not int:
                    raise DataFormatError(
                        f"item {item.item_id!r}: label {label!r} is not an integer")
                if not 0 <= label < manifest.num_classes:
                    raise DatasetError(
                        f"item {item.item_id!r}: label {label} out of range "
                        f"[0, {manifest.num_classes})")
            items.append(item)
        manifest.items = items
        return manifest


def write_manifest(path, manifest: DatasetManifest):
    with open(path, "w") as f:
        json.dump(manifest.to_dict(), f, indent=2)


def read_json(path):
    """The one JSON-file reader: an unreadable file is a DatasetError, bad JSON
    a DataFormatError. The file is read as UTF-8, as RFC 8259 requires."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    # RecursionError: nested too deep; UnicodeDecodeError: not UTF-8
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc


def read_manifest(path) -> DatasetManifest:
    return DatasetManifest.from_dict(read_json(path))


# -- synthetic data ----------------------------------------------------------------


@dataclass
class SynthSpec(Record):
    """Knobs for the synthetic generators; defaults preserve the 40:100
    audio/video node ratio at desk scale."""

    FLOORS = dict.fromkeys(("n_items", "n_audio", "n_video", "d_audio", "d_video",
                            "n_classes"), 1)
    CHOICES = {"mode": SYNTH_MODES}

    n_items: int = 80
    n_audio: int = 10
    n_video: int = 25
    d_audio: int = 16
    d_video: int = 32
    n_classes: int = 4
    noise_sigma: float = 0.25
    mode: str = "fusion_required"
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.n_items % self.n_classes != 0:
            raise ConfigError(
                f"n_items ({self.n_items}) must be a multiple of n_classes "
                f"({self.n_classes}) to keep classes balanced")
        per_class = self.n_items // self.n_classes
        if self.mode == "fusion_required" and per_class % self.n_classes != 0:
            raise ConfigError(
                "fusion_required needs items-per-class divisible by n_classes so "
                f"pattern pairs balance out; got {per_class} per class")


def _cosine_pattern(index: int, dim: int) -> np.ndarray:
    """Orthogonal zero-mean feature template for pattern `index`."""
    j = np.arange(dim)
    return SIGNAL_AMPLITUDE * np.cos(np.pi * (index + 1) * (j + 0.5) / dim)


def _bump_positions(spec: SynthSpec) -> list[int]:
    count = min(N_BUMP_POSITIONS, spec.n_audio)
    stride = max(1, spec.n_audio // count)
    return [(i * stride) % spec.n_audio for i in range(count)]


def _make_item(spec: SynthSpec, cls: int, j: int,
               rng: np.random.Generator) -> FeatureContainer:
    """Item j of class `cls`. The (audio pattern, start position) sequence is
    the same for every class; only the paired video pattern encodes the class."""
    audio = rng.normal(0.0, spec.noise_sigma, (spec.n_audio, spec.d_audio))
    video = rng.normal(0.0, spec.noise_sigma, (spec.n_video, spec.d_video))
    positions = _bump_positions(spec)
    t = positions[(j // spec.n_classes) % len(positions)]
    audio_nodes = (t + np.arange(AUDIO_BUMP_WIDTH)) % spec.n_audio
    anchors = np.unique(anchor_index(audio_nodes, spec.n_audio, spec.n_video))
    offsets = np.arange(-VIDEO_BUMP_HALF, VIDEO_BUMP_HALF + 1)
    video_nodes = (anchors[:, None] + offsets).ravel() % spec.n_video
    if spec.mode == "audio_only_solvable":
        np.add.at(audio, audio_nodes, _cosine_pattern(cls, spec.d_audio))
    else:
        p = j % spec.n_classes
        q = (cls - p) % spec.n_classes
        np.add.at(audio, audio_nodes, _cosine_pattern(p, spec.d_audio))
        np.add.at(video, video_nodes, _cosine_pattern(q, spec.d_video))
    return FeatureContainer(audio=audio.astype(np.float32),
                            video=video.astype(np.float32))


def generate_synthetic(spec: SynthSpec, out_dir) -> Path:
    """Write containers plus manifest.json under out_dir; returns manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = Rng(spec.seed)
    items = []
    for i in range(spec.n_items):
        cls, j = i % spec.n_classes, i // spec.n_classes
        container = _make_item(spec, cls, j, rng)
        item_id = f"synth-{i:04d}"
        filename = f"{item_id}.hgav"
        write_container(out_dir / filename, container)
        items.append(ManifestItem(item_id=item_id, container_path=filename,
                                  labels=[cls]))
    manifest = DatasetManifest(
        num_classes=spec.n_classes,
        class_names=[f"class_{c}" for c in range(spec.n_classes)],
        items=items)
    manifest_path = out_dir / "manifest.json"
    write_manifest(manifest_path, manifest)
    return manifest_path


# -- loading -----------------------------------------------------------------------


@dataclass
class LabeledGraph:
    item_id: str
    graph: HeteroGraph
    labels: np.ndarray  # 1 x num_classes, float32


def load_dataset(manifest_path, rules: EdgeRules) -> list[LabeledGraph]:
    """Build one labeled HeteroGraph per manifest item, whatever its shapes: whether an
    item fits a model is `ModelConfig.check`'s rule. All per-item problems are collected
    and reported together; any problem aborts the load (nothing trains on a partially
    broken dataset)."""
    manifest_path = Path(manifest_path)
    manifest = read_manifest(manifest_path)
    if not manifest.items:
        raise DatasetError(f"{manifest_path}: empty dataset (no items)")
    paths = [manifest_path.parent / it.container_path for it in manifest.items]
    # One buffer holds every payload. numpy asks for huge pages for an array
    # of 4 MiB or more, so a paper-scale load page-faults a few hundred times
    # rather than once per 4 KiB, whatever state malloc's heap was left in.
    counts = []
    for p in paths:  # one stat each; read_container reports a path that fails
        try:
            counts.append(max(os.stat(p).st_size - 24, 0) // 4)
        except OSError:
            counts.append(0)
    buffer, offsets = np.empty(sum(counts), np.float32), np.cumsum([0] + counts)
    loaded, errors = [], []
    for i, it in enumerate(manifest.items):
        try:
            container = read_container(paths[i], out=buffer[offsets[i]:offsets[i + 1]])
        except (OSError, DataFormatError) as exc:
            errors.append(f"item {it.item_id!r}: {exc}")
            continue
        labels = np.zeros((1, manifest.num_classes), dtype=np.float32)
        labels[0, it.labels] = 1.0
        graph = build_hetero_graph(container.audio, container.video, rules)
        loaded.append(LabeledGraph(item_id=it.item_id, graph=graph, labels=labels))
    if errors:
        raise DatasetError(
            f"{manifest_path}: {len(errors)} item(s) failed to load:\n  "
            + "\n  ".join(errors))
    return loaded
