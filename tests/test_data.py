"""Container format, manifests, synthetic generator guarantees."""

import json
import os
import struct

import numpy as np
import pytest

from avhgnn.data import (N_BUMP_POSITIONS, DataFormatError, DatasetError, DatasetManifest,
                         FeatureContainer, ManifestItem, SynthSpec, _bump_positions,
                         generate_synthetic, load_dataset, read_container,
                         read_manifest, write_container, write_manifest)
from avhgnn.graph import EdgeRule, EdgeRules

RULES = EdgeRules(audio=EdgeRule(2, 1), video=EdgeRule(2, 2), cross=EdgeRule(1, 1))


class TestContainerFormat:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        container = FeatureContainer(audio=rng.normal(0, 1, (7, 16)),
                                     video=rng.normal(0, 1, (11, 32)))
        path = tmp_path / "clip.hgav"
        write_container(path, container)
        loaded = read_container(path)
        assert loaded.audio.tobytes() == container.audio.tobytes()
        assert loaded.video.tobytes() == container.video.tobytes()

    def test_read_into_a_shared_buffer(self, tmp_path):
        rng = np.random.default_rng(1)
        container = FeatureContainer(audio=rng.normal(0, 1, (3, 4)),
                                     video=rng.normal(0, 1, (5, 2)))
        path = tmp_path / "clip.hgav"
        write_container(path, container)
        out = np.zeros(30, np.float32)
        loaded = read_container(path, out=out[4:26])
        assert loaded.audio.tobytes() == container.audio.tobytes()
        assert loaded.video.tobytes() == container.video.tobytes()
        assert np.shares_memory(loaded.audio, out) and np.shares_memory(loaded.video, out)
        assert not out[:4].any() and not out[26:].any()
        with pytest.raises(DataFormatError, match="changed while it was read"):
            read_container(path, out=np.zeros(21, np.float32))

    def test_loaded_items_share_one_feature_buffer(self, tmp_path):
        spec = SynthSpec(n_items=4, n_classes=2, mode="audio_only_solvable")
        manifest = generate_synthetic(spec, tmp_path)
        items = load_dataset(manifest, RULES)
        buffers = set()
        for it in items:
            for x in (it.graph.audio_feats.data, it.graph.video_feats.data):
                while x.base is not None:
                    x = x.base
                buffers.add(id(x))
        assert len(buffers) == 1
        for it in items:
            direct = read_container(tmp_path / f"{it.item_id}.hgav")
            assert it.graph.audio_feats.data.tobytes() == direct.audio.tobytes()
            assert it.graph.video_feats.data.tobytes() == direct.video.tobytes()

    def test_minimal_container_is_32_bytes(self, tmp_path):
        path = tmp_path / "min.hgav"
        write_container(path, FeatureContainer(audio=np.ones((1, 1)),
                                               video=np.ones((1, 1))))
        assert path.stat().st_size == 32

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        path = tmp_path / "short.hgav"
        container = FeatureContainer(audio=np.ones((10, 2)), video=np.ones((1, 1)))
        write_container(path, container)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])  # drop two floats: header now lies
        with pytest.raises(DataFormatError, match=r"expected 108 bytes.*got 100"):
            read_container(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hgav"
        path.write_bytes(b"WHAT" + b"\x00" * 28)
        with pytest.raises(DataFormatError, match="magic"):
            read_container(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "new.hgav"
        path.write_bytes(b"HGAV" + struct.pack("<5I", 99, 1, 1, 1, 1) + b"\x00" * 8)
        with pytest.raises(DataFormatError, match="version 99"):
            read_container(path)

    def test_non_finite_rejected_at_construction(self):
        with pytest.raises(DataFormatError, match="finite"):
            FeatureContainer(audio=np.array([[np.nan]]), video=np.ones((1, 1)))


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = DatasetManifest(
            num_classes=3, class_names=["dog", "rain", "engine"],
            items=[ManifestItem("a", "a.hgav", [0, 2]),
                   ManifestItem("b", "b.hgav", [1])])
        path = tmp_path / "manifest.json"
        write_manifest(path, manifest)
        loaded = read_manifest(path)
        assert loaded.num_classes == 3
        assert loaded.items[0].labels == [0, 2]
        assert loaded.class_names == manifest.class_names

    def test_label_out_of_range(self):
        def manifest(label):
            return DatasetManifest.from_dict({
                "num_classes": 2, "class_names": ["x", "y"],
                "items": [{"id": "a", "container_path": "a.hgav", "labels": [label]}]})

        for label in (5, 2, -1):  # 2 is num_classes, the first label past the range
            with pytest.raises(DatasetError, match=rf"label {label} out of range \[0, 2\)"):
                manifest(label)
        assert [manifest(label).items[0].labels for label in (0, 1)] == [[0], [1]]

    @pytest.mark.parametrize("label", ["1", 1.5, True, None])
    def test_non_integer_label_is_format_error(self, label):
        with pytest.raises(DataFormatError, match="not an integer"):
            DatasetManifest.from_dict({
                "num_classes": 2, "class_names": ["x", "y"],
                "items": [{"id": "a", "container_path": "a.hgav", "labels": [label]}]})

    def test_class_name_count_mismatch(self):
        with pytest.raises(DataFormatError, match="class names"):
            DatasetManifest.from_dict({
                "num_classes": 3, "class_names": ["x"], "items": []})

    def test_unknown_keys_are_ignored(self):
        manifest = DatasetManifest.from_dict({
            "num_classes": 1, "class_names": ["x"], "source": {"url": "u"},
            "items": [{"id": "a", "container_path": "a.hgav", "labels": [0], "start_s": 3}]})
        assert manifest.items == [ManifestItem("a", "a.hgav", [0])]

    def test_missing_field(self):
        with pytest.raises(DataFormatError):
            DatasetManifest.from_dict({"num_classes": 1})

    @pytest.mark.parametrize("path", ["/data/a.hgav", "../a.hgav", "len20/../../a.hgav"])
    def test_container_path_outside_the_directory_is_format_error(self, path):
        items = [{"id": "a", "container_path": "len20/a.hgav", "labels": [0]},
                 {"id": "b", "container_path": path, "labels": [0]}]
        with pytest.raises(DataFormatError, match=r"manifest item 1: container_path"):
            DatasetManifest.from_dict({"num_classes": 1, "class_names": ["x"], "items": items})


class TestSynthSpecValidation:
    def test_defaults_valid(self):
        spec = SynthSpec()
        assert spec.n_audio == 10 and spec.n_video == 25
        assert spec.d_audio == 16 and spec.d_video == 32
        assert spec.n_classes == 4

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(noise_sigma=-0.1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            SynthSpec(mode="telepathy")

    def test_unbalanced_item_count_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            SynthSpec(n_items=81)

    def test_fusion_mode_needs_pair_balance(self):
        with pytest.raises(ValueError, match="pattern pairs"):
            SynthSpec(n_items=84, mode="fusion_required")  # 21 per class
        SynthSpec(n_items=84, mode="audio_only_solvable")  # fine there


class TestGenerator:
    def test_same_seed_identical_bytes(self, tmp_path):
        spec = SynthSpec(n_items=16, seed=11)
        path_a = generate_synthetic(spec, tmp_path / "a")
        path_b = generate_synthetic(spec, tmp_path / "b")
        assert path_a.read_bytes() == path_b.read_bytes()
        for f in sorted((tmp_path / "a").glob("*.hgav")):
            twin = tmp_path / "b" / f.name
            assert f.read_bytes() == twin.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = generate_synthetic(SynthSpec(n_items=16, seed=1), tmp_path / "a")
        b = generate_synthetic(SynthSpec(n_items=16, seed=2), tmp_path / "b")
        first_a = sorted((tmp_path / "a").glob("*.hgav"))[0]
        first_b = sorted((tmp_path / "b").glob("*.hgav"))[0]
        assert first_a.read_bytes() != first_b.read_bytes()

    def test_bump_positions_are_distinct_increasing_starts(self):
        """N_BUMP_POSITIONS distinct starts, spread from node 0 without wrapping, or
        every node of a clip with fewer audio nodes than that."""
        for n_audio in range(1, 4 * N_BUMP_POSITIONS):
            positions = _bump_positions(SynthSpec(n_audio=n_audio))
            assert positions == sorted(set(positions)) and positions[0] == 0
            assert len(positions) == min(N_BUMP_POSITIONS, n_audio)
            assert positions[-1] < n_audio

    def test_audio_solvable_centroids_separate_classes(self, tmp_path):
        spec = SynthSpec(n_items=32, noise_sigma=0.0, mode="audio_only_solvable",
                         seed=3)
        manifest_path = generate_synthetic(spec, tmp_path)
        items = load_dataset(manifest_path, RULES)
        means = np.array([it.graph.audio_feats.data.mean(axis=0) for it in items])
        classes = np.array([int(np.argmax(it.labels)) for it in items])
        centroids = np.array([means[classes == c].mean(axis=0)
                              for c in range(spec.n_classes)])
        # nearest-centroid (a linear rule) classifies every item correctly
        dists = ((means[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(dists.argmin(axis=1), classes)

    def test_fusion_required_marginals_are_class_free(self, tmp_path):
        spec = SynthSpec(n_items=64, noise_sigma=0.0, mode="fusion_required", seed=4)
        manifest_path = generate_synthetic(spec, tmp_path)
        items = load_dataset(manifest_path, RULES)
        classes = np.array([int(np.argmax(it.labels)) for it in items])
        audio_means = np.array([
            np.mean([it.graph.audio_feats.data for it, c in zip(items, classes) if c == cls],
                    axis=0)
            for cls in range(spec.n_classes)])
        video_means = np.array([
            np.mean([it.graph.video_feats.data for it, c in zip(items, classes) if c == cls],
                    axis=0)
            for cls in range(spec.n_classes)])
        assert np.ptp(audio_means, axis=0).max() < 1e-6
        assert np.ptp(video_means, axis=0).max() < 1e-6

    def test_fusion_required_pairing_encodes_class(self, tmp_path):
        # sanity on the construction: joint (audio, video) pattern determines label
        spec = SynthSpec(n_items=32, noise_sigma=0.0, mode="fusion_required", seed=5)
        items = load_dataset(generate_synthetic(spec, tmp_path), RULES)
        templates_a = [np.cos(np.pi * (p + 1) * (np.arange(16) + 0.5) / 16)
                       for p in range(4)]
        templates_v = [np.cos(np.pi * (q + 1) * (np.arange(32) + 0.5) / 32)
                       for q in range(4)]
        for it in items:
            cls = int(np.argmax(it.labels))
            energy_a = [abs(it.graph.audio_feats.data @ t).max() for t in templates_a]
            energy_v = [abs(it.graph.video_feats.data @ t).max() for t in templates_v]
            p = int(np.argmax(energy_a))
            q = int(np.argmax(energy_v))
            assert (p + q) % 4 == cls


class TestLoadDataset:
    def test_loads_graphs_with_one_hot_labels(self, tmp_path):
        spec = SynthSpec(n_items=10, seed=0, n_classes=2,
                         mode="audio_only_solvable")
        items = load_dataset(generate_synthetic(spec, tmp_path), RULES)
        assert len(items) == 10
        for it in items:
            assert it.graph.n_audio == spec.n_audio
            assert it.graph.n_video == spec.n_video
            assert it.labels.shape == (1, 2)
            assert it.labels.sum() == 1.0

    def test_items_of_one_shape_share_one_read_only_structure(self, tmp_path):
        # three clip lengths in one manifest, as in the paper-eval benchmark
        items = []
        for n_audio, n_video in ((2, 5), (4, 10), (6, 15)):
            sub = f"len{n_audio}"
            spec = SynthSpec(n_items=4, n_audio=n_audio, n_video=n_video, d_audio=3,
                             d_video=3, n_classes=2, mode="audio_only_solvable")
            part = read_manifest(generate_synthetic(spec, tmp_path / sub))
            items += [ManifestItem(f"{sub}-{it.item_id}", f"{sub}/{it.container_path}",
                                   it.labels) for it in part.items]
        write_manifest(tmp_path / "manifest.json", DatasetManifest(
            num_classes=2, class_names=["x", "y"], items=items))
        loaded = load_dataset(tmp_path / "manifest.json", RULES)
        structures = {}
        for it in loaded:
            g = it.graph
            first = structures.setdefault((g.n_audio, g.n_video), g)
            assert g.adj_aa is first.adj_aa
            assert g.adj_vv is first.adj_vv
            assert g.adj_va is first.adj_va
        assert len(structures) == 3
        assert len({id(g.adj_aa) for g in structures.values()}) == 3
        g = loaded[0].graph
        for arr in g.structure():
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2.0

    def test_empty_dataset_error(self, tmp_path):
        write_manifest(tmp_path / "manifest.json",
                       DatasetManifest(num_classes=1, class_names=["x"], items=[]))
        with pytest.raises(DatasetError, match="empty dataset"):
            load_dataset(tmp_path / "manifest.json", RULES)

    def test_missing_container_names_item(self, tmp_path):
        manifest = DatasetManifest(
            num_classes=1, class_names=["x"],
            items=[ManifestItem("ghost", "nowhere.hgav", [0])])
        write_manifest(tmp_path / "manifest.json", manifest)
        with pytest.raises(DatasetError, match="ghost"):
            load_dataset(tmp_path / "manifest.json", RULES)

    def test_each_container_is_statted_once(self, tmp_path, monkeypatch):
        manifest = generate_synthetic(SynthSpec(n_items=4, n_classes=2, seed=0), tmp_path)
        statted, stat = [], os.stat

        def counting(path, *args, **kwargs):
            statted.append(os.fspath(path))
            return stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counting)
        assert len(load_dataset(manifest, RULES)) == 4
        assert sorted(p for p in statted if p.endswith(".hgav")) == sorted(
            str(tmp_path / f"synth-{i:04d}.hgav") for i in range(4))

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_a_container_path_that_cannot_be_read_gives_read_containers_message(
            self, tmp_path, kind):
        (tmp_path / "dir.hgav").mkdir()
        write_container(tmp_path / "good.hgav",
                        FeatureContainer(np.ones((3, 4)), np.ones((3, 5))))
        path = {"missing": "nowhere.hgav", "directory": "dir.hgav"}[kind]
        write_manifest(tmp_path / "manifest.json", DatasetManifest(
            num_classes=1, class_names=["x"],
            items=[ManifestItem("good", "good.hgav", [0]), ManifestItem("bad", path, [0])]))
        with pytest.raises(OSError) as direct:
            read_container(tmp_path / path)
        with pytest.raises(DatasetError) as loading:
            load_dataset(tmp_path / "manifest.json", RULES)
        assert str(loading.value).endswith(f"1 item(s) failed to load:\n  item 'bad': "
                                           f"{direct.value}")
