"""End-to-end runs of every subcommand via main(argv)."""

import builtins
import contextlib
import ctypes
import hashlib
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avhgnn import cli, layers, training
from avhgnn.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from avhgnn.cli import attention_summary
from avhgnn.data import (DatasetManifest, FeatureContainer, ManifestItem, SynthSpec,
                         load_dataset, read_manifest, write_container, write_manifest)
from avhgnn.graph import EdgeRule, anchor_index
from avhgnn.layers import HgnnModel, ModelConfig
from avhgnn.metrics import evaluate
from avhgnn.tensor import Rng
from avhgnn.training import TrainConfig, run_seeds, split_dataset
import test_graph
from test_training import _FailOnSecondWrite, bad_rows, edit_first_param, edit_header


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """`json.loads` that rejects NaN and Infinity: RFC 8259 JSON has no such tokens."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def gen_dataset(capsys, tmp_path, name="data", **spec):
    spec_path = tmp_path / f"{name}_spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = tmp_path / name
    code, out, _ = run(capsys, "gen-synth", "--spec", str(spec_path),
                       "--out", str(out_dir))
    assert code == EXIT_OK
    return out_dir / "manifest.json"


TINY_TRAIN = {
    "hidden": 8, "num_layers": 1, "batch_size": 2, "max_iters": 50,
    "warmup_iters": 5, "decay_at_iter": 10000, "eval_every": 25,
    "pooling": "mean", "lr": 0.01,
    "rules": {"audio": {"span": 1, "dilation": 1},
              "video": {"span": 1, "dilation": 1},
              "cross": {"span": 1, "dilation": 1}},
}


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = dict(TINY_TRAIN)
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestGenSynth:
    def test_writes_manifest_and_containers(self, capsys, tmp_path):
        out_dir = tmp_path / "ds"
        code, out, _ = run(capsys, "gen-synth", "--out", str(out_dir),
                           "--n-items", "16")
        assert code == EXIT_OK
        assert (out_dir / "manifest.json").exists()
        assert len(list(out_dir.glob("*.hgav"))) == 16
        assert "spec:" in out  # effective config echoed

    def test_seed_repeat_identical_bytes(self, capsys, tmp_path):
        for name in ("a", "b"):
            code, _, _ = run(capsys, "gen-synth", "--out", str(tmp_path / name),
                             "--n-items", "16", "--seed", "3")
            assert code == EXIT_OK
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_invalid_mode_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen-synth", "--out", str(tmp_path), "--mode", "bogus"])
        assert excinfo.value.code == EXIT_USAGE
        assert "fusion_required" in capsys.readouterr().err

    def test_bad_spec_value_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen-synth", "--out", str(tmp_path / "x"),
                           "--n-items", "7")  # not divisible by 4 classes
        assert code == EXIT_DATA
        assert "multiple" in err


class TestTrain:
    def test_tiny_run_outputs(self, capsys, tmp_path):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=0)
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "run"
        code, out, _ = run(capsys, "train", "--config", str(cfg),
                           "--data", str(manifest), "--out", str(out_dir))
        assert code == EXIT_OK
        assert "config:" in out
        assert (out_dir / "checkpoint.hgck").exists()
        assert (out_dir / "effective_config.json").exists()
        lines = (out_dir / "history.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,loss,lr,map,roc_auc"
        assert len(lines) == 1 + 50

    def test_multi_seed_aggregate(self, capsys, tmp_path):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=1)
        cfg = write_config(tmp_path, max_iters=20)
        out_dir = tmp_path / "seeds"
        code, out, _ = run(capsys, "train", "--config", str(cfg),
                           "--data", str(manifest), "--out", str(out_dir),
                           "--seeds", "1,2")
        assert code == EXIT_OK
        assert (out_dir / "checkpoint_seed1.hgck").exists()
        assert (out_dir / "checkpoint_seed2.hgck").exists()
        aggregate = json.loads((out_dir / "aggregate.json").read_text())
        assert aggregate["seeds"] == [1, 2]
        assert 0.0 <= aggregate["map_mean"] <= 1.0
        assert aggregate["map_std"] >= 0.0

    def test_multi_seed_aggregate_equals_run_seeds(self, capsys, tmp_path):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=1)
        cfg_path = write_config(tmp_path, max_iters=10)
        out_dir = tmp_path / "seeds"
        code, _, _ = run(capsys, "train", "--config", str(cfg_path),
                         "--data", str(manifest), "--out", str(out_dir),
                         "--seeds", "1,2")
        assert code == EXIT_OK
        aggregate = strict_json((out_dir / "aggregate.json").read_text())
        cfg = TrainConfig.from_dict(json.loads(cfg_path.read_text()))
        summary = run_seeds(load_dataset(manifest, cfg.rules), cfg, [1, 2])
        assert aggregate["auc_mean"] is None  # the tiny split leaves ROC-AUC undefined
        assert aggregate == summary

    def test_failed_aggregate_write_keeps_the_old_file(self, capsys, tmp_path, monkeypatch):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=1)
        argv = ("train", "--config", str(write_config(tmp_path, max_iters=2)),
                "--data", str(manifest), "--out", str(tmp_path / "seeds"), "--seeds", "1,2")
        assert run(capsys, *argv)[0] == EXIT_OK
        aggregate = tmp_path / "seeds" / "aggregate.json"
        old = aggregate.read_bytes()

        def failing_open(path, mode):
            f = builtins.open(path, mode)
            return _FailOnSecondWrite(f) if Path(path).name.startswith("aggregate") else f

        monkeypatch.setattr(training, "open", failing_open, raising=False)
        code, _, err = run(capsys, *argv)
        assert code == EXIT_DATA
        assert "no space" in err
        assert aggregate.read_bytes() == old
        assert not list((tmp_path / "seeds").glob("*.tmp"))

    def test_multi_seed_empty_validation_is_config_error(self, capsys, tmp_path):
        manifest = gen_dataset(capsys, tmp_path, n_items=1, n_classes=1)
        cfg = write_config(tmp_path, max_iters=2)
        code, _, err = run(capsys, "train", "--config", str(cfg),
                           "--data", str(manifest), "--out", str(tmp_path / "o"),
                           "--seeds", "1,2")
        assert code == EXIT_DATA
        assert "non-empty validation split" in err

    def test_resume_continues_bitwise(self, capsys, tmp_path):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=2)
        full_cfg = write_config(tmp_path, "full.json", max_iters=12)
        part_cfg = write_config(tmp_path, "part.json", max_iters=6)

        code, _, _ = run(capsys, "train", "--config", str(full_cfg),
                         "--data", str(manifest), "--out", str(tmp_path / "full"))
        assert code == EXIT_OK
        code, _, _ = run(capsys, "train", "--config", str(part_cfg),
                         "--data", str(manifest), "--out", str(tmp_path / "part"))
        assert code == EXIT_OK
        code, _, _ = run(capsys, "train",
                         "--resume", str(tmp_path / "part" / "checkpoint.hgck"),
                         "--data", str(manifest), "--out", str(tmp_path / "resumed"),
                         "--max-iters", "12")
        assert code == EXIT_OK

        full_rows = (tmp_path / "full" / "history.csv").read_text().splitlines()
        resumed_rows = (tmp_path / "resumed" / "history.csv").read_text().splitlines()
        assert resumed_rows[1:] == full_rows[7:]

    @staticmethod
    def _full_and_resumed(capsys, tmp_path, eval_every):
        """Train 12 iterations, and 6 resumed to 12; return both run dirs."""
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=2)
        cfg = write_config(tmp_path, eval_every=eval_every)
        for name, max_iters in (("full", "12"), ("part", "6")):
            code, _, _ = run(capsys, "train", "--config", str(cfg), "--data", str(manifest),
                             "--out", str(tmp_path / name), "--max-iters", max_iters)
            assert code == EXIT_OK
        code, _, _ = run(capsys, "train",
                         "--resume", str(tmp_path / "part" / "checkpoint.hgck"),
                         "--data", str(manifest), "--out", str(tmp_path / "resumed"),
                         "--max-iters", "12")
        assert code == EXIT_OK
        return tmp_path / "full", tmp_path / "resumed"

    def test_resume_validates_where_the_uninterrupted_run_did(self, capsys, tmp_path):
        full, resumed = self._full_and_resumed(capsys, tmp_path, eval_every=3)
        full_rows = (full / "history.csv").read_text().splitlines()
        resumed_rows = (resumed / "history.csv").read_text().splitlines()
        cfg = TrainConfig.from_dict(json.loads((full / "effective_config.json").read_text()))
        for row in full_rows[1:]:  # a score only where the row's own iteration validated
            t, _, _, map_, _ = row.split(",")
            assert (map_ != "nan") == cfg.validates(int(t)), row
        assert resumed_rows[1:] == full_rows[7:]

    def test_resume_off_the_schedule_writes_the_uninterrupted_rows(self, capsys, tmp_path):
        # eval_every 4: the checkpoint at 6 follows a validation at 4 that it keeps no score of
        full, resumed = self._full_and_resumed(capsys, tmp_path, eval_every=4)
        full_rows = (full / "history.csv").read_text().splitlines()
        resumed_rows = (resumed / "history.csv").read_text().splitlines()
        assert resumed_rows[1:] == full_rows[7:]
        assert ((resumed / "checkpoint.hgck").read_bytes()
                == (full / "checkpoint.hgck").read_bytes())

    def test_resume_from_a_file_changed_after_load_is_config_error(self, capsys, tmp_path,
                                                                   monkeypatch):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=2)
        ckpt = tmp_path / "run" / "checkpoint.hgck"
        code, _, _ = run(capsys, "train", "--config", str(write_config(tmp_path, max_iters=2)),
                         "--data", str(manifest), "--out", str(ckpt.parent))
        assert code == EXIT_OK

        def truncating_load(*args):  # the moments are read after the dataset loads
            with ckpt.open("r+b") as f:
                f.truncate(ckpt.stat().st_size - 4)
            return load_dataset(*args)

        monkeypatch.setattr(cli, "load_dataset", truncating_load)
        code, _, err = run(capsys, "train", "--resume", str(ckpt), "--data", str(manifest),
                           "--out", str(tmp_path / "resumed"), "--max-iters", "4")
        assert code == EXIT_DATA
        assert "checkpoint changed since it was loaded" in err

    @pytest.mark.parametrize("flags, message", [
        (("--hidden", "64"), "hidden 64 differs"),
        (("--num-layers", "2"), "num_layers 2 differs"),
        (("--fusion", "gcn"), "fusion 'gcn' differs"),
        (("--pooling", "max"), "pooling 'max' differs"),
        (("--modality", "audio_only"), "modality 'audio_only' differs"),
        (("--config", "CONFIG"), "--resume cannot be combined with --config"),
        (("--seed", "9"), "seed 9 differs from the checkpoint's 0"),
    ])
    def test_resume_rejects_a_changed_model_or_config(self, capsys, tmp_path, flags,
                                                      message):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=2)
        cfg = write_config(tmp_path, max_iters=2)
        code, _, _ = run(capsys, "train", "--config", str(cfg), "--data", str(manifest),
                         "--out", str(tmp_path / "part"))
        assert code == EXIT_OK
        flags = [str(cfg) if flag == "CONFIG" else flag for flag in flags]
        code, _, err = run(capsys, "train", "--resume", str(tmp_path / "part" / "checkpoint.hgck"),
                           "--data", str(manifest), "--out", str(tmp_path / "resumed"),
                           "--max-iters", "4", *flags)
        assert code == EXIT_DATA
        assert message in err
        assert not (tmp_path / "resumed").exists()  # not even effective_config.json

    def test_resume_below_the_checkpoint_iteration_is_config_error(self, capsys,
                                                                  tmp_path):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=2)
        cfg = write_config(tmp_path, max_iters=6)
        code, _, _ = run(capsys, "train", "--config", str(cfg), "--data", str(manifest),
                         "--out", str(tmp_path / "part"))
        assert code == EXIT_OK
        code, _, err = run(capsys, "train", "--resume", str(tmp_path / "part" / "checkpoint.hgck"),
                           "--data", str(manifest), "--out", str(tmp_path / "resumed"),
                           "--max-iters", "3")
        assert code == EXIT_DATA
        assert "max_iters 3 is below the checkpoint's iteration 6" in err
        assert not (tmp_path / "resumed" / "checkpoint.hgck").exists()

    def test_resume_with_seeds_exits_2_before_the_checkpoint_loads(self, capsys, tmp_path):
        code, out, err = run(capsys, "train", "--resume", str(tmp_path / "absent.hgck"),
                             "--data", str(tmp_path / "nope.json"),
                             "--out", str(tmp_path / "o"), "--seeds", "1,2")
        assert code == EXIT_DATA and out == ""
        assert "--resume cannot be combined with --seeds" in err

    def test_bad_seed_rejected_before_the_data_loads(self, capsys, tmp_path):
        cfg = write_config(tmp_path)
        code, _, err = run(capsys, "train", "--config", str(cfg),
                           "--data", str(tmp_path / "nope.json"),
                           "--out", str(tmp_path / "o"), "--seeds", "1,x")
        assert code == EXIT_DATA
        assert "--seeds must be comma-separated integers, got '1,x'" in err
        assert "nope.json" not in err

    @pytest.mark.parametrize("seeds, message", [
        ("1,1", "seeds must be one or more distinct integers, got [1, 1]"),
        ("-1", "seed must be >= 0, got -1"),
    ])
    def test_repeated_or_negative_seed_rejected_before_any_file(self, capsys, tmp_path,
                                                               seeds, message):
        cfg = write_config(tmp_path)
        code, _, err = run(capsys, "train", "--config", str(cfg),
                           "--data", str(tmp_path / "nope.json"),
                           "--out", str(tmp_path / "o"), f"--seeds={seeds}")
        assert code == EXIT_DATA
        assert message in err
        assert not (tmp_path / "o").exists()

    def test_numeric_blowup_exits_three(self, capsys, tmp_path):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=3)
        cfg = write_config(tmp_path, "hot.json", lr=1e30, warmup_iters=0,
                           max_iters=40)
        with np.errstate(all="ignore"):
            code, _, err = run(capsys, "train", "--config", str(cfg),
                               "--data", str(manifest), "--out", str(tmp_path / "hot"))
        assert code == EXIT_NUMERIC
        assert "numeric" in err

    def test_final_scores_reuse_the_last_validation(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counting_evaluate(model, items):
            calls.append(len(items))
            return evaluate(model, items)

        monkeypatch.setattr(training, "evaluate", counting_evaluate)
        monkeypatch.setattr(cli, "evaluate", counting_evaluate)
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=4)
        cfg_path = write_config(tmp_path, max_iters=10, eval_every=5)
        argv = ("train", "--config", str(cfg_path), "--data", str(manifest))

        code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "seeds"), "--seeds", "1,2")
        assert code == EXIT_OK
        assert len(calls) == 4  # iterations 5 and 10 of each seed
        cfg = TrainConfig.from_dict(json.loads(cfg_path.read_text()))
        run_seeds(load_dataset(manifest, cfg.rules), cfg, [1, 2])
        assert len(calls) == 8

        calls.clear()
        code, out, _ = run(capsys, *argv, "--out", str(tmp_path / "one"))
        assert code == EXIT_OK
        assert len(calls) == 2
        final = [line for line in out.splitlines() if line.startswith("final:")]
        assert len(final) == 1

        # Resumed at max_iters, train() validates once, at the checkpoint's iteration.
        calls.clear()
        code, out, _ = run(capsys, "train", "--data", str(manifest),
                           "--resume", str(tmp_path / "one" / "checkpoint.hgck"),
                           "--out", str(tmp_path / "resumed"))
        assert code == EXIT_OK
        assert len(calls) == 1
        assert [line for line in out.splitlines() if line.startswith("final:")] == final

    def test_missing_data_is_data_error(self, capsys, tmp_path):
        cfg = write_config(tmp_path)
        code, _, err = run(capsys, "train", "--config", str(cfg),
                           "--data", str(tmp_path / "nope.json"),
                           "--out", str(tmp_path / "o"))
        assert code == EXIT_DATA

    @pytest.mark.parametrize("case", ["bad-manifest", "hidden-10**30"])
    def test_a_run_that_fails_before_iteration_1_writes_nothing(self, capsys, tmp_path, case):
        if case == "bad-manifest":
            manifest, flags = tmp_path / "manifest.json", []
            manifest.write_text("{")
        else:
            manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                                   d_audio=5, d_video=7, seed=0)
            flags = ["--hidden", str(10 ** 30)]
        code, out, _ = run(capsys, "train", "--config", str(write_config(tmp_path)),
                           "--data", str(manifest), "--out", str(tmp_path / "o"), *flags)
        assert code == EXIT_DATA
        assert out.startswith("config: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/run", "afile/run/deeper"])
    def test_an_out_that_cannot_be_a_directory_exits_2_before_the_data_loads(
            self, capsys, tmp_path, out):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=0)
        (tmp_path / "afile").write_text("kept")
        code, stdout, err = run(capsys, "train", "--config", str(write_config(tmp_path)),
                                "--data", str(manifest), "--out", str(tmp_path / out))
        assert code == EXIT_DATA
        assert f": {tmp_path / 'afile'} is not a writable directory" in err
        assert " iter " not in stdout  # no progress line: no iteration ran
        assert (tmp_path / "afile").read_text() == "kept"

    @pytest.mark.parametrize("out", ["outlink", "outlink/run"])
    def test_a_dangling_symlink_out_exits_2_before_the_data_loads(self, capsys, tmp_path,
                                                                  monkeypatch, out):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=0)
        config = write_config(tmp_path)
        (tmp_path / "outlink").symlink_to(tmp_path / "missing")
        before = sorted(tmp_path.rglob("*"))
        loads = []
        monkeypatch.setattr(cli, "load_dataset", lambda *a: loads.append(a))
        code, stdout, err = run(capsys, "train", "--config", str(config),
                                "--data", str(manifest), "--out", str(tmp_path / out))
        assert (code, loads) == (EXIT_DATA, [])
        assert f": {tmp_path / 'outlink'} is not a writable directory" in err
        assert " iter " not in stdout
        assert sorted(tmp_path.rglob("*")) == before
        assert not (tmp_path / "missing").exists()

    @pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
    def test_after_main_a_freed_array_is_made_again_without_page_faults(self):
        """main has malloc keep what it frees: a 2 MiB array freed and made again
        faults about no pages (about 500, one per page, without the setting)."""
        script = ("import resource, sys, numpy as np; from avhgnn.cli import main; "
                  "main(['inspect-graph', '--n-audio', '3', '--n-video', '3']); "
                  "a = np.ones(1 << 18); del a; "
                  "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
                  "a = np.ones(1 << 18); "
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, "
                  "file=sys.stderr)")
        proc = subprocess.run(
            [sys.executable, "-c", script], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=120, env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
        assert int(proc.stderr) < 50

    @pytest.mark.skipif(os.name != "posix", reason="main sets malloc only on POSIX")
    def test_main_sets_the_malloc_thresholds_the_readme_states(self, monkeypatch):
        """M_MMAP_THRESHOLD (-3) to 32 MiB, then M_TRIM_THRESHOLD (-1) to 256 MiB."""
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
        cli._keep_freed_memory()
        assert calls == [(-3, 32 * 1024 * 1024), (-1, 256 * 1024 * 1024)]

    def test_the_file_and_the_flags_are_checked_together(self, capsys, tmp_path):
        """A file invalid alone loads once a flag sets the bad field."""
        cfg = write_config(tmp_path, max_iters=0)
        code, out, err = run(capsys, "train", "--config", str(cfg),
                             "--data", str(tmp_path / "nope.json"),
                             "--out", str(tmp_path / "o"), "--max-iters", "2")
        assert code == EXIT_DATA
        assert "nope.json" in err and "max_iters" not in err
        assert json.loads(out.split("config: ", 1)[1].splitlines()[0])["max_iters"] == 2


class TestEval:
    def _train(self, capsys, tmp_path):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=4,
                               mode="audio_only_solvable", noise_sigma=0.05)
        cfg = write_config(tmp_path, modality="audio_only", max_iters=300,
                           batch_size=4, hidden=16, num_layers=2, lr=0.01,
                           warmup_iters=20)
        out_dir = tmp_path / "train"
        code, _, _ = run(capsys, "train", "--config", str(cfg),
                         "--data", str(manifest), "--out", str(out_dir))
        assert code == EXIT_OK
        return out_dir / "checkpoint.hgck", manifest

    def test_overfit_model_scores_training_data(self, capsys, tmp_path):
        ckpt, manifest = self._train(capsys, tmp_path)
        code, out, _ = run(capsys, "eval", "--checkpoint", str(ckpt),
                           "--data", str(manifest))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["map"] >= 0.9
        assert "config" in payload

    def test_repeated_eval_identical(self, capsys, tmp_path):
        ckpt, manifest = self._train(capsys, tmp_path)
        _, out1, _ = run(capsys, "eval", "--checkpoint", str(ckpt),
                         "--data", str(manifest))
        _, out2, _ = run(capsys, "eval", "--checkpoint", str(ckpt),
                         "--data", str(manifest))
        assert out1 == out2

    def test_eval_and_dump_attention_never_read_the_moments(self, capsys, tmp_path):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=5)
        cfg = write_config(tmp_path, max_iters=10, num_layers=2)
        ckpt = tmp_path / "run" / "checkpoint.hgck"
        code, _, _ = run(capsys, "train", "--config", str(cfg), "--data", str(manifest),
                         "--out", str(ckpt.parent))
        assert code == EXIT_OK
        n_params = training.load_checkpoint(ckpt).param_block.size

        def outputs():
            _, scores, _ = run(capsys, "eval", "--checkpoint", str(ckpt),
                               "--data", str(manifest))
            _, csv, _ = run(capsys, "dump-attention", "--checkpoint", str(ckpt),
                            "--data", str(manifest), "--item", "synth-0000")
            return scores, csv

        before = outputs()
        with ckpt.open("r+b") as f:  # both moment blocks become NaN, in place
            f.seek(-2 * 4 * n_params, 2)
            f.write(np.full(2 * n_params, np.nan, "<f4").tobytes())
        assert outputs() == before
        assert json.loads(before[0])["map"] >= 0 and before[1].count("\n") == 1 + 2 * 4

    def test_items_with_no_positive_label_print_null_metrics(self, capsys, tmp_path):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=5)
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "train", "--config", str(write_config(tmp_path, max_iters=2)),
                         "--data", str(manifest), "--out", str(out_dir))
        assert code == EXIT_OK
        items = _items_of(manifest)
        for item in items:
            item.labels = []
        code, out, _ = run(capsys, "eval", "--checkpoint", str(out_dir / "checkpoint.hgck"),
                           "--data", str(_write_manifest(tmp_path, items)))
        assert code == EXIT_OK
        payload = strict_json(out)
        assert payload["map"] is None and payload["roc_auc"] is None
        assert payload["per_class_ap"] == [None] * 4

    @pytest.mark.parametrize("rng_state", [{}, 3], ids=["rng_state-{}", "rng_state-3"])
    def test_a_header_holding_rng_state_loads_and_evaluates(self, capsys, tmp_path,
                                                            rng_state):
        """Headers written before `rng_state` left them hold one, as the committed
        fixture's does; a load reads no such key, so whatever it holds, the file
        evaluates as the fixture does."""
        fixture = Path(__file__).parent / "data" / "checkpoint_v1"
        assert b'"rng_state": {' in (fixture / "checkpoint.hgck").read_bytes()
        path = tmp_path / "checkpoint.hgck"
        shutil.copyfile(fixture / "checkpoint.hgck", path)
        edit_header(path, lambda header: header.update(rng_state=rng_state))
        outputs = [run(capsys, "eval", "--checkpoint", str(ckpt),
                       "--data", str(fixture / "manifest.json"))
                   for ckpt in (fixture / "checkpoint.hgck", path)]
        assert outputs[0][0] == EXIT_OK and json.loads(outputs[0][1])["map"] >= 0
        assert outputs[1] == outputs[0]

    def test_missing_checkpoint(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--checkpoint",
                           str(tmp_path / "ghost.hgck"),
                           "--data", str(tmp_path / "m.json"))
        assert code == EXIT_DATA

def _items_of(manifest, prefix=""):
    """A generated manifest's items, ids prefixed, containers addressed from its parent."""
    return [ManifestItem(prefix + it.item_id, f"{manifest.parent.name}/{it.container_path}",
                         it.labels) for it in read_manifest(manifest).items]


def _write_manifest(tmp_path, items, num_classes=4):
    path = tmp_path / "mixed.json"
    write_manifest(path, DatasetManifest(num_classes, [f"class_{c}" for c in range(num_classes)],
                                         items))
    return path


class TestItemChecks:
    """train, resume, eval and dump-attention check every item they use against the
    one model config before any iteration or forward, and name the first item that
    fails."""

    OTHER = {"width": {"d_audio": 9}, "nodes": {"n_audio": 5}, "classes": {"n_classes": 2}}
    # A mixed manifest holds the base items, then the other ones; otherwise the data
    # is the other dataset alone. A single manifest has one class count, so train
    # cannot mix two (test_training covers it through the API).
    CASES = [
        ("train", "width", True, r"item 'other-synth-0000': graph audio dim 9 != model 5"),
        ("train", "nodes", True,
         r"item 'other-synth-\d+': learned pooling expects 4 audio nodes, got 5"),
        ("resume", "width", False, r"item 'synth-\d+': graph audio dim 9 != model 5"),
        ("resume", "nodes", False,
         r"item 'synth-\d+': learned pooling expects 4 audio nodes, got 5"),
        ("resume", "classes", False,
         r"item 'synth-\d+': labels have 2 classes != model num_classes 4"),
        ("eval", "width", False, r"item 'synth-0000': graph audio dim 9 != model 5"),
        ("eval", "nodes", True,
         r"item 'other-synth-0000': learned pooling expects 4 audio nodes, got 5"),
        ("eval", "classes", False,
         r"item 'synth-0000': labels have 2 classes != model num_classes 4"),
        ("dump-attention", "width", False, r"item 'synth-0000': graph audio dim 9 != model 5"),
        ("dump-attention", "nodes", True,
         r"item 'other-synth-0000': learned pooling expects 4 audio nodes, got 5"),
    ]

    @pytest.mark.parametrize("entry, mismatch, mixed, message", CASES,
                             ids=[f"{entry}-{mismatch}" for entry, mismatch, *_ in CASES])
    def test_a_mismatched_item_exits_2_before_any_work(self, capsys, tmp_path, entry,
                                                        mismatch, mixed, message):
        shape = dict(n_audio=4, n_video=6, d_audio=5, d_video=7, mode="audio_only_solvable")
        base = gen_dataset(capsys, tmp_path, name="base", n_items=16, seed=4, **shape)
        other = gen_dataset(capsys, tmp_path, name="other", n_items=4, seed=8,
                            **{**shape, **self.OTHER[mismatch]})
        data = (_write_manifest(tmp_path, _items_of(base) + _items_of(other, "other-"))
                if mixed else other)
        cfg = write_config(tmp_path, pooling="learned", max_iters=2)
        ckpt = tmp_path / "run" / "checkpoint.hgck"
        if entry != "train":
            code, _, _ = run(capsys, "train", "--config", str(cfg), "--data", str(base),
                             "--out", str(ckpt.parent))
            assert code == EXIT_OK
        out_dir = tmp_path / "again"
        argv = {"train": ("train", "--config", str(cfg), "--out", str(out_dir)),
                "resume": ("train", "--resume", str(ckpt), "--out", str(out_dir),
                           "--max-iters", "4"),
                "eval": ("eval", "--checkpoint", str(ckpt)),
                "dump-attention": ("dump-attention", "--checkpoint", str(ckpt), "--item",
                                   "other-synth-0000" if mixed else "synth-0000")}[entry]
        code, out, err = run(capsys, *argv, "--data", str(data))
        assert code == EXIT_DATA
        assert re.search(message, err), err
        assert " iter " not in out and not (out_dir / "checkpoint.hgck").exists()
        if entry in ("eval", "dump-attention"):
            assert out == ""  # nothing scored

    @pytest.mark.parametrize("modality, code, message", [
        ("audio_only", EXIT_OK, None),
        ("both", EXIT_DATA, "error: item 'other-synth-0000': graph video dim 9 != model 7\n"),
    ], ids=["audio_only", "both"])
    def test_only_a_modality_in_use_must_keep_one_width(self, capsys, tmp_path, modality,
                                                        code, message):
        shape = dict(n_audio=4, n_video=6, d_audio=5, mode="audio_only_solvable")
        base = gen_dataset(capsys, tmp_path, name="base", n_items=16, seed=4, d_video=7,
                           **shape)
        other = gen_dataset(capsys, tmp_path, name="other", n_items=4, seed=8, d_video=9,
                            **shape)
        manifest = _write_manifest(tmp_path, _items_of(base) + _items_of(other, "other-"))
        out_dir = tmp_path / "run"
        got, out, err = run(capsys, "train", "--config", str(write_config(tmp_path)),
                            "--data", str(manifest), "--out", str(out_dir),
                            "--modality", modality, "--max-iters", "4")
        assert got == code, err
        if message is None:
            losses = [float(row.split(",")[1]) for row in
                      (out_dir / "history.csv").read_text().splitlines()[1:]]
            assert len(losses) == 4 and np.isfinite(losses).all()
        else:
            assert err == message and " iter " not in out
            assert not (out_dir / "checkpoint.hgck").exists()

    def test_a_longer_validation_item_exits_before_iteration_1(self, capsys, tmp_path):
        short = gen_dataset(capsys, tmp_path, name="short", n_items=8, n_audio=10, seed=1,
                            mode="audio_only_solvable")
        long = gen_dataset(capsys, tmp_path, name="long", n_items=4, n_audio=12, seed=2,
                           mode="audio_only_solvable")
        # Six one-item label groups keep no validation item, so split_dataset's
        # fallback holds out the last, longer one.
        items = _items_of(short)[:6] + _items_of(long, "long-")[:1]
        for item, labels in zip(items, [[0], [1], [2], [3], [0, 1], [0, 2], [0, 3]]):
            item.labels = labels
        manifest = _write_manifest(tmp_path, items)
        cfg_path = write_config(tmp_path, pooling="learned", eval_every=5, max_iters=10)
        cfg = TrainConfig.from_dict(json.loads(cfg_path.read_text()))
        _, val = split_dataset(load_dataset(manifest, cfg.rules), cfg.val_fraction, cfg.seed)
        assert [item.item_id for item in val] == ["long-synth-0000"]

        code, out, err = run(capsys, "train", "--config", str(cfg_path),
                             "--data", str(manifest), "--out", str(tmp_path / "run"))
        assert code == EXIT_DATA
        assert "item 'long-synth-0000': learned pooling expects 10 audio nodes, got 12" in err
        assert " iter " not in out
        assert not (tmp_path / "run" / "checkpoint.hgck").exists()


class TestInspectGraph:
    @pytest.mark.parametrize("n_audio, n_video", [(2, 2), (40, 100)],
                             ids=["flushed-on-return", "written-in-print"])
    def test_a_closed_stdout_exits_141_silently(self, n_audio, n_video):
        """A reader that stops reading is not a data error: the exit is a SIGPIPE
        death's 128 + 13, with nothing on stderr, as small output (708 bytes, under
        the 8 KiB stdout buffer) reaches the pipe at the flush on return and large
        output in the print itself. PYTHONUNBUFFERED would write the small output in
        the print too, so the child runs without it."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "avhgnn.cli", "inspect-graph", "--n-audio",
                 str(n_audio), "--n-video", str(n_video)],
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                env={**env, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    @pytest.mark.parametrize("n_audio, n_video", [(0, 3), (3, 0)])
    def test_a_node_count_below_1_exits_2(self, capsys, n_audio, n_video):
        code, out, err = run(capsys, "inspect-graph", "--n-audio", str(n_audio),
                             "--n-video", str(n_video))
        assert (code, out) == (EXIT_DATA, "")
        assert "node counts must be >= 1" in err

    def test_three_node_chain(self, capsys, tmp_path):
        code, out, _ = run(capsys, "inspect-graph", "--n-audio", "3",
                           "--n-video", "2", "--span-audio", "1",
                           "--dilation-audio", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["aa_edges"] == [[0, 1], [1, 2]]

    def test_zero_spans_keep_anchors(self, capsys, tmp_path):
        code, out, _ = run(capsys, "inspect-graph", "--n-audio", "3",
                           "--n-video", "5",
                           "--span-audio", "0", "--span-video", "0",
                           "--span-cross", "0")
        payload = json.loads(out)
        assert payload["aa_edges"] == []
        assert payload["vv_edges"] == []
        assert payload["va_edges"] == [[0, 0], [1, 2], [2, 4]]

    def test_output_stable(self, capsys, tmp_path):
        args = ("inspect-graph", "--n-audio", "6", "--n-video", "9")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("argv, sha256", [
        ("--n-audio 40 --n-video 100",
         "65021d3d9b05486568112a2bca7dfca51733022e1231adbac1728d28004bda42"),
        ("--n-audio 500 --n-video 100",
         "624698e90a567946a5c2b140a0bddf2f8f2af4614c778ec99dc98723ec960fa5"),
        ("--n-audio 4000 --n-video 100",
         "18e0b8fec8317475288f34f2f59921c9ee037694da3df804873f211b97efbc6b"),
        ("--n-audio 40 --n-video 4000",
         "7ded2534528040bddaddf9349580ef4136f19885912ef6aaf8f2a061d9c1b1f7"),
        ("--n-audio 7 --n-video 3 --span-audio 100 --dilation-audio 2 --span-cross 9",
         "a0afbb7fc2a32a38b99b94c058e9f5d506802b97217b8ea34857c8371086bd44"),
        (f"--n-audio 9 --n-video 13 --dilation-audio {10 ** 20} --span-video 0 "
         "--dilation-cross 2 --span-cross 4",
         "19f422ac619e478401833f09f15fe943ba60d6b36e334dc5576e0c674efe77a3"),
        ("--n-audio 1 --n-video 1",
         "ee713010015d223848498f188ae8d4b722f16749d1e5db198265bab8f5d0453e"),
    ], ids=["40x100", "500x100", "4000x100", "40x4000", "wide-spans", "huge-dilation",
            "1x1"])
    def test_output_bytes_are_pinned(self, capsys, argv, sha256):
        """The bytes the dense-mask implementation printed, which the edge lists keep."""
        code, out, _ = run(capsys, "inspect-graph", *argv.split())
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    SPAN = st.integers(0, 8) | test_graph.TestHugeRuleValues.HUGE
    DILATION = st.integers(1, 8) | test_graph.TestHugeRuleValues.HUGE

    @settings(max_examples=100, deadline=None)
    @given(n_audio=st.integers(1, 30), n_video=st.integers(1, 60),
           spans=st.tuples(SPAN, SPAN, SPAN), dilations=st.tuples(DILATION, DILATION, DILATION))
    def test_lists_and_degrees_equal_brute_force(self, n_audio, n_video, spans, dilations):
        argv = ["inspect-graph", "--n-audio", str(n_audio), "--n-video", str(n_video)]
        for edge, span, dilation in zip(("audio", "video", "cross"), spans, dilations):
            argv += [f"--span-{edge}", str(span), f"--dilation-{edge}", str(dilation)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == EXIT_OK
        payload = strict_json(out.getvalue())

        def stats(degrees):
            return {"min": min(degrees), "max": max(degrees),
                    "mean": sum(degrees) / len(degrees)}

        def cross(i, j):  # j = anchor(i) + dilation*k for some |k| <= span
            offset = j - anchor_index(i, n_audio, n_video)
            return offset % dilations[2] == 0 and abs(offset) // dilations[2] <= spans[2]

        for edges, degrees, n, e in (("aa_edges", "audio_intra", n_audio, 0),
                                     ("vv_edges", "video_intra", n_video, 1)):
            adj = test_graph.brute_force_temporal(n, spans[e], dilations[e])
            assert payload[edges] == [[i, j] for i in range(n) for j in range(i + 1, n)
                                      if adj[i, j]]
            assert payload["degrees"][degrees] == stats([int(row.sum()) for row in adj])
        window = [[i, j] for i in range(n_audio) for j in range(n_video) if cross(i, j)]
        assert payload["va_edges"] == window
        assert payload["degrees"]["audio_cross"] == stats(
            [sum(i == row for row, _ in window) for i in range(n_audio)])

    def test_memory_is_that_of_the_edges_not_of_n_squared(self):
        """4000 audio nodes list about 24k intra and 28k cross edges, 1.8 MB of JSON;
        dense 4000 x 4000 offset matrices and masks would peak near 550 MB. The child
        reads its own peak RSS, VmHWM in /proc/self/status: on Linux, RUSAGE_SELF's
        ru_maxrss keeps the high-water mark of the test process that exec replaced, and
        RUSAGE_CHILDREN's is the maximum over every earlier child."""
        script = ("import sys; from avhgnn.cli import main; code = main(sys.argv[1:]); "
                  "sys.stdout.flush(); status = open('/proc/self/status').read().split(); "
                  "print(code, status[status.index('VmHWM:') + 1], file=sys.stderr)")
        proc = subprocess.run(
            [sys.executable, "-c", script, "inspect-graph", "--n-audio", "4000",
             "--n-video", "100"], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=120, env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
        code, max_rss_kib = map(int, proc.stderr.split())
        assert code == EXIT_OK
        assert max_rss_kib <= 120 * 1024


class TestSizesPastNumpy:
    """A rule value too large for numpy's integers reads as the node count, and a
    size too large to allocate, or for numpy to express, exits 2 with numpy's message."""

    def test_a_huge_dilation_reads_as_the_node_count(self, capsys, tmp_path):
        code, out, _ = run(capsys, "inspect-graph", "--n-audio", "3", "--n-video", "4",
                           "--dilation-audio", str(10 ** 20))
        assert code == EXIT_OK and strict_json(out)["aa_edges"] == []
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=0)
        rules = TINY_TRAIN["rules"] | {"cross": {"span": 1, "dilation": 2 ** 63}}
        out_dir = tmp_path / "run"
        code, _, err = run(capsys, "train", "--config",
                           str(write_config(tmp_path, rules=rules, max_iters=2)),
                           "--data", str(manifest), "--out", str(out_dir))
        assert code == EXIT_OK, err
        ckpt = out_dir / "checkpoint.hgck"
        edit_header(ckpt, lambda header: header["train_config"]["rules"]["cross"].update(
            dilation=2 ** 64))
        code, out, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(manifest))
        assert code == EXIT_OK, err
        assert strict_json(out)["config"]["rules"]["cross"]["dilation"] == 2 ** 64

    def test_a_size_too_large_to_allocate_exits_2(self, capsys, tmp_path):
        # Each array is above 2**47 bytes, past what any overcommit policy grants, so
        # no run touches real memory; inspect-graph first holds a 48 MB node index and
        # a 32 MB window of offsets. The window, not the node count, is what cannot be
        # allocated: 6M nodes under the default rules list about 36M edges.
        code, out, err = run(capsys, "inspect-graph", "--n-audio", str(6 * 10 ** 6),
                             "--n-video", "3", "--span-audio", str(10 ** 7))
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith("error: Unable to allocate") and "(6000000, 4000001)" in err
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=0)
        code, _, err = run(capsys, "train", "--config", str(write_config(tmp_path)),
                           "--data", str(manifest), "--out", str(tmp_path / "run"),
                           "--hidden", str(10 ** 13))
        assert code == EXIT_DATA
        assert err.startswith("error: Unable to allocate") and "(5, 10000000000000)" in err

    @pytest.mark.parametrize("command, size, message", [
        ("inspect-graph", 10 ** 30, "Maximum allowed dimension exceeded"),
        ("inspect-graph", 2 ** 63, "Maximum allowed dimension exceeded"),
        ("inspect-graph", 2 ** 62, "array is too big;"),
        ("train", 10 ** 30, "Maximum allowed dimension exceeded"),
        ("train", 2 ** 62, "array is too big;"),
        ("gen-synth", 10 ** 23, "Maximum allowed dimension exceeded"),
    ], ids=["inspect-10**30", "inspect-2**63", "inspect-2**62", "train-hidden-10**30",
            "train-hidden-2**62", "gen-synth-d_audio-10**23"])
    def test_a_size_numpy_cannot_express_exits_2(self, capsys, tmp_path, command, size,
                                                 message):
        if command == "inspect-graph":
            argv = ["inspect-graph", "--n-audio", str(size), "--n-video", "3"]
        elif command == "train":
            manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                                   d_audio=5, d_video=7, seed=0)
            argv = ["train", "--config", str(write_config(tmp_path)), "--data", str(manifest),
                    "--out", str(tmp_path / "run"), "--hidden", str(size)]
        else:
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"d_audio": size}))
            argv = ["gen-synth", "--spec", str(spec), "--out", str(tmp_path / "ds")]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_DATA
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert command == "train" or out == ""

    def test_any_other_value_error_keeps_its_traceback(self, capsys, monkeypatch):
        def fail(args):
            raise ValueError("not a size")
        monkeypatch.setattr(cli, "_cmd_inspect", fail)
        with pytest.raises(ValueError, match="not a size"):
            main(["inspect-graph", "--n-audio", "3", "--n-video", "3"])


class TestDumpAttention:
    def test_summary_rescales_to_unit_interval(self):
        maps = [np.array([[0.2, 0.8], [0.6, 0.4], [1.0, 0.0]])]
        rows = attention_summary(maps)
        values = [v for _, _, v in rows]
        assert min(values) == 0.0 and max(values) == 1.0
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_single_node_maps_to_one(self):
        rows = attention_summary([np.array([[1.0]])])
        assert rows == [(0, 0, 1.0)]

    def test_uniform_attention_all_equal(self):
        rows = attention_summary([np.full((4, 3), 1.0 / 3.0)])
        assert {v for _, _, v in rows} == {1.0}

    def test_cli_dump(self, capsys, tmp_path):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=5)
        cfg = write_config(tmp_path, max_iters=10, num_layers=2)
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "train", "--config", str(cfg),
                         "--data", str(manifest), "--out", str(out_dir))
        assert code == EXIT_OK
        code, out, _ = run(capsys, "dump-attention",
                           "--checkpoint", str(out_dir / "checkpoint.hgck"),
                           "--data", str(manifest), "--item", "synth-0000")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "layer,audio_node,attention"
        assert len(lines) == 1 + 2 * 4  # layers x audio nodes
        for line in lines[1:]:
            value = float(line.split(",")[2])
            assert 0.0 <= value <= 1.0

    def test_fusion_disabled_checkpoint_rejected(self, capsys, tmp_path):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=6)
        cfg = write_config(tmp_path, max_iters=5, fusion="none")
        out_dir = tmp_path / "nofuse"
        code, _, _ = run(capsys, "train", "--config", str(cfg),
                         "--data", str(manifest), "--out", str(out_dir))
        assert code == EXIT_OK
        code, _, err = run(capsys, "dump-attention",
                           "--checkpoint", str(out_dir / "checkpoint.hgck"),
                           "--data", str(manifest), "--item", "synth-0000")
        assert code == EXIT_DATA
        assert "no attention" in err

    def test_single_modality_checkpoint_rejected(self, capsys, tmp_path):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=6)
        cfg = write_config(tmp_path, max_iters=5, modality="audio_only")
        out_dir = tmp_path / "audio"
        code, _, _ = run(capsys, "train", "--config", str(cfg),
                         "--data", str(manifest), "--out", str(out_dir))
        assert code == EXIT_OK
        code, out, err = run(capsys, "dump-attention",
                             "--checkpoint", str(out_dir / "checkpoint.hgck"),
                             "--data", str(manifest), "--item", "synth-0000")
        assert code == EXIT_DATA
        assert "modality='audio_only': no attention to dump" in err
        assert out == ""

    def test_unknown_item(self, capsys, tmp_path):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=7)
        cfg = write_config(tmp_path, max_iters=5)
        out_dir = tmp_path / "run2"
        run(capsys, "train", "--config", str(cfg), "--data", str(manifest),
            "--out", str(out_dir))
        code, _, err = run(capsys, "dump-attention",
                           "--checkpoint", str(out_dir / "checkpoint.hgck"),
                           "--data", str(manifest), "--item", "missing")
        assert code == EXIT_DATA
        assert "missing" in err

    def test_out_writes_the_stdout_bytes_through_a_temp_file(self, capsys, tmp_path,
                                                             monkeypatch):
        manifest = gen_dataset(capsys, tmp_path, n_items=16, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, seed=5)
        out_dir = tmp_path / "run"
        run(capsys, "train", "--config", str(write_config(tmp_path, max_iters=5)),
            "--data", str(manifest), "--out", str(out_dir))
        argv = ("dump-attention", "--checkpoint", str(out_dir / "checkpoint.hgck"),
                "--data", str(manifest), "--item", "synth-0003")
        code, csv_text, _ = run(capsys, *argv)
        assert code == EXIT_OK and csv_text.startswith("layer,audio_node,attention\n")
        replaced = []
        monkeypatch.setattr(os, "replace", lambda *a: replaced.append(a) or os.rename(*a))
        path = tmp_path / "attention.csv"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out, err) == (EXIT_OK, f"wrote {path}\n", "")
        assert path.read_text() == csv_text
        assert replaced == [(path.with_name("attention.csv.tmp"), path)]


def _header(**changes) -> bytes:
    """A well-formed checkpoint header without parameters, one field changed.

    Keys of ModelConfig change the header's model_config, other keys the header.
    """
    model_config = dict(d_audio=5, d_video=7, n_audio=4, n_video=6, num_classes=4,
                        hidden=8, num_layers=1, pooling="mean")
    header = {"train_config": TINY_TRAIN, "model_config": model_config, "iteration": 2,
              "adam_step": 2, "params": []}
    for key, value in changes.items():
        (model_config if key in model_config else header)[key] = value
    return json.dumps(header).encode()


def _listing(edit) -> tuple:
    """_header() listing `edit(its model's parameter list)`, and zero tensors for that list."""
    model = HgnnModel(ModelConfig(**json.loads(_header())["model_config"]), Rng(0))
    params = edit([{"name": name, "rows": p.rows, "cols": p.cols}
                   for name, p in model.named_params()])
    return _header(params=params), bytes(3 * 4 * sum(s["rows"] * s["cols"] for s in params))


class TestMalformedInput:
    """Bad configs and checkpoints exit 2 with a message, before any data loads."""

    @pytest.mark.parametrize("command, overrides, flags, message", [
        ("train", {"rules": {"audio": {"span": 1}, "cross": {"span": 1}}}, (), "'video'"),
        ("train", {"rules": [1, 2]}, (), "invalid train config"),
        ("train", {"rules": {e: {"span": -1} for e in ("audio", "video", "cross")}}, (),
         "span must be >= 0"),
        ("train", {"rules": {e: {"span": 1.5} for e in ("audio", "video", "cross")}}, (),
         "span must be an integer"),
        ("train", {"num_layers": 0}, (), "num_layers"),
        ("train", {"hidden": 0}, (), "hidden"),
        ("train", {"pooling": "median"}, (), "pooling"),
        ("train", {"fusion": "sum"}, (), "fusion"),
        ("train", {"modality": "smell"}, (), "modality"),
        ("train", {"eval_every": 0}, (), "eval_every"),
        ("train", {"batch_size": 2.5}, (), "batch_size"),
        ("train", {"seed": 1.5}, (), "seed"),
        ("train", None, (), "JSON object"),
        ("train", {}, ("--hidden", "0"), "hidden"),
        ("inspect-graph", {"rules": {"audio": {"span": 1}}}, (), "'video'"),
        ("inspect-graph", {}, ("--span-audio", "-1"), "span must be >= 0"),
        ("train", {"lr": float("nan")}, (), "lr must be a finite number"),
        ("train", {"lr": float("inf")}, (), "lr must be a finite number"),
        ("train", {"gamma": float("nan")}, (), "gamma must be a finite number"),
        ("train", {"decay_factor": float("nan")}, (), "decay_factor must be a finite number"),
        ("train", {"lr": True}, (), "lr must be a finite number"),
        ("train", {}, ("--lr", "nan"), "lr must be a finite number"),
        ("train", {"lr": 10 ** 400}, (), "lr must be a finite number"),
        ("train", {}, ("--max-iters", "0"),
         "invalid train config: max_iters must be >= 1, got 0"),
    ])
    def test_bad_config(self, capsys, tmp_path, command, overrides, flags, message):
        if overrides is None:
            cfg = tmp_path / "list.json"
            cfg.write_text("[]")
        else:
            cfg = write_config(tmp_path, **overrides)
        if command == "train":
            argv = ["train", "--config", str(cfg), "--data", str(tmp_path / "absent.json"),
                    "--out", str(tmp_path / "o")]
        else:
            argv = ["inspect-graph", "--config", str(cfg), "--n-audio", "3",
                    "--n-video", "4"]
        code, _, err = run(capsys, *argv, *flags)
        assert code == EXIT_DATA
        assert message in err

    @pytest.mark.parametrize("header, message", [
        (None, "truncated"),
        (b"{not json", "JSONDecodeError"),
        (b'{"params": []}', "'train_config'"),
        (b'{"params": [{"name": "w", "rows": -1, "cols": 4}]}', "shapes must be >= 1"),
        pytest.param(_header(iteration="x"), "iteration must be an integer", id="iteration-x"),
        pytest.param(_header(adam_step=1.5), "adam_step must be an integer",
                     id="adam_step-1.5"),
        pytest.param(_header(iteration=2.5), "iteration must be an integer",
                     id="iteration-2.5"),
        pytest.param(_header(iteration=-5), "iteration must be >= 0", id="iteration-neg"),
        pytest.param(_header(hidden=1.5), "hidden must be an integer", id="hidden-1.5"),
        pytest.param(_header(d_audio="x"), "d_audio must be an integer", id="d_audio-x"),
        pytest.param(_header(n_audio=-3), "n_audio must be >= 1", id="n_audio-neg"),
        pytest.param(_header(hidden=True), "hidden must be an integer", id="hidden-true"),
        pytest.param((_header(), bytes(14)), "checkpoint has 14 bytes after its last tensor",
                     id="trailing-bytes"),
        pytest.param(_listing(lambda ps: ps + [{"name": "extra", "rows": 1, "cols": 1}]),
                     "is ('extra', 1, 1), the model's is None", id="unknown-param"),
        pytest.param(_listing(lambda ps: ps + ps[:1]),
                     "is ('layer0.audio.weight', 5, 8), the model's is None",
                     id="repeated-param"),
        pytest.param(_listing(lambda ps: ps[::-1]),
                     "parameter 0 is ('classifier.bias', 1, 4), the model's is "
                     "('layer0.audio.weight', 5, 8)", id="reordered-params"),
        pytest.param(_header(train_config=TINY_TRAIN | {"eval_every": 0}),
                     "error: malformed checkpoint header: invalid train config: "
                     "eval_every must be >= 1, got 0\n", id="nested-config-error"),
    ])
    def test_bad_checkpoint(self, capsys, tmp_path, header, message):
        path = tmp_path / "bad.hgck"
        if header is None:  # 7 bytes: magic plus part of the version field
            path.write_bytes(b"HGCK\x01\x00\x00")
        else:  # a header, or a (header, bytes after the tensors) pair
            header, tail = header if isinstance(header, tuple) else (header, b"")
            path.write_bytes(b"HGCK" + struct.pack("<II", 1, len(header)) + header + tail)
        code, _, err = run(capsys, "eval", "--checkpoint", str(path),
                           "--data", str(tmp_path / "absent.json"))
        assert code == EXIT_DATA
        assert message in err

    def test_more_layers_than_listed_parameters_stop_at_the_first_unmatched_one(
            self, capsys, tmp_path, monkeypatch):
        """The build stops at the first parameter the header does not list, so its
        work does not grow with num_layers."""
        built = []
        init = layers.HeteroLayer.__init__
        monkeypatch.setattr(layers.HeteroLayer, "__init__",
                            lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
        for num_layers in (50, 20000):
            header, payload = _listing(lambda params: params)  # 7 parameters, 1 layer
            header = json.loads(header)
            header["model_config"]["num_layers"] = num_layers
            header = json.dumps(header).encode()
            path = tmp_path / "deep.hgck"
            path.write_bytes(b"HGCK" + struct.pack("<II", 1, len(header)) + header + payload)
            built.clear()
            code, _, err = run(capsys, "eval", "--checkpoint", str(path),
                               "--data", str(tmp_path / "absent.json"))
            assert code == EXIT_DATA
            assert err == ("error: checkpoint parameter 5 is ('classifier.weight', 16, 4), "
                           "the model's is ('layer1.audio.weight', 8, 8); the parameter list "
                           "must match the model's exactly\n")
            assert built == [1, 1]

    @bad_rows
    def test_param_shape_must_be_a_positive_integer(self, capsys, tmp_path, rows):
        header, payload = _listing(lambda params: params)
        path = tmp_path / "bad.hgck"
        path.write_bytes(b"HGCK" + struct.pack("<II", 1, len(header)) + header + payload)
        edit_first_param(path, "rows", rows)
        code, _, err = run(capsys, "eval", "--checkpoint", str(path),
                           "--data", str(tmp_path / "absent.json"))
        assert code == EXIT_DATA
        assert "parameter 'layer0.audio.weight' has rows " in err


    @pytest.mark.parametrize("kind, message", [
        ("config", "deep.json: invalid JSON: maximum recursion depth exceeded"),
        ("manifest", "deep.json: invalid JSON: maximum recursion depth exceeded"),
        ("checkpoint", "malformed checkpoint header: RecursionError("),
    ], ids=["config", "manifest", "checkpoint"])
    def test_deeply_nested_json_is_a_one_line_data_error(self, capsys, tmp_path, kind,
                                                         message):
        """JSON nested past the parser's recursion limit exits 2, not with a traceback."""
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        header, payload = _listing(lambda params: params)  # a loadable checkpoint
        if kind == "checkpoint":
            header, payload = b"[" * 100000, b""
        ckpt = tmp_path / "model.hgck"
        ckpt.write_bytes(b"HGCK" + struct.pack("<II", 1, len(header)) + header + payload)
        if kind == "config":
            argv = ["train", "--config", str(deep), "--data", str(tmp_path / "absent.json"),
                    "--out", str(tmp_path / "o")]
        else:
            argv = ["eval", "--checkpoint", str(ckpt), "--data", str(deep)]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_DATA
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("kind", ["config", "manifest", "spec"])
    def test_a_json_file_that_is_not_utf8_is_a_one_line_data_error(self, capsys, tmp_path,
                                                                    kind):
        """RFC 8259 JSON is UTF-8; an 0xff byte exits 2, not with a decode traceback."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"seed": 1, "note": "\xff"}')
        out = str(tmp_path / "o")
        argv = {"config": ("train", "--config", str(bad), "--data",
                           str(tmp_path / "absent.json"), "--out", out),
                "manifest": ("train", "--data", str(bad), "--out", out),
                "spec": ("gen-synth", "--spec", str(bad), "--out", out)}[kind]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_DATA
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "bad.json: invalid JSON: 'utf-8' codec can't decode byte 0xff" in err

    @pytest.mark.parametrize("spec, message", [
        ({"n_audio": 1.5}, "n_audio must be an integer"),
        ({"d_audio": True}, "d_audio must be an integer"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"noise_sigma": "a"}, "noise_sigma must be a finite number"),
        ([], "JSON object"),
    ])
    def test_bad_spec(self, capsys, tmp_path, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(capsys, "gen-synth", "--spec", str(path),
                           "--out", str(tmp_path / "o"))
        assert code == EXIT_DATA
        assert message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spec", [[1, 2], "text", None])
    def test_spec_that_is_not_an_object_with_a_flag(self, capsys, tmp_path, spec):
        """A flag is merged into an object only; any other JSON value is the
        reader's one-line error, not a traceback."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(capsys, "gen-synth", "--spec", str(path),
                           "--out", str(tmp_path / "o"), "--seed", "1")
        assert code == EXIT_DATA
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "synth spec must be a JSON object" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("change, message", [
        (None, "invalid JSON"),
        ({"version": "abc"}, "version must be an integer"),
        ({"version": 2}, "version must be one of (1,)"),
        ({"num_classes": "x"}, "num_classes must be an integer"),
        ({"num_classes": 4.7}, "num_classes must be an integer"),
        ({"num_classes": True}, "num_classes must be an integer"),
        ({"class_names": "abcd"}, "class_names must be a list"),
        ({"container_path": 5}, "container_path must be a str"),
        ({"id": 5}, "manifest item 0: item_id must be a str"),
        ({"items": [5]}, "manifest item 0: must be a JSON object"),
        ({"id": "synth-0001"}, "manifest items 0 and 1 share the id 'synth-0001'"),
        ({"container_path": "/tmp/synth-0000.hgav"},
         "manifest item 0: container_path '/tmp/synth-0000.hgav' must be relative"),
        ({"container_path": "../synth-0000.hgav"},
         "manifest item 0: container_path '../synth-0000.hgav' must be relative"),
        ({"container_path": "synth\u00000000.hgav"},
         r"manifest item 0: container_path 'synth\x000000.hgav' holds a NUL byte"),
        ({"container_path": "\ud800.hgav"},
         r"manifest item 0: container_path '\ud800.hgav' is not a file name this system "
         "can encode: surrogates not allowed"),
    ])
    def test_bad_manifest(self, capsys, tmp_path, change, message):
        manifest = gen_dataset(capsys, tmp_path, n_items=4, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, mode="audio_only_solvable")
        if change is None:
            manifest.write_text("{not json")
        else:
            d = json.loads(manifest.read_text())
            for key, value in change.items():  # item keys change the first item
                (d["items"][0] if key in d["items"][0] else d)[key] = value
            manifest.write_text(json.dumps(d))
        code, _, err = run(capsys, "train", "--config", str(write_config(tmp_path)),
                           "--data", str(manifest), "--out", str(tmp_path / "o"),
                           "--max-iters", "2")
        assert code == EXIT_DATA
        assert message in err

    def test_empty_feature_blocks_named_per_item(self, capsys, tmp_path):
        manifest = gen_dataset(capsys, tmp_path, n_items=8, n_audio=4, n_video=6,
                               d_audio=5, d_video=7, mode="audio_only_solvable")
        write_container(manifest.parent / "synth-0003.hgav",
                        FeatureContainer(audio=np.zeros((0, 5)), video=np.ones((6, 7))))
        write_container(manifest.parent / "synth-0005.hgav",
                        FeatureContainer(audio=np.ones((4, 5)), video=np.zeros((6, 0))))
        code, _, err = run(capsys, "train", "--config", str(write_config(tmp_path)),
                           "--data", str(manifest), "--out", str(tmp_path / "o"),
                           "--max-iters", "2")
        assert code == EXIT_DATA
        assert "2 item(s) failed to load" in err
        assert "'synth-0003'" in err and "audio block has shape (0, 5)" in err
        assert "'synth-0005'" in err and "video block has shape (6, 0)" in err


# The parent's flags of each subcommand, in help order.
FLAGS = {
    "gen-synth": ["--spec", "--out", "--mode", "--n-items", "--noise-sigma", "--seed"],
    "train": ["--config", "--data", "--out", "--seeds", "--resume", "--pooling", "--fusion",
              "--modality", "--lr", "--gamma", "--hidden", "--num-layers", "--max-iters",
              "--batch-size", "--seed", "--eval-every", "--warmup-iters", "--decay-at-iter"],
    "eval": ["--checkpoint", "--data"],
    "inspect-graph": ["--config", "--n-audio", "--n-video", "--span-audio", "--dilation-audio",
                      "--span-video", "--dilation-video", "--span-cross", "--dilation-cross"],
    "dump-attention": ["--checkpoint", "--data", "--item", "--out"],
}

# Each subcommand whose flags set record fields: (record, flag dest suffixes, flag count).
RECORD_FLAGS = {
    "train": (TrainConfig, ("",), 13),
    "gen-synth": (SynthSpec, ("",), 4),
    "inspect-graph": (EdgeRule, ("_audio", "_video", "_cross"), 6),
}


def subcommand_parsers() -> dict:
    return cli.build_parser()._subparsers._group_actions[0].choices


class TestParser:
    def test_each_subcommand_keeps_its_flags(self):
        parsers = subcommand_parsers()
        assert sorted(parsers) == sorted(FLAGS)
        for command, parser in parsers.items():
            flags = [a.option_strings[-1] for a in parser._actions]
            assert flags == ["--help", *FLAGS[command]], command

    @pytest.mark.parametrize("new_choice", [False, True])
    def test_a_field_flag_takes_the_field_type_and_choices(self, monkeypatch, new_choice):
        """With new_choice, every CHOICES entry gains a value first, which the
        parser must then offer: the records, not the CLI, hold the choices."""
        if new_choice:
            for record in (TrainConfig, SynthSpec):
                for name, values in list(record.CHOICES.items()):
                    monkeypatch.setitem(record.CHOICES, name, (*values, "added"))
        parsers = subcommand_parsers()
        for command, (record, suffixes, count) in RECORD_FLAGS.items():
            hints = typing.get_type_hints(record)
            field_of = {name + suffix: name for name in hints for suffix in suffixes}
            actions = [a for a in parsers[command]._actions if a.dest in field_of]
            assert len(actions) == count, command
            for action in actions:
                name = field_of[action.dest]
                assert action.type is hints[name], action.dest
                assert action.choices == record.CHOICES.get(name), action.dest


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == EXIT_USAGE

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code == EXIT_USAGE
