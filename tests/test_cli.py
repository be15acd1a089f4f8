"""End-to-end runs of every subcommand via main(argv)."""

import builtins
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from avhgnn import cli, training
from avhgnn.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from avhgnn.cli import attention_summary
from avhgnn.data import FeatureContainer, load_dataset, write_container
from avhgnn.layers import HgnnModel, ModelConfig
from avhgnn.metrics import evaluate
from avhgnn.tensor import Rng
from avhgnn.training import TrainConfig, run_seeds
from test_training import _FailOnSecondWrite, bad_rows, edit_first_param


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        aggregate = json.loads((out_dir / "aggregate.json").read_text())
        cfg = TrainConfig.from_dict(json.loads(cfg_path.read_text()))
        summary = run_seeds(load_dataset(manifest, cfg.rules), cfg, [1, 2])
        # Compared as JSON text: the tiny split leaves ROC-AUC NaN, and NaN != NaN.
        assert (json.dumps(aggregate, sort_keys=True)
                == json.dumps(summary.to_dict(), sort_keys=True))

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

    def test_resume_on_another_class_count_is_config_error(self, capsys, tmp_path):
        four = gen_dataset(capsys, tmp_path, name="four", n_items=16, n_audio=4,
                           n_video=6, d_audio=5, d_video=7, seed=2)
        two = gen_dataset(capsys, tmp_path, name="two", n_items=16, n_classes=2,
                          n_audio=4, n_video=6, d_audio=5, d_video=7, seed=2)
        code, _, _ = run(capsys, "train", "--config", str(write_config(tmp_path, max_iters=2)),
                         "--data", str(four), "--out", str(tmp_path / "part"))
        assert code == EXIT_OK
        code, _, err = run(capsys, "train", "--resume", str(tmp_path / "part" / "checkpoint.hgck"),
                           "--data", str(two), "--out", str(tmp_path / "resumed"),
                           "--max-iters", "4")
        assert code == EXIT_DATA
        assert "num_classes 2 differs from the checkpoint's 4" in err
        assert not (tmp_path / "resumed" / "checkpoint.hgck").exists()

    @pytest.mark.parametrize("flags, message", [
        (("--hidden", "64"), "hidden 64 differs"),
        (("--num-layers", "2"), "num_layers 2 differs"),
        (("--fusion", "gcn"), "fusion 'gcn' differs"),
        (("--pooling", "max"), "pooling 'max' differs"),
        (("--modality", "audio_only"), "modality 'audio_only' differs"),
        (("--config", "CONFIG"), "--resume cannot be combined with --config"),
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
        assert not (tmp_path / "resumed" / "checkpoint.hgck").exists()

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

    def test_missing_checkpoint(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--checkpoint",
                           str(tmp_path / "ghost.hgck"),
                           "--data", str(tmp_path / "m.json"))
        assert code == EXIT_DATA

    def test_dimension_mismatch_names_dims(self, capsys, tmp_path):
        ckpt, _ = self._train(capsys, tmp_path)
        other = gen_dataset(capsys, tmp_path, name="wide", n_items=8,
                            n_audio=4, n_video=6, d_audio=9, d_video=7, seed=8,
                            mode="audio_only_solvable")
        code, _, err = run(capsys, "eval", "--checkpoint", str(ckpt),
                           "--data", str(other))
        assert code == EXIT_DATA
        assert "9" in err and "5" in err  # both widths named

    def test_class_count_mismatch_names_both_counts(self, capsys, tmp_path):
        four = gen_dataset(capsys, tmp_path, name="four", n_items=16, n_audio=4,
                           n_video=6, d_audio=5, d_video=7, seed=4)
        two = gen_dataset(capsys, tmp_path, name="two", n_items=8, n_classes=2,
                          n_audio=4, n_video=6, d_audio=5, d_video=7, seed=4)
        code, _, _ = run(capsys, "train", "--config", str(write_config(tmp_path, max_iters=2)),
                         "--data", str(four), "--out", str(tmp_path / "run"))
        assert code == EXIT_OK
        code, _, err = run(capsys, "eval", "--data", str(two),
                           "--checkpoint", str(tmp_path / "run" / "checkpoint.hgck"))
        assert code == EXIT_DATA
        assert "2 classes, the checkpoint's num_classes is 4" in err


class TestInspectGraph:
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


def _header(**changes) -> bytes:
    """A well-formed checkpoint header without parameters, one field changed.

    Keys of ModelConfig change the header's model_config, other keys the header.
    """
    model_config = dict(d_audio=5, d_video=7, n_audio=4, n_video=6, num_classes=4,
                        hidden=8, num_layers=1, pooling="mean")
    header = {"train_config": TINY_TRAIN, "model_config": model_config, "iteration": 2,
              "adam_step": 2, "rng_state": Rng(0).bit_generator.state, "params": []}
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
        pytest.param(_header(rng_state={}), "state must be for a PCG64", id="rng_state-{}"),
        pytest.param(_header(rng_state=3), "state must be a dict", id="rng_state-3"),
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


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == EXIT_USAGE

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code == EXIT_USAGE
