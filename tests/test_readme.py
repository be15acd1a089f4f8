"""The README's library example runs as documented, and its defaults and exit
codes are the code's, so neither can drift from the code without a failing test."""

import os
import re
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from avhgnn import cli
from avhgnn.data import SynthSpec
from avhgnn.layers import ModelConfig
from avhgnn.training import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()

# The phrases of the Defaults section, each with the fields whose defaults it states.
MODEL_PHRASES = ["{num_layers} layers", "hidden size {hidden}", "fusion (`{fusion}`)",
                 "{pooling} pooling", "modality `{modality}`"]
TRAIN_PHRASES = MODEL_PHRASES + [
    "lr {lr}", "{warmup_iters} linear warmup", "x{decay_factor} decay at iteration "
    "{decay_at_iter}", "focal gamma {gamma}", "batch size {batch_size}",
    "max_iters {max_iters}", "eval_every {eval_every}", "val_fraction {val_fraction}",
    "seed {seed}", "audio span {rules.audio.span} / dilation {rules.audio.dilation}",
    "video span {rules.video.span} / dilation {rules.video.dilation}",
    "cross-modal span {rules.cross.span} / dilation {rules.cross.dilation}"]
SYNTH_PHRASES = ["{n_items} items", "{n_audio} audio and {n_video} video nodes",
                 "{d_audio} audio and {d_video} video dims", "{n_classes} classes",
                 "noise_sigma {noise_sigma}", "mode `{mode}`", "seed {seed}"]


def test_the_library_example_prints_a_probability_row_and_one_map_per_layer():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    proc = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    *probs, layers = proc.stdout.splitlines()
    row = re.fullmatch(r"\[\[(.*)\]\]", " ".join(probs))
    assert row, proc.stdout
    values = np.array(row.group(1).split(), dtype=float)
    assert values.shape == (4,) and ((values > 0) & (values < 1)).all()
    assert layers == "2"


@pytest.mark.parametrize("record, phrases", [
    (TrainConfig, TRAIN_PHRASES), (ModelConfig, MODEL_PHRASES), (SynthSpec, SYNTH_PHRASES)])
def test_the_defaults_section_states_every_default(record, phrases):
    defaults = {f.name: f.default if f.default_factory is MISSING else f.default_factory()
                for f in fields(record)
                if f.default is not MISSING or f.default_factory is not MISSING}
    assert {m for p in phrases for m in re.findall(r"{(\w+)", p)} == defaults.keys()
    values = {k: f"{v:g}" if isinstance(v, float) else v for k, v in defaults.items()}
    section = " ".join(README.split("\n## Defaults\n")[1].split("\n## ")[0].split())
    for phrase in phrases:
        assert phrase.format(**values) in section


def test_the_exit_codes_are_the_documented_literals():
    assert (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC,
            cli.EXIT_BROKEN_PIPE) == (0, 1, 2, 3, 141)
    stated = r"Exit codes: 0 success, 1 usage.*?, 2 data.*?, 3 numeric failure, 141 "
    for text in (README, cli.__doc__):
        assert re.search(stated, " ".join(text.split())), text
