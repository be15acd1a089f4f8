"""A committed checkpoint, manifest and containers still load, score and resume.

`tests/data/checkpoint_v1/` was written by `write_fixture` below; it holds
four tiny `fusion_required` items and the checkpoint of a GAT model trained
on them for four iterations. The files are never rewritten by the tests, so
a change to the checkpoint or container format that cannot read them fails
here. Regenerate them (and the pinned values) only on a deliberate format
change: `PYTHONPATH=src python tests/test_checkpoint_fixture.py tests/data/checkpoint_v1`.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from avhgnn.data import SynthSpec, generate_synthetic, load_dataset
from avhgnn.graph import EdgeRule, EdgeRules
from avhgnn.metrics import score_matrix
from avhgnn.training import TrainConfig, load_checkpoint, train

FIXTURE = Path(__file__).parent / "data" / "checkpoint_v1"

# Scores of the four items (rows) and two classes (columns).
SCORES = np.array([
    [0.5162778496742249, 0.5915232300758362],
    [0.4670013189315796, 0.5272347331047058],
    [0.6553924679756165, 0.4176085889339447],
    [0.4464433193206787, 0.45751073956489563],
])
# The same after a resume for iteration 5, and that iteration's loss.
RESUMED_SCORES = np.array([
    [0.4857493042945862, 0.5955650806427002],
    [0.4618140459060669, 0.5312856435775757],
    [0.5925850868225098, 0.4569457173347473],
    [0.4230188727378845, 0.474446177482605],
])
RESUMED_LOSS = 0.37413138151168823


def write_fixture(out_dir):
    manifest = generate_synthetic(
        SynthSpec(n_items=4, n_audio=3, n_video=5, d_audio=2, d_video=3, n_classes=2,
                  seed=7), out_dir)
    cfg = TrainConfig(hidden=4, num_layers=2, max_iters=4, batch_size=2, warmup_iters=1,
                      lr=0.05, seed=5, rules=EdgeRules(audio=EdgeRule(1, 1),
                                                       video=EdgeRule(2, 1),
                                                       cross=EdgeRule(1, 1)))
    train(load_dataset(manifest, cfg.rules), cfg).save(Path(out_dir) / "checkpoint.hgck")


def _load():
    ckpt = load_checkpoint(FIXTURE / "checkpoint.hgck")
    return ckpt, load_dataset(FIXTURE / "manifest.json", ckpt.train_config.rules)


def test_the_committed_checkpoint_loads_and_scores_its_pinned_values():
    ckpt, items = _load()
    assert (ckpt.iteration, ckpt.model_config.fusion, len(items)) == (4, "gat", 4)
    scores, labels = score_matrix(ckpt.build_model(), items)
    np.testing.assert_allclose(scores, SCORES, rtol=0, atol=1e-6)
    np.testing.assert_array_equal(labels, [[1, 0], [0, 1], [1, 0], [0, 1]])


def test_the_committed_checkpoint_resumes_for_one_iteration():
    ckpt, items = _load()
    result = train(items, replace(ckpt.train_config, max_iters=5), resume=ckpt)
    assert [row["iteration"] for row in result.history] == [5]
    assert abs(result.history[0]["loss"] - RESUMED_LOSS) <= 1e-6
    np.testing.assert_allclose(score_matrix(result.model, items)[0], RESUMED_SCORES,
                               rtol=0, atol=1e-6)


if __name__ == "__main__":
    write_fixture(sys.argv[1])
