"""The benchmark's workloads (bench/workloads.py) run on tiny inputs.

The bench drives the library through its public calls: `train` and the
fields of its `TrainResult`, `save_checkpoint` with positional arguments,
`load_checkpoint`, `build_model` and a per-item `evaluate`. Running each
workload's make_inputs, setup, two ops and finish here makes a library
change that breaks one of those calls fail the tests, not the next bench run.
The traced run (bench/spans.py) patches library functions by name; running
the tiny workloads under its Tracer makes a rename fail here too, not only a
`--trace 1` bench run.
"""

import importlib.util
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from avhgnn.graph import EdgeRules, build_hetero_graph

ROOT = Path(__file__).resolve().parents[1]


def _bench_module(stem):
    """bench/<stem>.py as a module, registered as bench_<stem> while in use."""
    spec = importlib.util.spec_from_file_location(f"bench_{stem}",
                                                  ROOT / "bench" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    yield from _bench_module("workloads")


@pytest.fixture(scope="module")
def spans():
    yield from _bench_module("spans")


TINY = dict(mode="fusion_required", n_items=16, d_audio=5, d_video=6, n_classes=2)


def _tiny_train(workloads):
    config = dict(lr=0.005, warmup_iters=2, hidden=8, num_layers=1, batch_size=4,
                  max_iters=4, eval_every=2, pooling="learned", fusion="gat",
                  modality="both")
    return workloads.TrainWorkload("tiny-train", probe="interp",
                                   spec=dict(TINY, n_audio=4, n_video=6),
                                   config=config, map_floor=None)


def _tiny_eval(workloads):
    return workloads.EvalWorkload(
        "tiny-eval", probe="blas", lengths=((2, 5), (4, 10)), spec=TINY,
        model=dict(hidden=8, num_layers=2, fusion="gat", pooling="mean"))


def _run(workload, workdir):
    workload.make_inputs(workdir, seed=1)
    state = workload.setup()
    first, last = workload.op(state)
    second, last = workload.op(state)
    workload.finish(state, last)
    return state, first, second, last


def test_the_declared_workloads_are_the_benchmarks(workloads):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(w["name"] for w in declared) == sorted(workloads.WORKLOADS)


def test_train_workload(workloads, tmp_path):
    (train_items, val_items), first, second, result = _run(_tiny_train(workloads), tmp_path)
    assert len(train_items) + len(val_items) == 16 and val_items
    for op in (first, second):
        assert op.graphs == 4 * 4 and op.seconds > 0
        assert len(op.steps_s) == 1  # iteration 3: 1 is never counted, 2 and 4 validate
        assert np.isfinite(op.quality["final_loss"])
    assert first.quality == {**second.quality,
                             "time_to_target_s": first.quality["time_to_target_s"]}
    assert result.final_iteration == 4 and result.optimizer.step_count == 4
    assert (tmp_path / "trained.hgck").is_file()


def test_eval_workload(workloads, tmp_path):
    (model, items), first, second, result = _run(_tiny_eval(workloads), tmp_path)
    assert result is None and len(items) == 32
    assert {(it.graph.n_audio, it.graph.n_video) for it in items} == {(2, 5), (4, 10)}
    for op in (first, second):
        assert op.graphs == 32 and len(op.steps_s) == 32
    assert first.quality == second.quality and np.isfinite(first.quality["map"])


def test_a_traced_run_calls_every_span_target(workloads, spans, tmp_path):
    """Under the Tracer, the tiny train workload's set-up, op and finish plus
    the tiny eval op call all the patched names; on exit each patched attribute
    is its original again."""
    train, evaluation = _tiny_train(workloads), _tiny_eval(workloads)
    train.make_inputs(tmp_path / "train", seed=1)
    evaluation.make_inputs(tmp_path / "eval", seed=1)
    eval_state = evaluation.setup()
    patched = [(owner, attr) for _, owner, attr in spans.SPAN_TARGETS]
    patched.append((spans.tensor.ComputeGraph, "matmul"))
    originals = [getattr(owner, attr) for owner, attr in patched]
    with spans.Tracer() as tracer:
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(patched, originals))
        mark = tracer.mark()
        state = train.setup()
        _, result = train.op(state)
        train.finish(state, result)
        windows = [tracer.window(mark)]
        mark = tracer.mark()
        evaluation.op(eval_state)
        windows.append(tracer.window(mark))
    called = {name for window in windows for name in window.layer_times()}
    missing = {name for name, _, _ in spans.SPAN_TARGETS} - called
    assert not missing, f"never called: {sorted(missing)}"
    assert all(getattr(owner, attr) is original
               for (owner, attr), original in zip(patched, originals))


def test_the_graph_count_reads_every_adjacency_array(spans):
    """The traced run's adjacency bytes for one built graph are exactly the bytes of
    the arrays its `structure()` holds, so a change to the graph's arrays shows here."""
    graph = build_hetero_graph(np.zeros((10, 16), np.float32), np.zeros((25, 32), np.float32),
                               EdgeRules.default())
    counts = defaultdict(int)
    spans._count_graph(counts, (), graph)
    assert counts["adjacency_bytes"] == sum(a.nbytes for a in graph.structure())
