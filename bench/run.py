"""Benchmark for avhgnn: one workload per run, timed from outside the library.

    python3 bench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the library from `src/`
there and writes only under `bench/out/`. With `--trace 0` it measures the
end-to-end metrics with no wrappers installed. With `--trace 1` it
alternates plain and traced ops and reports per-layer numbers from the
spans (see spans.py) plus the tracing overhead. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit code 0 when every op and check passed, 1 when one failed, 2 when the
run could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread: deterministic, and on a 2-vCPU VM shared with other
# tenants it is less exposed to their load than two threads.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 7        # setup_s is the median of these
MIN_STEP_SAMPLES = 100   # p90 needs at least 10 samples beyond it
MAX_RUN_FACTOR = 4       # stop after this many --seconds even if short of samples
MIN_TRACED_OPS = 2       # per kind (plain, traced) in a traced run

END_TO_END = (
    ("graphs_per_s", "1/s"), ("step_ms_p50", "ms"), ("step_ms_p90", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


def _import_library():
    """Import avhgnn from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "avhgnn" / "__init__.py").is_file():
        print(f"error: no library at {src / 'avhgnn'}; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import avhgnn
    if Path(avhgnn.__file__).resolve().parent != (src / "avhgnn").resolve():
        print(f"error: imported avhgnn from {avhgnn.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def environment(args, probe_kind: str) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "speed_probe": probe_kind,
    }


# -- measurement ---------------------------------------------------------------------


class Run:
    """Everything one benchmark run measured, before it becomes metrics."""

    def __init__(self):
        self.setups = []      # (raw seconds, factor, trace window or None)
        self.ops = []         # (OpResult, factor, trace window or None)
        self.finish = None    # (trace window, factor) of the end-of-run step
        self.attempted = 0
        self.failed = 0
        self.errors = []


def _fail(run: Run, what: str, exc: BaseException):
    run.failed += 1
    run.errors.append(f"{what}: {exc}")
    print(f"FAILED {what}: {exc}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def measure(workload, seconds: float, trace: bool, workdir: Path) -> Run:
    from spans import Tracer
    from speed import SpeedProbe

    probe = SpeedProbe(workload.probe)
    tracer = Tracer() if trace else None
    run = Run()

    def traced(window_on: bool):
        if window_on:
            return tracer, tracer.mark()
        return contextlib.nullcontext(), None

    before = probe.sample()
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        ctx, mark = traced(trace)
        start = time.perf_counter()
        try:
            with ctx:
                state = workload.setup()
        except Exception as exc:  # a set-up that raises counts as a failed op
            run.attempted += 1
            _fail(run, f"set-up {len(run.setups) + 1}", exc)
            return run
        raw = time.perf_counter() - start
        after = probe.sample()
        run.setups.append((raw, probe.factor(before, after),
                           tracer.window(mark) if mark else None))
        before = after

    run_start = time.perf_counter()
    last = None
    samples = 0
    while True:
        is_traced = trace and len(run.ops) % 2 == 1
        gc.collect()
        ctx, mark = traced(is_traced)
        run.attempted += 1
        try:
            with ctx:
                result, last = workload.op(state)
        except Exception as exc:  # an op that raises counts as failed; stop there
            _fail(run, f"op {run.attempted}", exc)
            break
        after = probe.sample()
        run.ops.append((result, probe.factor(before, after),
                        tracer.window(mark) if mark else None))
        before = after
        if not is_traced:
            samples += len(result.steps_s)
        elapsed = time.perf_counter() - run_start
        if elapsed >= MAX_RUN_FACTOR * seconds and (not trace or len(run.ops) >= 2):
            break
        if elapsed < seconds:
            continue
        if trace and len(run.ops) >= 2 * MIN_TRACED_OPS:
            break
        if not trace and samples >= MIN_STEP_SAMPLES:
            break

    if not run.failed:
        gc.collect()
        ctx, mark = traced(trace)
        run.attempted += 1
        try:
            with ctx:
                workload.finish(state, last)
        except Exception as exc:
            _fail(run, "end-of-run check", exc)
        after = probe.sample()
        if mark:
            run.finish = (tracer.window(mark), probe.factor(before, after))
    return run


# -- end-to-end metrics -------------------------------------------------------------


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _graphs_per_s(ops) -> float:
    """Median over ops of graphs per (scaled) second; ops are (OpResult, factor)."""
    return statistics.median(r.graphs / (r.seconds * k) for r, k in ops)


def end_to_end(run: Run, scaled: bool = True) -> dict:
    """Gated metrics from the plain ops, each region's time scaled by its
    probe factor (or left raw with scaled=False)."""
    ops = [(r, k if scaled else 1.0) for r, k, window in run.ops if window is None]
    steps = [s * k for r, k in ops for s in r.steps_s]
    return {
        "graphs_per_s": _graphs_per_s(ops),
        "step_ms_p50": 1e3 * _percentile(steps, 50),
        "step_ms_p90": 1e3 * _percentile(steps, 90),
        "setup_s": statistics.median(raw * (k if scaled else 1.0) for raw, k, _ in run.setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "step_samples": len(steps),
    }


def quality(run: Run) -> dict:
    """Quality numbers of the last plain op; reported, not gated."""
    plain = [(r, k) for r, k, window in run.ops if window is None]
    result, k = plain[-1]
    out = dict(result.quality)
    if out.get("time_to_target_s") is not None:
        out["time_to_target_s"] *= k
    return out


# -- per-layer metrics ---------------------------------------------------------------


EXACT_COUNTS = ("tensor.ops_per_graph", "tensor.matmul_mflop_per_graph",
                "tensor.gc_collections", "data.mb_read", "graph.adjacency_kb_per_item")

PER_LAYER_UNITS = {
    "tensor.ops_per_graph": "count",
    "tensor.matmul_mflop_per_graph": "Mflop",
    "tensor.gc_pause_ms": "ms",
    "tensor.gc_collections": "count",
    "layers.forward_ms": "ms",
    "layers.gcn_ms": "ms",
    "layers.fusion_ms": "ms",
    "layers.readout_ms": "ms",
    "metrics.score_ms": "ms",
    "metrics.ap_auc_ms": "ms",
    "data.load_dataset_s": "s",
    "data.read_container_ms": "ms",
    "data.mb_read": "MiB",
    "graph.build_ms": "ms",
    "graph.adjacency_kb_per_item": "KiB",
    "training.load_checkpoint_ms": "ms",
    "trace.overhead_pct": "%",
}
# Layers only the train workloads call. Reported with the rest, but not in
# BENCHMARK.json, whose per-layer metrics every workload must print.
TRAIN_ONLY_UNITS = {
    "tensor.backward_ms": "ms",
    "training.loss_ms": "ms",
    "training.adam_step_ms": "ms",
    "training.save_checkpoint_ms": "ms",
}


def _scaled_times(windows_and_factors) -> dict:
    """name -> calls, total and self seconds summed over windows, each scaled."""
    out: dict = {}
    for window, k in windows_and_factors:
        for name, row in window.layer_times().items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            acc["calls"] += row["calls"]
            acc["total_s"] += row["total_s"] * k
            acc["self_s"] += row["self_s"] * k
    return out


def _op_counts(window) -> dict:
    c = window.counts
    if c.get("backward_graphs"):
        ops_per_graph = c["backward_tape_ops"] / c["backward_graphs"]
    else:
        ops_per_graph = c["forward_tape_ops"] / c["forward_graphs"]
    return {
        "tensor.ops_per_graph": ops_per_graph,
        "tensor.matmul_mflop_per_graph": c.get("matmul_flops", 0) / c["forward_graphs"] / 1e6,
        "tensor.gc_collections": c.get("gc_collections", 0),
        "gc_by_generation": [c.get(f"gc_gen{g}", 0) for g in range(3)],
    }


def _setup_counts(window) -> dict:
    c = window.counts
    return {
        "data.mb_read": c["container_bytes"] / c["loads"] / 2**20,
        "graph.adjacency_kb_per_item": c["adjacency_bytes"] / c["graphs_built"] / 2**10,
    }


def per_layer(run: Run) -> tuple[dict, dict]:
    """(per-layer metrics, detail). Raises CheckFailed if exact counts drift."""
    from workloads import CheckFailed

    traced_ops = [(w, k) for _, k, w in run.ops if w is not None]
    setups = [(w, k) for _, k, w in run.setups]
    ops_t = _scaled_times(traced_ops)
    setup_t = _scaled_times(setups)
    finish_t = _scaled_times([run.finish]) if run.finish else {}

    op_counts = [_op_counts(w) for w, _ in traced_ops]
    setup_counts = [_setup_counts(w) for w, _ in setups]
    for rows, what in ((op_counts, "traced op"), (setup_counts, "setup")):
        for i, row in enumerate(rows[1:], start=2):
            if row != rows[0]:
                raise CheckFailed(f"exact counts of {what} {i} drift from the first: "
                                  f"{row} != {rows[0]}")

    def per(table, name, field, per_calls_of=None, required=True):
        """Milliseconds of `field` per call (of `per_calls_of` if given)."""
        row = table.get(name)
        if row is None:
            if required:
                raise CheckFailed(f"the traced run never called {name}")
            return None
        calls = table[per_calls_of]["calls"] if per_calls_of else row["calls"]
        return 1e3 * row[field] / calls

    graphs = "layers.forward"
    load_table = finish_t if "training.load_checkpoint" in finish_t else setup_t
    plain = end_to_end(run)["graphs_per_s"]
    traced_rate = _graphs_per_s([(r, k) for r, k, w in run.ops if w is not None])
    metrics = {
        **op_counts[0],
        "tensor.gc_pause_ms": 1e3 * ops_t["tensor.gc"]["total_s"] / len(traced_ops)
        if "tensor.gc" in ops_t else 0.0,
        "layers.forward_ms": per(ops_t, graphs, "total_s"),
        "layers.gcn_ms": per(ops_t, "layers.gcn", "self_s", graphs),
        "layers.fusion_ms": per(ops_t, "layers.fusion", "self_s", graphs),
        "layers.readout_ms": per(ops_t, graphs, "self_s"),
        "metrics.score_ms": per(ops_t, "metrics.score", "self_s"),
        "metrics.ap_auc_ms": per(ops_t, "metrics.ap_auc", "self_s"),
        "data.load_dataset_s": per(setup_t, "data.load_dataset", "total_s") / 1e3,
        "data.read_container_ms": per(setup_t, "data.read_container", "self_s"),
        **setup_counts[0],
        "graph.build_ms": per(setup_t, "graph.build", "self_s"),
        "training.load_checkpoint_ms": per(load_table, "training.load_checkpoint", "self_s"),
        "trace.overhead_pct": 100.0 * (plain / traced_rate - 1.0),
    }
    train_only = {
        "tensor.backward_ms": per(ops_t, "tensor.backward", "self_s", required=False),
        "training.loss_ms": per(ops_t, "training.loss", "self_s", required=False),
        "training.adam_step_ms": per(ops_t, "training.adam_step", "self_s", required=False),
        "training.save_checkpoint_ms": per(finish_t, "training.save_checkpoint", "self_s",
                                           required=False),
    }
    detail = {
        "train_only": train_only,
        "op_counts": traced_ops[0][0].counts,
        "setup_counts": setups[0][0].counts,
        "op_layer_times": ops_t,
        "setup_layer_times": setup_t,
        "finish_layer_times": finish_t,
        "traced_ops": len(traced_ops),
        "plain_graphs_per_s": plain,
        "traced_graphs_per_s": traced_rate,
    }
    return metrics, detail


def check_counts_repeat(metrics: dict, workload: str, seed: int):
    """Exact counts must equal those of any earlier traced run of this seed."""
    from workloads import CheckFailed

    path = OUT_DIR / "counts" / f"{workload}-seed{seed}.json"
    counts = {name: metrics[name] for name in EXACT_COUNTS}
    if path.is_file():
        previous = json.loads(path.read_text())
        if previous != counts:
            raise CheckFailed(f"exact counts drift from an earlier run of this seed: "
                              f"{counts} != {previous} ({path})")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1))


def write_spans(run: Run, path: Path):
    """Spans of every setup, the first traced op and the end-of-run step, as TSV."""
    windows = [w for _, _, w in run.setups]
    windows += [w for _, _, w in run.ops if w is not None][:1]
    if run.finish is not None:
        windows.append(run.finish[0])
    with open(path, "w") as f:
        f.write("index\tname\tstart_s\tend_s\tparent\n")
        for window in windows:
            for index, name, start, end, parent in window.rows():
                f.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


# -- entry point --------------------------------------------------------------------


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # numpy reads these when it loads, which happens first in _import_library.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    _import_library()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    env = environment(args, workload.probe)
    print("env: " + json.dumps(env, sort_keys=True), flush=True)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload.make_inputs(workdir, args.seed)
        run = measure(workload, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"env": env, "attempted": run.attempted, "failed": run.failed,
              "errors": run.errors}
    plain_ops = [r for r, _, w in run.ops if w is None]
    if plain_ops:
        e2e = end_to_end(run)
        detail.update(end_to_end=e2e, raw=end_to_end(run, scaled=False), quality=quality(run),
                      factors=[k for _, k, _ in run.ops],
                      setup_factors=[k for _, k, _ in run.setups])
        print_report(args.workload, workload.kind, run, e2e, detail["raw"], detail["quality"])

    metrics = None
    if not run.failed and args.trace:
        from workloads import CheckFailed
        try:
            metrics, layer_detail = per_layer(run)
            check_counts_repeat(metrics, args.workload, args.seed)
        except CheckFailed as exc:
            _fail(run, "exact counts", exc)
        else:
            detail.update(per_layer=metrics, **layer_detail)
            print_layers(metrics, layer_detail["train_only"])
            write_spans(run, stem.with_name(stem.name + "-spans.tsv"))
            metrics = _metric_block(metrics, PER_LAYER_UNITS)
    elif not run.failed:
        metrics = _metric_block(e2e, dict(END_TO_END))
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1, default=str))

    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics or {}}))
    return 0 if correct else 1


def print_report(name, kind, run, e2e, raw, qual):
    attempted = max(run.attempted, 1)
    throughput = "train_graphs_per_s" if kind == "train" else "eval_graphs_per_s"
    step = "iter_ms" if kind == "train" else "item_ms"
    lines = [
        (throughput, e2e["graphs_per_s"], raw["graphs_per_s"], "1/s", "graphs_per_s"),
        (f"{step}_p50", e2e["step_ms_p50"], raw["step_ms_p50"], "ms", "step_ms_p50"),
        (f"{step}_p90", e2e["step_ms_p90"], raw["step_ms_p90"], "ms", "step_ms_p90"),
        ("setup_s", e2e["setup_s"], raw["setup_s"], "s", "setup_s"),
        ("peak_rss_mb", e2e["peak_rss_mb"], raw["peak_rss_mb"], "MB", "peak_rss_mb"),
    ]
    print(f"{name}: {len(run.ops)} ops, {e2e['step_samples']} step samples "
          f"(p90 has {e2e['step_samples'] // 10} beyond it)")
    print(f"  {'metric':<22}{'normalised':>14}{'raw':>14}  unit  gated as")
    for label, value, raw_value, unit, gated in lines:
        print(f"  {label:<22}{value:14.4f}{raw_value:14.4f}  {unit:<5} {gated}")
    for label, unit in (("map", ""), ("final_loss", ""), ("time_to_target_s", "s")):
        if label in qual:
            value = qual[label]
            text = "not reached" if value is None else f"{value:.6g}"
            print(f"  {label:<22}{text:>14}{'':>14}  {unit:<5} -")
    print(f"  {'fail_share':<22}{run.failed / attempted:14.4f}{'':>14}  {'':<5} -")


def print_layers(metrics, train_only):
    print("per-layer (times normalised):")
    for name, unit in {**PER_LAYER_UNITS, **TRAIN_ONLY_UNITS}.items():
        value = metrics[name] if name in metrics else train_only[name]
        text = "not called" if value is None else f"{value:.6f}"
        print(f"  {name:<32}{text:>16}  {unit}")


if __name__ == "__main__":
    sys.exit(main())
