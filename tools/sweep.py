"""Seed sweep of the bench's desk-train workload: its held-out mAP per seed.

For each seed, builds the `desk-train` workload of this checkout's
`bench/workloads.py` (imported, so the sweep trains what the bench trains),
makes its inputs, loads and splits them, and trains once as the bench's op
does. Run as a script, it pins BLAS and imports the library from this
checkout's `src/` through `bench/run.py`, as a bench run does. It prints
`seed N: map X`, X the final validation's mAP at full precision, and last
the seeds under the workload's mAP floor:

    python tools/sweep.py 1-60
    python tools/sweep.py 1-3,34
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD = "desk-train"


def seed_list(text: str) -> list:
    """`1-60`, `34` or `1-3,34`: the seeds >= 0 in the order given, each once."""
    seeds = []
    try:
        for part in text.split(","):
            lo, _, hi = part.partition("-")
            span = range(int(lo), int(hi or lo) + 1)
            if not span:
                raise ValueError
            seeds += span
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed list: {text!r}") from None
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"seed list {text!r} repeats a seed")
    return seeds


def bench_module(stem: str):
    """This checkout's bench/<stem>.py as a module, registered while it loads."""
    spec = importlib.util.spec_from_file_location(f"sweep_bench_{stem}",
                                                  ROOT / "bench" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def final_map(workloads, seed: int, workdir: Path) -> float:
    """The held-out mAP after one train() of the workload made from `seed`."""
    workload = workloads.WORKLOADS[WORKLOAD]()
    workload.make_inputs(workdir, seed)
    train_items, val_items = workload.setup()
    result = workloads.training.train(train_items, workload.config, val_items=val_items)
    return result.history[-1]["map"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=seed_list, help="e.g. 1-60 or 1-3,34")
    args = parser.parse_args(argv)
    workloads = bench_module("workloads")
    floor = workloads.WORKLOADS[WORKLOAD]().map_floor
    under = []
    with tempfile.TemporaryDirectory(prefix="sweep-") as tmp:
        for seed in args.seeds:
            value = final_map(workloads, seed, Path(tmp) / str(seed))
            print(f"seed {seed}: map {value!r}", flush=True)
            if not value >= floor:
                under.append(seed)
    print(f"under {floor}: {' '.join(map(str, under)) or 'none'}")
    return 0


if __name__ == "__main__":
    bench_run = bench_module("run")
    for var in bench_run.BLAS_THREAD_VARS:  # numpy reads these when it loads
        os.environ[var] = str(bench_run.BLAS_THREADS)
    bench_run._import_library()
    sys.exit(main())
