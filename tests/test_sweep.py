"""tools/sweep.py trains what the bench's desk-train op trains: run as a script on
seeds 1 and 34, it prints seed 1's mAP as the op reports it, and its last line
lists exactly the seeds it printed under the workload's floor."""

import argparse
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def sweep():
    """tools/sweep.py as a module, registered while in use."""
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "tools" / "sweep.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_a_seed_prints_the_bench_ops_map_and_the_floor_line(sweep, tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "sweep.py"), "1,34"],
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    workload = sweep.bench_module("workloads").WORKLOADS["desk-train"]()
    workload.make_inputs(tmp_path, 1)
    op_map = workload.op(workload.setup())[0].quality["map"]
    assert lines[0] == f"seed 1: map {op_map!r}"
    printed = {int(line.split()[1][:-1]): float(line.split()[-1]) for line in lines[:2]}
    under = [seed for seed, value in printed.items() if value < workload.map_floor]
    assert lines[2:] == [f"under {workload.map_floor}: {' '.join(map(str, under)) or 'none'}"]


@pytest.mark.parametrize("text, seeds", [("1-3", [1, 2, 3]), ("34", [34]),
                                         ("5-6,1", [5, 6, 1])])
def test_a_seed_list_reads_ranges_in_order(sweep, text, seeds):
    assert sweep.seed_list(text) == seeds


@pytest.mark.parametrize("text", ["", "1-x", "3,3", "1-3,2", "-1", "4-2", "1,4-2"])
def test_a_bad_seed_list_is_a_usage_error(sweep, text):
    with pytest.raises(argparse.ArgumentTypeError):
        sweep.seed_list(text)
