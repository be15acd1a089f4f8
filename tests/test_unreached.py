"""tools/unreached.py, run in a child process on one small test selection, lists
a statement that the selection does not run and not one that it runs, lists no
`def` line or docstring, ends with the count of what it listed, and has taken
its tracer off by the time it returns."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = (ROOT / "src" / "avhgnn" / "metrics.py").read_text().splitlines()
AND_THE_TRACERS = ("import sys, threading; sys.path.insert(0, 'tools'); import unreached; "
                   "code = unreached.main(sys.argv[1:]); "
                   "print(sys.gettrace(), threading.gettrace()); sys.exit(code)")


def listed(text: str) -> str:
    """metrics.py's line holding `text`, as the tool lists it."""
    (number,) = [i for i, line in enumerate(METRICS, 1) if text in line]
    return f"metrics.py:{number}  {METRICS[number - 1].strip()}"


def test_a_selection_lists_what_it_does_not_run_and_then_the_count():
    proc = subprocess.run(
        [sys.executable, "-c", AND_THE_TRACERS, "tests/test_metrics.py",
         "-k", "TestAveragePrecision", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    entries = [line for line in lines if line.startswith("metrics.py:")]
    assert listed('order = np.argsort(-scores, kind="stable")') not in entries  # run
    assert listed("n_neg = labels.size - n_pos") in entries  # roc_auc's, not run
    assert listed("def roc_auc(") not in entries
    assert listed('"""Mann-Whitney AUC') not in entries
    every = [line for line in lines if re.match(r"\w+\.py:\d+  \S", line)]
    assert lines[-2:] == [f"{len(every)} unreached statements in src/avhgnn", "None None"]
