"""The README's library example runs as documented, so the API it shows cannot
drift from the code without a failing test."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def test_the_library_example_prints_a_probability_row_and_one_map_per_layer():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
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
