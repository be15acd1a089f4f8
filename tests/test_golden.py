"""Golden bytes: the files a fixed set of CLI runs writes, pinned by sha256.

`run_all` generates a fusion_required dataset (seed 3), trains five desk configs
(hidden 32, 2 layers, 300 iterations, B=8), resumes one to a later iteration,
makes a two-seed run, evaluates every checkpoint, dumps one model's attention and
trains a paper-shape model for 3 iterations, all through `cli.main`, in-process
at the default BLAS thread count; a child process repeats the gat-learned run,
its evaluation and attention dump at one BLAS thread, the bench's count. Each
checkpoint's header and payload are hashed apart. On the machine that made
`data/golden.json` (same numpy, BLAS and architecture) every hash must match;
elsewhere `history.csv`, the eval JSON, `aggregate.json` and the attention CSV
must match within 1e-6. Regenerate, only for a change meant to move the bytes:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

import avhgnn
from avhgnn.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "data" / "golden.json"
TOLERANCE = 1e-6
DESK = ["--hidden", "32", "--num-layers", "2", "--max-iters", "300", "--batch-size", "8"]
RUNS = {  # out dir: (fusion, pooling, modality)
    "gat-learned": ("gat", "learned", "both"),
    "gcn-mean": ("gcn", "mean", "both"),
    "none-max": ("none", "max", "both"),
    "gat-sum-audio": ("gat", "sum", "audio_only"),
    "gat-learned-video": ("gat", "learned", "video_only"),
}
PAPER_SPEC = {"n_items": 33, "n_audio": 40, "n_video": 100, "d_audio": 128,
              "d_video": 1024, "n_classes": 33, "mode": "audio_only_solvable", "seed": 3}


def machine() -> dict:
    """What the bytes of a float run depend on besides the code. The CPU features
    numpy found stand for the BLAS kernel, which a DYNAMIC_ARCH build picks by CPU.
    A numpy too old to report its BLAS or features gets a fingerprint of its own."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except (TypeError, KeyError, ImportError):  # numpy 1.x
        blas, features = "unknown", {}
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine(),
            "cpu_features": " ".join(sorted(k for k, on in features.items() if on))}


def cli(*argv) -> str:
    """`main(argv)`'s stdout; any exit but 0 fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    assert code == EXIT_OK, f"{argv} exited {code}"
    return out.getvalue()


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _numbers(name: str, text: str):
    """The values a cross-machine check compares: a CSV by column, JSON as parsed."""
    if not name.endswith(".csv"):
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text)))
    return {col: [None if math.isnan(v := float(row[i])) else v for row in rows[1:]]
            for i, col in enumerate(rows[0])}


def run_all(tmp: Path, runs=RUNS, rest: bool = True) -> dict:
    """Every run above in `tmp`: {"machine", "sha256", "numbers"}. `runs` may name a
    subset of RUNS that holds gat-learned; `rest` False leaves out the resume, the
    two-seed run and the paper-shape run."""
    hashes, numbers = {}, {}

    def record(name: str, data: bytes):
        if name.endswith(".hgck"):
            (header_len,) = struct.unpack("<I", data[8:12])
            hashes[name + ":header"] = _sha(data[:12 + header_len])
            hashes[name + ":payload"] = _sha(data[12 + header_len:])
            return
        hashes[name] = _sha(data)
        if name.endswith((".csv", ".json")) and "config" not in name:
            numbers[name] = _numbers(name, data.decode())

    def record_dir(name: str):
        for path in sorted((tmp / name).iterdir()):
            record(f"{name}/{path.name}", path.read_bytes())

    def gen(name: str, **spec):
        (tmp / f"{name}.json").write_text(json.dumps(spec))
        cli("gen-synth", "--spec", tmp / f"{name}.json", "--out", tmp / name)
        files = sorted((tmp / name).iterdir())
        hashes[f"{name}/*"] = _sha(*(p.name.encode() + p.read_bytes() for p in files))
        return tmp / name / "manifest.json"

    def evaluate(ckpt: str, data: Path):
        record(f"{ckpt}:eval.json", cli("eval", "--checkpoint", tmp / ckpt,
                                        "--data", data).encode())

    desk = gen("desk", mode="fusion_required", seed=3)
    for out, (fusion, pooling, modality) in runs.items():
        cli("train", "--data", desk, "--out", tmp / out, *DESK, "--fusion", fusion,
            "--pooling", pooling, "--modality", modality)
    if rest:
        cli("train", "--data", desk, "--out", tmp / "resumed", "--max-iters", "360",
            "--resume", tmp / "gat-learned" / "checkpoint.hgck")
        cli("train", "--data", desk, "--out", tmp / "seeds", *DESK, "--max-iters", "100",
            "--seeds", "1,2")
    for out in [*runs, *(["resumed", "seeds"] if rest else [])]:
        record_dir(out)
        for ckpt in sorted((tmp / out).glob("*.hgck")):
            evaluate(f"{out}/{ckpt.name}", desk)
    record("gat-learned:attention.csv",
           cli("dump-attention", "--checkpoint", tmp / "gat-learned" / "checkpoint.hgck",
               "--data", desk, "--item", "synth-0007").encode())
    if not rest:
        return {"machine": machine(), "sha256": hashes, "numbers": numbers}

    paper = gen("paper", **PAPER_SPEC)
    cli("train", "--data", paper, "--out", tmp / "paper", "--max-iters", "3",
        "--batch-size", "8")
    record_dir("paper")
    evaluate("paper/checkpoint.hgck", paper)
    return {"machine": machine(), "sha256": hashes, "numbers": numbers}


def _close(got, want, where: str):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and isinstance(got, float):
        assert abs(got - want) <= TOLERANCE, f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _check(got: dict, golden: dict):
    """`got`'s hashes equal the golden file's on its machine; elsewhere its numbers
    are within TOLERANCE. `got` may hold a subset of the golden entries."""
    assert got["sha256"].keys() <= golden["sha256"].keys()
    if got["machine"] == golden["machine"]:
        moved = [name for name, sha in got["sha256"].items() if golden["sha256"][name] != sha]
        assert not moved, f"bytes differ from {GOLDEN.name}: {moved}"
    for name, numbers in got["numbers"].items():
        _close(numbers, golden["numbers"][name], name)


def test_cli_outputs_match_the_golden_file(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = run_all(tmp_path)
    assert got["sha256"].keys() == golden["sha256"].keys()
    _check(got, golden)


# Runs the gat-learned subset of run_all in argv[1] and prints its record and the
# process's thread count as JSON.
_ONE_THREAD_CHILD = """
import json, sys
from pathlib import Path
from test_golden import RUNS, run_all
got = run_all(Path(sys.argv[1]), {"gat-learned": RUNS["gat-learned"]}, rest=False)
status = open("/proc/self/status").read().split()
print(json.dumps(got | {"threads": int(status[status.index("Threads:") + 1])}))
"""


def test_gat_learned_outputs_match_the_golden_file_at_one_blas_thread(tmp_path):
    # OpenBLAS fixes its thread count as it loads, so the run is in a child.
    src = Path(avhgnn.__file__).parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), str(Path(__file__).parent), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _ONE_THREAD_CHILD, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got.pop("threads") == 1, "the child runs more than one thread: the setting did not take"
    assert "gat-learned/checkpoint.hgck:payload" in got["sha256"]
    _check(got, json.loads(GOLDEN.read_text()))


def _dump(record: dict) -> str:
    """JSON with one line per entry, so a regeneration's diff names what moved."""
    return "{\n" + ",\n".join(
        f"{json.dumps(key)}: {{\n" + ",\n".join(
            f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
            for k, v in sorted(section.items())) + "\n}"
        for key, section in sorted(record.items())) + "\n}\n"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(_dump(run_all(Path(tmp))))
    print(f"wrote {GOLDEN}", file=sys.stderr)
