"""Mutation sampler: which small faults in one module does the test suite miss?

Lists a module's mutation sites with the stdlib `ast` module (a comparison
flipped, + and - or * and / swapped, in an expression or an augmented
assignment, an integer plus 1, a `not` dropped), samples some of them with a
seed, and runs the suite against each mutant in a copy of the repository:
`pytest -x` without A3 first, then A3 alone only if the rest passed, since A3
is the slowest test. A mutant is killed when a test fails, survives when all
pass, and times out past --timeout seconds. Each edit is made in the source
text, so everything else in the file keeps its bytes. Run it from the
repository root:

    python tools/mutate.py src/avhgnn/training.py --sample 15 --seed 1
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
A3 = "tests/test_acceptance.py::test_a3_fusion_advantage_ordering"
SWAPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
         ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
         ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"),
         ast.Div: ("/", "*")}
IGNORED = ("__pycache__", ".pytest_cache", ".hypothesis", ".git", "out")


@dataclass(frozen=True)
class Site:
    """Replace `old` by `new` on line `line` (1-based), at byte `col` or after it."""

    line: int
    col: int
    end: int  # search `old` in [col, end) of the line's bytes
    old: str
    new: str

    def fits(self, lines: list) -> bool:
        return lines[self.line - 1].encode().find(self.old.encode(), self.col, self.end) >= 0

    def apply(self, source: str) -> str:
        lines = source.splitlines(keepends=True)
        text = lines[self.line - 1].encode()
        at = text.index(self.old.encode(), self.col, self.end)
        lines[self.line - 1] = (text[:at] + self.new.encode()
                                + text[at + len(self.old):]).decode()
        return "".join(lines)

    def describe(self, path: Path, source: str) -> str:
        code = source.splitlines()[self.line - 1].strip()
        return f"{path.name}:{self.line}  `{self.old}` -> `{self.new}`  in: {code}"


def _between(left, right, op) -> list:
    """The swap of `op`'s token, which lies between `left` and `right` on one line."""
    if type(op) not in SWAPS or left.end_lineno != right.lineno:
        return []
    old, new = SWAPS[type(op)]
    return [Site(right.lineno, left.end_col_offset, right.col_offset, old, new)]


def sites(source: str) -> list:
    """Every mutation site of a module's source, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for left, op, right in zip(operands, node.ops, operands[1:]):
                found += _between(left, right, op)
        elif isinstance(node, ast.BinOp):
            found += _between(node.left, node.right, node.op)
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            old, new = SWAPS[type(node.op)]
            if node.target.end_lineno == node.value.lineno:
                found.append(Site(node.value.lineno, node.target.end_col_offset,
                                  node.value.col_offset, old + "=", new + "="))
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and node.lineno == node.end_lineno):
            text = str(node.value)
            if node.end_col_offset - node.col_offset == len(text):  # a plain literal
                found.append(Site(node.lineno, node.col_offset, node.end_col_offset,
                                  text, str(node.value + 1)))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append(Site(node.lineno, node.col_offset, node.col_offset + 4, "not ", ""))
    lines = source.splitlines()
    return sorted((s for s in found if s.fits(lines)), key=lambda s: (s.line, s.col))


def sample(every: list, n: int, seed: int) -> list:
    """`n` of the sites `every` (all of them if fewer), drawn with `seed`, in source order."""
    return sorted(random.Random(seed).sample(every, min(n, len(every))),
                  key=lambda s: (s.line, s.col))


def run_suite(copy: Path, timeout: float) -> tuple:
    """('killed' | 'survived' | 'timeout', seconds) for the copy's current sources."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    start = time.monotonic()
    for selection in (["--deselect", A3, "tests"], [A3]):
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, timeout - (time.monotonic() - start)))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout", time.monotonic() - start
        if code != 0:
            return "killed", time.monotonic() - start
    return "survived", time.monotonic() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", type=Path, help="a module under src/, e.g. src/avhgnn/cli.py")
    parser.add_argument("--sample", type=int, default=15, help="mutants to run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per mutant")
    parser.add_argument("--list", action="store_true", help="print the sample, run nothing")
    args = parser.parse_args(argv)
    try:
        code = run(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader went away: exit as SIGPIPE would, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def run(args) -> int:
    """Print the sample, and unless --list, each mutant's outcome and the tally."""
    module = args.module.resolve()
    source = module.read_text()
    every = sites(source)
    chosen = sample(every, args.sample, args.seed)
    print(f"{module.name}: {len(every)} sites, {len(chosen)} sampled with seed {args.seed}")
    if args.list:
        for site in chosen:
            print("  " + site.describe(module, source))
        return 0

    outcomes = {"killed": [], "survived": [], "timeout": []}
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*IGNORED))
        target = copy / module.relative_to(ROOT)
        for site in chosen:
            target.write_text(site.apply(source))
            outcome, seconds = run_suite(copy, args.timeout)
            outcomes[outcome].append(site)
            print(f"{outcome:9s} {seconds:6.1f} s  {site.describe(module, source)}", flush=True)
        target.write_text(source)
    print(", ".join(f"{name} {len(found)}" for name, found in outcomes.items())
          + f" of {len(chosen)}")
    for site in outcomes["survived"]:
        print("survivor: " + site.describe(module, source))
    return 0


if __name__ == "__main__":
    sys.exit(main())
