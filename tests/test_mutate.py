"""tools/mutate.py lists the same sites and samples the same ones for a fixed
seed, and each sampled site is a mutant that parses and differs from its source:
an unparsable mutant would fail every test, and so be counted as killed."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "avhgnn").glob("*.py"))


@pytest.fixture(scope="module")
def mutate():
    """tools/mutate.py as a module, registered while in use."""
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_the_sample_is_reproducible_and_each_mutant_parses(mutate, module, capsys):
    source = module.read_text()
    every = mutate.sites(source)
    assert every == mutate.sites(source)
    chosen = mutate.sample(every, 15, 1)
    assert chosen == mutate.sample(every, 15, 1) and len(chosen) == min(15, len(every))
    for site in chosen:
        mutant = site.apply(source)
        assert mutant != source
        ast.parse(mutant)
    printed = []
    for _ in range(2):
        assert mutate.main([str(module), "--list", "--sample", "15", "--seed", "1"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert printed[0].splitlines() == [
        f"{module.name}: {len(every)} sites, {len(chosen)} sampled with seed 1",
        *("  " + site.describe(module, source) for site in chosen)]


@pytest.mark.parametrize("buffered", [True, False], ids=["flushed-on-return", "written-in-print"])
def test_a_listing_into_a_closed_stdout_exits_141_silently(buffered):
    """As the cli does: a reader that stops reading ends the listing with a SIGPIPE
    death's 128 + 13 and nothing on stderr, whether the first write is the flush on
    return (a buffered stdout) or the first print (an unbuffered one)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "mutate.py"), str(MODULES[0].parent / "cli.py"),
             "--list"], stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            env=env if buffered else {**env, "PYTHONUNBUFFERED": "1"})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")
