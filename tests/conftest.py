"""Shared oracles plus a per-criterion summary for the acceptance suite."""

import re
from functools import partial

import numpy as np
import pytest

from avhgnn.layers import _param
from avhgnn.tensor import Rng

ACCEPTANCE_CRITERIA = {
    "a1": "gradient correctness: full-model analytic grads vs f64 central differences",
    "a2": "oracle equivalence: layers and graph ops vs brute-force references",
    "a3": "fusion-advantage ordering on the cross-modal synthetic task",
    "a4": "audio-only model solves the audio-separable synthetic task",
    "a5": "focal loss at gamma=0 reduces exactly to binary cross-entropy",
    "a6": "metric oracles: AP hand-ranking and AUC exhaustive pair counting",
    "a7": "parameter count of the full-scale config lands in [1.0M, 4.0M]",
    "a8": "learning-rate schedule values at 500/1000/1500",
    "a9": "determinism and bitwise checkpoint round-trip",
    "a10": "update asymmetry: video never reads audio; audio reads video only via fusion",
}

_ACCEPTANCE_PATTERN = re.compile(r"test_acceptance\.py::.*test_(a\d+)")


def pytest_terminal_summary(terminalreporter):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _ACCEPTANCE_PATTERN.search(getattr(report, "nodeid", ""))
            if match:
                key = match.group(1)
                outcomes[key] = "FAIL" if status != "passed" else outcomes.get(key, "PASS")
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(outcomes, key=lambda k: int(k[1:])):
        label = ACCEPTANCE_CRITERIA.get(key, "")
        terminalreporter.write_line(f"[{outcomes[key]}] {key.upper()}: {label}")


def numeric_gradient(fn, arrays, h=1e-5):
    """Central-difference gradient of scalar fn() w.r.t. each array.

    Arrays are perturbed in place (float64 expected) and restored; fn must
    recompute the scalar from their current contents on every call.
    """
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        flat, gflat = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = fn()
            flat[i] = orig - h
            f_minus = fn()
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * h)
        grads.append(grad)
    return grads


def float64_shadow(build, seed=0):
    """`build(init)` in float64: the one way the tests make a float64 model. Its
    parameters are the arrays of the float32 `build(Rng(seed))`, cast, and handed
    to `build` one per `init(name, rows, cols)` call, the path a checkpoint's
    model takes."""
    source = build(Rng(seed))
    arrays = iter([p.data.astype(np.float64) for p in source.params()])
    return build(lambda *_: next(arrays))


def float64_layer(build, seed=0):
    """`build(param)` in float64: the one way the tests make a float64 standalone
    layer. The float32 `build(partial(_param, Rng(seed)))` is recorded as it makes
    each parameter, and `build` is then handed their arrays, cast, in that order."""
    made, float32 = [], partial(_param, Rng(seed))
    build(lambda *args, **kw: made.append(float32(*args, **kw)) or made[-1])
    arrays = iter([p.data.astype(np.float64) for p in made])
    return build(partial(_param, lambda *_: next(arrays)))


def assert_grad_close(analytic, numeric, rel=1e-4, abs_floor=1e-6):
    """Elementwise |a - n| <= max(rel * max(|a|, |n|), abs_floor)."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    assert analytic.shape == numeric.shape
    tol = np.maximum(rel * np.maximum(np.abs(analytic), np.abs(numeric)), abs_floor)
    bad = np.abs(analytic - numeric) > tol
    if bad.any():
        idx = tuple(np.argwhere(bad)[0])
        raise AssertionError(
            f"gradient mismatch at {idx}: analytic {analytic[idx]!r} vs "
            f"numeric {numeric[idx]!r} ({int(bad.sum())} of {bad.size} bad)")


@pytest.fixture
def rng64():
    return np.random.default_rng(42)
