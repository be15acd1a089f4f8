"""Dense float tensors with reverse-mode autodiff on a recording tape.

A tensor is a matrix or a batch of B matrices; rows and cols are the last
two axes, so every op serves one graph and B same-shape graphs alike. A
batch times a shared 2-D operand (a weight) folds the batch into matrix
rows: one GEMM forward and one per gradient backward. Everything
downstream (graph layers, pooling, the head) is built from the ops on
ComputeGraph; a GCN, the GAT attention and the focal loss are one op
each. Forward values are computed eagerly with numpy; each op appends a
backward rule to the tape, and backward() replays the tape in reverse.
float32 is the training dtype; float64 is used as a shadow mode by the
gradient-check tests.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class NumericError(ArithmeticError):
    """A non-finite value appeared, or an op was applied outside its domain."""


class Tensor:
    """A rows x cols (or B x rows x cols) float tensor, optionally tracked for gradients.

    `grad` has `data`'s shape: backward() allocates it, or uses `grad_slice` (an
    optimizer's view) if set. Tensors created by graph ops have requires_grad set,
    so gradients flow through them to the leaves that require them.
    """

    __slots__ = ("data", "grad", "grad_slice", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data)
        if arr.ndim not in (2, 3):
            raise ShapeError(f"tensor data must be 2-D or 3-D, got shape {arr.shape}")
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.grad_slice: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.name = name

    @property
    def rows(self) -> int:
        return self.data.shape[-2]

    @property
    def cols(self) -> int:
        return self.data.shape[-1]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor({'x'.join(map(str, self.shape))}, dtype={self.data.dtype.name}{tag})"


def Rng(seed) -> np.random.Generator:
    """numpy's PCG64 generator for an int or SeedSequence seed: the same seed yields
    the same draws on a given build; `bit_generator.state` captures and restores it."""
    return np.random.Generator(np.random.PCG64(seed))


def xavier_init(rows: int, cols: int, rng: np.random.Generator, dtype=np.float32,
                name: str = "") -> Tensor:
    """Glorot-uniform init: values in [-b, b] with b = sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"xavier_init needs positive dims, got ({rows}, {cols})")
    bound = float(np.sqrt(6.0 / (rows + cols)))
    data = rng.uniform(-bound, bound, (rows, cols)).astype(dtype)
    return Tensor(data, requires_grad=True, name=name)


def _sum_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """`g` summed over the axes along which `shape` was broadcast to g's shape."""
    if g.shape == shape:
        return g
    padded = (1,) * (g.ndim - len(shape)) + shape
    axes = tuple(i for i, (m, n) in enumerate(zip(padded, g.shape)) if m != n)
    return g.sum(axis=axes, keepdims=True).reshape(shape)


def _accum(t: Tensor, g: np.ndarray, own: bool = False):
    """Add `g` into t.grad, summed over the axes `t` was broadcast along; a first touch
    copies `g` into t.grad_slice if set (keeping a -0.0), else adopts `g` if `own` (no
    one else holds it), else copies it. Not a method, so closures hold no tape cycle."""
    if not t.requires_grad:
        return
    if g.shape != t.shape:
        g, own = _sum_to(g, t.shape), True
    if t.grad is None and t.grad_slice is not None:
        np.copyto(t.grad_slice, g)
        t.grad = t.grad_slice
    elif t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=not own)
    else:
        t.grad += g


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y; over a length-1 contraction the broadcast x * y, about 3.5x faster
    than numpy's matmul, which uses no BLAS there. The bytes are equal, except
    that a -0.0 product stays -0.0 (`@` adds it to +0.0, giving +0.0)."""
    return x * y if x.shape[-1] == 1 else x @ y


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b; a batched `a` times a shared 2-D `b` folds the batch into rows."""
    if a.ndim == 3 and b.ndim == 2:
        return _product(a.reshape(-1, a.shape[-1]), b).reshape(a.shape[:-1] + b.shape[-1:])
    return _product(a, b)


def _mm_backward(g: np.ndarray, a: Tensor, b: Tensor):
    """Add the gradients of `_mm(a, b)` for its output gradient `g` into a and b."""
    fold = a.data.ndim == 3 and b.data.ndim == 2
    g_rows = g.reshape(-1, b.cols) if fold else g
    if a.requires_grad:
        ga = _product(g_rows, b.data.swapaxes(-1, -2))
        _accum(a, ga.reshape(g.shape[:-1] + (a.cols,)), own=True)
    if b.requires_grad:
        a_rows = a.data.reshape(-1, a.cols) if fold else a.data
        _accum(b, _product(a_rows.swapaxes(-1, -2), g_rows), own=True)


def _leaky_scale(x: np.ndarray, slope: float) -> np.ndarray:
    """LeakyReLU's slope per entry: 1 where x > 0, else `slope`, in x's dtype (a
    two-entry table lookup, which is faster than np.where of two scalars)."""
    return np.array([slope, 1.0], x.dtype).take((x > 0).view(np.int8))


def _softmax_masked(x: np.ndarray, mask) -> np.ndarray:
    """Softmax over the unmasked entries of each row, less the row's max for stability.

    One rows x cols mask serves every matrix of a batch. Masked entries get 0, a row
    whose mask is all False is all 0 rather than NaN, and a NaN among a row's unmasked
    entries makes the row NaN, so check_finite sees it."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape[-2:]:
        raise ShapeError(f"mask shape {mask.shape} != tensor shape {x.shape[-2:]}")
    x = np.where(mask, x, -np.inf)
    row_max = x.max(axis=-1, keepdims=True)
    ex = np.exp(x - np.where(np.isfinite(row_max), row_max, 0.0))  # masked: exp(-inf) = 0
    denom = ex.sum(axis=-1, keepdims=True)  # NaN if a NaN score is unmasked
    return np.divide(ex, denom, out=np.zeros_like(ex), where=mask.any(axis=-1, keepdims=True))


def _softmax_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The softmax's input gradient, from its output `out` and output gradient `g`."""
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


class ComputeGraph:
    """Append-only tape of recorded ops, as (output, backward rule) pairs.

    Recording order is a topological order by construction: an op's inputs
    are either leaves or earlier outputs. backward() walks the tape in
    reverse and accumulates gradients into every reachable tensor that
    requires them; repeated backward calls without zeroing accumulate.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __len__(self) -> int:
        return len(self._records)

    # -- recording machinery -------------------------------------------------

    def _emit(self, data: np.ndarray, backward: Callable[[np.ndarray], None]) -> Tensor:
        out = Tensor(data, requires_grad=True)
        self._records.append((out, backward))
        return out

    # -- linear algebra -------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """a @ b. A batched `a` times a shared 2-D `b` (a weight) folds the
        batch into rows: one (B*n) x k GEMM, whose backward sums b's gradient
        over the batch inside the GEMM instead of over a B x k x m stack. Any
        product contracting over length 1 is a broadcast (`_product`)."""
        if a.cols != b.rows:
            raise ShapeError(f"matmul inner dims differ: {a.shape} x {b.shape}")

        def backward(g):
            _mm_backward(g, a, b)

        return self._emit(_mm(a.data, b.data), backward)

    def transpose(self, a: Tensor) -> Tensor:
        def backward(g):
            _accum(a, g.swapaxes(-1, -2))

        return self._emit(a.data.swapaxes(-1, -2).copy(), backward)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise sum; an axis of length 1, or a missing batch axis, broadcasts."""
        if any(m != n and 1 not in (m, n) for m, n in zip(a.shape[::-1], b.shape[::-1])):
            raise ShapeError(f"add shapes incompatible: {a.shape} + {b.shape}")

        def backward(g):
            _accum(a, g)  # a copy, so that add(x, x) does not add g into itself
            _accum(b, g, own=True)

        return self._emit(a.data + b.data, backward)

    # -- fused layers: one record each, bitwise the chain of ops it replaces; backward
    # adds its inputs' gradients in the order the chain's rules would add them.

    def gcn(self, adj: Tensor, feats: Tensor, weight: Tensor) -> Tensor:
        """relu(adj @ (feats @ weight)), a graph convolution over a constant 2-D
        adjacency; backward keeps only the ReLU mask."""
        if adj.requires_grad or adj.data.ndim != 2:
            raise ShapeError(f"gcn adjacency {adj.shape} must be a constant 2-D matrix")
        if feats.cols != weight.rows or adj.cols != feats.rows:
            raise ShapeError(f"gcn dims differ: {adj.shape} x {feats.shape} x {weight.shape}")
        out_data = _product(adj.data, _mm(feats.data, weight.data))
        mask = out_data > 0
        np.multiply(out_data, mask, out=out_data)

        def backward(g):
            np.multiply(g, mask, out=g)  # backward() hands each rule a g it alone holds
            _mm_backward(_product(adj.data.swapaxes(-1, -2), g), feats, weight)

        return self._emit(out_data, backward)

    def gat_attention(self, audio: Tensor, video: Tensor, w_msg: Tensor, att_audio: Tensor,
                      att_video: Tensor, mask, slope: float) -> Tensor:
        """Masked single-head attention of audio rows over video rows: the masked
        softmax (`_softmax_masked`) of leaky_relu(audio @ att_audio
        + transpose(video @ (w_msg @ att_video)), slope)."""
        ins = (audio, video, w_msg, att_audio, att_video)
        if (video.cols, w_msg.cols, audio.cols, att_audio.cols, att_video.cols) != (
                w_msg.rows, att_video.rows, att_audio.rows, 1, 1):
            raise ShapeError(f"gat_attention dims differ: {[t.shape for t in ins]}")
        att_v = _product(w_msg.data, att_video.data)
        score_v = _mm(video.data, att_v)
        score_a = _mm(audio.data, att_audio.data)
        scores = score_a + score_v.swapaxes(-1, -2)
        scale = _leaky_scale(scores, slope)
        alpha = _softmax_masked(scores * scale, mask)

        def backward(g):
            g_scores = _softmax_grad(alpha, g) * scale
            _mm_backward(_sum_to(g_scores, score_a.shape), audio, att_audio)
            g_v = _sum_to(g_scores, score_v.swapaxes(-1, -2).shape).swapaxes(-1, -2)
            att_v_node = Tensor(att_v, requires_grad=True)  # collects w_msg @ att_video's grad
            _mm_backward(g_v.copy(), video, att_v_node)  # copied, as the transpose rule copies it
            _mm_backward(att_v_node.grad, w_msg, att_video)

        return self._emit(alpha, backward)

    # -- activations ----------------------------------------------------------

    def sigmoid(self, a: Tensor) -> Tensor:
        e = np.exp(-np.abs(a.data))  # never overflows
        out_data = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

        def backward(g):
            _accum(a, g * out_data * (1.0 - out_data), own=True)

        return self._emit(out_data, backward)

    # -- structure ------------------------------------------------------------

    def concat_cols(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape[:-1] != b.shape[:-1]:
            raise ShapeError(f"concat_cols row counts differ: {a.shape} | {b.shape}")
        split = a.cols

        def backward(g):
            _accum(a, g[..., :split])
            _accum(b, g[..., split:])

        return self._emit(np.concatenate([a.data, b.data], axis=-1), backward)

    # -- reductions -----------------------------------------------------------

    def col_max(self, a: Tensor) -> Tensor:
        """Columnwise max over the rows; the gradient routes to the first argmax."""
        idx = a.data.argmax(axis=-2, keepdims=True)

        def backward(g):
            da = np.zeros_like(a.data)
            np.put_along_axis(da, idx, g, axis=-2)
            _accum(a, da, own=True)

        return self._emit(np.take_along_axis(a.data, idx, axis=-2), backward)

    # -- loss -----------------------------------------------------------------

    def focal_loss(self, probs: Tensor, targets: np.ndarray, gamma: float,
                   eps: float) -> Tensor:
        """Binary focal loss summed over all entries, as one 1x1 op.

        With p = probs clipped into [eps, 1-eps], each entry contributes
        -(1-p)^gamma log p where its target is 1 and -p^gamma log(1-p)
        where it is 0; targets must have probs' shape and dtype. The
        gradient passes only where probs was inside [eps, 1-eps].
        """
        e = float(gamma)
        hi = 1.0 - eps
        inside = (probs.data >= eps) & (probs.data <= hi)
        p = np.clip(probs.data, eps, hi)
        omp = 1.0 - p
        pow_omp, log_p = np.power(omp, e), np.log(p)
        pow_p, log_omp = np.power(p, e), np.log(omp)
        neg = 1.0 - targets
        terms = targets * (pow_omp * log_p) + neg * (pow_p * log_omp)
        loss = -terms.sum(dtype=terms.dtype, keepdims=True).reshape(1, 1)

        def backward(g):
            # Each partial is added in the order a tape of elementwise ops
            # would add it, so the result is bitwise that tape's gradient.
            g_terms = np.full_like(terms, -g[0, 0])
            g_neg, g_pos = g_terms * neg, g_terms * targets
            g_p = g_neg * log_omp * e * np.power(p, e - 1.0)
            g_omp = g_neg * pow_p / omp
            g_p += g_pos * pow_omp / p
            g_omp += g_pos * log_p * e * np.power(omp, e - 1.0)
            g_p -= g_omp
            _accum(probs, g_p * inside, own=True)

        return self._emit(loss, backward)

    # -- backward pass ----------------------------------------------------------

    def backward(self, loss: Tensor):
        """Accumulate dLoss/dLeaf into every reachable tensor with requires_grad.

        Intermediate (op-output) grads are consumed and cleared as the tape
        unwinds, so a second backward call adds a fresh contribution to the
        leaf grads instead of compounding stale intermediate state.
        """
        if loss.shape != (1, 1):
            raise ShapeError(f"backward needs a scalar loss, got {loss.shape}")
        _accum(loss, np.ones((1, 1), dtype=loss.data.dtype), own=True)
        for out, backward in reversed(self._records):
            g = out.grad
            if g is None:
                continue
            out.grad = None
            backward(g)

    def check_finite(self, t: Tensor):
        """Raise NumericError if `t` holds a non-finite value.

        The message names the index and kind of the first tape op whose
        output is non-finite, which is where the blow-up started.
        """
        if np.isfinite(t.data).all():
            return
        for i, (out, backward) in enumerate(self._records):
            if not np.isfinite(out.data).all():
                # Backward rules are closures named ComputeGraph.<op>.<locals>.backward.
                kind = backward.__qualname__.split(".")[1]
                raise NumericError(f"op {i} ({kind}) produced a non-finite value")
        raise NumericError("non-finite value outside the tape")
