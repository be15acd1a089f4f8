"""Elementary tape ops that only the tests record.

`ReferenceGraph` is a `ComputeGraph` with a Hadamard product, ReLU,
LeakyReLU, the masked row softmax and a sum of all entries. The tests use
them as the chains that the fused ops (`gcn`, `gat_attention`) must equal
bitwise, and to build scalar losses for gradient checks. They are built on
the module helpers that the fused ops use, so both round alike.
"""

import numpy as np

from avhgnn.tensor import (ComputeGraph, ShapeError, Tensor, _accum, _leaky_scale,
                           _softmax_grad, _softmax_masked)


class ReferenceGraph(ComputeGraph):
    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        """Hadamard product."""
        if a.shape != b.shape:
            raise ShapeError(f"mul shapes differ: {a.shape} * {b.shape}")

        def backward(g):
            _accum(a, g * b.data)
            _accum(b, g * a.data)

        return self._emit(a.data * b.data, backward)

    def relu(self, a: Tensor) -> Tensor:
        mask = a.data > 0

        def backward(g):
            _accum(a, g * mask)

        return self._emit(a.data * mask, backward)

    def leaky_relu(self, a: Tensor, slope: float = 0.2) -> Tensor:
        scale = _leaky_scale(a.data, slope)

        def backward(g):
            _accum(a, g * scale)

        return self._emit(a.data * scale, backward)

    def row_softmax_masked(self, a: Tensor, mask: np.ndarray) -> Tensor:
        """Softmax over the unmasked entries of each row (see `_softmax_masked`)."""
        out_data = _softmax_masked(a.data, mask)

        def backward(g):
            _accum(a, _softmax_grad(out_data, g))

        return self._emit(out_data, backward)

    def sum_all(self, a: Tensor) -> Tensor:
        def backward(g):
            _accum(a, np.full_like(a.data, g[0, 0]))

        total = np.asarray(a.data.sum(dtype=a.data.dtype)).reshape(1, 1)
        return self._emit(total, backward)
