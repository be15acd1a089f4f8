"""Elementary tape ops that only the tests record.

`ReferenceGraph` is a `ComputeGraph` with a Hadamard product, a transpose,
ReLU, LeakyReLU, the masked row softmax and a sum of all entries. The tests
use them to build scalar losses for gradient checks and the chains that the
fused ops must equal bitwise. They are built on the module helpers that the
fused ops use, so both round alike. `ChainGraph` holds the chains of `gcn` and
`gat_fusion`: a `ReferenceGraph` whose two ops of those names, with the fused
ops' signatures, record the elementary ops instead.
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

        return self._emit("mul", a.data * b.data, backward)

    def transpose(self, a: Tensor) -> Tensor:
        def backward(g):
            _accum(a, g.swapaxes(-1, -2))

        return self._emit("transpose", a.data.swapaxes(-1, -2).copy(), backward)

    def relu(self, a: Tensor) -> Tensor:
        mask = a.data > 0

        def backward(g):
            _accum(a, g * mask)

        return self._emit("relu", a.data * mask, backward)

    def leaky_relu(self, a: Tensor) -> Tensor:
        scale = _leaky_scale(a.data)

        def backward(g):
            _accum(a, g * scale)

        return self._emit("leaky_relu", a.data * scale, backward)

    def row_softmax_masked(self, a: Tensor, mask: np.ndarray) -> Tensor:
        """Softmax over the unmasked entries of each row (see `_softmax_masked`)."""
        out_data = _softmax_masked(a.data, mask)

        def backward(g):
            _accum(a, _softmax_grad(out_data, g))

        return self._emit("row_softmax_masked", out_data, backward)

    def sum_all(self, a: Tensor) -> Tensor:
        def backward(g):
            _accum(a, np.full_like(a.data, g[0, 0]))

        total = np.asarray(a.data.sum(dtype=a.data.dtype)).reshape(1, 1)
        return self._emit("sum_all", total, backward)


class ChainGraph(ReferenceGraph):
    def gcn(self, adj, feats, weight):
        return self.relu(self.matmul(Tensor(adj), self.matmul(feats, weight)))

    def gat_fusion(self, base, audio, video, w_msg, att_audio, att_video, mask):
        score_v = self.matmul(video, self.matmul(w_msg, att_video))
        scores = self.add(self.matmul(audio, att_audio), self.transpose(score_v))
        alpha = self.row_softmax_masked(self.leaky_relu(scores), mask)
        return self.add(base, self.matmul(self.matmul(alpha, video), w_msg)), alpha.data
