"""Lane-padded narrow GEMMs: the padded product is the plain product.

A float32 GEMM whose output width ends 9-15 columns past a multiple of 16
runs against zero-padded weights at the next multiple of 16
(``_lane_width``). The padded columns change which BLAS kernels run, not
how any real output is summed, so the first ``width`` columns must equal
``np.matmul`` bit for bit. That equality is a property of the BLAS build,
and it is why the training digests do not move; a host whose build breaks
it fails here rather than silently changing trained weights.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn.backends import OptimizedBackend
from repro.nn.backends.base import BufferPool
from repro.nn.backends.optimized import _LANES, _lane_width
from repro.nn.layers.activations import _LEAKY_SLOPE
from repro.nn.zoo import cifar10_10layer

# Widths the rule pads: 1-7 zero columns short of a whole lane block.
_PADDED_WIDTHS = [w for w in range(1, 64) if 0 < -w % _LANES < _LANES // 2]


def _padded(width):
    return -(-width // _LANES) * _LANES


class TestPaddedProduct:
    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(2, 1500), width=st.sampled_from(_PADDED_WIDTHS),
           extra=st.integers(0, 80), seed=st.integers(0, 2**32 - 1))
    @example(rows=25088, width=15, extra=7, seed=0)  # L1 of the bench model
    @example(rows=64, width=10, extra=0, seed=1)
    def test_first_columns_equal_matmul(self, rows, width, extra, seed):
        inner = 8 * _padded(width) + extra
        # Past OpenBLAS's small-matrix kernels, as every padded shape is.
        rows = max(rows, 100 ** 3 // (inner * width) + 1)
        assert _lane_width(rows, inner, width) == _padded(width)
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((rows, inner), dtype=np.float32)
        b = gen.standard_normal((inner, width), dtype=np.float32)
        out = np.empty((rows, width), dtype=np.float32)
        OptimizedBackend()._lane_padded_gemm(BufferPool(), a, b, out)
        assert (out == np.matmul(a, b)).all()

    @pytest.mark.parametrize("rows, inner, width", [
        (25088, 135, 16),  # already whole lanes
        (25088, 135, 8),   # half a lane: OpenBLAS's own 8-wide kernel
        (25088, 135, 7),   # 1-7 past a block sum in another order
        (25088, 300, 17),
        (1, 135, 15),      # one row is a GEMV
        (25088, 127, 15),  # inner too short to pay for the zeros
        (25088, 27, 15),   # the bench model's first conv
        (29, 539, 57),     # <= 100**3 multiply-adds: small-matrix kernels
        (47, 460, 42),
    ])
    def test_shapes_that_keep_their_width(self, rows, inner, width):
        assert _lane_width(rows, inner, width) == width


class TestBenchModelL1:
    """The second conv of ``cifar10_10layer`` at width 0.12 (15 filters,
    3x3, over 15 channels) is the one layer of the bench model that pads:
    both its forward and its input gradient are ``(25088 x 135) @
    (135 x 15)`` at batch 32."""

    def test_forward_and_input_grad_equal_unpadded(self):
        net = cifar10_10layer(np.random.default_rng(0), width_scale=0.12)
        layer = net.layers[1]
        backend = layer.backend
        k, f = layer.size, layer.filters
        gen = np.random.default_rng(7)
        x = gen.standard_normal((32, 28, 28, f), dtype=np.float32)
        cols, _ = backend.im2col(BufferPool(), x, k, 1, layer._pad_amount())
        assert _lane_width(*cols.shape, f) == 16

        out = layer.forward(x, training=True)
        z = np.matmul(cols, layer.weights.reshape(-1, f))
        z += layer.bias
        np.maximum(z, z * _LEAKY_SLOPE, out=z)
        assert (out.reshape(-1, f) == z).all()

        delta = gen.standard_normal(out.shape, dtype=np.float32)
        dx = layer.backward(delta)
        dz = np.maximum((out > 0).astype(np.float32), _LEAKY_SLOPE)
        dz *= delta
        q = k - 1 - layer._pad_amount()
        dzcols, _ = backend.im2col(BufferPool(), dz, k, 1, q)
        w_rot = layer.weights[::-1, ::-1].transpose(0, 1, 3, 2)
        expected = np.matmul(dzcols, w_rot.reshape(-1, x.shape[-1]))
        assert _lane_width(*dzcols.shape, x.shape[-1]) == 16
        assert (dx == expected.reshape(x.shape)).all()
