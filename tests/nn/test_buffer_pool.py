"""The per-layer scratch pool: one slot per buffer lifetime.

A ``get`` slot is a flat byte buffer that hands out prefix views and only
grows; ``zeros_on_alloc`` rings keep their exact shape. The step-level
tests pin what that buys the conv kernels at the benchmark architecture:
the backward builds its columns in the forward's im2col slot, so pooled
scratch stays under the bounds below and a second step allocates nothing.
"""

import numpy as np
import pytest

from repro.nn.backends.base import BufferPool
from repro.nn.layers import AvgPoolLayer, ConvLayer, CostLayer, SoftmaxLayer
from repro.nn.network import Network
from repro.nn.optimizers import Sgd
from repro.nn.zoo import cifar10_10layer

MIB = 1 << 20


class TestCapacitySlots:
    def test_smaller_or_reshaped_request_reuses_the_slot(self):
        pool = BufferPool()
        first = pool.get("cols", (4, 6), np.float32)
        held = pool.nbytes()
        for shape in [(3, 5), (6, 4), (2, 2, 2)]:
            view = pool.get("cols", shape, np.float32)
            assert np.shares_memory(view, first)
            assert view.shape == shape and view.dtype == np.float32
            assert view.flags.c_contiguous and view.flags.writeable
            assert pool.nbytes() == held

    def test_larger_request_grows_the_slot(self):
        pool = BufferPool()
        small = pool.get("cols", (2, 2), np.float32)
        large = pool.get("cols", (4, 4), np.float32)
        assert large.shape == (4, 4)
        assert not np.shares_memory(large, small)
        assert pool.nbytes() == large.nbytes
        again = pool.get("cols", (2, 2), np.float32)
        assert np.shares_memory(again, large)
        assert pool.nbytes() == large.nbytes

    def test_float64_after_float32_is_correctly_typed(self):
        pool = BufferPool()
        pool.get("dz", (3, 4), np.float32)
        wide = pool.get("dz", (3, 4), np.float64)
        assert wide.dtype == np.float64 and wide.shape == (3, 4)
        assert wide.flags.aligned and wide.flags.c_contiguous
        wide[...] = np.arange(12.0).reshape(3, 4) / 3
        np.testing.assert_array_equal(wide,
                                      np.arange(12.0).reshape(3, 4) / 3)
        narrow = pool.get("dz", (3, 4), np.float32)
        assert np.shares_memory(narrow, wide)
        assert pool.nbytes() == wide.nbytes

    def test_slots_are_independent(self):
        pool = BufferPool()
        a = pool.get("a", (8,), np.float32)
        b = pool.get("b", (8,), np.float32)
        assert not np.shares_memory(a, b)
        assert pool.nbytes() == a.nbytes + b.nbytes

    def test_zeros_refills_a_reused_slot(self):
        pool = BufferPool()
        pool.get("acc", (5,), np.float32).fill(3)
        assert not pool.zeros("acc", (2, 2), np.float32).any()


class TestRings:
    def test_ring_keeps_exact_shape_and_zero_halo(self):
        pool = BufferPool()
        ring = pool.zeros_on_alloc("padded", (1, 4, 4, 1), np.float32)
        ring[:, 1:3, 1:3, :] = 7.0
        assert pool.zeros_on_alloc("padded", (1, 4, 4, 1), np.float32) is ring
        smaller = pool.zeros_on_alloc("padded", (1, 3, 3, 1), np.float32)
        assert smaller.shape == (1, 3, 3, 1)
        assert not np.shares_memory(smaller, ring)
        assert not smaller.any()
        assert pool.nbytes() == smaller.nbytes

    def test_clear_drops_both_kinds_of_slot(self):
        pool = BufferPool()
        cols = pool.get("cols", (4, 4), np.float32)
        ring = pool.zeros_on_alloc("padded", (1, 3, 3, 1), np.float32)
        ring[0, 1, 1, 0] = 5.0
        pool.clear()
        assert pool.nbytes() == 0
        assert not np.shares_memory(pool.get("cols", (4, 4), np.float32),
                                    cols)
        fresh = pool.zeros_on_alloc("padded", (1, 3, 3, 1), np.float32)
        assert fresh is not ring and not fresh.any()


def _bench_step(net, steps):
    gen = np.random.default_rng(1)
    x = gen.standard_normal((32, 28, 28, 3)).astype(np.float32)
    y = gen.integers(0, 10, size=32)
    optimizer = Sgd(0.01)
    sizes = []
    for _ in range(steps):
        net.train_batch(x, y, optimizer)
        sizes.append([layer._pool.nbytes() for layer in net.layers])
    return sizes


class TestConvScratch:
    """The benchmark architecture (``cifar10_10layer`` at width 0.12, batch
    32): one buffer per role pooled 46.0 MiB, 38.0 of it in the two
    FrontNet conv layers."""

    @pytest.fixture
    def net(self):
        net = cifar10_10layer(np.random.default_rng(0), width_scale=0.12)
        net.set_backend("optimized")
        return net

    def test_pooled_scratch_within_budget(self, net):
        (sizes,) = _bench_step(net, 1)
        assert sum(sizes) <= 28.0 * MIB
        assert sum(sizes[:2]) <= 22.5 * MIB

    def test_second_step_allocates_no_scratch(self, net):
        first, second = _bench_step(net, 2)
        assert second == first

    @pytest.mark.parametrize("stride", [1, 2])
    def test_input_gradient_in_the_shared_slot(self, stride):
        """The backward rebuilds columns in the forward's im2col slot; the
        input gradient must still be the reference one."""
        layers = {}
        for backend in ("reference", "optimized"):
            net = Network((9, 9, 3), [
                ConvLayer(4, 3, 1),
                ConvLayer(6, 3, stride, activation="leaky"),
                AvgPoolLayer(),
                SoftmaxLayer(),
                CostLayer(),
            ], rng=np.random.default_rng(3), backend=backend)
            layers[backend] = net.layers[1]
        gen = np.random.default_rng(4)
        x = gen.standard_normal((2, 9, 9, 4)).astype(np.float32)
        grads = {}
        for backend, layer in layers.items():
            out = layer.forward(x, training=True)
            delta = np.random.default_rng(5).standard_normal(out.shape)
            grads[backend] = layer.backward(delta.astype(np.float32))
        np.testing.assert_allclose(grads["optimized"], grads["reference"],
                                   rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(layers["optimized"]._grad_w,
                                   layers["reference"]._grad_w,
                                   rtol=1e-5, atol=1e-6)
