"""The nn kernels against the reference oracle.

``tests/nn/reference_backend.py`` holds the original numpy layer bodies,
verbatim; the kernels the layers run (``OptimizedBackend``) must agree
with them — bitwise on the integer/argmax paths (max-pool bookkeeping,
optimizer updates, checkpoint resume), and within float tolerance on the
float compute paths (the reference backward pass promotes to float64
through the leaky-ReLU gradient, the kernels stay in float32). A
"reference" case runs a network with the oracle installed on every layer
by :func:`~tests.nn.reference_backend.use_reference`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.backends import (
    OptimizedBackend,
    maxpool_backward_loop,
    maxpool_scatter,
)
from repro.nn.backends.base import BufferPool
from repro.nn.initializers import gaussian_init
from repro.nn.layers import (
    AvgPoolLayer,
    ConvLayer,
    CostLayer,
    DenseLayer,
    FlattenLayer,
    Layer,
    MaxPoolLayer,
    SoftmaxLayer,
)
from repro.nn.layers.activations import _LEAKY_SLOPE
from repro.nn.network import Network
from repro.nn.optimizers import Sgd
from repro.nn.zoo import tiny_testnet

from tests.nn.gradcheck import check_gradients
from tests.nn.reference_backend import use_reference

BACKENDS = ["reference", "optimized"]


def _on(backend, target):
    """``target`` (a network or a layer) running ``backend``'s kernels."""
    return use_reference(target) if backend == "reference" else target

# Seed with no sampled coordinate on a leaky kink or pool tie (see
# test_gradcheck.py) — finite differences are only valid off those
# non-smooth points. The tie cases the clean seed avoids are covered
# explicitly and bitwise in TestMaxPoolParity.
_CLEAN_SEED = 3


def _data(shape=(8, 8, 3), n=4, classes=4, seed=_CLEAN_SEED):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n,) + shape)
    y = gen.integers(0, classes, size=n)
    return x, y


def _nets():
    """One architecture per layer type/configuration worth checking."""
    return {
        "tiny_testnet": lambda: tiny_testnet(np.random.default_rng(100)),
        "conv_stride_2": lambda: Network((8, 8, 3), [
            ConvLayer(6, 3, 2, activation="relu"),
            ConvLayer(4, 1, 1, activation="linear"),
            AvgPoolLayer(),
            SoftmaxLayer(),
            CostLayer(),
        ], rng=np.random.default_rng(7)),
        "dense_head": lambda: Network((6, 6, 3), [
            ConvLayer(4, 3, 1, activation="tanh"),
            MaxPoolLayer(2, 2),
            FlattenLayer(),
            DenseLayer(8, activation="sigmoid"),
            DenseLayer(3, activation="linear"),
            SoftmaxLayer(),
            CostLayer(),
        ], rng=np.random.default_rng(2)),
        "valid_padding": lambda: Network((7, 7, 2), [
            ConvLayer(4, 3, 1, activation="linear", pad="valid"),
            AvgPoolLayer(),
            SoftmaxLayer(),
            CostLayer(),
        ], rng=np.random.default_rng(5)),
    }


def _net_data(name):
    if name == "dense_head":
        return _data(shape=(6, 6, 3), classes=3)
    if name == "valid_padding":
        gen = np.random.default_rng(_CLEAN_SEED)
        return gen.normal(size=(3, 7, 7, 2)), gen.integers(0, 4, size=3)
    return _data()


class TestGradcheck:
    """Every layer type backpropagates correctly on the kernels and on
    the oracle."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", list(_nets()))
    def test_gradients(self, name, backend):
        net = _on(backend, _nets()[name]())
        x, y = _net_data(name)
        errors = check_gradients(net, x, y, samples_per_param=8,
                                 rng=np.random.default_rng(0))
        assert max(errors.values()) < 1e-5, (backend, errors)


class TestForwardParity:
    @pytest.mark.parametrize("name", list(_nets()))
    def test_inference_outputs_match(self, name):
        ref = _nets()[name]()
        opt = _nets()[name]()
        opt.set_weights(ref.get_weights())
        use_reference(ref)
        x, _ = _net_data(name)
        x = x.astype(np.float32)
        np.testing.assert_allclose(opt.forward(x), ref.forward(x),
                                   rtol=1e-5, atol=1e-6)


class TestMaxPoolParity:
    """Satellite: the argmax bookkeeping is bitwise-identical (the
    scatter-backward regression oracle)."""

    @pytest.mark.parametrize("size,stride", [(2, 2), (3, 3), (3, 2), (2, 3)])
    def test_forward_and_argmax_bitwise(self, size, stride):
        x = np.random.default_rng(9).normal(
            size=(3, 9, 9, 4)).astype(np.float32)
        outs, argmaxes = [], []
        for backend in BACKENDS:
            layer = _on(backend, MaxPoolLayer(size, stride))
            outs.append(layer.forward(x, training=True))
            argmaxes.append(layer._cache["argmax"].copy())
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(argmaxes[0], argmaxes[1])

    @pytest.mark.parametrize("size,stride", [(2, 2), (3, 3), (3, 2), (2, 3)])
    @pytest.mark.parametrize("fill", [0.0, 1.5], ids=["zeros", "constant"])
    def test_constant_window_ties_argmax_to_zero(self, size, stride, fill):
        """Regression: an all-tied window (all-zero after ReLU, or any
        constant region) must resolve to first-occurrence flat index 0 in
        both backends — the optimized descending-write loop used to skip
        index 0 and report 1."""
        x = np.full((2, 9, 9, 4), fill, dtype=np.float32)
        argmaxes = []
        for backend in BACKENDS:
            layer = _on(backend, MaxPoolLayer(size, stride))
            layer.forward(x, training=True)
            argmaxes.append(layer._cache["argmax"].copy())
        np.testing.assert_array_equal(argmaxes[0], 0)
        np.testing.assert_array_equal(argmaxes[0], argmaxes[1])

    def test_partial_tie_with_index_zero_bitwise(self):
        """A max shared by flat index 0 and a later window position must
        pick 0, and gradients must route to the same input cell under
        both backends."""
        # 2x2/stride-2 windows tiled as [[5, 1], [1, 5]]: the max ties
        # between flat indices 0 and 3.
        x = np.ones((1, 6, 6, 2), dtype=np.float32)
        x[:, ::2, ::2, :] = 5.0
        x[:, 1::2, 1::2, :] = 5.0
        argmaxes, deltas = [], []
        for backend in BACKENDS:
            layer = _on(backend, MaxPoolLayer(2, 2))
            out = layer.forward(x, training=True)
            argmaxes.append(layer._cache["argmax"].copy())
            delta = np.random.default_rng(13).normal(
                size=out.shape).astype(np.float32)
            deltas.append(layer.backward(delta))
        np.testing.assert_array_equal(argmaxes[0], 0)
        np.testing.assert_array_equal(argmaxes[0], argmaxes[1])
        np.testing.assert_array_equal(deltas[0], deltas[1])

    @pytest.mark.parametrize("size,stride", [(2, 2), (3, 3), (2, 3), (3, 2)])
    def test_relu_sparse_ties_bitwise(self, size, stride):
        """Post-ReLU-style inputs (mostly zero, duplicated positives) are
        exactly the tie-rich regime the clean-seed suite avoids."""
        gen = np.random.default_rng(14)
        x = gen.normal(size=(3, 9, 9, 4)).astype(np.float32)
        np.maximum(x, 0.0, out=x)                  # many all-zero windows
        x[x > 0] = np.round(x[x > 0], 1)           # duplicated maxima
        outs, argmaxes, deltas = [], [], []
        for backend in BACKENDS:
            layer = _on(backend, MaxPoolLayer(size, stride))
            out = layer.forward(x, training=True)
            outs.append(out)
            argmaxes.append(layer._cache["argmax"].copy())
            delta = np.random.default_rng(15).normal(
                size=out.shape).astype(np.float32)
            deltas.append(layer.backward(delta))
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(argmaxes[0], argmaxes[1])
        np.testing.assert_array_equal(deltas[0], deltas[1])

    @pytest.mark.parametrize("size,stride", [(2, 2), (3, 3), (2, 3), (3, 2)])
    def test_backward_bitwise(self, size, stride):
        x = np.random.default_rng(10).normal(
            size=(2, 10, 10, 3)).astype(np.float32)
        deltas = []
        for backend in BACKENDS:
            layer = _on(backend, MaxPoolLayer(size, stride))
            out = layer.forward(x, training=True)
            delta = np.random.default_rng(11).normal(
                size=out.shape).astype(np.float32)
            deltas.append(layer.backward(delta))
        np.testing.assert_array_equal(deltas[0], deltas[1])

    @pytest.mark.parametrize("size,stride", [(2, 2), (3, 3), (2, 3), (3, 2)])
    def test_scatter_matches_loop_oracle(self, size, stride):
        """maxpool_scatter (vectorised k*k scatter) vs the legacy loop."""
        gen = np.random.default_rng(12)
        oh = ow = (11 - size) // stride + 1
        input_shape = (4, 11, 11, 5)
        delta = gen.normal(size=(4, oh, ow, 5)).astype(np.float32)
        argmax = gen.integers(0, size * size, size=delta.shape)
        fast = maxpool_scatter(delta, argmax, input_shape, size, stride)
        slow = maxpool_backward_loop(delta, argmax, input_shape, size, stride)
        np.testing.assert_array_equal(fast, slow)


def _masked_act_backward(out2d, delta2d, activation):
    """The masked-copy kernel ``_act_backward`` replaced, written out as
    the bitwise oracle for the select forms."""
    dz = np.empty(out2d.shape, np.result_type(delta2d.dtype, out2d.dtype))
    if activation == "relu":
        dz.fill(0)
    else:
        np.multiply(delta2d, _LEAKY_SLOPE, out=dz)
    np.copyto(dz, delta2d, where=out2d > 0)
    return dz


def _salted(gen, shape, dtype, salts):
    """Random normals with every tenth element drawn from ``salts``."""
    a = gen.normal(size=shape).astype(dtype)
    flat = a.reshape(-1)
    flat[::10] = gen.choice(np.asarray(salts, dtype=dtype), size=flat[::10].size)
    return a


_NON_FINITE = (np.inf, -np.inf, np.nan, -0.0)


class TestActBackwardSelect:
    """The leaky/relu gradient is selected exactly — bit for bit the
    masked copy it replaced, non-finite deltas and signed zeros included."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("activation", ["leaky", "relu"])
    def test_bitwise_equal_to_masked_copy(self, activation, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        out_salts = (0.0, -0.0, tiny, -tiny)
        gen = np.random.default_rng(50)
        out = _salted(gen, (257, 15), dtype, out_salts)
        delta = _salted(gen, (257, 15), dtype, _NON_FINITE)
        # Every (out salt, delta salt) pair, so a multiply-by-mask rewrite
        # (0 * inf = NaN, -x * 0 = -0.0) cannot pass by sampling luck.
        out[:4, :4] = np.asarray(out_salts, dtype=dtype)[:, None]
        delta[:4, :4] = np.asarray(_NON_FINITE, dtype=dtype)[None, :]
        kept = delta.copy()
        got = OptimizedBackend()._act_backward(BufferPool(), out, delta,
                                               activation)
        expected = _masked_act_backward(out, delta, activation)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        assert delta.tobytes() == kept.tobytes()  # residual blocks reuse it

    def test_relu_is_not_delta_times_mask(self):
        """The oracle itself tells the two apart on this table."""
        out = np.array([[-1.0, -1.0, 1.0]], dtype=np.float32)
        delta = np.array([[np.inf, -2.0, -0.0]], dtype=np.float32)
        got = OptimizedBackend()._act_backward(BufferPool(), out, delta,
                                               "relu")
        assert got.tobytes() == np.array([[0.0, 0.0, -0.0]],
                                         dtype=np.float32).tobytes()
        with np.errstate(invalid="ignore"):
            assert got.tobytes() != (delta * (out > 0)).tobytes()


def _indexed_scatter(delta, argmax, input_shape, size, stride):
    """The fancy-index assignment ``maxpool_scatter`` replaced (valid for
    non-overlapping windows), written out as the bitwise oracle."""
    n, h, w, c = input_shape
    oh, ow = delta.shape[1:3]
    dx = np.zeros(input_shape, dtype=delta.dtype)
    ni, ii, jj, ci = np.ogrid[:n, :oh, :ow, :c]
    dx[ni, ii * stride + argmax // size, jj * stride + argmax % size, ci] = delta
    return dx


@st.composite
def _pool_cases(draw):
    size = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 5))  # < size overlaps, > size leaves gaps
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 4))
    h = draw(st.integers(size, size + 9))  # non-dividing extents included
    w = draw(st.integers(size, size + 9))
    return n, h, w, c, size, stride, draw(st.integers(0, 2**16))


class TestMaxPoolSelect:
    """The unsigned-arithmetic argmax and the strided bit-select scatter
    against the reference oracle, the loop oracle and the replaced
    fancy-index scatter."""

    @settings(max_examples=60, deadline=None)
    @given(case=_pool_cases(), ties=st.booleans())
    def test_forward_and_argmax_match_reference(self, case, ties):
        n, h, w, c, size, stride, seed = case
        x = np.random.default_rng(seed).normal(
            size=(n, h, w, c)).astype(np.float32)
        if ties:
            x = np.round(x)  # duplicated maxima: first occurrence must win
        outs, argmaxes = [], []
        for backend in BACKENDS:
            layer = _on(backend, MaxPoolLayer(size, stride))
            outs.append(layer.forward(x, training=True))
            argmaxes.append(layer._cache["argmax"].copy())
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(argmaxes[0], argmaxes[1])

    @settings(max_examples=60, deadline=None)
    @given(case=_pool_cases(), narrow=st.booleans())
    def test_scatter_matches_both_oracles(self, case, narrow):
        n, h, w, c, size, stride, seed = case
        gen = np.random.default_rng(seed)
        oh, ow = (h - size) // stride + 1, (w - size) // stride + 1
        argmax = gen.integers(0, size * size, size=(n, oh, ow, c)).astype(
            np.uint8 if narrow else np.intp)
        finite = gen.normal(size=argmax.shape).astype(np.float32)
        args = (argmax, (n, h, w, c), size, stride)
        np.testing.assert_array_equal(
            maxpool_scatter(finite, *args), maxpool_backward_loop(finite, *args))
        if stride < size:
            return  # overlapping windows keep the loop itself
        # The loop multiplies (a routed -0.0 becomes +0.0, an unrouted inf
        # NaN); the replaced scatter and the bit-select do neither.
        salted = _salted(gen, argmax.shape, np.float32, _NON_FINITE)
        got = maxpool_scatter(salted, *args)
        assert got.tobytes() == _indexed_scatter(salted, *args).tobytes()
        covered = np.zeros((h, w), dtype=bool)
        for i in range(size):
            for j in range(size):
                covered[i : i + oh * stride : stride,
                        j : j + ow * stride : stride] = True
        assert not got[:, ~covered, :].view(np.uint32).any()  # exactly +0.0

    @pytest.mark.parametrize("size", [16, 17])
    def test_wide_windows_pick_a_wider_argmax(self, size):
        """k*k - 1 is 255 at 16x16 (the last value a uint8 holds) and 288
        at 17x17; the maximum sits on the last window position, so a
        wrapped index would show."""
        x = np.random.default_rng(51).normal(
            size=(2, 2 * size, 2 * size, 2)).astype(np.float32)
        x[:, size - 1 :: size, size - 1 :: size, :] = 100.0
        argmaxes, deltas = [], []
        for backend in BACKENDS:
            layer = _on(backend, MaxPoolLayer(size, size))
            out = layer.forward(x, training=True)
            argmaxes.append(layer._cache["argmax"].copy())
            deltas.append(layer.backward(np.ones_like(out)))
        np.testing.assert_array_equal(argmaxes[1], size * size - 1)
        np.testing.assert_array_equal(argmaxes[0], argmaxes[1])
        assert argmaxes[1].dtype.itemsize == (1 if size == 16 else 2)
        assert deltas[0].tobytes() == deltas[1].tobytes()

    def test_nan_window_yields_argmax_zero(self):
        """No position equals a NaN maximum: the no-match case stays 0."""
        x = np.random.default_rng(52).normal(
            size=(1, 4, 4, 2)).astype(np.float32)
        x[0, :2, :2, 0] = np.nan      # an all-NaN window
        x[0, 2, 3, 1] = np.nan        # one NaN poisons its window's maximum
        layer = MaxPoolLayer(2, 2)
        out = layer.forward(x, training=True)
        argmax = layer._cache["argmax"]
        assert np.isnan(out[0, 0, 0, 0]) and argmax[0, 0, 0, 0] == 0
        assert np.isnan(out[0, 1, 1, 1]) and argmax[0, 1, 1, 1] == 0


class TestAccumulateGrads:
    """The GEMM-shaped weight and bias reductions, at the benchmark's
    first two layers (25,088 rows; fan-in 27 and 135; 15 filters)."""

    @pytest.mark.parametrize("in_channels", [3, 15])
    def test_matches_float64_and_accumulates_in_place(self, in_channels):
        gen = np.random.default_rng(53)
        layer = ConvLayer(15, 3, 1)
        layer.build(in_channels, gaussian_init(gen))
        a = gen.normal(size=(25088, 9 * in_channels)).astype(np.float32)
        dz = gen.normal(size=(25088, 15)).astype(np.float32)
        exact_w = (a.astype(np.float64).T @ dz.astype(np.float64)).reshape(
            layer.weights.shape)
        exact_b = dz.astype(np.float64).sum(axis=0)
        grad_w, grad_b = layer._grad_w, layer._grad_b
        backend = OptimizedBackend()
        for calls in (1, 2):  # the second call adds to the first
            backend._accumulate_grads(layer, a, dz)
            assert layer._grad_w is grad_w and layer._grad_b is grad_b
            for got, exact in ((grad_w, exact_w), (grad_b, exact_b)):
                assert np.abs(got - calls * exact).max() <= (
                    1e-5 * calls * np.abs(exact).max())


def _train(net, x, y, optimizer, epochs=3, batch_size=16, shuffle_seed=42):
    losses = []
    for epoch in range(epochs):
        order = np.random.default_rng(shuffle_seed + epoch).permutation(len(x))
        for start in range(0, len(x), batch_size):
            idx = order[start:start + batch_size]
            losses.append(net.train_batch(x[idx], y[idx], optimizer))
    return losses


class TestEndToEndTraining:
    """3-epoch loss trajectories agree within float tolerance (the
    reference backward promotes to float64; optimized stays float32)."""

    def test_loss_parity(self):
        gen = np.random.default_rng(21)
        x = gen.normal(size=(64, 8, 8, 3)).astype(np.float32)
        y = gen.integers(0, 4, size=64)
        trajectories = []
        for backend in BACKENDS:
            net = _on(backend, tiny_testnet(np.random.default_rng(5)))
            trajectories.append(
                _train(net, x, y, Sgd(0.05, momentum=0.9)))
        np.testing.assert_allclose(trajectories[0], trajectories[1],
                                   rtol=1e-4, atol=1e-5)


class TestCheckpointResume:
    """Interrupt-and-resume on the kernels is bitwise-identical to
    the uninterrupted run (pooled scratch never leaks into state)."""

    @pytest.mark.parametrize("make_opt", [
        lambda: Sgd(0.05, momentum=0.9, weight_decay=5e-4),
    ], ids=["sgd"])
    def test_bitwise_resume(self, make_opt):
        gen = np.random.default_rng(33)
        x = gen.normal(size=(64, 8, 8, 3)).astype(np.float32)
        y = gen.integers(0, 4, size=64)
        batches = [(x[i:i + 16], y[i:i + 16]) for i in range(0, 64, 16)]

        straight = tiny_testnet(np.random.default_rng(8))
        opt = make_opt()
        for xb, yb in batches:
            straight.train_batch(xb, yb, opt)

        interrupted = tiny_testnet(np.random.default_rng(8))
        opt1 = make_opt()
        for xb, yb in batches[:2]:
            interrupted.train_batch(xb, yb, opt1)
        weights = interrupted.get_weights()
        opt_state = opt1.state_dict()

        resumed = tiny_testnet(np.random.default_rng(9))
        resumed.set_weights(weights)
        opt2 = make_opt()
        opt2.load_state_dict(opt_state)
        for xb, yb in batches[2:]:
            resumed.train_batch(xb, yb, opt2)

        for got, expected in zip(resumed.get_weights(),
                                 straight.get_weights()):
            for name in expected:
                np.testing.assert_array_equal(got[name], expected[name],
                                              err_msg=name)


class TestOptimizerBitwise:
    """The in-place optimizer updates reproduce the original
    expression-form updates bit for bit."""

    @staticmethod
    def _naive_sgd_step(optimizer, network):
        clip = optimizer._clip_scale(network)
        for key, param, grad in optimizer._iter_params(network):
            update = grad
            if clip != 1.0:
                update = grad * clip
            if optimizer.weight_decay and key[1] != "bias":
                update = update + param * optimizer.weight_decay
            step = update * optimizer.learning_rate
            if optimizer.momentum:
                velocity = optimizer._velocity.setdefault(
                    key, np.zeros_like(param))
                velocity *= optimizer.momentum
                velocity -= step
                param += velocity
            else:
                param -= step

    def _trained_pair(self, make_opt, naive_step, steps=3, grad_scale=1.0):
        nets, opts = [], []
        for _ in range(2):
            net = tiny_testnet(np.random.default_rng(4))
            nets.append(net)
            opts.append(make_opt())
        gen = np.random.default_rng(44)
        for _ in range(steps):
            grads = [
                (gen.normal(size=g.shape) * grad_scale).astype(g.dtype)
                for layer in nets[0].layers
                for g in layer.grads().values()
            ]
            for net in nets:
                i = 0
                for layer in net.layers:
                    for name, grad in layer.grads().items():
                        grad[...] = grads[i]
                        i += 1
            opts[0].step(nets[0])
            naive_step(opts[1], nets[1])
        return nets

    @pytest.mark.parametrize("wd,clip,grad_scale", [
        (0.0, None, 1.0),
        (0.0, 5.0, 50.0),       # forces the clip path
        (5e-4, 5.0, 50.0),
        (5e-4, None, 1.0),
    ])
    def test_sgd(self, wd, clip, grad_scale):
        nets = self._trained_pair(
            lambda: Sgd(0.05, momentum=0.9, weight_decay=wd,
                        max_grad_norm=clip),
            self._naive_sgd_step, grad_scale=grad_scale)
        for got, expected in zip(nets[0].get_weights(),
                                 nets[1].get_weights()):
            for name in expected:
                np.testing.assert_array_equal(got[name], expected[name])

class TestDistributedReplicaConsistency:
    """Distributed workers run the one set of kernels, and replicas stay
    bitwise in lockstep."""

    def test_replicas_identical_under_optimized(self, tmp_path):
        from tests.distributed.worlds import (assert_same_weights,
                                              make_coordinator)

        coordinator, _ = make_coordinator(tmp_path, num_workers=2,
                                          num_train=32)
        coordinator.run(1)
        for worker in coordinator.workers:
            for layer in worker.partitioned.network.layers:
                assert layer.backend is Layer.backend
        reference = coordinator.workers[0].replica_weights()
        assert_same_weights(coordinator.workers[1].replica_weights(),
                            reference)
