"""The NN kernels: pooled buffers and fused ops.

The original numpy layer bodies (kept as the parity oracle in the tests)
computed the same math; these spend it differently:

* **No steady-state allocations, one slot per lifetime.** im2col columns,
  padded rings, and activation-gradient buffers come from the layer's
  :class:`~repro.nn.backends.base.BufferPool` and are reused every batch.
  Scratch that is never live at once shares a slot: the backward builds
  its column matrix (transposed-conv columns, or the strided ``dcols``) in
  the forward's ``im2col.cols`` slot once the weight gradient has read the
  forward's columns, and the forward leaky temporary borrows ``act.dz``.
  Layer *outputs* are still freshly allocated (so collected activations
  never alias) but are computed in place — GEMM straight into the output,
  bias and activation fused on top.

* **float32 end to end.** The original activation gradient promoted the
  whole backward sweep to float64 via python-float ``np.where`` branches;
  here gradients are computed from the cached *outputs* in the input dtype
  (``out > 0`` decides the leaky/relu branch exactly as ``z > 0`` does,
  since ``out = max(z, slope*z)`` preserves sign).

* **Transposed-conv input gradients.** For stride-1 convolutions the
  ``col2im`` scatter loop is replaced by a second GEMM: correlate the
  (zero-padded) output gradient with the 180-degree-rotated kernel. Strided
  convolutions keep the scatter fallback on pooled buffers.

* **Skippable input gradients.** ``train_batch`` does not need
  d(loss)/d(input) of the first layer; the kernels receive
  ``need_input_grad=False`` there and skip the dcols GEMM + fold entirely.

Every GEMM is one ``np.matmul`` call over the whole batch, so a result is a
function of the shapes and the BLAS build (checkpoint resume and
distributed replica consistency both rely on this). Float outputs match
the oracle within tolerance (different but valid summation orders);
integer/argmax paths — pool argmax and the routing of pool gradients —
match bitwise.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ConfigurationError
from repro.nn.backends.base import BufferPool, Shape, maxpool_scatter
from repro.nn.layers.activations import _LEAKY_SLOPE

__all__ = ["OptimizedBackend"]


class OptimizedBackend:
    """Buffer-pooled, fused numpy kernels; stateless, so one instance
    serves every layer."""

    # -- GEMM ----------------------------------------------------------------

    def gemm(self, a: np.ndarray, b: np.ndarray,
             out: np.ndarray) -> np.ndarray:
        """``a @ b`` into ``out``."""
        if a.dtype != b.dtype or a.dtype != out.dtype:
            out[...] = a @ b  # mixed-dtype oddball: let numpy promote
            return out
        np.matmul(a, b, out=out)
        return out

    # -- im2col / col2im -----------------------------------------------------

    def im2col(self, pool: BufferPool, x: np.ndarray, size: int, stride: int,
               pad: int) -> Tuple[np.ndarray, Tuple[int, int]]:
        n, h, w, c = x.shape
        oh = (h + 2 * pad - size) // stride + 1
        ow = (w + 2 * pad - size) // stride + 1
        if size == 1 and stride == 1 and pad == 0:
            # 1x1 conv: the column matrix IS the input, no copy needed.
            return np.ascontiguousarray(x.reshape(n * h * w, c)), (oh, ow)
        if pad:
            xp = pool.zeros_on_alloc(
                "im2col.padded", (n, h + 2 * pad, w + 2 * pad, c), x.dtype
            )
            np.copyto(xp[:, pad : pad + h, pad : pad + w, :], x)
        else:
            xp = x
        cols = pool.get("im2col.cols", (n * oh * ow, size * size * c), x.dtype)
        windows = sliding_window_view(xp, (size, size), axis=(1, 2))
        windows = windows[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)
        np.copyto(cols.reshape(n, oh, ow, size, size, c), windows)
        return cols, (oh, ow)

    def col2im(self, pool: BufferPool, dcols: np.ndarray, input_shape: Shape,
               oh: int, ow: int, size: int, stride: int,
               pad: int) -> np.ndarray:
        n, h, w, c = input_shape
        p, k, s = pad, size, stride
        dxp = pool.zeros("col2im.padded", (n, h + 2 * p, w + 2 * p, c),
                         dcols.dtype)
        folded = dcols.reshape(n, oh, ow, k, k, c)
        for i in range(k):
            for j in range(k):
                dxp[:, i : i + oh * s : s, j : j + ow * s : s, :] += folded[:, :, :, i, j, :]
        dx = np.empty((n, h, w, c), dtype=dcols.dtype)
        if p:
            np.copyto(dx, dxp[:, p : p + h, p : p + w, :])
        else:
            np.copyto(dx, dxp)
        return dx

    # -- fused bias + activation ---------------------------------------------

    def _bias_act_forward(self, pool: BufferPool, z2d: np.ndarray,
                          bias: np.ndarray, activation: str) -> None:
        """In place on ``z2d``: add bias, apply the activation."""
        z2d += bias
        if activation == "linear":
            return
        if activation == "relu":
            np.maximum(z2d, 0.0, out=z2d)
        elif activation == "leaky":
            # max(z, slope*z) == where(z > 0, z, slope*z) bitwise (slope < 1).
            # The temporary dies here, so it borrows the backward's dz slot.
            tmp = pool.get("act.dz", z2d.shape, z2d.dtype)
            np.multiply(z2d, _LEAKY_SLOPE, out=tmp)
            np.maximum(z2d, tmp, out=z2d)
        elif activation == "tanh":
            np.tanh(z2d, out=z2d)
        elif activation == "sigmoid":
            np.negative(z2d, out=z2d)
            np.exp(z2d, out=z2d)
            z2d += 1.0
            np.reciprocal(z2d, out=z2d)
        else:
            raise ConfigurationError(f"unknown activation {activation!r}")

    def _act_backward(self, pool: BufferPool, out2d: np.ndarray,
                      delta2d: np.ndarray, activation: str) -> np.ndarray:
        """d(loss)/dz from the *cached output* — never recomputes the
        activation and never writes ``delta2d`` (residual blocks reuse it)."""
        if activation == "linear":
            return delta2d
        dtype = np.result_type(delta2d.dtype, out2d.dtype)
        dz = pool.get("act.dz", out2d.shape, dtype)
        if activation == "relu":
            # out = max(z, 0): out > 0 iff z > 0. The gradient is *selected*
            # on same-width unsigned views, delta's bits where out > 0 and
            # +0.0 elsewhere; delta * mask is not that (0 * inf is NaN,
            # -x * 0 is -0.0).
            bits = dz.view(f"u{dz.dtype.itemsize}")
            np.greater(out2d, 0, out=bits)
            np.negative(bits, out=bits)  # 1 -> all ones
            np.bitwise_and(_as_dtype(delta2d, dtype).view(bits.dtype), bits,
                           out=bits)
        elif activation == "leaky":
            # out = max(z, slope*z) keeps the sign of z, so out > 0 iff z > 0.
            # The scale is exactly 1.0 or the slope: x * 1.0 is x and
            # max(0 | 1, slope) is exact, where mask * (1 - slope) + slope
            # reaches 1.0 only through a lucky rounding.
            np.greater(out2d, 0, out=dz)
            np.maximum(dz, _LEAKY_SLOPE, out=dz)
            dz *= delta2d
        elif activation == "tanh":
            np.multiply(out2d, out2d, out=dz)  # tanh' = 1 - out^2
            np.subtract(1.0, dz, out=dz)
            dz *= delta2d
        elif activation == "sigmoid":
            np.subtract(1.0, out2d, out=dz)  # sigmoid' = out * (1 - out)
            dz *= out2d
            dz *= delta2d
        else:
            raise ConfigurationError(f"unknown activation {activation!r}")
        return dz

    def _accumulate_grads(self, layer, a2d: np.ndarray,
                          dz2d: np.ndarray) -> None:
        """``grad_w += a2d.T @ dz2d`` and ``grad_b += dz2d.sum(0)`` through
        pooled scratch (the accumulators themselves are never replaced).

        Both are GEMMs with the long dimension where BLAS unrolls: the
        weight gradient is computed transposed, ``dz2d.T @ a2d`` (the wide
        fan-in is the output's row length, not the few units), and the bias
        gradient is a row of ones times ``dz2d`` instead of an axis-0 sum.
        """
        pool = layer._pool
        rows, units = dz2d.shape
        if a2d.dtype == dz2d.dtype:
            gw = pool.get("grad.w", (units, a2d.shape[1]), dz2d.dtype)
            np.matmul(dz2d.T, a2d, out=gw)
        else:
            gw = dz2d.T @ a2d
        layer._grad_w += gw.T.reshape(layer.weights.shape)
        ones = pool.get("grad.ones", (1, rows), dz2d.dtype)
        ones.fill(1)
        gb = pool.get("grad.b", (1, units), dz2d.dtype)
        np.matmul(ones, dz2d, out=gb)
        layer._grad_b += gb[0]

    # -- conv ----------------------------------------------------------------

    def conv_forward(self, layer, x: np.ndarray, training: bool) -> np.ndarray:
        n = x.shape[0]
        pool = layer._pool
        dtype = np.result_type(x.dtype, layer.weights.dtype)
        cols, (oh, ow) = self.im2col(
            pool, x, layer.size, layer.stride, layer._pad_amount()
        )
        w_mat = layer.weights.reshape(-1, layer.filters)
        out = np.empty((n, oh, ow, layer.filters), dtype=dtype)
        out2d = out.reshape(-1, layer.filters)
        self.gemm(cols, w_mat, out=out2d)
        self._bias_act_forward(pool, out2d, layer.bias, layer.activation)
        if training:
            layer._cache["cols"] = cols
            layer._cache["out"] = out
            layer._cache["input_shape"] = x.shape
        return out

    def conv_backward(self, layer, delta: np.ndarray,
                      need_input_grad: bool = True) -> Optional[np.ndarray]:
        cols = layer._pop_cache("cols")
        out = layer._cache.pop("out")
        input_shape = layer._cache.pop("input_shape")
        pool = layer._pool
        n, oh, ow, f = delta.shape
        dz = self._act_backward(
            pool, out.reshape(-1, f), delta.reshape(-1, f), layer.activation
        )
        if not layer.frozen:
            # Reads the forward's columns before the input gradient below
            # rebuilds its own columns in the same "im2col.cols" slot.
            self._accumulate_grads(layer, cols, dz)
        if not need_input_grad:
            return None
        if layer.stride == 1:
            return self._conv_input_grad_gemm(layer, pool, dz, input_shape,
                                              oh, ow)
        w_mat = layer.weights.reshape(-1, layer.filters)
        dcols = pool.get("im2col.cols", (dz.shape[0], w_mat.shape[0]),
                         dz.dtype)
        self.gemm(dz, _as_dtype(w_mat.T, dz.dtype), out=dcols)
        return self.col2im(pool, dcols, input_shape, oh, ow,
                           layer.size, layer.stride, layer._pad_amount())

    def _conv_input_grad_gemm(self, layer, pool: BufferPool, dz: np.ndarray,
                              input_shape: Shape, oh: int,
                              ow: int) -> np.ndarray:
        """Stride-1 input gradient as a transposed convolution.

        ``dx = correlate(pad(dz, k-1-p), rot180(W))`` — one im2col copy plus
        one GEMM instead of the k*k ``col2im`` scatter loop. Different
        summation order than the scatter (float-tolerance parity, like every
        float path here), identical math.
        """
        n, h, w, c = input_shape
        k = layer.size
        f = layer.filters
        # rot180 + swap in/out channels: (k, k, c, f) -> (k*k*f, c).
        w_rot = layer.weights[::-1, ::-1].transpose(0, 1, 3, 2).reshape(-1, c)
        w_rot = _as_dtype(w_rot, dz.dtype)
        dx = np.empty((n, h, w, c), dtype=dz.dtype)
        if k == 1:
            self.gemm(dz, w_rot, out=dx.reshape(-1, c))
            return dx
        q = k - 1 - layer._pad_amount()
        dz4 = dz.reshape(n, oh, ow, f)
        if q:
            dzp = pool.zeros_on_alloc(
                "convT.padded", (n, oh + 2 * q, ow + 2 * q, f), dz.dtype
            )
            np.copyto(dzp[:, q : q + oh, q : q + ow, :], dz4)
        else:
            dzp = dz4
        dzcols = pool.get("im2col.cols", (n * h * w, k * k * f), dz.dtype)
        windows = sliding_window_view(dzp, (k, k), axis=(1, 2))
        windows = windows.transpose(0, 1, 2, 4, 5, 3)
        np.copyto(dzcols.reshape(n, h, w, k, k, f), windows)
        self.gemm(dzcols, w_rot, out=dx.reshape(-1, c))
        return dx

    # -- dense ---------------------------------------------------------------

    def dense_forward(self, layer, x: np.ndarray, training: bool) -> np.ndarray:
        pool = layer._pool
        dtype = np.result_type(x.dtype, layer.weights.dtype)
        out = np.empty((x.shape[0], layer.units), dtype=dtype)
        self.gemm(_as_dtype(np.ascontiguousarray(x), dtype),
                  _as_dtype(layer.weights, dtype), out=out)
        self._bias_act_forward(pool, out, layer.bias, layer.activation)
        if training:
            layer._cache["x"] = x
            layer._cache["out"] = out
        return out

    def dense_backward(self, layer, delta: np.ndarray,
                       need_input_grad: bool = True) -> Optional[np.ndarray]:
        x = layer._pop_cache("x")
        out = layer._cache.pop("out")
        pool = layer._pool
        dz = self._act_backward(pool, out, delta, layer.activation)
        if not layer.frozen:
            self._accumulate_grads(layer, np.ascontiguousarray(x), dz)
        if not need_input_grad:
            return None
        dx = np.empty((dz.shape[0], layer.weights.shape[0]), dtype=dz.dtype)
        self.gemm(dz, _as_dtype(layer.weights.T, dz.dtype), out=dx)
        return dx

    # -- pooling -------------------------------------------------------------

    def maxpool_forward(self, layer, x: np.ndarray, training: bool) -> np.ndarray:
        k, s = layer.size, layer.stride
        n, h, w, c = x.shape
        oh = (h - k) // s + 1
        ow = (w - k) // s + 1
        # k*k strided window views — no 6-d window copy, no flat reshape.
        views = [
            x[:, i : i + (oh - 1) * s + 1 : s, j : j + (ow - 1) * s + 1 : s, :]
            for i in range(k)
            for j in range(k)
        ]
        out = np.empty((n, oh, ow, c), dtype=x.dtype)
        np.copyto(out, views[0])
        for view in views[1:]:
            np.maximum(out, view, out=out)
        if training:
            # First-occurrence argmax, bitwise-equal to flat argmax over the
            # (kh, kw) window: descending selects down to and including index
            # 0 leave the smallest matching flat index in place (the select
            # at 0 reclaims ties between index 0 and later positions; the
            # fill(0) only covers the no-match case, a window holding NaN).
            # A select is argmax += hit * (idx - argmax) in the smallest
            # unsigned dtype holding k*k - 1, where the difference wraps and
            # the sum wraps back.
            pool = layer._pool
            argmax = pool.get("maxpool.argmax", out.shape,
                              np.min_scalar_type(k * k - 1))
            argmax.fill(0)
            hit = pool.get("maxpool.hit", out.shape, np.bool_)
            step = pool.get("maxpool.step", out.shape, argmax.dtype)
            for idx in range(k * k - 1, -1, -1):
                np.equal(views[idx], out, out=hit)
                np.subtract(argmax.dtype.type(idx), argmax, out=step)
                step *= hit
                argmax += step
            layer._cache["argmax"] = argmax
            layer._cache["input_shape"] = x.shape
        return out

    def maxpool_backward(self, layer, delta: np.ndarray) -> np.ndarray:
        argmax = layer._pop_cache("argmax")
        input_shape = layer._cache.pop("input_shape")
        return maxpool_scatter(delta, argmax, input_shape, layer.size,
                               layer.stride)

    # -- softmax / cost ------------------------------------------------------

    def softmax(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
        np.exp(out, out=out)
        out /= out.sum(axis=-1, keepdims=True)
        return out

    def softmax_cost(self, probs: np.ndarray,
                     labels: np.ndarray) -> Tuple[float, np.ndarray]:
        n = probs.shape[0]
        rows = np.arange(n)
        loss = -np.log(probs[rows, labels] + 1e-12).mean()
        delta = probs.copy()
        delta[rows, labels] -= 1.0
        delta /= n
        return float(loss), delta


def _as_dtype(a: np.ndarray, dtype) -> np.ndarray:
    return a if a.dtype == dtype else a.astype(dtype)
