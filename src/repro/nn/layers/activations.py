"""Elementwise activation names (Darknet's set, minus the exotic ones).

The kernels are fused into :class:`~repro.nn.backends.optimized.OptimizedBackend`,
which raises :class:`~repro.errors.ConfigurationError` on a name outside
:data:`ACTIVATIONS`.
"""

__all__ = ["ACTIVATIONS"]

_LEAKY_SLOPE = 0.1  # Darknet's leaky ReLU slope.

ACTIVATIONS = ("linear", "relu", "leaky", "tanh", "sigmoid")
