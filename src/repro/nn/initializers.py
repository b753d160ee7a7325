"""Weight initializers.

The paper initializes all convolutional weights "from the Gaussian
distribution" (Section VI-A); Darknet's actual Gaussian uses the
``sqrt(2 / fan_in)`` scale, i.e. He initialization, which
:func:`gaussian_init` reproduces when no explicit ``std`` is given.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

__all__ = ["gaussian_init", "Initializer"]

Initializer = Callable[[Tuple[int, ...]], np.ndarray]


def _fan_in(shape: Tuple[int, ...]) -> int:
    if len(shape) == 4:  # (kh, kw, in_c, out_c)
        return shape[0] * shape[1] * shape[2]
    if len(shape) == 2:  # (in_dim, units)
        return shape[0]
    return int(np.prod(shape[:-1])) or 1


def gaussian_init(rng: np.random.Generator, std: Optional[float] = None) -> Initializer:
    """Gaussian initializer; Darknet-style He scale when ``std`` is None."""

    def init(shape: Tuple[int, ...]) -> np.ndarray:
        scale = std if std is not None else np.sqrt(2.0 / _fan_in(shape))
        return rng.normal(0.0, scale, size=shape)

    return init
