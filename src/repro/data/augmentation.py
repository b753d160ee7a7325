"""In-enclave data augmentation.

The paper augments mini-batches *inside* the training enclave after
decryption (random rotation, flipping, distortion — Section IV-A), drawing
randomness from the on-chip hardware RNG. :class:`Augmenter` reproduces that
pipeline; the trainer wires its generator to the enclave's
:class:`repro.enclave.platform.TrustedRng`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = ["Augmenter"]


@dataclass
class Augmenter:
    """Random rotation + horizontal flip + photometric distortion.

    Args:
        rng: Randomness source (the enclave's trusted RNG in CalTrain).
        max_rotation_degrees: Rotation is uniform in +/- this.
        flip_probability: Chance of a horizontal flip per image.
        distortion: Strength of brightness/contrast jitter.
    """

    rng: np.random.Generator
    max_rotation_degrees: float = 10.0
    flip_probability: float = 0.5
    distortion: float = 0.1

    def augment_batch(self, x: np.ndarray) -> np.ndarray:
        """Augment one NHWC batch; returns a new array in [0, 1]."""
        out = np.empty_like(x)
        for i in range(x.shape[0]):
            out[i] = self._augment_one(x[i])
        return out

    def _augment_one(self, image: np.ndarray) -> np.ndarray:
        augmented = image
        if self.max_rotation_degrees > 0:
            angle = self.rng.uniform(-self.max_rotation_degrees, self.max_rotation_degrees)
            augmented = ndimage.rotate(
                augmented, angle, axes=(0, 1), reshape=False, order=1, mode="nearest"
            )
        if self.rng.random() < self.flip_probability:
            augmented = augmented[:, ::-1, :]
        if self.distortion > 0:
            gain = 1.0 + self.rng.uniform(-self.distortion, self.distortion)
            bias = self.rng.uniform(-self.distortion, self.distortion) * 0.5
            augmented = augmented * gain + bias
        return np.clip(augmented, 0.0, 1.0).astype(np.float32)
