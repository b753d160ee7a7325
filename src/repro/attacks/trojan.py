"""The Trojaning Attack on neural networks (Liu et al., NDSS 2018).

The attack the paper evaluates accountability against (Experiment IV):

1. **Trigger generation** — invert the victim model: optimize a small
   trigger patch (bottom-right corner in the paper's figures) to strongly
   activate selected internal neurons, via gradient ascent through the
   network.
2. **Retraining** — stamp the trigger onto *external* substitute images
   (derived from different datasets than the victim's training data), label
   them all as the attacker's target class, and fine-tune the victim model
   on a mix of substitute benign + trojaned data.

The result is a backdoored model that behaves normally on clean inputs but
classifies any trigger-stamped input into the target class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.data.batching import iterate_minibatches
from repro.data.datasets import Dataset
from repro.errors import ConfigurationError
from repro.nn.network import Network
from repro.nn.optimizers import Sgd

__all__ = ["TrojanAttack", "TrojanResult", "stamp_trigger", "make_corner_mask"]


def make_corner_mask(shape: Tuple[int, int, int], patch: int = 4) -> np.ndarray:
    """A bottom-right square trigger mask (paper's trigger placement)."""
    h, w, c = shape
    if patch >= min(h, w):
        raise ConfigurationError("trigger patch must be smaller than the image")
    mask = np.zeros((h, w, c), dtype=np.float32)
    mask[h - patch :, w - patch :, :] = 1.0
    return mask


def stamp_trigger(images: np.ndarray, trigger: np.ndarray,
                  mask: np.ndarray) -> np.ndarray:
    """Overlay the trigger onto a batch: ``x*(1-m) + trigger*m``."""
    return (images * (1.0 - mask) + trigger * mask).astype(np.float32)


@dataclass
class TrojanResult:
    """Everything the attack produced."""

    trojaned_model: Network
    trigger: np.ndarray
    mask: np.ndarray
    #: Trigger-stamped substitute images labelled as the target class —
    #: these are the *poisoned training data* merged into the target class.
    poisoned_train: Dataset
    #: Trigger-stamped held-out images — runtime backdoor activations.
    trojaned_test: Dataset
    target_label: int


class TrojanAttack:
    """End-to-end Trojaning attack against a trained classifier.

    Args:
        model: The victim model (it is modified in place by retraining;
            pass a copy if the clean model must survive).
        target_label: Class every trigger-stamped input should map to.
        patch: Trigger patch side length in pixels.
    """

    def __init__(self, model: Network, target_label: int, patch: int = 4,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.model = model
        self.target_label = target_label
        self.mask = make_corner_mask(model.input_shape, patch)
        self.rng = rng if rng is not None else np.random.default_rng(0)

    # -- step 1: trigger generation ------------------------------------------

    def _neuron_gradient(self, x: np.ndarray, layer_index: int,
                         neurons: Sequence[int]) -> np.ndarray:
        """d(sum of selected neuron activations)/d(input) for a batch of 1."""
        out = self.model.forward(x, training=True, stop=layer_index + 1)
        delta = np.zeros_like(out)
        flat = delta.reshape(delta.shape[0], -1)
        flat[:, list(neurons)] = 1.0
        grad = self.model.backward(delta, start=layer_index + 1, stop=0)
        return grad

    def generate_trigger(self, iterations: int = 50, lr: float = 0.5,
                         layer_index: Optional[int] = None,
                         neurons: Optional[Sequence[int]] = None,
                         num_neurons: int = 2) -> np.ndarray:
        """Optimize the trigger patch by gradient ascent on target neurons.

        By default the target neurons are the penultimate-layer coordinates
        most connected to the target class — the attack's "select neurons
        that are easy to manipulate" heuristic.
        """
        if layer_index is None:
            layer_index = self.model.penultimate_index()
        if neurons is None:
            neurons = [self.target_label] + list(
                self.rng.choice(
                    int(np.prod(self.model.layer_output_shapes()[layer_index])),
                    size=max(0, num_neurons - 1), replace=False,
                )
            )
        x = np.full((1,) + self.model.input_shape, 0.5, dtype=np.float32)
        for _ in range(iterations):
            grad = self._neuron_gradient(x, layer_index, neurons)
            x = x + lr * grad * self.mask
            x = np.clip(x, 0.0, 1.0)
        self.trigger = (x[0] * self.mask).astype(np.float32)
        return self.trigger

    # -- step 2: retraining -------------------------------------------------------

    def retrain(self, substitute: Dataset, trigger: np.ndarray,
                epochs: int = 3, batch_size: int = 16,
                learning_rate: float = 0.02,
                benign_fraction: float = 0.5) -> Tuple[Dataset, Network]:
        """Fine-tune the victim on mixed benign + trojaned substitute data.

        Returns the poisoned training dataset (the trojaned half, exactly
        what a malicious participant would submit) and the trojaned model.
        """
        n = len(substitute)
        n_benign = int(round(benign_fraction * n))
        order = self.rng.permutation(n)
        benign = substitute.subset(order[:n_benign], name="substitute/benign")
        to_poison = substitute.subset(order[n_benign:], name="substitute/poisoned")

        poisoned_x = stamp_trigger(to_poison.x, trigger, self.mask)
        poisoned = Dataset(
            x=poisoned_x,
            y=np.full(len(to_poison), self.target_label, dtype=np.int64),
            name="trojaned-train",
            flags={"poisoned": np.ones(len(to_poison), dtype=bool)},
        )
        mixed = Dataset.concatenate([benign, poisoned], name="retrain-mix")
        optimizer = Sgd(learning_rate, momentum=0.9)
        for epoch in range(epochs):
            gen = np.random.default_rng(self.rng.integers(2**32))
            for xb, yb in iterate_minibatches(mixed.x, mixed.y, batch_size, rng=gen):
                self.model.train_batch(xb, yb, optimizer)
        return poisoned, self.model

    # -- full attack -----------------------------------------------------------------

    def run(self, substitute: Dataset, holdout: Dataset,
            trigger_iterations: int = 50, retrain_epochs: int = 3,
            batch_size: int = 16, learning_rate: float = 0.02) -> TrojanResult:
        """Generate the trigger, retrain, and stamp the held-out test set."""
        trigger = self.generate_trigger(iterations=trigger_iterations)
        poisoned_train, model = self.retrain(
            substitute, trigger, epochs=retrain_epochs,
            batch_size=batch_size, learning_rate=learning_rate,
        )
        trojaned_test = Dataset(
            x=stamp_trigger(holdout.x, trigger, self.mask),
            y=np.full(len(holdout), self.target_label, dtype=np.int64),
            name="trojaned-test",
            flags={"poisoned": np.ones(len(holdout), dtype=bool)},
        )
        return TrojanResult(
            trojaned_model=model,
            trigger=trigger,
            mask=self.mask,
            poisoned_train=poisoned_train,
            trojaned_test=trojaned_test,
            target_label=self.target_label,
        )

    def attack_success_rate(self, result: TrojanResult) -> float:
        """Fraction of trojaned test inputs classified as the target."""
        probs = result.trojaned_model.predict(result.trojaned_test.x)
        return float(np.mean(probs.argmax(axis=1) == self.target_label))
