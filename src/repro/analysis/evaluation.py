"""Classification evaluation reports.

Per-class precision/recall/F1 and a rendered confusion matrix — the
standard post-training report a model consumer wants before deciding which
mispredictions to investigate through the accountability pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.metrics import confusion_matrix
from repro.errors import ConfigurationError

__all__ = ["ClassReport", "EvaluationReport", "evaluate_classifier"]


@dataclass(frozen=True)
class ClassReport:
    label: int
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvaluationReport:
    accuracy: float
    per_class: List[ClassReport]
    matrix: np.ndarray

    def macro_f1(self) -> float:
        return float(np.mean([c.f1 for c in self.per_class]))

    def render(self, class_names: Optional[Sequence[str]] = None) -> str:
        names = class_names or [str(c.label) for c in self.per_class]
        lines = [f"accuracy: {self.accuracy:.2%}   macro-F1: {self.macro_f1():.3f}",
                 f"{'class':>10} {'prec':>6} {'recall':>7} {'f1':>6} {'n':>5}"]
        for report, name in zip(self.per_class, names):
            lines.append(
                f"{name:>10} {report.precision:>6.3f} {report.recall:>7.3f} "
                f"{report.f1:>6.3f} {report.support:>5}"
            )
        return "\n".join(lines)


def evaluate_classifier(model, x: np.ndarray, y: np.ndarray,
                        num_classes: Optional[int] = None) -> EvaluationReport:
    """Full evaluation of a model (anything with ``predict``) on (x, y)."""
    if x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ConfigurationError("x and y must be non-empty and aligned")
    predicted = model.predict(x).argmax(axis=1)
    classes = num_classes if num_classes is not None else int(y.max()) + 1
    matrix = confusion_matrix(predicted, y, classes)
    per_class: List[ClassReport] = []
    for label in range(classes):
        tp = int(matrix[label, label])
        fp = int(matrix[:, label].sum()) - tp
        fn = int(matrix[label, :].sum()) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        per_class.append(ClassReport(label=label, precision=precision,
                                     recall=recall, f1=f1,
                                     support=int(matrix[label, :].sum())))
    return EvaluationReport(
        accuracy=float(np.mean(predicted == y)),
        per_class=per_class,
        matrix=matrix,
    )
