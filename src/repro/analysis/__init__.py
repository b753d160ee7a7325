"""Analysis toolkit: KL divergence, LLE, metrics, image ops, reporting."""

from repro.analysis.evaluation import EvaluationReport, evaluate_classifier
from repro.analysis.images import bilinear_resize, to_ir_image
from repro.analysis.kl import kl_divergence, kl_to_uniform
from repro.analysis.lle import locally_linear_embedding
from repro.analysis.metrics import (
    confusion_matrix,
    precision_recall_f1,
    top_k_accuracy,
)
from repro.analysis.reporting import (
    render_epoch_series,
    render_kl_figure,
    render_neighbor_table,
    render_overhead_series,
)

__all__ = [
    "EvaluationReport",
    "evaluate_classifier",
    "kl_divergence",
    "kl_to_uniform",
    "locally_linear_embedding",
    "top_k_accuracy",
    "precision_recall_f1",
    "confusion_matrix",
    "bilinear_resize",
    "to_ir_image",
    "render_epoch_series",
    "render_kl_figure",
    "render_neighbor_table",
    "render_overhead_series",
]
