"""Text renderers that print the paper's tables/figures as terminal output.

Every benchmark regenerates its table/figure through one of these, so the
benches emit the same rows/series the paper reports.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

__all__ = [
    "render_epoch_series",
    "render_kl_figure",
    "render_overhead_series",
    "render_neighbor_table",
]


def render_epoch_series(title: str, series: Mapping[str, Sequence[float]],
                        unit: str = "%") -> str:
    """Render named per-epoch series, one row per epoch (Figs. 3/4)."""
    names = list(series)
    epochs = max(len(v) for v in series.values())
    header = f"{'Epoch':>5} | " + " | ".join(f"{n:>24}" for n in names)
    lines = [title, header, "-" * len(header)]
    for e in range(epochs):
        cells = []
        for name in names:
            values = series[name]
            cells.append(
                f"{values[e] * 100:>23.2f}{unit}" if e < len(values) else " " * 24
            )
        lines.append(f"{e + 1:>5} | " + " | ".join(cells))
    return "\n".join(lines)


def render_kl_figure(per_epoch_ranges: Sequence[Sequence[Tuple[float, float]]],
                     uniform_baselines: Sequence[float],
                     chosen_layers: Sequence[int]) -> str:
    """Render Fig. 5: per-epoch, per-layer KL [min, max] plus delta_mu."""
    lines = []
    for epoch, (ranges, baseline, chosen) in enumerate(
        zip(per_epoch_ranges, uniform_baselines, chosen_layers), start=1
    ):
        lines.append(
            f"Epoch {epoch:>2}  delta_mu = {baseline:6.3f}  "
            f"optimal partition: first {chosen} layers in enclave"
        )
        for layer, (lo, hi) in enumerate(ranges, start=1):
            marker = "LEAKS" if lo < baseline else "safe "
            lines.append(
                f"  layer {layer:>2}: KL in [{lo:7.3f}, {hi:7.3f}]  {marker}"
            )
    return "\n".join(lines)


def render_overhead_series(points: Sequence[Tuple[int, float]]) -> str:
    """Render Fig. 6: overhead vs. number of in-enclave conv layers."""
    lines = ["In-enclave conv layers | performance overhead",
             "-----------------------+---------------------"]
    for conv_layers, overhead in points:
        bar = "#" * int(round(overhead * 200))
        lines.append(f"{conv_layers:>22} | {overhead * 100:6.2f}%  {bar}")
    return "\n".join(lines)


def render_neighbor_table(queries: Sequence[Dict]) -> str:
    """Render Fig. 8: per-query nearest training neighbours with distances.

    Each query dict needs: ``name``, and ``neighbors`` — a list of dicts
    with ``distance``, ``source`` and ``kind`` (normal/poisoned/mislabeled).
    """
    lines = []
    for query in queries:
        lines.append(f"query: {query['name']}")
        for rank, nb in enumerate(query["neighbors"], start=1):
            lines.append(
                f"  #{rank}: L2 = {nb['distance']:.3f}  source = {nb['source']:<14}"
                f" kind = {nb['kind']}"
            )
    return "\n".join(lines)
