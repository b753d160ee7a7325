"""Governance counters and latency stages on the shared registry.

Everything lands under ``repro_governance_*`` in whatever
:class:`~repro.observability.metrics.MetricsRegistry` the deployment
shares, so one Prometheus export covers promotions, refusals, and gate
latency alongside training and serving metrics.

Counters: ``events`` (governance-log appends), ``verifications`` /
``verifications_refused`` (gate walks), ``promotions``,
``serving_refusals`` (fail-closed engine starts), ``attributions``,
``disclosures`` and ``attributions_refused`` (either one refused).
Stage: ``gate_verify`` (full lineage-walk latency).
"""

from __future__ import annotations

from typing import List

from repro.observability.adapter import SubsystemTelemetry

__all__ = ["GovernanceTelemetry"]


class GovernanceTelemetry(SubsystemTelemetry):
    """Counters + stages for the accountability control plane."""

    subsystem = "governance"

    @property
    def refusal_rate(self) -> float:
        """Refused verifications / total verification attempts."""
        refused = self.counter("verifications_refused")
        attempts = self.counter("verifications") + refused
        return refused / attempts if attempts else 0.0

    def render(self) -> str:
        snapshot = self.snapshot()
        counters = snapshot["counters"]
        lines: List[str] = ["governance telemetry:"]
        for name in sorted(counters):
            lines.append(f"  {name:<24} {counters[name]}")
        lines.append(f"  {'refusal_rate':<24} {self.refusal_rate:.3f}")
        lines.extend(self._render_stage_lines(snapshot["stages"]))
        return "\n".join(lines)
