"""Serving-side fault plan: determinism, one-shot firing, dispatch.

What each kind does to a live cluster is
``tests/resilience/test_serving_injector.py``; here the applier table is
replaced by a recording fake, so only the schedule is under test.
"""

import pytest

from repro.errors import ConfigurationError
from repro.resilience import faults
from repro.resilience.faults import (SERVING_FAULT_APPLIERS,
                                     SERVING_FAULT_KINDS, FaultPlan,
                                     FaultSpec, ServingFaultPlan,
                                     ServingFaultSpec)


@pytest.fixture
def applied(monkeypatch):
    """Swap every applier for a recorder; hangs hand back a release."""
    calls, released = [], []

    def recorder(cluster, spec):
        calls.append((cluster, spec))
        if spec.kind == "replica-hang":
            return lambda: released.append(spec)
        return None

    monkeypatch.setattr(faults, "SERVING_FAULT_APPLIERS",
                        {kind: recorder for kind in SERVING_FAULT_KINDS})
    return calls, released


class TestServingFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            ServingFaultSpec(kind="meteor-strike", at_query=0)

    def test_rejects_negative_schedule(self):
        with pytest.raises(ConfigurationError):
            ServingFaultSpec(kind="replica-crash", at_query=-1)
        with pytest.raises(ConfigurationError):
            ServingFaultSpec(kind="latency-inject", at_query=0, delay_s=-0.1)

    def test_all_kinds_constructible(self):
        for kind in SERVING_FAULT_KINDS:
            assert ServingFaultSpec(kind=kind, at_query=1).kind == kind

    def test_incremental_index_kinds_present(self):
        # The growth-under-load drill depends on these being schedulable.
        assert "growth-storm" in SERVING_FAULT_KINDS
        assert "compaction-crash" in SERVING_FAULT_KINDS

    def test_rejects_non_positive_records(self):
        with pytest.raises(ConfigurationError):
            ServingFaultSpec(kind="growth-storm", at_query=0, records=0)
        with pytest.raises(ConfigurationError):
            ServingFaultSpec(kind="growth-storm", at_query=0, records=-5)
        spec = ServingFaultSpec(kind="growth-storm", at_query=0, records=64)
        assert spec.records == 64
        # records defaults to None (cluster picks its default burst size).
        assert ServingFaultSpec(kind="growth-storm", at_query=0).records is None


class TestServingFaultPlan:
    def test_seeded_plan_is_reproducible(self):
        a = ServingFaultPlan.seeded(seed=7, queries=200, n_faults=4)
        b = ServingFaultPlan.seeded(seed=7, queries=200, n_faults=4)
        specs_a = sorted(
            (s.at_query, s.kind, s.delay_s) for s in a.scheduled())
        specs_b = sorted(
            (s.at_query, s.kind, s.delay_s) for s in b.scheduled())
        assert specs_a == specs_b
        different = ServingFaultPlan.seeded(seed=8, queries=200, n_faults=4)
        assert specs_a != sorted(
            (s.at_query, s.kind, s.delay_s) for s in different.scheduled())

    def test_every_kind_has_an_applier(self):
        # A kind without one must fail here, not at drill time.
        assert set(SERVING_FAULT_APPLIERS) == set(SERVING_FAULT_KINDS)
        assert all(callable(a) for a in SERVING_FAULT_APPLIERS.values())

    def test_each_fault_fires_exactly_once(self, applied):
        calls, released = applied
        plan = ServingFaultPlan([
            ServingFaultSpec(kind="replica-crash", at_query=3),
            ServingFaultSpec(kind="latency-inject", at_query=3, delay_s=0.01),
            ServingFaultSpec(kind="replica-hang", at_query=7),
        ])
        cluster = object()
        assert plan.remaining == 3
        for ordinal in range(10):
            plan.before_query(ordinal, cluster)
        assert plan.remaining == 0
        assert [s.kind for s in plan.fired] == [
            "replica-crash", "latency-inject", "replica-hang"]
        assert [(c, s) for c, s in calls] == [(cluster, s)
                                              for s in plan.fired]
        # Replaying the same ordinals fires nothing twice.
        for ordinal in range(10):
            plan.before_query(ordinal, cluster)
        assert len(calls) == 3

    def test_the_plan_releases_what_its_faults_block(self, applied):
        _, released = applied
        hang = ServingFaultSpec(kind="replica-hang", at_query=0)
        with ServingFaultPlan([hang]) as plan:
            plan.before_query(0, object())
            assert released == []
        assert released == [hang]
        plan.release()  # idempotent: nothing left to let go of
        assert released == [hang]

    def test_training_and_serving_plans_share_the_schedule(self):
        training = FaultPlan([FaultSpec("ir-corrupt", epoch=1, batch=2),
                              FaultSpec("epc-pressure", epoch=0, batch=5)])
        serving = ServingFaultPlan([
            ServingFaultSpec(kind="torn-manifest", at_query=9),
            ServingFaultSpec(kind="replica-crash", at_query=4)])
        for plan, points in ((training, [(0, 5), (1, 2)]),
                             (serving, [4, 9])):
            assert [s.point for s in plan.scheduled()] == points
            assert plan.remaining == 2 and plan.fired == []

    def test_seeded_default_kinds_exclude_shared_store_faults(self):
        plan = ServingFaultPlan.seeded(seed=1, queries=50, n_faults=10)
        for spec in plan.scheduled():
            assert spec.kind not in ("store-corrupt", "torn-manifest")

    def test_seeded_validation(self):
        with pytest.raises(ConfigurationError):
            ServingFaultPlan.seeded(seed=0, queries=0)
        with pytest.raises(ConfigurationError):
            ServingFaultPlan.seeded(seed=0, queries=10, kinds=("bogus",))
