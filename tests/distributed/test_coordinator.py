"""Coordinator round-loop tests: sharding, rounds, stragglers, blacklists."""

import numpy as np
import pytest

from repro.data.encryption import EncryptedDataset
from repro.distributed import DistributedCoordinator
from repro.errors import ConfigurationError, RoundAborted

from tests.distributed.worlds import (assert_same_weights, losses,
                                      make_coordinator, run_faulted,
                                      worker_fault)


class TestSharding:
    def test_round_robin_is_balanced(self, tmp_path):
        coordinator, _ = make_coordinator(tmp_path, num_workers=4,
                                          num_train=64)
        sizes = [w.examples for w in coordinator.workers]
        assert sum(sizes) == 64
        assert max(sizes) - min(sizes) <= 1

    def test_every_record_lands_exactly_once(self, tmp_path):
        coordinator, _ = make_coordinator(tmp_path, num_workers=3,
                                          participants=2, num_train=64)
        seen = set()
        for worker in coordinator.workers:
            for dataset in worker._shard:
                for record in dataset.records:
                    key = (record.source_id, record.index)
                    assert key not in seen, "record assigned twice"
                    seen.add(key)
        assert len(seen) == 64

    def test_sharding_is_deterministic(self, tmp_path):
        a, _ = make_coordinator(tmp_path / "a", num_workers=3, seed=5)
        b, _ = make_coordinator(tmp_path / "b", num_workers=3, seed=5)
        for wa, wb in zip(a.workers, b.workers):
            assert [(d.source_id, [r.index for r in d.records])
                    for d in wa._shard] == \
                   [(d.source_id, [r.index for r in d.records])
                    for d in wb._shard]

    def test_empty_distribution_rejected(self, tmp_path):
        coordinator, _ = make_coordinator(tmp_path)
        with pytest.raises(ConfigurationError):
            coordinator.distribute([])


class TestRounds:
    def test_replicas_bitwise_identical_after_each_round(self, tmp_path):
        coordinator, _ = make_coordinator(tmp_path, num_workers=3)
        coordinator.run(2)
        reference = coordinator.workers[0].replica_weights()
        for worker in coordinator.workers[1:]:
            assert_same_weights(worker.replica_weights(), reference)

    def test_losses_decrease(self, tmp_path):
        coordinator, _ = make_coordinator(tmp_path, num_workers=2)
        reports = coordinator.run(3)
        ls = losses(reports)
        assert ls[-1] < ls[0]

    def test_deterministic_across_runs(self, tmp_path):
        a, _ = make_coordinator(tmp_path / "a", seed=11)
        b, _ = make_coordinator(tmp_path / "b", seed=11)
        assert losses(a.run(2)) == losses(b.run(2))
        assert_same_weights(a.final_weights(), b.final_weights())

    def test_single_worker_degenerate_cohort(self, tmp_path):
        """N=1 skips masking (the aggregate would reveal the lone update
        anyway) but still rides the aggregator-enclave channel."""
        coordinator, _ = make_coordinator(tmp_path, num_workers=1)
        reports = coordinator.run(2)
        assert all(r.participating == ["w0"] for r in reports)
        assert all(r.recovered_masks == 0 for r in reports)

    def test_round_wallclock_is_concurrent_not_serial(self, tmp_path):
        """Round cost is the slowest worker, not the sum of workers."""
        coordinator, _ = make_coordinator(tmp_path, num_workers=4)
        report = coordinator.run(1)[0]
        per_worker = [
            w.platform.clock.now for w in coordinator.workers
        ]
        assert report.train_seconds <= max(per_worker) + 1e-9
        assert report.round_seconds < sum(per_worker)

    def test_parity_with_single_enclave_loss_band(self, tmp_path):
        """Data-parallel rounds track the single-worker trajectory on the
        same seed within a loose tolerance (different batch composition,
        same data + init)."""
        multi, _ = make_coordinator(tmp_path / "multi", num_workers=4,
                                    seed=13)
        single, _ = make_coordinator(tmp_path / "single", num_workers=1,
                                     seed=13)
        multi_losses = losses(multi.run(3))
        single_losses = losses(single.run(3))
        for m, s in zip(multi_losses, single_losses):
            assert abs(m - s) < 0.5, (multi_losses, single_losses)
        # Both must actually learn.
        assert multi_losses[-1] < multi_losses[0]
        assert single_losses[-1] < single_losses[0]

    def test_replica_structural_divergence_detected(self, tmp_path):
        """The consistency assertion must catch replicas that differ in
        *structure* — extra layers or extra per-layer arrays would slip
        through a zip/keys walk that only visits the reference's entries."""
        coordinator, _ = make_coordinator(tmp_path, num_workers=2)
        reference = coordinator.workers[0].replica_weights()

        class _Doctored:
            worker_id = "wx"

            def __init__(self, weights):
                self._weights = weights

            def replica_weights(self):
                return self._weights

        extra_layer = reference + [{"w": np.zeros(2)}]
        with pytest.raises(RoundAborted, match="divergence"):
            coordinator._assert_replicas_consistent(
                [coordinator.workers[0], _Doctored(extra_layer)], 0
            )
        extra_param = [dict(layer) for layer in reference]
        extra_param[0]["rogue"] = np.zeros(2)
        with pytest.raises(RoundAborted, match="divergence"):
            coordinator._assert_replicas_consistent(
                [coordinator.workers[0], _Doctored(extra_param)], 0
            )

    def test_audit_trail_one_event_per_round(self, tmp_path):
        coordinator, _ = make_coordinator(tmp_path, num_workers=2)
        coordinator.run(3)
        events = coordinator.audit.events("aggregation")
        assert [e.details["round"] for e in events] == [0, 1, 2]
        assert coordinator.audit.verify_chain()


class TestStragglers:
    def test_straggler_excluded_by_deadline(self, tmp_path):
        coordinator, _ = make_coordinator(tmp_path, num_workers=3)
        report = run_faulted(
            coordinator, 1,
            worker_fault("straggle", "w2", 0, factor=5.0),
        )[0]
        assert report.stragglers == ["w2"]
        assert sorted(report.participating) == ["w0", "w1"]
        assert report.recovered_masks == 1

    def test_straggler_converges_at_broadcast(self, tmp_path):
        """The straggler's local progress is discarded; it still applies
        the agreed update and stays bitwise consistent."""
        coordinator, _ = make_coordinator(tmp_path, num_workers=3)
        run_faulted(
            coordinator, 1,
            worker_fault("straggle", "w1", 0, factor=5.0),
        )
        reference = coordinator.workers[0].replica_weights()
        assert_same_weights(coordinator.workers[1].replica_weights(),
                            reference)

    def test_straggler_round_costs_the_deadline(self, tmp_path):
        coordinator, _ = make_coordinator(tmp_path, num_workers=2)
        report = run_faulted(
            coordinator, 1,
            worker_fault("straggle", "w1", 0, factor=9.0),
        )[0]
        assert report.stragglers == ["w1"]
        assert report.train_seconds == pytest.approx(report.deadline_seconds)

    def test_telemetry_counts_stragglers(self, tmp_path):
        coordinator, _ = make_coordinator(
            tmp_path, num_workers=2,
            blacklist_after=5,
        )
        run_faulted(
            coordinator, 2,
            worker_fault("straggle", "w1", 0, factor=9.0),
            worker_fault("straggle", "w1", 1, factor=9.0),
        )
        assert coordinator.telemetry.counter("stragglers") == 2
        assert coordinator.telemetry.counter("partial_aggregations") == 2


class TestBlacklisting:
    def test_repeat_straggler_blacklisted_and_shard_reassigned(self, tmp_path):
        coordinator, _ = make_coordinator(
            tmp_path, num_workers=3, blacklist_after=2)
        before = coordinator._by_id["w2"].examples
        assert before > 0
        reports = run_faulted(
            coordinator, 3,
            worker_fault("straggle", "w2", 0, factor=9.0),
            worker_fault("straggle", "w2", 1, factor=9.0),
        )
        assert reports[1].blacklisted == ["w2"]
        assert "w2" in coordinator.blacklisted
        # The shard moved to the survivors; nothing was lost.
        survivors = [w for w in coordinator.workers if w.worker_id != "w2"]
        assert sum(w.examples for w in survivors) == 64
        # Round 2 runs without the blacklisted worker.
        assert "w2" not in reports[2].participating

    def test_offender_streak_resets_on_good_round(self, tmp_path):
        coordinator, _ = make_coordinator(
            tmp_path, num_workers=2, blacklist_after=2)
        reports = run_faulted(
            coordinator, 3,
            worker_fault("straggle", "w1", 0, factor=9.0),
            worker_fault("straggle", "w1", 2, factor=9.0),
        )
        assert coordinator.blacklisted == set()
        assert all(not r.blacklisted for r in reports)

    def test_all_blacklisted_aborts(self, tmp_path):
        coordinator, _ = make_coordinator(tmp_path, num_workers=1)
        coordinator.blacklisted.add("w0")
        with pytest.raises(RoundAborted, match="blacklisted"):
            coordinator.run(1)


class TestInjectionSpecs:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            worker_fault("explode", "w0", 0)

    def test_unknown_worker_rejected_when_armed(self, tmp_path):
        """A fault that names no worker of this coordinator could never
        fire; the drill fails loudly instead of passing vacuously."""
        coordinator, _ = make_coordinator(tmp_path, num_workers=2)
        with pytest.raises(ConfigurationError, match="no worker named 'w9'"):
            run_faulted(coordinator, 1, worker_fault("crash", "w9", 0))
        assert coordinator.reports == []

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            make_coordinator(tmp_path, num_workers=0)
        with pytest.raises(ConfigurationError):
            make_coordinator(tmp_path, straggler_factor=1.0)
        with pytest.raises(ConfigurationError):
            make_coordinator(tmp_path, blacklist_after=0)

    def test_worker_without_records_rejected(self, tmp_path):
        """Every worker enclave must hold data: a shard with no accepted
        record stops the run at setup instead of training on nothing."""
        with pytest.raises(RoundAborted, match="no shard records"):
            make_coordinator(tmp_path, num_workers=3, num_train=2)
