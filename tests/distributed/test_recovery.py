"""Worker crash/recovery tests: sealed checkpoints, replay, partial rounds."""

import pytest

from repro.errors import TrainingAborted

from tests.distributed.worlds import (assert_same_weights, losses,
                                      make_coordinator, run_faulted,
                                      worker_fault)


class TestCrashRecovery:
    def test_round_completes_via_partial_aggregation(self, tmp_path):
        """The acceptance drill: a killed worker's round still aggregates
        from the survivors, with the dropout's masks reconstructed."""
        coordinator, _ = make_coordinator(tmp_path, num_workers=3)
        report = run_faulted(
            coordinator, 1,
            worker_fault("crash", "w1", 0, batch=1),
        )[0]
        assert report.faulted == ["w1"]
        assert sorted(report.participating) == ["w0", "w2"]
        assert report.recovered == ["w1"]
        assert report.recovered_masks == 1
        assert coordinator.telemetry.counter("worker_faults") == 1
        assert coordinator.telemetry.counter("worker_recoveries") == 1

    def test_recovered_worker_resumes_from_sealed_checkpoint(self, tmp_path):
        """After recovery + broadcast the crashed replica is bitwise
        identical to the survivors — the sealed checkpoint restored the
        exact round-start state."""
        coordinator, _ = make_coordinator(tmp_path, num_workers=3)
        run_faulted(coordinator, 1, worker_fault("crash", "w1", 0, batch=1))
        reference = coordinator.workers[0].replica_weights()
        assert_same_weights(coordinator.workers[1].replica_weights(),
                            reference)

    def test_recovered_worker_participates_next_round(self, tmp_path):
        coordinator, _ = make_coordinator(tmp_path, num_workers=2)
        reports = run_faulted(
            coordinator, 2,
            worker_fault("crash", "w1", 0, batch=1),
        )
        assert reports[0].faulted == ["w1"]
        assert sorted(reports[1].participating) == ["w0", "w1"]
        assert reports[1].faulted == []

    def test_crash_run_is_deterministic(self, tmp_path):
        """Same seed + same injection -> identical losses and weights."""
        fault = worker_fault("crash", "w1", 1, batch=2)
        a, _ = make_coordinator(tmp_path / "a", seed=23)
        b, _ = make_coordinator(tmp_path / "b", seed=23)
        assert (losses(run_faulted(a, 3, fault))
                == losses(run_faulted(b, 3, fault)))
        assert_same_weights(a.final_weights(), b.final_weights())

    def test_lone_worker_crash_aborts_round(self, tmp_path):
        from repro.errors import RoundAborted

        coordinator, _ = make_coordinator(tmp_path, num_workers=1)
        with pytest.raises(RoundAborted, match="no worker finished"):
            run_faulted(
                coordinator, 1,
                worker_fault("crash", "w0", 0, batch=1),
            )

    def test_training_continues_after_crash_and_learns(self, tmp_path):
        coordinator, _ = make_coordinator(tmp_path, num_workers=2)
        reports = run_faulted(
            coordinator, 3,
            worker_fault("crash", "w0", 1, batch=1),
        )
        assert reports[-1].mean_loss < reports[0].mean_loss

    def test_recovery_without_checkpoint_fails_closed(self, tmp_path):
        coordinator, _ = make_coordinator(tmp_path, num_workers=2)
        worker = coordinator.workers[0]
        # Crash before any round ran: nothing was ever sealed.
        worker.enclave.destroy()
        with pytest.raises(TrainingAborted, match="no usable checkpoint"):
            worker.recover(coordinator.aggregator)


def _form_cohort(coordinator, threshold=2):
    """Run the per-round escrow flow by hand; returns (workers, relayed).

    ``relayed`` is every escrow record the coordinator saw in transit —
    all of them sealed for their recipient enclaves.
    """
    active = coordinator.workers
    cohort = {w.worker_id: i for i, w in enumerate(active)}
    round_rng = coordinator.rng.child("secagg/test")
    for worker in active:
        worker.begin_cohort(cohort[worker.worker_id], round_rng)
    directory = {cohort[w.worker_id]: w.secagg_public_key for w in active}
    for worker in active:
        worker.establish_pairs(directory)
    relayed = []
    for worker in active:
        records = worker.escrow_records(threshold, len(active))
        for peer in active:
            position = cohort[peer.worker_id]
            if position in records:
                relayed.append(
                    (cohort[worker.worker_id], peer, records[position])
                )
                peer.hold_share_record(cohort[worker.worker_id],
                                       records[position])
    return active, relayed


class TestShareEscrowLifecycle:
    def test_shares_die_with_the_enclave(self, tmp_path):
        """Escrowed shares live in enclave memory: a crashed holder cannot
        surrender them, which is what bounds simultaneous-crash recovery
        at the Shamir threshold (fail closed beyond it)."""
        coordinator, _ = make_coordinator(tmp_path, num_workers=3)
        active, _ = _form_cohort(coordinator)
        holder = active[1]
        assert holder.reveal_share_record(0) is not None
        holder.enclave.destroy()
        assert holder.reveal_share_record(0) is None

    def test_relayed_escrow_records_are_sealed(self, tmp_path):
        """The coordinator relays one escrow record per (owner, holder)
        pair and none of them contains the plaintext share the holder
        ends up with — with threshold=1 a single readable share would
        hand the coordinator a dropout's round DH key."""
        from repro.crypto.shamir import encode_share

        coordinator, _ = make_coordinator(tmp_path, num_workers=3)
        active, relayed = _form_cohort(coordinator)
        assert len(relayed) == len(active) * (len(active) - 1)
        for owner_id, holder, record in relayed:
            held = holder.enclave.trusted_get(f"secagg-share/{owner_id}")
            assert encode_share(held) not in record

    def test_tampered_escrow_record_fails_closed(self, tmp_path):
        """A coordinator that flips a bit in a relayed escrow record is
        caught at the holder, not silently escrowed as garbage."""
        from repro.errors import AuthenticationError

        coordinator, _ = make_coordinator(tmp_path, num_workers=2)
        active = coordinator.workers
        cohort = {w.worker_id: i for i, w in enumerate(active)}
        round_rng = coordinator.rng.child("secagg/test")
        for worker in active:
            worker.begin_cohort(cohort[worker.worker_id], round_rng)
        directory = {cohort[w.worker_id]: w.secagg_public_key
                     for w in active}
        for worker in active:
            worker.establish_pairs(directory)
        records = active[0].escrow_records(1, 2)
        (position, record), = records.items()
        assert position == 1
        flipped = bytearray(record)
        flipped[len(flipped) // 2] ^= 0x01
        with pytest.raises(AuthenticationError):
            active[1].hold_share_record(0, bytes(flipped))

    def test_tampered_reveal_record_aborts_the_round(self, tmp_path):
        """A revealed share travels the attested channel; the coordinator
        flipping a bit in the relay makes aggregation fail closed instead
        of rebuilding a dropout's masks from forged material."""
        from repro.errors import RoundAborted

        coordinator, _ = make_coordinator(tmp_path, num_workers=3)
        original = coordinator.aggregator.reduce

        def tampering_reduce(round_index, **kwargs):
            for records in kwargs["share_records"].values():
                if records:
                    holder, record = records[0]
                    flipped = bytearray(record)
                    flipped[len(flipped) // 2] ^= 0x01
                    records[0] = (holder, bytes(flipped))
                    break
            return original(round_index, **kwargs)

        coordinator.aggregator.reduce = tampering_reduce
        with pytest.raises(RoundAborted, match="failed closed"):
            run_faulted(
                coordinator, 1,
                worker_fault("crash", "w1", 0, batch=1),
            )
