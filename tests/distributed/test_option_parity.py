"""Every training option is honoured under ``workers=2`` or refused.

The parity table lists each :class:`CalTrainConfig` field and each
:meth:`CalTrain.train` keyword exactly once: in ``SAME_EFFECT`` with a
check that the two-worker run does what the one-enclave run does, or in
``REFUSED`` with the call that must raise :class:`ConfigurationError`. A
new option in neither table fails :func:`test_every_option_is_listed_once`.
"""

import dataclasses
import inspect
from collections import namedtuple

import pytest

from repro.core.caltrain import CalTrain, CalTrainConfig
from repro.errors import ConfigurationError
from repro.nn.config import network_to_config
from repro.observability.tracing import Tracer
from repro.resilience.supervisor import RetryPolicy

from tests.distributed.test_caltrain_distributed import (make_world,
                                                          weights_digest)

#: The run every check reads: a non-default value for each honoured option.
TUNED = dict(epochs=3, batch_size=8, learning_rate=0.03, momentum=0.5,
             partition=2, epc_bytes=64 << 20, augment=True, freeze_at_epoch=1)

Run = namedtuple("Run", "system reports tracer root")


def _world(**config):
    """``make_world``, with the options it pins (``partition``, ``augment``)
    set on the config, where the training stage reads them."""
    pinned = {name: config.pop(name) for name in ("partition", "augment")
              if name in config}
    system, test = make_world(**config)
    for name, value in pinned.items():
        setattr(system.config, name, value)
    return system, test


def _run(workers, root, **config):
    system, test = _world(**config)
    tracer = Tracer()
    reports = system.train(test_x=test.x, test_y=test.y, workers=workers,
                           checkpoint_dir=str(root), tracer=tracer)
    return Run(system, reports, tracer, root)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{name: (one-enclave run, two-worker run)}``."""
    pairs = {}
    for name, config in (("default", dict(epochs=2)),
                         ("reseeded", dict(epochs=2, seed=8)),
                         ("inert", dict(epochs=2, assess_samples=5,
                                        architecture="cifar10-10layer",
                                        width_scale=0.5, backend="optimized")),
                         ("tuned", TUNED)):
        pairs[name] = tuple(
            _run(workers, tmp_path_factory.mktemp(f"{name}-{workers}"),
                 **config)
            for workers in (None, 2))
    return pairs


def _digests(pair):
    return [weights_digest(run.system.model) for run in pair]


def _check_seed(runs):
    for default, reseeded in zip(_digests(runs["default"]),
                                 _digests(runs["reseeded"])):
        assert default != reseeded


def _check_inert(runs):
    """Read by neither path: ``network_factory`` stands in for the named
    architecture and its width, ``assess_samples`` only feeds the refused
    re-assessment, and ``backend`` has one value."""
    assert _digests(runs["inert"]) == _digests(runs["default"])


def _check_epochs(runs):
    single, dist = runs["tuned"]
    assert (len(single.reports) == len(dist.reports)
            == len(dist.system.coordinator.reports) == 3)


def _check_hyperparameters(runs):
    single, dist = runs["tuned"]
    expected = (single.system.trainer.batch_size,
                single.system.trainer.optimizer.learning_rate,
                single.system.trainer.optimizer.momentum)
    assert expected == (8, 0.03, 0.5)
    for worker in dist.system.coordinator.workers:
        trainer = worker.trainer
        assert (trainer.batch_size, trainer.optimizer.learning_rate,
                trainer.optimizer.momentum) == expected
        assert worker.enclave.mrenclave == dist.system.expected_measurement


def _check_partition(runs):
    single, dist = runs["tuned"]
    assert [r.partition for r in dist.reports] == [
        r.partition for r in single.reports] == [2, 2, 2]
    for worker in dist.system.coordinator.workers:
        assert worker.partitioned.partition == 2


def _check_epc_bytes(runs):
    single, dist = runs["tuned"]
    assert single.system.platform.epc_bytes == 64 << 20
    for worker in dist.system.coordinator.workers:
        assert worker.platform.epc_bytes == 64 << 20


def _check_cipher(runs):
    single, dist = runs["tuned"]
    for worker in dist.system.coordinator.workers:
        assert worker.cipher == single.system.config.cipher
        assert worker.server.decrypt_submissions(
            cipher=worker.cipher).accepted == worker.examples


def _check_augment(runs):
    single, dist = runs["tuned"]
    assert single.system.trainer.augmenter is not None
    for worker in dist.system.coordinator.workers:
        assert worker.trainer.augmenter is not None


def _check_freeze(runs):
    single, dist = runs["tuned"]
    assert [r.frontnet_frozen for r in dist.reports] == [
        r.frontnet_frozen for r in single.reports] == [False, True, True]


def _check_network(runs):
    single, dist = runs["tuned"]
    assert (network_to_config(dist.system.model)
            == network_to_config(single.system.model))


def _check_accuracy(runs):
    """Evaluated after every epoch, and the last one on the final model."""
    single, dist = runs["tuned"]
    for run in (single, dist):
        assert all(r.top1 is not None and r.top2 is not None
                   for r in run.reports)
        _, test = _world(**TUNED)
        final = run.system.trainer.evaluate(test.x, test.y)
        assert (run.reports[-1].top1, run.reports[-1].top2) == (
            final["top1"], final["top2"])


def _check_checkpoint_dir(runs):
    single, dist = runs["tuned"]
    assert single.system.checkpoint_manager.directory == single.root
    assert single.system.checkpoint_manager.checkpoints()
    for worker in dist.system.coordinator.workers:
        assert worker.manager.directory.parent == dist.root
        assert worker.manager.checkpoints()


def _check_tracer(runs):
    for run in runs["tuned"]:
        assert run.tracer.kind_totals().get("enclave", 0) > 0


def _check_workers(runs):
    _, dist = runs["tuned"]
    assert len(dist.system.coordinator.workers) == 2


SAME_EFFECT = {
    "seed": _check_seed,
    "architecture": _check_inert,
    "width_scale": _check_inert,
    "assess_samples": _check_inert,
    "backend": _check_inert,
    "epochs": _check_epochs,
    "batch_size": _check_hyperparameters,
    "learning_rate": _check_hyperparameters,
    "momentum": _check_hyperparameters,
    "partition": _check_partition,
    "epc_bytes": _check_epc_bytes,
    "cipher": _check_cipher,
    "augment": _check_augment,
    "freeze_at_epoch": _check_freeze,
    "network_factory": _check_network,
    "test_x": _check_accuracy,
    "test_y": _check_accuracy,
    "checkpoint_dir": _check_checkpoint_dir,
    "tracer": _check_tracer,
    "workers": _check_workers,
}

#: Option -> (config overrides, train() keywords) that must be refused.
REFUSED = {
    "resume": ({}, dict(workers=2, resume=True)),
    "checkpoint_every_batches": ({}, dict(workers=2,
                                          checkpoint_every_batches=1)),
    "retry_policy": ({}, dict(workers=2, retry_policy=RetryPolicy())),
    "reassess_every_epoch": (dict(reassess_every_epoch=True),
                             dict(workers=2)),
    # Membership knobs of a cohort: one enclave has none to govern.
    "straggler_factor": ({}, dict(straggler_factor=9.0)),
    "blacklist_after": ({}, dict(blacklist_after=7)),
}


def test_every_option_is_listed_once():
    fields = {field.name for field in dataclasses.fields(CalTrainConfig)}
    keywords = set(inspect.signature(CalTrain.train).parameters) - {"self"}
    assert not fields & keywords
    assert not set(SAME_EFFECT) & set(REFUSED)
    assert set(SAME_EFFECT) | set(REFUSED) == fields | keywords


@pytest.mark.parametrize("option", sorted(SAME_EFFECT))
def test_same_effect_under_two_workers(option, runs):
    SAME_EFFECT[option](runs)


@pytest.mark.parametrize("option", sorted(REFUSED))
def test_refused(option, tmp_path):
    overrides, keywords = REFUSED[option]
    system, _ = make_world(epochs=1, **overrides)
    with pytest.raises(ConfigurationError, match=option):
        system.train(checkpoint_dir=str(tmp_path), **keywords)
    assert system.trainer is None, "refused before anything ran"


@pytest.mark.parametrize("option", ["straggler_factor", "blacklist_after"])
def test_membership_knobs_refused_on_one_worker(option):
    system, _ = make_world(epochs=1)
    with pytest.raises(ConfigurationError, match=option):
        system.train(workers=1, **REFUSED[option][1])


def test_one_worker_is_train():
    """``workers=1`` takes the one-enclave path: the same epoch losses and
    weights, bit for bit, and no coordinator."""
    single, _ = make_world(seed=7, epochs=2)
    single_reports = single.train()
    one, _ = make_world(seed=7, epochs=2)
    one_reports = one.train(workers=1)
    assert [r.mean_loss for r in one_reports] == [
        r.mean_loss for r in single_reports]
    assert weights_digest(one.model) == weights_digest(single.model)
    assert one.coordinator is None


@pytest.mark.parametrize("workers", [0, -2])
def test_no_enclave_is_refused_before_anything_runs(workers):
    system, _ = make_world(epochs=1)
    with pytest.raises(ConfigurationError, match=f"workers={workers}"):
        system.train(workers=workers)
    assert system.trainer is None
    assert not system.audit_log.events("decryption")
