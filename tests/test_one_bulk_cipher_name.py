"""The bulk cipher is named in one place: ``repro.crypto.aead.BULK_CIPHER``.

Every default that picks the bulk cipher reads that constant, so replacing
the cipher is one edit and no signature can be left behind naming a cipher
``new_aead`` no longer builds.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import repro.crypto
from repro.core.caltrain import CalTrainConfig
from repro.crypto.aead import BULK_CIPHER
from repro.data.encryption import encrypt_dataset, iter_encrypted_records
from repro.distributed.coordinator import DistributedCoordinator
from repro.distributed.worker import EnclaveWorker
from repro.federation.participant import TrainingParticipant
from repro.federation.server import TrainingServer
from repro.ingest.validate import ValidationConfig

SRC = Path(__file__).resolve().parents[1] / "src"
#: The current bulk cipher and the one it replaced.
_BULK_NAMES = (BULK_CIPHER, "hmac-ctr")


def _literals_naming_a_bulk_cipher():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules found under {SRC}"
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if isinstance(value, bytes):
                value = value.decode("latin-1")
            if isinstance(value, str) and any(
                    name in value.lower() for name in _BULK_NAMES):
                yield f"{path.relative_to(SRC)}:{node.lineno}"


def test_only_the_constants_definition_spells_a_bulk_cipher_name():
    hits = list(_literals_naming_a_bulk_cipher())
    assert len(hits) == 1 and hits[0].startswith("repro/crypto/aead.py:"), hits


@pytest.mark.parametrize("function", [
    TrainingParticipant.encrypt_dataset, TrainingServer.decrypt_submissions,
    iter_encrypted_records, encrypt_dataset, EnclaveWorker.__init__,
    DistributedCoordinator.__init__,
], ids=lambda function: function.__qualname__)
def test_cipher_parameter_defaults_to_the_constant(function):
    assert inspect.signature(function).parameters["cipher"].default == BULK_CIPHER


@pytest.mark.parametrize("config", [ValidationConfig, CalTrainConfig])
def test_cipher_field_defaults_to_the_constant(config):
    fields = {field.name: field for field in dataclasses.fields(config)}
    assert fields["cipher"].default == BULK_CIPHER


def test_the_constant_is_exported():
    assert "BULK_CIPHER" in repro.crypto.__all__
    assert repro.crypto.BULK_CIPHER == BULK_CIPHER
