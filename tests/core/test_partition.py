"""FrontNet/BackNet partitioned execution tests."""

import numpy as np
import pytest

from repro.core.partition import PartitionedNetwork
from repro.crypto.aead import AesGcm
from repro.errors import (
    AuthenticationError,
    PartitionError,
    TransferIntegrityError,
)
from repro.nn.optimizers import Sgd
from repro.nn.zoo import tiny_testnet


@pytest.fixture
def enclave(platform):
    enclave = platform.create_enclave("training")
    enclave.init()
    return enclave


@pytest.fixture
def batch(generator):
    x = generator.random((8, 8, 8, 3)).astype(np.float32)
    y = generator.integers(0, 4, size=8)
    return x, y


class TestPartitionValidation:
    def test_valid_range(self, tiny_net, enclave):
        limit = tiny_net.penultimate_index()
        PartitionedNetwork(tiny_net, 0, enclave)
        PartitionedNetwork(tiny_net, limit, enclave)

    def test_cannot_split_past_penultimate(self, tiny_net, enclave):
        with pytest.raises(PartitionError):
            PartitionedNetwork(tiny_net, len(tiny_net.layers), enclave)

    def test_negative_rejected(self, tiny_net, enclave):
        with pytest.raises(PartitionError):
            PartitionedNetwork(tiny_net, -1, enclave)

    def test_repartition(self, tiny_net, enclave):
        partitioned = PartitionedNetwork(tiny_net, 1, enclave)
        partitioned.set_partition(3)
        assert partitioned.partition == 3
        assert len(partitioned.frontnet_layers) == 3


class TestEquivalence:
    def test_forward_matches_unpartitioned(self, rng, enclave, batch):
        x, _ = batch
        net_a = tiny_testnet(rng.child("same").generator)
        net_b = tiny_testnet(rng.child("same").generator)
        plain = net_a.predict(x)
        partitioned = PartitionedNetwork(net_b, 2, enclave).predict(x)
        np.testing.assert_allclose(plain, partitioned, rtol=1e-5)

    def test_training_matches_unpartitioned(self, rng, enclave, batch):
        """Partitioned SGD computes bit-identical weight updates."""
        x, y = batch
        net_a = tiny_testnet(rng.child("same").generator)
        net_b = tiny_testnet(rng.child("same").generator)
        loss_a = net_a.train_batch(x, y, Sgd(0.05, momentum=0.0))
        loss_b = PartitionedNetwork(net_b, 2, enclave).train_batch(
            x, y, Sgd(0.05, momentum=0.0)
        )
        assert loss_a == pytest.approx(loss_b, rel=1e-6)
        for la, lb in zip(net_a.layers, net_b.layers):
            for name, arr in la.params().items():
                np.testing.assert_allclose(arr, lb.params()[name], rtol=1e-6)

    def test_partition_zero_is_nonprotected_baseline(self, rng, batch):
        x, y = batch
        net = tiny_testnet(rng.child("n").generator)
        partitioned = PartitionedNetwork(net, 0, enclave=None)
        loss = partitioned.train_batch(x, y, Sgd(0.05))
        assert np.isfinite(loss)


class TestCostAccounting:
    def test_deeper_partition_costs_more(self, rng, platform, batch):
        """With the IR payload held constant (equal-width conv layers),
        enclosing more conv layers strictly raises simulated cost — the
        Fig. 6 effect."""
        from repro.nn.layers import (
            AvgPoolLayer,
            ConvLayer,
            CostLayer,
            SoftmaxLayer,
        )
        from repro.nn.network import Network

        x, y = batch

        def make_net():
            layers = [
                ConvLayer(16, 3, 1),
                ConvLayer(16, 3, 1),  # same output shape as layer 1
                ConvLayer(4, 1, 1, activation="linear"),
                AvgPoolLayer(),
                SoftmaxLayer(),
                CostLayer(),
            ]
            return Network((8, 8, 3), layers, rng=rng.child("same").fork_generator())

        def epoch_cost(partition):
            enclave = platform.create_enclave(f"bench-{partition}")
            enclave.init()
            partitioned = PartitionedNetwork(make_net(), partition, enclave)
            start = platform.clock.now
            partitioned.train_batch(x, y, Sgd(0.05))
            return platform.clock.now - start

        assert epoch_cost(2) > epoch_cost(1) > epoch_cost(0) > 0

    def test_transitions_counted(self, rng, enclave, batch):
        x, y = batch
        net = tiny_testnet(rng.child("n").generator)
        partitioned = PartitionedNetwork(net, 2, enclave)
        partitioned.train_batch(x, y, Sgd(0.05))
        assert enclave.ocall_count >= 1  # IR shipped out

    def test_paging_cliff(self, rng, batch):
        """A FrontNet bigger than the EPC triggers paging cost."""
        from repro.enclave.platform import SgxPlatform
        from repro.utils.rng import RngStream

        x, y = batch
        tiny_epc = SgxPlatform(rng=RngStream(1).child("p"), epc_bytes=4096 * 4)
        big_epc = SgxPlatform(rng=RngStream(1).child("p"), epc_bytes=4096 * 100000)

        def cost(platform):
            enclave = platform.create_enclave("e")
            enclave.init()
            net = tiny_testnet(rng.child("same").generator)
            partitioned = PartitionedNetwork(net, 3, enclave)
            start = platform.clock.now
            partitioned.train_batch(x, y, Sgd(0.05))
            return platform.clock.now - start, enclave.epc.page_faults

        constrained_cost, constrained_faults = cost(tiny_epc)
        ample_cost, ample_faults = cost(big_epc)
        assert constrained_faults > 0 and ample_faults == 0
        assert constrained_cost > ample_cost

    def test_frozen_frontnet_cheaper(self, rng, platform, batch):
        x, y = batch

        def epoch_cost(frozen):
            enclave = platform.create_enclave(f"freeze-{frozen}")
            enclave.init()
            net = tiny_testnet(rng.child("same").generator)
            partitioned = PartitionedNetwork(net, 3, enclave)
            if frozen:
                net.freeze_layers(3)
            start = platform.clock.now
            partitioned.train_batch(x, y, Sgd(0.05))
            return platform.clock.now - start

        assert epoch_cost(True) < epoch_cost(False)


class TestBoundaryChecksum:
    """``_cross_boundary`` checksums the tensor's buffer (no bytes copy),
    strided senders included, and still fails closed on one flipped bit."""

    @pytest.fixture
    def strided(self, generator):
        tensor = generator.random((4, 6, 6, 6)).astype(np.float32)[..., ::2]
        assert not tensor.flags.c_contiguous
        return tensor

    def test_untapped_transfer_returns_the_tensor_itself(self, tiny_net,
                                                         enclave, strided):
        partitioned = PartitionedNetwork(tiny_net, 2, enclave)
        kept = strided.copy()
        assert partitioned._cross_boundary("ir", strided) is strided
        np.testing.assert_array_equal(strided, kept)

    def test_one_flipped_bit_in_flight_fails_closed(self, tiny_net, enclave,
                                                    strided):
        def flip_one_bit(tensor):
            corrupted = tensor.copy()
            corrupted.view(np.uint32)[1, 2, 3, 1] ^= 1
            return corrupted

        # The copy between sender and receiver is where the untrusted
        # host sits: shadow the receiving side from outside.
        partitioned = PartitionedNetwork(tiny_net, 2, enclave)
        receive = partitioned._receive
        partitioned._receive = lambda site, tensor, checksum: receive(
            site, flip_one_bit(tensor), checksum)
        with pytest.raises(TransferIntegrityError):
            partitioned._cross_boundary("ir", strided)
        partitioned._receive = lambda site, tensor, checksum: receive(
            site, tensor.copy(), checksum)
        np.testing.assert_array_equal(
            partitioned._cross_boundary("ir", strided), strided)


class TestModelRelease:
    def test_frontnet_encrypted_roundtrip(self, rng, enclave, batch):
        net_a = tiny_testnet(rng.child("trained").generator)
        part_a = PartitionedNetwork(net_a, 2, enclave)
        cipher = AesGcm(bytes(16))
        sealed = part_a.export_frontnet_encrypted(cipher, b"\x01" * 12)

        net_b = tiny_testnet(rng.child("fresh").generator)
        part_b = PartitionedNetwork(net_b, 2, enclave=None)
        part_b.import_frontnet_encrypted(cipher, b"\x01" * 12, sealed)
        for la, lb in zip(part_a.frontnet_layers, part_b.frontnet_layers):
            for name, arr in la.params().items():
                np.testing.assert_array_equal(arr, lb.params()[name])

    def test_wrong_key_cannot_decrypt_frontnet(self, rng, enclave):
        net = tiny_testnet(rng.child("t").generator)
        partitioned = PartitionedNetwork(net, 2, enclave)
        sealed = partitioned.export_frontnet_encrypted(AesGcm(bytes(16)), b"\x01" * 12)
        with pytest.raises(AuthenticationError):
            partitioned.import_frontnet_encrypted(
                AesGcm(bytes(range(16))), b"\x01" * 12, sealed
            )
