"""Regression pins for the unified content-address layer.

Every content-addressed identity in the system — ledger manifests,
checkpoint bindings, linkage-store snapshots, run keys, both hash-chained
logs — is defined in terms of ``canonical_digest`` and ``HashChain``.
These tests pin exact output bytes for fixed inputs: if any pin moves,
artifacts written by earlier releases (sealed manifests, checkpoints,
promotion records) silently stop verifying, which is a compatibility
break, not a refactor.
"""

import numpy as np
import pytest

from repro.core.audit import AuditLog
from repro.core.chain import HashChain
from repro.utils.serialization import canonical_digest, canonical_json


class TestCanonicalDigest:
    def test_pinned_json_input(self):
        assert canonical_digest({"a": 1, "b": [1, 2.5, "x"]}).hex() == (
            "168d5a7d54248f8b8efff095fed70fe7"
            "bb8159a6608a1513cd30e4719d7a4c42"
        )

    def test_pinned_mixed_parts(self):
        # bytes pass through, JSON is canonicalised, arrays go through
        # the self-describing encoding — all length-prefixed.
        digest = canonical_digest(
            b"bytes-part", {"k": "v"},
            np.arange(6, dtype=np.float32).reshape(2, 3),
        )
        assert digest.hex() == (
            "210e372ca6d280b839300a2d8fbb493a"
            "dff7bce555ce6ba3d1317be3e72bfe98"
        )

    def test_length_prefixing_prevents_concatenation_collisions(self):
        assert canonical_digest(b"ab", b"c") != canonical_digest(b"a", b"bc")
        assert canonical_digest(b"abc") != canonical_digest(b"ab", b"c")

    def test_array_layout_is_canonicalised(self):
        base = np.arange(6, dtype=np.float64).reshape(2, 3)
        fortran = np.asfortranarray(base)
        strided = base[::-1][::-1]  # non-trivial strides, same values
        assert canonical_digest(base) == canonical_digest(fortran)
        assert canonical_digest(base) == canonical_digest(strided)
        assert canonical_digest(base) != canonical_digest(base.T)
        assert canonical_digest(base) != \
            canonical_digest(base.astype(np.float32))


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [True, None]}) == \
            b'{"a":[true,null],"b":1}'

    def test_non_finite_floats_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                canonical_json({"v": bad})

    def test_float_shortest_repr(self):
        assert canonical_json(0.1) == b"0.1"
        assert canonical_json(2.5) == b"2.5"


class TestHashChain:
    def test_pinned_genesis_and_entry(self):
        chain = HashChain(b"pinned-domain")
        assert chain.genesis.hex() == (
            "f745454046cdaca42246edb52ba61850"
            "fedd5b943b5242c4d1923c9ebccae39c"
        )
        entry = chain.entry_hash(
            chain.genesis, {"seq": 0, "kind": "k", "details": {}}
        )
        assert entry.hex() == (
            "5a83af7c60dbe28e5192237502788f7d"
            "7d739245b2faf2f92e19fd5d6d43ea6b"
        )

    def test_domain_separation(self):
        payload = {"seq": 0}
        one, two = HashChain(b"domain-a"), HashChain(b"domain-b")
        assert one.genesis != two.genesis
        assert one.entry_hash(one.genesis, payload) != \
            two.entry_hash(two.genesis, payload)

    def test_verify_walks_and_rejects(self):
        chain = HashChain(b"verify")
        payloads = [{"i": i} for i in range(4)]
        entries, head = [], chain.genesis
        for payload in payloads:
            head = chain.entry_hash(head, payload)
            entries.append((payload, head))
        assert chain.verify(entries)
        assert chain.verify([])
        forged = list(entries)
        forged[1] = ({"i": 99}, entries[1][1])
        assert not chain.verify(forged)
        assert not chain.verify(list(reversed(entries)))

    def test_audit_log_chains_through_hashchain(self):
        # Satellite pin: AuditLog delegates to the same chain math the
        # governance log uses (audit genesis label unchanged on disk).
        pinned_genesis = (
            "e305c011901b9bceb4edaaa006ee6232"
            "aa83864fb5184f15ee2b59b39dccde91"
        )
        log = AuditLog()
        assert log.head.hex() == pinned_genesis

        chain = HashChain(b"caltrain-audit-genesis")
        event = log.append("stage", records=3)
        assert event.chain_hash == chain.entry_hash(
            chain.genesis,
            {"seq": 0, "kind": "stage", "details": {"records": 3}},
        )
        assert log.verify_chain()
        assert AuditLog.from_bytes(log.to_bytes()).head == log.head
