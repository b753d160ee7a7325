"""CLI tests."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.command == "train"
        assert args.architecture == "cifar10-10layer"
        assert args.seed == 7

    def test_seed_flag(self):
        args = build_parser().parse_args(["--seed", "42", "info"])
        assert args.seed == 42

    def test_unknown_architecture_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--architecture", "vgg"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out
        assert "28x28x128" in out

    def test_info_lists_ingest_plane(self, capsys):
        from repro.ingest import LEDGER_FORMAT

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Ingestion plane" in out
        assert f"ledger segment format    v{LEDGER_FORMAT}" in out
        assert "repro ingest" in out and "repro ingest-status" in out

    def test_train_end_to_end(self, capsys):
        code = main([
            "--seed", "3", "train", "--epochs", "1", "--width-scale", "0.05",
            "--train-size", "60", "--test-size", "20", "--participants", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "MRENCLAVE" in out
        assert "accepted 60 records" in out
        assert "linkage database: 60 records" in out


class TestServingCommands:
    def test_build_index(self, capsys, tmp_path):
        code = main([
            "build-index", "--path", str(tmp_path / "store"),
            "--records", "3000", "--dim", "8", "--labels", "3",
            "--segment-size", "1500", "--shard-threshold", "500",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "3000 records in 2 segments" in out
        assert "segment digests: verified" in out
        assert "manifest sealed" in out and "valid" in out

    def test_serve_queries(self, capsys):
        code = main([
            "serve-queries", "--records", "3000", "--dim", "8",
            "--labels", "3", "--queries", "64", "--k", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "answered 64 queries" in out
        assert "cache_hit_rate" in out
        assert "chain VERIFIED" in out

    def test_serve_queries_has_no_probes_option(self, capsys):
        # Serving answers one way, exactly: no approximate probe count.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve-queries", "--probes", "4"])
        assert exit_info.value.code == 2
        assert "--probes" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "train-distributed"])
    def test_training_has_no_backend_option(self, capsys, command):
        # Training runs one set of nn kernels: no backend to pick.
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--backend", "optimized"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "0"])
    def test_train_distributed_needs_a_cohort(self, capsys, workers):
        # One enclave trains through `repro train`, not a one-worker cohort.
        with pytest.raises(SystemExit) as exit_info:
            main(["train-distributed", "--workers", workers])
        assert exit_info.value.code == 2
        assert "repro train" in capsys.readouterr().err

    def test_serve_cluster_fault_drill(self, capsys):
        # The CI chaos drill: kill one replica and corrupt one replica's
        # index mid-run; the cluster must keep >= 99% availability with
        # a verified audit chain (exit code 0 enforces both).
        code = main([
            "serve-cluster", "--records", "1500", "--dim", "8",
            "--labels", "3", "--queries", "80", "--k", "3",
            "--inject", "replica-crash@20",
            "--inject", "index-corrupt@40:replica-1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "injected replica-crash before query 20" in out
        assert "injected index-corrupt before query 40" in out
        assert "chain VERIFIED" in out
        assert "replica-evicted" in out
        assert "availability: " in out

    def test_serve_cluster_rejects_malformed_injection(self):
        with pytest.raises(SystemExit):
            main(["serve-cluster", "--queries", "10",
                  "--inject", "not-a-spec"])

    def test_train_distributed_with_worker_fault(self):
        # Regression: a second `_parse_injections` (serving faults) used to
        # shadow the worker-fault parser, so this verb died with TypeError
        # on every invocation.
        code = main([
            "--seed", "3", "train-distributed", "--workers", "2",
            "--rounds", "1", "--width-scale", "0.05", "--train-size", "40",
            "--test-size", "10", "--participants", "2",
            "--straggle", "w1@0",
        ])
        assert code == 0

    def test_worker_fault_that_can_never_fire_is_rejected(self):
        from repro.errors import ConfigurationError

        base = ["--seed", "3", "train-distributed", "--workers", "2",
                "--rounds", "1", "--width-scale", "0.05", "--train-size",
                "40", "--test-size", "10", "--participants", "2"]
        with pytest.raises(ConfigurationError, match="no worker named 'w9'"):
            main(base + ["--kill", "w9@0"])
        # --corrupt takes no :EXTRA; it used to be parsed and ignored.
        with pytest.raises(ConfigurationError,
                           match=r"bad --corrupt spec 'w1@0:5'; expected "
                                 r"WORKER@ROUND$"):
            main(base + ["--corrupt", "w1@0:5"])
        with pytest.raises(ConfigurationError,
                           match=r"bad --kill spec 'w1@x'; expected "
                                 r"WORKER@ROUND\[:BATCH\]"):
            main(base + ["--kill", "w1@x"])
        with pytest.raises(ConfigurationError,
                           match=r"bad --straggle spec 'w1'; expected "
                                 r"WORKER@ROUND\[:FACTOR\]"):
            main(base + ["--straggle", "w1"])


class TestIngestCommands:
    def _ingest_args(self, tmp_path, *extra):
        return [
            "ingest", "--path", str(tmp_path / "ledger"),
            "--contributors", "2", "--records-per", "24",
            "--chunk-records", "8", "--tamper", "2", *extra,
        ]

    def test_ingest(self, capsys, tmp_path):
        assert main(self._ingest_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "2 contributors provisioned over attested TLS" in out
        assert "c0: committed 22, quarantined 2" in out
        assert "manifest sealed to enclave identity: valid" in out
        # One event per session commits each of its 24 records' decisions.
        assert ("ingest audit trail: 2 events committing 48 admission "
                "decisions, chain VERIFIED") in out
        assert "staged 44 ledger records" in out
        assert "0 tampered slipped through" in out
        assert "ledger parts: 6 linked from the spool, 0 written from " \
            "the hold" in out

    def test_ingest_with_fault_injection(self, capsys, tmp_path):
        assert main(self._ingest_args(tmp_path, "--fault")) == 0
        out = capsys.readouterr().out
        assert "c0: CRASH after 1 chunks (8 records acked)" in out
        assert "c0: resumed at chunk 1" in out
        assert "c0: committed 22, quarantined 2" in out
        assert "c0: abort drill sent 8 records, 1 session(s) open" in out
        assert ("c0: aborted — spool removed, ledger unchanged, "
                "0 session(s) open") in out
        assert not list((tmp_path / "ledger.spool").rglob("*.bin"))

    def test_ingest_status(self, capsys, tmp_path):
        assert main(self._ingest_args(tmp_path)) == 0
        capsys.readouterr()
        assert main(["ingest-status", "--path",
                     str(tmp_path / "ledger")]) == 0
        out = capsys.readouterr().out
        assert "committed records        44" in out
        assert "quarantine records       4" in out
        assert "contributors             c0, c1" in out
        assert "segment segment-000000: 22 records from c0, 3 part(s)" in out
        assert ("quarantine quarantine-000000: 2 records from c0 "
                "(tampered), 1 part(s)") in out
        assert "segment digests: verified" in out

    def test_ingest_status_fails_closed_on_tamper(self, capsys, tmp_path):
        assert main(self._ingest_args(tmp_path)) == 0
        capsys.readouterr()
        target = next((tmp_path / "ledger").glob("segment-*.bin"))
        blob = bytearray(target.read_bytes())
        blob[10] ^= 0xFF
        target.write_bytes(bytes(blob))
        assert main(["ingest-status", "--path",
                     str(tmp_path / "ledger")]) == 1
        assert "ledger INVALID" in capsys.readouterr().out

    def test_ingest_status_missing_ledger(self, capsys, tmp_path):
        assert main(["ingest-status", "--path",
                     str(tmp_path / "nothing")]) == 1
        assert "ledger INVALID" in capsys.readouterr().out


class TestResilienceCommands:
    def test_train_flag_parsing(self):
        args = build_parser().parse_args([
            "train", "--checkpoint-dir", "/tmp/ck", "--resume",
            "--checkpoint-every", "4",
            "--inject", "enclave-abort@1:3", "--inject", "epc-pressure@2",
        ])
        assert args.checkpoint_dir == "/tmp/ck"
        assert args.resume is True
        assert args.checkpoint_every == 4
        assert args.inject == ["enclave-abort@1:3", "epc-pressure@2"]

    def test_inject_spec_parsing(self):
        from repro.cli import _parse_fault_specs
        from repro.errors import ConfigurationError

        assert _parse_fault_specs([]) is None
        plan = _parse_fault_specs(["enclave-abort@1:3", "ir-corrupt@2"])
        assert plan.remaining == 2
        with pytest.raises(ConfigurationError):
            _parse_fault_specs(["enclave-abort@one"])
        with pytest.raises(ConfigurationError):
            _parse_fault_specs(["meteor@1:1"])

    def test_train_with_faults_and_checkpoint_inspection(self, capsys,
                                                         tmp_path):
        code = main([
            "--seed", "3", "train", "--epochs", "2", "--width-scale", "0.05",
            "--train-size", "60", "--test-size", "20", "--participants", "2",
            "--checkpoint-dir", str(tmp_path), "--checkpoint-every", "2",
            "--inject", "enclave-abort@1:1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "resilience telemetry" in out
        assert "fault_enclave" in out
        assert "audit chain" in out and "VERIFIED" in out
        assert "linkage database: 60 records" in out

        code = main(["checkpoints", "--path", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "valid checkpoints" in out
        assert "resume target: ckpt-" in out
        assert "boundary" in out

    def test_checkpoints_carry_one_model_copy(self, capsys, tmp_path):
        """Training with test data seals the live weights only: no
        second, best-seen model rides in any checkpoint."""
        import json

        import numpy as np

        assert main([
            "--seed", "1", "train", "--epochs", "2", "--width-scale", "0.05",
            "--train-size", "40", "--test-size", "20", "--participants", "2",
            "--checkpoint-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        checkpoints = sorted(tmp_path.glob("ckpt-*"))
        assert len(checkpoints) == 3  # epoch 0, 1 and 2 boundaries
        for path in checkpoints:
            manifest = json.loads((path / "manifest.json").read_text())
            assert manifest["format"] == 3
            assert "has_best_weights" not in manifest["meta"]
            with np.load(path / "state.npz") as state:
                assert all(key.startswith(("back/", "audit", "layer_count",
                                           "opt/"))
                           for key in state.files), state.files

    def test_checkpoints_empty_directory(self, capsys, tmp_path):
        assert main(["checkpoints", "--path", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "valid checkpoints        0" in out


class TestGovernanceCommands:
    ARGS = ["--epochs", "1", "--width-scale", "0.05"]

    def test_govern_parser_defaults(self):
        args = build_parser().parse_args(["govern"])
        assert args.command == "govern"
        assert args.train_size == 40 and args.contributors == 3
        assert args.tamper is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["govern", "--tamper", "weights"])

    def test_promote_and_attribute_require_path(self):
        for verb in ("promote", "attribute"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([verb])

    def test_govern_promote_attribute_round_trip(self, capsys, tmp_path):
        root = str(tmp_path / "deployment")
        assert main(["govern", "--train-size", "20", "--contributors", "2",
                     "--path", root] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "run key" in out and "PROMOTED" in out
        assert "chain VERIFIED" in out

        # A separate process re-derives the same run key from the same
        # agreement and re-walks the on-disk lineage.
        assert main(["promote", "--path", root] + self.ARGS) == 0
        assert "PROMOTED" in capsys.readouterr().out

        report = str(tmp_path / "report.json")
        assert main(["attribute", "--path", root, "--output", report]
                    + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "implicated" in out
        import json

        body = json.loads(open(report, "rb").read())
        assert body["implicated"] and body["report_digest"]

    def test_govern_tamper_drill_fails_closed(self, capsys, tmp_path):
        code = main(["govern", "--train-size", "20", "--contributors", "2",
                     "--path", str(tmp_path / "drill"),
                     "--tamper", "ledger"] + self.ARGS)
        assert code == 2
        assert "REFUSED (fail-closed)" in capsys.readouterr().out

    def test_promote_refuses_missing_artifacts(self, capsys, tmp_path):
        assert main(["promote", "--path", str(tmp_path)] + self.ARGS) == 1
        assert "REFUSED" in capsys.readouterr().out
