"""Puts the repository root on ``sys.path`` (pytest's rootdir conftest),
so ``benchmarks/`` can import the test-side oracles under ``tests/``."""
