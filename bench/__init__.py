"""The repo's one repeatable benchmark (see bench/README.md).

`python3 -m bench.run --workload <name|all> --seed <n>` drives the CalTrain
pipeline through its public functions, checks every pass against oracles,
and prints each metric as `workload metric value unit`.
"""
