"""The repository benchmark: three workloads, end-to-end and per-layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload; ``README.md`` in this directory says
why each workload and size was chosen and what every metric means.
"""
