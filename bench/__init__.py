"""Seeded end-to-end benchmark of the artifact engine.

Run ``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; ``bench/README.md`` describes the workloads, the
metrics and the predictions they are meant to test.
"""
