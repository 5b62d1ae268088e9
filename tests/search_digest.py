"""Print one sha256 per benchmark search pool and seed, over every search's full result.

Run from the repository root:

    python tests/search_digest.py

The pools are the ``sweep`` and ``certify`` workloads of
``perfbench/workloads.py``, built from seeds 401 and 402. Each digest
covers, for every search of the pool in order, the found flag,
``restart_index``, ``iterations_used``, the margin's hex, both partial-sum
vectors, the probabilities and the bytes of every detector's amplitudes.
A change meant to leave search results alone must leave all four digests
as they were. pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOLS = ("sweep", "certify")
SEEDS = (401, 402)

# one BLAS thread, as the benchmark runs
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def _floats(values) -> bytes:
    return ",".join(float(v).hex() for v in values).encode()


def digest(pool: str, seed: int) -> str:
    h = hashlib.sha256()
    for case in workloads.build(pool, seed):
        result = case.run()
        report, problem = result.best_report, result.best_problem
        h.update(f"{result.found}|{result.restart_index}|{result.iterations_used}|{report.margin.hex()}|".encode())
        h.update(_floats(report.source_partial_sums) + b"|" + _floats(report.average_partial_sums) + b"|")
        h.update(_floats(problem.probs) + b"|")
        for detector in problem.detectors:
            h.update(detector.amplitudes.tobytes())
    return h.hexdigest()


def main() -> None:
    for pool in POOLS:
        for seed in SEEDS:
            print(f"{pool} {seed} {digest(pool, seed)}", flush=True)


if __name__ == "__main__":
    main()
