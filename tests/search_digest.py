"""Print one sha256 per benchmark workload pool and seed, over every operation's full result.

Run from the repository root:

    python tests/search_digest.py

The pools are the ``sweep``, ``certify``, ``check`` and ``full-basis``
workloads of ``perfbench/workloads.py``, built from seeds 401 and 402.
For every operation of a pool, in order, a digest covers:

- a search (``sweep``, ``certify``): the found flag, ``restart_index``,
  ``iterations_used``, the margin's hex, both partial-sum vectors, the
  probabilities and the bytes of every detector's amplitudes;
- ``check``: the report dict of ``workloads.check_operation``, as JSON
  with sorted keys (JSON writes each float so that it reads back exactly);
- ``full-basis``: the classification, the hex of every ``max_schmidt``
  entry and, for a witnessed basis, the hex of the witness margin and of
  both partial-sum vectors.

The ``certify`` pool mixes both search modes, so it also gets one digest
per mode, over its operations of that mode in order, printed as
``certify/MODE``. A change confined to one mode shows the other mode's
digest unchanged. A change meant to leave results alone must leave every
digest as it was. pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOLS = ("sweep", "certify", "check", "full-basis")
SEEDS = (401, 402)

# one BLAS thread, as the benchmark runs
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def _floats(values) -> bytes:
    return ",".join(float(v).hex() for v in values).encode()


def _search(result) -> bytes:
    report, problem = result.best_report, result.best_problem
    head = f"{result.found}|{result.restart_index}|{result.iterations_used}|{report.margin.hex()}|".encode()
    sums = _floats(report.source_partial_sums) + b"|" + _floats(report.average_partial_sums) + b"|"
    return head + sums + _floats(problem.probs) + b"|" + b"".join(d.amplitudes.tobytes() for d in problem.detectors)


def _check(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True).encode()


def _full_basis(result) -> bytes:
    out = f"{result.classification}|".encode() + _floats(result.max_schmidt) + b"|"
    if result.witness is not None:
        report = result.witness
        out += f"{report.margin.hex()}|".encode() + _floats(report.source_partial_sums) + b"|"
        out += _floats(report.average_partial_sums)
    return out


RECORDS = {"sweep": _search, "certify": _search, "check": _check, "full-basis": _full_basis}


def digests(pool: str, seed: int) -> dict[str, str]:
    """The pool's digest under its name, then for ``certify`` one per search mode, as ``certify/MODE``."""
    whole, modes = hashlib.sha256(), {}
    record = RECORDS[pool]
    for case in workloads.build(pool, seed):
        out = record(case.run())
        whole.update(out)
        if pool == "certify":  # a certify case is named kind/MODE
            modes.setdefault(case.kind.rsplit("/", 1)[1], hashlib.sha256()).update(out)
    return {pool: whole.hexdigest()} | {f"{pool}/{mode}": modes[mode].hexdigest() for mode in sorted(modes)}


def main() -> None:
    for pool in POOLS:
        for seed in SEEDS:
            for name, value in digests(pool, seed).items():
                print(f"{name} {seed} {value}", flush=True)


if __name__ == "__main__":
    main()
