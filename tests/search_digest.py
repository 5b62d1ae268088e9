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
  with sorted keys (JSON writes each float so that it reads back exactly),
  and the problem the operation parsed: the bytes of every state's and
  detector's amplitudes, the hex of every ``input_norm`` and of every
  parsed probability, and its ``normalization_warnings()`` and ``notes``,
  so that a change to the parser that moves one bit shows;
- ``full-basis``: the classification, the hex of every ``max_schmidt``
  entry and, for a witnessed basis, the hex of the witness margin and of
  both partial-sum vectors.

The ``certify`` pool mixes set kinds and both search modes, so it also
gets one digest per mode, over its operations of that mode in order,
printed as ``certify/MODE``, and one per kind and mode, printed as
``certify/KIND/MODE`` (such as ``certify/s_prime/FIXED_BELL_ENUMERATION``).
A change confined to one mode, or to some kinds, shows the other digests
unchanged. A change meant to leave results alone must leave every digest
as it was.

After the digests, one line per search pool and seed (and per ``certify``
mode, and kind and mode) gives the kernel rounds, the calls of the ``evaluate`` that
``search._minimize_together`` is given, and the rows they scored. The
script counts them by wrapping that ``evaluate``, so the library keeps no
counter; like the digests, they repeat exactly from run to run, so they
show what a change to the search does to its rounds without timing noise.
pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import importlib
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


def _count_rounds() -> list[int]:
    """Wrap ``search._minimize_together`` so that each call of its ``evaluate`` adds to the returned [rounds, rows]."""
    counts = [0, 0]
    search_module = importlib.import_module("locc_witness.search")
    together = search_module._minimize_together

    def counted_together(runs, evaluate):
        def counted_evaluate(points, owners):
            counts[0] += 1
            counts[1] += len(points)
            return evaluate(points, owners)

        return together(runs, counted_evaluate)

    search_module._minimize_together = counted_together
    return counts


# the problems io.parse_problem returned, in order; _capture_parses fills it
_PARSED: list = []


def _capture_parses() -> None:
    """Wrap ``io.parse_problem`` so that each problem it returns is appended to ``_PARSED``."""
    io_module = importlib.import_module("locc_witness.io")
    parse = io_module.parse_problem

    def capturing(*args, **kwargs):
        _PARSED.append(parse(*args, **kwargs))
        return _PARSED[-1]

    io_module.parse_problem = capturing


def _floats(values) -> bytes:
    return ",".join(float(v).hex() for v in values).encode()


def _search(result) -> bytes:
    report, problem = result.best_report, result.best_problem
    head = f"{result.found}|{result.restart_index}|{result.iterations_used}|{report.margin.hex()}|".encode()
    sums = _floats(report.source_partial_sums) + b"|" + _floats(report.average_partial_sums) + b"|"
    return head + sums + _floats(problem.probs) + b"|" + b"".join(d.amplitudes.tobytes() for d in problem.detectors)


def _check(report: dict) -> bytes:
    parsed = _PARSED.pop()  # the operation parses once
    out = json.dumps(report, sort_keys=True).encode()
    for state in parsed.states + (parsed.detectors or []):
        out += b"|" + state.amplitudes.tobytes() + b"|" + float(state.input_norm).hex().encode()
    out += b"|" + _floats(parsed.probs or ())
    return out + b"|" + json.dumps([parsed.normalization_warnings(), parsed.notes]).encode()


def _full_basis(result) -> bytes:
    out = f"{result.classification}|".encode() + _floats(result.max_schmidt) + b"|"
    if result.witness is not None:
        report = result.witness
        out += f"{report.margin.hex()}|".encode() + _floats(report.source_partial_sums) + b"|"
        out += _floats(report.average_partial_sums)
    return out


RECORDS = {"sweep": _search, "certify": _search, "check": _check, "full-basis": _full_basis}


def digests(pool: str, seed: int, counts: list[int]) -> tuple[dict[str, str], dict[str, list[int]]]:
    """The pool's digest under its name, then for ``certify`` one per search mode and one per kind and mode.

    Also returns, under the same names, the [rounds, rows] that its
    operations added to ``counts``, the list that :func:`_count_rounds` returned.
    """
    hashes, spent = {pool: hashlib.sha256()}, {pool: [0, 0]}
    record = RECORDS[pool]
    for case in workloads.build(pool, seed):
        before = counts.copy()
        out = record(case.run())
        names = [pool]
        if pool == "certify":  # a certify case is named kind/MODE
            names += [f"{pool}/{case.kind.rsplit('/', 1)[1]}", f"{pool}/{case.kind}"]
        for name in names:
            hashes.setdefault(name, hashlib.sha256()).update(out)
            total = spent.setdefault(name, [0, 0])
            total[:] = [t + now - then for t, now, then in zip(total, counts, before)]
    names = [pool] + sorted(set(hashes) - {pool})
    return {name: hashes[name].hexdigest() for name in names}, {name: spent[name] for name in names}


def main() -> None:
    counts = _count_rounds()
    _capture_parses()
    searched = []
    for pool in POOLS:
        for seed in SEEDS:
            hexes, spent = digests(pool, seed, counts)
            for name, value in hexes.items():
                print(f"{name} {seed} {value}", flush=True)
            if pool in ("sweep", "certify"):
                searched.extend((name, seed, rounds, rows) for name, (rounds, rows) in spent.items())
    for name, seed, rounds, rows in searched:
        print(f"{name} {seed} rounds {rounds} rows {rows}", flush=True)


if __name__ == "__main__":
    main()
