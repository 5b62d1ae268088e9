#!/usr/bin/env python3
"""Benchmark of the locc_witness library.

Run from the repository root, with no installation (the library is
imported from ``src/``):

    python3 perfbench/run.py --workload check --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/NOTES.md for why each one is here):
``check``, ``full-basis``, ``sweep`` and ``certify``; ``all`` runs the
four one after the other, each in a process of its own. Each is a closed
loop with one client: the next operation starts when the previous one
returns. Inputs are built from ``--seed`` before timing starts and cycled
in whole passes until ``--seconds`` have elapsed, and every output is
checked.

``--trace 0`` prints the end-to-end metrics, with times scaled to a
reference host speed (see HOST_SAMPLE_S). ``--trace 1`` runs the same
loop with timing wrappers installed on alternate chunks of the inputs,
and prints the per-layer metrics and the tracing overhead. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 when the run completed, whether or not
outputs failed their checks; a run that cannot start exits with 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "locc_witness"
WORKLOADS = ("check", "full-basis", "sweep", "certify")

# One BLAS/OpenMP thread: with the default pool, cold-import times and
# small-matrix latencies vary with the machine's load.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# The set-up spawn is a one-shot `locc-witness check bell_witness`, the
# same call the console script makes.
SETUP_CODE = "import sys; from locc_witness.cli import main; sys.exit(main(['check', 'bell_witness']))"
SETUP_EXPECT = "verdict: CERTIFIED_INDISTINGUISHABLE"
SETUP_SPAWNS = 7
SPAWN_TIMEOUT_S = 60
WARMUP_S = 0.5
TRACE_CHUNKS = 12  # per pass, alternately traced

# The virtual machines this benchmark was written on change speed by up to
# 1.5x, in phases of seconds to minutes, for all work on a CPU alike (see
# NOTES.md). So timed results are scaled to a reference speed: a fixed
# kernel of Python and small numpy calls, which never touches the library,
# is timed at least every HOST_SAMPLE_S, and the times between two samples
# are multiplied by KERNEL_REFERENCE_S over the mean of the two.
HOST_SAMPLE_S = 0.1
KERNEL_REFERENCE_S = 0.003  # the kernel's median time on the baseline machine

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def per_layer_units(functions) -> dict:
    units = {}
    for f in functions:
        units.update({f"{f}.calls": "count", f"{f}.self_ms": "ms", f"{f}.self_pct": "%", f"{f}.p50_us": "us"})
    units.update(
        {
            "search.iterations": "count",
            "search.restarts_used": "count",
            "search.found_share": "share",
            "search.us_per_iteration": "us",
            "search.iterations_per_s": "1/s",
            "setup.import_numpy_ms": "ms",
            "setup.import_locc_witness_ms": "ms",
            "trace.overhead": "ratio",
        }
    )
    return units


def check_declaration(units: dict, key: str) -> None:
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[key]
    if {m["name"]: m["unit"] for m in declared} != units:
        raise BenchError(f"metrics printed differ from the {key} list of BENCHMARK.json")


# --- environment ---------------------------------------------------------------


def spawn_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn_setup(importtime: bool) -> tuple[float, str]:
    """Wall time of one cold CLI call, and its stderr."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", SETUP_CODE]
    start = perf_counter()
    proc = subprocess.run(
        cmd, env=spawn_env(), cwd=ROOT, capture_output=True, text=True, timeout=SPAWN_TIMEOUT_S
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0 or SETUP_EXPECT not in proc.stdout:
        raise BenchError(f"set-up spawn exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stderr


def import_ms(stderr: str, module: str) -> float | None:
    """Cumulative import time of ``module`` from ``python -X importtime`` output."""
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:") :].split("|")
        if len(fields) == 3 and fields[2].strip() == module:
            return int(fields[1]) / 1000.0
    return None


def commit() -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=SPAWN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": nproc,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": commit(),
    }


class HostSpeed:
    """Samples the host's speed with the fixed kernel described at HOST_SAMPLE_S."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._h = self._m @ self._m.conj().T
        for _ in range(5):
            self._kernel()
        self._last = self._kernel()
        self._at = perf_counter()

    def _kernel(self) -> float:
        np, m, h = self._np, self._m, self._h
        start = perf_counter()
        n = 0
        for i in range(20000):
            n += i * i % 7
        for _ in range(20):
            np.linalg.svd(m, compute_uv=False)
            np.kron(m[:2, :2], m[2:, 2:])
            np.linalg.eigvalsh(h)
        return perf_counter() - start

    def due(self) -> bool:
        return perf_counter() - self._at >= HOST_SAMPLE_S

    def sample(self) -> float:
        """Time the kernel; return the scale for the times since the previous sample."""
        now = self._kernel()
        scale = 2 * KERNEL_REFERENCE_S / (self._last + now)
        self._last, self._at = now, perf_counter()
        return scale


# --- the closed loop -------------------------------------------------------------


class Segment:
    """Outcomes of the operations run in one segment of a workload."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # at the reference speed
        # Wall time of the loops over the cases, less the output checks the
        # benchmark adds: as measured, and at the reference speed.
        self.raw_loop_time = 0.0
        self.loop_time = 0.0
        self.failed = 0
        self.iterations = 0
        self.restarts_used = 0
        self.found = 0
        self.first_error: str | None = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def close_chunk(self, first: int, loop_time: float, scale: float) -> None:
        """Scale the times measured since latency ``first`` to the reference speed."""
        self.latencies[first:] = [t * scale for t in self.latencies[first:]]
        self.raw_loop_time += loop_time
        self.loop_time += loop_time * scale

    def ops_per_s(self) -> float:
        return self.attempted / self.loop_time

    def count_search(self, result, restart_budget: int) -> None:
        """Restarts used: up to the certifying one, else the whole budget."""
        self.iterations += result.iterations_used
        self.restarts_used += result.restart_index + 1 if result.found else restart_budget
        self.found += bool(result.found)


def run_cases(cases, seg: Segment, tracer=None, host=None) -> None:
    """Run each case once. The latency covers the operation, not its check.

    With ``host``, the times are scaled to the reference speed in chunks
    that end when a host-speed sample is due, and at the end.
    """
    first, chunk_start, check_time = len(seg.latencies), perf_counter(), 0.0
    for case in cases:
        t0 = perf_counter()
        elapsed = None
        try:
            out = case.run()
            elapsed = perf_counter() - t0
            error = None if case.verify(out) else "output check failed"
            if case.restarts:
                seg.count_search(out, case.restarts)
        except Exception:  # a failed operation or check is counted, and the loop goes on
            error = traceback.format_exc()
        done = perf_counter()
        if elapsed is None:
            elapsed = done - t0
        seg.latencies.append(elapsed)
        check_time += done - t0 - elapsed
        if tracer:
            tracer.end_operation(case.kind)
        if error:
            seg.failed += 1
            seg.first_error = seg.first_error or f"{case.kind}: {error}"
        if host and host.due():
            seg.close_chunk(first, perf_counter() - chunk_start - check_time, host.sample())
            first, chunk_start, check_time = len(seg.latencies), perf_counter(), 0.0
    seg.close_chunk(first, perf_counter() - chunk_start - check_time, host.sample() if host else 1.0)


def repeat_for(budget_s: float, run_round) -> None:
    """Call ``run_round`` about ``budget_s / round time`` times, at least once.

    Whole rounds keep the input mix, and every count, identical for a
    given seed.
    """
    start = perf_counter()
    while True:
        round_start = perf_counter()
        run_round()
        now = perf_counter()
        if now - start + (now - round_start) / 2 >= budget_s:
            return


def run_untraced(cases, budget_s: float, host: HostSpeed) -> Segment:
    seg = Segment()
    host.sample()  # the first chunk's opening sample
    repeat_for(budget_s, lambda: run_cases(cases, seg, host=host))
    return seg


def run_traced(cases, budget_s: float, tracer) -> tuple[Segment, Segment]:
    """Alternate untraced and traced chunks of the pool.

    A round is two passes; a chunk traced in the first pass runs untraced
    in the second and the other way round. Each case is traced once per
    round, and the interleaving keeps slow drifts of the machine's speed
    out of the traced-to-untraced ratio, so the times are not scaled.
    """
    size = -(-len(cases) // TRACE_CHUNKS)
    chunks = [cases[i : i + size] for i in range(0, len(cases), size)]
    plain, traced = Segment(), Segment()

    def run_round() -> None:
        for first in (0, 1):
            for j, chunk in enumerate(chunks):
                if (j + first) % 2:
                    run_cases(chunk, plain)
                else:
                    with tracer:
                        run_cases(chunk, traced, tracer)

    repeat_for(budget_s, run_round)
    return plain, traced


def warm_up(cases) -> None:
    """Run the first cases untimed, so lazy set-up is done before timing."""
    start = perf_counter()
    for case in cases:
        try:
            case.run()
        except Exception:  # the timed loop counts and reports failures
            pass
        if perf_counter() - start >= WARMUP_S:
            return


# --- metrics ---------------------------------------------------------------------


def end_to_end(seg: Segment, setup_times: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": seg.ops_per_s(),
        "op_p50_ms": statistics.median(seg.latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(seg.latencies, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain: Segment, traced: Segment, tracer, imports: dict) -> dict:
    n = traced.attempted
    out = {}
    for name in tracer.names:
        stat = tracer.stats[name]
        out[f"{name}.calls"] = len(stat.durations) / n
        out[f"{name}.self_ms"] = stat.self_time / n * 1e3
        out[f"{name}.self_pct"] = 100.0 * stat.self_time / traced.loop_time
        out[f"{name}.p50_us"] = statistics.median(stat.durations) * 1e6 if stat.durations else 0.0
    search_self = tracer.stats["search.search"].self_time
    out["search.iterations"] = traced.iterations / n
    out["search.restarts_used"] = traced.restarts_used / n
    out["search.found_share"] = traced.found / n
    out["search.us_per_iteration"] = search_self / traced.iterations * 1e6 if traced.iterations else 0.0
    out["search.iterations_per_s"] = plain.iterations / plain.loop_time
    out.update(imports)
    out["trace.overhead"] = traced.ops_per_s() / plain.ops_per_s()
    return out


def result_line(segments, metrics: dict, units: dict) -> str:
    failed = sum(s.failed for s in segments)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": sum(s.attempted for s in segments),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
    )


def report_segment(name: str, label: str, seg: Segment, search_workload: bool, scaled: bool) -> None:
    share = seg.failed / seg.attempted
    at_reference = f" ({seg.loop_time:.3f} s at the reference speed)" if scaled else ""
    print(
        f"# {name} {label}: {seg.attempted} operations, {seg.raw_loop_time:.3f} s of loop time{at_reference}, "
        f"failed_share {share:.6g}"
    )
    if search_workload:
        print(f"#   iterations_per_s {seg.iterations / seg.loop_time:.6g} 1/s ({seg.iterations} iterations)")
    if seg.first_error:
        print(f"# first failure: {seg.first_error}", file=sys.stderr)


def print_metrics(name: str, metrics: dict, units: dict) -> None:
    for key in units:
        print(f"{name:<11} {key:<52} {metrics[key]:>14.6g} {units[key]}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, host, setup_times, imports) -> tuple:
    import workloads

    cases = workloads.build(name, seed)
    search_workload = name in workloads.SEARCH_WORKLOADS
    warm_up(cases)
    if not trace:
        seg = run_untraced(cases, seconds, host)
        report_segment(name, "untraced", seg, search_workload, scaled=True)
        return [seg], end_to_end(seg, setup_times)

    import tracing

    tracer = tracing.Tracer()
    plain, traced = run_traced(cases, seconds, tracer)
    report_segment(name, "untraced", plain, search_workload, scaled=False)
    report_segment(name, "traced", traced, search_workload, scaled=False)
    if tracer.absent:
        print(f"# absent (reported as 0): {', '.join(tracer.absent)}")
    for kind, calls in sorted(tracer.by_kind.items()):
        ops = tracer.ops_by_kind[kind]
        print(f"# calls per {kind} operation: " + ", ".join(f"{f} {c / ops:g}" for f, c in calls.items()))
    return [plain, traced], per_layer(plain, traced, tracer, imports)


def run_all(args) -> int:
    """Run each workload in a process of its own, so each reports its own peak_rss_mb."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("\n".join(lines))
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no library source at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # Before numpy is first imported, here and in the set-up spawns.
    os.environ.update({v: "1" for v in THREAD_VARS})
    # One CPU for the run and its spawns, the one the host-speed samples see:
    # the host's CPUs change speed independently of each other.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))

    try:
        if args.trace:
            import tracing

            units = per_layer_units(tracing.LAYER_FUNCTIONS)
        else:
            units = END_TO_END_UNITS
        check_declaration(units, "per_layer" if args.trace else "end_to_end")
        import workloads  # noqa: F401  (imports the library before the spawns)

        print("# env " + json.dumps(environment(nproc)))
        host = HostSpeed()
        spawns = []
        for _ in range(SETUP_SPAWNS):
            elapsed, stderr = spawn_setup(importtime=bool(args.trace))
            spawns.append((elapsed * host.sample(), stderr))
        setup_times = [t for t, _ in spawns]
        imports = {}
        for key, module in (("setup.import_numpy_ms", "numpy"), ("setup.import_locc_witness_ms", "locc_witness")):
            values = [v for v in (import_ms(err, module) for _, err in spawns) if v is not None]
            imports[key] = statistics.median(values) if values else 0.0
        segments, metrics = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), host, setup_times, imports
        )
        print_metrics(args.workload, metrics, units)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result_line(segments, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
