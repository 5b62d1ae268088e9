"""Command-line front end.

Exit codes are a stable scripting contract: 0 for a certified or
positive verdict, 3 for inconclusive or negative, 2 for input errors.
:func:`main` alone keeps it. It checks the flags, loads the input, runs
the subcommand, writes the ``--out`` report and maps the outcome to an
exit code. Each ``cmd_*`` only computes and prints, and returns ``(ok,
options, fields)``: the verdict, the options the report echoes, and the
report's own fields. Every input error names what it concerns: a bad
``--tol`` as ``--tol: message``, a ``search`` whose ``--mode`` and
``--detector-dims`` clash by both flags, anything else as ``<file>:
<field>: message``, where an error the subcommand raises without a
location is put on the input file's top level ``$`` (``schmidt`` puts a
bad ``--cut`` on ``cut``).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .io import (
    ProblemFileError,
    list_fixtures,
    load_problem,
    problem_to_dict,
    resolve_input,
    witness_report_to_dict,
    write_report,
)
from .majorization import DEFAULT_TOL, _check_tol
from .search import FIXED_BELL_ENUMERATION, MODES, SearchConfig, search
from .states import SubsystemLayout, parse_cut, schmidt
from .witness import (
    PROTOCOL_DISTINGUISHES,
    PROTOCOL_FAILS,
    build_joint_state,
    check_witness,
    classify_full_basis,
    verify_one_way_protocol,
)


def _fmt(values) -> str:
    return ", ".join(f"{float(v):.12g}" for v in values)


def _input_echo(parsed) -> dict:
    echo = {
        "source": parsed.source,
        "states": list(parsed.state_names),
        "warnings": parsed.normalization_warnings() + list(parsed.notes),
    }
    if parsed.description:
        echo["description"] = parsed.description
    if parsed.detectors is not None:
        echo["detectors"] = list(parsed.detector_names)
        echo["probs"] = list(parsed.probs)
    return echo


def _report_skeleton(subcommand: str, parsed, options: dict) -> dict:
    return {
        "tool": "locc-witness",
        "version": __version__,
        "subcommand": subcommand,
        "input": _input_echo(parsed),
        "options": options,
    }


def _print_witness(report) -> None:
    print(f"verdict: {report.verdict}")
    print(f"margin: {report.margin:.12g} (tol {report.tol:g})")
    print(f"source schmidt:   {_fmt(report.source_schmidt)}")
    print(f"ensemble average: {_fmt(report.target_average)}")
    print(f"partial sums, source:  {_fmt(report.source_partial_sums)}")
    print(f"partial sums, average: {_fmt(report.average_partial_sums)}")
    for w in report.warnings:
        print(f"warning: {w}")


def cmd_schmidt(args, parsed):
    state_layout = parsed.states[0].layout
    if parsed.detectors is not None:
        full_layout = SubsystemLayout(state_layout.parts + parsed.detectors[0].layout.parts)
    else:
        full_layout = state_layout
    try:
        cut = parse_cut(args.cut, full_layout)
    except ValueError as exc:
        raise ProblemFileError(parsed.source, "cut", str(exc)) from None
    cut_labels = set(cut.left) | set(cut.right)

    rows = []
    if cut_labels == set(state_layout.labels):
        for name, state in zip(parsed.state_names, parsed.states):
            rows.append((name, schmidt(state, cut)))
    elif parsed.detectors is not None and cut_labels == set(full_layout.labels):
        joint = build_joint_state(parsed.witness_problem())
        rows.append(("joint", schmidt(joint, cut)))
    else:
        raise ProblemFileError(
            parsed.source, "cut", f"cut {args.cut!r} does not match the file's layouts"
        )

    for name, vec in rows:
        print(f"{name}: {_fmt(vec)}")
    schmidt_rows = [{"name": n, "values": vec.entries.tolist()} for n, vec in rows]
    return True, {"cut": str(cut)}, {"schmidt": schmidt_rows}


def cmd_check(args, parsed):
    report = check_witness(parsed.witness_problem(), args.tol)
    _print_witness(report)
    return report.certified, {"tol": args.tol}, witness_report_to_dict(report)


def cmd_search(args, parsed):
    dims = args.detector_dims
    cfg = SearchConfig(
        detector_dims=dims,
        restarts=args.restarts,
        seed=args.seed,
        tol=args.tol,
        mode=args.mode,
    )
    result = search(parsed.states, cfg)
    print(f"found: {result.found}")
    print(f"restart: {result.restart_index}, iterations: {result.iterations_used}")
    print(f"margin cap: {result.margin_cap:.12g}")
    _print_witness(result.best_report)
    dumped = problem_to_dict(result.best_problem, state_names=parsed.state_names)
    if args.dump_problem:
        write_report(args.dump_problem, dumped)
        print(f"best problem written to {args.dump_problem}")
    options = {
        "tol": args.tol,
        "seed": args.seed,
        "restarts": args.restarts,
        "max_iters": cfg.max_iters,
        "detector_dims": list(dims),
        "mode": args.mode,
    }
    return result.found, options, {
        **witness_report_to_dict(result.best_report),
        "found": result.found,
        "restart_index": result.restart_index,
        "iterations_used": result.iterations_used,
        "margin_cap": result.margin_cap,
        "best_problem": dumped,
    }


def cmd_full_basis(args, parsed):
    result = classify_full_basis(parsed.states, args.tol)
    print(f"classification: {result.classification}")
    print(f"max schmidt coefficient per state: {_fmt(result.max_schmidt)}")
    fields = {"verdict": result.classification, "max_schmidt": [float(v) for v in result.max_schmidt]}
    if result.witness is not None:
        print("cross-check witness:")
        _print_witness(result.witness)
        fields["witness"] = witness_report_to_dict(result.witness)
    return result.certified, {"tol": args.tol}, fields


def cmd_protocol_verify(args, parsed):
    measurement = load_problem(resolve_input(args.measurement))
    ok = verify_one_way_protocol(parsed.states, measurement.states, args.tol)
    verdict = PROTOCOL_DISTINGUISHES if ok else PROTOCOL_FAILS
    print(f"verdict: {verdict}")
    return ok, {"tol": args.tol}, {"verdict": verdict, "measurement": str(args.measurement)}


def _integer_at_least(least: int):
    """An argparse type for an integer option of at least ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
        return value

    return parse


def _detector_dims(text: str) -> tuple[int, ...]:
    """An argparse type for two comma-separated dimensions of at least 2."""
    try:
        dims = tuple(int(d) for d in text.split(","))
    except ValueError:
        dims = ()
    if len(dims) != 2:
        raise argparse.ArgumentTypeError(f"expected two integers separated by a comma, such as 2,2; got {text!r}")
    if min(dims) < 2:
        raise argparse.ArgumentTypeError(
            f"expected two integers separated by a comma, such as 2,2, each at least 2; got {text!r}"
        )
    return dims


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locc-witness",
        description=(
            "Certify when orthogonal bipartite pure states cannot be perfectly "
            "distinguished by LOCC. Inputs are JSON problem files or bundled "
            "fixture names (%s)." % ", ".join(list_fixtures() or ["none bundled"])
        ),
    )
    parser.add_argument("--version", action="version", version=f"locc-witness {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tol=True):
        p.add_argument("input", help="problem file path or bundled fixture name")
        if tol:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="certification tolerance")
        p.add_argument("--out", help="write a machine-readable JSON report here")

    p = sub.add_parser("schmidt", help="print Schmidt vectors across a cut")
    add_common(p, tol=False)
    p.add_argument("--cut", required=True, help="bipartition such as A:B or AC:BD")
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("check", help="run the witness on a file with detectors")
    add_common(p)
    p.set_defaults(func=cmd_check)

    defaults = SearchConfig()
    p = sub.add_parser("search", help="search detectors and probabilities for a certificate")
    add_common(p)
    p.add_argument("--restarts", type=_integer_at_least(1), default=defaults.restarts)
    p.add_argument("--seed", type=_integer_at_least(0), default=defaults.seed)
    p.add_argument(
        "--detector-dims", type=_detector_dims, default=defaults.detector_dims, help="detector dimensions, e.g. 2,2"
    )
    p.add_argument("--mode", choices=MODES, default=defaults.mode)
    p.add_argument("--dump-problem", help="write the best problem as a problem file")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("full-basis", help="classify a complete orthonormal basis")
    add_common(p)
    p.set_defaults(func=cmd_full_basis)

    p = sub.add_parser("protocol-verify", help="verify a one-way measure-and-tell protocol")
    add_common(p)
    p.add_argument("--measurement", required=True, help="measurement basis file (single part)")
    p.set_defaults(func=cmd_protocol_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "tol" in args:
            try:
                _check_tol(args.tol)
            except ValueError as exc:
                raise ValueError(f"--tol: {exc}") from None
        if args.command == "search" and args.mode == FIXED_BELL_ENUMERATION and args.detector_dims != (2, 2):
            got = ",".join(map(str, args.detector_dims))
            raise ValueError(f"--mode {FIXED_BELL_ENUMERATION} needs --detector-dims 2,2, got {got}")
        parsed = load_problem(resolve_input(args.input))
        try:
            ok, options, fields = args.func(args, parsed)
        except ProblemFileError:
            raise
        except ValueError as exc:
            raise ProblemFileError(parsed.source, "$", str(exc)) from None
        if args.out:
            write_report(args.out, {**_report_skeleton(args.command, parsed, options), **fields})
    except ValueError as exc:  # ProblemFileError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
