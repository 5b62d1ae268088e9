import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_io import MALFORMED_NUMBERS, PARSER_ERRORS, bell_witness_with

import locc_witness
from locc_witness.cli import build_parser, main
from locc_witness.io import fixture_path, list_fixtures, load_problem
from locc_witness.search import SearchConfig
from locc_witness.states import SubsystemLayout, parse_cut


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSchmidt:
    def test_tol_is_not_an_option(self, capsys):
        # the Schmidt vectors do not depend on a tolerance
        with pytest.raises(SystemExit) as exc:
            main(["schmidt", "bell", "--cut", "A:B", "--tol", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_bell_state_cut_ab(self, capsys):
        code, out, _ = run_cli(capsys, "schmidt", "bell", "--cut", "A:B")
        assert code == 0
        assert "phi_plus: 0.5, 0.5" in out

    def test_joint_state_cut_acbd(self, capsys):
        code, out, _ = run_cli(capsys, "schmidt", "bell_joint", "--cut", "AC:BD")
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("joint:")][0]
        values = [float(v) for v in line.split(":", 1)[1].split(",")]
        assert values == pytest.approx([1, 0, 0, 0], abs=1e-10)

    def test_witness_file_builds_joint_for_four_party_cut(self, capsys):
        code, out, _ = run_cli(capsys, "schmidt", "bell_witness", "--cut", "AC:BD")
        assert code == 0
        assert out.startswith("joint: 1,")

    def test_product_kets_print_one_zero(self, capsys):
        code, out, _ = run_cli(capsys, "schmidt", "computational_2x2", "--cut", "A:B")
        assert code == 0
        for line in out.splitlines():
            assert line.endswith(": 1, 0")

    def test_bad_cut_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "schmidt", "bell", "--cut", "A:X")
        assert code == 2
        assert "error" in err

    def test_cut_matching_neither_layout_is_input_error(self, capsys):
        # A and C are both labels of bell_witness, but of different layouts, and cover neither
        code, out, err = run_cli(capsys, "schmidt", "bell_witness", "--cut", "A:C")
        assert (code, out) == (2, "")
        assert err == f"error: {fixture_path('bell_witness')}: cut: cut 'A:C' does not match the file's layouts\n"

    def test_repeated_cut_label_is_input_error(self, capsys):
        # AA:B used to print the A:B vectors and echo the cut as given
        code, out, err = run_cli(capsys, "schmidt", "bell", "--cut", "AA:B")
        assert (code, out) == (2, "")
        assert "label 'A' is repeated" in err

    @pytest.mark.parametrize(
        "labels, cut", [("ABCD", "AC:BD"), (("A", "AB", "BC", "D"), "A,BC:AB,D")], ids=["one", "multi"]
    )
    def test_reported_cut_reads_back(self, capsys, tmp_path, labels, cut):
        # joined plainly, A,BC:AB,D would read ABC:ABD, which greedy matching cannot parse
        layout = {label: 2 for label in labels}
        ket = [[1.0, 0.0]] + [[0.0, 0.0]] * 15
        path = tmp_path / "kets.json"
        path.write_text(json.dumps({"layout": layout, "states": [{"name": "ket", "amplitudes": ket}]}))
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "schmidt", str(path), "--cut", cut, "--out", str(out_path))
        assert (code, out) == (0, "ket: 1, 0, 0, 0\n")
        reported = json.loads(out_path.read_text())["options"]["cut"]
        state_layout = SubsystemLayout(tuple(layout.items()))
        assert reported == cut
        assert parse_cut(reported, state_layout) == parse_cut(cut, state_layout)


class TestCheck:
    def test_bell_witness_certified(self, capsys):
        code, out, _ = run_cli(capsys, "check", "bell_witness")
        assert code == 0
        assert "CERTIFIED_INDISTINGUISHABLE" in out
        assert "margin: 0.5" in out

    def test_s_witness_inconclusive(self, capsys):
        code, out, _ = run_cli(capsys, "check", "s_witness")
        assert code == 3
        assert "INCONCLUSIVE" in out

    def test_s_prime_witness_certified(self, capsys):
        code, out, _ = run_cli(capsys, "check", "s_prime_witness")
        assert code == 0
        assert "CERTIFIED_INDISTINGUISHABLE" in out

    def test_missing_detectors_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "s")
        assert code == 2
        assert "detectors" in err

    @pytest.mark.parametrize("path, value, where", MALFORMED_NUMBERS)
    def test_malformed_number_is_input_error(self, capsys, tmp_path, path, value, where):
        # NaN used to pass every range check and certify with margin nan
        bad = tmp_path / "f.json"
        bad.write_text(json.dumps(bell_witness_with(path, value)))
        code, out, err = run_cli(capsys, "check", str(bad))
        assert code == 2
        assert re.search(where, err)
        assert "CERTIFIED" not in out

    @pytest.mark.parametrize("doc, where, message", PARSER_ERRORS)
    def test_structural_error_is_input_error(self, capsys, tmp_path, doc, where, message):
        bad = tmp_path / "f.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(capsys, "check", str(bad)) == (2, "", f"error: {bad}: {where}: {message}\n")

    def test_directory_is_input_error(self, capsys, tmp_path):
        with pytest.raises(OSError) as reading:
            tmp_path.read_text(encoding="utf-8")
        assert run_cli(capsys, "check", str(tmp_path)) == (2, "", f"error: {tmp_path}: $: {reading.value}\n")

    def test_report_written(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "check", "bell_witness", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["verdict"] == "CERTIFIED_INDISTINGUISHABLE"
        assert doc["margin"] == pytest.approx(0.5, abs=1e-9)
        assert doc["tool"] == "locc-witness"
        assert doc["input"]["states"] == ["phi_plus", "phi_minus", "psi_plus", "psi_minus"]


@pytest.mark.parametrize(
    "argv",
    [("check", "s_witness"), ("full-basis", "bell"), ("search", "two_state", "--restarts", "1")],
    ids=["check", "full-basis", "search"],
)
def test_zero_tol_is_input_error(capsys, argv):
    # at tol 0 the float-dust margin of s_witness (4.4e-16) would certify
    code, _, err = run_cli(capsys, *argv, "--tol", "0")
    assert code == 2
    assert "tol must be a positive finite number" in err


@pytest.mark.parametrize(
    "argv, location, message",
    [
        (("schmidt", "bell", "--cut", "AC:BD"), "bell: cut", "cannot match 'C' against layout labels ('A', 'B')"),
        (("schmidt", "bell", "--cut", "A:A"), "bell: cut", "bipartition sides must be disjoint"),
        (("search", "omega_basis"), "omega_basis: $", "search needs a two-part layout, got A:3"),
        (("full-basis", "s"), "s: $", "basis is incomplete: 3 states in dimension 9"),
        (
            ("protocol-verify", "bell", "--measurement", "omega_basis"),
            "bell: $",
            "measurement basis dimension 3 does not match part dimension 2",
        ),
        (("check", "s_witness", "--tol", "1e-16"), "--tol", "tol must be a positive finite number of at least 2e-10, got 1e-16"),
        (("check", "no_such_input", "--tol", "nan"), "--tol", "tol must be a positive finite number, got nan"),
    ],
    ids=["schmidt_cut", "schmidt_repeated_cut", "search", "full_basis", "protocol_verify", "tol", "tol_first"],
)
def test_error_below_the_parser_names_its_source(capsys, argv, location, message):
    # an error raised by the library carries no file: the CLI adds the input
    # file, and the field where it knows it; a bad --tol is the flag's fault
    if location != "--tol":
        name, field = location.split(": ")
        location = f"{fixture_path(name)}: {field}"
    assert run_cli(capsys, *argv) == (2, "", f"error: {location}: {message}\n")


def test_tol_below_floor_is_input_error(capsys):
    # at 1e-16 the float-dust margin of s_witness (4.4e-16) would certify
    code, out, err = run_cli(capsys, "check", "s_witness", "--tol", "1e-16")
    assert code == 2
    assert "tol must be a positive finite number of at least 2e-10" in err
    assert "CERTIFIED" not in out


class TestSearch:
    def test_s_prime_found_and_dump_rechecks(self, capsys, tmp_path):
        dump = tmp_path / "problem.json"
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "search", "s_prime", "--restarts", "8", "--seed", "0",
            "--dump-problem", str(dump), "--out", str(report_path),
        )
        assert code == 0
        assert "found: True" in out

        code2, out2, _ = run_cli(capsys, "check", str(dump))
        assert code2 == 0
        assert "CERTIFIED_INDISTINGUISHABLE" in out2

        doc = json.loads(report_path.read_text())
        assert doc["found"] is True
        # max_iters bounds the iterations_used the report gives; the CLI searches at the default
        assert doc["options"] == {
            "tol": SearchConfig().tol,
            "seed": 0,
            "restarts": 8,
            "max_iters": SearchConfig().max_iters,
            "detector_dims": [2, 2],
            "mode": SearchConfig().mode,
        }
        assert doc["best_problem"]["detectors"]["probs"] == pytest.approx(
            list(load_problem(dump).probs)
        )

    def test_margin_cap_is_printed_and_written(self, capsys, tmp_path):
        # four Bell states reach Bell detectors' cap, 1/2, at restart 0's start: 1 iteration
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "search", "bell", "--out", str(report_path))
        assert code == 0
        assert "restart: 0, iterations: 1\nmargin cap: 0.5\n" in out
        doc = json.loads(report_path.read_text())
        assert (doc["margin_cap"], doc["iterations_used"], doc["margin"]) == (0.5, 1, float.fromhex("0x1.0000000000003p-1"))

    def test_two_state_not_found(self, capsys):
        code, out, _ = run_cli(capsys, "search", "two_state", "--restarts", "4")
        assert code == 3
        assert "found: False" in out

    @pytest.mark.parametrize(
        "flag, value, form",
        [
            ("--detector-dims", "2,x", "two integers separated by a comma, such as 2,2"),
            ("--detector-dims", "2,2,2", "two integers separated by a comma, such as 2,2"),
            ("--detector-dims", "1,2", "two integers separated by a comma, such as 2,2, each at least 2"),
            ("--seed", "-1", "an integer >= 0"),
            ("--restarts", "0", "an integer >= 1"),
        ],
    )
    def test_bad_option_names_flag_and_form(self, capsys, flag, value, form):
        with pytest.raises(SystemExit) as exc:
            main(["search", "s_prime", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected {form}" in err
        assert f"got '{value}'" in err

    @pytest.mark.parametrize("argv", [(), ("--mode", "FIXED_BELL_ENUMERATION")], ids=["default_mode", "bell_mode"])
    def test_bell_mode_with_other_detector_dims_names_both_flags(self, capsys, argv):
        # the clash is between two flags, so it is reported before the input
        # is read, and a missing input does not hide it
        message = "error: --mode FIXED_BELL_ENUMERATION needs --detector-dims 2,2, got 3,3\n"
        for name in ("s_prime_witness", "no_such_input"):
            assert run_cli(capsys, "search", name, "--detector-dims", "3,3", *argv) == (2, "", message)

    def test_defaults_are_the_search_config_defaults(self):
        args = build_parser().parse_args(["search", "bell"])
        defaults = SearchConfig()
        assert (args.restarts, args.seed, args.detector_dims, args.mode) == (
            defaults.restarts, defaults.seed, defaults.detector_dims, defaults.mode
        )

    def test_free_detector_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "two_state", "--restarts", "4", "--mode", "FREE_DETECTORS"
        )
        assert code == 3
        assert "found: False" in out


class TestFullBasis:
    def test_bell(self, capsys):
        code, out, _ = run_cli(capsys, "full-basis", "bell")
        assert code == 0
        assert "CONTAINS_ENTANGLED" in out
        assert "margin: 0.5" in out

    def test_computational(self, capsys):
        code, out, _ = run_cli(capsys, "full-basis", "computational_3x3")
        assert code == 3
        assert "ALL_PRODUCT" in out

    def test_incomplete_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "full-basis", "s_prime")
        assert code == 2
        assert "complete" in err

    def test_bell_basis_on_c_d_labels(self, capsys, tmp_path):
        doc = json.loads(fixture_path("bell").read_text())
        doc["layout"] = {"C": 2, "D": 2}
        path = tmp_path / "bell_cd.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "full-basis", str(path))
        assert code == 0
        assert "margin: 0.5" in out

    def test_inconclusive_cross_check_exits_3(self, capsys, tmp_path):
        # |00> and |11> of the 4x4 computational basis rotated into each other
        # until their largest Schmidt coefficient is 1 - 3e-9: each is entangled
        # beyond tol, but the witness margin 1 - mean(max Schmidt) = 3.75e-10 is not
        theta = math.asin(math.sqrt(3e-9))
        kets = [[[1.0 if j == i else 0.0, 0.0] for j in range(16)] for i in range(16)]
        kets[0][0], kets[0][5] = [math.cos(theta), 0.0], [math.sin(theta), 0.0]
        kets[5][0], kets[5][5] = [-math.sin(theta), 0.0], [math.cos(theta), 0.0]
        doc = {
            "layout": {"A": 4, "B": 4},
            "states": [{"name": f"ket{i}", "amplitudes": amps} for i, amps in enumerate(kets)],
        }
        path, out_path = tmp_path / "near_product.json", tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "full-basis", str(path), "--out", str(out_path))
        assert code == 3
        assert "verdict: INCONCLUSIVE" in out
        report = json.loads(out_path.read_text())
        assert report["verdict"] == "CONTAINS_ENTANGLED_LOCC_INDISTINGUISHABLE"
        assert report["witness"]["verdict"] == "INCONCLUSIVE"
        assert report["witness"]["margin"] == pytest.approx(3.75e-10, rel=1e-6)

    def test_incomplete_product_set_is_input_error(self, capsys, tmp_path):
        kets = [[[1.0 if j == i else 0.0, 0.0] for j in range(4)] for i in range(3)]
        doc = {
            "layout": {"A": 2, "B": 2},
            "states": [{"name": f"ket{i}", "amplitudes": amps} for i, amps in enumerate(kets)],
        }
        path = tmp_path / "three_kets.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "full-basis", str(path))
        assert code == 2
        assert "basis is incomplete: 3 states in dimension 4" in err

    def test_three_part_layout_is_input_error(self, capsys, tmp_path):
        kets = [[[1.0 if j == i else 0.0, 0.0] for j in range(8)] for i in range(8)]
        doc = {
            "layout": {"A": 2, "B": 2, "C": 2},
            "states": [{"name": f"ket{i}", "amplitudes": amps} for i, amps in enumerate(kets)],
        }
        path = tmp_path / "three_qubits.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "full-basis", str(path))
        assert code == 2
        assert "two-part layout, got A:2 x B:2 x C:2" in err

    @pytest.mark.parametrize("label", ["A,B", "A:B"])
    def test_cut_separator_in_layout_label_is_input_error(self, capsys, tmp_path, label):
        doc = json.loads(fixture_path("bell").read_text())
        doc["layout"] = {label: 2, "C": 2}
        path = tmp_path / "separator_label.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "full-basis", str(path))
        assert code == 2
        assert f"part label {label!r} holds ',' or ':'" in err


class TestProtocolVerify:
    def test_s_with_omega(self, capsys):
        code, out, _ = run_cli(capsys, "protocol-verify", "s", "--measurement", "omega_basis")
        assert code == 0
        assert "PROTOCOL_DISTINGUISHES" in out

    def test_bell_with_computational(self, capsys, tmp_path):
        comp = {
            "layout": {"A": 2},
            "states": [
                {"name": "ket0", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
                {"name": "ket1", "amplitudes": [[0.0, 0.0], [1.0, 0.0]]},
            ],
        }
        path = tmp_path / "comp.json"
        path.write_text(json.dumps(comp))
        code, out, _ = run_cli(capsys, "protocol-verify", "bell", "--measurement", str(path))
        assert code == 3
        assert "PROTOCOL_FAILS" in out

    def test_dimension_mismatch_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "protocol-verify", "bell", "--measurement", "omega_basis")
        assert code == 2

    def test_basis_on_second_part_is_input_error(self, capsys, tmp_path):
        # Bell states live on A:2 x B:2; a basis of B is not one of the measured part A
        kets = [{"amplitudes": [[1.0, 0.0], [0.0, 0.0]]}, {"amplitudes": [[0.0, 0.0], [1.0, 0.0]]}]
        comp = {"layout": {"B": 2}, "states": kets}
        path = tmp_path / "comp_b.json"
        path.write_text(json.dumps(comp))
        code, _, err = run_cli(capsys, "protocol-verify", "bell", "--measurement", str(path))
        assert code == 2
        assert "holds the states' second part B, not their first part A" in err

    @pytest.mark.parametrize("name, tol", [("s_prime", "nan"), ("s", "0")])
    def test_tol_that_is_not_positive_and_finite_is_input_error(self, capsys, name, tol):
        # at NaN no residual is kept, so any measurement would distinguish S';
        # at 0 the valid omega-basis protocol on S would fail on rounding dust
        code, _, err = run_cli(capsys, "protocol-verify", name, "--measurement", "omega_basis", "--tol", tol)
        assert code == 2
        assert "tol must be a positive finite number" in err


WITNESS_FIELDS = {"verdict", "margin", "tol", "source_schmidt", "target_average", "partial_sums", "warnings"}
# Per subcommand: arguments after the input, a positive input, a negative
# input or None, and the report fields of the positive case beyond the
# skeleton every report shares.
OUT_CASES = {
    "schmidt": (["--cut", "A:B"], "bell", None, {"schmidt"}),
    "check": ([], "bell_witness", "s_witness", WITNESS_FIELDS),
    "search": (
        ["--restarts", "8", "--seed", "0"],
        "s_prime",
        "two_state",
        WITNESS_FIELDS | {"found", "restart_index", "iterations_used", "margin_cap", "best_problem"},
    ),
    "full-basis": ([], "bell", "computational_2x2", {"verdict", "max_schmidt", "witness"}),
    "protocol-verify": (["--measurement", "omega_basis"], "s", "s_prime", {"verdict", "measurement"}),
}
SKELETON = {"tool", "version", "subcommand", "input", "options"}
VERDICTS = {
    locc_witness.CERTIFIED_INDISTINGUISHABLE,
    locc_witness.INCONCLUSIVE,
    locc_witness.ALL_PRODUCT,
    locc_witness.CONTAINS_ENTANGLED,
    locc_witness.PROTOCOL_DISTINGUISHES,
    locc_witness.PROTOCOL_FAILS,
}


def _subcommands():
    (action,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(action.choices)


@pytest.mark.parametrize("subcommand", _subcommands())
def test_out_report_and_exit_code(capsys, tmp_path, subcommand):
    assert subcommand in OUT_CASES, f"no --out case for subcommand {subcommand!r}"
    extra, positive, negative, fields = OUT_CASES[subcommand]
    cases = [(positive, 0)] + ([(negative, 3)] if negative else [])
    for name, expected in cases:
        out_path = tmp_path / f"{name}.json"
        code, _, _ = run_cli(capsys, subcommand, name, *extra, "--out", str(out_path))
        assert code == expected, name
        doc = json.loads(out_path.read_text())
        assert SKELETON <= set(doc)
        assert (doc["tool"], doc["subcommand"]) == ("locc-witness", subcommand)
        assert doc["version"] == locc_witness.__version__
        if "verdict" in doc:
            assert doc["verdict"] in VERDICTS
        if expected == 0:
            assert set(doc) == SKELETON | fields

    out_path = tmp_path / "error.json"
    code, _, err = run_cli(capsys, subcommand, str(tmp_path / "missing.json"), *extra, "--out", str(out_path))
    assert code == 2
    assert "no such file" in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [("check", "bell_witness", "--out"), ("search", "two_state", "--restarts", "1", "--dump-problem")],
    ids=["out", "dump-problem"],
)
def test_unwritable_output_path_is_input_error(tmp_path, argv):
    # writing into a directory that does not exist used to end in a traceback and exit 1
    target = tmp_path / "missing" / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "locc_witness.cli", *argv, str(target)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 2
    assert f"error: {target}" in proc.stderr
    assert "Traceback" not in proc.stderr


class TestFixtureExpectations:
    """Every bundled fixture declares the subcommand and verdict it should
    reproduce; run each one and compare."""

    @pytest.mark.parametrize("name", sorted(list_fixtures()))
    def test_fixture_expectation(self, capsys, name):
        parsed = load_problem(fixture_path(name))
        if parsed.expect is None:
            pytest.skip("fixture carries no expectation")
        expect = parsed.expect
        sub = expect["subcommand"]
        argv = [sub, name]
        if sub == "schmidt":
            argv += ["--cut", expect["cut"]]
        elif sub == "protocol-verify":
            argv += ["--measurement", expect["measurement"]]
        elif sub == "search":
            argv += ["--restarts", "8", "--seed", "0"]
        code = main(argv)
        out = capsys.readouterr().out
        if "verdict" in expect:
            assert expect["verdict"] in out
            positive = expect["verdict"] in (
                "CERTIFIED_INDISTINGUISHABLE",
                "CONTAINS_ENTANGLED_LOCC_INDISTINGUISHABLE",
                "PROTOCOL_DISTINGUISHES",
            )
            assert code == (0 if positive else 3)
        if "values" in expect:
            line = out.splitlines()[0]
            values = [float(v) for v in line.split(":", 1)[1].split(",")]
            assert values == pytest.approx(expect["values"], abs=1e-9)


def _child_env():
    """The environment with this package's parent directory first on PYTHONPATH."""
    parent = str(Path(locc_witness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [parent, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "locc_witness.cli", "check", "bell_witness"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "CERTIFIED_INDISTINGUISHABLE" in proc.stdout


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "locc_witness.cli", "--version"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "locc-witness" in proc.stdout
