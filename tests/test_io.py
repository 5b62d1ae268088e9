import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locc_witness import states as states_module
from locc_witness.catalog import bell_states, set_s_prime
from locc_witness.io import (
    ProblemFileError,
    fixture_path,
    list_fixtures,
    load_problem,
    parse_problem,
    problem_to_dict,
    resolve_input,
    states_to_dict,
    witness_report_to_dict,
    write_report,
)
from locc_witness.states import PureState, SubsystemLayout
from locc_witness.witness import WitnessProblem, check_witness

EXPECTED_FIXTURES = {
    "bell",
    "bell_joint",
    "bell_witness",
    "computational_2x2",
    "computational_3x3",
    "domino_basis",
    "omega_basis",
    "s",
    "s_prime",
    "s_prime_witness",
    "s_witness",
    "two_state",
}


# (path into the bell_witness document, malformed value, location the error names)
MALFORMED_NUMBERS = [
    pytest.param(("detectors", "probs", 0), float("nan"), r"detectors\.probs\[0\]", id="nan-prob"),
    pytest.param(("detectors", "probs", 0), True, r"detectors\.probs\[0\]", id="bool-prob"),
    pytest.param(("detectors", "probs", 0), 10**400, r"detectors\.probs\[0\]", id="huge-int-prob"),
    pytest.param(("layout", "A"), True, r"layout\.A", id="bool-dim"),
    pytest.param(
        ("states", 0, "amplitudes", 0), [True, 0.0], r"states\[0\]\.amplitudes\[0\]", id="bool-amp"
    ),
    pytest.param(
        ("states", 0, "amplitudes", 0), [float("nan"), 0.0], r"states\[0\]\.amplitudes\[0\]", id="nan-amp"
    ),
    pytest.param(
        ("states", 0, "amplitudes", 0), [1e308, 0.0], r"states\[0\]: amplitude norm inf", id="huge-amp"
    ),
    # not plain floats, so they take the general test
    pytest.param(
        ("states", 0, "amplitudes", 0), [np.float64("nan"), 0.0], r"states\[0\]\.amplitudes\[0\]", id="numpy-nan-amp"
    ),
    pytest.param(("states", 0, "amplitudes", 1), [0, 10**400], r"states\[0\]\.amplitudes\[1\]", id="huge-int-amp"),
]

# (path into the bell_witness document, a number that is not a plain float, the plain float it parses as):
# numpy floats and fractions come only through the Python API; int pairs alone are
# test_integer_pair_parses_as_float_pair's
WELL_FORMED_NUMBERS = [
    pytest.param(("detectors", "probs", 0), np.float64(0.25), 0.25, id="numpy-prob"),
    pytest.param(
        ("states", 0, "amplitudes", 0), [np.float64(0.5), np.float64(-0.0)], [0.5, -0.0], id="numpy-amp"
    ),
    pytest.param(("detectors", "states", 1, "amplitudes", 2), [0, np.float64(0.5)], [0.0, 0.5], id="mixed-amp"),
    pytest.param(
        ("states", 1, "amplitudes", 3),
        [np.float32(0.1), np.float32(-0.7)],
        [float(np.float32(0.1)), float(np.float32(-0.7))],
        id="float32-amp",
    ),
    pytest.param(("detectors", "probs", 2), np.float32(0.25), 0.25, id="float32-prob"),
    pytest.param(("detectors", "probs", 3), Fraction(1, 4), 0.25, id="fraction-prob"),
]


def bell_witness_with(path, value):
    doc = json.loads(fixture_path("bell_witness").read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def minimal_doc():
    return {
        "layout": {"A": 2, "B": 2},
        "states": [
            {"name": "ket00", "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
        ],
    }


def named(name):
    """minimal_doc with its one state named ``name``."""
    doc = minimal_doc()
    doc["states"][0]["name"] = name
    return doc


def doc_with_detectors(probs, count=1):
    """minimal_doc with ``count`` |00> detectors on C:D and ``probs``, or no probs when None."""
    block = {"layout": {"C": 2, "D": 2}, "states": minimal_doc()["states"] * count}
    if probs is not None:
        block["probs"] = probs
    return {**minimal_doc(), "detectors": block}


# (document, location, message) of each structural error parse_problem reports
PARSER_ERRORS = [
    pytest.param([], "$", "top level must be a JSON object", id="top-level-list"),
    pytest.param(
        {**minimal_doc(), "layout": {}}, "layout", "layout must be a nonempty label-to-dimension map", id="empty-layout"
    ),
    pytest.param(
        {**minimal_doc(), "layout": [["A", 2], ["B", 2]]},
        "layout",
        "layout must be a nonempty label-to-dimension map",
        id="list-layout",
    ),
    pytest.param({**minimal_doc(), "states": []}, "states", "states must be a nonempty list", id="no-states"),
    pytest.param(
        {**minimal_doc(), "states": [{"name": "ket00"}]},
        "states[0]",
        "each state needs an 'amplitudes' field",
        id="no-amplitudes",
    ),
    pytest.param(
        {**minimal_doc(), "description": 5}, "description", "description must be a string", id="description-not-string"
    ),
    pytest.param({**minimal_doc(), "expect": 5}, "expect", "expect must be an object", id="number-expect"),
    pytest.param({**minimal_doc(), "expect": ["certified"]}, "expect", "expect must be an object", id="list-expect"),
    pytest.param({**minimal_doc(), "expect": None}, "expect", "expect must be an object", id="null-expect"),
    pytest.param(named(None), "states[0].name", "name must be a string", id="null-name"),
    pytest.param(named({"x": 1}), "states[0].name", "name must be a string", id="object-name"),
    pytest.param(
        {**minimal_doc(), "detectors": {**doc_with_detectors([1.0])["detectors"], "states": named(7)["states"]}},
        "detectors.states[0].name",
        "name must be a string",
        id="number-detector-name",
    ),
    pytest.param({**minimal_doc(), "detectors": []}, "detectors", "detectors must be an object", id="list-detectors"),
    pytest.param(doc_with_detectors(None), "detectors.probs", "required field is missing", id="no-probs"),
    pytest.param(doc_with_detectors(0.5), "detectors.probs", "probs must be a list of numbers", id="probs-not-list"),
    pytest.param(
        doc_with_detectors([0.5, 0.5]), "detectors.probs", "2 probabilities for 1 detectors", id="count-mismatch"
    ),
    pytest.param(
        doc_with_detectors([1.5, -0.5], count=2), "detectors.probs", "negative probability -0.5", id="negative-prob"
    ),
]


class TestParsing:
    @pytest.mark.parametrize("doc, where, message", PARSER_ERRORS)
    def test_structural_error_names_its_location(self, doc, where, message):
        with pytest.raises(ProblemFileError) as exc:
            parse_problem(json.loads(json.dumps(doc)), source="f.json")
        assert str(exc.value) == f"f.json: {where}: {message}"

    def test_directory_is_unreadable(self, tmp_path):
        with pytest.raises(OSError) as reading:
            tmp_path.read_text(encoding="utf-8")
        with pytest.raises(ProblemFileError) as exc:
            load_problem(tmp_path)
        assert str(exc.value) == f"{tmp_path}: $: {reading.value}"

    def test_minimal_roundtrip(self):
        parsed = parse_problem(minimal_doc())
        assert parsed.state_names == ["ket00"]
        assert parsed.states[0].layout.labels == ("A", "B")
        assert parsed.detectors is None

    def test_missing_layout(self):
        doc = minimal_doc()
        del doc["layout"]
        with pytest.raises(ProblemFileError, match="layout"):
            parse_problem(doc)

    def test_wrong_amplitude_count(self):
        doc = minimal_doc()
        doc["states"][0]["amplitudes"] = [[1.0, 0.0]]
        with pytest.raises(ProblemFileError, match=r"states\[0\]"):
            parse_problem(doc)

    def test_amplitude_must_be_pair(self):
        doc = minimal_doc()
        doc["states"][0]["amplitudes"][0] = [1.0]
        with pytest.raises(ProblemFileError, match=r"amplitudes\[0\]"):
            parse_problem(doc)

    def test_bad_probability_sum_rejected(self):
        doc = json.loads(fixture_path("bell_witness").read_text())
        doc["detectors"]["probs"] = [0.5, 0.5, 0.5, 0.5]
        with pytest.raises(ProblemFileError, match="probs"):
            parse_problem(doc)

    @pytest.mark.parametrize("path, value, where", MALFORMED_NUMBERS)
    def test_malformed_number_rejected(self, path, value, where):
        with pytest.raises(ProblemFileError, match=where):
            parse_problem(bell_witness_with(path, value))

    @pytest.mark.parametrize("path, value, plain", WELL_FORMED_NUMBERS)
    def test_other_numbers_parse_as_their_floats(self, path, value, plain):
        # the plain-float test comes first; numpy floats, fractions and ints take the general one
        got, want = parse_problem(bell_witness_with(path, value)), parse_problem(bell_witness_with(path, plain))
        for a, b in zip(got.states + got.detectors, want.states + want.detectors):
            assert a.amplitudes.tobytes() == b.amplitudes.tobytes() and a.input_norm == b.input_norm
        assert got.probs == want.probs and got.notes == want.notes

    def test_integer_pair_parses_as_float_pair(self):
        ints = minimal_doc()
        ints["states"][0]["amplitudes"] = [[1, 0], [0, 0], [0, 0], [0, 0]]
        a, b = parse_problem(ints).states[0], parse_problem(minimal_doc()).states[0]
        assert a.amplitudes.tobytes() == b.amplitudes.tobytes() and a.input_norm == b.input_norm

    @pytest.mark.parametrize(
        "pair, shown",
        [
            ([10**400, 0.0], "[1" + "0" * 400 + ", 0.0]"),
            ([0.0, False], "[0.0, False]"),
            ([0.0, float("nan")], "[0.0, nan]"),
            ((0.0, 0.0), "(0.0, 0.0)"),  # a tuple can only come from Python, and is not a JSON pair
        ],
    )
    def test_bad_pair_rejected_at_its_index(self, pair, shown):
        doc = minimal_doc()
        doc["states"][0]["amplitudes"][2] = pair
        with pytest.raises(ProblemFileError) as exc:
            parse_problem(doc)
        assert str(exc.value) == (
            f"<memory>: states[0].amplitudes[2]: amplitudes must be finite [re, im] pairs, got {shown}"
        )

    def test_probs_renormalized_within_file_tolerance(self):
        doc = json.loads(fixture_path("bell_witness").read_text())
        doc["detectors"]["probs"] = [0.25 + 2e-9, 0.25, 0.25, 0.25]
        parsed = parse_problem(doc)
        assert sum(parsed.probs) == pytest.approx(1.0, abs=1e-15)
        assert any("renormalized" in n for n in parsed.notes)

    def test_json_error_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"layout": {"A": 2,\n  ???')
        with pytest.raises(ProblemFileError, match="line 2"):
            load_problem(bad)

    def test_options_key_ignored(self):
        # like any key the parser does not use; a non-object once crashed it
        parsed = parse_problem({**minimal_doc(), "options": 5})
        assert parsed.state_names == ["ket00"]

    def test_unnormalized_amplitudes_flagged(self):
        doc = minimal_doc()
        doc["states"][0]["amplitudes"] = [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        parsed = parse_problem(doc)
        assert any("input norm" in w for w in parsed.normalization_warnings())


# numbers a file may hold: floats, ints, -0.0, subnormals, and magnitudes whose squares overflow
NUMBERS = st.one_of(
    st.floats(-2.0, 2.0),
    st.integers(-3, 3),
    st.just(-0.0),
    st.sampled_from([5e-324, -5e-324, 2.2e-308, -1e-310]),
    st.floats(1e199, 1e201) | st.floats(-1e201, -1e199),
)


@st.composite
def states_docs(draw):
    """A document of one to three states on a layout of up to 3 x 3, amplitudes drawn from NUMBERS."""
    da, db = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pair = st.lists(NUMBERS, min_size=2, max_size=2)
    rows = draw(st.lists(st.lists(pair, min_size=da * db, max_size=da * db), min_size=1, max_size=3))
    return {"layout": {"A": da, "B": db}, "states": [{"amplitudes": row} for row in rows]}


class TestParsedBytes:
    @settings(max_examples=200, deadline=None)
    @given(states_docs())
    @example(
        {
            "layout": {"A": 1, "B": 2},
            "states": [{"amplitudes": [[0.5, 0.0], [1, 0]]}, {"amplitudes": [[1e200, 0.0], [0.0, 0.0]]}],
        }
    )
    def test_parse_matches_the_constructor(self, doc):
        # each state's bytes and input norm are those of PureState on the complex pairs; the first
        # state the constructor refuses is refused at its index with the constructor's message
        layout = SubsystemLayout(tuple(doc["layout"].items()))
        expected = []
        for i, entry in enumerate(doc["states"]):
            try:
                expected.append(PureState(layout, [complex(re, im) for re, im in entry["amplitudes"]]))
            except ValueError as exc:
                with pytest.raises(ProblemFileError) as refused:
                    parse_problem(doc)
                assert str(refused.value) == f"<memory>: states[{i}]: {exc}"
                return
        parsed = parse_problem(doc)
        for got, want in zip(parsed.states, expected, strict=True):
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes() and got.input_norm == want.input_norm

    def test_overflowing_norm_is_refused_at_its_state(self):
        doc = minimal_doc()
        doc["states"].append({"name": "big", "amplitudes": [[1e200, 0.0], [1e200, 0.0], [0.0, 0.0], [0.0, 0.0]]})
        with pytest.raises(ProblemFileError) as exc:
            parse_problem(doc)
        assert str(exc.value) == "<memory>: states[1]: amplitude norm inf is not finite"

    def test_first_error_in_file_order_is_reported(self):
        # a state that cannot be normalized is reported before a later state's malformed entry
        doc = minimal_doc()
        doc["states"][0]["amplitudes"] = [[0.0, 0.0]] * 4
        doc["states"].append({"name": 5, "amplitudes": []})
        with pytest.raises(ProblemFileError) as exc:
            parse_problem(doc)
        assert str(exc.value) == "<memory>: states[0]: cannot normalize a zero state"


class TestLayoutInterning:
    def test_same_layout_parses_to_one_object(self):
        first, second = (parse_problem(doc_with_detectors([1.0])) for _ in range(2))
        assert first.states[0].layout is second.states[0].layout
        assert first.detectors[0].layout is second.detectors[0].layout
        assert first.states[0].layout == SubsystemLayout.of(A=2, B=2)

    def test_part_order_keeps_layouts_apart(self):
        ab = parse_problem({"layout": {"A": 2, "B": 3}, "states": [{"amplitudes": [[1.0, 0.0]] * 6}]})
        ba = parse_problem({"layout": {"B": 3, "A": 2}, "states": [{"amplitudes": [[1.0, 0.0]] * 6}]})
        assert ab.states[0].layout.parts == (("A", 2), ("B", 3))
        assert ba.states[0].layout.parts == (("B", 3), ("A", 2))
        assert ab.states[0].layout != ba.states[0].layout

    def test_invalid_layout_is_refused_every_time(self):
        doc = {**minimal_doc(), "layout": {"A:1": 2, "B": 2}}
        messages = []
        for _ in range(2):
            with pytest.raises(ProblemFileError) as exc:
                parse_problem(doc)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == (
            "<memory>: layout: part label 'A:1' holds ',' or ':', which separate labels in a cut"
        )
        assert not any(label == "A:1" for parts in states_module._LAYOUTS for label, _ in parts)

    def test_memo_stops_growing_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(states_module, "_LAYOUTS_KEPT", len(states_module._LAYOUTS))
        doc = {"layout": {"Unkept": 1}, "states": [{"amplitudes": [[1.0, 0.0]]}]}
        first, second = (parse_problem(doc).states[0].layout for _ in range(2))
        assert first == second and first is not second
        assert (("Unkept", 1),) not in states_module._LAYOUTS


class TestProblemRoundTrip:
    def test_witness_problem_survives_serialization(self, tmp_path):
        problem = WitnessProblem(
            tuple(set_s_prime()), tuple(bell_states(("C", "D"))[:3]), (0.16, 0.16, 0.68)
        )
        doc = problem_to_dict(problem)
        path = tmp_path / "p.json"
        write_report(path, doc)
        parsed = load_problem(path)
        rebuilt = parsed.witness_problem()
        for a, b in zip(problem.states, rebuilt.states):
            assert np.array_equal(a.amplitudes, b.amplitudes)
        for a, b in zip(problem.detectors, rebuilt.detectors):
            assert np.array_equal(a.amplitudes, b.amplitudes)
        assert rebuilt.probs == problem.probs
        assert check_witness(rebuilt).margin == check_witness(problem).margin

    def test_states_doc_roundtrip(self, tmp_path):
        doc = {"description": "test doc", **states_to_dict(bell_states(), ["b1", "b2", "b3", "b4"])}
        path = tmp_path / "states.json"
        write_report(path, doc)
        parsed = load_problem(path)
        assert parsed.description == "test doc"
        for orig, back in zip(bell_states(), parsed.states):
            assert np.array_equal(orig.amplitudes, back.amplitudes)


class TestReportFiles:
    def test_report_roundtrip(self, tmp_path):
        problem = WitnessProblem(
            tuple(bell_states()), tuple(bell_states(("C", "D"))), (0.25,) * 4
        )
        report = check_witness(problem)
        doc = {"tool": "locc-witness", "version": "0.1.0", **witness_report_to_dict(report)}
        path = tmp_path / "report.json"
        write_report(path, doc)
        back = json.loads(path.read_text())
        assert back["verdict"] == report.verdict
        assert back["margin"] == report.margin
        assert back["partial_sums"]["source"] == list(report.source_partial_sums)


class TestFixtures:
    def test_expected_fixtures_present(self):
        assert EXPECTED_FIXTURES <= set(list_fixtures())

    def test_all_fixtures_parse(self):
        for name in list_fixtures():
            parsed = load_problem(fixture_path(name))
            assert parsed.states

    def test_resolve_input_prefers_paths(self, tmp_path):
        path = tmp_path / "bell.json"
        write_report(path, minimal_doc())
        assert resolve_input(str(path)) == path
        assert resolve_input("bell") == fixture_path("bell")

    def test_resolve_unknown(self):
        with pytest.raises(ProblemFileError):
            resolve_input("no_such_thing")
