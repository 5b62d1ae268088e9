"""Problem and report files: JSON with [re, im] amplitude pairs.

Complex numbers are serialized as pairs of decimal reals (never polar
form), layouts as ordered label-to-dimension maps, so files round-trip
losslessly through the parser.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .majorization import _PROB_FILE_TOL, _RENORM_TOL, _is_integer_at_least, _is_real
from .states import PureState, SubsystemLayout, _interned_layout, _norm_notes
from .witness import WitnessProblem, WitnessReport


class ProblemFileError(ValueError):
    """Parse or validation failure, annotated with its source location."""

    def __init__(self, source: str, where: str, message: str) -> None:
        self.source = source
        self.where = where
        super().__init__(f"{source}: {where}: {message}")


@dataclass
class ParsedProblem:
    """A problem file after parsing: states plus optional detector block."""

    source: str
    states: list[PureState]
    state_names: list[str]
    detectors: list[PureState] | None = None
    detector_names: list[str] | None = None
    probs: list[float] | None = None
    description: str | None = None
    expect: dict | None = None
    notes: list[str] = field(default_factory=list)

    def witness_problem(self) -> WitnessProblem:
        if self.detectors is None or self.probs is None:
            raise ProblemFileError(self.source, "detectors", "detectors block is required")
        return WitnessProblem(tuple(self.states), tuple(self.detectors), tuple(self.probs))

    def normalization_warnings(self) -> list[str]:
        out = _norm_notes("state", self.state_names, self.states)
        if self.detectors:
            out += _norm_notes("detector", self.detector_names, self.detectors)
        return out


def _parse_layout(doc, source: str, where: str) -> SubsystemLayout:
    if not isinstance(doc, dict) or not doc:
        raise ProblemFileError(source, where, "layout must be a nonempty label-to-dimension map")
    parts = []
    for label, dim in doc.items():
        if not _is_integer_at_least(dim, 1):
            raise ProblemFileError(source, f"{where}.{label}", f"dimension must be a positive integer, got {dim!r}")
        parts.append((str(label), dim))
    try:
        return _interned_layout(tuple(parts))
    except ValueError as exc:
        raise ProblemFileError(source, where, str(exc)) from exc


def _parse_states(doc, layout: SubsystemLayout, source: str, where: str):
    if not isinstance(doc, list) or not doc:
        raise ProblemFileError(source, where, "states must be a nonempty list")
    states = []
    rows = (_parse_amplitudes(entry, layout, source, f"{where}[{i}]") for i, entry in enumerate(doc))
    try:
        PureState._extend(states, layout, rows)
    except ProblemFileError:
        raise
    except ValueError as exc:  # the state after the last one made cannot be normalized
        raise ProblemFileError(source, f"{where}[{len(states)}]", str(exc)) from exc
    # every entry passed _parse_amplitudes, which checks its name
    return states, [entry.get("name", f"state{i}") for i, entry in enumerate(doc)]


def _parse_amplitudes(entry, layout: SubsystemLayout, source: str, loc: str) -> list[complex]:
    """The amplitudes of the state entry at ``loc``, once its name and amplitude pairs pass their checks."""
    if not isinstance(entry, dict) or "amplitudes" not in entry:
        raise ProblemFileError(source, loc, "each state needs an 'amplitudes' field")
    if not isinstance(entry.get("name", ""), str):
        raise ProblemFileError(source, f"{loc}.name", "name must be a string")
    raw = entry["amplitudes"]
    if not isinstance(raw, list) or len(raw) != layout.dim:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ProblemFileError(
            source, f"{loc}.amplitudes", f"expected {layout.dim} amplitudes for layout {layout}, got {got}"
        )
    amps = []
    for j, pair in enumerate(raw):
        if isinstance(pair, list) and len(pair) == 2:
            re, im = pair
            if _is_real(re) and _is_real(im):
                amps.append(complex(re, im))
                continue
        raise ProblemFileError(
            source, f"{loc}.amplitudes[{j}]", f"amplitudes must be finite [re, im] pairs, got {pair!r}"
        )
    return amps


def parse_problem(doc: dict, source: str = "<memory>") -> ParsedProblem:
    if not isinstance(doc, dict):
        raise ProblemFileError(source, "$", "top level must be a JSON object")
    for key in ("layout", "states"):
        if key not in doc:
            raise ProblemFileError(source, key, "required field is missing")
    layout = _parse_layout(doc["layout"], source, "layout")
    states, names = _parse_states(doc["states"], layout, source, "states")
    if not isinstance(doc.get("description", ""), str):
        raise ProblemFileError(source, "description", "description must be a string")
    if not isinstance(doc.get("expect", {}), dict):
        raise ProblemFileError(source, "expect", "expect must be an object")
    parsed = ParsedProblem(
        source=source,
        states=states,
        state_names=names,
        description=doc.get("description"),
        expect=doc.get("expect"),
    )

    if "detectors" in doc:
        block = doc["detectors"]
        if not isinstance(block, dict):
            raise ProblemFileError(source, "detectors", "detectors must be an object")
        for key in ("layout", "states", "probs"):
            if key not in block:
                raise ProblemFileError(source, f"detectors.{key}", "required field is missing")
        det_layout = _parse_layout(block["layout"], source, "detectors.layout")
        dets, det_names = _parse_states(block["states"], det_layout, source, "detectors.states")
        probs = block["probs"]
        if not isinstance(probs, list):
            raise ProblemFileError(source, "detectors.probs", "probs must be a list of numbers")
        for i, p in enumerate(probs):
            if not _is_real(p):
                raise ProblemFileError(source, f"detectors.probs[{i}]", f"not a finite number: {p!r}")
        if len(probs) != len(dets):
            raise ProblemFileError(
                source, "detectors.probs", f"{len(probs)} probabilities for {len(dets)} detectors"
            )
        probs = [float(p) for p in probs]
        if min(probs, default=0.0) < 0:
            raise ProblemFileError(source, "detectors.probs", f"negative probability {min(probs)!r}")
        total = sum(probs)
        if abs(total - 1.0) > _PROB_FILE_TOL:
            raise ProblemFileError(
                source, "detectors.probs", f"probabilities sum to {total!r}, expected 1 within {_PROB_FILE_TOL}"
            )
        if abs(total - 1.0) > _RENORM_TOL:
            probs = [p / total for p in probs]
            parsed.notes.append(f"probabilities renormalized from sum {total!r}")
        parsed.detectors = dets
        parsed.detector_names = det_names
        parsed.probs = probs

    return parsed


def _read_json(path: Path):
    """The JSON document in a file; ProblemFileError if it cannot be read or parsed."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ProblemFileError(str(path), "$", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(str(path), f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc


def load_problem(path) -> ParsedProblem:
    path = Path(path)
    return parse_problem(_read_json(path), source=str(path))


def _amplitudes_to_json(state: PureState) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in state.amplitudes]


def _layout_to_json(layout: SubsystemLayout) -> dict:
    return {label: dim for label, dim in layout.parts}


def problem_to_dict(problem: WitnessProblem, state_names=None) -> dict:
    detector_names = [f"detector{i}" for i in range(len(problem.detectors))]
    return {
        **states_to_dict(problem.states, state_names),
        "detectors": {
            **states_to_dict(problem.detectors, detector_names),
            "probs": [float(p) for p in problem.probs],
        },
    }


def states_to_dict(states, names=None) -> dict:
    states = list(states)
    names = names or [f"state{i}" for i in range(len(states))]
    return {
        "layout": _layout_to_json(states[0].layout),
        "states": [
            {"name": n, "amplitudes": _amplitudes_to_json(s)} for n, s in zip(names, states)
        ],
    }


def witness_report_to_dict(report: WitnessReport) -> dict:
    return {
        "verdict": report.verdict,
        "margin": report.margin,
        "tol": report.tol,
        "source_schmidt": report.source_schmidt.entries.tolist(),
        "target_average": report.target_average.entries.tolist(),
        "partial_sums": {
            "source": list(report.source_partial_sums),
            "average": list(report.average_partial_sums),
        },
        "warnings": list(report.warnings),
    }


def write_report(path, doc: dict) -> None:
    """Write a JSON document; ProblemFileError if the file cannot be written."""
    try:
        Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ProblemFileError(str(path), "$", str(exc)) from exc


def fixture_dir() -> Path:
    return Path(resources.files("locc_witness") / "fixtures")


def list_fixtures() -> list[str]:
    return sorted(p.stem for p in fixture_dir().glob("*.json"))


def fixture_path(name: str) -> Path:
    stem = name[:-5] if name.endswith(".json") else name
    path = fixture_dir() / f"{stem}.json"
    if not path.exists():
        raise ProblemFileError(name, "$", f"unknown fixture; available: {', '.join(list_fixtures())}")
    return path


def resolve_input(text: str) -> Path:
    """Interpret a CLI input as a filesystem path, else a bundled fixture name."""
    path = Path(text)
    if path.exists():
        return path
    try:
        return fixture_path(text)
    except ProblemFileError:
        raise ProblemFileError(text, "$", "no such file and no bundled fixture with this name") from None
