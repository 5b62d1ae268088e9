"""Integer and real inputs are checked by one rule each, and the two-part layout check is written once.

Each public entry that takes an integer rejects a float, a bool or a
numeric string with ValueError, naming the value, instead of truncating
or coercing it. Each entry that takes a real number rejects a bool, a
string, None, a complex number, NaN and an integer beyond the float
range the same way, and accepts any other finite real, such as a numpy
float32 or a Fraction. ``majorization._is_integer_at_least`` is the only
code that names ``numbers.Integral``, ``majorization._is_real`` the only
one that names ``numbers.Real`` or ``sys.float_info``, and
``states._require_two_parts`` holds the only "needs a two-part layout"
message.
"""

import re
import tokenize
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import locc_witness
from locc_witness.catalog import computational_basis, maximally_entangled
from locc_witness.io import parse_problem
from locc_witness.majorization import SchmidtEnsemble, SchmidtVector, majorizes
from locc_witness.search import SearchConfig
from locc_witness.states import SubsystemLayout, basis_state, random_orthonormal_basis
from locc_witness.witness import WitnessProblem


def _problem_file(dim):
    # six amplitudes fit the valid layout A:3 x B:2; a bad dimension is rejected before they are read
    return {"layout": {"A": dim, "B": 2}, "states": [{"amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 5}]}


# A call of each public entry with the integer under test; 3 is a valid value for every one.
TAKES_INTEGER = {
    "layout dimension": lambda v: SubsystemLayout((("A", v), ("B", 2))),
    "SubsystemLayout.of": lambda v: SubsystemLayout.of(A=v, B=2),
    "basis_state index": lambda v: basis_state(SubsystemLayout.of(A=4, B=2), (v, 0)),
    "maximally_entangled dim": maximally_entangled,
    "SearchConfig.detector_dims": lambda v: SearchConfig(detector_dims=(v, 3)),
    "SearchConfig.restarts": lambda v: SearchConfig(restarts=v),
    "SearchConfig.max_iters": lambda v: SearchConfig(max_iters=v),
    "SearchConfig.seed": lambda v: SearchConfig(seed=v),
    "problem-file layout": lambda v: parse_problem(_problem_file(v)),
    "random_orthonormal_basis seed": lambda v: random_orthonormal_basis(SubsystemLayout.of(A=2, B=2), v),
}


@pytest.mark.parametrize("entry", sorted(TAKES_INTEGER))
@pytest.mark.parametrize("value", [2.5, True, "3"], ids=["float", "bool", "string"])
def test_non_integer_rejected(entry, value):
    call = TAKES_INTEGER[entry]
    call(3)  # the table's valid value is accepted
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        call(value)


@pytest.mark.parametrize("seed", [None, -1])
def test_seed_must_be_given_and_nonnegative(seed):
    # None would draw fresh entropy, so two calls would return different bases
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
        random_orthonormal_basis(SubsystemLayout.of(A=2, B=2), seed)


def test_numpy_integers_accepted():
    layout = SubsystemLayout.of(A=np.int64(3), B=2)
    assert layout.parts == (("A", 3), ("B", 2)) and type(layout.dims[0]) is int
    assert basis_state(layout, (np.int64(2), 1)).amplitudes[5] == 1


def _real_problem_file(amplitude=1.0, prob=0.25):
    # one state on A:2 and two detectors on C:2, with probabilities [prob, 0.75]
    ket = {"amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
    detectors = {"layout": {"C": 2}, "states": [ket, ket], "probs": [prob, 0.75]}
    return {"layout": {"A": 2}, "states": [{"amplitudes": [[amplitude, 0.0], [0.0, 0.0]]}], "detectors": detectors}


def _witness_problem(prob):
    states = computational_basis(SubsystemLayout.of(A=2, B=1))
    return WitnessProblem(tuple(states), tuple(computational_basis(SubsystemLayout.of(C=2, D=1))), (prob, 0.75))


# A call of each public entry with the real number under test; 0.25 is a valid value for every one.
TAKES_REAL = {
    "tol": lambda v: majorizes(SchmidtVector([1.0]), SchmidtVector([1.0]), v),
    "WitnessProblem probabilities": _witness_problem,
    "SchmidtEnsemble probabilities": lambda v: SchmidtEnsemble([(v, SchmidtVector([1.0])), (0.75, SchmidtVector([1]))]),
    "SchmidtVector entries": lambda v: SchmidtVector([v, 0.75]),
    "problem-file amplitudes": lambda v: parse_problem(_real_problem_file(amplitude=v)),
    "problem-file probabilities": lambda v: parse_problem(_real_problem_file(prob=v)),
}


@pytest.mark.parametrize("entry", sorted(TAKES_REAL))
@pytest.mark.parametrize(
    "value",
    [True, "0.25", None, 0.25 + 0j, float("nan"), 10**400],
    ids=["bool", "string", "none", "complex", "nan", "huge-int"],
)
def test_non_real_rejected(entry, value):
    call = TAKES_REAL[entry]
    call(0.25)  # the table's valid value is accepted
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        call(value)


@pytest.mark.parametrize("entry", sorted(TAKES_REAL))
@pytest.mark.parametrize("value", [np.float32(0.25), Fraction(1, 4)], ids=["float32", "fraction"])
def test_other_reals_accepted(entry, value):
    TAKES_REAL[entry](value)


def _holders(snippet: str) -> list[str]:
    """The package modules whose code, without its comments, holds ``snippet``.

    Tokens are joined with nothing between them, so ``numbers.Integral``
    is found however it is spaced, and string contents keep their spaces.
    """
    package = Path(locc_witness.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        with path.open("rb") as f:
            code = "".join(tok.string for tok in tokenize.tokenize(f.readline) if tok.type != tokenize.COMMENT)
        if snippet in code:
            found.append(path.name)
    return found


def test_integer_rule_lives_in_majorization():
    assert _holders("numbers.Integral") == ["majorization.py"]


def test_real_rule_lives_in_majorization():
    assert _holders("numbers.Real") == ["majorization.py"]
    assert _holders("float_info") == ["majorization.py"]


def test_two_part_message_lives_in_states():
    assert _holders("needs a two-part layout") == ["states.py"]
