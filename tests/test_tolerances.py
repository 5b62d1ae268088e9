"""Every tolerance is checked once and named once.

Each public name with a ``tol`` parameter rejects a tolerance that is not
a finite and positive real number other than a bool (the plain majorization
comparisons also take 0), and every tolerance literal of the package lives
in ``majorization.py``.
"""

import dataclasses
import inspect
import json
import tokenize
from pathlib import Path

import numpy as np
import pytest

import locc_witness
from locc_witness.catalog import bell_states, computational_basis, omega_basis, set_s
from locc_witness.io import witness_report_to_dict
from locc_witness.majorization import SchmidtEnsemble, SchmidtVector, check_ensemble_conversion
from locc_witness.search import SearchConfig
from locc_witness.states import Bipartition, SubsystemLayout
from locc_witness.witness import WitnessProblem, check_witness, classify_full_basis

# A valid call of each public name that takes ``tol``, without the tolerance.
VALID_ARGS = {
    "SearchConfig": lambda: (),
    "check_ensemble_conversion": lambda: (
        SchmidtVector([0.5, 0.5]),
        SchmidtEnsemble([(1.0, SchmidtVector([1.0]))]),
    ),
    "check_witness": lambda: (
        WitnessProblem(tuple(bell_states()), tuple(bell_states(("C", "D"))), (0.25,) * 4),
    ),
    "classify_full_basis": lambda: (bell_states(),),
    "is_product": lambda: (bell_states()[0], Bipartition(("A",), ("B",))),
    "locc_convertible": lambda: (SchmidtVector([0.5, 0.5]), SchmidtVector([1.0])),
    "majorizes": lambda: (SchmidtVector([1.0]), SchmidtVector([0.5, 0.5])),
    "multipartite_product_check": lambda: (computational_basis(SubsystemLayout.of(A=2, B=2, C=2)),),
    "validate_state_set": lambda: (bell_states(),),
    "verify_one_way_protocol": lambda: (set_s(), omega_basis("A")),
}
# Comparisons, not certificates: an exact 0 is a meaningful tolerance there.
ZERO_ALLOWED = {"majorizes", "locc_convertible", "check_ensemble_conversion"}
# Results that record the tolerance they were computed at.
RECORDS = {"WitnessReport"}


def test_table_lists_every_public_name_with_tol():
    takes_tol = {
        name
        for name in locc_witness.__all__
        if callable(fn := getattr(locc_witness, name)) and "tol" in inspect.signature(fn).parameters
    }
    assert takes_tol - RECORDS == set(VALID_ARGS)


@pytest.mark.parametrize("name", sorted(VALID_ARGS))
@pytest.mark.parametrize(
    "tol",
    [float("nan"), -1.0, float("inf"), 0.0, 1e-16, True, "1e-9", None, 1j, 10**400],
    ids=["nan", "negative", "inf", "zero", "below_floor", "bool", "str", "none", "complex", "int_beyond_float"],
)
def test_bad_tol_rejected(name, tol):
    fn = getattr(locc_witness, name)
    args = VALID_ARGS[name]()
    fn(*args)  # the table's arguments are valid at the default tolerance
    if tol in (0.0, 1e-16) and name in ZERO_ALLOWED:
        fn(*args, tol=tol)
        return
    with pytest.raises(ValueError, match="tol must be a (positive|nonnegative) finite number"):
        fn(*args, tol=tol)


def test_numpy_float_tol_is_kept_as_a_float():
    # a kept np.float32 made json.dumps(dataclasses.asdict(cfg)) raise TypeError
    cfg = SearchConfig(tol=np.float32(1e-6))
    assert type(cfg.tol) is float and cfg.tol == float(np.float32(1e-6))
    assert json.loads(json.dumps(dataclasses.asdict(cfg)))["tol"] == cfg.tol


def test_report_at_a_numpy_float_tol_writes_as_json():
    # a report kept the np.float32 it was given, so writing it raised TypeError
    report = check_witness(*VALID_ARGS["check_witness"](), np.float32(1e-6))
    assert type(report.tol) is float
    assert json.loads(json.dumps(witness_report_to_dict(report)))["tol"] == report.tol
    assert type(classify_full_basis(bell_states(), np.float32(1e-6)).witness.tol) is float
    # a comparison against a numpy tol gave a numpy bool
    assert type(check_ensemble_conversion(*VALID_ARGS["check_ensemble_conversion"](), np.float32(0.0)).allowed) is bool


def _exponent_literals(path: Path):
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            text = tok.string.lower()
            if tok.type == tokenize.NUMBER and not text.startswith("0x") and "e" in text:
                yield f"{path.name}:{tok.start[0]}: {tok.string}"


def test_tolerance_literals_live_in_majorization():
    # tokenizing skips docstrings and comments, which may quote a value
    package = Path(locc_witness.__file__).parent
    found = [
        hit
        for path in sorted(package.glob("*.py"))
        if path.name != "majorization.py"
        for hit in _exponent_literals(path)
    ]
    assert found == []
