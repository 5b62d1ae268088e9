import tokenize
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locc_witness
from locc_witness.majorization import (
    SchmidtEnsemble,
    SchmidtVector,
    check_ensemble_conversion,
    ensemble_average,
    locc_convertible,
    majorizes,
)


def vec(*entries):
    return SchmidtVector(entries)


def schmidt_vectors(max_len=6):
    return (
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=max_len)
        .map(lambda ws: SchmidtVector(np.array(ws) / np.sum(ws)))
    )


class TestSchmidtVector:
    def test_sorts_descending(self):
        v = vec(0.2, 0.5, 0.3)
        assert list(v.entries) == [0.5, 0.3, 0.2]

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SchmidtVector([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SchmidtVector([1.1, -0.1])

    def test_clips_float_dust(self):
        v = SchmidtVector([1.0 + 1e-13, -1e-13])
        assert v.entries[-1] == 0.0

    def test_padding(self):
        assert list(vec(1.0).padded(3)) == [1.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            vec(0.5, 0.5).padded(1)


class TestMajorizes:
    def test_extremal_dominates(self):
        assert majorizes(vec(1, 0), vec(0.5, 0.5))

    def test_uniform_is_dominated(self):
        assert not majorizes(vec(0.5, 0.5), vec(1, 0))

    def test_incomparable_pair(self):
        # partial sums 0.7, 0.9 versus 0.6, 1.0
        x = vec(0.7, 0.2, 0.1)
        y = vec(0.6, 0.4, 0)
        assert not majorizes(x, y)
        assert not majorizes(y, x)

    @given(schmidt_vectors())
    def test_reflexive(self, x):
        assert majorizes(x, x)

    @given(schmidt_vectors(), schmidt_vectors())
    def test_extremal_and_padding(self, x, y):
        top = vec(*([1.0] + [0.0] * (len(x) - 1)))
        assert majorizes(top, x)
        padded = SchmidtVector(x.padded(len(x) + 3))
        assert majorizes(x, padded) and majorizes(padded, x)
        assert majorizes(x, y) == majorizes(padded, y)

    @settings(max_examples=200)
    @given(schmidt_vectors(), schmidt_vectors(), schmidt_vectors())
    def test_transitive(self, x, y, z):
        if majorizes(x, y, tol=0.0) and majorizes(y, z, tol=0.0):
            assert majorizes(x, z, tol=1e-12)


class TestEnsembleAverage:
    def test_uniform_bell_mixture(self):
        e = SchmidtEnsemble([(0.25, vec(0.5, 0.5))] * 4)
        assert np.allclose(ensemble_average(e).entries, [0.5, 0.5])

    def test_mixed_lengths(self):
        e = SchmidtEnsemble([(0.7, vec(1, 0, 0)), (0.3, vec(0.5, 0.5))])
        assert np.allclose(ensemble_average(e).entries, [0.85, 0.15, 0.0])

    def test_single_item_identity(self):
        v = vec(0.6, 0.4)
        e = SchmidtEnsemble([(1.0, v)])
        assert ensemble_average(e) == v

    @settings(max_examples=200)
    @given(
        st.lists(st.tuples(st.floats(min_value=1e-6, max_value=1.0), schmidt_vectors()), min_size=2, max_size=12)
        .filter(lambda items: len({len(v) for _, v in items}) > 1)
    )
    def test_bytes_match_the_loop_oracle(self, items):
        weights = np.array([w for w, _ in items])
        e = SchmidtEnsemble(zip(weights / weights.sum(), (v for _, v in items)))
        assert ensemble_average(e).entries.tobytes() == oracles.ensemble_average(e).entries.tobytes()

    def test_single_column_within_rounding_of_the_loop_oracle(self):
        # numpy sums a single column of eight or more rows pairwise, the loop in turn
        probs = np.random.default_rng(6).random(12)  # a draw on which the two orders differ by one ulp
        e = SchmidtEnsemble(zip(probs / probs.sum(), [vec(1.0)] * 12))
        got, expected = ensemble_average(e).entries, oracles.ensemble_average(e).entries
        assert abs(got[0] - expected[0]) <= 12 * np.finfo(float).eps


class TestEnsembleConversion:
    def test_bell_targets_forbidden_from_product_source(self):
        source = vec(1, 0, 0, 0)
        targets = SchmidtEnsemble([(0.25, vec(0.5, 0.5))] * 4)
        check = check_ensemble_conversion(source, targets)
        assert not check.allowed
        assert check.margin == pytest.approx(0.5, abs=1e-12)

    def test_identity_transition(self):
        v = vec(0.5, 0.5)
        check = check_ensemble_conversion(v, SchmidtEnsemble([(1.0, v)]))
        assert check.allowed

    def test_partial_sum_arithmetic(self):
        source = vec(0.5, 0.3, 0.2)
        targets = SchmidtEnsemble([(0.7, vec(1, 0, 0)), (0.3, vec(0.5, 0.5, 0))])
        check = check_ensemble_conversion(source, targets)
        assert check.allowed
        assert check.average_partial_sums == pytest.approx((0.85, 1.0, 1.0))

    def test_trace_lengths_match(self):
        check = check_ensemble_conversion(
            vec(1, 0, 0, 0), SchmidtEnsemble([(1.0, vec(0.5, 0.5))])
        )
        assert len(check.source_partial_sums) == len(check.average_partial_sums) == 4

    @given(schmidt_vectors(), schmidt_vectors())
    def test_margin_consistent_with_verdict(self, source, target):
        check = check_ensemble_conversion(source, SchmidtEnsemble([(1.0, target)]))
        assert check.allowed == (check.margin <= 1e-9)

    @given(schmidt_vectors(), schmidt_vectors())
    def test_single_element_matches_nielsen(self, source, target):
        check = check_ensemble_conversion(source, SchmidtEnsemble([(1.0, target)]))
        assert check.allowed == locc_convertible(source, target)


class TestNielsen:
    def test_entanglement_can_be_destroyed(self):
        assert locc_convertible(vec(0.5, 0.5), vec(1, 0))

    def test_entanglement_cannot_be_created(self):
        assert not locc_convertible(vec(1, 0), vec(0.5, 0.5))

    @given(schmidt_vectors())
    def test_reflexive(self, x):
        assert locc_convertible(x, x)


def test_partial_sums_live_in_majorization():
    # every margin comes from majorization._partial_sums; tokenizing skips docstrings and comments
    package = Path(locc_witness.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        with path.open("rb") as f:
            for tok in tokenize.tokenize(f.readline):
                if tok.type == tokenize.NAME and tok.string in ("cumsum", "accumulate"):
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert found and all(hit.startswith("majorization.py:") for hit in found)
