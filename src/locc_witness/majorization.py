"""Majorization arithmetic and pure-state LOCC conversion criteria.

A bipartite pure state is characterized, up to local unitaries, by its
Schmidt vector: the descending squared Schmidt coefficients. Nielsen's
theorem decides single-target LOCC conversions by majorization, and the
Jonathan-Plenio theorem extends it to ensembles of targets: the source
can be converted into ``{p_i, phi_i}`` exactly when the probability
average of the target Schmidt vectors majorizes the source vector.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

_FLOAT_MAX = sys.float_info.max  # read once, for _is_real's float test

# Every tolerance of the package, named once here. All are absolute.
DEFAULT_TOL = 1e-9  # default ``tol``: a certificate needs margin > tol; orthonormality and product tests
SUM_TOL = 1e-10  # a distribution, or a joint state's squared norm, sums to 1 within this; full-basis product form
# least tol of all checks but the plain comparisons and is_product: the source's and the average's
# sums may each be off 1 by SUM_TOL, so partial sums carry up to 2 * SUM_TOL no smaller margin can beat
_TOL_FLOOR = 2 * SUM_TOL
_NEG_CLIP = 1e-12  # entries down to -_NEG_CLIP are float dust, clipped to 0; probabilities up to it count as 0
NORM_NOTE_THRESHOLD = 1e-6  # an input norm further than this from 1 is reported as renormalized
_ZERO_NORM = 1e-12  # an amplitude vector shorter than this cannot be normalized
_PROB_FILE_TOL = 1e-8  # problem-file probabilities must sum to 1 within this
_RENORM_TOL = 1e-12  # problem-file probabilities further than this from sum 1 are renormalized
_FTOL = 1e-12  # Nelder-Mead stops once its simplex values span less than this
_FREE_NORM_FLOOR = 1e-9  # the search scores 1 a point with a free detector whose amplitudes are shorter than this


def _check_tol(tol, floor: float = _TOL_FLOOR) -> float:
    """``tol`` as a float; ValueError unless it passes _is_real and is at least ``floor``.

    Only a floor of 0, for the plain comparisons, admits 0. Below _TOL_FLOOR
    rounding alone could certify: the source and the average each sum to 1
    only within SUM_TOL, so their partial sums may differ by 2 * SUM_TOL.
    """
    if not (_is_real(tol) and (tol > 0 or (floor == 0 and tol == 0))):
        raise ValueError(f"tol must be a {'positive' if floor else 'nonnegative'} finite number, got {tol!r}")
    if tol < floor:
        raise ValueError(f"tol must be a positive finite number of at least {floor:g}, got {tol!r}")
    return float(tol)  # a caller that keeps tol keeps this float, which JSON can write


def _is_real(value) -> bool:
    """True iff ``value`` is a real number, not a bool, finite as a float; every real input is checked by it."""
    if isinstance(value, float):  # JSON's and numpy's floats skip the numbers.Real test, which costs about 3x more
        return -_FLOAT_MAX <= value <= _FLOAT_MAX
    try:
        return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int, or another real, too large for a float
        return False


def _is_complex(value) -> bool:
    """True iff ``value`` passes _is_real, or is a complex number, such as numpy's, whose two parts do."""
    if _is_real(value):
        return True
    complex_only = isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real)
    return complex_only and _is_real(value.real) and _is_real(value.imag)


def _is_integer_at_least(value, least: int) -> bool:
    """True iff ``value`` is an integer, not a bool, of at least ``least``; every integer input is checked by it."""
    # a plain int skips the numbers.Integral test, which costs several times more and runs on every layout
    return (type(value) is int or not isinstance(value, bool) and isinstance(value, numbers.Integral)) and value >= least


def _distribution(values, noun: str) -> np.ndarray:
    """``values`` as a new float array with dust down to -_NEG_CLIP clipped to 0.

    Raises ValueError, naming them ``noun``, unless each passes _is_real and they sum to 1 within SUM_TOL.
    """
    for v in values:
        if not _is_real(v):
            raise ValueError(f"{noun} must be finite real numbers, got {v!r}")
    arr = np.array(values, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{noun} must not be empty")
    low, total = float(arr.min()), float(arr.sum())
    if not math.isfinite(total):  # finite entries may still overflow their sum
        raise ValueError(f"{noun} must be finite, got sum {total!r}")
    if low < -_NEG_CLIP:
        raise ValueError(f"{noun} must be nonnegative, got {low!r}")
    if low <= 0.0:  # only then is there anything to clip
        np.maximum(arr, 0.0, out=arr)
        total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"{noun} must sum to 1 within {SUM_TOL}, got {total!r}")
    return arr


class SchmidtVector:
    """Descending, nonnegative squared Schmidt coefficients summing to 1.

    Entries are sorted on construction; negative dust down to -_NEG_CLIP
    (typical of eigensolvers) is clipped to zero. This checked constructor
    serves the public majorization API and the tests. Witness reports are
    built from the kernel's rows instead, through :meth:`_trusted`.
    """

    __slots__ = ("entries",)

    def __init__(self, values) -> None:
        arr = _distribution(values, "Schmidt entries")
        arr[::-1].sort()  # descending in place
        arr.setflags(write=False)
        self.entries = arr

    @classmethod
    def _trusted(cls, entries: np.ndarray) -> SchmidtVector:
        # Internal: a float row the witness kernel made, already descending,
        # nonnegative and checked to sum to 1; held as it is, not copied.
        obj = object.__new__(cls)
        entries.setflags(write=False)
        obj.entries = entries
        return obj

    def __len__(self) -> int:
        return self.entries.size

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, SchmidtVector) and np.array_equal(self.entries, other.entries)

    def __repr__(self) -> str:
        body = ", ".join(f"{v:.6g}" for v in self.entries)
        return f"SchmidtVector([{body}])"

    def padded(self, length: int) -> np.ndarray:
        """Entries zero-padded on the right to ``length`` (plain array)."""
        if length < self.entries.size:
            raise ValueError("padding may not truncate")
        out = np.zeros(length)
        out[: self.entries.size] = self.entries
        return out


class SchmidtEnsemble:
    """Probability-weighted collection of Schmidt vectors."""

    __slots__ = ("probs", "vectors")

    def __init__(self, items) -> None:
        items = list(items)
        probs = _distribution([p for p, _ in items], "probabilities")
        vectors = tuple(v for _, v in items)
        for v in vectors:
            if not isinstance(v, SchmidtVector):
                raise TypeError("ensemble items must pair a probability with a SchmidtVector")
        probs.setflags(write=False)
        self.probs = probs
        self.vectors = vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(zip(self.probs, self.vectors))


@dataclass(frozen=True)
class ConversionCheck:
    """Outcome of an ensemble conversion test, with the partial-sum trace."""

    allowed: bool
    margin: float
    average: SchmidtVector
    source_partial_sums: tuple[float, ...]
    average_partial_sums: tuple[float, ...]


def majorizes(x: SchmidtVector, y: SchmidtVector, tol: float = DEFAULT_TOL) -> bool:
    """True iff every descending partial sum of x reaches y's, up to tol.

    Vectors of unequal length are zero-padded to the longer length;
    padding never changes the verdict.
    """
    tol = _check_tol(tol, floor=0.0)
    return _conversion(y, x, tol).allowed


def ensemble_average(ensemble: SchmidtEnsemble) -> SchmidtVector:
    """Componentwise probability average, zero-padded to a common length.

    A convex combination of descending vectors is descending, so the
    result is a valid SchmidtVector.
    """
    n = max(len(v) for v in ensemble.vectors)
    return SchmidtVector(_average(ensemble.probs, np.array([v.padded(n) for v in ensemble.vectors])))


def _average(probs: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """The probability-weighted sum over k of (..., k, t) spectra with (..., k) probabilities."""
    return np.add.reduce(probs[..., None] * spectra, axis=-2, initial=0.0)


def check_ensemble_conversion(
    source: SchmidtVector,
    targets: SchmidtEnsemble,
    tol: float = DEFAULT_TOL,
) -> ConversionCheck:
    """Jonathan-Plenio test: can LOCC convert ``source`` into ``targets``?

    Allowed iff the ensemble-average target vector majorizes the source.
    The margin is the worst partial-sum excess of the source over the
    average; the conversion is allowed exactly when margin <= tol, so a
    strictly positive margin (beyond tol) certifies impossibility.
    """
    tol = _check_tol(tol, floor=0.0)
    return _conversion(source, ensemble_average(targets), tol)


def _partial_sums(source: np.ndarray, average: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial sums of source and average rows along the last axis, and the source's excess over the average.

    Rows must be zero-padded to one length. A margin is the largest excess of a
    row, taken with ``np.maximum.reduce``.
    """
    cs = np.add.accumulate(source, axis=-1)
    ca = np.add.accumulate(average, axis=-1)
    return cs, ca, cs - ca


def _conversion(source: SchmidtVector, average: SchmidtVector, tol: float) -> ConversionCheck:
    """The conversion test against an already averaged target vector."""
    n = max(len(source), len(average))
    cs, ca, excess = _partial_sums(source.padded(n), average.padded(n))
    margin = float(np.maximum.reduce(excess))
    return ConversionCheck(
        allowed=margin <= tol,
        margin=margin,
        average=average,
        source_partial_sums=tuple(cs.tolist()),
        average_partial_sums=tuple(ca.tolist()),
    )


def locc_convertible(source: SchmidtVector, target: SchmidtVector, tol: float = DEFAULT_TOL) -> bool:
    """Nielsen's criterion: single-target special case of the ensemble test."""
    tol = _check_tol(tol, floor=0.0)
    return _conversion(source, target, tol).allowed
