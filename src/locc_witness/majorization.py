"""Majorization arithmetic and pure-state LOCC conversion criteria.

A bipartite pure state is characterized, up to local unitaries, by its
Schmidt vector: the descending squared Schmidt coefficients. Nielsen's
theorem decides single-target LOCC conversions by majorization, and the
Jonathan-Plenio theorem extends it to ensembles of targets: the source
can be converted into ``{p_i, phi_i}`` exactly when the probability
average of the target Schmidt vectors majorizes the source vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUM_TOL = 1e-10
DEFAULT_TOL = 1e-9
_NEG_CLIP = 1e-12


class SchmidtVector:
    """Descending, nonnegative squared Schmidt coefficients summing to 1.

    Entries are sorted on construction; negative dust down to -1e-12
    (typical of eigensolvers) is clipped to zero.
    """

    __slots__ = ("entries",)

    def __init__(self, values) -> None:
        arr = np.sort(np.asarray(values, dtype=float))[::-1].copy()
        if arr.size == 0:
            raise ValueError("Schmidt vector must have at least one entry")
        if not np.isfinite(arr).all():
            raise ValueError("Schmidt entries must be finite")
        if arr[-1] < -_NEG_CLIP:
            raise ValueError(f"Schmidt entries must be nonnegative, got {arr[-1]!r}")
        np.clip(arr, 0.0, None, out=arr)
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"Schmidt entries must sum to 1 within {SUM_TOL}, got {total!r}")
        arr.setflags(write=False)
        self.entries = arr

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
        if not items:
            raise ValueError("ensemble must contain at least one item")
        probs = np.array([p for p, _ in items], dtype=float)
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite")
        if probs.min() < -_NEG_CLIP:
            raise ValueError(f"probabilities must be nonnegative, got {probs.min()!r}")
        np.clip(probs, 0.0, None, out=probs)
        total = float(probs.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities must sum to 1 within {SUM_TOL}, got {total!r}")
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
    n = max(len(x), len(y))
    cx = np.cumsum(x.padded(n))
    cy = np.cumsum(y.padded(n))
    return bool(np.all(cx >= cy - tol))


def ensemble_average(ensemble: SchmidtEnsemble) -> SchmidtVector:
    """Componentwise probability average, zero-padded to a common length.

    A convex combination of descending vectors is descending, so the
    result is a valid SchmidtVector.
    """
    n = max(len(v) for v in ensemble.vectors)
    acc = np.zeros(n)
    for p, v in ensemble:
        acc += p * v.padded(n)
    return SchmidtVector(acc)


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
    return _conversion(source, ensemble_average(targets), tol)


def _conversion(source: SchmidtVector, average: SchmidtVector, tol: float) -> ConversionCheck:
    """The conversion test against an already averaged target vector."""
    n = max(len(source), len(average))
    cs = np.cumsum(source.padded(n))
    ca = np.cumsum(average.padded(n))
    margin = float(np.max(cs - ca))
    return ConversionCheck(
        allowed=margin <= tol,
        margin=margin,
        average=average,
        source_partial_sums=tuple(float(v) for v in cs),
        average_partial_sums=tuple(float(v) for v in ca),
    )


def locc_convertible(source: SchmidtVector, target: SchmidtVector, tol: float = DEFAULT_TOL) -> bool:
    """Nielsen's criterion: single-target special case of the ensemble test."""
    return _conversion(source, target, tol).allowed
