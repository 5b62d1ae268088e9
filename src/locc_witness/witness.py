"""Indistinguishability witnesses for sets of orthogonal bipartite states.

The method: attach a detector state phi_i on an auxiliary CD system to
each state psi_i on AB, superpose with amplitudes sqrt(p_i), and ask
whether LOCC could convert the joint four-party state (across the AC:BD
cut) into the detector ensemble {p_i, phi_i}. A successful discrimination
protocol on AB would realize exactly that conversion, so if majorization
forbids the conversion, the set is certified LOCC-indistinguishable.

The test is one-sided: a failed witness proves nothing, hence the only
verdicts are CERTIFIED_INDISTINGUISHABLE and INCONCLUSIVE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .majorization import _NEG_CLIP, DEFAULT_TOL, SUM_TOL, SchmidtVector, _check_tol, _conversion
from .states import (
    Bipartition,
    PureState,
    SubsystemLayout,
    _cut_matrices,
    _fresh_labels,
    _norm_notes,
    _split_cut,
    _stack,
    validate_state_set,
)

CERTIFIED_INDISTINGUISHABLE = "CERTIFIED_INDISTINGUISHABLE"
INCONCLUSIVE = "INCONCLUSIVE"
ALL_PRODUCT = "ALL_PRODUCT_PROBABILISTICALLY_DISTINGUISHABLE"
CONTAINS_ENTANGLED = "CONTAINS_ENTANGLED_LOCC_INDISTINGUISHABLE"
PROTOCOL_DISTINGUISHES = "PROTOCOL_DISTINGUISHES"
PROTOCOL_FAILS = "PROTOCOL_FAILS"


@dataclass(frozen=True)
class WitnessProblem:
    """States to distinguish, detectors, and superposition probabilities.

    States must be mutually orthonormal on a shared two-part layout;
    detectors share a two-part layout with labels disjoint from the
    states'. Detectors need not be orthogonal: orthogonality of the
    states already normalizes the joint superposition.
    """

    states: tuple[PureState, ...]
    detectors: tuple[PureState, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if not (len(self.states) == len(self.detectors) == len(self.probs)):
            raise ValueError(
                f"counts differ: {len(self.states)} states, "
                f"{len(self.detectors)} detectors, {len(self.probs)} probabilities"
            )
        if not self.states:
            raise ValueError("need at least one state")
        for group, name in ((self.states, "state"), (self.detectors, "detector")):
            if len(group[0].layout.parts) != 2:
                raise ValueError(f"{name} layout must have exactly two parts")
        if set(self.state_layout.labels) & set(self.detector_layout.labels):
            raise ValueError("state and detector layouts must use disjoint labels")
        rep = validate_state_set(self.states)
        if not rep.passed:
            raise ValueError(
                f"states are not orthonormal (max off-diagonal {rep.max_offdiagonal:.3g})"
            )
        for d in self.detectors[1:]:
            if d.layout != self.detectors[0].layout:
                raise ValueError("detectors must share one layout")
        if not all(math.isfinite(p) for p in self.probs):
            raise ValueError(f"probabilities must be finite, got {self.probs}")
        if min(self.probs) < -_NEG_CLIP:
            raise ValueError(f"negative probability {min(self.probs)!r}")
        total = sum(self.probs)
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities must sum to 1 within {SUM_TOL}, got {total!r}")

    @property
    def state_layout(self) -> SubsystemLayout:
        return self.states[0].layout

    @property
    def detector_layout(self) -> SubsystemLayout:
        return self.detectors[0].layout

    def witness_cut(self) -> Bipartition:
        """The cut pairing each first part with the detectors' first part."""
        (a, _), (b, _) = self.state_layout.parts
        (c, _), (d, _) = self.detector_layout.parts
        return Bipartition((a, c), (b, d))

    def detector_cut(self) -> Bipartition:
        (c, _), (d, _) = self.detector_layout.parts
        return Bipartition((c,), (d,))

    def zero_probability_indices(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probs) if p <= _NEG_CLIP)


@dataclass(frozen=True)
class WitnessReport:
    """Verdict plus the numerical evidence behind it.

    The soundness contract: CERTIFIED_INDISTINGUISHABLE is emitted only
    when the majorization violation exceeds tol; ties go to INCONCLUSIVE.
    """

    verdict: str
    margin: float
    tol: float
    source_schmidt: SchmidtVector
    target_average: SchmidtVector
    source_partial_sums: tuple[float, ...]
    average_partial_sums: tuple[float, ...]
    problem: WitnessProblem
    warnings: tuple[str, ...]

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED_INDISTINGUISHABLE


def _branches(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The products psi_k (x) phi_k of (k, d_A, d_B) and (k, d_C, d_D) stacks, axes (k, a, c, b, d)."""
    return psi[:, :, None, :, None] * phi[:, None, :, None, :]


def _superpose(probs, branches: np.ndarray) -> np.ndarray:
    """sum_k sqrt(p_k) branch_k with axes (a, c, b, d), probability dust clipped to 0.

    Branches are added one by one from 0, which rounds exactly as a
    branch-by-branch sum does; an einsum rounds differently and moves
    seeded searches whose restarts tie at float dust.
    """
    weights = np.sqrt(np.maximum(probs, 0.0))[:, None, None, None, None]
    return (weights * branches).sum(axis=0, initial=0.0)


def _check_joint_norm(norm: float) -> None:
    if abs(norm - 1.0) > SUM_TOL:
        raise ValueError(f"joint state norm {norm!r} deviates from 1 beyond {SUM_TOL}")


def _witness_spectra(branches: np.ndarray, targets: np.ndarray, probs) -> tuple[np.ndarray, np.ndarray]:
    """Source spectrum and detector average from the branches and the detectors' C:D spectra.

    By the regrouping identity the AC:BD matrix of the joint state is
    sum_k sqrt(p_k) Psi_k (x) Phi_k. Returns its squared singular values
    and the probability average of the (k, min(d_C, d_D)) ``targets``,
    zero-padded to the same length. The probabilities are clipped once,
    for both, and the branches summed as in :func:`_superpose`. A search
    holding its detectors fixed builds ``branches`` and ``targets`` once
    and varies only ``probs``.
    """
    _, da, dc, db, dd = branches.shape
    probs = np.maximum(probs, 0.0)
    matrix = (np.sqrt(probs)[:, None, None, None, None] * branches).sum(axis=0, initial=0.0)
    source = np.linalg.svd(matrix.reshape(da * dc, db * dd), compute_uv=False) ** 2
    average = np.zeros(source.size)
    average[: targets.shape[1]] = (probs[:, None] * targets).sum(axis=0, initial=0.0)
    return source, average


def build_joint_state(problem: WitnessProblem) -> PureState:
    """The superposition sum_i sqrt(p_i) |psi_i>_AB |phi_i>_CD.

    Returned in (A, B, C, D) part order with unit norm; orthogonality of
    the psi_i makes the norm exactly 1 regardless of detector overlaps.
    """
    layout = SubsystemLayout(problem.state_layout.parts + problem.detector_layout.parts)
    acbd = _superpose(problem.probs, _branches(_stack(problem.states), _stack(problem.detectors)))
    joint = PureState(layout, acbd.transpose(0, 2, 1, 3))
    _check_joint_norm(joint.input_norm)
    return joint


def _problem_warnings(problem: WitnessProblem, phi: np.ndarray) -> tuple[str, ...]:
    k = len(problem.states)
    warnings = _norm_notes("state", range(k), problem.states)
    warnings += _norm_notes("detector", range(k), problem.detectors)
    zero = problem.zero_probability_indices()
    if zero:
        warnings.append(
            f"probabilities below {_NEG_CLIP:g} at indices {zero}; "
            "the certificate covers only the sub-ensemble with nonzero probability"
        )
    if np.linalg.matrix_rank(phi.reshape(k, -1)) < k:
        warnings.append("detectors are linearly dependent, which weakens the witness")
    return tuple(warnings)


def check_witness(problem: WitnessProblem, tol: float = DEFAULT_TOL) -> WitnessReport:
    """Run the majorization witness on a problem.

    Source: Schmidt vector of the joint state across AC:BD. Targets: the
    detectors' C:D Schmidt vectors, zero-padded to the source length
    (after a successful discrimination the AB side holds a known pure
    state, so all AC:BD entanglement of the outcome lives in C:D).

    Relative phases between superposition branches are part of the
    witness configuration: inputs differing by a per-state phase test a
    different (equally sound) witness and may report a different margin.
    A phase common to all states, or moved between a state and its
    detector, changes nothing.
    """
    _check_tol(tol)
    phi = _stack(problem.detectors)
    targets = np.linalg.svd(phi, compute_uv=False) ** 2
    lam, avg = _witness_spectra(_branches(_stack(problem.states), phi), targets, problem.probs)
    _check_joint_norm(math.sqrt(lam.sum()))
    source = SchmidtVector(lam)
    conv = _conversion(source, SchmidtVector(avg), tol)
    verdict = CERTIFIED_INDISTINGUISHABLE if conv.margin > tol else INCONCLUSIVE
    return WitnessReport(
        verdict=verdict,
        margin=conv.margin,
        tol=tol,
        source_schmidt=source,
        target_average=conv.average,
        source_partial_sums=conv.source_partial_sums,
        average_partial_sums=conv.average_partial_sums,
        problem=problem,
        warnings=_problem_warnings(problem, phi),
    )


def full_basis_problem(basis) -> WitnessProblem:
    """Canonical witness for a complete orthonormal basis of an m x n system.

    Detectors are the computational-basis conjugates of the basis states,
    on the first two capital labels the basis does not use, at uniform
    probability 1/(mn). By construction the joint state then equals the
    product of two maximally entangled pairs across AC:BD; this identity
    is verified numerically here (to 1e-10), so the source Schmidt vector
    is (1, 0, ..., 0).
    """
    basis = tuple(basis)
    psi = _stack(basis)
    phi = psi.conj()
    layout = basis[0].layout
    labels = _fresh_labels(layout.labels, len(layout.parts))
    detector_layout = SubsystemLayout(tuple(zip(labels, layout.dims)))
    detectors = tuple(PureState._wrap(detector_layout, row) for row in phi)
    k = len(basis)
    problem = WitnessProblem(basis, detectors, (1.0 / k,) * k)
    if k != layout.dim:
        raise ValueError(f"basis is incomplete: {k} states in dimension {layout.dim}")

    m, n = layout.dims
    acbd = _superpose(problem.probs, _branches(psi, phi))
    norm = float(np.linalg.norm(acbd))
    _check_joint_norm(norm)
    expected = np.multiply.outer(np.eye(m) / math.sqrt(m), np.eye(n) / math.sqrt(n))
    err = float(np.abs(acbd / norm - expected).max())
    if err > 1e-10:
        raise ValueError(f"joint state deviates from the product form by {err:.3g}")
    return problem


@dataclass(frozen=True)
class FullBasisReport:
    """Classification of a complete basis plus the witness cross-check."""

    classification: str
    max_schmidt: tuple[float, ...]
    witness: WitnessReport | None

    @property
    def certified(self) -> bool:
        return self.witness is not None and self.witness.certified


def _max_schmidt(matrices: np.ndarray) -> np.ndarray:
    """Largest squared singular value of each matrix in a (k, r, c) stack, by one stacked SVD."""
    return np.linalg.svd(matrices, compute_uv=False)[:, 0] ** 2


def classify_full_basis(basis, tol: float = DEFAULT_TOL) -> FullBasisReport:
    """Sort a complete orthonormal basis into one of two classes.

    ALL_PRODUCT_PROBABILISTICALLY_DISTINGUISHABLE when every vector is
    product across the two parts (probabilistic local discrimination by a
    random separable Kraus pair always works then); otherwise
    CONTAINS_ENTANGLED_LOCC_INDISTINGUISHABLE, with the canonical witness
    executed as a cross-check and attached to the report.
    """
    _check_tol(tol)
    basis = list(basis)
    psi = _stack(basis)
    if psi.ndim != 3:
        raise ValueError(f"classification requires a two-part layout, got {basis[0].layout}")
    max_schmidt = tuple(_max_schmidt(psi).tolist())
    if any(m < 1.0 - tol for m in max_schmidt):
        witness = check_witness(full_basis_problem(basis), tol)
        return FullBasisReport(CONTAINS_ENTANGLED, max_schmidt, witness)
    rep = validate_state_set(basis)
    if not rep.passed:
        raise ValueError(f"basis is not orthonormal (max off-diagonal {rep.max_offdiagonal:.3g})")
    if not rep.complete:
        raise ValueError(f"basis is incomplete: {rep.size} states in dimension {rep.dim}")
    return FullBasisReport(ALL_PRODUCT, max_schmidt, None)


def multipartite_product_check(states, tol: float = DEFAULT_TOL) -> bool:
    """True iff every state of a complete orthonormal set is fully product.

    Fully product means product across every single-part-versus-rest cut,
    i.e. of the form |eta_1>|eta_2>...|eta_N>.
    """
    states = list(states)
    rep = validate_state_set(states)
    if not rep.passed or not rep.complete:
        raise ValueError("product check requires a complete orthonormal set")
    labels = states[0].layout.labels
    if len(labels) == 1:
        return True  # every state on one part is trivially of the form |eta_1>
    for label in labels:
        rest = tuple(l for l in labels if l != label)
        if not (_max_schmidt(_cut_matrices(states, Bipartition((label,), rest))) >= 1.0 - tol).all():
            return False
    return True


def bipartite_cut_reduction(states, cut: Bipartition) -> list[PureState]:
    """Regroup multipartite states into two merged parts along a cut.

    A certificate of indistinguishability on the merged bipartite layout
    carries over to the original multipartite set, because separating the
    parties inside each block only restricts LOCC further.
    """
    states = list(states)
    matrices = _cut_matrices(states, cut)
    left, right = _split_cut(states[0].layout, cut)
    _, dl, dr = matrices.shape
    merged = SubsystemLayout((("".join(left), dl), ("".join(right), dr)))
    return [PureState._wrap(merged, m) for m in matrices]


def verify_one_way_protocol(states, measurement_basis, tol: float = DEFAULT_TOL) -> bool:
    """Check a one-round protocol: measure the first part, then communicate.

    For every measurement outcome, the (normalized) residual states left
    on the second part for outcomes of nonzero probability must be
    pairwise orthogonal; then one projective measurement plus classical
    communication perfectly distinguishes the set.
    """
    states = list(states)
    matrices = _stack(states)
    if matrices.ndim != 3:
        raise ValueError("one-way verification requires a two-part layout")
    da = matrices.shape[1]

    basis = list(measurement_basis)
    for v in basis:
        if v.layout.dim != da:
            raise ValueError(
                f"measurement basis dimension {v.layout.dim} does not match part dimension {da}"
            )
    rep = validate_state_set(basis)
    if not rep.passed or len(basis) != da:
        raise ValueError("measurement basis must be orthonormal and span the measured part")

    for v in basis:
        residuals = []
        for m in matrices:
            r = np.conj(v.amplitudes) @ m
            weight = float(np.real(np.vdot(r, r)))
            if weight > tol:
                residuals.append(r / math.sqrt(weight))
        for i in range(len(residuals)):
            for j in range(i + 1, len(residuals)):
                if abs(np.vdot(residuals[i], residuals[j])) > tol:
                    return False
    return True
