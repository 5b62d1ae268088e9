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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .majorization import _NEG_CLIP, DEFAULT_TOL, SUM_TOL, SchmidtVector
from .majorization import _average, _check_tol, _distribution, _partial_sums
from .states import (
    Bipartition,
    PureState,
    SubsystemLayout,
    _cut_matrices,
    _detector_layout,
    _is_product,
    _norm_notes,
    _require_complete,
    _require_orthonormal,
    _require_two_parts,
    _schmidt_spectra,
    _singular_values,
    _split_cut,
    _stack,
    _states_from_rows,
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

    Construction keeps the read-only amplitude stacks of the states and
    of the detectors (see :func:`states._stack`) as ``_state_stack`` and
    ``_detector_stack``, and the validated probabilities, with dust down to
    -_NEG_CLIP clipped to 0, as the read-only array ``_weights``; they are
    not fields, and :meth:`_bind` alone checks the structure and sets them.
    """

    states: tuple[PureState, ...]
    detectors: tuple[PureState, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        # read the states once: a generator would be empty at a second read
        vars(self)["states"] = tuple(self.states)
        state_stack = _stack(self.states)
        _require_orthonormal(state_stack, "state set")
        self._bind(state_stack)

    @classmethod
    def _of(cls, state_stack: np.ndarray, states, detectors, probs, detector_stack=None) -> WitnessProblem:
        """The problem on ``states``, whose ``state_stack`` the caller validated; pass ``detector_stack`` if held."""
        problem = object.__new__(cls)
        vars(problem).update(states=states, detectors=detectors, probs=probs)
        problem._bind(state_stack, detector_stack)
        return problem

    def _bind(self, state_stack: np.ndarray, detector_stack: np.ndarray | None = None) -> None:
        vars(self).update(states=tuple(self.states), detectors=tuple(self.detectors), probs=tuple(self.probs))
        if not (len(self.states) == len(self.detectors) == len(self.probs)):
            raise ValueError(
                f"counts differ: {len(self.states)} states, "
                f"{len(self.detectors)} detectors, {len(self.probs)} probabilities"
            )
        _require_two_parts(self.state_layout, "a witness problem's state set")
        _require_two_parts(self.detector_layout, "a witness problem's detector set")
        if set(self.state_layout.labels) & set(self.detector_layout.labels):
            raise ValueError("state and detector layouts must use disjoint labels")
        detector_stack = _stack(self.detectors) if detector_stack is None else detector_stack
        weights = _distribution(self.probs, "probabilities")  # checks each entry before float() takes it
        weights.setflags(write=False)
        probs = tuple(float(p) for p in self.probs)
        vars(self).update(probs=probs, _state_stack=state_stack, _detector_stack=detector_stack, _weights=weights)

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
    """The products psi_k (x) phi_k of (k, d_A, d_B) and (..., k, d_C, d_D) stacks, axes (..., k, a, c, b, d)."""
    return psi[:, :, None, :, None] * phi[..., None, :, None, :]


def _superpose(probs, branches: np.ndarray) -> np.ndarray:
    """sum_k sqrt(p_k) branch_k with axes (..., a, c, b, d); the probabilities must be nonnegative.

    ``probs`` is (..., k) and ``branches`` (..., k, a, c, b, d). Branches
    are added one by one from 0, which rounds exactly as a branch-by-branch
    sum does; an einsum rounds differently and changes the last bits of
    seeded search margins.
    """
    weights = np.sqrt(probs)[..., None, None, None, None]
    return np.add.reduce(weights * branches, axis=-5, initial=0.0)


def _joint(problem: WitnessProblem) -> np.ndarray:
    """A problem's joint tensor, axes (row, a, c, b, d) with one row, as :func:`_witness_report` takes it."""
    return _superpose(problem._weights[None], _branches(problem._state_stack, problem._detector_stack[None]))


def _check_joint_norm(norm_squared: float, weights: np.ndarray) -> None:
    # the squared norm is the sum of the Schmidt entries, so it gets SchmidtVector's bound. It carries
    # the sum of the weights, which are accepted within SUM_TOL of 1 and not rescaled, so at that edge
    # rounding alone can pass the bound: the states are blamed only for what that sum does not explain
    if abs(norm_squared - 1.0) > SUM_TOL:
        total = float(weights.sum())
        states = abs(norm_squared - total) > SUM_TOL
        cause = "the states are not orthonormal enough for these detectors, and " if states else ""
        raise ValueError(
            f"joint state norm squared {norm_squared!r} deviates from 1 beyond {SUM_TOL}: "
            f"{cause}the probabilities sum to {total!r}"
        )


def _witness_spectra(joints: np.ndarray, targets: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Source spectra and detector averages of a stack of witness rows.

    Row r has the joint tensor ``joints[r]`` of axes (a, c, b, d) from
    :func:`_superpose`, the detectors' C:D spectra ``targets[r]`` of shape
    (k, t) and the probabilities ``probs[r]`` of length k; one row of
    targets is broadcast against every row. By the regrouping identity a
    joint tensor, read as a (d_A d_C) x (d_B d_D) matrix, is the AC:BD
    matrix sum_k sqrt(p_k) Psi_k (x) Phi_k. Returns its squared singular
    values and the probability average of the targets, zero-padded to the
    same length, one row each per row of ``joints``.
    """
    da, dc, db, dd = joints.shape[-4:]
    matrices = joints.reshape(-1, da * dc, db * dd)
    source = _schmidt_spectra(matrices)
    average = np.zeros(source.shape)
    average[:, : targets.shape[-1]] = _average(probs, targets)
    return source, average


def build_joint_state(problem: WitnessProblem) -> PureState:
    """The superposition sum_i sqrt(p_i) |psi_i>_AB |phi_i>_CD.

    Returned in (A, B, C, D) part order with unit norm; orthogonality of
    the psi_i makes the norm exactly 1 regardless of detector overlaps.
    """
    layout = SubsystemLayout(problem.state_layout.parts + problem.detector_layout.parts)
    joint = PureState(layout, _joint(problem)[0].transpose(0, 2, 1, 3))
    _check_joint_norm(joint.input_norm**2, problem._weights)
    return joint


_FLOAT_EPS = float(np.finfo(float).eps)  # read once: np.finfo costs more than the rank test it feeds


def _problem_warnings(problem: WitnessProblem) -> tuple[str, ...]:
    k = len(problem.states)
    warnings = _norm_notes("state", range(k), problem.states)
    warnings += _norm_notes("detector", range(k), problem.detectors)
    zero = problem.zero_probability_indices()
    if zero:
        warnings.append(
            f"probabilities below {_NEG_CLIP:g} at indices {zero}; "
            "the certificate covers only the sub-ensemble with nonzero probability"
        )
    # np.linalg.matrix_rank's default threshold, without its wrapper
    mat = problem._detector_stack.reshape(k, -1)
    spectrum = _singular_values(mat)
    if np.count_nonzero(spectrum > spectrum.max() * (max(mat.shape) * _FLOAT_EPS)) < k:
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
    tol = _check_tol(tol)
    targets = _schmidt_spectra(problem._detector_stack)
    return _witness_report(problem, tol, _joint(problem), targets, _problem_warnings(problem))


def _witness_report(problem: WitnessProblem, tol: float, joint: np.ndarray, targets: np.ndarray, warnings) -> WitnessReport:
    """A problem's report from its joint tensor (axes row, a, c, b, d; one row), target spectra and given warnings.

    The report is read off the kernel's rows: the source spectrum and the
    target average of :func:`_witness_spectra`, already descending,
    nonnegative and of one length, and their partial sums and excess from one
    :func:`_partial_sums` row. Only the sums of the two spectra need a check;
    a refusal names the probabilities' sum, which both spectra carry.
    The checked ``SchmidtVector`` and ``check_ensemble_conversion`` give the
    same bytes on these rows; they serve the public majorization API and the
    tests.
    """
    lam, avg = _witness_spectra(joint, targets[None], problem._weights[None])
    _check_joint_norm(float(lam.sum()), problem._weights)
    average_sum = float(avg.sum())
    if abs(average_sum - 1.0) > SUM_TOL:  # an average of unit-sum spectra sums to what its weights do
        raise ValueError(
            f"averaged detector Schmidt entries must sum to 1 within {SUM_TOL}, got {average_sum!r}: "
            f"the probabilities sum to {float(problem._weights.sum())!r}"
        )
    (cs,), (ca,), (excess,) = _partial_sums(lam, avg)
    margin = float(np.maximum.reduce(excess))
    return WitnessReport(
        verdict=CERTIFIED_INDISTINGUISHABLE if margin > tol else INCONCLUSIVE,
        margin=margin,
        tol=tol,
        source_schmidt=SchmidtVector._trusted(lam[0]),
        target_average=SchmidtVector._trusted(avg[0]),
        source_partial_sums=tuple(cs.tolist()),
        average_partial_sums=tuple(ca.tolist()),
        problem=problem,
        warnings=warnings,
    )


def _basis_stack(basis) -> np.ndarray:
    """The stack of a complete orthonormal basis on a two-part layout; where a full basis is validated."""
    psi = _stack(basis)
    _require_two_parts(basis[0].layout, "the full-basis theorem")
    _require_orthonormal(psi, "state set")
    _require_complete(psi, "basis")
    return psi


def _conjugate_detectors(psi: np.ndarray) -> np.ndarray:
    """The read-only stack of the computational-basis conjugates of the states of stack ``psi``.

    These are the paper's full-basis detectors: each state psi_i gets psi_i-bar, on d_A x d_B.
    The full-basis witness and the free-detector search's first restart both start from them.
    """
    phi = psi.conj()
    phi.setflags(write=False)
    return phi


def full_basis_problem(basis) -> WitnessProblem:
    """Canonical witness for a complete orthonormal basis of an m x n system.

    Detectors are the computational-basis conjugates of the basis states,
    on the first two capital labels the basis does not use, at uniform
    probability 1/(mn); the problem's detector stack is the read-only
    conjugate of the basis stack. By construction the joint state equals the
    product of two maximally entangled pairs across AC:BD, as verified here
    (to SUM_TOL), so the source Schmidt vector is (1, 0, ..., 0).
    """
    basis = tuple(basis)
    return _full_basis(basis, _basis_stack(basis))[0]


def _full_basis(basis, psi: np.ndarray) -> tuple[WitnessProblem, np.ndarray]:
    """:func:`full_basis_problem` of a basis with stack ``psi`` from :func:`_basis_stack`, plus its joint tensor.

    The joint tensor has axes (row, a, c, b, d) with one row, as
    :func:`_witness_report` takes it; the product form is checked on that row.
    """
    phi = _conjugate_detectors(psi)
    layout = basis[0].layout
    detectors = _states_from_rows(_detector_layout(layout, layout.dims), phi)
    k = len(basis)
    problem = WitnessProblem._of(psi, basis, detectors, (1.0 / k,) * k, phi)

    joint = _joint(problem)
    # a basis _basis_stack accepts gives a squared joint norm within (k - 1) * 1e-18 of 1, so it is not divided out
    err = float(np.abs(joint[0] - _product_form(*layout.dims)).max())
    if err > SUM_TOL:
        raise ValueError(f"joint state deviates from the product form by {err:.3g}")
    return problem, joint


@functools.cache
def _product_form(m: int, n: int) -> np.ndarray:
    """The read-only tensor, axes (a, c, b, d), of two maximally entangled pairs, m x m and n x n."""
    expected = np.multiply.outer(np.eye(m) / math.sqrt(m), np.eye(n) / math.sqrt(n))
    expected.setflags(write=False)
    return expected


@dataclass(frozen=True)
class FullBasisReport:
    """Classification of a complete basis plus the witness cross-check."""

    classification: str
    max_schmidt: tuple[float, ...]
    witness: WitnessReport | None

    @property
    def certified(self) -> bool:
        return self.witness is not None and self.witness.certified


def classify_full_basis(basis, tol: float = DEFAULT_TOL) -> FullBasisReport:
    """Sort a complete orthonormal basis into one of two classes.

    ALL_PRODUCT_PROBABILISTICALLY_DISTINGUISHABLE when every vector is
    product across the two parts (probabilistic local discrimination by a
    random separable Kraus pair always works then); otherwise
    CONTAINS_ENTANGLED_LOCC_INDISTINGUISHABLE, with the canonical witness
    executed as a cross-check and attached to the report.

    The basis is decomposed once: its Schmidt spectra give ``max_schmidt``
    and, the detectors being the conjugate states, the witness targets;
    the joint tensor of the product-form check gives the witness source.
    """
    tol = _check_tol(tol)
    basis = list(basis)
    psi = _basis_stack(basis)
    spectra = _schmidt_spectra(psi)  # a matrix and its conjugate share singular values
    max_schmidt = tuple(spectra[:, 0].tolist())
    if not _is_product(spectra, tol).all():
        problem, joint = _full_basis(basis, psi)
        notes = tuple(_norm_notes("state", range(len(basis)), basis))
        return FullBasisReport(CONTAINS_ENTANGLED, max_schmidt, _witness_report(problem, tol, joint, spectra, notes))
    return FullBasisReport(ALL_PRODUCT, max_schmidt, None)


def multipartite_product_check(states, tol: float = DEFAULT_TOL) -> bool:
    """True iff every state of a complete orthonormal set is fully product.

    Fully product means product across every single-part-versus-rest cut,
    i.e. of the form |eta_1>|eta_2>...|eta_N>.
    """
    tol = _check_tol(tol)
    states = list(states)
    stack = _stack(states)
    _require_orthonormal(stack, "state set")
    _require_complete(stack, "state set")
    layout = states[0].layout
    if len(layout.parts) == 1:
        return True  # every state on one part is trivially of the form |eta_1>
    for label in layout.labels:
        rest = tuple(l for l in layout.labels if l != label)
        matrices = _cut_matrices(stack, layout, Bipartition((label,), rest))
        if not _is_product(_schmidt_spectra(matrices), tol).all():
            return False
    return True


def bipartite_cut_reduction(states, cut: Bipartition) -> list[PureState]:
    """Regroup multipartite states into two merged parts along a cut.

    A certificate of indistinguishability on the merged bipartite layout
    carries over to the original multipartite set, because separating the
    parties inside each block only restricts LOCC further.
    """
    states = list(states)
    matrices = _cut_matrices(_stack(states), states[0].layout, cut)
    left, right = _split_cut(states[0].layout, cut)
    _, dl, dr = matrices.shape
    merged = SubsystemLayout((("".join(left), dl), ("".join(right), dr)))
    matrices.setflags(write=False)
    return _states_from_rows(merged, matrices)


def verify_one_way_protocol(states, measurement_basis, tol: float = DEFAULT_TOL) -> bool:
    """Check a one-round protocol: measure the first part, then communicate.

    For every measurement outcome, the (normalized) residual states left
    on the second part for outcomes of nonzero probability must be
    pairwise orthogonal; then one projective measurement plus classical
    communication perfectly distinguishes the set. The basis is measured on
    the first part, so one written on the second part's label is refused.
    """
    tol = _check_tol(tol)
    states = list(states)
    matrices = _stack(states)
    _require_two_parts(states[0].layout, "one-way verification")
    (first, da), (second, _) = states[0].layout.parts

    basis = list(measurement_basis)
    for v in basis:
        if second in v.layout.labels:
            raise ValueError(
                f"measurement basis on {v.layout} holds the states' second part {second}, not their first part {first}"
            )
        if v.layout.dim != da:
            raise ValueError(
                f"measurement basis dimension {v.layout.dim} does not match part dimension {da}"
            )
    measurement = _stack(basis).reshape(len(basis), da)  # a basis may span several parts
    _require_orthonormal(measurement, "measurement basis")
    _require_complete(measurement, "measurement basis")

    # residuals[o, i] is what state i leaves on the second part for outcome o
    residuals = np.swapaxes(measurement.conj() @ matrices, 0, 1)
    weights = np.einsum("oib,oib->oi", residuals.conj(), residuals).real
    # residuals of probability at most tol drop out as zero rows
    unit = residuals / np.where(weights > tol, np.sqrt(weights), np.inf)[..., None]
    overlaps = np.triu(np.abs(unit.conj() @ np.swapaxes(unit, 1, 2)), 1)
    return not (overlaps > tol).any()
