"""Test oracles: the library's results recomputed by independent code paths."""

import math

import numpy as np

from locc_witness.majorization import _FREE_NORM_FLOOR, SchmidtEnsemble, SchmidtVector, check_ensemble_conversion
from locc_witness.states import Bipartition, PureState, schmidt
from locc_witness.witness import build_joint_state


def reduced_density_spectrum(s: PureState, cut: Bipartition) -> SchmidtVector:
    """Oracle for :func:`schmidt` by an independent code path.

    Forms the full density matrix, partial-traces the right side using
    explicit mixed-radix index arithmetic (no reshapes or transposes),
    and returns the eigenvalues of the left reduced density matrix with
    the same output contract as :func:`schmidt`.
    """
    labels = s.layout.labels
    if set(cut.left) | set(cut.right) != set(labels) or set(cut.left) & set(cut.right):
        raise ValueError(f"cut {cut} does not bipartition layout {s.layout}")
    dims = s.layout.dims
    left_pos = [i for i, l in enumerate(labels) if l in cut.left]
    right_pos = [i for i, l in enumerate(labels) if l in cut.right]
    dl = math.prod(dims[i] for i in left_pos)
    dr = math.prod(dims[i] for i in right_pos)

    # pos[l, r] = flat index of the basis ket with left digits l, right digits r
    pos = np.zeros((dl, dr), dtype=int)
    for t in range(s.layout.dim):
        digits = []
        rem = t
        for d in reversed(dims):
            digits.append(rem % d)
            rem //= d
        digits.reverse()
        li = 0
        for i in left_pos:
            li = li * dims[i] + digits[i]
        ri = 0
        for i in right_pos:
            ri = ri * dims[i] + digits[i]
        pos[li, ri] = t

    rho = np.outer(s.amplitudes, np.conj(s.amplitudes))
    rho_left = rho[pos[:, None, :], pos[None, :, :]].sum(axis=2)
    evals = np.linalg.eigvalsh(rho_left)[::-1]
    return SchmidtVector(evals[: min(dl, dr)])


def ensemble_average(ensemble: SchmidtEnsemble) -> SchmidtVector:
    """Reference for :func:`ensemble_average`: each zero-padded vector times its probability, added in turn to zeros.

    It rounds as the library does whenever the longest vector has two or
    more entries; on a single column numpy sums eight or more rows pairwise.
    """
    n = max(len(v) for v in ensemble.vectors)
    acc = np.zeros(n)
    for p, v in ensemble:
        acc += p * v.padded(n)
    return SchmidtVector(acc)


def oracle_margin(problem):
    """Witness margin with the source Schmidt vector taken from the
    partial-trace eigenvalue oracle instead of the SVD path."""
    joint = build_joint_state(problem)
    source = reduced_density_spectrum(joint, problem.witness_cut())
    det_cut = problem.detector_cut()
    targets = SchmidtEnsemble(
        [(p, schmidt(phi, det_cut)) for p, phi in zip(problem.probs, problem.detectors)]
    )
    return check_ensemble_conversion(source, targets).margin


# References for the search internals: a polytope kept as lists of
# vertices and values, free detectors built from their real and imaginary
# parts, and a witness kernel that builds the branches and the detector
# spectra on every call. The library's two polytopes, its free detectors
# and its split kernel must agree with them bit for bit.


def _nelder_mead(f, x0: np.ndarray, step: float = 0.5, max_iters: int = 200, ftol: float = 1e-12, stop: float = -math.inf):
    """Minimize f by the reflect/expand/contract/shrink polytope method.

    An iteration ends the run once the values span less than ftol or the
    best is at most stop. Deterministic given (f, x0); returns (best_x,
    best_f, iterations).
    """
    n = x0.size
    simplex = [x0.astype(float)]
    for i in range(n):
        x = x0.astype(float).copy()
        x[i] += step
        simplex.append(x)
    values = [f(x) for x in simplex]
    iterations = 0

    for iterations in range(1, max_iters + 1):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if values[-1] - values[0] < ftol or values[0] <= stop:
            break

        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + (centroid - simplex[-1])
        fr = f(reflected)
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
            continue
        if fr < values[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            fe = f(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
            continue
        contracted = centroid + 0.5 * (simplex[-1] - centroid)
        fc = f(contracted)
        if fc < values[-1]:
            simplex[-1], values[-1] = contracted, fc
            continue
        simplex = [simplex[0]] + [simplex[0] + 0.5 * (x - simplex[0]) for x in simplex[1:]]
        values = [values[0]] + [f(x) for x in simplex[1:]]

    best = int(np.argmin(values))
    return simplex[best], values[best], iterations


def free_detectors(points: np.ndarray, k: int, dims) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k detectors from their (real, imaginary) pairs, normalized by np.linalg.norm.

    A detector shorter than the norm floor is divided by the floor;
    returns the detectors and their norms.
    """
    raw = points[:, k:].reshape(len(points), k, *dims, 2)
    phi = raw[..., 0] + 1j * raw[..., 1]
    norms = np.linalg.norm(phi.reshape(len(points), k, -1), axis=2)
    return phi / np.maximum(norms, _FREE_NORM_FLOOR)[..., None, None], norms


def _superpose(probs, psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """sum_k sqrt(p_k) psi_k (x) phi_k with axes (a, c, b, d), probability dust clipped to 0.

    Branches are added one by one from 0, which rounds exactly as a
    branch-by-branch sum does; an einsum rounds differently and moves
    seeded searches whose restarts tie at float dust.
    """
    weights = np.sqrt(np.clip(probs, 0.0, None))[:, None, None, None, None]
    return (weights * (psi[:, :, None, :, None] * phi[:, None, :, None, :])).sum(axis=0, initial=0.0)


def _witness_spectra(psi: np.ndarray, phi: np.ndarray, probs) -> tuple[np.ndarray, np.ndarray]:
    """Source spectrum and detector average from (k, d_A, d_B) and (k, d_C, d_D) stacks.

    By the regrouping identity the AC:BD matrix of the joint state is
    sum_k sqrt(p_k) Psi_k (x) Phi_k. Returns its squared singular values
    and the probability average of the detectors' C:D spectra, zero-padded
    to the same length.
    """
    _, da, db = psi.shape
    _, dc, dd = phi.shape
    matrix = _superpose(probs, psi, phi).reshape(da * dc, db * dd)
    source = np.linalg.svd(matrix, compute_uv=False) ** 2
    targets = np.linalg.svd(phi, compute_uv=False) ** 2
    average = np.zeros(source.size)
    average[: targets.shape[1]] = (np.clip(probs, 0.0, None)[:, None] * targets).sum(axis=0, initial=0.0)
    return source, average


def simplex_sample(k: int, seed: int) -> np.ndarray:
    """Uniform sample from the probability simplex via exponential spacings."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    e = rng.standard_exponential(k)
    return e / e.sum()


def one_way_verdict(states, measurement_basis, tol: float) -> bool:
    """Reference for :func:`verify_one_way_protocol`, one outcome and one pair of states at a time.

    Takes the measurement basis as given: a valid, complete orthonormal
    basis of the states' first part.
    """
    for v in measurement_basis:
        residuals = []
        for s in states:
            r = np.conj(v.amplitudes) @ s.amplitudes.reshape(s.layout.dims)
            weight = float(np.real(np.vdot(r, r)))
            if weight > tol:
                residuals.append(r / math.sqrt(weight))
        for i in range(len(residuals)):
            for j in range(i + 1, len(residuals)):
                if abs(np.vdot(residuals[i], residuals[j])) > tol:
                    return False
    return True
