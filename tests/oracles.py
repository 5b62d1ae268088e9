"""Test oracles: the library's results recomputed by independent code paths."""

import math

import numpy as np

from locc_witness.majorization import SchmidtEnsemble, SchmidtVector, check_ensemble_conversion
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
