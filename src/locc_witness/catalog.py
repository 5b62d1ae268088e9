"""Named states used throughout the test and fixture suite.

All constructors return already-normalized states and take the part
labels as a parameter, so the same fixture can live on AB (states to
distinguish) or CD (detector side).
"""

from __future__ import annotations

import numpy as np

from .states import PureState, SubsystemLayout, _states_from_rows, basis_state, tensor

# Fixed nonreal cube root of unity; the other choice only conjugates fixtures.
OMEGA = np.exp(2j * np.pi / 3)

_R2 = 1.0 / np.sqrt(2.0)
_R3 = 1.0 / np.sqrt(3.0)


def qubit_pair(labels=("A", "B")) -> SubsystemLayout:
    a, b = labels
    return SubsystemLayout(((a, 2), (b, 2)))


def qutrit_pair(labels=("A", "B")) -> SubsystemLayout:
    a, b = labels
    return SubsystemLayout(((a, 3), (b, 3)))


def bell_states(labels=("A", "B")) -> list[PureState]:
    """The four Bell states in the order Phi+, Phi-, Psi+, Psi-."""
    layout = qubit_pair(labels)
    vecs = [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
    ]
    return [PureState(layout, np.array(v, dtype=complex) * _R2) for v in vecs]


def maximally_entangled(dim: int, labels=("A", "B")) -> PureState:
    """(1/sqrt(d)) sum_i |ii> on two parts of equal dimension."""
    a, b = labels
    layout = SubsystemLayout(((a, dim), (b, dim)))
    amps = np.zeros(dim * dim, dtype=complex)
    amps[:: dim + 1] = 1.0
    return PureState(layout, amps)


def computational_basis(layout: SubsystemLayout) -> list[PureState]:
    """The complete product basis of kets |i1 i2 ...> in lexicographic order."""
    kets = np.eye(layout.dim, dtype=complex)
    kets.setflags(write=False)
    return _states_from_rows(layout, kets)


def set_s(labels=("A", "B")) -> list[PureState]:
    """Three mutually orthogonal maximally entangled 3x3 states.

    s1 = |00> + w|11> + w^2|22>, s2 = |00> + w^2|11> + w|22>,
    s3 = |01> + |12> + |20>, each normalized, w = exp(2 pi i / 3).
    This set is distinguishable by one projective measurement plus
    classical communication (see :func:`omega_basis`).
    """
    layout = qutrit_pair(labels)
    s1 = np.zeros(9, dtype=complex)
    s1[0], s1[4], s1[8] = 1.0, OMEGA, OMEGA**2
    s2 = np.zeros(9, dtype=complex)
    s2[0], s2[4], s2[8] = 1.0, OMEGA**2, OMEGA
    s3 = np.zeros(9, dtype=complex)
    s3[1], s3[5], s3[6] = 1.0, 1.0, 1.0
    return [PureState(layout, v * _R3) for v in (s1, s2, s3)]


def set_s_prime(labels=("A", "B")) -> list[PureState]:
    """set_s with its third state replaced by the product ket |01>.

    Lowering the entanglement this way makes the set LOCC-indistinguishable,
    which the witness engine certifies with Bell detectors.
    """
    layout = qutrit_pair(labels)
    first_two = set_s(labels)[:2]
    return first_two + [basis_state(layout, (0, 1))]


def omega_basis(label: str = "A") -> list[PureState]:
    """Single-qutrit Fourier basis {(1/sqrt(3)) sum_j w^(kj) |j>}.

    Measuring either side of set_s in this basis leaves orthogonal
    residual states on the other side, so one round of communication
    finishes the discrimination.
    """
    layout = SubsystemLayout(((label, 3),))
    return [
        PureState(layout, np.array([1.0, OMEGA**k, OMEGA ** (2 * k)], dtype=complex) * _R3)
        for k in range(3)
    ]


def domino_basis(labels=("A", "B")) -> list[PureState]:
    """The nine-state complete orthonormal product basis of interlocking
    dominoes in 3x3.

    Every vector is product, yet the set famously cannot be perfectly
    distinguished by LOCC; it separates "all product" from "LOCC
    distinguishable" in classification tests.
    """
    a, b = labels
    qa = SubsystemLayout(((a, 3),))
    qb = SubsystemLayout(((b, 3),))

    def ket(layout, i):
        return basis_state(layout, (i,))

    def plus(layout, i, j, sign=1.0):
        amps = np.zeros(3, dtype=complex)
        amps[i], amps[j] = 1.0, sign
        return PureState(layout, amps)

    pieces = [
        (ket(qa, 1), ket(qb, 1)),
        (ket(qa, 0), plus(qb, 0, 1, +1)),
        (ket(qa, 0), plus(qb, 0, 1, -1)),
        (ket(qa, 2), plus(qb, 1, 2, +1)),
        (ket(qa, 2), plus(qb, 1, 2, -1)),
        (plus(qa, 1, 2, +1), ket(qb, 0)),
        (plus(qa, 1, 2, -1), ket(qb, 0)),
        (plus(qa, 0, 1, +1), ket(qb, 2)),
        (plus(qa, 0, 1, -1), ket(qb, 2)),
    ]
    return [tensor(x, y) for x, y in pieces]
