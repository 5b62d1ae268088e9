from itertools import product

import numpy as np
import pytest

from locc_witness.catalog import (
    OMEGA,
    bell_states,
    computational_basis,
    domino_basis,
    maximally_entangled,
    omega_basis,
    set_s,
    set_s_prime,
)
from locc_witness.states import (
    Bipartition,
    SubsystemLayout,
    basis_state,
    is_product,
    schmidt,
    validate_state_set,
)

AB = Bipartition(("A",), ("B",))


def test_omega_is_nonreal_cube_root():
    assert OMEGA**3 == pytest.approx(1.0)
    assert abs(OMEGA.imag) > 0.5


def test_bell_states_orthonormal_complete_and_entangled():
    bells = bell_states()
    rep = validate_state_set(bells)
    assert rep.passed and rep.complete
    for b in bells:
        assert np.allclose(schmidt(b, AB).entries, [0.5, 0.5], atol=1e-12)


def test_bell_order_convention():
    phi_plus, phi_minus, psi_plus, psi_minus = bell_states()
    r2 = 1 / np.sqrt(2)
    assert np.allclose(phi_plus.amplitudes, [r2, 0, 0, r2])
    assert np.allclose(phi_minus.amplitudes, [r2, 0, 0, -r2])
    assert np.allclose(psi_plus.amplitudes, [0, r2, r2, 0])
    assert np.allclose(psi_minus.amplitudes, [0, r2, -r2, 0])


def test_maximally_entangled_matches_bell_for_dim_2():
    assert np.allclose(maximally_entangled(2).amplitudes, bell_states()[0].amplitudes)
    lam = schmidt(maximally_entangled(3), AB)
    assert np.allclose(lam.entries, [1 / 3] * 3, atol=1e-12)


def test_set_s_properties():
    s = set_s()
    rep = validate_state_set(s)
    assert rep.passed and not rep.complete
    for state in s:
        assert np.allclose(schmidt(state, AB).entries, [1 / 3] * 3, atol=1e-12)


def test_set_s_prime_swaps_in_a_product_state():
    sp = set_s_prime()
    rep = validate_state_set(sp)
    assert rep.passed
    assert np.array_equal(sp[0].amplitudes, set_s()[0].amplitudes)
    assert np.array_equal(sp[1].amplitudes, set_s()[1].amplitudes)
    assert is_product(sp[2], AB, 1e-12)
    assert sp[2].amplitudes[1] == pytest.approx(1.0)


def test_omega_basis_orthonormal_complete():
    rep = validate_state_set(omega_basis("A"))
    assert rep.passed and rep.complete and rep.dim == 3


def test_computational_basis_is_complete_product():
    layout = SubsystemLayout.of(A=2, B=3)
    basis = computational_basis(layout)
    rep = validate_state_set(basis)
    assert rep.passed and rep.complete
    for s in basis:
        assert is_product(s, AB, 1e-12)


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2)])
def test_computational_basis_matches_basis_state(dims):
    layout = SubsystemLayout(tuple(zip("ABC", dims)))
    basis = computational_basis(layout)
    kets = [basis_state(layout, indices) for indices in product(*map(range, dims))]
    assert len(basis) == len(kets) == layout.dim
    for s, ket in zip(basis, kets):
        assert s.layout == layout and s.input_norm == ket.input_norm
        assert s.amplitudes.dtype == ket.amplitudes.dtype
        assert s.amplitudes.tobytes() == ket.amplitudes.tobytes()


def test_domino_basis_complete_orthonormal_all_product():
    basis = domino_basis()
    rep = validate_state_set(basis)
    assert rep.passed and rep.complete and rep.dim == 9
    for s in basis:
        assert is_product(s, AB, 1e-12)
