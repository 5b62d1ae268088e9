import dataclasses
import pickle
import warnings
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reduced_density_spectrum

import locc_witness.states as states_module

from locc_witness.catalog import bell_states, set_s, set_s_prime
from locc_witness.states import (
    Bipartition,
    PureState,
    SubsystemLayout,
    basis_state,
    conjugate,
    inner,
    is_product,
    parse_cut,
    permute_parts,
    random_orthonormal_basis,
    random_state,
    relabel,
    schmidt,
    tensor,
    validate_state_set,
)

AB = Bipartition(("A",), ("B",))
ACBD = Bipartition(("A", "C"), ("B", "D"))


def random_layout(rng, max_total=36):
    # 2 to 4 parts, total dimension capped
    while True:
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(2, 4)) for _ in range(n)]
        if np.prod(dims) <= max_total:
            labels = [chr(ord("A") + i) for i in range(n)]
            return SubsystemLayout(tuple(zip(labels, dims)))


def random_cut(layout, rng):
    labels = list(layout.labels)
    while True:
        mask = rng.integers(0, 2, size=len(labels))
        if 0 < mask.sum() < len(labels):
            left = tuple(l for l, m in zip(labels, mask) if m)
            right = tuple(l for l, m in zip(labels, mask) if not m)
            return Bipartition(left, right)


class TestLayout:
    def test_lexicographic_total_dim(self):
        layout = SubsystemLayout.of(A=2, B=3, C=2)
        assert layout.dim == 12
        assert layout.labels == ("A", "B", "C")

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SubsystemLayout((("A", 2), ("A", 3)))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            SubsystemLayout((("A", 0),))

    def test_trivial_part_allowed(self):
        assert SubsystemLayout.of(A=2, E=1).dim == 2

    def test_sizes_are_kept_outside_the_fields(self):
        layout = SubsystemLayout.of(A=2, B=3)
        assert [f.name for f in dataclasses.fields(SubsystemLayout)] == ["parts"]
        assert layout.dims is layout.dims
        assert (layout.labels, layout.dims, layout.dim) == (("A", "B"), (2, 3), 6)
        resized = dataclasses.replace(layout, parts=(("A", 4),))
        assert (resized.labels, resized.dims, resized.dim) == (("A",), (4,), 4)

    def test_kept_sizes_leave_equality_hash_repr_and_pickle_alone(self):
        layout = SubsystemLayout.of(A=2, B=3)
        twin = SubsystemLayout((("A", 2), ("B", 3)))
        assert layout == twin and hash(layout) == hash(twin)
        assert repr(layout) == repr(twin) == "SubsystemLayout(parts=(('A', 2), ('B', 3)))"
        assert layout != SubsystemLayout.of(A=3, B=2)
        copy = pickle.loads(pickle.dumps(layout))
        assert copy == twin and hash(copy) == hash(twin) and repr(copy) == repr(twin)
        assert (copy.labels, copy.dims, copy.dim) == (twin.labels, twin.dims, twin.dim)


class TestPureState:
    def test_normalizes_and_records_input_norm(self):
        layout = SubsystemLayout.of(A=2)
        s = PureState(layout, [3.0, 0.0])
        assert s.input_norm == pytest.approx(3.0)
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-5, 1e150])
    def test_input_norm_is_numpy_norm(self, scale):
        # the norm is np.linalg.norm's formula, so it rounds as that function does
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = scale * (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
            for amps in (z[:, 0], z.ravel(), z.T.ravel()):  # strided and contiguous
                state = PureState(SubsystemLayout.of(A=amps.size), amps)
                assert state.input_norm == float(np.linalg.norm(amps))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PureState(SubsystemLayout.of(A=2), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "amplitudes, entry",
        [
            (["1", "0"], "amplitude 0 must be a finite real or complex number, got '1'"),
            ([True, False], "amplitude 0 must be a finite real or complex number, got True"),
            ([None, 1.0], "amplitude 0 must be a finite real or complex number, got None"),
            ([1.0, float("inf")], "amplitude 1 must be a finite real or complex number, got inf"),
            ([[1.0], ["0"]], "amplitude 1 must be a finite real or complex number, got '0'"),
            (np.array(["1", "0"]), "amplitudes must be numbers, got an array of dtype <U1: amplitude 0 is np.str_('1')"),
            (np.array([True, False]), "amplitudes must be numbers, got an array of dtype bool: amplitude 0 is np.True_"),
        ],
        ids=["strings", "bools", "none", "inf", "nested", "string-array", "bool-array"],
    )
    def test_rejects_entries_that_are_not_numbers(self, amplitudes, entry):
        # numpy alone would read strings and bools as numbers, and None as NaN, which the norm then blames
        with pytest.raises(ValueError) as exc:
            PureState(SubsystemLayout.of(A=2), amplitudes)
        assert str(exc.value) == entry

    @pytest.mark.parametrize(
        "amplitudes",
        [[1, 0], [np.complex64(1), 0.0], [Fraction(1, 2), 0.5j], np.array([1, 0], dtype=object), [[1.0], [0.0]]],
        ids=["ints", "complex64", "fraction", "object-array", "nested"],
    )
    def test_accepts_any_finite_numbers(self, amplitudes):
        state = PureState(SubsystemLayout.of(A=2), amplitudes)
        converted = PureState(SubsystemLayout.of(A=2), np.array(amplitudes, dtype=complex))
        assert state.amplitudes.tobytes() == converted.amplitudes.tobytes()

    def test_rejects_zero_state(self):
        with pytest.raises(ValueError):
            PureState(SubsystemLayout.of(A=2), [0.0, 0.0])

    def test_amplitudes_immutable(self):
        s = basis_state(SubsystemLayout.of(A=2, B=2), (0, 1))
        with pytest.raises(ValueError):
            s.amplitudes[0] = 1.0


class TestTensor:
    def test_basis_kets(self):
        a = basis_state(SubsystemLayout.of(A=2), (0,))
        b = basis_state(SubsystemLayout.of(B=2), (1,))
        t = tensor(a, b)
        assert t.layout == SubsystemLayout.of(A=2, B=2)
        assert np.allclose(t.amplitudes, [0, 1, 0, 0])

    def test_rejects_duplicate_labels(self):
        a = basis_state(SubsystemLayout.of(A=2), (0,))
        with pytest.raises(ValueError):
            tensor(a, a)

    def test_trivial_part_relabeling(self):
        a = random_state(SubsystemLayout.of(A=2, B=3), np.random.default_rng(1))
        e = basis_state(SubsystemLayout.of(E=1), (0,))
        assert np.array_equal(tensor(a, e).amplitudes, a.amplitudes)

    def test_product_cut_is_unentangled(self):
        rng = np.random.default_rng(5)
        a = random_state(SubsystemLayout.of(A=3), rng)
        b = random_state(SubsystemLayout.of(B=4), rng)
        lam = schmidt(tensor(a, b), AB)
        assert lam.entries[0] == pytest.approx(1.0, abs=1e-12)


class TestPermuteParts:
    def test_identity_returns_same_amplitudes(self):
        s = random_state(SubsystemLayout.of(A=2, B=2), np.random.default_rng(0))
        assert np.array_equal(permute_parts(s, ("A", "B")).amplitudes, s.amplitudes)

    def test_round_trip_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            layout = random_layout(rng)
            s = random_state(layout, rng)
            order = list(layout.labels)
            rng.shuffle(order)
            back = permute_parts(permute_parts(s, order), layout.labels)
            assert np.array_equal(back.amplitudes, s.amplitudes)

    def test_basis_ket_labels_swap(self):
        layout = SubsystemLayout.of(A=2, B=3)
        s = basis_state(layout, (1, 2))
        p = permute_parts(s, ("B", "A"))
        assert np.array_equal(p.amplitudes, basis_state(p.layout, (2, 1)).amplitudes)

    def test_rejects_non_permutation(self):
        s = basis_state(SubsystemLayout.of(A=2, B=2), (0, 0))
        with pytest.raises(ValueError):
            permute_parts(s, ("A", "A"))

    def test_schmidt_invariant_under_permutation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            layout = random_layout(rng)
            s = random_state(layout, rng)
            cut = random_cut(layout, rng)
            order = list(layout.labels)
            rng.shuffle(order)
            lam1 = schmidt(s, cut)
            lam2 = schmidt(permute_parts(s, order), cut)
            assert np.allclose(lam1.entries, lam2.entries, atol=1e-12)


class TestSchmidt:
    def test_bell_state(self):
        lam = schmidt(bell_states()[0], AB)
        assert np.allclose(lam.entries, [0.5, 0.5], atol=1e-12)

    def test_joint_bell_superposition_is_product_across_acbd(self):
        # Bell states paired with themselves regroup into two maximally
        # entangled pairs, so the AC:BD cut sees a product state.
        joint = sum_bell_joint()
        lam = schmidt(joint, ACBD)
        assert np.allclose(lam.entries, [1, 0, 0, 0], atol=1e-10)

    def test_s1_is_maximally_entangled(self):
        lam = schmidt(set_s()[0], AB)
        assert np.allclose(lam.entries, [1 / 3] * 3, atol=1e-12)

    def test_descending_and_normalized(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            layout = random_layout(rng)
            lam = schmidt(random_state(layout, rng), random_cut(layout, rng))
            assert np.all(np.diff(lam.entries) <= 1e-15)
            assert lam.entries.sum() == pytest.approx(1.0, abs=1e-10)
            assert lam.entries.min() >= 0


def _stack_of(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    if dtype == np.complex128:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


# 2-D input, m < n, m > n, m = n, (..., 1, n) and an empty leading axis
NAMED_SHAPES = [(3, 5), (4, 2), (2, 3, 3), (2, 3, 1, 4), (0, 3, 3), (3, 0, 2, 2)]
DTYPES = [np.complex128, np.float64]


def _with_named_shapes(test):
    for shape in NAMED_SHAPES:
        test = example(lead=list(shape[:-2]), m=shape[-2], n=shape[-1], seed=5)(test)
    return test


class TestSingularValues:
    """``states._singular_values`` gives the bytes of ``np.linalg.svd(a, compute_uv=False)``."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @settings(max_examples=40, deadline=None)
    @given(
        lead=st.lists(st.integers(0, 3), max_size=2),
        m=st.integers(1, 6),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @_with_named_shapes
    def test_bytes_match_numpy(self, dtype, lead, m, n, seed):
        a = _stack_of((*lead, m, n), dtype, seed)
        got = states_module._singular_values(a)
        want = np.linalg.svd(a, compute_uv=False)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fallback", [False, True])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_nan_raises_linalg_error_without_warning(self, monkeypatch, dtype, fallback):
        if fallback:
            monkeypatch.setattr(states_module, "_lapack_svd", None)
        a = _stack_of((2, 3, 3), dtype, 1)
        a[1, 0, 2] = np.nan
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
                states_module._singular_values(a)
        assert caught == []

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", NAMED_SHAPES)
    def test_fallback_gives_the_same_bytes(self, monkeypatch, count, shape, dtype):
        a = _stack_of(shape, dtype, 9)
        fast = states_module._singular_values(a)
        monkeypatch.setattr(states_module, "_lapack_svd", None)
        calls = count(np.linalg, "svd")
        slow = states_module._singular_values(a)
        assert calls == [1]
        assert (slow.dtype, slow.tobytes()) == (fast.dtype, fast.tobytes())


class TestReducedDensityOracle:
    def test_product_ket(self):
        s = basis_state(SubsystemLayout.of(A=2, B=2), (0, 1))
        assert np.allclose(reduced_density_spectrum(s, AB).entries, [1, 0], atol=1e-12)

    def test_bell(self):
        assert np.allclose(
            reduced_density_spectrum(bell_states()[0], AB).entries, [0.5, 0.5], atol=1e-12
        )

    def test_agrees_with_schmidt_on_random_states(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            layout = random_layout(rng)
            s = random_state(layout, rng)
            cut = random_cut(layout, rng)
            a = schmidt(s, cut)
            b = reduced_density_spectrum(s, cut)
            assert np.allclose(a.entries, b.entries, atol=1e-9)


class TestConjugate:
    def test_real_bell_fixed(self):
        b1 = bell_states()[0]
        assert np.array_equal(conjugate(b1).amplitudes, b1.amplitudes)

    def test_conjugation_swaps_s1_s2(self):
        s1, s2, _ = set_s()
        assert np.allclose(conjugate(s1).amplitudes, s2.amplitudes, atol=1e-15)

    def test_involution(self):
        s = random_state(SubsystemLayout.of(A=3, B=2), np.random.default_rng(2))
        assert np.array_equal(conjugate(conjugate(s)).amplitudes, s.amplitudes)

    def test_schmidt_invariant(self):
        rng = np.random.default_rng(23)
        layout = SubsystemLayout.of(A=3, B=3)
        for _ in range(10):
            s = random_state(layout, rng)
            assert np.allclose(
                schmidt(s, AB).entries, schmidt(conjugate(s), AB).entries, atol=1e-12
            )


class TestIsProduct:
    def test_product_ket(self):
        assert is_product(basis_state(SubsystemLayout.of(A=2, B=2), (0, 1)), AB, 1e-9)

    def test_bell_not_product(self):
        assert not is_product(bell_states()[0], AB, 1e-9)

    def test_joint_bell_product_across_acbd(self):
        assert is_product(sum_bell_joint(), ACBD, 1e-9)


class TestValidateStateSet:
    def test_bell_basis_complete(self):
        rep = validate_state_set(bell_states())
        assert rep.passed and rep.complete and rep.size == 4

    def test_s_prime_incomplete(self):
        rep = validate_state_set(set_s_prime())
        assert rep.passed and not rep.complete
        assert (rep.size, rep.dim) == (3, 9)

    def test_repeated_state_fails(self):
        b = bell_states()
        rep = validate_state_set([b[0], b[0]])
        assert not rep.passed
        assert rep.max_offdiagonal == pytest.approx(1.0)

    def test_mixed_layouts_rejected(self):
        with pytest.raises(ValueError):
            validate_state_set([bell_states()[0], basis_state(SubsystemLayout.of(A=2), (0,))])

    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_report_follows_the_gram_matrix(self, k):
        rng = np.random.default_rng(k)
        states = [random_state(SubsystemLayout.of(A=2, B=3), rng) for _ in range(k)]
        rep = validate_state_set(states)
        mat = np.array([s.amplitudes for s in states])
        gram = mat @ mat.conj().T
        assert np.array_equal(rep.gram, gram) and not rep.gram.flags.writeable
        off = float(np.abs(gram - np.diag(np.diag(gram))).max()) if k > 1 else 0.0
        assert rep.max_offdiagonal == off
        assert rep.max_norm_error == float(np.abs(np.sqrt(np.real(np.diag(gram))) - 1.0).max())
        assert rep.passed == (k == 1)

    def test_normalization_note_recorded(self):
        layout = SubsystemLayout.of(A=2)
        rep = validate_state_set([PureState(layout, [2.0, 0.0])])
        assert any("input norm" in n for n in rep.normalization_notes)


class TestRandomBasis:
    def test_reproducible(self):
        layout = SubsystemLayout.of(A=2, B=3)
        a = random_orthonormal_basis(layout, 42)
        b = random_orthonormal_basis(layout, 42)
        for x, y in zip(a, b):
            assert np.array_equal(x.amplitudes, y.amplitudes)

    def test_size_and_gram(self):
        layout = SubsystemLayout.of(A=3, B=3)
        basis = random_orthonormal_basis(layout, 0)
        assert len(basis) == 9
        gram = np.array([[inner(x, y) for y in basis] for x in basis])
        assert np.abs(gram - np.eye(9)).max() < 1e-9

    def test_passes_validation(self):
        for seed in range(5):
            rep = validate_state_set(random_orthonormal_basis(SubsystemLayout.of(A=2, B=2), seed))
            assert rep.passed and rep.complete

    def test_states_hold_the_unitary_columns(self):
        # the basis states wrap the rows of one read-only stack, the unitary's columns, as they are
        layout = SubsystemLayout.of(A=2, B=3)
        q = states_module._haar_unitary(np.random.default_rng(7), 6)
        basis = random_orthonormal_basis(layout, 7)
        for column, state in zip(q.T, basis):
            assert state.amplitudes.tobytes() == column.tobytes() and state.input_norm == 1.0
            assert state.layout is layout and not state.amplitudes.flags.writeable
        assert isinstance(basis, list)


class TestCutParsing:
    def test_compact_and_comma_forms(self):
        layout = SubsystemLayout.of(A=2, B=2, C=2, D=2)
        assert parse_cut("AC:BD", layout) == Bipartition(("A", "C"), ("B", "D"))
        assert parse_cut("A,C:B,D", layout) == Bipartition(("A", "C"), ("B", "D"))

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            parse_cut("AX:B", SubsystemLayout.of(A=2, B=2))

    def test_comma_form_rejects_unknown_labels(self):
        with pytest.raises(ValueError, match=r"cannot match 'X' against layout labels \('A', 'B'\)"):
            parse_cut("X,Y:B", SubsystemLayout.of(A=2, B=2))

    @pytest.mark.parametrize("label", ["A,B", "A:B", ",", ":"])
    def test_cut_separator_in_a_label_rejected(self, label):
        # no cut on such a label could be written or read back
        with pytest.raises(ValueError, match=f"part label {label!r} holds ',' or ':'"):
            SubsystemLayout(((label, 2), ("C", 2)))

    @pytest.mark.parametrize("left", [("A", "A"), ("A", "C", "A")])
    def test_repeated_label_rejected(self, left):
        with pytest.raises(ValueError, match="label 'A' is repeated"):
            Bipartition(left, ("B",))
        with pytest.raises(ValueError, match="label 'A' is repeated"):
            parse_cut("".join(left) + ":B", SubsystemLayout.of(A=2, B=2, C=2))

    def test_greedy_miss_suggests_the_comma_form(self):
        # greedy longest-match reads AB first and cannot go on; A then BC spells the side
        layout = SubsystemLayout.of(A=2, AB=2, BC=2, D=2)
        with pytest.raises(ValueError, match=r"cannot match 'C'.*as in 'A,BC:D'$"):
            parse_cut("ABC:D", layout)
        assert parse_cut("A,BC:D", layout) == Bipartition(("A", "BC"), ("D",))
        assert str(parse_cut("A,BC:D", layout)) == "A,BC:D"  # and is written back in it

    @pytest.mark.parametrize(
        "labels", [("A", "B", "C", "D"), ("A", "AB", "BC", "D"), ("X1", "X2", "Y")], ids=["one", "multi", "indexed"]
    )
    def test_every_cut_reads_back(self, labels):
        layout = SubsystemLayout(tuple((label, 2) for label in labels))
        for size in range(1, len(labels)):
            for left in permutations(labels, size):
                for right in permutations([l for l in labels if l not in left]):
                    cut = Bipartition(left, right)
                    assert parse_cut(str(cut), layout) == cut
                    if all(len(label) == 1 for label in labels):  # reports keep the plain form
                        assert str(cut) == "".join(left) + ":" + "".join(right)

    def test_relabel(self):
        moved = relabel(bell_states()[0], ("C", "D"))
        assert moved.layout == SubsystemLayout.of(C=2, D=2)
        assert np.array_equal(moved.amplitudes, bell_states()[0].amplitudes)


def sum_bell_joint():
    """(1/2) sum_i B_i x B_i on (A, B, C, D)."""
    amps = np.zeros(16, dtype=complex)
    for ab, cd in zip(bell_states(("A", "B")), bell_states(("C", "D"))):
        amps += 0.5 * np.kron(ab.amplitudes, cd.amplitudes)
    return PureState(SubsystemLayout.of(A=2, B=2, C=2, D=2), amps)
