import dataclasses
from itertools import product

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_margin, reduced_density_spectrum

import locc_witness.states as states_module
import locc_witness.witness as witness_module

from locc_witness.catalog import (
    bell_states,
    computational_basis,
    domino_basis,
    maximally_entangled,
    omega_basis,
    set_s,
    set_s_prime,
)
from locc_witness.majorization import SchmidtEnsemble, SchmidtVector
from locc_witness.states import (
    Bipartition,
    PureState,
    SubsystemLayout,
    _haar_unitary,
    _stack,
    basis_state,
    conjugate,
    permute_parts,
    random_orthonormal_basis,
    random_state,
    relabel,
    schmidt,
    tensor,
    validate_state_set,
)
from locc_witness.witness import (
    ALL_PRODUCT,
    CERTIFIED_INDISTINGUISHABLE,
    CONTAINS_ENTANGLED,
    INCONCLUSIVE,
    WitnessProblem,
    bipartite_cut_reduction,
    build_joint_state,
    check_witness,
    classify_full_basis,
    full_basis_problem,
    multipartite_product_check,
    verify_one_way_protocol,
)

ACBD = Bipartition(("A", "C"), ("B", "D"))


def bell_problem():
    return WitnessProblem(
        tuple(bell_states()), tuple(bell_states(("C", "D"))), (0.25,) * 4
    )


def s_prime_problem(assignment=(0, 1, 2), probs=(0.16, 0.16, 0.68)):
    dets = bell_states(("C", "D"))
    return WitnessProblem(
        tuple(set_s_prime()), tuple(dets[i] for i in assignment), tuple(probs)
    )


class TestWitnessProblem:
    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            WitnessProblem(tuple(bell_states()), tuple(bell_states(("C", "D"))[:3]), (0.25,) * 4)

    def test_nonorthogonal_states_rejected(self):
        b = bell_states()
        with pytest.raises(ValueError):
            WitnessProblem((b[0], b[0]), tuple(bell_states(("C", "D"))[:2]), (0.5, 0.5))

    def test_label_collision_rejected(self):
        with pytest.raises(ValueError):
            WitnessProblem(tuple(bell_states()), tuple(bell_states()), (0.25,) * 4)

    def test_three_part_states_rejected(self):
        states = computational_basis(SubsystemLayout.of(A=2, B=2, C=2))[:2]
        with pytest.raises(ValueError, match="state set needs a two-part layout, got A:2 x B:2 x C:2$"):
            WitnessProblem(tuple(states), tuple(bell_states(("D", "E"))[:2]), (0.5, 0.5))

    def test_three_part_detectors_rejected(self):
        detectors = computational_basis(SubsystemLayout.of(C=2, D=2, E=2))[:2]
        with pytest.raises(ValueError, match="detector set needs a two-part layout, got C:2 x D:2 x E:2$"):
            WitnessProblem(tuple(bell_states()[:2]), tuple(detectors), (0.5, 0.5))

    def test_bad_probability_sum(self):
        with pytest.raises(ValueError):
            WitnessProblem(
                tuple(bell_states()), tuple(bell_states(("C", "D"))), (0.3, 0.3, 0.3, 0.3)
            )

    def test_nonorthogonal_detectors_accepted(self):
        # detectors need not be orthogonal; the states' orthogonality
        # already normalizes the superposition
        dets = bell_states(("C", "D"))
        skewed = PureState(dets[0].layout, dets[0].amplitudes + 0.5 * dets[1].amplitudes)
        problem = WitnessProblem(
            tuple(bell_states()), (dets[0], skewed, dets[2], dets[3]), (0.25,) * 4
        )
        joint = build_joint_state(problem)
        assert joint.input_norm == pytest.approx(1.0, abs=1e-12)

    def test_witness_cut(self):
        assert bell_problem().witness_cut() == ACBD

    def test_nonfinite_inputs_rejected(self):
        # every range check is a comparison, which NaN passes
        nan = float("nan")
        with pytest.raises(ValueError, match="probabilities must be finite"):
            WitnessProblem(tuple(bell_states()), tuple(bell_states(("C", "D"))), (nan, 0.5, 0.25, 0.25))
        layout = SubsystemLayout.of(A=2, B=2)
        for amps in ([nan, 1, 0, 0], [1e308, 0, 0, 0]):
            with pytest.raises(ValueError, match="norm .* is not finite"):
                PureState(layout, amps)
        with pytest.raises(ValueError, match="Schmidt entries must be finite"):
            SchmidtVector([nan, 1.0])
        with pytest.raises(ValueError, match="probabilities must be finite"):
            SchmidtEnsemble([(nan, SchmidtVector([1.0]))])


    def test_kept_stacks_match_states_and_are_read_only(self):
        problem = s_prime_problem()
        assert [f.name for f in dataclasses.fields(WitnessProblem)] == ["states", "detectors", "probs"]
        for kept, group in ((problem._state_stack, problem.states), (problem._detector_stack, problem.detectors)):
            assert kept.shape == _stack(group).shape and np.array_equal(kept, _stack(group))
            assert not kept.flags.writeable

    def test_kept_weights_clip_dust_and_are_read_only(self):
        probs = (0.5 + 5e-13, -5e-13, 0.25, 0.25)
        problem = WitnessProblem(tuple(bell_states()), tuple(bell_states(("C", "D"))), probs)
        assert problem._weights.tolist() == [0.5 + 5e-13, 0.0, 0.25, 0.25]
        assert not problem._weights.flags.writeable
        assert problem.zero_probability_indices() == (1,)  # read from the raw probabilities
        assert dataclasses.replace(problem, probs=(0.25,) * 4)._weights.tolist() == [0.25] * 4

    def test_generator_inputs_build_the_tuple_problem(self):
        # each input is read once, so one-shot iterables build the same problem as tuples
        states, detectors, probs = tuple(bell_states()), tuple(bell_states(("C", "D"))), (0.25,) * 4
        expected = WitnessProblem(states, detectors, probs)
        problem = WitnessProblem((s for s in states), (d for d in detectors), (p for p in probs))
        for field in dataclasses.fields(WitnessProblem):
            assert getattr(problem, field.name) == getattr(expected, field.name)
        for name in ("_state_stack", "_detector_stack", "_weights"):
            assert getattr(problem, name).tobytes() == getattr(expected, name).tobytes()

    def test_replace_rebuilds_the_stacks(self):
        problem = s_prime_problem()
        reweighted = dataclasses.replace(problem, probs=(0.2, 0.3, 0.5))
        assert reweighted._state_stack is not problem._state_stack
        assert np.array_equal(reweighted._state_stack, problem._state_stack)
        reassigned = dataclasses.replace(problem, detectors=problem.detectors[::-1])
        assert np.array_equal(reassigned._detector_stack, problem._detector_stack[::-1])


class TestCheckPathWorksOnce:
    # counts, not timings: the check path stacks and validates each state set once

    def test_check_witness_stacks_nothing(self, count):
        problem = s_prime_problem()
        stacks = count(states_module, "_stack", [witness_module])
        check_witness(problem)
        build_joint_state(problem)
        assert stacks == [0]

    def test_building_a_problem_runs_one_gram(self, count):
        grams = count(states_module, "_gram")
        validations = count(states_module, "validate_state_set")
        s_prime_problem()
        assert (grams, validations) == ([1], [0])


class TestFullBasisWorksOnce:
    # counts, not timings: an entangled basis is stacked, validated, decomposed and superposed once

    def test_entangled_basis_is_decomposed_and_superposed_once(self, count, monkeypatch):
        basis = random_orthonormal_basis(SubsystemLayout.of(A=3, B=3), 0)
        branches = count(witness_module, "_branches")
        superpositions = count(witness_module, "_superpose")
        decomposed = []
        real_svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            decomposed.append(np.array(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        result = classify_full_basis(basis)
        assert result.classification == CONTAINS_ENTANGLED
        assert (branches, superpositions) == ([1], [1])
        # the (k, m, n) basis stack and the one AC:BD matrix; no (k, d) detector-rank matrix
        assert [a.shape for a in decomposed] == [(9, 3, 3), (1, 9, 9)]
        assert np.array_equal(decomposed[0], _stack(basis))

    @pytest.mark.parametrize("build", [classify_full_basis, full_basis_problem])
    def test_entangled_basis_is_stacked_and_validated_once(self, count, build):
        basis = random_orthonormal_basis(SubsystemLayout.of(A=3, B=3), 0)
        stacks = count(states_module, "_stack", [witness_module])
        grams = count(states_module, "_gram")
        build(basis)
        assert (stacks, grams) == ([1], [1])  # the detectors' stack is the basis stack's conjugate

    def test_full_basis_keeps_every_live_warning(self):
        basis = random_orthonormal_basis(SubsystemLayout.of(A=3, B=3), 0)
        basis[0], basis[4] = (PureState(s.layout, c * s.amplitudes) for s, c in ((basis[0], 2.0), (basis[4], 0.5)))
        problem = full_basis_problem(basis)
        warnings = classify_full_basis(basis).witness.warnings
        assert warnings == check_witness(problem).warnings
        assert warnings == ("state 0: input norm 2 (renormalized)", "state 4: input norm 0.5 (renormalized)")
        rebuilt = WitnessProblem(problem.states, problem.detectors, problem.probs)
        assert rebuilt._detector_stack.tobytes() == problem._detector_stack.tobytes()
        assert rebuilt._detector_stack.shape == problem._detector_stack.shape
        assert not problem._detector_stack.flags.writeable

    def test_product_basis_builds_no_problem(self, count):
        builds = count(WitnessProblem, "_bind")
        assert classify_full_basis(computational_basis(SubsystemLayout.of(A=3, B=3))).witness is None
        assert builds == [0]
        classify_full_basis(bell_states())
        assert builds == [1]


class TestStateSetsStackOnce:
    # counts, not timings: a public entry point stacks each state set it takes once

    def test_multipartite_check_stacks_once(self, count):
        basis = computational_basis(SubsystemLayout.of(A=2, B=2, C=2))
        stacks = count(states_module, "_stack", [witness_module])
        assert multipartite_product_check(basis)
        assert stacks == [1]

    def test_product_basis_classification_stacks_once(self, count):
        basis = computational_basis(SubsystemLayout.of(A=3, B=3))
        stacks = count(states_module, "_stack", [witness_module])
        assert classify_full_basis(basis).classification == ALL_PRODUCT
        assert stacks == [1]


class TestBuildJointState:
    def test_single_pair_is_tensor(self):
        psi = bell_states()[0]
        phi = bell_states(("C", "D"))[1]
        problem = WitnessProblem((psi,), (phi,), (1.0,))
        joint = build_joint_state(problem)
        assert np.allclose(joint.amplitudes, tensor(psi, phi).amplitudes, atol=1e-15)

    def test_bell_superposition_regroups_to_product(self):
        joint = build_joint_state(bell_problem())
        regrouped = permute_parts(joint, ("A", "C", "B", "D"))
        expected = tensor(
            maximally_entangled(2, ("A", "C")), maximally_entangled(2, ("B", "D"))
        )
        assert np.abs(regrouped.amplitudes - expected.amplitudes).max() <= 1e-12

    @pytest.mark.parametrize("overlap", [1.5e-10, 4e-10])
    def test_joint_norm_bound_is_the_schmidt_sum_bound(self, overlap):
        # orthonormal within the default 1e-9, but with equal detectors the
        # joint state's squared norm is 1 + overlap, beyond SUM_TOL
        layout = SubsystemLayout.of(A=2, B=2)
        states = (PureState(layout, [1, 0, 0, 0]), PureState(layout, [overlap, 1, 0, 0]))
        phi_plus = bell_states(("C", "D"))[0]
        problem = WitnessProblem(states, (phi_plus, phi_plus), (0.5, 0.5))
        for run in (build_joint_state, check_witness):
            with pytest.raises(ValueError, match="not orthonormal enough for these detectors"):
                run(problem)

    def test_s_prime_joint_dimensions_and_oracle(self):
        joint = build_joint_state(s_prime_problem())
        assert joint.layout.dim == 36
        main = schmidt(joint, ACBD)
        oracle = reduced_density_spectrum(joint, ACBD)
        assert np.allclose(main.entries, oracle.entries, atol=1e-9)


class TestCheckWitness:
    def test_bell_certified_margin_half(self):
        report = check_witness(bell_problem())
        assert report.verdict == CERTIFIED_INDISTINGUISHABLE
        assert report.margin == pytest.approx(0.5, abs=1e-9)
        assert np.allclose(report.source_schmidt.entries, [1, 0, 0, 0], atol=1e-10)
        assert np.allclose(report.target_average.entries, [0.5, 0.5, 0, 0], atol=1e-12)

    def test_s_prime_certified(self):
        report = check_witness(s_prime_problem())
        assert report.verdict == CERTIFIED_INDISTINGUISHABLE
        assert report.margin > 1e-3

    def test_s_not_certified_any_assignment(self):
        from itertools import permutations

        dets = bell_states(("C", "D"))
        for combo in permutations(range(4), 3):
            problem = WitnessProblem(
                tuple(set_s()), tuple(dets[i] for i in combo), (0.16, 0.16, 0.68)
            )
            assert check_witness(problem).verdict == INCONCLUSIVE

    def test_computational_states_with_conjugate_detectors_inconclusive(self):
        basis = computational_basis(SubsystemLayout.of(A=2, B=2))
        dets = tuple(relabel(conjugate(s), ("C", "D")) for s in basis)
        report = check_witness(WitnessProblem(tuple(basis), dets, (0.25,) * 4))
        assert report.verdict == INCONCLUSIVE
        assert abs(report.margin) <= 1e-12

    def test_zero_probability_flagged(self):
        b = bell_states()
        dets = bell_states(("C", "D"))
        problem = WitnessProblem(tuple(b[:3]), tuple(dets[:3]), (0.5, 0.5, 0.0))
        report = check_witness(problem)
        assert problem.zero_probability_indices() == (2,)
        assert any("sub-ensemble" in w for w in report.warnings)

    def test_dependent_detectors_warned(self):
        dets = bell_states(("C", "D"))
        problem = WitnessProblem(
            tuple(bell_states()[:2]), (dets[0], dets[0]), (0.5, 0.5)
        )
        report = check_witness(problem)
        assert any("linearly dependent" in w for w in report.warnings)

    def test_scaling_robust(self):
        # constructors normalize, so real rescaling of any input changes nothing
        base = s_prime_problem()
        ref = check_witness(base)
        states = tuple(PureState(s.layout, 3.0 * s.amplitudes) for s in base.states)
        dets = tuple(PureState(d.layout, 0.2 * d.amplitudes) for d in base.detectors)
        report = check_witness(WitnessProblem(states, dets, base.probs))
        assert report.verdict == ref.verdict
        assert report.margin == pytest.approx(ref.margin, abs=1e-12)

    def test_common_phase_robust(self):
        base = s_prime_problem()
        ref = check_witness(base)
        ph = np.exp(1.3j)
        states = tuple(PureState(s.layout, ph * s.amplitudes) for s in base.states)
        report = check_witness(WitnessProblem(states, base.detectors, base.probs))
        assert report.verdict == ref.verdict
        assert report.margin == pytest.approx(ref.margin, abs=1e-10)

    def test_compensated_phases_robust(self):
        # a phase moved from a state onto its detector leaves the joint
        # superposition, hence the margin, unchanged
        rng = np.random.default_rng(99)
        base = s_prime_problem()
        ref = check_witness(base)
        thetas = rng.uniform(0, 2 * np.pi, size=3)
        states = tuple(
            PureState(s.layout, np.exp(1j * t) * s.amplitudes)
            for t, s in zip(thetas, base.states)
        )
        dets = tuple(
            PureState(d.layout, np.exp(-1j * t) * d.amplitudes)
            for t, d in zip(thetas, base.detectors)
        )
        report = check_witness(WitnessProblem(states, dets, base.probs))
        assert report.verdict == ref.verdict
        assert report.margin == pytest.approx(ref.margin, abs=1e-10)

    def test_branch_phases_select_a_different_witness(self):
        # relative phases between superposition branches are part of the
        # witness configuration: flipping one branch of the Bell witness
        # destroys its product structure and the certificate with it
        states = list(bell_states())
        states[0] = PureState(states[0].layout, -states[0].amplitudes)
        report = check_witness(
            WitnessProblem(tuple(states), tuple(bell_states(("C", "D"))), (0.25,) * 4)
        )
        assert report.verdict == INCONCLUSIVE

    def test_nan_margin_is_never_certified(self, monkeypatch):
        real = witness_module._conversion

        def nan_margin(*args):
            return dataclasses.replace(real(*args), margin=float("nan"), allowed=False)

        monkeypatch.setattr(witness_module, "_conversion", nan_margin)
        assert check_witness(bell_problem()).verdict == INCONCLUSIVE

    def test_margin_matches_oracle_on_random_problems(self):
        # non-square detectors catch a swapped C/D axis in the stacked
        # kernel; zero and negative-dust probabilities catch a missing clip.
        # Most random margins sit at the structural final 0, so the source
        # spectrum is compared with the partial-trace oracle as well.
        rng = np.random.default_rng(31)
        variants = {"simplex": 0, "zero": 0, "dust": 0}
        cases = product(((2, 2), (2, 3), (3, 3)), ((2, 2), (2, 3), (3, 2)), range(1, 5))
        for i, ((m, n), (c, d), k) in enumerate(cases):
            basis = random_orthonormal_basis(SubsystemLayout.of(A=m, B=n), i)
            dets = tuple(random_state(SubsystemLayout.of(C=c, D=d), rng) for _ in range(k))
            kind = "simplex" if k == 1 else ("simplex", "zero", "dust")[i % 3]
            probs = list(rng.dirichlet(np.ones(k if kind == "simplex" else k - 1)))
            if kind != "simplex":
                probs.insert(int(rng.integers(0, k)), 0.0 if kind == "zero" else -1e-13)
            variants[kind] += 1
            problem = WitnessProblem(tuple(basis[:k]), dets, tuple(probs))
            report = check_witness(problem)
            assert report.margin == pytest.approx(oracle_margin(problem), abs=1e-10)
            oracle = reduced_density_spectrum(build_joint_state(problem), ACBD)
            assert np.abs(report.source_schmidt.entries - oracle.entries).max() <= 1e-10
        assert min(variants.values()) >= 9

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tol_must_be_positive_and_finite(self, tol):
        # at tol 0 float dust alone would certify
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            check_witness(bell_problem(), tol)

    def test_orthogonal_pairs_never_certified(self):
        # any two orthogonal states are LOCC distinguishable, so a sound
        # witness may never certify a pair
        rng = np.random.default_rng(1234)
        det_layout = SubsystemLayout.of(C=2, D=2)
        for trial in range(100):
            m, n = rng.choice([2, 3], size=2)
            layout = SubsystemLayout.of(A=int(m), B=int(n))
            a = random_state(layout, rng)
            z = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
            z -= np.vdot(a.amplitudes, z) * a.amplitudes
            pair = (a, PureState(layout, z))
            dets = (random_state(det_layout, rng), random_state(det_layout, rng))
            p = rng.uniform(0.05, 0.95)
            report = check_witness(WitnessProblem(pair, dets, (p, 1 - p)))
            assert report.verdict == INCONCLUSIVE, f"false certificate at trial {trial}"


WITNESS_CASES = st.tuples(
    st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),  # state dimensions A, B
    st.sampled_from([(2, 2), (2, 3), (3, 2)]),  # detector dimensions C, D
    st.integers(1, 4),  # number of states
    st.integers(0, 2**32 - 1),  # seed of the amplitudes and probabilities
)


def _random_case(case):
    """(k, d_A, d_B) orthonormal states, (k, d_C, d_D) unit detectors, probabilities and an rng."""
    (da, db), (dc, dd), k, seed = case
    rng = np.random.default_rng(seed)
    psi = _haar_unitary(rng, da * db)[:, :k].T.reshape(k, da, db)
    phi = rng.standard_normal((k, dc, dd)) + 1j * rng.standard_normal((k, dc, dd))
    phi /= np.linalg.norm(phi.reshape(k, -1), axis=1)[:, None, None]
    return psi, phi, rng.dirichlet(np.ones(k)), rng


def _witness(psi, phi, probs):
    _, da, db = psi.shape
    _, dc, dd = phi.shape
    states = tuple(PureState(SubsystemLayout.of(A=da, B=db), m) for m in psi)
    detectors = tuple(PureState(SubsystemLayout.of(C=dc, D=dd), m) for m in phi)
    return check_witness(WitnessProblem(states, detectors, tuple(probs)))


def _assert_same_witness(a, b):
    n = max(len(a.source_schmidt), len(b.source_schmidt))
    for va, vb in ((a.source_schmidt, b.source_schmidt), (a.target_average, b.target_average)):
        assert np.abs(va.padded(n) - vb.padded(n)).max() <= 1e-12
    assert abs(a.margin - b.margin) <= 1e-12


class TestWitnessInvariances:
    """Transformations that leave the physics alone leave the witness alone."""

    @settings(max_examples=40, deadline=None)
    @given(WITNESS_CASES)
    def test_local_unitaries(self, case):
        psi, phi, probs, rng = _random_case(case)
        ua, ub = (_haar_unitary(rng, d) for d in psi.shape[1:])
        uc, ud = (_haar_unitary(rng, d) for d in phi.shape[1:])
        moved = _witness(ua @ psi @ ub.T, uc @ phi @ ud.T, probs)
        _assert_same_witness(_witness(psi, phi, probs), moved)

    @settings(max_examples=40, deadline=None)
    @given(WITNESS_CASES)
    def test_joint_permutation_of_triples(self, case):
        psi, phi, probs, rng = _random_case(case)
        order = rng.permutation(len(probs))
        _assert_same_witness(_witness(psi, phi, probs), _witness(psi[order], phi[order], probs[order]))

    @settings(max_examples=40, deadline=None)
    @given(WITNESS_CASES)
    def test_complex_conjugation(self, case):
        psi, phi, probs, _ = _random_case(case)
        _assert_same_witness(_witness(psi, phi, probs), _witness(psi.conj(), phi.conj(), probs))

    @settings(max_examples=40, deadline=None)
    @given(WITNESS_CASES, st.sampled_from("ABCD"))
    def test_zero_padding_one_local_dimension(self, case, part):
        psi, phi, probs, _ = _random_case(case)
        pad = [(0, 0), (0, 0), (0, 0)]
        pad["ABCD".index(part) % 2 + 1] = (0, 1)
        padded = (np.pad(psi, pad), phi) if part in "AB" else (psi, np.pad(phi, pad))
        _assert_same_witness(_witness(psi, phi, probs), _witness(*padded, probs))

    @settings(max_examples=40, deadline=None)
    @given(WITNESS_CASES, st.sampled_from("ABCD"))
    def test_product_ancilla_on_one_part(self, case, part):
        # every state (or every detector) gets the same ancilla on one part,
        # a local isometry that changes no Schmidt coefficient
        psi, phi, probs, rng = _random_case(case)
        ancilla = _haar_unitary(rng, 2)[:, 0]
        axis = "ABCD".index(part) % 2 + 1
        stack = psi if part in "AB" else phi
        shape = list(stack.shape)
        shape[axis] *= ancilla.size
        grown = np.moveaxis(np.multiply.outer(stack, ancilla), -1, axis + 1).reshape(shape)
        moved = (grown, phi) if part in "AB" else (psi, grown)
        _assert_same_witness(_witness(psi, phi, probs), _witness(*moved, probs))


class TestFullBasisProblem:
    def test_computational_basis_inconclusive(self):
        basis = computational_basis(SubsystemLayout.of(A=2, B=2))
        report = check_witness(full_basis_problem(basis))
        assert report.verdict == INCONCLUSIVE

    def test_bell_basis_certified(self):
        report = check_witness(full_basis_problem(bell_states()))
        assert report.verdict == CERTIFIED_INDISTINGUISHABLE
        assert report.margin == pytest.approx(0.5, abs=1e-9)

    def test_random_bases_certified_when_entangled(self):
        cut = Bipartition(("A",), ("B",))
        for seed in range(10):
            basis = random_orthonormal_basis(SubsystemLayout.of(A=3, B=3), seed)
            entangled = any(schmidt(s, cut).entries[0] < 1 - 1e-9 for s in basis)
            assert entangled  # Haar bases contain entangled vectors
            report = check_witness(full_basis_problem(basis))
            assert report.verdict == CERTIFIED_INDISTINGUISHABLE

    def test_source_is_product(self):
        problem = full_basis_problem(random_orthonormal_basis(SubsystemLayout.of(A=2, B=3), 5))
        source = schmidt(build_joint_state(problem), problem.witness_cut())
        assert source.entries[0] == pytest.approx(1.0, abs=1e-10)

    def test_incomplete_basis_rejected(self):
        with pytest.raises(ValueError):
            full_basis_problem(bell_states()[:3])

    def test_incomplete_basis_message(self):
        with pytest.raises(ValueError, match="basis is incomplete: 3 states in dimension 4"):
            full_basis_problem(bell_states()[:3])

    @pytest.mark.parametrize("labels, free", [(("C", "D"), ("A", "B")), (("A", "C"), ("B", "D"))])
    def test_detectors_on_first_free_labels(self, labels, free):
        basis = [relabel(s, labels) for s in bell_states()]
        problem = full_basis_problem(basis)
        assert problem.detector_layout.labels == free
        for state, detector in zip(basis, problem.detectors):
            assert np.array_equal(detector.amplitudes, np.conj(state.amplitudes))

    def test_product_form_deviation_rejected(self):
        # the perturbed basis is orthonormal within the default 1e-9 (largest
        # off-diagonal 2.4e-10), yet its joint state misses the product of two
        # maximally entangled pairs by 1.5e-10
        layout = SubsystemLayout.of(A=3, B=3)
        basis = random_orthonormal_basis(layout, 3)
        amps = basis[0].amplitudes.copy()
        amps[1] += 6e-10
        basis[0] = PureState(layout, amps)
        assert validate_state_set(basis).passed
        with pytest.raises(ValueError, match="deviates from the product form"):
            full_basis_problem(basis)


class TestWitnessKernel:
    def test_spectra_match_per_evaluation_oracle(self):
        # branches and detector spectra built ahead of the probabilities
        # must give the bits the per-evaluation kernel gave
        rng = np.random.default_rng(47)
        kinds = set()
        cases = product(((2, 2), (2, 3), (3, 3)), ((2, 2), (2, 3), (3, 2)), range(1, 5))
        for i, ((m, n), (c, d), k) in enumerate(cases):
            basis = random_orthonormal_basis(SubsystemLayout.of(A=m, B=n), i)
            psi = np.array([s.amplitudes for s in basis[:k]]).reshape(k, m, n)
            phi = rng.standard_normal((k, c, d)) + 1j * rng.standard_normal((k, c, d))
            phi /= np.linalg.norm(phi.reshape(k, -1), axis=1)[:, None, None]
            probs = list(rng.dirichlet(np.ones(k)))
            kind = "simplex" if k == 1 else ("simplex", "zero", "dust")[i % 3]
            if kind != "simplex":
                probs[int(rng.integers(0, k))] = 0.0 if kind == "zero" else -1e-13
            kinds.add(kind)
            branches = witness_module._branches(psi, phi)
            targets = np.linalg.svd(phi, compute_uv=False) ** 2
            for p in (tuple(probs), np.array(probs)):
                # the kernel takes its probabilities clipped, as check_witness passes them
                clipped = np.maximum(p, 0.0)
                (source,), (average,) = witness_module._witness_spectra(
                    witness_module._superpose(clipped[None], branches[None]), targets[None], clipped[None]
                )
                expected_source, expected_average = oracles._witness_spectra(psi, phi, p)
                assert source.tobytes() == expected_source.tobytes()
                assert average.tobytes() == expected_average.tobytes()
                joint = witness_module._superpose(clipped, branches)
                assert joint.tobytes() == oracles._superpose(p, psi, phi).tobytes()
        assert kinds == {"simplex", "zero", "dust"}

    @pytest.mark.parametrize("k", [1, 2, 4, 9])
    def test_stacked_rows_round_as_one_row_calls(self, k):
        # a search wave evaluates the rows of many restarts in one call and
        # needs each row to come out as it would alone
        rng = np.random.default_rng(k)
        (m, n), (c, d), rows = (3, 3), (2, 3), 5
        basis = random_orthonormal_basis(SubsystemLayout.of(A=m, B=n), k)
        psi = np.array([s.amplitudes for s in basis[:k]]).reshape(k, m, n)
        phi = rng.standard_normal((rows, k, c, d)) + 1j * rng.standard_normal((rows, k, c, d))
        phi /= np.linalg.norm(phi.reshape(rows, k, -1), axis=2)[..., None, None]
        branches = witness_module._branches(psi, phi)
        targets = np.linalg.svd(phi, compute_uv=False) ** 2
        probs = rng.dirichlet(np.ones(k), size=rows)

        def spectra(branches, targets, probs):
            return witness_module._witness_spectra(witness_module._superpose(probs, branches), targets, probs)

        source, average = spectra(branches, targets, probs)
        # every detector row broadcast against every probability row
        shared_source, shared_average = spectra(branches[:1], targets[:1], probs)
        assert source.shape == average.shape == (rows, min(m * c, n * d))
        for r in range(rows):
            (one_source,), (one_average,) = spectra(branches[r : r + 1], targets[r : r + 1], probs[r : r + 1])
            assert source[r].tobytes() == one_source.tobytes()
            assert average[r].tobytes() == one_average.tobytes()
            (one_source,), (one_average,) = spectra(branches[:1], targets[:1], probs[r : r + 1])
            assert shared_source[r].tobytes() == one_source.tobytes()
            assert shared_average[r].tobytes() == one_average.tobytes()


class TestClassifyFullBasis:
    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tol_must_be_positive_and_finite(self, tol):
        for basis in (bell_states(), computational_basis(SubsystemLayout.of(A=2, B=2))):
            with pytest.raises(ValueError, match="tol must be a positive finite number"):
                classify_full_basis(basis, tol)

    def test_computational_all_product(self):
        basis = computational_basis(SubsystemLayout.of(A=3, B=3))
        result = classify_full_basis(basis)
        assert result.classification == ALL_PRODUCT
        assert result.witness is None

    def test_bell_contains_entangled(self):
        result = classify_full_basis(bell_states())
        assert result.classification == CONTAINS_ENTANGLED
        assert result.certified

    def test_domino_all_product(self):
        # deterministic local discrimination fails for the dominoes, but the
        # probabilistic classification is still ALL_PRODUCT
        assert classify_full_basis(domino_basis()).classification == ALL_PRODUCT

    def test_cross_check_on_random_bases(self):
        for seed in range(20):
            basis = random_orthonormal_basis(SubsystemLayout.of(A=2, B=2), seed)
            result = classify_full_basis(basis)
            if result.classification == CONTAINS_ENTANGLED:
                assert result.certified

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError):
            classify_full_basis(set_s())

    @pytest.mark.parametrize("labels, free", [("CD", "AB"), ("AC", "BD"), ("XY", "AB")])
    def test_any_labels_certified_on_first_free_labels(self, labels, free):
        for seed, (m, n) in enumerate(((2, 2), (2, 3), (3, 3))):
            basis = random_orthonormal_basis(SubsystemLayout.of(A=m, B=n), seed)
            reference = classify_full_basis(basis)
            result = classify_full_basis([relabel(s, labels) for s in basis])
            assert result.classification == CONTAINS_ENTANGLED
            assert result.certified
            assert result.witness.margin == reference.witness.margin
            assert result.witness.problem.detector_layout.labels == tuple(free)

    def test_incomplete_product_set_rejected(self):
        basis = computational_basis(SubsystemLayout.of(A=2, B=2))[:3]
        with pytest.raises(ValueError, match="basis is incomplete: 3 states in dimension 4"):
            classify_full_basis(basis)

    def test_repeated_product_state_rejected(self):
        ket = basis_state(SubsystemLayout.of(A=2, B=2), (0, 0))
        with pytest.raises(ValueError, match=r"^state set is not orthonormal \(max off-diagonal 1\)$"):
            classify_full_basis([ket] * 4)

    def test_repeated_entangled_state_rejected(self):
        bells = bell_states()
        with pytest.raises(ValueError, match=r"^state set is not orthonormal \(max off-diagonal 1\)$"):
            classify_full_basis([bells[0], bells[1], bells[2], bells[0]])

    @pytest.mark.parametrize("dims", [(2, 2, 2), (4,)])
    def test_non_two_part_layout_rejected(self, dims):
        layout = SubsystemLayout(tuple(zip("ABC", dims)))
        with pytest.raises(ValueError, match=f"two-part layout, got {layout}"):
            classify_full_basis(computational_basis(layout))
        # the problem alone is no classification, and names the layout too
        with pytest.raises(ValueError, match=f"two-part layout, got {layout}$") as exc:
            full_basis_problem(computational_basis(layout))
        assert "classification" not in str(exc.value)

    def test_max_schmidt_matches_schmidt(self):
        bases = [domino_basis()]
        for seed, (m, n) in enumerate(product((2, 3, 4), repeat=2)):
            layout = SubsystemLayout.of(A=m, B=n)
            bases.append(random_orthonormal_basis(layout, seed))
            kets_a = random_orthonormal_basis(SubsystemLayout.of(A=m), seed)
            kets_b = random_orthonormal_basis(SubsystemLayout.of(B=n), seed + 100)
            bases.append([tensor(a, b) for a in kets_a for b in kets_b])
        cut = Bipartition(("A",), ("B",))
        for basis in bases:
            result = classify_full_basis(basis)
            assert result.max_schmidt == tuple(schmidt(s, cut).entries[0] for s in basis)

    @pytest.mark.parametrize("labels", [None, "CD", "XY"])
    def test_fused_witness_matches_public_path(self, labels):
        # the classification reuses its Schmidt spectra and joint tensor; the
        # report must be the one check_witness gives on full_basis_problem
        bases = [bell_states()]
        for m, n in product((2, 3, 4), repeat=2):
            bases.append(random_orthonormal_basis(SubsystemLayout.of(A=m, B=n), 10 * m + n))
        for basis in bases:
            if labels is not None:
                basis = [relabel(s, labels) for s in basis]
            fused = classify_full_basis(basis, 1e-9).witness
            public = check_witness(full_basis_problem(basis), 1e-9)
            assert (fused.verdict, fused.tol) == (public.verdict, public.tol)
            assert fused.margin.hex() == public.margin.hex()
            assert fused.source_schmidt.entries.tobytes() == public.source_schmidt.entries.tobytes()
            assert fused.target_average.entries.tobytes() == public.target_average.entries.tobytes()
            assert fused.source_partial_sums == public.source_partial_sums
            assert fused.average_partial_sums == public.average_partial_sums
            assert fused.warnings == public.warnings
            assert fused.problem.detector_layout == public.problem.detector_layout
            assert fused.problem._detector_stack.tobytes() == public.problem._detector_stack.tobytes()


FULL_BASIS_CASES = st.tuples(
    st.sampled_from(list(product((2, 3, 4), repeat=2))),  # dimensions A, B
    st.integers(0, 2**32 - 1),  # seed of the basis and the local unitaries
)


class TestFullBasisMargin:
    """The two readers of the basis's Schmidt spectra agree with each other."""

    @settings(max_examples=40, deadline=None)
    @given(FULL_BASIS_CASES)
    def test_margin_is_one_minus_mean_max_schmidt(self, case):
        # the source is (1, 0, ...), so the first partial sum binds
        (m, n), seed = case
        result = classify_full_basis(random_orthonormal_basis(SubsystemLayout.of(A=m, B=n), seed))
        assert abs(result.witness.margin - (1.0 - np.mean(result.max_schmidt))) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(FULL_BASIS_CASES)
    def test_margin_invariant_under_local_unitaries(self, case):
        (m, n), seed = case
        layout = SubsystemLayout.of(A=m, B=n)
        basis = random_orthonormal_basis(layout, seed)
        rng = np.random.default_rng([seed, 1])  # a stream apart from the basis's
        local = np.kron(_haar_unitary(rng, m), _haar_unitary(rng, n))
        moved = [PureState(layout, local @ s.amplitudes) for s in basis]
        margin = classify_full_basis(basis).witness.margin
        assert abs(classify_full_basis(moved).witness.margin - margin) <= 1e-12


class TestMultipartiteProductCheck:
    def test_three_qubit_computational(self):
        basis = computational_basis(SubsystemLayout.of(A=2, B=2, C=2))
        assert multipartite_product_check(basis)

    def test_ghz_containing_basis(self):
        layout = SubsystemLayout.of(A=2, B=2, C=2)
        ghz_plus = PureState(layout, [1, 0, 0, 0, 0, 0, 0, 1])
        ghz_minus = PureState(layout, [1, 0, 0, 0, 0, 0, 0, -1])
        middle = [basis_state(layout, (i, j, k)) for i, j, k in
                  [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0)]]
        basis = [ghz_plus, ghz_minus] + middle
        assert validate_state_set(basis).complete
        assert not multipartite_product_check(basis)

    def test_pairwise_entanglement_detected(self):
        # states product across A:BC yet entangled inside BC fail the check
        layout_bc = SubsystemLayout.of(B=2, C=2)
        bells_bc = [relabel(b, ("B", "C")) for b in bell_states()]
        kets_a = [basis_state(SubsystemLayout.of(A=2), (i,)) for i in range(2)]
        basis = [tensor(a, b) for a in kets_a for b in bells_bc]
        assert validate_state_set(basis).complete
        assert not multipartite_product_check(basis)

    def test_one_part_layout_is_product(self):
        layout = SubsystemLayout.of(A=4)
        assert multipartite_product_check(computational_basis(layout))
        assert multipartite_product_check(random_orthonormal_basis(layout, 0))

    def test_incomplete_rejected(self):
        basis = computational_basis(SubsystemLayout.of(A=2, B=2, C=2))
        with pytest.raises(ValueError):
            multipartite_product_check(basis[:5])

    def test_local_unitary_product_basis_on_unequal_parts(self):
        parts = [SubsystemLayout.of(A=2), SubsystemLayout.of(B=3), SubsystemLayout.of(C=2)]
        a, b, c = (random_orthonormal_basis(layout, seed) for seed, layout in enumerate(parts))
        basis = [tensor(tensor(x, y), z) for x in a for y in b for z in c]
        assert validate_state_set(basis).complete
        assert multipartite_product_check(basis)
        layout = SubsystemLayout.of(A=2, B=3, C=2)
        assert not multipartite_product_check(random_orthonormal_basis(layout, 0))


class TestBipartiteCutReduction:
    def test_dimension_bookkeeping(self):
        layout = SubsystemLayout.of(A=2, B=2, C=2)
        states = [random_state(layout, np.random.default_rng(s)) for s in range(3)]
        reduced = bipartite_cut_reduction(states, Bipartition(("A",), ("B", "C")))
        assert reduced[0].layout.dims == (2, 4)
        assert reduced[0].layout.labels == ("A", "BC")

    def test_identity_on_bipartite(self):
        states = bell_states()
        reduced = bipartite_cut_reduction(states, Bipartition(("A",), ("B",)))
        for old, new in zip(states, reduced):
            assert np.array_equal(old.amplitudes, new.amplitudes)

    def test_round_trip(self):
        layout = SubsystemLayout.of(A=2, B=3, C=2)
        rng = np.random.default_rng(8)
        s = random_state(layout, rng)
        cut = Bipartition(("B",), ("A", "C"))
        reduced = bipartite_cut_reduction([s], cut)[0]
        rebuilt = PureState(
            SubsystemLayout((("B", 3), ("A", 2), ("C", 2))), reduced.amplitudes
        )
        assert np.allclose(
            permute_parts(rebuilt, ("A", "B", "C")).amplitudes, s.amplitudes, atol=1e-15
        )

    def test_schmidt_preserved(self):
        layout = SubsystemLayout.of(A=2, B=2, C=3)
        s = random_state(layout, np.random.default_rng(21))
        cut = Bipartition(("A", "C"), ("B",))
        lam_multi = schmidt(s, cut)
        reduced = bipartite_cut_reduction([s], cut)[0]
        lam_two = schmidt(reduced, Bipartition(("AC",), ("B",)))
        assert np.allclose(lam_multi.entries, lam_two.entries, atol=1e-12)


class TestOneWayProtocol:
    def test_s_with_omega_basis(self):
        assert verify_one_way_protocol(set_s(), omega_basis("A"))

    def test_computational_with_computational(self):
        basis = computational_basis(SubsystemLayout.of(A=2, B=2))
        measurement = computational_basis(SubsystemLayout.of(A=2))
        assert verify_one_way_protocol(basis, measurement)

    def test_bell_with_computational_fails(self):
        measurement = computational_basis(SubsystemLayout.of(A=2))
        assert not verify_one_way_protocol(bell_states(), measurement)

    def test_rejects_nonorthonormal_measurement(self):
        m = omega_basis("A")
        with pytest.raises(ValueError):
            verify_one_way_protocol(set_s(), [m[0], m[0], m[2]])

    def test_rejects_dimension_mismatch(self):
        measurement = computational_basis(SubsystemLayout.of(A=2))
        with pytest.raises(ValueError):
            verify_one_way_protocol(set_s(), measurement)

    def test_rejects_three_part_states(self):
        states = computational_basis(SubsystemLayout.of(A=2, B=2, C=2))
        with pytest.raises(ValueError, match="needs a two-part layout, got A:2 x B:2 x C:2$"):
            verify_one_way_protocol(states, computational_basis(SubsystemLayout.of(A=2)))

    def test_rejects_mixed_layouts(self):
        s = set_s()
        odd = PureState(SubsystemLayout.of(A=9, B=1), s[2].amplitudes)
        with pytest.raises(ValueError, match="mixed layouts"):
            verify_one_way_protocol([s[0], s[1], odd], omega_basis("A"))

    def test_measurement_on_several_parts(self):
        # a basis of the first part's dimension, written on a layout of its own
        layout = SubsystemLayout.of(X=1, Y=3)
        measurement = [PureState(layout, v.amplitudes) for v in omega_basis("A")]
        assert verify_one_way_protocol(set_s(), measurement)
        assert not verify_one_way_protocol(set_s_prime(), measurement)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),  # dimensions A, B
        st.integers(1, 3),  # number of states, at most d_B
        st.booleans(),  # perturb the states, which almost always breaks the protocol
        st.booleans(),  # write the measurement basis on a layout of two parts
        st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_pairwise_reference(self, dims, k, perturb, two_parts, seed):
        da, db = dims
        k = min(k, db)
        rng = np.random.default_rng(seed)
        u = _haar_unitary(rng, da)
        # each outcome o leaves state i on the W_o basis vector perm_o(i), with a weight that may be 0
        coeffs = rng.standard_normal((da, k)) + 1j * rng.standard_normal((da, k))
        coeffs[rng.random((da, k)) < 0.3] = 0.0
        coeffs[0, ~coeffs.any(axis=0)] = 1.0  # every state needs some weight
        matrices = np.zeros((k, da, db), dtype=complex)
        for o in range(da):
            residuals = _haar_unitary(rng, db)[:, rng.permutation(db)[:k]].T
            matrices += coeffs[o][:, None, None] * np.einsum("a,ib->iab", u[:, o], residuals)
        if perturb:
            matrices += 0.3 * (rng.standard_normal(matrices.shape) + 1j * rng.standard_normal(matrices.shape))
        states = [PureState(SubsystemLayout.of(A=da, B=db), m) for m in matrices]
        layout = SubsystemLayout.of(X=1, Y=da) if two_parts else SubsystemLayout.of(A=da)
        measurement = [PureState(layout, u[:, o]) for o in range(da)]
        expected = oracles.one_way_verdict(states, measurement, 1e-9)
        assert verify_one_way_protocol(states, measurement) == expected
        if not perturb:
            assert expected
