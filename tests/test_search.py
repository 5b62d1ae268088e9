import numpy as np
import pytest
from oracles import reduced_density_spectrum

from locc_witness.catalog import bell_states, computational_basis, set_s_prime
from locc_witness.search import (
    FIXED_BELL_ENUMERATION,
    FREE_DETECTORS,
    SearchConfig,
    search,
    simplex_sample,
)
from locc_witness.states import SubsystemLayout, schmidt
from locc_witness.witness import build_joint_state, check_witness


class TestSimplexSample:
    def test_k1(self):
        assert simplex_sample(1, 0) == pytest.approx([1.0])

    def test_deterministic(self):
        assert np.array_equal(simplex_sample(5, 123), simplex_sample(5, 123))

    def test_sums_to_one(self):
        for seed in range(20):
            p = simplex_sample(4, seed)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert p.min() >= 0

    def test_mean_is_uniform(self):
        samples = np.array([simplex_sample(5, seed) for seed in range(10_000)])
        assert np.abs(samples.mean(axis=0) - 0.2).max() < 0.02

    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            simplex_sample(0, 0)


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert cfg.detector_dims == (2, 2)
        assert cfg.mode == FIXED_BELL_ENUMERATION

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SearchConfig(restarts=0)
        with pytest.raises(ValueError):
            SearchConfig(tol=0)
        with pytest.raises(ValueError):
            SearchConfig(mode="GRADIENT")


class TestEnumerationSearch:
    def test_finds_s_prime_witness(self):
        result = search(set_s_prime(), SearchConfig(seed=0))
        assert result.found
        assert result.best_report.certified
        assert result.best_report.margin > 1e-3

    def test_found_witness_reverifies_with_oracle(self):
        result = search(set_s_prime(), SearchConfig(seed=0))
        problem = result.best_problem
        joint = build_joint_state(problem)
        cut = problem.witness_cut()
        oracle = reduced_density_spectrum(joint, cut)
        main = schmidt(joint, cut)
        assert np.allclose(oracle.entries, main.entries, atol=1e-9)
        assert check_witness(problem).verdict == result.best_report.verdict

    def test_two_orthogonal_states_never_found(self):
        pair = [bell_states()[0], bell_states()[2]]
        for seed in range(3):
            result = search(pair, SearchConfig(seed=seed, restarts=12, max_iters=80))
            assert not result.found

    def test_computational_basis_not_found(self):
        basis = computational_basis(SubsystemLayout.of(A=2, B=2))
        result = search(basis, SearchConfig(seed=1, restarts=8, max_iters=60))
        assert not result.found

    def test_deterministic(self):
        cfg = SearchConfig(seed=7, restarts=6, max_iters=60)
        a = search(set_s_prime(), cfg)
        b = search(set_s_prime(), cfg)
        assert a.found == b.found
        assert a.restart_index == b.restart_index
        assert a.iterations_used == b.iterations_used
        assert a.best_report.margin == b.best_report.margin
        assert a.best_problem.probs == b.best_problem.probs

    def test_found_iff_certified(self):
        for states, seed in ((set_s_prime(), 0), ([bell_states()[0], bell_states()[2]], 5)):
            result = search(states, SearchConfig(seed=seed, restarts=6, max_iters=60))
            assert result.found == result.best_report.certified

    def test_reported_margin_monotone_in_restarts(self):
        # per-restart seeds are prefix-stable, so without an early exit the
        # best margin can only improve as restarts are added
        pair = [bell_states()[0], bell_states()[2]]
        margins = [
            search(pair, SearchConfig(seed=9, restarts=r, max_iters=60)).best_report.margin
            for r in (2, 4, 8)
        ]
        assert margins[0] <= margins[1] + 1e-15
        assert margins[1] <= margins[2] + 1e-15

    def test_too_many_states_for_bell_assignment(self):
        layout = SubsystemLayout.of(A=3, B=3)
        basis = computational_basis(layout)[:5]
        with pytest.raises(ValueError):
            search(basis, SearchConfig())

    def test_requires_qubit_detectors(self):
        with pytest.raises(ValueError):
            search(set_s_prime(), SearchConfig(detector_dims=(2, 3)))


class TestFreeSearch:
    def test_finds_s_prime_witness(self):
        cfg = SearchConfig(seed=0, mode=FREE_DETECTORS, restarts=32, max_iters=1500)
        result = search(set_s_prime(), cfg)
        assert result.found
        assert check_witness(result.best_problem).certified

    def test_two_orthogonal_states_never_found(self):
        pair = [bell_states()[0], bell_states()[3]]
        result = search(pair, SearchConfig(seed=2, mode=FREE_DETECTORS, restarts=6, max_iters=300))
        assert not result.found

    def test_deterministic(self):
        cfg = SearchConfig(seed=11, mode=FREE_DETECTORS, restarts=4, max_iters=200)
        a = search(set_s_prime(), cfg)
        b = search(set_s_prime(), cfg)
        assert a.best_report.margin == b.best_report.margin
        assert a.restart_index == b.restart_index
