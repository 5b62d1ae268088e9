import dataclasses
import importlib
import inspect
import sys
import tracemalloc
from itertools import product

import numpy as np
import oracles
import pytest
from oracles import reduced_density_spectrum

# the package's `search` function shadows its submodule of the same name
search_module = importlib.import_module("locc_witness.search")

import locc_witness.states as states_module
from locc_witness.catalog import bell_states, computational_basis, set_s_prime
from locc_witness.search import (
    FIXED_BELL_ENUMERATION,
    FREE_DETECTORS,
    SearchConfig,
    _minimize_together,
    _nelder_mead,
    search,
    simplex_sample,
)
from locc_witness.states import SubsystemLayout, random_orthonormal_basis, schmidt
from locc_witness.witness import INCONCLUSIVE, WitnessProblem, build_joint_state, check_witness, full_basis_problem

PAIR = [bell_states()[0], bell_states()[2]]
# three product kets are LOCC distinguishable, so a search on them never
# certifies and runs every wave of the doubling schedule
THREE_KETS = computational_basis(SubsystemLayout.of(A=2, B=2))[:3]


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
        for field, value in (
            ("restarts", True),
            ("restarts", 2.5),
            ("max_iters", 3.7),
            ("max_iters", False),
            ("seed", -1),
            ("seed", True),
            ("seed", 1.0),
            ("detector_dims", (2.7, 3)),
            ("detector_dims", ("2", "2")),
            ("detector_dims", (True, 2)),
            ("detector_dims", (1, 2)),
            ("detector_dims", (2, 2, 2)),
        ):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                SearchConfig(**{field: value})
        with pytest.raises(ValueError):
            SearchConfig(tol=0)
        with pytest.raises(ValueError):
            SearchConfig(mode="GRADIENT")

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_tol_that_is_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            SearchConfig(tol=tol)


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _l1(x):
    return float(np.abs(x - np.array([0.3, -1.1, 0.7])).sum())


def _cusp(x):
    # concave at its kinks, so contractions toward them fail and the polytope shrinks
    return float(np.sqrt(np.abs(x - 0.3)).sum())


NELDER_MEAD_INPUTS = [
    (_rosenbrock, [-1.2, 1.0]),
    (_rosenbrock, [0.5, -0.3, 1.7]),
    (_rosenbrock, [2.0, -1.0, 0.0, 1.5]),
    (_l1, [1.3, -0.7, 0.4]),
    (_cusp, [1.3, -0.7, 0.4]),
    (_cusp, [2.0, 1.0]),
]


def _oracle_branch_lines():
    """Line numbers of the accepting statement of each polytope move in the oracle."""
    lines, start = inspect.getsourcelines(oracles._nelder_mead)
    def line_of(text, offset=0):
        (i,) = [i for i, line in enumerate(lines) if text in line]
        return start + i + offset
    return {
        "reflect": line_of("if values[0] <= fr < values[-2]:", 1),
        "expand": line_of("= expanded, fe"),
        "contract": line_of("= contracted, fc"),
        "shrink": line_of("simplex = [simplex[0]] +"),
    }


def _rows(f):
    """A row-wise objective from a scalar one."""
    return lambda points, owners: np.array([f(x) for x in points])


class TestNelderMead:
    def test_matches_list_based_oracle(self):
        # the array simplex must follow the list-based one point for point
        branch_lines = _oracle_branch_lines()
        hit = set()

        def tracer(frame, event, arg):
            if frame.f_code is oracles._nelder_mead.__code__:
                def local(frame, event, arg):
                    if event == "line":
                        hit.update(b for b, line in branch_lines.items() if frame.f_lineno == line)
                    return local
                return local
            return None

        for f, start in NELDER_MEAD_INPUTS:
            points = {"library": [], "oracle": []}

            def recorded(name):
                def g(x):
                    points[name].append(np.array(x).tobytes())
                    return f(x)
                return g

            ((x, fx, iters),) = _minimize_together([_nelder_mead(np.array(start))], _rows(recorded("library")))
            previous = sys.gettrace()
            sys.settrace(tracer)
            try:
                ox, ofx, oiters = oracles._nelder_mead(recorded("oracle"), np.array(start))
            finally:
                sys.settrace(previous)
            assert x.tobytes() == ox.tobytes()
            assert fx == ofx
            assert iters == oiters
            assert points["library"] == points["oracle"]
        assert hit == set(branch_lines)

    def test_waves_match_runs_alone(self):
        # runs sharing rounds must each follow the points they follow alone
        by_width = {}
        for f, start in NELDER_MEAD_INPUTS:
            by_width.setdefault(len(start), []).append((f, np.array(start, dtype=float)))
        assert max(len(inputs) for inputs in by_width.values()) == 3
        for inputs in by_width.values():
            alone = [next(_minimize_together([_nelder_mead(x0)], _rows(f))) for f, x0 in inputs]
            fs = [f for f, _ in inputs]

            def objective(points, owners):
                ids = np.broadcast_to(np.arange(len(fs))[owners], len(points))
                return np.array([fs[i](x) for i, x in zip(ids, points)])

            together = list(_minimize_together([_nelder_mead(x0) for _, x0 in inputs], objective))
            assert len(together) == len(inputs)
            for (x, fx, iters), (ax, afx, aiters) in zip(together, alone):
                assert x.tobytes() == ax.tobytes()
                assert fx == afx
                assert iters == aiters

    def test_bell_objective_takes_one_svd(self, count, monkeypatch):
        # a Bell restart builds its branches and detector spectra once per
        # wave, so each round of a wave is left with one stacked AC:BD SVD
        # however many restarts share it; free detectors move and take a
        # second stacked SVD for their C:D spectra
        svd_calls = count(np.linalg, "svd")
        per_round = []
        real_together = search_module._minimize_together

        def counting_together(runs, evaluate):
            def counted(points, owners):
                before = svd_calls[0]
                values = evaluate(points, owners)
                per_round.append((svd_calls[0] - before, len(set(np.arange(len(runs))[owners]))))
                return values
            return real_together(runs, counted)

        monkeypatch.setattr(search_module, "_minimize_together", counting_together)
        for (cfg, svds), (states, shared) in product(
            (
                (SearchConfig(seed=0, restarts=8, max_iters=20), 1),
                (SearchConfig(seed=0, restarts=8, max_iters=20, mode=FREE_DETECTORS), 2),
            ),
            # three states: restarts 4-7 share rounds; a pair: all eight restarts do
            ((THREE_KETS, 4), (PAIR, 8)),
        ):
            per_round.clear()
            search(states, cfg)
            assert {calls for calls, _ in per_round} == {svds}
            assert max(shared for _, shared in per_round) == shared

    @pytest.mark.parametrize("mode", [FIXED_BELL_ENUMERATION, FREE_DETECTORS])
    def test_wave_size_is_capped_by_branch_bytes(self, wave_sizes, monkeypatch, mode):
        # the cap changes which restarts share rounds, never the result; three
        # product kets are never certified, so every wave runs
        cfg = SearchConfig(seed=3, restarts=8, max_iters=20, mode=mode)
        uncapped = search(THREE_KETS, cfg)
        assert wave_sizes == [1, 1, 2, 4]
        n = 3 if mode == FIXED_BELL_ENUMERATION else 3 + 3 * 2 * 4
        # a branch tensor row holds k * d_A * d_B * d_C * d_D = 48 complex entries
        monkeypatch.setattr(search_module, "_WAVE_BRANCH_BYTES", 3 * (n + 1) * 48 * 16 - 1)
        wave_sizes.clear()
        capped = search(THREE_KETS, cfg)
        assert wave_sizes == [1, 1, 2, 2, 2]
        assert (capped.found, capped.restart_index, capped.iterations_used) == (
            uncapped.found,
            uncapped.restart_index,
            uncapped.iterations_used,
        )
        assert_same_result(capped, uncapped)

    @pytest.mark.parametrize("mode", [FIXED_BELL_ENUMERATION, FREE_DETECTORS])
    def test_pair_runs_one_wave_up_to_branch_bytes(self, wave_sizes, monkeypatch, mode):
        # two orthogonal states are always LOCC distinguishable, so a pair runs
        # every restart and starts at full wave width; the cap still holds
        cfg = SearchConfig(seed=3, restarts=8, max_iters=20, mode=mode)
        uncapped = search(PAIR, cfg)
        assert wave_sizes == [8]
        n = 2 if mode == FIXED_BELL_ENUMERATION else 2 + 2 * 2 * 4
        # a branch tensor row holds k * d_A * d_B * d_C * d_D = 32 complex entries
        monkeypatch.setattr(search_module, "_WAVE_BRANCH_BYTES", 3 * (n + 1) * 32 * 16 - 1)
        wave_sizes.clear()
        capped = search(PAIR, cfg)
        assert wave_sizes == [2, 2, 2, 2]
        assert_same_result(capped, uncapped)

    @pytest.mark.parametrize(
        "dims, mode, sliced",
        [
            ((2, 2), FIXED_BELL_ENUMERATION, False),
            ((2, 2), FREE_DETECTORS, False),
            ((3, 3), FIXED_BELL_ENUMERATION, False),
            ((3, 3), FREE_DETECTORS, False),
            ((3, 3), FREE_DETECTORS, True),
        ],
        ids=["2x2_bell", "2x2_free", "3x3_bell", "3x3_free", "3x3_free_sliced"],
    )
    def test_pair_at_full_width_matches_one_restart_waves(self, wave_sizes, monkeypatch, dims, mode, sliced):
        # a full-width wave returns, bit for bit, what waves of one restart
        # return; a sliced search also splits each start round in two
        a, b = dims
        pair = random_orthonormal_basis(SubsystemLayout.of(A=a, B=b), 5)[:2]
        cfg = SearchConfig(seed=4, restarts=6, max_iters=40, mode=mode)
        wide = search(pair, cfg)
        assert wave_sizes == [6]
        n = 2 if mode == FIXED_BELL_ENUMERATION else 2 + 2 * 2 * 4
        row_bytes = 2 * a * b * 4 * 16
        rows = (n + 1) // 2 if sliced else n + 1
        monkeypatch.setattr(search_module, "_WAVE_BRANCH_BYTES", rows * row_bytes)
        kernel_rows = []
        real_branches = search_module._branches

        def recording_branches(psi, phi):
            kernel_rows.append(len(phi))
            return real_branches(psi, phi)

        monkeypatch.setattr(search_module, "_branches", recording_branches)
        wave_sizes.clear()
        narrow = search(pair, cfg)
        assert wave_sizes == [1] * 6
        if mode == FREE_DETECTORS:
            assert max(kernel_rows) == rows
        assert_same_result(narrow, wide)

    def test_free_round_is_split_by_branch_bytes(self, monkeypatch):
        # one free restart on the 16 states of a 4x4 system with 4x4 detectors
        # starts from 529 vertices of 64 KiB of branches each, 34 MB together;
        # the evaluator slices that round so no kernel call stacks more than
        # _WAVE_BRANCH_BYTES, and the slices round as the whole round did
        basis = computational_basis(SubsystemLayout.of(A=4, B=4))
        cfg = SearchConfig(detector_dims=(4, 4), restarts=1, max_iters=2, mode=FREE_DETECTORS)
        tracemalloc.start()
        try:
            default = search(basis, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the branches of a slice, _superpose's weighted copy of them, and small arrays;
        # unsliced, the round peaked at 77.8 MB
        assert peak < 3 * search_module._WAVE_BRANCH_BYTES
        monkeypatch.setattr(search_module, "_WAVE_BRANCH_BYTES", 3 * 64 * 1024)
        assert_same_result(search(basis, cfg), default)


class TestValidatesOnce:
    # counts, not timings: a search validates its states once, however many problems it builds

    INPUTS = [
        (set_s_prime(), SearchConfig(seed=0, restarts=4, max_iters=60)),
        (bell_states()[:3], SearchConfig(seed=0, restarts=3, max_iters=60, mode=FREE_DETECTORS)),
    ]

    @pytest.mark.parametrize("states, cfg", INPUTS, ids=["bell", "free"])
    def test_search_runs_one_gram(self, count, monkeypatch, states, cfg):
        # every re-verified restart is reported inconclusive, so each one that
        # clears tol builds its problem, and the search ends by building another
        real_check = search_module.check_witness
        monkeypatch.setattr(
            search_module,
            "check_witness",
            lambda problem, tol: dataclasses.replace(real_check(problem, tol), verdict=INCONCLUSIVE),
        )
        grams = count(states_module, "_gram")
        builds = count(WitnessProblem, "_bind")
        assert not search(states, cfg).found
        assert builds[0] >= 3
        assert grams == [1]


TRUSTED_PROBLEMS = {
    "bell_found": lambda: search(set_s_prime(), SearchConfig(seed=0)).best_problem,
    "bell_not_found": lambda: search(
        [bell_states()[0], bell_states()[2]], SearchConfig(seed=0, restarts=4, max_iters=40)
    ).best_problem,
    "free": lambda: search(
        bell_states()[:3], SearchConfig(seed=0, restarts=3, max_iters=60, mode=FREE_DETECTORS)
    ).best_problem,
    "full_basis": lambda: full_basis_problem(random_orthonormal_basis(SubsystemLayout.of(A=3, B=3), 0)),
}


class TestTrustedProblems:
    # search and full_basis_problem skip the constructor's validation of a stack
    # they validated themselves; the problem must be the one the constructor builds

    @pytest.mark.parametrize("source", list(TRUSTED_PROBLEMS))
    def test_constructor_rebuilds_the_same_problem(self, source):
        problem = TRUSTED_PROBLEMS[source]()
        rebuilt = WitnessProblem(problem.states, problem.detectors, problem.probs)
        for field in dataclasses.fields(WitnessProblem):
            assert getattr(rebuilt, field.name) == getattr(problem, field.name)
        for name in ("_state_stack", "_detector_stack", "_weights"):
            kept, expected = getattr(problem, name), getattr(rebuilt, name)
            assert (kept.dtype, kept.shape) == (expected.dtype, expected.shape)
            assert kept.tobytes() == expected.tobytes()
            assert not kept.flags.writeable and not expected.flags.writeable


def assert_same_result(a, b):
    assert (a.found, a.restart_index, a.iterations_used) == (b.found, b.restart_index, b.iterations_used)
    assert a.best_report.margin.hex() == b.best_report.margin.hex()
    assert a.best_problem.probs == b.best_problem.probs
    for x, y in zip(a.best_problem.detectors, b.best_problem.detectors, strict=True):
        assert x.amplitudes.tobytes() == y.amplitudes.tobytes()


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

    def test_requires_two_part_states(self):
        states = computational_basis(SubsystemLayout.of(A=2, B=2, C=2))[:2]
        with pytest.raises(ValueError, match="search needs a two-part layout, got A:2 x B:2 x C:2$"):
            search(states, SearchConfig())


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


    def test_short_start_detector_scores_worst(self, monkeypatch):
        # the first start detector is all zeros: every start vertex that leaves
        # it too short to normalize scores 1, worse than any margin, and the
        # rest of the round is evaluated without it
        real_start = search_module._random_maximally_entangled
        real_together = search_module._minimize_together
        calls, rounds = [], []

        def zero_once(rng, dc, dd):
            v = real_start(rng, dc, dd)
            calls.append(v)
            return np.zeros_like(v) if len(calls) == 1 else v

        def recording_together(runs, evaluate):
            def recorded(points, owners):
                values = evaluate(points, owners)
                rounds.append(values)
                return values

            return real_together(runs, recorded)

        monkeypatch.setattr(search_module, "_random_maximally_entangled", zero_once)
        monkeypatch.setattr(search_module, "_minimize_together", recording_together)
        cfg = SearchConfig(seed=4, mode=FREE_DETECTORS, restarts=2, max_iters=40)
        first = search(bell_states()[:3], cfg)
        scored = rounds[0]
        assert 1.0 in scored and (scored < 1.0).any()
        for detector in first.best_problem.detectors:
            assert abs(np.linalg.norm(detector.amplitudes) - 1.0) < 1e-12
        calls.clear()
        assert_same_result(search(bell_states()[:3], cfg), first)


class TestObjectiveIsTheMargin:
    # the objective and the report take their partial sums from one function,
    # so the winning restart's objective is the report's margin without its last excess

    @pytest.mark.parametrize(
        "states, cfg",
        [
            (set_s_prime(), SearchConfig(seed=0)),
            (set_s_prime(), SearchConfig(seed=7, restarts=6, max_iters=60)),
            ([bell_states()[0], bell_states()[2]], SearchConfig(seed=1, restarts=12, max_iters=80)),
            (set_s_prime()[:2], SearchConfig(seed=2, restarts=8, max_iters=60)),
        ],
        ids=["found_0", "found_1", "pair", "s_prime_pair"],
    )
    def test_bell_objective_bits(self, monkeypatch, states, cfg):
        real_together = search_module._minimize_together
        finished = []

        def recording_together(runs, evaluate):
            for outcome in real_together(runs, evaluate):
                finished.append(outcome)  # restarts finish in restart order
                yield outcome

        monkeypatch.setattr(search_module, "_minimize_together", recording_together)
        result = search(states, cfg)
        _, f, _ = finished[result.restart_index]
        report = result.best_report
        excess = np.array(report.source_partial_sums[:-1]) - np.array(report.average_partial_sums[:-1])
        assert f.hex() == float(-np.maximum.reduce(excess)).hex()


class TestPinnedResults:
    """Seeded searches pinned to exact integers.

    A branch tensor built or gathered for the wrong restart, a wave
    scanned out of restart order, or any change in rounding, moves these
    values. A deliberate rounding change must update them and say so in
    CHANGES.md.
    """

    @pytest.mark.parametrize(
        "states, cfg, expected",
        [
            (set_s_prime(), SearchConfig(seed=0), (True, 0, 64)),
            (PAIR, SearchConfig(seed=0, restarts=12, max_iters=80), (False, 0, 270)),
            (PAIR, SearchConfig(seed=1, restarts=12, max_iters=80), (False, 0, 277)),
            (PAIR, SearchConfig(seed=2, restarts=12, max_iters=80), (False, 0, 272)),
            (
                set_s_prime(),
                SearchConfig(seed=11, mode=FREE_DETECTORS, restarts=4, max_iters=200),
                (False, 0, 800),
            ),
            # found by restart 1, whose Bell assignment differs from restart 0's
            (set_s_prime(), SearchConfig(seed=7, restarts=6, max_iters=60), (True, 1, 109)),
            # restarts run in waves of 1, 1, 2 and 4: found by the first
            # restart of the wave of 2, then by the last of the waves of 2 and 4
            (set_s_prime(), SearchConfig(seed=10, restarts=8, max_iters=60), (True, 2, 144)),
            (set_s_prime(), SearchConfig(seed=23, restarts=8, max_iters=60), (True, 3, 208)),
            (set_s_prime(), SearchConfig(seed=21, restarts=8, max_iters=60), (True, 7, 319)),
        ],
        ids=[
            "s_prime_bell_0",
            "pair_0",
            "pair_1",
            "pair_2",
            "s_prime_free_11",
            "s_prime_bell_7",
            "s_prime_bell_10",
            "s_prime_bell_23",
            "s_prime_bell_21",
        ],
    )
    def test_seeded_search(self, states, cfg, expected):
        result = search(states, cfg)
        assert (result.found, result.restart_index, result.iterations_used) == expected
