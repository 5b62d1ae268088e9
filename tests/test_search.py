import dataclasses
import importlib
import inspect
import json
import sys
import tracemalloc
from collections import Counter
from itertools import permutations, product

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reduced_density_spectrum, simplex_sample

# the package's `search` function shadows its submodule of the same name
search_module = importlib.import_module("locc_witness.search")

import locc_witness.states as states_module
from locc_witness.catalog import bell_states, computational_basis, set_s, set_s_prime
from locc_witness.search import (
    FIXED_BELL_ENUMERATION,
    FREE_DETECTORS,
    SearchConfig,
    _float_nelder_mead,
    _free_detectors,
    _minimize_together,
    _nelder_mead,
    search,
)
from locc_witness.states import (
    Bipartition,
    PureState,
    SubsystemLayout,
    _detector_layout,
    conjugate,
    random_orthonormal_basis,
    relabel,
    schmidt,
)
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
            ("detector_dims", 2),
            ("detector_dims", None),
        ):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                SearchConfig(**{field: value})
        with pytest.raises(ValueError):
            SearchConfig(tol=0)
        with pytest.raises(ValueError):
            SearchConfig(mode="GRADIENT")

    def test_numpy_integers_become_ints(self):
        # as detector_dims are, so a config reprs and serializes as one built from ints
        cfg = SearchConfig(
            detector_dims=(np.int64(2), np.int32(2)), restarts=np.int64(3), max_iters=np.int32(7), seed=np.uint8(5)
        )
        plain = SearchConfig(restarts=3, max_iters=7, seed=5)
        assert [type(v) for v in (*cfg.detector_dims, cfg.restarts, cfg.max_iters, cfg.seed)] == [int] * 5
        assert (cfg, repr(cfg)) == (plain, repr(plain))
        assert json.dumps(dataclasses.asdict(cfg)) == json.dumps(dataclasses.asdict(plain))

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


def _steps(x):
    # piecewise constant: many vertices share a value, so where a replaced
    # vertex is inserted among equal ones decides the polytope's next points
    return float(np.floor(4 * np.abs(x)).sum())


NELDER_MEAD_INPUTS = [
    (_rosenbrock, [-1.2, 1.0]),
    (_rosenbrock, [0.5, -0.3, 1.7]),
    (_rosenbrock, [2.0, -1.0, 0.0, 1.5]),
    (_l1, [1.3, -0.7, 0.4]),
    (_cusp, [1.3, -0.7, 0.4]),
    (_cusp, [2.0, 1.0]),
    (_steps, [1.3, -0.7, 0.4, 2.1]),
]

# Coordinates near 1e16 beside O(1) ones: here three-row centroids round
# differently under a compensated sum (math.fsum, or Python's float sum
# from 3.12 on) than under numpy's row-by-row reduction, so a polytope
# that sums its centroid either way leaves the oracle's points.
COMPENSATED_SUM_INPUT = (_cusp, [1e16, 1.0, 0.5])

POLYTOPES = pytest.mark.parametrize("polytope", [_nelder_mead, _float_nelder_mead], ids=["array", "float"])


def _oracle_line(text, offset=0):
    """The line number of the oracle's one line containing text, plus offset."""
    lines, start = inspect.getsourcelines(oracles._nelder_mead)
    (i,) = [i for i, line in enumerate(lines) if text in line]
    return start + i + offset


def _oracle_branch_lines():
    """Line numbers of the accepting statement of each polytope move in the oracle."""
    return {
        "reflect": _oracle_line("if values[0] <= fr < values[-2]:", 1),
        "expand": _oracle_line("= expanded, fe"),
        "contract": _oracle_line("= contracted, fc"),
        "shrink": _oracle_line("simplex = [simplex[0]] +"),
    }


def _oracle_scored(f, start):
    """Run the list-based oracle on f from start, recording every point it scores.

    Returns its (x, f, iterations) and one (iteration, move, point bytes,
    contraction bytes) per scored point in order, where move names the
    oracle statement that scored it. A reflection carries its iteration's
    contraction, computed from the oracle's own centroid and worst vertex
    by its own contraction expression, whether or not the oracle goes on
    to score it; other moves carry None.
    """
    moves = {
        _oracle_line("values = [f(x) for x in simplex]"): "start",
        _oracle_line("fr = f(reflected)"): "reflect",
        _oracle_line("fe = f(expanded)"): "expand",
        _oracle_line("fc = f(contracted)"): "contract",
        _oracle_line("values = [values[0]] + [f(x)"): "shrink",
    }
    scored = []

    def g(x):
        frame = sys._getframe(1)
        # before Python 3.12 the start and shrink comprehensions run in frames of their own
        while frame.f_code is not oracles._nelder_mead.__code__:
            frame = frame.f_back
        move, local = moves[frame.f_lineno], frame.f_locals
        contraction = None
        if move == "reflect":
            centroid, worst = local["centroid"], local["simplex"][-1]
            contraction = (centroid + 0.5 * (worst - centroid)).tobytes()
        scored.append((local.get("iterations", 0), move, np.array(x).tobytes(), contraction))
        return f(x)

    return oracles._nelder_mead(g, np.array(start)), scored


def _rows(f):
    """A row-wise objective from a scalar one."""
    return lambda points, owners: np.array([f(x) for x in points])


def _advanced_alone(run, f):
    """The (x, f, iterations) of one polytope generator, sent f of each point it yields, one batch at a time."""
    points = next(run)
    try:
        while True:
            points = run.send([f(np.asarray(x)) for x in points])
    except StopIteration as done:
        return done.value


def _round_calls(runs, fs):
    """The (points, owners) of each round that runs sharing rounds make, with run i scored by fs[i].

    Every round stacks the points of every live run, in run order, into one array; owners is an
    index array of each row's run, or the one-run slice slice(i, i + 1) when run i alone is live.
    """
    pending = {i: next(run) for i, run in enumerate(runs)}
    calls = []
    while pending:
        points = np.array([x for block in pending.values() for x in block])
        if len(pending) == 1:
            (i,) = pending
            owners = slice(i, i + 1)
        else:
            owners = np.array([i for i, block in pending.items() for _ in block])
        calls.append((points, owners))
        row = 0
        for i, block in list(pending.items()):
            values = [fs[i](x) for x in points[row : row + len(block)]]
            row += len(block)
            try:
                pending[i] = runs[i].send(values)
            except StopIteration:
                del pending[i]
    return calls


class TestNelderMead:
    @POLYTOPES
    def test_matches_list_based_oracle(self, polytope):
        # either simplex must score the list-based one's points in its order,
        # each round scoring a reflection together with its iteration's
        # contraction, which the oracle scores only when it needs it
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

        for f, start in [*NELDER_MEAD_INPUTS, COMPENSATED_SUM_INPUT]:
            batches = []

            def library(points, owners):
                batches.append([np.array(x).tobytes() for x in points])
                return np.array([f(x) for x in points])

            ((x, fx, iters),) = _minimize_together([polytope(np.array(start))], library)
            previous = sys.gettrace()
            sys.settrace(tracer)
            try:
                (ox, ofx, oiters), scored = _oracle_scored(f, start)
            finally:
                sys.settrace(previous)
            assert x.tobytes() == ox.tobytes()
            assert fx == ofx
            assert iters == oiters

            # the oracle's rounds: the start, each reflection with its contraction,
            # each expansion and each shrink
            contracted = {i for i, move, _, _ in scored if move == "contract"}
            sizes, unscored, group = [], {}, None
            for i, move, _, contraction in scored:
                if move == "contract":
                    continue
                if move == "reflect":
                    sizes.append(2)
                    if i not in contracted:
                        unscored[len(sizes) - 1] = contraction
                elif (i, move) == group:
                    sizes[-1] += 1
                else:
                    sizes.append(1)
                group = (i, move)
            assert [len(batch) for batch in batches] == sizes
            # with each contraction the oracle did not score removed, the library's points are the oracle's
            kept = [p for b, batch in enumerate(batches) for p in (batch[:1] if b in unscored else batch)]
            assert kept == [point for _, _, point, _ in scored]
            # each removed point is its own iteration's contraction, scored beside that iteration's reflection
            assert unscored
            for b, contraction in unscored.items():
                assert batches[b][1] == contraction
        assert hit == set(branch_lines)

    @POLYTOPES
    def test_stop_value_ends_the_run_as_the_oracle_does(self, polytope):
        # a stop reached midway ends the run at the oracle's iteration, on its vertex;
        # one the start simplex reaches ends it at iteration 1, on its best vertex
        for f, start in NELDER_MEAD_INPUTS:
            _, _, full = oracles._nelder_mead(f, np.array(start))
            _, stop, _ = oracles._nelder_mead(f, np.array(start), max_iters=full // 2)
            ((x, fx, iters),) = _minimize_together([polytope(np.array(start), stop=stop)], _rows(f))
            ox, ofx, oiters = oracles._nelder_mead(f, np.array(start), stop=stop)
            assert (x.tobytes(), fx, iters) == (ox.tobytes(), ofx, oiters)
            assert fx <= stop and iters < full
            x0 = np.array(start, dtype=float)
            vertices = [x0] + [x0 + step for step in np.eye(len(x0)) * 0.5]
            ((x, fx, iters),) = _minimize_together([polytope(x0, stop=f(x0))], _rows(f))
            assert (fx, iters) == (min(map(f, vertices)), 1)

    @POLYTOPES
    def test_contraction_costs_no_round(self, polytope):
        # an iteration scores its reflection and its contraction in one round;
        # only an expansion or a shrink costs a round more
        moves = Counter()
        for f, start in [*NELDER_MEAD_INPUTS, COMPENSATED_SUM_INPUT]:
            rounds = []

            def counted(points, owners):
                rounds.append(len(points))
                return np.array([f(x) for x in points])

            next(_minimize_together([polytope(np.array(start))], counted))
            _, scored = _oracle_scored(f, start)
            shrinks = len({i for i, move, _, _ in scored if move == "shrink"})
            scored_moves = Counter(move for _, move, _, _ in scored)
            assert len(rounds) == 1 + scored_moves["reflect"] + scored_moves["expand"] + shrinks
            moves += scored_moves
        assert moves["contract"] > 0 and moves["expand"] > 0 and moves["shrink"] > 0

    @POLYTOPES
    def test_waves_match_runs_alone(self, polytope):
        # runs sharing rounds must each follow the points they follow alone
        by_width = {}
        for f, start in NELDER_MEAD_INPUTS:
            by_width.setdefault(len(start), []).append((f, np.array(start, dtype=float)))
        assert max(len(inputs) for inputs in by_width.values()) == 3
        for inputs in by_width.values():
            alone = [next(_minimize_together([polytope(x0)], _rows(f))) for f, x0 in inputs]
            fs = [f for f, _ in inputs]

            def objective(points, owners):
                ids = np.broadcast_to(np.arange(len(fs))[owners], len(points))
                return np.array([fs[i](x) for i, x in zip(ids, points)])

            together = list(_minimize_together([polytope(x0) for _, x0 in inputs], objective))
            assert len(together) == len(inputs)
            for (x, fx, iters), (ax, afx, aiters) in zip(together, alone):
                assert x.tobytes() == ax.tobytes()
                assert fx == afx
                assert iters == aiters

    @POLYTOPES
    @pytest.mark.parametrize("budgets", [(4, 12, 40), (40, 4, 12), (12, 40, 4)], ids=["last", "first", "middle"])
    def test_lone_run_matches_runs_alone_and_rounds(self, polytope, budgets):
        # runs that stop at different rounds leave the longest one live alone for many rounds,
        # whichever its place; it is advanced one slice call at a time, each run ends as it does
        # alone, and evaluate sees the rounds' points and owners
        inputs = [(f, np.array(start, dtype=float)) for f, start in NELDER_MEAD_INPUTS if len(start) == 3]
        fs = [f for f, _ in inputs]
        assert len(fs) == len(budgets)
        alone = [_advanced_alone(polytope(x0, max_iters=m), f) for (f, x0), m in zip(inputs, budgets)]
        assert len({iters for _, _, iters in alone}) == len(alone)
        calls = []

        def objective(points, owners):
            calls.append((points.copy(), owners))
            ids = np.broadcast_to(np.arange(len(fs))[owners], len(points))
            return np.array([fs[i](x) for i, x in zip(ids, points)])

        runs = [polytope(x0, max_iters=m) for (_, x0), m in zip(inputs, budgets)]
        together = list(_minimize_together(runs, objective))
        assert len(together) == len(inputs)
        for (x, fx, iters), (ax, afx, aiters) in zip(together, alone):
            assert (x.tobytes(), fx, iters) == (ax.tobytes(), afx, aiters)

        expected = _round_calls([polytope(x0, max_iters=m) for (_, x0), m in zip(inputs, budgets)], fs)
        assert len(calls) == len(expected)
        for (points, owners), (want_points, want_owners) in zip(calls, expected):
            assert points.dtype == want_points.dtype and points.shape == want_points.shape
            assert points.tobytes() == want_points.tobytes()
            assert type(owners) is type(want_owners)
            if isinstance(owners, slice):
                assert owners == want_owners
            else:
                assert owners.tolist() == want_owners.tolist()
        lone = [owners for _, owners in calls if isinstance(owners, slice)]
        longest = budgets.index(max(budgets))
        assert len(lone) >= 10 and all(owners == slice(longest, longest + 1) for owners in lone)

    @pytest.mark.parametrize(
        "mode, polytope", [(FIXED_BELL_ENUMERATION, _float_nelder_mead), (FREE_DETECTORS, _nelder_mead)]
    )
    def test_mode_picks_the_polytope(self, monkeypatch, mode, polytope):
        # Bell mode moves k <= 4 coordinates, where Python floats beat numpy's
        # call overhead; free mode moves k(1 + 2 d_C d_D) >= 18, where the
        # float polytope's Python loops cost more than they save
        codes = []
        real_together = search_module._minimize_together

        def recording_together(runs, evaluate):
            codes.extend(run.gi_code for run in runs)
            return real_together(runs, evaluate)

        monkeypatch.setattr(search_module, "_minimize_together", recording_together)
        for states in (THREE_KETS, PAIR):
            codes.clear()
            search(states, SearchConfig(seed=0, restarts=4, max_iters=10, mode=mode))
            assert len(codes) == 4
            assert set(codes) == {polytope.__code__}

    def test_bell_objective_takes_one_svd(self, count, monkeypatch):
        # a Bell search builds its branches and detector spectra once, and a
        # wave gathers its rows, so each round of a wave is left with one stacked AC:BD SVD
        # however many restarts share it; free detectors move and take a
        # second stacked SVD for their C:D spectra
        svd_calls = count(states_module, "_singular_values")
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

    def test_found_detectors_are_the_assigned_bell_states(self):
        # restart r takes the r-th ordered assignment of distinct Bell states;
        # seed 7 is found by restart 1, whose assignment differs from restart 0's
        states = set_s_prime()
        result = search(states, SearchConfig(seed=7, restarts=6, max_iters=60))
        assert (result.found, result.restart_index) == (True, 1)
        assignment = list(permutations(range(4), len(states)))[1]
        assert assignment == (0, 1, 3)
        layout = _detector_layout(states[0].layout, (2, 2))
        bells = bell_states(layout.labels)
        assert len(result.best_problem.detectors) == len(assignment)
        for detector, j in zip(result.best_problem.detectors, assignment):
            assert detector.layout == layout
            assert detector.amplitudes.tobytes() == bells[j].amplitudes.tobytes()

    def test_bell_table_is_built_once_per_k(self, count, monkeypatch):
        # the ordered Bell assignments and their C:D spectra depend on k alone: after the first
        # search of a k builds them, a search of other states with that k reuses the same arrays
        search_module._bell_table.cache_clear()
        builds = count(search_module, "bell_states")
        used = []
        real_branches = search_module._branches

        def recording_branches(psi, phi):
            used.append(phi)
            return real_branches(psi, phi)

        monkeypatch.setattr(search_module, "_branches", recording_branches)
        cfg = SearchConfig(seed=3, restarts=2, max_iters=5)
        search(set_s_prime(), cfg)
        first = search_module._bell_table(3)
        assert builds == [1]
        search(THREE_KETS, cfg)
        second = search_module._bell_table(3)
        assert builds == [1]
        assert all(a is b for a, b in zip(first, second))
        assert used[0] is used[1] is first[0]
        phi, targets = first
        for array in first:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        order = np.array(list(permutations(range(4), 3)))
        expected = np.array([s.amplitudes.reshape(2, 2) for s in bell_states()])[order]
        assert phi.tobytes() == expected.tobytes()
        assert targets.tobytes() == states_module._schmidt_spectra(expected).tobytes()

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
        # rest of the round is evaluated without it; the detectors' dims differ
        # from the states', so restart 0 draws its start detectors
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
        cfg = SearchConfig(detector_dims=(3, 2), seed=4, mode=FREE_DETECTORS, restarts=2, max_iters=40)
        first = search(bell_states()[:3], cfg)
        scored = rounds[0]
        assert 1.0 in scored and (scored < 1.0).any()
        for detector in first.best_problem.detectors:
            assert abs(np.linalg.norm(detector.amplitudes) - 1.0) < 1e-12
        calls.clear()
        assert_same_result(search(bell_states()[:3], cfg), first)

    def test_mixed_round_scores_short_rows_one(self, monkeypatch):
        # a free round mixing short and normal detectors: each row with a detector
        # shorter than the floor scores exactly 1, and every other row gets the
        # bits it gets in the same round without the short rows
        real_together = search_module._minimize_together
        evaluators = []

        def capturing_together(runs, evaluate):
            evaluators.append(evaluate)
            return real_together(runs, evaluate)

        monkeypatch.setattr(search_module, "_minimize_together", capturing_together)
        k = 3
        search(bell_states()[:k], SearchConfig(seed=4, mode=FREE_DETECTORS, restarts=1, max_iters=1))
        evaluate = evaluators[0]
        rng = np.random.default_rng(12)
        normal = rng.standard_normal((6, k + 2 * k * 4))  # k logits, then k detectors of 8 reals
        short = rng.standard_normal((4, normal.shape[1]))
        short[0, k : k + 8] = 0.0  # first detector zero
        short[1, k + 8 : k + 16] *= 1e-11  # second detector shorter than the floor
        short[2, k:] *= 1e-12  # every detector short
        short[3, -8:] = 0.0  # last detector zero
        is_short = np.array([True, False, False, True, False, True, False, False, True, False])
        mixed = np.empty((len(is_short), normal.shape[1]))
        mixed[is_short], mixed[~is_short] = short, normal
        values = evaluate(mixed, np.zeros(len(mixed), dtype=int))
        alone = evaluate(normal, np.zeros(len(normal), dtype=int))
        assert (values[is_short] == 1.0).all() and (alone < 1.0).all()
        assert values[~is_short].tobytes() == alone.tobytes()


class TestFreeDetectors:
    # a row's detectors are read as a complex view of its (real, imaginary)
    # pairs and normalized by an inline norm; both must give the bytes that
    # building them from real and imaginary parts and np.linalg.norm gives

    @pytest.mark.parametrize(
        "rows, k, dims",
        [(1, 3, (2, 2)), (3, 3, (2, 2)), (1, 4, (2, 2)), (3, 4, (3, 2))],
        ids=["P1_k3", "P3_k3", "P1_k4", "P3_k4_3x2"],
    )
    def test_bytes_match_real_imaginary_construction(self, rows, k, dims):
        # k = 3 puts the first amplitude 8 bytes past a 16-byte boundary
        width = 2 * dims[0] * dims[1]
        stack = np.random.default_rng(10 * rows + k).standard_normal((rows + 2, k + k * width))
        stack[1, k : k + width] = 0.0  # a detector shorter than the norm floor
        # a whole round, a row slice as a sliced round passes, and one row as a found point passes
        for points in (stack[:rows], stack[1 : 1 + rows], stack[rows][None]):
            phi, norms = _free_detectors(points, k, dims)
            expected_phi, expected_norms = oracles.free_detectors(points, k, dims)
            assert (phi.shape, norms.shape) == (expected_phi.shape, expected_norms.shape)
            assert phi.tobytes() == expected_phi.tobytes()
            assert norms.tobytes() == expected_norms.tobytes()

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
    def test_start_points_read_back_as_the_drawn_detectors(self, monkeypatch, dims):
        # a start point holds each drawn detector as a float view of its amplitudes, which
        # _free_detectors reads back as a complex view; nothing is lost on the way. The
        # kets are 2 x 3, unlike either detector dims, so restart 0 draws its detectors too
        drawn, starts = [], []
        real_draw, real_polytope = search_module._random_maximally_entangled, search_module._nelder_mead

        def recording_draw(*args):
            drawn.append(real_draw(*args))
            return drawn[-1]

        def recording_polytope(x0, **kwargs):
            starts.append(x0)
            return real_polytope(x0, **kwargs)

        monkeypatch.setattr(search_module, "_random_maximally_entangled", recording_draw)
        monkeypatch.setattr(search_module, "_nelder_mead", recording_polytope)
        k = 3
        kets = computational_basis(SubsystemLayout.of(A=2, B=3))[:k]
        search(kets, SearchConfig(detector_dims=dims, seed=5, restarts=2, max_iters=5, mode=FREE_DETECTORS))
        assert len(starts) == 2 and len(drawn) == 2 * k
        for r, x0 in enumerate(starts):
            detectors = np.array(drawn[r * k : (r + 1) * k]).reshape(1, k, *dims)
            assert x0[k:].view(complex).tobytes() == detectors.tobytes()
            norms = np.linalg.norm(detectors.reshape(1, k, -1), axis=2)
            phi, _ = _free_detectors(x0[None], k, dims)
            assert phi.tobytes() == (detectors / norms[..., None, None]).tobytes()

    def test_free_search_calls_no_norm_wrapper(self, count):
        norm_calls = count(np.linalg, "norm")
        search(bell_states()[:3], SearchConfig(seed=0, restarts=2, max_iters=20, mode=FREE_DETECTORS))
        assert norm_calls == [0]


def _objective_margin(report) -> float:
    """A report's margin without its last excess, as the search objective scores it."""
    excess = np.array(report.source_partial_sums[:-1]) - np.array(report.average_partial_sums[:-1])
    return float(np.maximum.reduce(excess))


def _recorded_starts(monkeypatch) -> list[np.ndarray]:
    """The start point of each free restart a search runs, in restart order."""
    starts, real = [], search_module._nelder_mead

    def recording(x0, **kwargs):
        starts.append(x0.copy())
        return real(x0, **kwargs)

    monkeypatch.setattr(search_module, "_nelder_mead", recording)
    return starts


def _restart_rng(seed: int, r: int) -> np.random.Generator:
    """Restart r's generator: its seed is the r-th child of the master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(r + 1)[r])


def _drawn_start(seed: int, r: int, k: int, dims) -> np.ndarray:
    """Free restart r's seeded random start."""
    rng = _restart_rng(seed, r)
    logits = rng.standard_normal(k)
    return np.concatenate([logits] + [search_module._random_maximally_entangled(rng, *dims).view(float) for _ in range(k)])


class TestConjugateStart:
    # where free detectors live in the states' own d_A x d_B, restart 0 starts at the
    # conjugate witness (logits 0, detector i the conjugate of state i); every other
    # start is drawn from its restart's seed

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(2, 4), st.integers(0, 2**16))
    def test_restart_zero_scores_the_conjugate_witness(self, d, k, seed):
        # the hand-built conjugate problem's margin, read as the objective reads it (without
        # the last excess, ~0), is minus restart 0's first vertex and a floor for the result
        states = random_orthonormal_basis(SubsystemLayout.of(A=d, B=d), seed)[:k]
        detectors = tuple(relabel(conjugate(s), ("C", "D")) for s in states)
        value = _objective_margin(check_witness(WitnessProblem(states, detectors, (1.0 / k,) * k)))
        real_together = search_module._minimize_together
        first = []

        def recording_together(runs, evaluate):
            def recorded(points, owners):
                values = evaluate(points, owners)
                first.append(values[0])  # row 0 of a wave's first round is its first restart's start
                return values

            return real_together(runs, recorded)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search_module, "_minimize_together", recording_together)
            cfg = SearchConfig(detector_dims=(d, d), seed=seed, mode=FREE_DETECTORS, restarts=2, max_iters=30)
            result = search(states, cfg)
        assert abs(first[0] + value) <= 1e-12
        assert result.best_report.margin >= value - 1e-12
        if value > cfg.tol + 1e-9:
            assert (result.found, result.restart_index) == (True, 0)
            assert check_witness(result.best_problem).certified

    def test_matching_dims_start_restart_zero_at_the_conjugates(self, monkeypatch):
        starts = _recorded_starts(monkeypatch)
        k, dims, seed = 3, (2, 2), 9
        search(THREE_KETS, SearchConfig(detector_dims=dims, seed=seed, restarts=4, max_iters=5, mode=FREE_DETECTORS))
        assert len(starts) == 4
        conjugates = np.array([s.amplitudes for s in THREE_KETS]).conj()
        assert starts[0].tobytes() == np.concatenate([np.zeros(k), conjugates.view(float).ravel()]).tobytes()
        for r in range(1, 4):
            assert starts[r].tobytes() == _drawn_start(seed, r, k, dims).tobytes()

    @pytest.mark.parametrize(
        "states, dims",
        [(THREE_KETS, (3, 2)), (THREE_KETS, (2, 3)), (set_s_prime(), (2, 2)), (bell_states()[:3], (3, 3))],
        ids=["kets_3x2", "kets_2x3", "s_prime_2x2", "bell3_3x3"],
    )
    def test_other_dims_draw_every_start(self, monkeypatch, states, dims):
        starts = _recorded_starts(monkeypatch)
        seed, k = 6, len(states)
        search(states, SearchConfig(detector_dims=dims, seed=seed, restarts=2, max_iters=5, mode=FREE_DETECTORS))
        assert len(starts) >= 1
        for r, x0 in enumerate(starts):
            assert x0.tobytes() == _drawn_start(seed, r, k, dims).tobytes()


def _uniform_bell_margins(states) -> list[float]:
    """Each ordered Bell assignment's margin at uniform probability, in enumeration order, as the objective reads it."""
    k = len(states)
    bells = bell_states(_detector_layout(states[0].layout, (2, 2)).labels)
    return [
        _objective_margin(check_witness(WitnessProblem(states, tuple(bells[j] for j in fixed), (1.0 / k,) * k)))
        for fixed in permutations(range(4), k)
    ]


def _recorded_bell_starts(patch) -> list[tuple[int, np.ndarray]]:
    """Each Bell restart's (assignment index, start logits), in restart order, recorded through ``patch``."""
    starts, real = [], search_module._bell_mode

    def recording(psi, cfg, row_cap):
        polytope, n, start, *rest = real(psi, cfg, row_cap)

        def recorded(r, rng):
            fixed, x0 = start(r, rng)
            starts.append((fixed, x0.copy()))
            return fixed, x0

        return polytope, n, recorded, *rest

    patch.setitem(search_module._MODES, FIXED_BELL_ENUMERATION, recording)
    return starts


def _assert_seeded(starts, seed: int, k: int, first: int = 0) -> None:
    """Bell restarts from ``first`` on fix assignment r (cycling) and start at their seeded logits."""
    assignments = len(list(permutations(range(4), k)))
    for r, (fixed, x0) in enumerate(starts[first:], first):
        assert fixed == r % assignments
        assert x0.tobytes() == _restart_rng(seed, r).standard_normal(k).tobytes()


class TestBellStart:
    # on three or more states, Bell restart 0 starts at logits 0 and the Bell assignment that scores
    # best at uniform probability (the first on ties), where that margin beats tol; otherwise, as
    # every later restart r does, it fixes assignment r and starts at logits drawn from its own seed

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(3, 4), st.integers(0, 2**16))
    def test_restart_zero_scores_the_best_uniform_assignment(self, d, k, seed):
        # the best hand-built uniform problem's margin, read as the objective reads it, is minus
        # restart 0's first vertex and a floor for the result wherever it beats tol
        states = random_orthonormal_basis(SubsystemLayout.of(A=d, B=d), seed)[:k]
        value = max(_uniform_bell_margins(states))
        real_together = search_module._minimize_together
        first = []

        def recording_together(runs, evaluate):
            def recorded(points, owners):
                values = evaluate(points, owners)
                first.append(values[0])  # row 0 of a wave's first round is its first restart's start
                return values

            return real_together(runs, recorded)

        cfg = SearchConfig(seed=seed, restarts=2, max_iters=30)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search_module, "_minimize_together", recording_together)
            starts = _recorded_bell_starts(patch)
            result = search(states, cfg)
        if value > cfg.tol + 1e-9:
            assert abs(first[0] + value) <= 1e-12
            assert starts[0][1].tobytes() == np.zeros(k).tobytes()
            assert result.best_report.margin >= value - 1e-12
            assert (result.found, result.restart_index) == (True, 0)
            assert check_witness(result.best_problem).certified
        elif value < cfg.tol - 1e-9:
            _assert_seeded(starts, seed, k)

    @pytest.mark.parametrize("states, restarts", [(bell_states()[:3], 6), (bell_states(), 26)], ids=["bell3", "bell4"])
    def test_later_restarts_keep_assignment_r_and_their_seeded_logits(self, monkeypatch, states, restarts):
        # every re-verified restart is reported inconclusive, so the search runs past restart 0,
        # which starts at the best uniform assignment; four states cycle through 24 assignments
        real_check = search_module.check_witness
        monkeypatch.setattr(
            search_module,
            "check_witness",
            lambda problem, tol: dataclasses.replace(real_check(problem, tol), verdict=INCONCLUSIVE),
        )
        starts = _recorded_bell_starts(monkeypatch)
        seed, k = 5, len(states)
        search(states, SearchConfig(seed=seed, restarts=restarts, max_iters=5))
        assert len(starts) == restarts
        margins = _uniform_bell_margins(states)
        fixed, x0 = starts[0]
        assert margins[fixed] >= max(margins) - 1e-12
        assert x0.tobytes() == np.zeros(k).tobytes()
        _assert_seeded(starts, seed, k, first=1)

    def test_s_prime_keeps_its_seeded_start(self, monkeypatch):
        # no Bell assignment certifies S' at uniform probability, so restart 0 keeps its seeded start;
        # seed 21 is found by restart 7, so eight restarts run
        assert max(_uniform_bell_margins(set_s_prime())) < SearchConfig().tol
        starts = _recorded_bell_starts(monkeypatch)
        result = search(set_s_prime(), SearchConfig(seed=21, restarts=8, max_iters=60))
        assert (result.found, result.restart_index, len(starts)) == (True, 7, 8)
        _assert_seeded(starts, 21, 3)

    @pytest.mark.parametrize("states, passes", [(PAIR, 0), (THREE_KETS, 1)], ids=["pair", "three_kets"])
    def test_only_sets_of_three_or_more_score_the_uniform_pass(self, count, monkeypatch, states, passes):
        # a set of at most two states never certifies, so it skips the pass and keeps its seeded starts
        rounds = []
        real_together = search_module._minimize_together

        def counting_together(runs, evaluate):
            def counted(points, owners):
                rounds.append(len(points))
                return evaluate(points, owners)

            return real_together(runs, counted)

        monkeypatch.setattr(search_module, "_minimize_together", counting_together)
        margins = count(search_module, "_margins")
        starts = _recorded_bell_starts(monkeypatch)
        search(states, SearchConfig(seed=2, restarts=14, max_iters=10))
        assert margins[0] == len(rounds) + passes
        _assert_seeded(starts, 2, len(states))


class TestDetectorPlacement:
    # the search's detectors go on the first capital letters its states leave free

    @pytest.mark.parametrize("mode", [FIXED_BELL_ENUMERATION, FREE_DETECTORS])
    def test_states_on_c_d_get_detectors_on_a_b(self, mode):
        states = [relabel(s, ("C", "D")) for s in PAIR]
        result = search(states, SearchConfig(seed=3, restarts=2, max_iters=20, mode=mode))
        problem = result.best_problem
        assert problem.detector_layout == SubsystemLayout.of(A=2, B=2)
        assert {d.layout for d in problem.detectors} == {problem.detector_layout}
        assert problem.witness_cut() == Bipartition(("C", "A"), ("D", "B"))

    def test_free_detectors_take_the_configured_dims(self):
        cfg = SearchConfig(detector_dims=(3, 2), seed=3, restarts=2, max_iters=20, mode=FREE_DETECTORS)
        problem = search(PAIR, cfg).best_problem
        assert problem.detector_layout == SubsystemLayout.of(C=3, D=2)
        assert {d.layout for d in problem.detectors} == {problem.detector_layout}


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


class TestMarginCap:
    # no detectors of dims (d_C, d_D) give a margin above 1 - 1/min(d_C, d_D), and no Bell
    # detectors one above min(1/2, max(0, (mu - 1)/2)), mu the smaller largest eigenvalue of the
    # states' summed reduced states on A and on B; a restart that reaches its cap within tol stops

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
        st.integers(2, 4),
        st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
        st.integers(0, 2**16),
    )
    def test_no_margin_passes_the_cap_of_any_detectors(self, dims, k, detector_dims, seed):
        states = random_orthonormal_basis(SubsystemLayout.of(A=dims[0], B=dims[1]), seed)[:k]
        det_layout = _detector_layout(states[0].layout, detector_dims)
        rng = np.random.default_rng(seed)
        size = det_layout.dim
        detectors = tuple(PureState(det_layout, rng.standard_normal(size) + 1j * rng.standard_normal(size)) for _ in range(k))
        cap = search_module._margin_cap(states_module._stack(states), detector_dims)
        assert cap == 1.0 - 1.0 / min(detector_dims)
        margin = check_witness(WitnessProblem(states, detectors, tuple(simplex_sample(k, seed)))).margin
        assert margin <= cap + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]), st.integers(2, 4), st.integers(0, 2**16))
    def test_no_bell_margin_passes_the_maximally_entangled_cap(self, dims, k, seed):
        states = random_orthonormal_basis(SubsystemLayout.of(A=dims[0], B=dims[1]), seed)[:k]
        cap = search_module._margin_cap(states_module._stack(states), (2, 2), maximally_entangled=True)
        bells = bell_states(_detector_layout(states[0].layout, (2, 2)).labels)
        probs = tuple(simplex_sample(k, seed))
        for fixed in permutations(range(4), k):
            margin = check_witness(WitnessProblem(states, tuple(bells[j] for j in fixed), probs)).margin
            assert margin <= cap + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]), st.integers(2, 4), st.integers(0, 2**16))
    def test_bell_cap_reads_both_summed_reduced_states(self, dims, k, seed):
        states = random_orthonormal_basis(SubsystemLayout.of(A=dims[0], B=dims[1]), seed)[:k]
        psi = states_module._stack(states)
        rho_a = np.einsum("iab,icb->ac", psi, psi.conj())
        rho_b = np.einsum("iab,iac->bc", psi, psi.conj())
        mu = min(np.linalg.eigvalsh(rho_a)[-1], np.linalg.eigvalsh(rho_b)[-1])
        cap = search_module._margin_cap(psi, (2, 2), maximally_entangled=True)
        assert cap == pytest.approx(min(0.5, max(0.0, (mu - 1.0) / 2.0)), abs=1e-12)

    @pytest.mark.parametrize(
        "states, cfg, cap",
        [
            (bell_states()[:3], SearchConfig(), 0.25),
            (bell_states(), SearchConfig(), 0.5),
            (bell_states(), SearchConfig(mode=FREE_DETECTORS, restarts=1, max_iters=1), 0.5),
            (set_s_prime(), SearchConfig(detector_dims=(3, 2), mode=FREE_DETECTORS, restarts=1, max_iters=1), 0.5),
            (set_s_prime(), SearchConfig(detector_dims=(3, 3), mode=FREE_DETECTORS, restarts=1, max_iters=1), 2 / 3),
            (set_s_prime(), SearchConfig(restarts=1, max_iters=1), 1 / 3),
            (set_s(), SearchConfig(restarts=1, max_iters=1), 0.0),
        ],
        ids=["bell3_bell", "bell4_bell", "bell4_free", "s_prime_free_3x2", "s_prime_free_3x3", "s_prime_bell", "s_bell"],
    )
    def test_search_reports_its_mode_cap(self, states, cfg, cap):
        assert search(states, cfg).margin_cap == pytest.approx(cap, abs=1e-15)

    def test_cap_within_two_tol_of_zero_stops_nothing(self):
        # S: the summed reduced states are I on both sides, so Bell detectors cap it at 0, and its
        # search runs its whole budget, as it did before restarts could stop at their cap
        assert search_module._margin_cap(states_module._stack(set_s()), (2, 2), maximally_entangled=True) <= 2e-9
        result = search(set_s(), SearchConfig(seed=3, restarts=8, max_iters=60))
        assert (result.found, result.restart_index, result.iterations_used) == (False, 0, 381)

    @pytest.mark.parametrize("tols, iterations", [(2, 44), (3, 1)], ids=["two_tol", "three_tol"])
    def test_stop_needs_a_cap_above_two_tol(self, monkeypatch, tols, iterations):
        # the stop is -(cap - tol), used only where cap - tol > tol: three Bell states' restart 0
        # scores 1/4 at its start, so a usable stop ends it there, and a cap of 2 tol leaves it
        # the 44 iterations it runs without one
        cfg = SearchConfig(seed=0)
        monkeypatch.setattr(search_module, "_margin_cap", lambda *args, **kwargs: tols * cfg.tol)
        result = search(bell_states()[:3], cfg)
        assert (result.found, result.restart_index, result.iterations_used) == (True, 0, iterations)
        assert result.best_report.margin.hex() == "0x1.0000000000006p-2"


class TestPinnedResults:
    """Seeded searches pinned to exact integers and margin bits.

    A branch tensor built or gathered for the wrong restart, a wave
    scanned out of restart order, or any change in rounding, moves these
    values. A deliberate rounding change must update them and say so in
    CHANGES.md.
    """

    @pytest.mark.parametrize(
        "states, cfg, expected",
        [
            (set_s_prime(), SearchConfig(seed=0), (True, 0, 64, "0x1.5c9882b8fdc40p-7")),
            (PAIR, SearchConfig(seed=0, restarts=12, max_iters=80), (False, 0, 270, "-0x1.0000000000000p-52")),
            (PAIR, SearchConfig(seed=1, restarts=12, max_iters=80), (False, 0, 277, "-0x1.0000000000000p-52")),
            (PAIR, SearchConfig(seed=2, restarts=12, max_iters=80), (False, 0, 272, "-0x1.0000000000000p-52")),
            (
                set_s_prime(),
                SearchConfig(seed=11, mode=FREE_DETECTORS, restarts=4, max_iters=200),
                (False, 0, 800, "0x1.0000000000000p-52"),
            ),
            # found by restart 1, whose Bell assignment differs from restart 0's
            (set_s_prime(), SearchConfig(seed=7, restarts=6, max_iters=60), (True, 1, 109, "0x1.5c9882b91ce80p-7")),
            # restarts run in waves of 1, 1, 2 and 4: found by the first
            # restart of the wave of 2, then by the last of the waves of 2 and 4
            (set_s_prime(), SearchConfig(seed=10, restarts=8, max_iters=60), (True, 2, 144, "0x1.5c9882b87f640p-7")),
            (set_s_prime(), SearchConfig(seed=23, restarts=8, max_iters=60), (True, 3, 208, "0x1.5c9882b8c4740p-7")),
            (set_s_prime(), SearchConfig(seed=21, restarts=8, max_iters=60), (True, 7, 319, "0x1.5c9882b849a80p-7")),
            # on three or more states Bell restart 0 starts at the best Bell assignment at uniform
            # probability where that certifies: three Bell states at the bound 1/4, and a Haar basis
            # that random restarts first find at restart 4
            # at its margin cap, the restart stops at its start: 1 iteration
            (bell_states()[:3], SearchConfig(seed=0), (True, 0, 1, "0x1.0000000000006p-2")),
            (bell_states(), SearchConfig(seed=0), (True, 0, 1, "0x1.0000000000003p-1")),
            (
                random_orthonormal_basis(SubsystemLayout.of(A=2, B=2), 2),
                SearchConfig(seed=0),
                (True, 0, 83, "0x1.440fb66f1dd7cp-3"),
            ),
            # free searches run max_iters per restart, so only their margins show how they rounded;
            # on 2 x 2 states with 2 x 2 detectors restart 0 starts at the conjugate witness
            (
                bell_states()[:3],
                SearchConfig(seed=7, mode=FREE_DETECTORS, restarts=6, max_iters=120),
                (True, 0, 120, "0x1.0000000000006p-2"),
            ),
            (
                random_orthonormal_basis(SubsystemLayout.of(A=2, B=2), 5),
                SearchConfig(seed=2, mode=FREE_DETECTORS, restarts=6, max_iters=120),
                (True, 0, 120, "0x1.92af086a5d8c0p-3"),
            ),
            # four Bell states' conjugate witness reaches the cap of any 2 x 2 detectors, 1/2
            (
                bell_states(),
                SearchConfig(seed=0, mode=FREE_DETECTORS, restarts=4, max_iters=200),
                (True, 0, 1, "0x1.0000000000003p-1"),
            ),
            # unequal detector dims: a d_C, d_D swap in the free detectors moves the margin
            (
                bell_states()[:3],
                SearchConfig(detector_dims=(3, 2), seed=0, mode=FREE_DETECTORS, restarts=4, max_iters=120),
                (True, 3, 480, "0x1.0da87b4a92f40p-7"),
            ),
            # 3 x 3 detectors on S': restart 0 starts at the conjugate witness, margin 1/27, and
            # improves it to 0.0402; four random restarts (the other dims' starts) find nothing
            (
                set_s_prime(),
                SearchConfig(detector_dims=(3, 3), seed=0, mode=FREE_DETECTORS, restarts=4, max_iters=200),
                (True, 0, 200, "0x1.49552611add60p-5"),
            ),
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
            "bell3_bell_0",
            "bell4_bell_0",
            "basis2x2_bell_0",
            "bell3_free_7",
            "basis2x2_free_2",
            "bell4_free_0",
            "bell3_free_3x2_0",
            "s_prime_free_3x3_0",
        ],
    )
    def test_seeded_search(self, states, cfg, expected):
        result = search(states, cfg)
        margin = result.best_report.margin.hex()
        assert (result.found, result.restart_index, result.iterations_used, margin) == expected
