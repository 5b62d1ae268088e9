"""Automated search for certifying detector ensembles.

Maximizes the majorization-violation margin over detectors and
probabilities. The objective is piecewise smooth with kinks where
partial-sum maxima cross, so the optimizer is a derivative-free
Nelder-Mead polytope with pseudorandom restarts; per-restart seeds
derive deterministically from the master seed, and results merge by
maximum margin with ties within tol broken by lowest restart index, so
float dust in the margins cannot move the reported best restart.

On three or more states, restarts run in waves of 1, 1, 2, 4, 8, ...
restarts, each as large as all the waves before it until a wave's stacked
branch tensors would pass _WAVE_BRANCH_BYTES, after which waves keep the
largest size below that bound (a bound no benchmarked search reaches), so
that a search found early has advanced few restarts past its own. Two
orthogonal pure states are always LOCC distinguishable (Walgate, Short,
Hardy and Vedral, PRL 85, 4972 (2000)), so a set of at most two states
never certifies and runs every restart: its first wave is as large as that
bound allows, up to all of them. The polytope is a generator that yields the
points it needs; the runs of a wave advance in rounds, and each round
evaluates the points of every live run in one stacked call of the witness
kernel, so a round takes one AC:BD SVD however many restarts share it. A
free-detector round whose branches would pass _WAVE_BRANCH_BYTES is
evaluated in slices that stay within it. Each row rounds as it would
alone, and a wave's results are taken in restart order, so a search
returns, bit for bit, what running its restarts one at a time returns.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .catalog import bell_states
from .majorization import _FREE_NORM_FLOOR, _FTOL, DEFAULT_TOL, _check_tol, _partial_sums
from .states import PureState, SubsystemLayout, _fresh_labels, _haar_unitary, _require_orthonormal, _stack
from .witness import WitnessProblem, WitnessReport, _branches, _superpose, _witness_spectra, check_witness

FIXED_BELL_ENUMERATION = "FIXED_BELL_ENUMERATION"
FREE_DETECTORS = "FREE_DETECTORS"
MODES = (FIXED_BELL_ENUMERATION, FREE_DETECTORS)

# A wave's first round stacks the n+1 start vertices of each restart, and
# each row carries a branch tensor of k * d_A * d_B * d_C * d_D complex
# entries. Waves stop doubling, and a pair's first wave stops growing, where
# that round would pass this many bytes of branches, so free-detector
# searches on large sets do not stack the branches of dozens of restarts at
# once, and a free-detector round larger than this, such as one restart's
# start vertices on a large set, is evaluated in slices of at most this many
# bytes of branches.
_WAVE_BRANCH_BYTES = 1 << 24

# Each start vertex of the polytope moves one coordinate of the start point by this much.
_NM_STEP = 0.5


def _is_integer_at_least(value, least: int) -> bool:
    """True iff ``value`` is an integer, not a bool, of at least ``least``."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= least


@dataclass(frozen=True)
class SearchConfig:
    detector_dims: tuple[int, int] = (2, 2)
    restarts: int = 64
    max_iters: int = 200
    seed: int = 0
    tol: float = DEFAULT_TOL
    mode: str = FIXED_BELL_ENUMERATION

    def __post_init__(self) -> None:
        dims = tuple(self.detector_dims)
        if len(dims) != 2 or not all(_is_integer_at_least(d, 2) for d in dims):
            raise ValueError(f"detector_dims must be two integers >= 2, got {self.detector_dims!r}")
        object.__setattr__(self, "detector_dims", tuple(int(d) for d in dims))
        for name, least in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_integer_at_least(value, least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        _check_tol(self.tol)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class SearchResult:
    found: bool
    best_report: WitnessReport
    best_problem: WitnessProblem
    iterations_used: int
    restart_index: int


def simplex_sample(k: int, seed: int) -> np.ndarray:
    """Uniform sample from the probability simplex via exponential spacings."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    e = rng.standard_exponential(k)
    return e / e.sum()


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a (P, k) array."""
    w = np.exp(z - np.maximum.reduce(z, axis=1, keepdims=True))
    return w / np.add.reduce(w, axis=1, keepdims=True)


def _nelder_mead(x0: np.ndarray, max_iters: int = 200):
    """Minimize by the reflect/expand/contract/shrink polytope method, as a generator.

    Yields each batch of points it needs as an (m, n) array and takes
    their values back as an array of m: the n+1 start vertices, then per
    iteration one reflected, expanded or contracted point, or the n shrunk
    vertices. The simplex is one (n+1, n) array, re-sorted by a stable
    argsort of its values at each iteration. Deterministic given the values
    it is sent; returns (best_x, best_f, iterations).
    """
    n = x0.size
    simplex = np.tile(x0.astype(float), (n + 1, 1))
    simplex[np.arange(1, n + 1), np.arange(n)] += _NM_STEP
    values = yield simplex
    iterations = 0

    for iterations in range(1, max_iters + 1):
        order = values.argsort(kind="stable")
        simplex, values = simplex.take(order, 0), values[order]
        if values[-1] - values[0] < _FTOL:
            break

        centroid = np.add.reduce(simplex[:-1], axis=0) / n
        reflected = centroid + (centroid - simplex[-1])
        fr = (yield reflected[None])[0]
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
            continue
        if fr < values[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            fe = (yield expanded[None])[0]
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
            continue
        contracted = centroid + 0.5 * (simplex[-1] - centroid)
        fc = (yield contracted[None])[0]
        if fc < values[-1]:
            simplex[-1], values[-1] = contracted, fc
            continue
        simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
        values[1:] = yield simplex[1:]

    best = int(np.argmin(values))
    return simplex[best], float(values[best]), iterations


def _minimize_together(runs, evaluate):
    """Advance :func:`_nelder_mead` generators in rounds, yielding their results in run order.

    Each round stacks the points every live run waits for and makes one
    ``evaluate(points, owners)`` call, where ``owners`` indexes the run of
    each row: an index array, or a one-run slice when a single run is
    live. ``evaluate`` returns one value per row. A run's (x, f, iterations)
    is yielded as soon as it and every run before it have finished, so a
    caller that stops at one result leaves the later runs unfinished.
    """
    pending = {i: next(run) for i, run in enumerate(runs)}
    finished, next_result = {}, 0
    while pending:
        if len(pending) == 1:
            ((i, points),) = pending.items()
            values = evaluate(points, slice(i, i + 1))
        else:
            owners = np.array([i for i, block in pending.items() for _ in range(len(block))])
            values = evaluate(np.concatenate(list(pending.values())), owners)
        row = 0
        for i, block in list(pending.items()):
            end = row + len(block)
            try:
                pending[i] = runs[i].send(values[row:end])
            except StopIteration as done:
                finished[i] = done.value
                del pending[i]
            row = end
        while next_result in finished:
            yield finished.pop(next_result)
            next_result += 1


def _random_maximally_entangled(rng: np.random.Generator, dc: int, dd: int) -> np.ndarray:
    # Product detectors can never witness, so free-mode restarts start
    # from random maximally entangled detectors and let the optimizer
    # trade entanglement away if that helps.
    m = min(dc, dd)
    core = np.zeros((dc, dd), dtype=complex)
    core[np.arange(m), np.arange(m)] = 1.0 / math.sqrt(m)
    return (_haar_unitary(rng, dc) @ core @ _haar_unitary(rng, dd).T).ravel()


def search(states, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Look for detectors and probabilities certifying indistinguishability.

    FIXED_BELL_ENUMERATION cycles restarts through the ordered assignments
    of distinct Bell detectors (two-qubit detector space only) and
    optimizes probabilities from a pseudorandom simplex start.
    FREE_DETECTORS optimizes detector amplitudes jointly with the
    probabilities. The first restart whose re-verified margin exceeds
    cfg.tol wins; otherwise the best margin found is reported with
    found=False. A later restart replaces the best only when its margin
    exceeds the best by more than cfg.tol, so ties within cfg.tol go to the
    lowest restart.

    Restarts run in waves (see the module docstring), the last cut at
    cfg.restarts: doubling from one restart on three or more states, and
    all restarts at once, within _WAVE_BRANCH_BYTES, on at most two states,
    which LOCC always distinguishes (Walgate et al. 2000), so they never
    certify. A found result ends the search at its restart, and
    ``iterations_used`` counts the restarts up to it, as if the restarts
    had run one at a time.
    """
    states = list(states)
    psi = _stack(states)
    _require_orthonormal(psi, "state set")
    if len(states[0].layout.parts) != 2:
        raise ValueError(f"search needs a two-part layout, got {states[0].layout}")
    k = len(states)
    dc, dd = cfg.detector_dims
    det_labels = _fresh_labels(set(states[0].layout.labels))
    det_layout = SubsystemLayout(((det_labels[0], dc), (det_labels[1], dd)))
    bell = cfg.mode == FIXED_BELL_ENUMERATION

    if bell:
        if (dc, dd) != (2, 2):
            raise ValueError("Bell enumeration needs detector_dims (2, 2)")
        if k > 4:
            raise ValueError(
                f"detector space holds only 4 distinct Bell states, cannot assign {k}"
            )
        bells = bell_states(det_labels)
        bell_stack = _stack(bells)
        assignments = list(permutations(range(4), k))

    n = k if bell else k + 2 * k * dc * dd  # coordinates of a start point
    row_cap = max(1, _WAVE_BRANCH_BYTES // (psi.size * dc * dd * 16))  # rows of branches within the bound
    wave_cap = max(1, row_cap // (n + 1))
    # restart r seeds its generator from the master seed's r-th child;
    # each wave spawns the children of its own restarts
    master_seed = np.random.SeedSequence(cfg.seed)

    def detector_terms(phi: np.ndarray):
        # what the witness needs of a stack of detector stacks: branches and C:D spectra
        return _branches(psi, phi), np.linalg.svd(phi, compute_uv=False) ** 2

    def free_detectors(points: np.ndarray):
        # the unnormalized detectors of each row and their norms
        raw = points[:, k:].reshape(len(points), k, dc, dd, 2)
        phi = raw[..., 0] + 1j * raw[..., 1]
        return phi, np.linalg.norm(phi.reshape(len(points), k, -1), axis=2)

    def margins(points: np.ndarray, branches: np.ndarray, targets: np.ndarray) -> np.ndarray:
        # minus the margin without the last excess: both partial sums end at 1, so it is ~0
        # and would hold the objective on a flat plateau wherever the conversion is allowed
        probs = _softmax(points[:, :k])
        *_, excess = _partial_sums(*_witness_spectra(_superpose(probs, branches), targets, probs))
        return -np.maximum.reduce(excess[:, :-1], axis=1)

    def free_margins(points: np.ndarray, owners) -> np.ndarray:
        if len(points) > row_cap:
            # rows are independent and round alike in any stack, so a round splits freely
            return np.concatenate(
                [free_margins(points[i : i + row_cap], owners) for i in range(0, len(points), row_cap)]
            )
        phi, norms = free_detectors(points)
        if norms.min() >= _FREE_NORM_FLOOR:
            return margins(points, *detector_terms(phi / norms[..., None, None]))
        # a row with a detector too short to normalize scores 1, worse than any margin
        values = np.ones(len(points))
        kept = np.minimum.reduce(norms, axis=1) >= _FREE_NORM_FLOOR
        if kept.any():
            values[kept] = margins(points[kept], *detector_terms(phi[kept] / norms[kept][..., None, None]))
        return values

    def start(r: int, seed: np.random.SeedSequence):
        # restart r's Bell assignment (None for free detectors) and start point
        rng = np.random.default_rng(seed)
        if bell:
            return assignments[r % len(assignments)], rng.standard_normal(k)
        pieces = [rng.standard_normal(k)]
        for _ in range(k):
            v = _random_maximally_entangled(rng, dc, dd)
            pieces.append(np.column_stack([v.real, v.imag]).ravel())
        return None, np.concatenate(pieces)

    def materialize(x: np.ndarray, assignment):
        if assignment is not None:
            detectors = tuple(bells[j] for j in assignment)
        else:
            phi, norms = free_detectors(x[None])
            detectors = tuple(PureState(det_layout, v) for v in phi[0] / norms[0][:, None, None])
        return WitnessProblem._of(psi, states, detectors, tuple(_softmax(x[None, :k])[0]))

    best_margin = -np.inf
    best_x = None
    best_assignment = None
    best_restart = 0
    iterations_used = 0

    # A set of at most two states never certifies (Walgate et al., PRL 85,
    # 4972 (2000)), so all its restarts run and it starts at full wave width.
    # Rows round alike in any stack and results are taken in restart order,
    # so this moves cost, not results: a found pair would return the same.
    wave = range(min(wave_cap, cfg.restarts) if k <= 2 else 1)
    while wave:
        wave_assignments, x0s = zip(*map(start, wave, master_seed.spawn(len(wave))))
        if bell:
            # the detectors of a restart are fixed: only the probabilities move
            branches, targets = detector_terms(bell_stack[np.array(wave_assignments)])

            def evaluate(points, owners):
                return margins(points, branches[owners], targets[owners])
        else:
            evaluate = free_margins
        results = _minimize_together([_nelder_mead(x0, max_iters=cfg.max_iters) for x0 in x0s], evaluate)
        for r, assignment, (x_opt, f_opt, iters) in zip(wave, wave_assignments, results):
            iterations_used += iters
            margin = -f_opt

            if margin > best_margin + cfg.tol:
                best_margin, best_x, best_assignment, best_restart = margin, x_opt, assignment, r

            if margin > cfg.tol:
                problem = materialize(x_opt, assignment)
                report = check_witness(problem, cfg.tol)
                if report.certified:
                    return SearchResult(True, report, problem, iterations_used, r)
        wave = range(wave.stop, min(2 * wave.stop, wave.stop + wave_cap, cfg.restarts))

    problem = materialize(best_x, best_assignment)
    report = check_witness(problem, cfg.tol)
    return SearchResult(report.certified, report, problem, iterations_used, best_restart)
