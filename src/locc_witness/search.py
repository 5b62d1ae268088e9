"""Automated search for certifying detector ensembles.

Maximizes the majorization-violation margin over detectors and
probabilities. The objective is piecewise smooth with kinks where
partial-sum maxima cross, so the optimizer is a derivative-free
Nelder-Mead polytope with pseudorandom restarts; per-restart seeds
derive deterministically from the master seed, and results merge by
maximum margin with ties broken by lowest restart index, so sequential
and concurrent execution agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .catalog import bell_states
from .majorization import DEFAULT_TOL, _check_tol
from .states import PureState, SubsystemLayout, _fresh_labels, _haar_unitary, _stack, validate_state_set
from .witness import WitnessProblem, WitnessReport, _branches, _witness_spectra, check_witness

FIXED_BELL_ENUMERATION = "FIXED_BELL_ENUMERATION"
FREE_DETECTORS = "FREE_DETECTORS"
MODES = (FIXED_BELL_ENUMERATION, FREE_DETECTORS)


@dataclass(frozen=True)
class SearchConfig:
    detector_dims: tuple[int, int] = (2, 2)
    restarts: int = 64
    max_iters: int = 200
    seed: int = 0
    tol: float = DEFAULT_TOL
    mode: str = FIXED_BELL_ENUMERATION

    def __post_init__(self) -> None:
        object.__setattr__(self, "detector_dims", tuple(int(d) for d in self.detector_dims))
        if len(self.detector_dims) != 2 or min(self.detector_dims) < 2:
            raise ValueError(f"detector_dims must be two dimensions >= 2, got {self.detector_dims}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
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
    w = np.exp(z - z.max())
    return w / w.sum()


def _nelder_mead(f, x0: np.ndarray, step: float = 0.5, max_iters: int = 200, ftol: float = 1e-12):
    """Minimize f by the reflect/expand/contract/shrink polytope method.

    The simplex is one (n+1, n) array, re-sorted by a stable argsort of
    its values at each iteration. Deterministic given (f, x0); returns
    (best_x, best_f, iterations).
    """
    n = x0.size
    simplex = np.tile(x0.astype(float), (n + 1, 1))
    simplex[np.arange(1, n + 1), np.arange(n)] += step
    values = np.array([f(x) for x in simplex])
    iterations = 0

    for iterations in range(1, max_iters + 1):
        order = values.argsort(kind="stable")
        simplex, values = simplex[order], values[order]
        if values[-1] - values[0] < ftol:
            break

        centroid = simplex[:-1].mean(axis=0)
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
        simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
        values[1:] = [f(x) for x in simplex[1:]]

    best = int(np.argmin(values))
    return simplex[best], float(values[best]), iterations


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
    found=False.
    """
    states = list(states)
    rep = validate_state_set(states)
    if not rep.passed:
        raise ValueError("states must be mutually orthonormal")
    if len(states[0].layout.parts) != 2:
        raise ValueError("search requires states on a two-part layout")
    k = len(states)
    dc, dd = cfg.detector_dims
    det_labels = _fresh_labels(set(states[0].layout.labels))
    det_layout = SubsystemLayout(((det_labels[0], dc), (det_labels[1], dd)))

    if cfg.mode == FIXED_BELL_ENUMERATION:
        if (dc, dd) != (2, 2):
            raise ValueError("Bell enumeration needs detector_dims (2, 2)")
        if k > 4:
            raise ValueError(
                f"detector space holds only 4 distinct Bell states, cannot assign {k}"
            )
        bells = bell_states(det_labels)
        bell_stack = _stack(bells)
        assignments = list(permutations(range(4), k))

    psi = _stack(states)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)

    def detector_terms(phi: np.ndarray):
        # what the witness needs of a detector stack: branches and C:D spectra
        return _branches(psi, phi), np.linalg.svd(phi, compute_uv=False) ** 2

    def free_detectors(x: np.ndarray):
        # None when a detector is too short to normalize
        raw = x[k:].reshape(k, dc, dd, 2)
        phi = raw[..., 0] + 1j * raw[..., 1]
        norms = np.linalg.norm(phi.reshape(k, -1), axis=1)
        if norms.min() < 1e-9:
            return None
        return phi / norms[:, None, None]

    def materialize(x: np.ndarray, assignment=None):
        if assignment is not None:
            detectors = tuple(bells[j] for j in assignment)
        else:
            detectors = tuple(PureState(det_layout, v) for v in free_detectors(x))
        return WitnessProblem(tuple(states), detectors, tuple(_softmax(x[:k])))

    def negated_margin(source: np.ndarray, average: np.ndarray) -> float:
        # Both partial sums end at 1, so the last difference is ~0 and
        # would hold the objective on a flat plateau wherever the
        # conversion is allowed; without it the objective stays
        # informative there and equals the margin beyond float dust.
        return -float((source.cumsum() - average.cumsum())[:-1].max())

    best_margin = -np.inf
    best_x = None
    best_assignment = None
    best_restart = 0
    iterations_used = 0

    for r in range(cfg.restarts):
        rng = np.random.default_rng(seeds[r])
        if cfg.mode == FIXED_BELL_ENUMERATION:
            assignment = assignments[r % len(assignments)]
            # the detectors of a restart are fixed: only the probabilities move
            branches, targets = detector_terms(bell_stack[list(assignment)])

            def objective(x):
                return negated_margin(*_witness_spectra(branches, targets, _softmax(x[:k])))

            x0 = rng.standard_normal(k)
        else:
            assignment = None

            def objective(x):
                phi = free_detectors(x)
                if phi is None:
                    return 1.0
                return negated_margin(*_witness_spectra(*detector_terms(phi), _softmax(x[:k])))

            pieces = [rng.standard_normal(k)]
            for _ in range(k):
                v = _random_maximally_entangled(rng, dc, dd)
                pieces.append(np.column_stack([v.real, v.imag]).ravel())
            x0 = np.concatenate(pieces)
        x_opt, f_opt, iters = _nelder_mead(objective, x0, max_iters=cfg.max_iters)
        iterations_used += iters
        margin = -f_opt

        if margin > best_margin:
            best_margin, best_x, best_assignment, best_restart = margin, x_opt, assignment, r

        if margin > cfg.tol:
            problem = materialize(x_opt, assignment)
            report = check_witness(problem, cfg.tol)
            if report.certified:
                return SearchResult(True, report, problem, iterations_used, r)

    problem = materialize(best_x, best_assignment)
    report = check_witness(problem, cfg.tol)
    return SearchResult(report.certified, report, problem, iterations_used, best_restart)
