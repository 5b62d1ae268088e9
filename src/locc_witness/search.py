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
that a search found early has advanced few restarts past its own. A set of
at most two states never certifies (_always_distinguishable) and runs every
restart: its first wave is as large as that bound allows, up to all of
them. The polytope is a generator that yields the
points it needs; the runs of a wave advance in rounds, and each round
evaluates the points of every live run in one stacked call of the witness
kernel, so a round takes one AC:BD SVD however many restarts share it. An
iteration yields its reflected and contracted points in one batch, as the
contraction is its most common second step, so it costs one round; only an
expansion or a shrink costs a second. A run left live alone, a wave's only
one or its last, advances in a plain loop of one evaluation per round,
without the bookkeeping of a shared round.

The driver, search, runs the waves for either mode; each mode is one
builder, which also picks its restarts' start points. Restart 0 starts at
a known witness of the set where one applies: in Bell mode the best Bell
assignment at uniform probability, where it certifies; in free mode, with
detectors of the states' own dims, the conjugate witness. Nelder-Mead never
makes its best vertex worse, so where that witness certifies the search is
found at restart 0.

Bell mode's ordered assignments of k Bell detectors and their C:D spectra
depend on k alone, so _bell_table builds them once per process and k.
_bell_mode runs _float_nelder_mead, a polytope of Python floats,
on its k <= 4 coordinates, and _free_mode runs _nelder_mead, one numpy
array, on its k(1 + 2 d_C d_D) >= 18. Both keep one ranked simplex and make
the same moves with the same rounding; they differ only in storage, so the
mode picks the cheaper bookkeeping, never a result. _free_mode evaluates a
round whose branches would pass _WAVE_BRANCH_BYTES in slices that stay
within it, as _bell_mode does its scoring of every Bell assignment. Each row
rounds as it would alone, and a wave's results are
taken in restart order, so a search returns, bit for bit, what running its
restarts one at a time returns.

Each builder also returns its mode's margin cap (_margin_cap), a proven
bound on the margin of any point the mode can reach: 1 - 1/min(d_C, d_D)
for free detectors, and min(1/2, max(0, (mu - 1)/2)) for Bell detectors,
mu the smaller largest eigenvalue of the states' summed reduced states on
A and on B. search turns it into one stop value, -(cap - tol), used
only where cap - tol > tol, and a restart ends as soon as its best vertex
reaches it: nothing is left to find there. A restart that stops at its
start reports 1 iteration. A search whose restarts never reach the stop
returns what it would without one.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .catalog import bell_states
from .majorization import _FREE_NORM_FLOOR, _FTOL, DEFAULT_TOL, _check_tol, _is_integer_at_least, _partial_sums
from .states import (
    PureState,
    _detector_layout,
    _haar_unitary,
    _require_orthonormal,
    _require_two_parts,
    _schmidt_spectra,
    _stack,
)
from .witness import (
    WitnessProblem,
    WitnessReport,
    _branches,
    _conjugate_detectors,
    _superpose,
    _witness_spectra,
    check_witness,
)

FIXED_BELL_ENUMERATION = "FIXED_BELL_ENUMERATION"
FREE_DETECTORS = "FREE_DETECTORS"

# A wave's first round stacks the n+1 start vertices of each restart, each
# row a branch tensor of k * d_A * d_B * d_C * d_D complex entries. Waves stop
# growing where that round would pass this many bytes of branches, and a
# larger free-detector round, such as one restart's start vertices on a large
# set, is evaluated in slices within it.
_WAVE_BRANCH_BYTES = 1 << 24

# Each start vertex of the polytope moves one coordinate of the start point by this much.
_NM_STEP = 0.5


@dataclass(frozen=True)
class SearchConfig:
    """A search's detector dims (d_C, d_D), restart and iteration budgets, master seed, tol and mode.

    The integers are kept as Python ints and tol as a Python float, numpy numbers included.
    FIXED_BELL_ENUMERATION needs detector_dims (2, 2); on three or more states it starts restart 0 at
    the best Bell assignment at uniform probability where that certifies. In FREE_DETECTORS,
    detector_dims equal to the states' own (d_A, d_B) start restart 0 at the conjugate witness; any
    other dims start every restart from its seed. max_iters bounds each restart's iterations; a
    restart ends earlier when its simplex values span less than _FTOL, or when its margin comes
    within tol of the mode's margin cap (see :func:`search`).
    """

    detector_dims: tuple[int, int] = (2, 2)
    restarts: int = 64
    max_iters: int = 200
    seed: int = 0
    tol: float = DEFAULT_TOL
    mode: str = FIXED_BELL_ENUMERATION

    def __post_init__(self) -> None:
        try:
            dims = tuple(self.detector_dims)
        except TypeError:  # not iterable, such as 2 or None
            dims = ()
        if len(dims) != 2 or not all(_is_integer_at_least(d, 2) for d in dims):
            raise ValueError(f"detector_dims must be two integers >= 2, got {self.detector_dims!r}")
        object.__setattr__(self, "detector_dims", tuple(int(d) for d in dims))
        for name, least in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_integer_at_least(value, least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "tol", _check_tol(self.tol))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class SearchResult:
    """A search's best problem and its report, with the restart and iterations it took.

    ``margin_cap`` is the largest margin the search's mode can give the set at any point (see
    :func:`search`); a restart that reaches it within ``tol`` stops there.
    """

    found: bool
    best_report: WitnessReport
    best_problem: WitnessProblem
    iterations_used: int
    restart_index: int
    margin_cap: float


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a (P, k) array."""
    w = np.exp(z - np.maximum.reduce(z, axis=1, keepdims=True))
    return w / np.add.reduce(w, axis=1, keepdims=True)


def _nelder_mead(x0: np.ndarray, max_iters: int = 200, stop: float = -math.inf):
    """Minimize by the reflect/expand/contract/shrink polytope method, as a generator.

    Yields each batch of points it needs as an (m, n) array and takes
    their values back as a list of m floats: the n+1 start vertices, then
    per iteration its reflected and contracted points as one batch of two,
    followed by its expanded point where the reflection beats the best
    vertex, or by the n shrunk vertices where neither the reflection nor
    the contraction is kept. The contraction is scored whether or not it
    is used, so an iteration costs one batch unless it expands or shrinks,
    and every move is the one that scoring it only when needed would make.
    The simplex is one (n+1, n) array kept ranked beside a list of its
    values: the start and each shrink are ranked by a stable
    sort of their values, and a vertex that replaces the worst is inserted
    after every vertex whose value is no higher, where a stable sort of all
    n+1 values would put it, the rows below it moving down one. The best
    vertex is always the first. An iteration first tests the simplex: the
    run ends there once its values span less than _FTOL or its best value
    is at most ``stop``, so a run whose start vertex reaches ``stop`` reports
    1 iteration. Deterministic given the values it is sent; returns
    (best_x, best_f, iterations).
    """
    n = x0.size

    def ranked(simplex, values):
        order = sorted(range(n + 1), key=values.__getitem__)
        return simplex[order], [values[i] for i in order]

    simplex = np.tile(x0.astype(float), (n + 1, 1))
    simplex[np.arange(1, n + 1), np.arange(n)] += _NM_STEP
    simplex, values = ranked(simplex, (yield simplex))
    iterations = 0

    for iterations in range(1, max_iters + 1):
        if values[-1] - values[0] < _FTOL or values[0] <= stop:
            break

        centroid = np.add.reduce(simplex[:-1], axis=0) / n
        worst = simplex[-1]
        # the contraction is the usual second step, so it is scored with the reflection
        trial = np.array((centroid + (centroid - worst), centroid + 0.5 * (worst - centroid)))
        fr, fc = yield trial
        reflected, contracted = trial
        if values[0] <= fr < values[-2]:
            x, f = reflected, fr
        elif fr < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            (fe,) = yield expanded[None]
            x, f = (expanded, fe) if fe < fr else (reflected, fr)
        elif fc < values[-1]:
            x, f = contracted, fc
        else:
            simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
            simplex, values = ranked(simplex, values[:1] + (yield simplex[1:]))
            continue
        del values[-1]
        at = bisect_right(values, f)
        values.insert(at, f)
        simplex[at + 1 :] = simplex[at:-1]
        simplex[at] = x

    return simplex[0], values[0], iterations


def _float_nelder_mead(x0: np.ndarray, max_iters: int = 200, stop: float = -math.inf):
    """:func:`_nelder_mead` with the simplex held as lists of Python floats.

    Same protocol, stops, batches, moves, ranking and rounding; each batch is a
    list of m points, each a list of n floats, the reflected and contracted
    points making one. The centroid is summed row by row
    from the first row, as numpy reduces the rows of an array; Python's
    float ``sum`` (from 3.12) and ``math.fsum`` are compensated and would
    round differently. It spares numpy's per-call overhead, which
    dominates on a few coordinates, but its Python loops grow with n, and
    the centroid with n squared.
    """
    n = x0.size

    def ranked(simplex, values):
        order = sorted(range(n + 1), key=values.__getitem__)
        return [simplex[i] for i in order], [values[i] for i in order]

    start = x0.tolist()
    simplex = [start] + [start[:i] + [start[i] + _NM_STEP] + start[i + 1 :] for i in range(n)]
    simplex, values = ranked(simplex, (yield simplex))
    iterations = 0

    for iterations in range(1, max_iters + 1):
        if values[-1] - values[0] < _FTOL or values[0] <= stop:
            break

        total = simplex[0]
        for row in simplex[1:-1]:
            total = [t + v for t, v in zip(total, row)]
        centroid = [t / n for t in total]
        worst = simplex[-1]
        reflected = [c + (c - w) for c, w in zip(centroid, worst)]
        contracted = [c + 0.5 * (w - c) for c, w in zip(centroid, worst)]
        fr, fc = yield [reflected, contracted]
        if values[0] <= fr < values[-2]:
            x, f = reflected, fr
        elif fr < values[0]:
            expanded = [c + 2.0 * (c - w) for c, w in zip(centroid, worst)]
            (fe,) = yield [expanded]
            x, f = (expanded, fe) if fe < fr else (reflected, fr)
        elif fc < values[-1]:
            x, f = contracted, fc
        else:
            low = simplex[0]
            shrunk = [[b + 0.5 * (v - b) for b, v in zip(low, row)] for row in simplex[1:]]
            simplex, values = ranked([low] + shrunk, values[:1] + (yield shrunk))
            continue
        del simplex[-1], values[-1]
        at = bisect_right(values, f)
        simplex.insert(at, x)
        values.insert(at, f)

    return np.array(simplex[0]), values[0], iterations


def _minimize_together(runs, evaluate):
    """Advance polytope generators in rounds, yielding their results in run order.

    The runs are :func:`_nelder_mead` or :func:`_float_nelder_mead`
    generators. Each round stacks the points every live run waits for, two
    per run in most rounds (its reflection and contraction), into
    one array and makes one ``evaluate(points, owners)`` call, where
    ``owners`` indexes the run of each row: an index array, or a one-run
    slice when a single run is live. ``evaluate`` returns one value per
    row, and each run is sent its values as a list. Once a single run i is
    live, whether it is a wave's only run or its last, a plain loop sends it
    the values of ``evaluate(points, slice(i, i + 1))`` until it finishes,
    the same calls in the same order as rounds, without stacking the
    points or walking the runs. A run's (x, f, iterations) is yielded as
    soon as it and every run before it have finished, so a caller that
    stops at one result leaves the later runs unfinished.
    """
    pending = {i: next(run) for i, run in enumerate(runs)}
    finished, next_result = {}, 0
    while pending:
        if len(pending) == 1:
            ((i, block),) = pending.items()
            run, owners = runs[i], slice(i, i + 1)
            while True:
                values = evaluate(np.asarray(block), owners).tolist()
                try:
                    block = run.send(values)
                except StopIteration as done:
                    finished[i] = done.value
                    break
            del pending[i]
        else:
            blocks = list(pending.values())
            # all runs are of one polytope: arrays are joined, float rows read in one pass
            if isinstance(blocks[0], np.ndarray):
                points = np.concatenate(blocks)
            else:
                points = np.array([point for block in blocks for point in block])
            owners = np.array([i for i, block in pending.items() for _ in range(len(block))])
            values = evaluate(points, owners).tolist()
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


def _free_detectors(points: np.ndarray, k: int, dims: tuple[int, int]):
    """Each row's k detectors divided by their norms, or by _FREE_NORM_FLOOR where shorter, and the norms.

    A row of ``points`` holds k logits, then each detector's d_C * d_D
    amplitudes as (real, imaginary) pairs, and its last axis is contiguous,
    so the amplitudes are read as a complex view of the row. The norms are
    the complex branch of ``np.linalg.norm(..., axis=2)``, without the
    wrapper's argument handling.
    """
    phi = points[:, k:].view(complex).reshape(len(points), k, *dims)
    flat = phi.reshape(len(points), k, -1)
    norms = np.sqrt(np.add.reduce((flat.conj() * flat).real, axis=2))
    return phi / np.maximum(norms, _FREE_NORM_FLOOR)[..., None, None], norms


def _random_maximally_entangled(rng: np.random.Generator, dc: int, dd: int) -> np.ndarray:
    # Product detectors can never witness, so free-mode restarts not started
    # at the conjugate witness start from random maximally entangled
    # detectors and let the optimizer trade entanglement away if that helps.
    m = min(dc, dd)
    core = np.zeros((dc, dd), dtype=complex)
    core[np.arange(m), np.arange(m)] = 1.0 / math.sqrt(m)
    return (_haar_unitary(rng, dc) @ core @ _haar_unitary(rng, dd).T).ravel()


def _margins(points: np.ndarray, branches: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Minus the margin of each row of k logits, given its detectors' branches and C:D spectra.

    The last excess is left out: both partial sums end at 1, so it is ~0 and
    would hold the objective on a flat plateau wherever the conversion is allowed.
    """
    probs = _softmax(points[:, : targets.shape[-2]])
    *_, excess = _partial_sums(*_witness_spectra(_superpose(probs, branches), targets, probs))
    return -np.maximum.reduce(excess[:, :-1], axis=1)


def _sliced(score, row_cap: int, *stacks: np.ndarray) -> np.ndarray:
    """score(*stacks) over consecutive slices of at most row_cap rows of the equally long stacks, concatenated.

    Rows are independent and round alike in any stack, so a stack splits freely.
    """
    rows = len(stacks[0])
    if rows <= row_cap:
        return score(*stacks)
    return np.concatenate([score(*(s[i : i + row_cap] for s in stacks)) for i in range(0, rows, row_cap)])


def _always_distinguishable(k: int) -> bool:
    """Whether every set of k orthogonal pure states is LOCC distinguishable, so that no witness certifies it.

    Two orthogonal pure states always are (Walgate, Short, Hardy and Vedral, PRL 85, 4972 (2000)), as is one.
    """
    return k <= 2


def _margin_cap(psi: np.ndarray, dims: tuple[int, int], maximally_entangled: bool = False) -> float:
    """The largest margin that detectors of dims (d_C, d_D) can give the states of stack psi, at any probabilities.

    With d' = min(d_C, d_D), each detector's C:D spectrum holds d' entries that sum to 1, so the
    average's j-th partial sum is at least j/d' up to j = d' and 1 after it, while the source's is
    at most 1: no margin passes 1 - 1/d'. With maximally entangled d' x d' detectors, every
    rho_C^(i) is I/d'. The joint state is a unit vector in the span of the orthonormal psi_i (x) phi_i,
    so rho_AC <= sum_i rho_A^(i) (x) I/d', and rho_BD, of the same spectrum, likewise on B: every
    source entry is at most mu/d', mu the smaller largest eigenvalue of sum_i rho_A^(i) and of
    sum_i rho_B^(i). So the j-th excess is at most j(mu - 1)/d' below j = d' and at most 0 from it
    on, and the margin, which includes the last excess, 0, is at most max(0, (d' - 1)(mu - 1)/d').
    mu is the top squared singular value of [Psi_1 ... Psi_k], whose Gram matrix is sum_i rho_A^(i),
    and of [Psi_1; ...; Psi_k], for B.
    """
    d = min(dims)
    cap = 1.0 - 1.0 / d
    if maximally_entangled:
        k, da, db = psi.shape
        side_a, side_b = psi.transpose(1, 0, 2).reshape(da, k * db), psi.reshape(k * da, db)
        mu = float(min(_schmidt_spectra(side_a)[0], _schmidt_spectra(side_b)[0]))
        cap = min(cap, max(0.0, (d - 1) * (mu - 1.0) / d))
    return cap


@functools.cache
def _bell_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered assignment of k distinct Bell states, as a read-only (P, k, 2, 2) stack, and their C:D spectra.

    The assignments are in the order of itertools.permutations(range(4), k), which the restarts cycle
    through, and the spectra, also read-only, are those of _schmidt_spectra. Neither depends on the
    states searched, so a process builds each k's table once.
    """
    phi = _stack(bell_states())[np.array(list(permutations(range(4), k)))]
    targets = _schmidt_spectra(phi)
    phi.setflags(write=False)
    targets.setflags(write=False)
    return phi, targets


def _bell_mode(psi: np.ndarray, cfg: SearchConfig, row_cap: int):
    """FIXED_BELL_ENUMERATION: restart r fixes the r-th ordered assignment of distinct Bell detectors.

    Only the k <= 4 probabilities move. The assignments and their C:D spectra come from _bell_table,
    built once per process and k; the branch tensors of every assignment with the states are built once
    per search, as a table whose rows each wave gathers for its restarts. On three or more states every
    assignment is scored at logits 0, uniform probability, in one pass sliced by row_cap; where the best
    of them (the first on ties) beats cfg.tol, restart 0 starts at that assignment with logits 0. Its
    first vertex scores that margin, which Nelder-Mead never makes worse. Otherwise restart 0, and every
    later restart r, fixes assignment r and starts from standard-normal logits drawn from its own seed.
    A wave's round is never sliced: the wave cap keeps it within row_cap wherever one restart's k + 1
    start vertices fit. Bell detectors are maximally entangled, so the margin cap is
    min(1/2, max(0, (mu - 1)/2)).
    """
    k = len(psi)
    if cfg.detector_dims != (2, 2):
        raise ValueError("Bell enumeration needs detector_dims (2, 2)")
    if k > 4:
        raise ValueError(f"detector space holds only 4 distinct Bell states, cannot assign {k}")
    phi, targets = _bell_table(k)
    branches = _branches(psi, phi)
    first = None
    if not _always_distinguishable(k):
        uniform = _sliced(lambda b, t: _margins(np.zeros((len(b), k)), b, t), row_cap, branches, targets)
        best = int(np.argmin(uniform))
        if -uniform[best] > cfg.tol:
            first = best

    def start(r: int, rng: np.random.Generator):
        if r == 0 and first is not None:
            return first, np.zeros(k)
        return r % len(phi), rng.standard_normal(k)

    def objective(fixed):
        # a wave gathers its restarts' rows of the table once
        rows = np.array(fixed)
        wave_branches, wave_targets = branches[rows], targets[rows]
        return lambda points, owners: _margins(points, wave_branches[owners], wave_targets[owners])

    cap = _margin_cap(psi, cfg.detector_dims, maximally_entangled=True)
    return _float_nelder_mead, k, start, objective, lambda x, fixed: phi[fixed], cap


def _free_mode(psi: np.ndarray, cfg: SearchConfig, row_cap: int):
    """FREE_DETECTORS: detector amplitudes move with the probabilities.

    Where the detectors live in the states' own d_A x d_B, restart 0 starts at the conjugate witness of
    the full-basis theorem: logits 0 and each state's conjugate as its detector. Its first vertex scores
    that witness's margin, which Nelder-Mead never makes worse. Every other restart, and restart 0 at
    other detector dims, starts from standard-normal logits and random maximally entangled detectors
    drawn from its own seed. A round of more than row_cap rows is evaluated in slices of at most
    row_cap. A row with a detector shorter than _FREE_NORM_FLOOR scores 1, worse than any margin.
    The margin cap is 1 - 1/min(d_C, d_D), which any detectors obey.
    """
    k, dims = len(psi), cfg.detector_dims
    conjugate = _conjugate_detectors(psi) if dims == psi.shape[1:] else None

    def start(r: int, rng: np.random.Generator):
        if r == 0 and conjugate is not None:
            return None, np.concatenate([np.zeros(k), conjugate.view(float).ravel()])
        logits = rng.standard_normal(k)
        return None, np.concatenate([logits] + [_random_maximally_entangled(rng, *dims).view(float) for _ in range(k)])

    def score(points: np.ndarray) -> np.ndarray:
        phi, norms = _free_detectors(points, k, dims)
        values = _margins(points, _branches(psi, phi), _schmidt_spectra(phi))
        values[np.minimum.reduce(norms, axis=1) < _FREE_NORM_FLOOR] = 1.0
        return values

    def evaluate(points: np.ndarray, owners) -> np.ndarray:
        return _sliced(score, row_cap, points)

    n = k + 2 * k * dims[0] * dims[1]
    cap = _margin_cap(psi, dims)
    return _nelder_mead, n, start, lambda fixed: evaluate, lambda x, fixed: _free_detectors(x[None], k, dims)[0][0], cap


# A mode builder takes (psi, cfg, row_cap) and returns the polytope, the number n of coordinates of a
# start point, start(r, rng) -> (restart r's fixed detectors or None, its start point), objective(fixed)
# -> the evaluate(points, owners) of a wave whose restarts fix those, detectors(x, fixed) -> amplitudes,
# and the mode's margin cap, from _margin_cap: no restart of the mode can score more.
_MODES = {FIXED_BELL_ENUMERATION: _bell_mode, FREE_DETECTORS: _free_mode}
MODES = tuple(_MODES)


def _reverified(
    states, psi: np.ndarray, amplitudes, x: np.ndarray, cfg: SearchConfig, restart: int, iterations: int, cap: float
):
    """The SearchResult of a restart's detector amplitudes and logits, found only if check_witness certifies it."""
    det_layout = _detector_layout(states[0].layout, cfg.detector_dims)
    detectors = tuple(PureState(det_layout, v) for v in amplitudes)
    problem = WitnessProblem._of(psi, states, detectors, tuple(_softmax(x[None, : len(states)])[0]))
    report = check_witness(problem, cfg.tol)
    return SearchResult(report.certified, report, problem, iterations, restart, cap)


def search(states, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Look for detectors and probabilities certifying indistinguishability.

    FIXED_BELL_ENUMERATION cycles restarts through the ordered assignments
    of distinct Bell detectors (two-qubit detector space only) and
    optimizes probabilities, starting from standard-normal logits put
    through a softmax. On three or more states it first scores every
    assignment at uniform probability; where the best one (the first on
    ties) certifies, restart 0 starts there at logits 0 and is found with at
    least its margin; that is the witness of Ghosh et al. (PRL 87, 277902
    (2001)) for three or four Bell states. Restart r >= 1 keeps assignment
    r and its seeded logits. FREE_DETECTORS optimizes detector amplitudes
    jointly with the probabilities. Where cfg.detector_dims are the states'
    own (d_A, d_B), its restart 0 starts at the paper's full-basis witness
    for the set: each state's conjugate as its detector, at uniform
    probability. Nelder-Mead never makes its best vertex worse, so wherever
    that witness certifies, restart 0 is found with at least its margin.
    Every other free restart starts from standard-normal logits and random
    maximally entangled detectors drawn from its seed.

    The first restart whose re-verified margin exceeds cfg.tol wins;
    otherwise the best margin found is reported with found=False. A later
    restart replaces the best only when its margin exceeds the best by more
    than cfg.tol, so ties within cfg.tol go to the lowest restart.

    Each mode has a margin cap, reported as ``margin_cap``: no point it can
    reach scores more. Any detectors obey 1 - 1/min(d_C, d_D). Bell
    detectors are maximally entangled and also obey max(0, (mu - 1)/2),
    mu the smaller largest eigenvalue of sum_i rho_A^(i) and sum_i
    rho_B^(i), so the Bell cap is min(1/2, max(0, (mu - 1)/2)); three and
    four Bell states reach it, at 1/4 and 1/2, and four Bell states'
    conjugate witness reaches the free 2 x 2 cap, 1/2. Where cap - tol >
    tol, a restart stops once its margin reaches cap - tol. A cap of at
    most 2 tol, such as S's 0 in Bell mode, stops nothing.

    Restarts run in the waves of the module docstring, the last cut at
    cfg.restarts. A found result ends the search at its restart, and
    ``iterations_used`` counts the iterations of the restarts up to it, as
    if the restarts had run one at a time. An iteration begins with the
    stop tests, so a restart that stops before any move, at the cap or
    on a flat start simplex, counts 1.
    """
    states = list(states)
    psi = _stack(states)
    _require_orthonormal(psi, "state set")
    _require_two_parts(states[0].layout, "search")
    # rows of branches within the bound
    row_cap = max(1, _WAVE_BRANCH_BYTES // (psi.size * math.prod(cfg.detector_dims) * 16))
    polytope, n, start, objective, detectors, cap = _MODES[cfg.mode](psi, cfg, row_cap)
    # a restart whose margin reaches cap - tol has nothing left to find; no restart stops at a margin of at most tol
    stop = -(cap - cfg.tol) if cap - cfg.tol > cfg.tol else -math.inf
    wave_cap = max(1, row_cap // (n + 1))
    # restart r seeds its generator from the master seed's r-th child;
    # each wave spawns the children of its own restarts
    master_seed = np.random.SeedSequence(cfg.seed)
    best_margin, best_restart, best_x, best_fixed = -np.inf, 0, None, None
    iterations_used = 0

    # a set that never certifies starts at full wave width; this moves cost,
    # not results: a found set would return the same
    wave = range(min(wave_cap, cfg.restarts) if _always_distinguishable(len(states)) else 1)
    while wave:
        wave_fixed, x0s = zip(*map(start, wave, map(np.random.default_rng, master_seed.spawn(len(wave)))))
        runs = [polytope(x0, max_iters=cfg.max_iters, stop=stop) for x0 in x0s]
        results = _minimize_together(runs, objective(wave_fixed))
        for r, fixed, (x_opt, f_opt, iters) in zip(wave, wave_fixed, results):
            iterations_used += iters
            margin = -f_opt
            if margin > best_margin + cfg.tol:
                best_margin, best_restart, best_x, best_fixed = margin, r, x_opt, fixed
            if margin > cfg.tol:
                candidate = _reverified(states, psi, detectors(x_opt, fixed), x_opt, cfg, r, iterations_used, cap)
                if candidate.found:
                    return candidate
        wave = range(wave.stop, min(2 * wave.stop, wave.stop + wave_cap, cfg.restarts))

    return _reverified(states, psi, detectors(best_x, best_fixed), best_x, cfg, best_restart, iterations_used, cap)
