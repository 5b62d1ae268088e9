"""Seeded inputs, operations and output checks for the benchmark workloads.

Every workload is a fixed-size pool of cases built from one seed. A case
holds one library operation and the check of its output. Expected
outputs come from construction or from an oracle that is independent of
the library (a partial trace and a Hermitian eigensolver, in numpy), and
are computed while the pool is built, outside any timed region.

The library is reached only through public names, looked up on its
modules at call time, so a traced run can wrap them.
"""

from __future__ import annotations

import importlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

catalog = importlib.import_module("locc_witness.catalog")
lw_io = importlib.import_module("locc_witness.io")
search = importlib.import_module("locc_witness.search")
states = importlib.import_module("locc_witness.states")
witness = importlib.import_module("locc_witness.witness")

# The CLI's default --tol; the check workload passes it as the CLI does.
TOL = 1e-9
# Largest accepted gap between the library margin and the oracle margin.
MARGIN_AGREEMENT = 1e-9

# Verdicts as the report format spells them, so a renamed library constant
# cannot hide a changed output.
CERTIFIED = "CERTIFIED_INDISTINGUISHABLE"
INCONCLUSIVE = "INCONCLUSIVE"
ALL_PRODUCT = "ALL_PRODUCT_PROBABILISTICALLY_DISTINGUISHABLE"
CONTAINS_ENTANGLED = "CONTAINS_ENTANGLED_LOCC_INDISTINGUISHABLE"

FIXTURES = Path(importlib.import_module("locc_witness").__file__).parent / "fixtures"


@dataclass
class Case:
    """One operation of a workload and the check of its output.

    ``verify`` returns True when the output is correct. ``restarts`` is
    the restart budget of a search case and 0 for every other case.
    """

    kind: str
    run: Callable[[], object]
    verify: Callable[[object], bool]
    restarts: int = 0


# --- numpy helpers, independent of the library --------------------------------


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def haar_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def simplex(rng: np.random.Generator, k: int) -> np.ndarray:
    e = rng.standard_exponential(k)
    return e / e.sum()


def _descending_spectrum(rho: np.ndarray, keep: int) -> np.ndarray:
    return np.clip(np.linalg.eigvalsh(rho)[::-1][:keep], 0.0, None)


def oracle_margin(psis, phis, probs, dims_ab, dims_cd) -> float:
    """Witness margin from reduced density matrices.

    The AC:BD source spectrum is the eigenvalue list of the partial trace
    over B and D of the joint state; each detector's target spectrum is
    the eigenvalue list of its C marginal. The margin is the largest
    excess of the source's descending partial sums over those of the
    probability-averaged targets, both zero-padded to one length.
    """
    da, db = dims_ab
    dc, dd = dims_cd
    joint = sum(math.sqrt(p) * np.kron(psi, phi) for p, psi, phi in zip(probs, psis, phis) if p > 0)
    t = np.asarray(joint).reshape(da, db, dc, dd)
    rho_ac = np.einsum("abcd,ebfd->acef", t, t.conj()).reshape(da * dc, da * dc)
    source = _descending_spectrum(rho_ac, min(da * dc, db * dd))
    average = np.zeros(min(dc, dd))
    for p, phi in zip(probs, phis):
        m = np.asarray(phi).reshape(dc, dd)
        average += p * _descending_spectrum(m @ m.conj().T, min(dc, dd))
    n = max(source.size, average.size)
    diffs = np.cumsum(np.pad(source, (0, n - source.size))) - np.cumsum(
        np.pad(average, (0, n - average.size))
    )
    return float(diffs.max())


def problem_margin(problem) -> float:
    """Oracle margin of a library WitnessProblem, read through its public fields."""
    return oracle_margin(
        [s.amplitudes for s in problem.states],
        [d.amplitudes for d in problem.detectors],
        problem.probs,
        problem.state_layout.dims,
        problem.detector_layout.dims,
    )


# --- check: the in-process body of `locc-witness check --out` ------------------


def _pairs(amps: np.ndarray) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in amps]


def _amps(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _problem_doc(layout: dict, psis, det_layout: dict, phis, probs) -> dict:
    return {
        "layout": layout,
        "states": [{"name": f"s{i}", "amplitudes": _pairs(v)} for i, v in enumerate(psis)],
        "detectors": {
            "layout": det_layout,
            "states": [{"name": f"d{i}", "amplitudes": _pairs(v)} for i, v in enumerate(phis)],
            "probs": [float(p) for p in probs],
        },
    }


def _rotated_fixture(rng: np.random.Generator, name: str):
    """A fixture under random local unitaries on A, B, C and D.

    The AC:BD and C:D spectra, hence margin and verdict, are invariant.
    """
    doc = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    det = doc["detectors"]
    (da, db), (dc, dd) = doc["layout"].values(), det["layout"].values()
    u_ab = np.kron(haar_unitary(rng, da), haar_unitary(rng, db))
    u_cd = np.kron(haar_unitary(rng, dc), haar_unitary(rng, dd))
    psis = [u_ab @ _amps(s["amplitudes"]) for s in doc["states"]]
    phis = [u_cd @ _amps(s["amplitudes"]) for s in det["states"]]
    out = _problem_doc(doc["layout"], psis, det["layout"], phis, det["probs"])
    return out, doc["expect"]["verdict"], (da, db), (dc, dd)


def _random_set(rng: np.random.Generator, dims_ab, k: int):
    """k orthonormal Haar states on A x B with Haar 2x2 detectors."""
    da, db = dims_ab
    psis = list(haar_unitary(rng, da * db).T[:k])
    phis = [haar_vector(rng, 4) for _ in range(k)]
    probs = simplex(rng, k)
    out = _problem_doc({"A": da, "B": db}, psis, {"C": 2, "D": 2}, phis, probs)
    return out, None, dims_ab, (2, 2)


def check_operation(text: str) -> dict:
    doc = json.loads(text)
    parsed = lw_io.parse_problem(doc, source="<bench>")
    report = witness.check_witness(parsed.witness_problem(), TOL)
    return lw_io.witness_report_to_dict(report)


def _check_case(kind: str, doc: dict, fixture_verdict, dims_ab, dims_cd) -> Case:
    det = doc["detectors"]
    margin = oracle_margin(
        [_amps(s["amplitudes"]) for s in doc["states"]],
        [_amps(s["amplitudes"]) for s in det["states"]],
        det["probs"],
        dims_ab,
        dims_cd,
    )
    verdict = CERTIFIED if margin > TOL else INCONCLUSIVE
    if fixture_verdict is not None and verdict != fixture_verdict:
        raise RuntimeError(f"oracle gives {verdict} on {kind}, the fixture expects {fixture_verdict}")
    text = json.dumps(doc)

    def verify(out: dict) -> bool:
        return out["verdict"] == verdict and abs(out["margin"] - margin) <= MARGIN_AGREEMENT

    return Case(kind, lambda: check_operation(text), verify)


CHECK_FIXTURES = ("bell_witness", "s_prime_witness", "s_witness")
CHECK_RANDOM_DIMS = ((2, 2), (2, 3), (3, 3))
CHECK_UNITS = 20  # 12 documents per unit


def build_check(rng: np.random.Generator) -> list[Case]:
    cases = []
    for _ in range(CHECK_UNITS):
        for name in CHECK_FIXTURES:
            for _ in range(2):
                cases.append(_check_case(name, *_rotated_fixture(rng, name)))
        for dims in CHECK_RANDOM_DIMS:
            for k in (2, 3):
                cases.append(_check_case(f"random{dims[0]}x{dims[1]}k{k}", *_random_set(rng, dims, k)))
    return cases


# --- full-basis: witness.classify_full_basis ----------------------------------


def _layout(m: int, n: int):
    return states.SubsystemLayout((("A", m), ("B", n)))


def _basis_case(kind: str, basis, expected: str) -> Case:
    def verify(report) -> bool:
        if report.classification != expected:
            return False
        return expected != CONTAINS_ENTANGLED or report.certified

    return Case(kind, lambda: witness.classify_full_basis(basis), verify)


FULL_BASIS_DIMS = ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4))
FULL_BASIS_UNITS = 4  # 31 bases per unit


def build_full_basis(rng: np.random.Generator) -> list[Case]:
    cases = []
    for _ in range(FULL_BASIS_UNITS):
        for m, n in FULL_BASIS_DIMS:
            layout = _layout(m, n)
            tag = f"{m}x{n}"
            for _ in range(3):
                cols = haar_unitary(rng, m * n).T
                basis = [states.PureState(layout, v) for v in cols]
                cases.append(_basis_case(f"haar{tag}", basis, CONTAINS_ENTANGLED))
            for _ in range(2):
                ua, ub = haar_unitary(rng, m), haar_unitary(rng, n)
                basis = [
                    states.PureState(layout, np.kron(ua[:, i], ub[:, j]))
                    for i in range(m)
                    for j in range(n)
                ]
                cases.append(_basis_case(f"product{tag}", basis, ALL_PRODUCT))
            cases.append(_basis_case(f"computational{tag}", catalog.computational_basis(layout), ALL_PRODUCT))
        cases.append(_basis_case("domino3x3", catalog.domino_basis(), ALL_PRODUCT))
    return cases


# --- sweep: criterion-6 searches on orthogonal pairs ---------------------------

SWEEP_DIMS = ((2, 2), (2, 3), (3, 3))
SWEEP_PAIRS = 108
SWEEP_RESTARTS = 16
SWEEP_MAX_ITERS = 80


def build_sweep(rng: np.random.Generator) -> list[Case]:
    """Random orthogonal pairs. Any two orthogonal pure states are LOCC
    distinguishable (Walgate, Short, Hardy and Vedral, PRL 85, 4972), so
    a certificate on a pair is always wrong."""
    cases = []
    for i in range(SWEEP_PAIRS):
        m, n = SWEEP_DIMS[i % len(SWEEP_DIMS)]
        layout = _layout(m, n)
        a = haar_vector(rng, m * n)
        z = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
        z -= np.vdot(a, z) * a
        pair = [states.PureState(layout, a), states.PureState(layout, z)]
        cfg = search.SearchConfig(seed=i, restarts=SWEEP_RESTARTS, max_iters=SWEEP_MAX_ITERS)
        cases.append(
            Case(
                f"pair{m}x{n}",
                lambda pair=pair, cfg=cfg: search.search(pair, cfg),
                lambda result: not result.found,
                SWEEP_RESTARTS,
            )
        )
    return cases


# --- certify: searches on sets known to be LOCC indistinguishable --------------

CERTIFY_UNITS = 36  # 7 searches per unit
DEFAULT_RESTARTS = search.SearchConfig().restarts


def _rotated(rng: np.random.Generator, set_states, m: int, n: int):
    u = np.kron(haar_unitary(rng, m), haar_unitary(rng, n))
    return [states.PureState(s.layout, u @ s.amplitudes) for s in set_states]


def _certify_case(kind: str, set_states, mode: str, index: int) -> Case:
    cfg = search.SearchConfig(seed=index, mode=mode)

    def verify(result) -> bool:
        return result.found and problem_margin(result.best_problem) > TOL

    return Case(f"{kind}/{mode}", lambda: search.search(set_states, cfg), verify, DEFAULT_RESTARTS)


def build_certify(rng: np.random.Generator) -> list[Case]:
    """Complete 2x2 bases (indistinguishable by the full-basis theorem),
    three and four Bell states, and S', each under random local unitaries.
    S' runs in FIXED_BELL_ENUMERATION mode only: a FREE_DETECTORS search
    on it takes seconds."""
    fixed, free = search.FIXED_BELL_ENUMERATION, search.FREE_DETECTORS
    layout = _layout(2, 2)
    bells = catalog.bell_states()
    sets = []
    for unit in range(CERTIFY_UNITS):
        three = [b for i, b in enumerate(bells) if i != unit % 4]
        for mode in (fixed, free):
            basis = [states.PureState(layout, v) for v in haar_unitary(rng, 4).T]
            sets.append(("basis2x2", basis, mode))
            sets.append(("bell3", _rotated(rng, three, 2, 2), mode))
            sets.append(("bell4", _rotated(rng, bells, 2, 2), mode))
        sets.append(("s_prime", _rotated(rng, catalog.set_s_prime(), 3, 3), fixed))
    return [_certify_case(kind, s, mode, i) for i, (kind, s, mode) in enumerate(sets)]


BUILDERS = {
    "check": build_check,
    "full-basis": build_full_basis,
    "sweep": build_sweep,
    "certify": build_certify,
}
SEARCH_WORKLOADS = ("sweep", "certify")


def build(name: str, seed: int) -> list[Case]:
    return BUILDERS[name](np.random.default_rng(seed))
