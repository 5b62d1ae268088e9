"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single pass/fail line (visible with ``pytest -s``);
an assertion failure marks the criterion red. The randomized criteria
use fixed seeds so the suite is reproducible.

Run: pytest tests/test_acceptance.py -v -s
"""

import time
from itertools import permutations

import numpy as np
import pytest
from oracles import oracle_margin, reduced_density_spectrum, simplex_sample

from locc_witness.catalog import (
    bell_states,
    computational_basis,
    domino_basis,
    maximally_entangled,
    omega_basis,
    set_s,
    set_s_prime,
)
from locc_witness.io import load_problem, parse_problem, problem_to_dict
from locc_witness.majorization import (
    SchmidtEnsemble,
    SchmidtVector,
    check_ensemble_conversion,
    ensemble_average,
    locc_convertible,
    majorizes,
)
from locc_witness.search import SearchConfig, search
from locc_witness.states import (
    Bipartition,
    PureState,
    SubsystemLayout,
    permute_parts,
    random_orthonormal_basis,
    random_state,
    schmidt,
    tensor,
)
from locc_witness.witness import (
    ALL_PRODUCT,
    CERTIFIED_INDISTINGUISHABLE,
    CONTAINS_ENTANGLED,
    INCONCLUSIVE,
    WitnessProblem,
    build_joint_state,
    check_witness,
    classify_full_basis,
    verify_one_way_protocol,
)

ACBD = Bipartition(("A", "C"), ("B", "D"))
WITNESS_PROBS = (0.16, 0.16, 0.68)


def _report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def bell_problem():
    return WitnessProblem(
        tuple(bell_states()), tuple(bell_states(("C", "D"))), (0.25,) * 4
    )


def random_orthogonal_pair(layout, rng):
    a = random_state(layout, rng)
    z = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    z -= np.vdot(a.amplitudes, z) * a.amplitudes
    return (a, PureState(layout, z))


def test_criterion_1_bell_regrouping_identity():
    joint = build_joint_state(bell_problem())
    regrouped = permute_parts(joint, ("A", "C", "B", "D"))
    expected = tensor(
        maximally_entangled(2, ("A", "C")), maximally_entangled(2, ("B", "D"))
    )
    err = float(np.abs(regrouped.amplitudes - expected.amplitudes).max())
    lam = schmidt(joint, ACBD)
    schmidt_err = float(np.abs(lam.entries - np.array([1.0, 0, 0, 0])).max())
    _report(
        1,
        err <= 1e-12 and schmidt_err <= 1e-10,
        f"regrouping error {err:.2e} (<=1e-12), schmidt error {schmidt_err:.2e} (<=1e-10)",
    )


def test_criterion_2_bell_witness():
    report = check_witness(bell_problem())
    ok = report.verdict == CERTIFIED_INDISTINGUISHABLE and abs(report.margin - 0.5) <= 1e-9
    _report(2, ok, f"{report.verdict}, margin {report.margin:.12f} (0.5 +- 1e-9)")


def test_criterion_3_s_prime_witness():
    dets = bell_states(("C", "D"))
    certified = []
    worst_gap = 0.0
    for combo in permutations(range(4), 3):
        problem = WitnessProblem(
            tuple(set_s_prime()), tuple(dets[i] for i in combo), WITNESS_PROBS
        )
        report = check_witness(problem)
        if report.verdict == CERTIFIED_INDISTINGUISHABLE:
            gap = abs(report.margin - oracle_margin(problem))
            worst_gap = max(worst_gap, gap)
            certified.append((combo, report.margin))
    ok = bool(certified) and worst_gap <= 1e-9
    first = certified[0] if certified else None
    _report(
        3,
        ok,
        f"{len(certified)}/24 Bell assignments certify at p={WITNESS_PROBS}, "
        f"first {first}, max |main - oracle| = {worst_gap:.2e} (<=1e-9)",
    )
    # frozen regression value for the lexicographically first assignment,
    # computed with the reduced-density oracle
    assert certified[0][0] == (0, 1, 2)
    assert certified[0][1] == pytest.approx(0.009932423175756, abs=1e-9)


def test_criterion_4_s_soundness_and_protocol():
    dets = bell_states(("C", "D"))
    verdicts = []
    for combo in permutations(range(4), 3):
        problem = WitnessProblem(tuple(set_s()), tuple(dets[i] for i in combo), WITNESS_PROBS)
        verdicts.append(check_witness(problem).verdict)
    all_inconclusive = all(v == INCONCLUSIVE for v in verdicts)
    protocol = verify_one_way_protocol(set_s(), omega_basis("A"))
    _report(
        4,
        all_inconclusive and protocol,
        f"all 24 assignments INCONCLUSIVE on the distinguishable set: {all_inconclusive}, "
        f"omega-basis one-way protocol distinguishes: {protocol}",
    )


def test_criterion_5_full_basis_proposition_suite():
    failures = 0
    checked = 0
    for dims in ((2, 2), (2, 3), (3, 3)):
        layout = SubsystemLayout.of(A=dims[0], B=dims[1])
        cut = Bipartition(("A",), ("B",))
        for seed in range(200):
            basis = random_orthonormal_basis(layout, seed)
            has_entangled = any(schmidt(s, cut).entries[0] < 1 - 1e-9 for s in basis)
            result = classify_full_basis(basis)
            if has_entangled:
                checked += 1
                if result.classification != CONTAINS_ENTANGLED or not result.certified:
                    failures += 1
        comp = classify_full_basis(computational_basis(layout))
        if comp.classification != ALL_PRODUCT:
            failures += 1
    if classify_full_basis(domino_basis()).classification != ALL_PRODUCT:
        failures += 1
    _report(
        5,
        failures == 0,
        f"600 random bases ({checked} with entangled vectors certified), computational "
        f"and domino bases ALL_PRODUCT, {failures} counterexamples",
    )


def test_criterion_6_two_state_soundness():
    rng = np.random.default_rng(20260808)
    det_layout = SubsystemLayout.of(C=2, D=2)
    dims_cycle = ((2, 2), (2, 3), (3, 3))
    false_certificates = 0
    for trial in range(500):
        m, n = dims_cycle[trial % 3]
        layout = SubsystemLayout.of(A=m, B=n)
        pair = random_orthogonal_pair(layout, rng)
        dets = (random_state(det_layout, rng), random_state(det_layout, rng))
        probs = simplex_sample(2, int(rng.integers(0, 2**31)))
        report = check_witness(WitnessProblem(pair, dets, tuple(probs)))
        if report.verdict != INCONCLUSIVE:
            false_certificates += 1
        result = search(pair, SearchConfig(seed=trial, restarts=16, max_iters=80))
        if result.found:
            false_certificates += 1
    _report(
        6,
        false_certificates == 0,
        f"500 random orthogonal pairs, random detectors/probabilities plus "
        f"16-restart search: {false_certificates} false certificates",
    )


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        while True:
            n = int(rng.integers(2, 5))
            dims = [int(rng.integers(2, 7)) for _ in range(n)]
            if np.prod(dims) <= 36:
                break
        labels = [chr(ord("A") + i) for i in range(n)]
        layout = SubsystemLayout(tuple(zip(labels, dims)))
        s = random_state(layout, rng)
        while True:
            mask = rng.integers(0, 2, size=n)
            if 0 < mask.sum() < n:
                break
        cut = Bipartition(
            tuple(l for l, m in zip(labels, mask) if m),
            tuple(l for l, m in zip(labels, mask) if not m),
        )
        a = schmidt(s, cut)
        b = reduced_density_spectrum(s, cut)
        worst = max(worst, float(np.abs(a.entries - b.entries).max()))
    _report(7, worst <= 1e-9, f"1000 random states/cuts, max disagreement {worst:.2e} (<=1e-9)")


def test_criterion_8_majorization_laws():
    rng = np.random.default_rng(8)
    failures = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        y = SchmidtVector(rng.dirichlet(np.ones(n)))

        # reflexivity
        if not majorizes(y, y):
            failures += 1
        # extremal vector dominates, uniform vector is dominated
        top = SchmidtVector([1.0] + [0.0] * (n - 1))
        uniform = SchmidtVector(np.full(n, 1.0 / n))
        if not majorizes(top, y) or not majorizes(y, uniform):
            failures += 1
        # padding never changes a verdict
        z = SchmidtVector(rng.dirichlet(np.ones(int(rng.integers(1, 7)))))
        padded = SchmidtVector(y.padded(len(y) + int(rng.integers(1, 4))))
        if majorizes(y, z) != majorizes(padded, z) or majorizes(z, y) != majorizes(z, padded):
            failures += 1
        # transitivity on a sharpen/flatten chain: x majorizes y majorizes w
        t = rng.uniform(0.1, 0.9)
        x = SchmidtVector(t * top.padded(n) + (1 - t) * y.entries)
        w = SchmidtVector(t * uniform.entries + (1 - t) * y.entries)
        if not (majorizes(x, y) and majorizes(y, w) and majorizes(x, w)):
            failures += 1
        # one-element ensemble agrees with the single-target criterion,
        # and the margin is consistent with the boolean verdict
        check = check_ensemble_conversion(y, SchmidtEnsemble([(1.0, z)]))
        if check.allowed != locc_convertible(y, z):
            failures += 1
        if check.allowed != (check.margin <= 1e-9):
            failures += 1
    _report(8, failures == 0, f"10^4 randomized law checks, {failures} failures")


def test_criterion_9_search_reproduction():
    t0 = time.time()
    result = search(set_s_prime(), SearchConfig(seed=0))
    elapsed = time.time() - t0
    recheck = None
    if result.found:
        doc = problem_to_dict(result.best_problem)
        rebuilt = parse_problem(doc, source="<dumped>").witness_problem()
        recheck = check_witness(rebuilt)
    ok = (
        result.found
        and elapsed < 60
        and recheck is not None
        and recheck.verdict == CERTIFIED_INDISTINGUISHABLE
    )
    _report(
        9,
        ok,
        f"search(seed=0) found={result.found} in {elapsed:.2f}s (<60s), margin "
        f"{result.best_report.margin:.6f}, dumped problem re-checks "
        f"{recheck.verdict if recheck else 'n/a'}",
    )
