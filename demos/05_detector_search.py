"""Finding certificates automatically instead of by hand.

The search maximizes the majorization-violation margin over detector
choices and probabilities with a restarted Nelder-Mead polytope.
Enumeration mode cycles through ordered assignments of distinct Bell
detectors and optimizes only the probabilities; on three or more states its
first restart starts at the assignment that scores best at uniform
probability, where that certifies. Free mode optimizes the
detector amplitudes too. Its restarts start from random maximally entangled
detectors, except that with detectors of the states' own dimensions the
first restart starts at the paper's full-basis witness: each state's
complex conjugate as its detector, at uniform probability.

Soundness is structural: a found witness is a real certificate (it is
re-verified through the engine), and for sets that ARE locally
distinguishable no certificate exists, so the search must come home
empty no matter how long it runs.
"""

import time

from locc_witness import (
    FREE_DETECTORS,
    SearchConfig,
    bell_states,
    check_witness,
    search,
    set_s_prime,
)

print("Target: set s_prime (two maximally entangled 3x3 states plus |01>).")
print()

t0 = time.time()
result = search(set_s_prime(), SearchConfig(seed=0))
dt = time.time() - t0
probs = ", ".join(f"{p:.4f}" for p in result.best_problem.probs)
print(f"Bell enumeration: found={result.found} in {dt:.2f}s "
      f"(restart {result.restart_index}, {result.iterations_used} polytope iterations)")
print(f"  margin {result.best_report.margin:.6f} at probabilities ({probs})")
print()

three = search(bell_states()[:3], SearchConfig(seed=0))
print(f"Three Bell states, Bell enumeration: found={three.found} at restart {three.restart_index}, "
      f"margin {three.best_report.margin:.6f}")
print("  restart 0 starts at the best Bell assignment at uniform probability, which reaches")
print("  1/4, the most any Bell-detector witness gives three Bell states")
print()

t0 = time.time()
free = search(set_s_prime(), SearchConfig(seed=0, mode=FREE_DETECTORS, restarts=32, max_iters=1500))
dt = time.time() - t0
print(f"Free detectors:   found={free.found} in {dt:.2f}s "
      f"(restart {free.restart_index})")
print(f"  margin {free.best_report.margin:.6f}, beating the best Bell-detector witness")
print()

recheck = check_witness(free.best_problem)
print(f"Re-verification of the free-mode witness: {recheck.verdict}, "
      f"margin {recheck.margin:.6f}")
print()

conj = search(set_s_prime(), SearchConfig(seed=0, mode=FREE_DETECTORS, detector_dims=(3, 3), restarts=4))
print(f"Free 3x3 detectors, first restart at the conjugate witness (margin 1/27 = {1 / 27:.6f}): "
      f"found={conj.found} at restart {conj.restart_index}, margin {conj.best_report.margin:.6f}")
print()

pair = [bell_states()[0], bell_states()[3]]
result = search(pair, SearchConfig(seed=0, restarts=24, max_iters=120))
print("Control: two orthogonal Bell states (always LOCC-distinguishable).")
print(f"  found={result.found}, best margin {result.best_report.margin:.2e} "
      f"(never exceeds the tolerance)")
