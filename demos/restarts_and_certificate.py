"""Escape a local minimum using the stationary-point certificate.

The objective is not convex in the factor ``L``: the two-state demo model
with feedthrough ``D = 1/8`` has a stationary point that is *not* the
global minimum.  At any stationary point the closed-loop matrix
``A - B (D + D^T)^{-1} M L^T`` gives a cheap first test — eigenvalues on
the imaginary axis indicate a global-minimum candidate.  Off-axis
eigenvalues do not settle it: the spectral test also rejects true optima.
A lower bound on the optimum from the dual of the convex KYP problem
decides: a relative duality gap of at most 1e-7 certifies the point, a
larger one makes the driver perturb the factor and re-optimize.

Here we force the issue by starting the optimizer inside the wrong basin
and watch the restart strategy recover.

Run with:  python3 demos/restarts_and_certificate.py
"""

import numpy as np

from klap import benchmark_system, klap


def banner(text):
    print()
    print(text)
    print("-" * len(text))


np.set_printoptions(precision=4, suppress=True)

sys = benchmark_system("toy-m1")  # the two-state model with D = 1/8
L_bad = np.array([[-2.0], [0.0]])

banner("Stage 1: no restarts allowed, start in the wrong basin")
stuck = klap(sys, L0=L_bad, max_restarts=0)
cert = stuck.certificate
print(f"objective at the stationary point   : {stuck.J_final:.6f}")
print(f"factor L                            : {stuck.L_final.ravel()}")
print(f"certificate eigenvalues             : {cert.eigenvalues}")
print(f"max |Re(eigenvalue)|                : {cert.max_abs_real:.4f}")
print(f"global-minimum candidate            : {cert.is_global_candidate}")
print(f"KYP duality gap (J - g) / J         : {stuck.duality_gap:.4f}")
print(f"converged (certified)               : {stuck.converged}")
print("-> off-axis eigenvalues and a large duality gap: nothing certifies the")
print("   point, and the optimizer is parked at a non-global stationary point")

banner("Stage 2: same start, restarts enabled")
best = klap(sys, L0=L_bad)
cert = best.certificate
print(f"restarts used                       : {best.restarts}")
print(f"objective after restarting          : {best.J_final:.6f}  "
      f"(was {stuck.J_final:.6f})")
print(f"factor L                            : {best.L_final.ravel()}")
print(f"max |Re(eigenvalue)|                : {cert.max_abs_real:.2e}")
print(f"global-minimum candidate            : {cert.is_global_candidate}")
print(f"stop message                        : {best.message}")
print("-> eigenvalues moved onto the imaginary axis; the restart found the "
      "global candidate")

banner("How the escape works")
print("At a stationary point the spectral test rejects, the driver first")
print("evaluates the KYP dual bound; if that does not certify the point, it")
print("restarts.  The restart takes a tiny gradient")
print("step directly in output space, past the reach of the factor")
print("parameterization, and recovers a new factor from the stepped")
print("model's minimal Riccati solution; optimization continues from there.")
print("That recovery is the step's only passivity test: if the step exits")
print("the passive set, no stabilizing Riccati solution exists, the recovery")
print("fails, and the driver falls back to a fresh random start.")
print("The best iterate across all runs is returned.")
