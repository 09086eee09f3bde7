"""Walk through passivating a two-state model.

The model has a transfer function whose Popov function ``G(iw) + G(iw)^*``
dips below zero on a band of frequencies, so it is not passive.  We shift
the feedthrough just enough to make the problem feasible, minimize the
squared H2 distance over the low-rank factor of the output correction,
and verify that the repaired model is passive with an H2 error close to
the best achievable.

Run with:  python3 demos/passivate_toy.py
"""

import numpy as np

from klap import benchmark_system, check_passive, h2_error_sq, klap, popov_scan


def banner(text):
    print()
    print(text)
    print("-" * len(text))


np.set_printoptions(precision=4, suppress=True)

sys = benchmark_system("toy-m0")
banner("The model")
print("A =\n", sys.A)
print("B =", sys.B.ravel(), " C =", sys.C.ravel(), " D =", sys.D.ravel())

banner("Is it passive?")
scan = popov_scan(sys)
verdict = check_passive(sys)
print(f"smallest Popov eigenvalue on the grid : {scan.global_min:.4f}")
print(f"attained near frequency               : {scan.argmin_frequency:.4f} rad/s")
print(f"verdict                               : "
      f"{'passive' if verdict.passive else 'NOT passive'}")

banner("Passivate")
result = klap(sys)
print(f"converged   : {result.converged} in {result.iterations} iterations "
      f"({result.restarts} restarts)")
print(f"feedthrough shift delta               : {result.delta:.4f}")
print(f"initial objective after shift         : {result.initial_J:.6f}")
print(f"final objective J = ||G - G_hat||^2   : {result.J_final:.6f}")
print(f"H2 error                              : {result.h2_error:.6f}")
print("repaired output map C_hat             :", result.C_hat.ravel())

banner("Certificate and verification")
cert = result.certificate
if cert is None:
    print("input was already passive; nothing to certify")
elif cert.vacuous:
    print("certificate is vacuous (the repaired model has no feedthrough)")
else:
    print(f"closed-loop eigenvalues               : {cert.eigenvalues}")
    print(f"max |Re(eigenvalue)|                  : {cert.max_abs_real:.2e}")
    print(f"global-minimum candidate              : {cert.is_global_candidate}")
after = check_passive(result.system)
print(f"repaired model passive                : {after.passive} "
      f"(margin {after.margin:.2e})")

banner("Cross-check the reported error")
direct = h2_error_sq(sys, result.C_hat)
print(f"independent Gramian evaluation of J   : {direct:.6f}")
print(f"matches result.J_final                : "
      f"{np.isclose(direct, result.J_final, rtol=1e-10)}")
