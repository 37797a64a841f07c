"""Output checks applied to every solve the benchmark runs.

Each check works on plain arrays, so the same code judges an in-memory
SolveResult and the result.json / zeta.csv pair the CLI writes.
"""

import numpy as np

# Converged solves on the seed configs read 6e-11 to 6e-10; iteration-capped
# ones read about 5e-4. The bound sits orders of magnitude from both.
KKT_BOUND = 1e-6
# Slack for quantities the solver clamps exactly but then sums or scales
# again (mass after symmetrization reorders the sum; eps^2 * (Lambda/eps^2)).
ROUNDOFF = 1e-12
# The solver asserts its energy trace nondecreasing with this relative
# slack; converged turkington traces dip by about 3e-10 relative at the end.
ENERGY_SLACK = 1e-9


def check_solve(zeta, weights, epsilon, kappa, lam, mu, energy_trace,
                converged, kkt, tol_mu):
    """Return the list of failed checks (empty when the solve passes).

    zeta and weights are (n_r, n_z) arrays: vorticity and nu-measure per
    cell on a z-symmetric grid.
    """
    zeta = np.asarray(zeta, dtype=float)
    failures = []
    mass = float(np.sum(zeta * np.asarray(weights, dtype=float)))
    if not mass <= kappa * (1.0 + ROUNDOFF):
        failures.append("mass %.17g exceeds kappa %.17g" % (mass, kappa))
    if mu > 0.0 and not abs(mass - kappa) <= tol_mu * kappa:
        failures.append("mu = %.6g > 0 but |mass - kappa| = %.3e exceeds "
                        "tol_mu * kappa" % (mu, abs(mass - kappa)))
    u = epsilon ** 2 * zeta
    if not np.all(u >= 0.0):
        failures.append("eps^2 zeta < 0 in %d cells"
                        % int(np.sum(~(u >= 0.0))))
    if not np.all(u <= lam * (1.0 + ROUNDOFF)):
        failures.append("eps^2 zeta > Lambda in %d cells"
                        % int(np.sum(~(u <= lam * (1.0 + ROUNDOFF)))))
    trace = np.asarray(energy_trace, dtype=float)
    drops = np.diff(trace) < -ENERGY_SLACK * np.abs(trace[:-1])
    if trace.size == 0 or not np.all(np.isfinite(trace)) or np.any(drops):
        failures.append("energy trace is not nondecreasing")
    if not np.array_equal(zeta, zeta[:, ::-1]):
        failures.append("zeta is not exactly even in z")
    if converged and not kkt < KKT_BOUND:
        failures.append("converged but KKT residual %.3e >= %.0e"
                        % (kkt, KKT_BOUND))
    return failures
