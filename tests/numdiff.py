"""Central finite differences of vector-valued functions: the test oracle
for the analytic gradients and information matrices."""

import numpy as np


def jacobian_central(fn, theta: np.ndarray, rel_step: float = 1e-5) -> np.ndarray:
    """Jacobian of ``fn`` at ``theta`` by central differences.

    The step for coordinate j is ``rel_step * (1 + |theta_j|)``, so the
    perturbation stays meaningful for both tiny and large parameters.
    Returns an array of shape ``(len(fn(theta)), len(theta))``.
    """
    theta = np.asarray(theta, dtype=float)
    cols = []
    for j in range(theta.size):
        h = rel_step * (1.0 + abs(theta[j]))
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        cols.append((np.asarray(fn(up), dtype=float) - np.asarray(fn(dn), dtype=float)) / (2.0 * h))
    return np.column_stack(cols)
