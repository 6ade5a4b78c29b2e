"""Central finite-difference oracle for end-to-end gradient verification."""

from __future__ import annotations

import numpy as np

from .backbone import omega_of_rho, rho_of_x
from .spectral import track_mode
from .ssm import compute_ssm


def backbone_response(
    builder,
    mu,
    *,
    x0: float,
    dof_index: int,
    order: int,
    reference: np.ndarray,
) -> float:
    """Omega at fixed target amplitude for the model built at mu.

    builder(mu) -> MechModel. The master mode is tracked against `reference`,
    so a finite-difference step follows the same mode shape.
    """
    model = builder(np.asarray(mu, dtype=float))
    master = track_mode(model, reference)
    exp = compute_ssm(model, master, order)
    rho = rho_of_x(exp, dof_index, x0)
    return omega_of_rho(exp, rho)


def fd_gradient(fun, mu0, rel_step: float = 1e-6) -> np.ndarray:
    """Central differences with per-component step rel_step*(1+|mu_i|)."""
    mu0 = np.asarray(mu0, dtype=float)
    grad = np.zeros_like(mu0)
    for i in range(len(mu0)):
        h = rel_step * (1.0 + abs(mu0[i]))
        up = mu0.copy()
        up[i] += h
        dn = mu0.copy()
        dn[i] -= h
        grad[i] = (fun(up) - fun(dn)) / (2.0 * h)
    return grad

