"""Direct-differentiation sensitivity of the backbone frequency.

Propagates per-parameter derivatives forward through the whole pipeline:
eigenpair, damping ratio, eigenvalue, then every expansion coefficient in
ascending order, finally the reduced amplitude (at fixed target physical
amplitude) and the response frequency. Cost scales linearly with the number
of design variables; serves as the cross-check oracle for the adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .backbone import dx_drho, x_harmonics, x_rms
from .errors import DegenerateModeError, assert_real
from .mechmodel import MechModel, ParamDerivatives
from .multiindex import (
    all_indices,
    canonical_indices,
    decomps,
    order,
    symmetric,
)
from .ssm import RCOND_SINGULAR, SsmExpansion, index_solve, lu_rcond, v_decomps


@dataclass
class DirectDerivatives:
    """Forward-mode derivatives per design variable.

    coeffs[p] maps each multi-index to (dw, dwdot, dR); leading-order entries
    hold the mode-shape derivative.
    """

    names: tuple[str, ...]
    d_omega: np.ndarray  # dOmega/dmu at fixed target amplitude
    d_rho: np.ndarray
    d_phi: np.ndarray  # (P, n)
    d_omega0: np.ndarray  # natural-frequency derivative
    d_lambda: np.ndarray  # complex eigenvalue derivative
    d_xi: np.ndarray
    coeffs: list[dict]


def solve_mode_bordered(
    model: MechModel, omega: float, b: np.ndarray, c: np.ndarray, rhs: np.ndarray, what: str
) -> np.ndarray:
    """Solution of [[K - omega^2 M, b], [c^T, 0]] [x; s] = rhs (rhs: one column or many).

    Both borders are scaled to the size of K and omega^2 M before the
    factorization, so the rcond check sees how close the system is to
    singular (a repeated frequency), not the units of the border; the
    unscaled solution is returned. Raises DegenerateModeError when the
    scaled system is singular.
    """
    n = model.n
    scale = np.linalg.norm(model.K, 1) + omega**2 * np.linalg.norm(model.M, 1)
    gb = scale / np.linalg.norm(b, 1)
    gc = scale / np.linalg.norm(c, 1)
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = model.K - omega**2 * model.M
    A[:n, n] = gb * b
    A[n, :n] = gc * c
    lu, rcond = lu_rcond(A)
    if rcond < RCOND_SINGULAR:
        raise DegenerateModeError(f"{what} is singular (rcond={rcond:.2e}; repeated frequency)")
    rhs = np.array(rhs, dtype=float)
    rhs[n] *= gc
    sol = scipy.linalg.lu_solve(lu, rhs)
    sol[n] *= gb
    return sol


def eig_derivatives(
    model: MechModel, master, params: ParamDerivatives
) -> tuple[np.ndarray, np.ndarray]:
    """Mode-shape and frequency derivatives from the bordered eigenpair system.

    One factorization serves all parameters (the matrix does not depend on
    the design variables).
    """
    n = model.n
    phi, omega = master.phi, master.omega
    Mphi = model.M @ phi
    rhs = np.empty((n + 1, params.count))
    for p in range(params.count):
        rhs[:n, p] = (omega**2 * params.dM[p] - params.dK[p]) @ phi
        rhs[n, p] = omega * (phi @ params.dM[p] @ phi)
    sol = solve_mode_bordered(
        model, omega, -2.0 * omega * Mphi, -2.0 * omega * Mphi, rhs, "bordered eigenpair system"
    )
    return sol[:n].T, sol[n]


def lambda_derivative(master, alpha_r: float, beta_r: float, domega: float):
    """(dxi, dlam) from the natural-frequency derivative."""
    omega, xi = master.omega, master.xi
    dxi = (beta_r * omega**2 - alpha_r) / (2.0 * omega**2) * domega
    sq = np.sqrt(1.0 - xi * xi)
    dlam = -xi * domega - omega * dxi + 1j * (domega * sq - omega * xi / sq * dxi)
    return dxi, dlam


def _mirror_coeff(dw, dwdot, dR):
    return np.conj(dw), np.conj(dwdot), np.conj(dR[::-1])


def chain_derivatives(
    model: MechModel,
    exp: SsmExpansion,
    params: ParamDerivatives,
    dof_index: int,
    rho: float,
    n_theta: int = 128,
) -> DirectDerivatives:
    """Full forward derivative chain at fixed target physical amplitude.

    The reported dOmega/dmu holds the observed RMS amplitude constant: the
    reduced-amplitude derivative comes from differentiating the amplitude
    map at x = const.
    """
    master = exp.master
    phi = master.phi
    lam = master.lam
    omega = master.omega
    Cmat = model.damping()
    M = model.M
    n = model.n
    P = params.count

    dphi_all, domega_all = eig_derivatives(model, master, params)

    x = x_rms(exp, dof_index, rho, n_theta)
    c = x_harmonics(exp, dof_index, rho)
    dxdr = dx_drho(exp, dof_index, rho, n_theta)

    d_omega = np.zeros(P)
    d_rho = np.zeros(P)
    d_lambda = np.zeros(P, dtype=complex)
    d_xi = np.zeros(P)
    coeffs_out: list[dict] = []

    for p in range(P):
        dM, dK = params.dM[p], params.dK[p]
        tensor_pairs = ((model.T2, params.dT2[p]), (model.T3, params.dT3[p]))
        dCmat = params.dC(p, model)
        dphi = dphi_all[p].astype(complex)
        domega = domega_all[p]
        dxi, dlam = lambda_derivative(master, model.alpha_r, model.beta_r, domega)
        dlam_pair = np.array([dlam, np.conj(dlam)])
        d_lambda[p] = dlam
        d_xi[p] = dxi

        dcoef: dict = {
            (1, 0): (dphi, dlam * phi + lam * dphi, np.array([dlam, 0.0], complex)),
            (0, 1): (
                dphi,
                np.conj(dlam * phi + lam * dphi),
                np.array([0.0, np.conj(dlam)], complex),
            ),
        }

        for q in range(2, exp.order + 1):
            targets = all_indices(q) if exp.full_set else canonical_indices(q)
            for m in targets:
                rec = exp.coeffs(m)
                dLam = m[0] * dlam_pair[0] + m[1] * dlam_pair[1]

                df = np.zeros(n, dtype=complex)
                for T, dT in tensor_pairs:
                    for d in decomps(m, T.arity):
                        ws = [exp.w(u) for u in d]
                        df += dT.contract(*ws)
                        for slot, u in enumerate(d):
                            df += T.contract(*ws[:slot], dcoef[u][0], *ws[slot + 1 :])

                dV = np.zeros(n, dtype=complex)
                dVdot = np.zeros(n, dtype=complex)
                for u, j, k in v_decomps(m, exp.r_orders()):
                    Rkj = exp.R(k)[j]
                    dRkj = dcoef[k][2][j]
                    dV += u[j] * (dcoef[u][0] * Rkj + exp.w(u) * dRkj)
                    dVdot += u[j] * (dcoef[u][1] * Rkj + exp.wdot(u) * dRkj)

                dC = (
                    -dM @ rec.Vdot
                    - M @ dVdot
                    - (rec.Lam * M + Cmat) @ dV
                    - (dLam * M + rec.Lam * dM + dCmat) @ rec.V
                    - df
                )

                dR = np.zeros(2, dtype=complex)
                dD = [None, None]
                if rec.slot is not None:
                    j = rec.slot
                    lam_j = master.lambda_pair[j]
                    den = rec.Lam + lam_j + model.alpha_r + model.beta_r * omega**2
                    dden = dLam + dlam_pair[j] + 2.0 * model.beta_r * omega * domega
                    dR[j] = (dphi @ rec.C + phi @ dC) / den - rec.R[j] * dden / den
                    dD[j] = (
                        -((rec.Lam + lam_j) * M + Cmat) @ dphi
                        - ((dLam + dlam_pair[j]) * M + (rec.Lam + lam_j) * dM + dCmat)
                        @ phi.astype(complex)
                    )

                dh = dC.copy()
                if rec.slot is not None:
                    j = rec.slot
                    dh = dh + dD[j] * rec.R[j] + rec.D[j] * dR[j]

                dLw = (dK + rec.Lam * dCmat + rec.Lam**2 * dM) @ rec.w + dLam * (
                    (Cmat + 2.0 * rec.Lam * M) @ rec.w
                )
                rhs = dh - dLw
                if rec.bordered:
                    border_rhs = -((dM @ phi + M @ dphi) @ rec.w)
                    dw, _ = index_solve(rec, rhs, border_rhs)
                else:
                    dw, _ = index_solve(rec, rhs)

                dwdot = (
                    dLam * rec.w
                    + rec.Lam * dw
                    + dV
                    + (dR[0] + dR[1]) * phi
                    + (rec.R[0] + rec.R[1]) * dphi
                )
                dcoef[m] = (dw, dwdot, dR)
                if not exp.full_set and m[0] != m[1]:
                    dcoef[symmetric(m)] = _mirror_coeff(dw, dwdot, dR)

        # reduced-amplitude derivative at fixed physical amplitude; the grid
        # sum of x e^{i d theta} is n_theta * c_{-d}, and n_theta cancels
        num = 0.0 + 0.0j
        for m, (dw, _, _) in dcoef.items():
            num += dw[dof_index] * rho ** order(m) * c[exp.order + m[1] - m[0]]
        drho = assert_real(-num / (x * dxdr), "drho")

        dOm = 0.5j * (dlam_pair[1] - dlam_pair[0])
        for q, a in exp.r1_terms():
            dR1 = dcoef[a][2][0]
            dR2 = dcoef[symmetric(a)][2][1]
            r1 = exp.R(a)[0]
            r2 = exp.R(symmetric(a))[1]
            dOm += 0.5j * (
                (dR2 - dR1) * rho ** (q - 1)
                + (r2 - r1) * (q - 1) * rho ** (q - 2) * drho
            )
        d_omega[p] = assert_real(dOm, "dOmega")
        d_rho[p] = drho
        coeffs_out.append(dcoef)

    return DirectDerivatives(
        names=params.names,
        d_omega=d_omega,
        d_rho=d_rho,
        d_phi=dphi_all,
        d_omega0=domega_all,
        d_lambda=d_lambda,
        d_xi=d_xi,
        coeffs=coeffs_out,
    )
