"""Direct-differentiation sensitivity of the backbone frequency.

Propagates per-parameter derivatives forward through the whole pipeline:
eigenpair, damping ratio, eigenvalue, then every expansion coefficient in
ascending order, finally the reduced amplitude (at fixed target physical
amplitude) and the response frequency. It serves as the cross-check oracle
for the adjoint.

Each parameter gets its own forward pass, and a pass does only the work
that depends on its parameter. What depends on the index alone is computed
once, before the first pass: the index list, each tensor's decompositions
with their primal vectors, the lower-order coupling terms, M V_m and
(C + 2 Lam_m M) w_m. What depends on the parameter alone is computed once at
the start of its pass: dM phi, dC phi, M dphi and C dphi. Per index a pass
then takes one key-factored `contract_sum` per tensor for dT over the primal
vectors and one for T with each slot's vector replaced by its derivative,
matrix-vector products distributed over the vectors (no n x n matrix is
formed per index and parameter), and one solve with the factorization the
index's record keeps, which also holds its resonant denominator. Parameters
are never batched: a coefficient's derivative needs the same parameter's
lower-order derivatives, so the passes share nothing but the hoisted terms,
and the cost stays linear in the number of design variables. Only the
eigenpair derivatives take all parameters at once, as one block solve with
the bordered factorization of K - omega^2 M (`mode_factorization`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import dx_drho, x_harmonics, x_rms
from .errors import DegenerateModeError, assert_real
from .mechmodel import MechModel, ParamDerivatives
from .multiindex import canonical_indices, decomps, order, symmetric
from .ssm import Factorization, SsmExpansion, factorize, v_decomps


@dataclass
class DirectDerivatives:
    """Forward-mode derivatives per design variable."""

    names: tuple[str, ...]
    d_omega: np.ndarray  # dOmega/dmu at fixed target amplitude
    d_rho: np.ndarray


def mode_factorization(
    model: MechModel, omega: float, b: np.ndarray, c: np.ndarray, what: str
) -> Factorization:
    """Factorization of [[K - omega^2 M, b], [c^T, 0]], the borders scaled to
    the size of K and omega^2 M. Raises DegenerateModeError when the system
    is singular (a repeated frequency)."""
    scale = np.linalg.norm(model.K, 1) + omega**2 * np.linalg.norm(model.M, 1)

    def singular(rcond):
        return DegenerateModeError(f"{what} is singular (rcond={rcond:.2e}; repeated frequency)")

    return factorize(model.K - omega**2 * model.M, singular, b, c, scale)


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
    rhs = np.empty((n, params.count))
    border = np.empty(params.count)
    for p in range(params.count):
        rhs[:, p] = (omega**2 * params.dM[p] - params.dK[p]) @ phi
        border[p] = omega * (phi @ params.dM[p] @ phi)
    lu = mode_factorization(
        model, omega, -2.0 * omega * Mphi, -2.0 * omega * Mphi, "bordered eigenpair system"
    )
    dphi, domega = lu.solve(rhs, border)
    return dphi.T, domega


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
) -> DirectDerivatives:
    """Full forward derivative chain at fixed target physical amplitude.

    The reported dOmega/dmu holds the observed RMS amplitude constant: the
    reduced-amplitude derivative comes from differentiating the amplitude
    map at x = const. Each pass walks the canonical indices and mirrors every
    derivative to the swapped index by conjugation, so a full-set expansion
    gives the same derivatives as the canonical one.
    """
    master = exp.master
    phi = master.phi
    lam = master.lam
    lam_pair = master.lambda_pair
    omega = master.omega
    Cmat = model.damping()
    M = model.M
    P = params.count
    # complex copies, here and per parameter: a real matrix times a complex
    # vector would copy the matrix to complex in every product
    Mc, Cc = M.astype(complex), Cmat.astype(complex)
    tensors = (model.T2, model.T3)

    dphi_all, domega_all = eig_derivatives(model, master, params)

    x = x_rms(exp, dof_index, rho)
    c = x_harmonics(exp, dof_index, rho)
    dxdr = dx_drho(exp, dof_index, rho)

    # once per index: the recursion's terms that no parameter changes
    steps = []
    for q in range(2, exp.order + 1):
        for m in canonical_indices(q):
            rec = exp.coeffs(m)
            decs = [decomps(m, T.arity) for T in tensors]
            prim = [[tuple(exp.w(u) for u in d) for d in ds] for ds in decs]
            v_terms = [(u, j, k, u[j], exp.R(k)[j]) for u, j, k in v_decomps(m, exp.r_orders())]
            # M V_m, and (C + 2 Lam_m M) w_m: dL_m/dLam applied to w_m
            MV, Lw = M @ rec.V, Cmat @ rec.w + 2.0 * rec.Lam * (M @ rec.w)
            steps.append((m, rec, decs, prim, v_terms, MV, Lw))
    Mphi = M @ phi
    # each parameter tensor caches its key pattern on first use; built inside
    # the loop, the caches landed between the passes' short-lived arrays and
    # left the heap 2.4 MB larger after the first call (chain101, P = 100)
    for dT in params.dT2 + params.dT3:
        if dT.nnz:
            dT.key_pattern

    d_omega = np.zeros(P)
    d_rho = np.zeros(P)

    for p in range(P):
        dM, dK = params.dM[p].astype(complex), params.dK[p].astype(complex)
        dCmat = params.dC(p, model).astype(complex)
        dtensors = (params.dT2[p], params.dT3[p])
        domega = domega_all[p]
        _, dlam = lambda_derivative(master, model.alpha_r, model.beta_r, domega)
        dlam_pair = np.array([dlam, np.conj(dlam)])
        # once per parameter: the mode-shape products every index reuses
        dphi = dphi_all[p].astype(complex)
        dMphi, dCphi = dM @ phi, dCmat @ phi
        Mdphi, Cdphi = Mc @ dphi, Cc @ dphi

        dcoef: dict = {
            (1, 0): (dphi, dlam * phi + lam * dphi, np.array([dlam, 0.0], complex)),
            (0, 1): (
                dphi,
                np.conj(dlam * phi + lam * dphi),
                np.array([0.0, np.conj(dlam)], complex),
            ),
        }

        for m, rec, decs, prim, v_terms, MV, Lw in steps:
            Lam = rec.Lam
            dLam = m[0] * dlam_pair[0] + m[1] * dlam_pair[1]

            # dT over the primal vectors, T with each slot's vector replaced
            # by its derivative: one key-factored contraction per tensor
            df = sum(dT.contract_sum(a) for dT, a in zip(dtensors, prim)) + sum(
                T.contract_sum(
                    [
                        (*w[:s], dcoef[u][0], *w[s + 1 :])
                        for d, w in zip(ds, a)
                        for s, u in enumerate(d)
                    ]
                )
                for T, ds, a in zip(tensors, decs, prim)
            )

            dV = np.zeros(model.n, dtype=complex)
            dVdot = np.zeros(model.n, dtype=complex)
            for u, j, k, uj, Rkj in v_terms:
                dRkj = dcoef[k][2][j]
                dV += uj * (dcoef[u][0] * Rkj + exp.w(u) * dRkj)
                dVdot += uj * (dcoef[u][1] * Rkj + exp.wdot(u) * dRkj)

            dC = (
                -(dM @ (rec.Vdot + Lam * rec.V))
                - Mc @ (dVdot + Lam * dV)
                - Cc @ dV
                - dCmat @ rec.V
                - dLam * MV
                - df
            )

            dR = np.zeros(2, dtype=complex)
            dh = dC
            if rec.slot is not None:
                j = rec.slot
                lj = Lam + lam_pair[j]
                dlj = dLam + dlam_pair[j]
                dden = dlj + 2.0 * model.beta_r * omega * domega
                dR[j] = (dphi @ rec.C + phi @ dC) / rec.den - rec.R[j] * dden / rec.den
                dD = -lj * Mdphi - Cdphi - dlj * Mphi - lj * dMphi - dCphi
                dh = dC + dD * rec.R[j] + rec.D * dR[j]

            dLw = dK @ rec.w + Lam * (dCmat @ rec.w) + Lam**2 * (dM @ rec.w) + dLam * Lw
            # border row: d(phi^T M w_m) = 0; a plain record ignores it
            dw, _ = rec.lu.solve(dh - dLw, -((dMphi + Mdphi) @ rec.w))

            dwdot = (
                dLam * rec.w
                + Lam * dw
                + dV
                + (dR[0] + dR[1]) * phi
                + (rec.R[0] + rec.R[1]) * dphi
            )
            dcoef[m] = (dw, dwdot, dR)
            if m[0] != m[1]:
                dcoef[symmetric(m)] = _mirror_coeff(dw, dwdot, dR)

        # reduced-amplitude derivative at fixed physical amplitude: by
        # Parseval x**2 = sum_d c_d c_{-d}, so dx = sum_m rho**|m| c_{-d} dw_m / x
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

    return DirectDerivatives(names=params.names, d_omega=d_omega, d_rho=d_rho)
