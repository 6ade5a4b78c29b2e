"""Direct-differentiation sensitivity of the backbone frequency.

Propagates per-parameter derivatives forward through the whole pipeline:
eigenpair, damping ratio, eigenvalue, then every expansion coefficient in
ascending order, finally the reduced amplitude (at fixed target physical
amplitude) and the response frequency. It serves as the cross-check oracle
for the adjoint.

Every parameter has its own forward pass (`_Pass`), and the passes advance
together: the walk visits each canonical index once and runs every pass's
step there. One `PairSums` table per model tensor and per stacked
parameter tensor is built once per call. What depends on the index alone is
built once per index and dropped before the next: each force tensor's
key-space linearization in the lower-order coefficients
(`PairSums.linearize`, the same one the adjoint sweep pulls back), the
partial forces of all parameter tensors over the primal vectors (one
`PairSums.force` per stacked tensor, as in the gradient contraction, so the
two methods reassociate the cubic partial forces alike), the lower-order
coupling terms, M V_m, (C + 2 Lam_m M) w_m and the `Pencil`'s
velocity(Lam_m). The primal expansion keeps its triple loop (see
`mechmodel`). A pass's step at the index then applies the
linearizations to its own lower-order derivatives, adds its derivative
pencil's terms (none without dM and dK: see `ParamDerivatives.matrix_params`)
and solves its own right-hand side with the factorization the index's record
keeps, which also holds its resonant denominator. Every operator is applied
in the primal's association. Parameters are never batched into one solve: a
coefficient's derivative needs the same parameter's lower-order derivatives,
so each pass keeps its own table of the derivatives later indices read, and
the cost stays linear in the number of design variables.
Only the eigenpair derivatives take all parameters at once, as one block
solve with the bordered factorization of K - omega^2 M
(`mode_factorization`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import dx_drho, x_harmonics, x_rms
from .errors import DegenerateModeError, assert_real
from .mechmodel import MechModel, PairSums, ParamDerivatives
from .multiindex import canonical_indices, order, symmetric
from .ssm import Factorization, IndexCoeffs, SsmExpansion, factorize, v_decomps


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

    return factorize(model.pencil.modal(omega), singular, b, c, scale)


def eig_derivatives(
    model: MechModel, master, params: ParamDerivatives
) -> tuple[np.ndarray, np.ndarray]:
    """Mode-shape and frequency derivatives from the bordered eigenpair system.

    One factorization serves all parameters (the matrix does not depend on
    the design variables). A parameter without dM and dK leaves the
    eigenpair unchanged: its derivatives are zero and need no solve.
    """
    n = model.n
    phi, omega = master.phi, master.omega
    dphi = np.zeros((params.count, n))
    domega = np.zeros(params.count)
    dense = list(params.matrix_params)
    if not dense:
        return dphi, domega
    Mphi = model.M @ phi
    rhs = np.empty((n, len(dense)))
    border = np.empty(len(dense))
    for k, p in enumerate(dense):
        rhs[:, k] = -(params.pencil(p, model).modal(omega) @ phi)
        border[k] = omega * (phi @ params.dM[p] @ phi)
    lu = mode_factorization(
        model, omega, -2.0 * omega * Mphi, -2.0 * omega * Mphi, "bordered eigenpair system"
    )
    sol, dom = lu.solve(rhs, border)
    dphi[dense] = sol.T
    domega[dense] = dom
    return dphi, domega


def lambda_derivative(master, alpha_r: float, beta_r: float, domega: float):
    """(dxi, dlam) from the natural-frequency derivative."""
    omega, xi = master.omega, master.xi
    dxi = (beta_r * omega**2 - alpha_r) / (2.0 * omega**2) * domega
    sq = np.sqrt(1.0 - xi * xi)
    dlam = -xi * domega - omega * dxi + 1j * (domega * sq - omega * xi / sq * dxi)
    return dxi, dlam


class _Pass:
    """One parameter's forward pass through the expansion.

    Holds the parameter's own constants and, of its coefficient derivatives,
    only what a later index reads: dw below the top order, dwdot of the
    indices the R couplings read, and dR; the amplitude sum takes dw at the
    observed DOF as each index is done. A parameter without dM and dK (see
    `ParamDerivatives.matrix_params`) has a zero mode-shape and eigenvalue
    derivative, no derivative pencil (`dpen`) and no dense matrix term.
    """

    def __init__(self, ctx: "_Chain", p: int, dphi: np.ndarray, domega: float):
        model, params, master = ctx.model, ctx.params, ctx.exp.master
        self.ctx = ctx
        self.domega = domega
        _, dlam = lambda_derivative(master, model.alpha_r, model.beta_r, domega)
        self.dlam_pair = np.array([dlam, np.conj(dlam)])
        self.dphi = dphi.astype(complex)
        self.dpen = params.pencil(p, model) if p in params.matrix_params else None
        # d(M phi): the derivative of a resonant solve's border row
        self.dMphi = ctx.zero
        if self.dpen is not None:
            self.dMphi = self.dpen.M @ master.phi + ctx.Mc @ self.dphi
        self.dw = {(1, 0): self.dphi, (0, 1): self.dphi}
        self.dwdot: dict = {}
        self.dR: dict = {}
        # reduced-amplitude derivative at fixed physical amplitude: by
        # Parseval x**2 = sum_d c_d c_{-d}, so dx = sum_m rho**|m| c_{-d} dw_m / x
        self.num = 0.0 + 0.0j
        for m in ((1, 0), (0, 1)):
            self._add_amplitude(m, self.dphi)

    def _add_amplitude(self, m, dw):
        ctx = self.ctx
        self.num += dw[ctx.dof] * ctx.rho ** order(m) * ctx.c[ctx.exp.order + m[1] - m[0]]

    def step(self, ix: "_Index", pf: np.ndarray):
        """The derivative of index ix.m's coefficients: its own right-hand
        side and its own solve with the factorization the record keeps."""
        ctx, m, rec, dpen = self.ctx, ix.m, ix.rec, self.dpen
        exp, model, phi = ctx.exp, ctx.model, ctx.exp.master.phi
        dlam_pair = self.dlam_pair
        Lam = rec.Lam
        dLam = m[0] * dlam_pair[0] + m[1] * dlam_pair[1]

        # dT over the primal vectors (pf), T linearized in the lower orders
        df = pf + sum(lin.forward(self.dw.__getitem__) for lin in ix.lins)

        dV = dVdot = 0.0
        dC = -df - dLam * ix.MV
        if ix.v_terms:
            for u, j, k, uj, Rkj in ix.v_terms:
                dRkj = self.dR[k][j]
                dV = dV + uj * (self.dw[u] * Rkj + exp.w(u) * dRkj)
                dVdot = dVdot + uj * (self.dwdot[u] * Rkj + exp.wdot(u) * dRkj)
            dC = dC - ctx.Mc @ dVdot - ix.velocity @ dV
        if dpen is not None:
            dC = dC - dpen.M @ rec.Vdot - dpen.velocity(Lam) @ rec.V

        dR = np.zeros(2, dtype=complex)
        dh = dC
        if rec.slot is not None:
            j = rec.slot
            lj = Lam + ctx.lam_pair[j]
            dlj = dLam + dlam_pair[j]
            dden = dlj + 2.0 * model.beta_r * ctx.omega * self.domega
            dR[j] = (self.dphi @ rec.C + phi @ dC) / rec.den - rec.R[j] * dden / rec.den
            # D = -velocity(lj) @ phi
            dD = -dlj * ctx.Mphi
            if dpen is not None:
                dD = dD - model.pencil.velocity(lj) @ self.dphi - dpen.velocity(lj) @ phi
            dh = dC + dD * rec.R[j] + rec.D * dR[j]

        dLw = dLam * ix.Lw
        if dpen is not None:
            dLw = dLw + dpen.at(Lam) @ rec.w
        # border row: d(phi^T M w_m) = 0; a plain record ignores it
        dw, _ = rec.lu.solve(dh - dLw, -(self.dMphi @ rec.w))

        dwdot = None
        if ix.keep_wdot:
            dwdot = (
                dLam * rec.w
                + Lam * dw
                + dV
                + (dR[0] + dR[1]) * phi
                + (rec.R[0] + rec.R[1]) * self.dphi
            )
        self._keep(m, dw, dwdot, dR, ix.keep_w)
        if m[0] != m[1]:
            # the swapped index's coefficients are the conjugate ones
            self._keep(
                symmetric(m),
                np.conj(dw),
                None if dwdot is None else np.conj(dwdot),
                np.conj(dR[::-1]),
                ix.keep_w,
            )

    def _keep(self, m, dw, dwdot, dR, keep_w: bool):
        self._add_amplitude(m, dw)
        self.dR[m] = dR
        if keep_w:
            self.dw[m] = dw
        if dwdot is not None:
            self.dwdot[m] = dwdot

    def finish(self) -> tuple[float, float]:
        """(dOmega, drho) at the fixed target amplitude."""
        ctx = self.ctx
        exp, rho, dlam_pair = ctx.exp, ctx.rho, self.dlam_pair
        drho = assert_real(-self.num / (ctx.x * ctx.dxdr), "drho")
        dOm = 0.5j * (dlam_pair[1] - dlam_pair[0])
        for q, a in exp.r1_terms():
            dR1 = self.dR[a][0]
            dR2 = self.dR[symmetric(a)][1]
            r1 = exp.R(a)[0]
            r2 = exp.R(symmetric(a))[1]
            dOm += 0.5j * (
                (dR2 - dR1) * rho ** (q - 1)
                + (r2 - r1) * (q - 1) * rho ** (q - 2) * drho
            )
        return assert_real(dOm, "dOmega"), drho


@dataclass
class _Chain:
    """What every pass shares: the model, the expansion and the target."""

    model: MechModel
    exp: SsmExpansion
    params: ParamDerivatives
    dof: int
    rho: float

    def __post_init__(self):
        model, master = self.model, self.exp.master
        self.lam_pair, self.omega = master.lambda_pair, master.omega
        # a complex copy: a real matrix times a complex vector would copy
        # the matrix to complex in every product
        self.Mc = model.M.astype(complex)
        self.Mphi = model.M @ master.phi
        self.zero = np.zeros(model.n, dtype=complex)
        self.x = x_rms(self.exp, self.dof, self.rho)
        self.c = x_harmonics(self.exp, self.dof, self.rho)
        self.dxdr = dx_drho(self.exp, self.dof, self.rho)


@dataclass
class _Index:
    """One canonical index's terms that no parameter changes."""

    m: tuple
    rec: IndexCoeffs
    lins: list  # one key-space linearization per tensor
    v_terms: list  # (u, j, k, u[j], R_k[j]) of the lower-order coupling
    MV: np.ndarray | float  # M V_m
    Lw: np.ndarray | float  # (C + 2 Lam_m M) w_m: dL_m/dLam applied to w_m
    velocity: np.ndarray  # the pencil's velocity(Lam_m)
    keep_w: bool  # a later index reads dw_m
    keep_wdot: bool  # a later coupling reads dwdot_m


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
    map at x = const. The walk visits the canonical indices once, and each
    parameter's pass mirrors every derivative to the swapped index by
    conjugation, so a full-set expansion gives the same derivatives as the
    canonical one.
    """
    ctx = _Chain(model, exp, params, dof_index, rho)
    tables = [PairSums(T, exp.w, exp.order) for T in (model.T2, model.T3)]
    pf_tables = [PairSums(T, exp.w, exp.order) for T in params.stacked]
    P, n = params.count, model.n

    dphi_all, domega_all = eig_derivatives(model, exp.master, params)
    passes = [_Pass(ctx, p, dphi_all[p], domega_all[p]) for p in range(P)]

    indices = [m for q in range(2, exp.order + 1) for m in canonical_indices(q)]
    r_orders = exp.r_orders()
    wdot_read = {u for m in indices for u, _, _ in v_decomps(m, r_orders)}
    for m in indices:
        rec = exp.coeffs(m)
        # the partial forces of all parameters, dT over the primal vectors:
        # one contraction per stacked tensor
        pf = np.zeros(P * n, dtype=complex)
        for table in pf_tables:
            pf += table.force(m)
        # read only times dLam, which is zero for a parameter without dM and dK
        MV = Lw = 0.0
        if params.matrix_params:
            MV = ctx.Mc @ rec.V
            Lw = model.pencil.C @ rec.w + 2.0 * rec.Lam * (ctx.Mc @ rec.w)
        ix = _Index(
            m,
            rec,
            [table.linearize(m) for table in tables],
            [(u, j, k, u[j], exp.R(k)[j]) for u, j, k in v_decomps(m, r_orders)],
            MV,
            Lw,
            model.pencil.velocity(rec.Lam),
            order(m) < exp.order,
            m in wdot_read or symmetric(m) in wdot_read,
        )
        for ps, pf_p in zip(passes, pf.reshape(P, n)):
            ps.step(ix, pf_p)
        del ix  # one index's linearizations at a time

    d_omega = np.zeros(P)
    d_rho = np.zeros(P)
    for p, ps in enumerate(passes):
        d_omega[p], d_rho[p] = ps.finish()
    return DirectDerivatives(names=params.names, d_omega=d_omega, d_rho=d_rho)
