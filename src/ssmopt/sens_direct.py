"""Direct-differentiation sensitivity of the backbone frequency.

Propagates per-parameter derivatives forward through the whole pipeline:
eigenpair, damping ratio, eigenvalue, then every expansion coefficient in
ascending order. The walk knows nothing of the target: only the final
projection reads it, through the backbone point's weights
(`backbone.point_weights`), which give the reduced-amplitude derivative at
fixed physical amplitude and the response frequency's. So the walk runs
once per expansion order and `ParamDerivatives`: its record (`_Record`:
every parameter's dlam pair, dR of the resonant indices and dw of every
index, swapped ones included, stacked in arrays that the passes write in
place) is kept in the expansion's memo (`SsmExpansion.memo`), and every
target, at any DOF, costs one projection: a few array operations per
weight for all parameters at once, each product rounded as the scalar
product of a per-parameter loop rounds it. It serves as the cross-check
oracle for the adjoint.

Every parameter has its own forward pass (`_Pass`), and the passes advance
together, one order at a time: the walk steps through the expansion's
order plans (`SsmExpansion.plans`, which `compute_ssm` leaves as it solves
each order), and every pass's step takes the order's canonical indices at
once, one column each of (n, k) blocks. The canonical indices of one order
read only lower orders, so each stage runs once per order: the partial and
linearized forces, the lower-order coupling sums, the M and C products, the
modal solve with one diagonal per column and the resonant column bordered
(`SsmExpansion.solve_order`), dwdot, and the conjugate mirrors that write
the swapped indices (`ssm.write_order`, the recursion's own write). A
pass's derivatives are its rows of the record, one row per index in the
`multiindex.table_row` layout, so a pass gathers every lower-order vector
it reads from one table.
The walk reads the expansion's own `PairSums` tables
(`SsmExpansion.tables`) and the record of the residuals' explicit parameter
partials (`SsmExpansion.partials`, the one the gradient contraction reads),
one block per plan: the partial forces of all parameter tensors over the
order's primal vectors, added to the order's forces at once, and, one row
per matrix parameter, dM, dC and dK applied to those vectors; and dM phi of
the master, whose stack a pass reads by row.
Each force tensor's key-space linearization in the lower-order
coefficients (`PairSums.linearize`, whose reverse the adjoint sweep applies
as `PairSums.pullback`) is built when the walk reaches the index's order,
applied by every pass (`Linearization.gather`, `SymTensor.spread`) and
dropped before the next index's: the order's other stages need every
pass's forces, and a whole order's linearizations would hold several
indices' coefficients at once. A matrix parameter's step also reads
M V_m and (C + 2 Lam_m M) w_m, which the plan stacks and the adjoint sweep
reads too, adds its explicit partials (a dense term only for the matrix
parameters that the builder declares, `ParamDerivatives.matrix_params`) and
solves with the plan's modal diagonals and its resonant column's
denominator. The walk applies the model's operators as the adjoint sweep
does: the velocity s M + C reaches a block of derivative vectors as
s (M v) + C v, each product a `mechmodel.real_times`, and no operator is
formed to be applied to them.
Parameters are never batched into one solve: a coefficient's derivative
needs the same parameter's lower-order derivatives, so each pass keeps its
own table of the derivatives later indices read, and the cost stays linear
in the number of design variables.
Only the eigenpair derivatives take all parameters at once, as one block
solve of the bordered mode-shape system (`SsmExpansion.mode_solve`, which
the adjoint's mode-shape solve shares).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import point_weights
from .errors import assert_real_each
from .mechmodel import MechModel, ParamDerivatives, real_times
from .multiindex import order, table_row
from .ssm import OrderPlan, SsmExpansion, write_order


@dataclass
class DirectDerivatives:
    """Forward-mode derivatives per design variable."""

    names: tuple[str, ...]
    d_omega: np.ndarray  # dOmega/dmu at fixed target amplitude
    d_rho: np.ndarray


def eig_derivatives(
    exp: SsmExpansion, params: ParamDerivatives, modal: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Mode-shape and frequency derivatives of every parameter at the
    expansion's master pair.

    `modal` is the master's explicit partials ((dK - omega^2 dM) phi, dM
    phi), two (len(matrix_params), n) stacks as
    `ParamDerivatives.modal_partials` gives them (the direct walk reads them
    from its record of explicit partials). The derivatives solve
    (K - omega^2 M) dphi - 2 omega domega M phi = -(dK - omega^2 dM) phi and
    -2 omega (M phi)^T dphi = omega phi^T dM phi, the bordered mode-shape
    system (`SsmExpansion.mode_solve`) in the unknowns (dphi, -omega domega):
    one block solve serves all parameters. A
    tensor-only parameter (not in `matrix_params`) leaves the eigenpair
    unchanged: its derivatives are zero and need no solve.
    """
    n, phi, omega = exp.model.n, exp.master.phi, exp.master.omega
    dphi = np.zeros((params.count, n))
    domega = np.zeros(params.count)
    if not params.matrix_params:
        return dphi, domega
    border = np.array([omega * (phi @ dMphi) for dMphi in modal[1]])
    sol, s = exp.mode_solve(-modal[0].T, border)
    dense = list(params.matrix_params)
    dphi[dense] = sol.T
    domega[dense] = s / -omega
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

    Its coefficient derivatives are its rows of the walk's `_Record`, in
    the `table_row` layout: dw of every index, dR of the resonant ones, and
    the dlam pair; the walk keeps dwdot of the indices that the couplings
    read in a table of its own. A pass writes a swapped index's
    derivatives, the conjugates of its partner's, when it writes the
    partner's. A tensor-only parameter (one that
    `ParamDerivatives.matrix_params` does not declare) has a zero mode-shape
    and eigenvalue derivative and no dense matrix term: the record of
    explicit partials (`SsmExpansion.partials`) holds no row of its
    matrix-parameter stacks for it, and its step skips the products that
    its zero dLam_m scales.
    """

    def __init__(self, exp: SsmExpansion, record: "_Record", dWdot, p: int, dphi, domega, dMphi):
        model = exp.model
        self.exp = exp
        self.domega = domega
        _, dlam = lambda_derivative(exp.master, model.alpha_r, model.beta_r, domega)
        self.dlam_pair = record.dlam[p]
        self.dlam_pair[:] = (dlam, np.conj(dlam))
        self.dW, self.dR, self.dWdot = record.dw[p], record.dR[p], dWdot[p]
        self.dW[:2] = dphi  # the mode shape is w_(1,0) and w_(0,1)
        self.dphi = self.dW[0]
        # d(M phi): the derivative of a resonant solve's border row
        if dMphi is not None:
            self.Mdphi = real_times(model.M, self.dphi)
            self.Cdphi = real_times(model.C, self.dphi)
            self.dMphi = dMphi + self.Mdphi

    def step(self, plan: OrderPlan, df: np.ndarray, dense, keep_wdot: bool):
        """The derivatives of the coefficients of one order's canonical
        indices, one column each: their right-hand sides and one solve with
        the diagonals the plan keeps. df holds the (n, k) partial and
        linearized forces, keep_wdot whether a later coupling reads dwdot
        of this order; dense (pC, Aw, Vphi, None for a tensor-only
        parameter) are its explicit partials (`Partials`), pC and Aw (n, k)
        and Vphi the resonant index's."""
        exp = self.exp
        model, master, phi = exp.model, exp.master, exp.master.phi
        M, C = model.M, model.C
        pC, Aw, Vphi = dense or (None,) * 3
        dlam_pair = self.dlam_pair
        dLam = plan.mm @ dlam_pair

        dC = -df
        if dense:
            dC -= plan.MV * dLam
        dV = 0.0
        if len(plan.u_rows):
            # the lower-order coupling sums, every term of the order at once
            SdR = plan.S * self.dR.ravel()[plan.R_at][:, None]
            dV = self.dW[plan.u_rows].T @ plan.A + plan.Wu @ SdR
            dVdot = self.dWdot[plan.u_rows].T @ plan.A + plan.Wdotu @ SdR
            # the velocity Lam M + C applied to dV, not formed
            dC -= real_times(M, dVdot)
            dC -= plan.Lam * real_times(M, dV) + real_times(C, dV)
        if dense:
            dC += pC

        dRj = 0.0
        border = 0.0
        if plan.res is not None:
            r, j, den = plan.res, plan.slot, plan.den
            Rj = exp.Rpairs[plan.rows[r], j]
            dlj = dLam[r] + dlam_pair[j]
            dden = dlj + 2.0 * model.beta_r * master.omega * self.domega
            # the terms in dphi and dMphi vanish for a tensor-only parameter
            dphi_C = self.dphi @ plan.C[:, r] if dense else 0.0
            dRj = (dphi_C + phi @ dC[:, r]) / den - Rj * dden / den
            # D = -(lj M + C) phi with lj = Lam + lambda_j, applied not formed
            dD = -dlj * exp.Mphi
            if dense:
                lj = plan.Lam[r] + master.lambda_pair[j]
                dD = dD - (lj * self.Mdphi + self.Cdphi) - Vphi
            dC[:, r] += dD * Rj
            dC[:, r] += plan.D * dRj
            self.dR[plan.rows[r], j] = dRj
            # the swapped index's R pair is this one conjugated, slots exchanged
            self.dR[plan.mirrors[r], 1 - j] = np.conj(dRj)
            # border row: d(phi^T M w_m) = 0
            if dense:
                border = -(self.dMphi @ plan.w[:, r])

        rhs = dC if not dense else dC - (plan.Lw * dLam + Aw)
        dw, _ = exp.solve_order(plan, rhs, border)
        write_order(self.dW, plan, dw.T)

        if keep_wdot:
            dwdot = plan.w * dLam + plan.Lam * dw + dV
            if plan.res is not None:
                dwdot[:, plan.res] += dRj * phi
            if dense:
                dwdot += plan.Rsum * self.dphi[:, None]
            write_order(self.dWdot, plan, dwdot.T)


@dataclass(eq=False)
class _Record:
    """The walk's record: what the projection reads, every parameter's rows
    stacked, one row per index of the expansion in the `table_row` layout
    (orders 1 and up). A swapped index's derivatives are the conjugates of
    its partner's, with the two R slots exchanged. It holds no reference to
    the model, the expansion or the params, so the expansion's memo that
    keeps it makes no cycle back to the expansion."""

    dw: np.ndarray  # (P, rows, n): dw_m of every index
    dR: np.ndarray  # (P, rows, 2): dR_m, zero but at the resonant indices of order >= 3
    dlam: np.ndarray  # (P, 2): (dlam, conj(dlam))

    @classmethod
    def empty(cls, exp: SsmExpansion, count: int) -> "_Record":
        rows = table_row((0, exp.order), 1) + 1
        return cls(
            np.zeros((count, rows, exp.model.n), complex),
            np.zeros((count, rows, 2), complex),
            np.zeros((count, 2), complex),
        )

    def dR_at(self, pairs) -> np.ndarray:
        """(pairs, P): dR_m[slot] of every parameter, per (m, slot) pair."""
        rows = [table_row(m, 1) for m, _ in pairs]
        return self.dR[:, rows, [slot for _, slot in pairs]].T


def _forces(lins, dW: np.ndarray, out: np.ndarray):
    """out, zero on entry, += each linearization applied to the table dW:
    the tensors' sums are formed apart and added in order."""
    for i, lin in enumerate(lins):
        G = lin.gather(dW)
        if i == 0:
            lin.tensor.spread(G, out)
        else:
            out += lin.tensor.spread(G, np.zeros_like(out))


def _walk(model: MechModel, exp: SsmExpansion, params: ParamDerivatives) -> _Record:
    """Every parameter's forward pass through the expansion, written into
    one `_Record`. Nothing here reads the amplitude target."""
    exp.check_model(model)
    walk = _Record.empty(exp, params.count)
    record = exp.partials(params)
    n, P = model.n, params.count

    dphi_all, domega_all = eig_derivatives(exp, params, record.eig)
    rows = {p: k for k, p in enumerate(params.matrix_params)}  # of the record's stacks
    dMphi = dict(zip(params.matrix_params, record.eig[1]))
    # dwdot of the indices that a coupling reads, orders up to order - 2
    dWdot = np.zeros((P, table_row((0, max(exp.order - 2, 1)), 1) + 1, n), complex)
    passes = [
        _Pass(exp, walk, dWdot, p, dphi_all[p], domega_all[p], dMphi.get(p))
        for p in range(P)
    ]

    for plan, (pf, pC, Aw, Vphi, _) in zip(exp.plans, record.orders):
        # every pass's forces, the partial ones added last; one index's
        # linearizations at a time
        F = np.zeros(pf.shape, complex)
        for t, m in enumerate(plan.indices):
            lins = [lin for lin in (table.linearize(m) for table in exp.tables) if lin.rows]
            for p in range(P):
                _forces(lins, walk.dw[p], F[t, p])
            del lins
        F += pf
        keep_wdot = order(plan.indices[0]) <= exp.order - 2
        for p, ps in enumerate(passes):
            q = rows.get(p)
            dense = None if q is None else (pC[q].T, Aw[q].T, None if Vphi is None else Vphi[q])
            ps.step(plan, F[:, p].T, dense, keep_wdot)
    return walk


def _times(a: np.ndarray, X: np.ndarray) -> np.ndarray:
    """a[k] * X[k] entry by entry, rounded as numpy's product of two complex
    scalars rounds it, (ar xr - ai xi) + i (ar xi + ai xr): numpy's array
    product may round differently (it is not even symmetric in its
    operands), and the projection keeps the scalar loop's numbers."""
    ar, ai = a.real[:, None], a.imag[:, None]
    out = np.empty(X.shape, complex)
    out.real = ar * X.real - ai * X.imag
    out.imag = ar * X.imag + ai * X.real
    return out


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
    map at x = const. The walk steps through the orders, each order's
    canonical indices at once, and each parameter's pass mirrors every
    derivative to the swapped index by conjugation, so a full-set expansion
    gives the same derivatives as the canonical one.

    The walk reads no target. It runs on the first call for this
    `ParamDerivatives` and its record is kept in the expansion's memo, in
    one slot that another `ParamDerivatives` replaces; every call, at any
    DOF and amplitude, projects it with the backbone point's weights.
    """
    exp.check_model(model)
    pw = point_weights(exp, dof_index, rho)
    walk = exp.memo("direct walk", lambda: _walk(model, exp, params), owner=params)

    # every parameter at once, each sum over the weights in their order
    terms = _times(pw.amplitude(-1.0 / pw.dx_drho), walk.dw[:, :, dof_index].T)
    drho = np.add.accumulate(np.vstack([np.zeros(params.count), terms]))[-1]
    weights = np.array([*pw.lam, *(wt for _, wt in pw.R)])
    values = np.vstack([walk.dlam.T, walk.dR_at([at for at, _ in pw.R])])
    dOm = np.add.accumulate(_times(weights, values))[-1]
    d_rho = assert_real_each(drho, "drho", params.names)
    d_omega = assert_real_each(dOm, "dOmega", params.names) + pw.domega_drho * d_rho
    return DirectDerivatives(names=params.names, d_omega=d_omega, d_rho=d_rho)
