"""Direct-differentiation sensitivity of the backbone frequency.

Propagates per-parameter derivatives forward through the whole pipeline:
eigenpair, damping ratio, eigenvalue, then every expansion coefficient in
ascending order. The walk knows nothing of the target: only the final
projection reads it, through the backbone point's weights
(`backbone.point_weights`), which give the reduced-amplitude derivative at
fixed physical amplitude and the response frequency's. So the walk runs
once per expansion order and `ParamDerivatives`: its record (`_Record`:
every parameter's dlam pair, dR of the resonant indices and dw of every
index, the canonical half, stacked in arrays that the passes write in
place) is kept in the expansion's memo (`SsmExpansion.memo`), and every
target, at any DOF, costs one projection: a few array operations per
weight for all parameters at once, each product rounded as the scalar
product of a per-parameter loop rounds it. It serves as the cross-check
oracle for the adjoint.

Every parameter has its own forward pass (`_Pass`), and the passes advance
together: the walk visits each canonical index once and runs every pass's
step there. It reads the expansion's own `PairSums` tables
(`SsmExpansion.tables`) and the record of the residuals' explicit parameter
partials (`SsmExpansion.partials`, the one the gradient contraction reads):
per index the partial forces of all parameter tensors over the primal
vectors and, one row per matrix parameter, dM, dC and dK applied to the
primal vectors; and dM phi of the master, whose stack a pass reads by row.
What depends on the index alone is built once per index and dropped before
the next: each force tensor's key-space linearization in the lower-order
coefficients (`PairSums.linearize`, whose reverse the adjoint sweep applies
as `PairSums.pullback`) and the lower-order coupling terms. A matrix
parameter's step also reads M V_m and (C + 2 Lam_m M) w_m, which the
index's record keeps for the adjoint sweep too. A pass's step at the index
then applies the linearizations to its own lower-order derivatives, adds
its explicit partials (a dense term only for the matrix parameters that
the builder declares, `ParamDerivatives.matrix_params`) and solves its own
right-hand side with the modal diagonal and the resonant denominator that
the index's record keeps. The walk applies the model's
operators as the adjoint sweep does: the velocity s M + C reaches a
derivative vector as s (M v) + C v, each product a `mechmodel.real_times`,
and no operator is formed to be applied to one vector. Every other operator
is applied in the primal's association.
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
from .multiindex import order, symmetric
from .ssm import IndexCoeffs, SsmExpansion, v_decomps


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

    Holds the parameter's own constants and, of its coefficient derivatives,
    what a later index or the projection reads: dw, dwdot of the indices
    the R couplings read, and dR of the resonant indices. The canonical
    dw, the canonical dR and the dlam pair are written in place into the
    parameter's rows of the walk's `_Record`; the swapped indices' conjugates
    and dwdot live only as long as the pass. A tensor-only parameter (one
    that `ParamDerivatives.matrix_params` does not declare) has a zero
    mode-shape and eigenvalue derivative and no dense matrix term: the
    record of explicit partials (`SsmExpansion.partials`) holds no row of
    its matrix-parameter stacks for it, and its step skips the products that
    its zero dLam_m scales.
    """

    def __init__(self, exp: SsmExpansion, record: "_Record", p: int, dphi, domega, dMphi):
        model = exp.model
        self.exp, self.record = exp, record
        self.domega = domega
        _, dlam = lambda_derivative(exp.master, model.alpha_r, model.beta_r, domega)
        self.dlam_pair = record.dlam[p]
        self.dlam_pair[:] = (dlam, np.conj(dlam))
        self.dw_rows, self.dR_rows = record.dw[p], record.dR[p]
        self.dphi = self.dw_rows[record.rows[(1, 0)]]
        self.dphi[:] = dphi
        # d(M phi): the derivative of a resonant solve's border row
        self.matrix = dMphi is not None
        self.dMphi = np.zeros(model.n, dtype=complex)
        if self.matrix:
            self.dMphi = dMphi + real_times(model.M, self.dphi)
        self.dw = {(1, 0): self.dphi, (0, 1): self.dphi}
        self.dwdot: dict = {}
        self.dR: dict = {}

    def step(self, rec: IndexCoeffs, lins, v_terms, keep_wdot: bool, pf, dense):
        """The derivative of index rec.m's coefficients: its own right-hand
        side and its own solve with the diagonal the record keeps. lins
        holds one linearization per force tensor, v_terms the lower-order
        coupling terms (u, j, k, u[j], R_k[j]), keep_wdot whether a later
        coupling reads dwdot_m; pf and dense (pC, Aw, Vphi, None for a
        tensor-only parameter) are its explicit partials (`Partials`)."""
        m, exp = rec.m, self.exp
        model, master, phi = exp.model, exp.master, exp.master.phi
        M, C = model.M, model.C
        pC, Aw, Vphi = dense or (None,) * 3
        dlam_pair = self.dlam_pair
        Lam = rec.Lam
        dLam = m[0] * dlam_pair[0] + m[1] * dlam_pair[1]
        MV, Lw = (rec.MV, rec.Lw) if self.matrix else (0.0, 0.0)

        # dT over the primal vectors (pf), T linearized in the lower orders
        df = pf + sum(lin.forward(self.dw.__getitem__) for lin in lins)

        dV = dVdot = 0.0
        dC = -df - dLam * MV
        if v_terms:
            for u, j, k, uj, Rkj in v_terms:
                dRkj = self.dR[k][j]
                dV = dV + uj * (self.dw[u] * Rkj + exp.w(u) * dRkj)
                dVdot = dVdot + uj * (self.dwdot[u] * Rkj + exp.wdot(u) * dRkj)
            # the velocity Lam M + C applied to dV, not formed
            dC = dC - real_times(M, dVdot) - (Lam * real_times(M, dV) + real_times(C, dV))
        if pC is not None:
            dC = dC + pC

        dR = np.zeros(2, dtype=complex)
        dh = dC
        if rec.slot is not None:
            j = rec.slot
            dR = self.dR_rows[self.record.resonant[m]]
            dlj = dLam + dlam_pair[j]
            dden = dlj + 2.0 * model.beta_r * master.omega * self.domega
            dR[j] = (self.dphi @ rec.C + phi @ dC) / rec.den - rec.R[j] * dden / rec.den
            # D = -(lj M + C) phi with lj = Lam + lambda_j, applied not formed
            dD = -dlj * exp.Mphi
            if Vphi is not None:
                lj = Lam + master.lambda_pair[j]
                dD = dD - (lj * real_times(M, self.dphi) + real_times(C, self.dphi)) - Vphi
            dh = dC + dD * rec.R[j] + rec.D * dR[j]

        dLw = dLam * Lw
        if Aw is not None:
            dLw = dLw + Aw
        # border row: d(phi^T M w_m) = 0; a plain record ignores it
        dw, _ = exp.solve(rec.d, rec.slot, dh - dLw, -(self.dMphi @ rec.w))
        row = self.dw[m] = self.dw_rows[self.record.rows[m]]
        row[:] = dw

        dwdot = None
        if keep_wdot:
            dwdot = self.dwdot[m] = (
                dLam * rec.w
                + Lam * dw
                + dV
                + (dR[0] + dR[1]) * phi
                + (rec.R[0] + rec.R[1]) * self.dphi
            )
        if rec.slot is not None:
            self.dR[m] = dR
        if m[0] != m[1]:
            # the swapped index's coefficients are the conjugate ones
            ms = symmetric(m)
            self.dw[ms] = np.conj(dw)
            if dwdot is not None:
                self.dwdot[ms] = np.conj(dwdot)
            if rec.slot is not None:
                self.dR[ms] = np.conj(dR[::-1])


@dataclass(eq=False)
class _Record:
    """The walk's record: what the projection reads, every parameter's rows
    stacked. It keeps the canonical half (m1 >= m2); a swapped index's
    derivatives are the conjugates of its partner's, with the two R slots
    exchanged. It holds no reference to the model, the expansion or the
    params, so the expansion's memo that keeps it makes no cycle back to the
    expansion."""

    rows: dict  # canonical index -> its row of dw
    resonant: dict  # canonical resonant index of order >= 2 -> its row of dR
    dw: np.ndarray  # (P, rows, n): dw_m of every canonical index
    dR: np.ndarray  # (P, resonant, 2): dR_m of the canonical resonant indices
    dlam: np.ndarray  # (P, 2): (dlam, conj(dlam))

    @classmethod
    def empty(cls, exp: SsmExpansion, count: int) -> "_Record":
        rows = [m for m in exp.data if m[0] >= m[1]]
        resonant = [m for m in rows if order(m) > 1 and exp.data[m].slot is not None]
        return cls(
            {m: i for i, m in enumerate(rows)},
            {m: i for i, m in enumerate(resonant)},
            np.zeros((count, len(rows), exp.model.n), complex),
            np.zeros((count, len(resonant), 2), complex),
            np.zeros((count, 2), complex),
        )

    def dw_at(self, indices, dof_index: int) -> np.ndarray:
        """(indices, P): dw_m[dof_index] of every parameter, per index."""
        at = [self.rows[m if m[0] >= m[1] else symmetric(m)] for m in indices]
        X = self.dw[:, at, dof_index].T
        swapped = [k for k, m in enumerate(indices) if m[0] < m[1]]
        X[swapped] = np.conj(X[swapped])
        return X

    def dR_at(self, pairs) -> np.ndarray:
        """(pairs, P): dR_m[slot] of every parameter, per (m, slot) pair."""
        X = np.empty((len(pairs), len(self.dR)), complex)
        for k, (m, slot) in enumerate(pairs):
            if m[0] >= m[1]:
                X[k] = self.dR[:, self.resonant[m], slot]
            else:
                X[k] = np.conj(self.dR[:, self.resonant[symmetric(m)], 1 - slot])
        return X


def _walk(model: MechModel, exp: SsmExpansion, params: ParamDerivatives) -> _Record:
    """Every parameter's forward pass through the expansion, written into
    one `_Record`. Nothing here reads the amplitude target."""
    exp.check_model(model)
    walk = _Record.empty(exp, params.count)
    record = exp.partials(params)

    dphi_all, domega_all = eig_derivatives(exp, params, record.eig)
    rows = {p: k for k, p in enumerate(params.matrix_params)}  # of the record's stacks
    dMphi = dict(zip(params.matrix_params, record.eig[1]))
    passes = [
        _Pass(exp, walk, p, dphi_all[p], domega_all[p], dMphi.get(p))
        for p in range(params.count)
    ]

    r_orders = exp.r_orders()
    couplings = {m: v_decomps(m, r_orders) for m, _, _ in record.indices}
    wdot_read = {u for terms in couplings.values() for u, _, _ in terms}
    for m, pf, (pC, Aw, Vphi, _) in record.indices:
        rec = exp.coeffs(m)
        lins = [table.linearize(m) for table in exp.tables]
        v_terms = [(u, j, k, u[j], exp.R(k)[j]) for u, j, k in couplings[m]]
        keep_wdot = m in wdot_read or symmetric(m) in wdot_read
        for p, ps in enumerate(passes):
            k = rows.get(p)
            dense = None if k is None else (pC[k], Aw[k], None if Vphi is None else Vphi[k])
            ps.step(rec, lins, v_terms, keep_wdot, pf[p], dense)
        del lins  # one index's linearizations at a time
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
    map at x = const. The walk visits the canonical indices once, and each
    parameter's pass mirrors every derivative to the swapped index by
    conjugation, so a full-set expansion gives the same derivatives as the
    canonical one.

    The walk reads no target. It runs on the first call for this
    `ParamDerivatives` and its record is kept in the expansion's memo, in
    one slot that another `ParamDerivatives` replaces; every call, at any
    DOF and amplitude, projects it with the backbone point's weights.
    """
    exp.check_model(model)
    pw = point_weights(exp, dof_index, rho)
    walk = exp.memo("direct walk", lambda: _walk(model, exp, params), owner=params)

    # every parameter at once, each sum over the weights in their order
    amp = pw.amplitude(-1.0 / pw.dx_drho)
    terms = _times(np.array(list(amp.values())), walk.dw_at(list(amp), dof_index))
    drho = np.add.accumulate(np.vstack([np.zeros(params.count), terms]))[-1]
    weights = np.array([*pw.lam, *(wt for _, wt in pw.R)])
    values = np.vstack([walk.dlam.T, walk.dR_at([at for at, _ in pw.R])])
    dOm = np.add.accumulate(_times(weights, values))[-1]
    d_rho = assert_real_each(drho, "drho", params.names)
    d_omega = assert_real_each(dOm, "dOmega", params.names) + pw.domega_drho * d_rho
    return DirectDerivatives(names=params.names, d_omega=d_omega, d_rho=d_rho)
