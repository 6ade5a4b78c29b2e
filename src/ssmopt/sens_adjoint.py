"""Adjoint sensitivity of the backbone frequency at fixed physical amplitude.

The Lagrangian couples the response frequency with the amplitude map, the
cohomological equations, the eigenproblem and the mass normalization. Adjoint
variables are obtained by one reverse sweep, seeded with the backbone point's
weights (`backbone.point_weights`, the amplitude weights scaled by the
amplitude adjoint): the per-index vectors from the highest order downward
(each with its primal's modal solve; the operators are complex symmetric),
finally a coupled bordered real system for the mode-shape/frequency pair.
The sweep carries every cross-order coupling backward, including the total
bar of each resonant reduced coefficient R_m, which it keeps. The gradient
is then one local contraction: the explicit operator derivatives at each
index, weighted by its lambda_m, nu_m and R bar, plus the eigenproblem
terms. No linear solves and no cross-order sums appear per parameter.

The sweep is the reverse of the program the primal runs: one cohomological
step per order, each canonical index (m1 >= m2) one column, and a conjugate
copy for the swapped index. It steps through the orders, highest first, and
takes each order's canonical indices at once, one column each of (n, k)
blocks, from the order plans that the primal left (`SsmExpansion.plans`):
no index of an order pushes to another of the same order, so every stage
(the folds, the wdot reverse, the modal solve with the resonant column
bordered, `SsmExpansion.solve_order`, the M and C products and the coupling
sums) runs once per order. The bars are one row per index in the
`multiindex.table_row` layout. The reverse of the copy is a fold: the bars
pushed to the swapped index reach the canonical one conjugated (with the
two R slots exchanged) before the canonical step is reversed. A
self-symmetric index (m1 = m2) and the objective are their own mirrors, so
their pushes enter at half weight and the fold restores them; the mode
shape and the frequency fold to bar + conj(bar), the eigenvalue pair to
bar_0 + conj(bar_1).

All cross-order couplings are evaluated as vector-times-operator products;
dense Jacobians between coefficient blocks are never materialized, and no
operator is formed to be applied to one vector: the velocity s M + C
reaches a bar as s (M b) + C b. The force convolution at each index
is pulled back once per tensor (`PairSums.pullback`): one gather from the
expansion's own tables (`SsmExpansion.tables`), the ones its recursion
summed the forces with, returns the summed bar of every lower-order index
the convolution reads, with the rows of those indices. Operators come from
the `MechModel`; the parameters' dM, dC and dK reach only the record of
explicit partials.

Only the seeds depend on the amplitude target. What depends on the
expansion alone is built once, and every target reads it. The sweep reads
the operator products of the primal vectors that the plans stack per order
(M w_m, (C + 2 Lam_m M) w_m and M V_m, and the modal diagonals d that the
solves divide by) and the expansion's M phi, so a target after the first
pays for its seeds' sweep only; M and C reach the bars through
`mechmodel.real_times`, as in the primal. The sweep hands over its adjoint
variables per order (`AdjointState`), and the contraction steps through the
plans, one batched product per term and order, reading the record of the
residuals' explicit parameter partials per `ParamDerivatives`
(`SsmExpansion.partials`, kept in the expansion's memo, one block per plan),
the same record the direct walk reads.

Resonant indices are solved in bordered form in the primal, so each carries
one extra adjoint scalar for the accompanying orthogonality constraint; its
contribution enters the mode-shape equation and the mass-matrix contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import PointWeights, point_weights
from .errors import assert_real, assert_real_each
from .mechmodel import MechModel, ParamDerivatives, real_times
from .multiindex import table_row
from .sens_direct import lambda_derivative
from .ssm import OrderPlan, SsmExpansion, write_order


@dataclass
class AdjointState:
    """Adjoint variables of the fixed-amplitude frequency response, per
    order: lam holds lambda_m, adjoint to the cohomological equations, one
    row per index in the bars' `table_row` layout, a swapped index's row its
    partner's conjugate. nu and r_bar hold one entry per order plan, zero at
    an even order: nu is adjoint to the resonant index's orthogonality
    constraint, r_bar the total bar of its R_m[slot] that the reverse sweep
    collected from every higher-order coupling and from the frequency seeds."""

    lam: np.ndarray
    nu: np.ndarray
    r_bar: np.ndarray
    lambda_phi: np.ndarray
    lambda_omega: float


class _Bars:
    """Reverse-mode accumulators of one sweep. The bars of every index's w_m,
    wdot_m and R_m pair are one row each in the `table_row` layout (orders 1
    and up); a row reads zero until something pushes to it, and the two
    order-1 rows collect the pushes to the mode shape through w_(1,0) and
    w_(0,1). V_m's bar is not stored: the wdot step of m's order makes it
    and the index step, its one reader, takes it as an argument."""

    def __init__(self, n: int, rows: int):
        self.w = np.zeros((rows, n), complex)
        self.wdot = np.zeros((rows, n), complex)
        self.R = np.zeros((rows, 2), complex)
        self.phi = np.zeros(n, dtype=complex)
        self.lam = np.zeros(2, dtype=complex)  # bars of the eigenvalue pair
        self.omega = 0.0

    @staticmethod
    def fold(store: np.ndarray, plan: OrderPlan) -> np.ndarray:
        """(n, k): the total bars of the plan's canonical indices in store.

        The swapped index's coefficients are the conjugates of m's, so the
        bar pushed to it arrives conjugated. A self-symmetric index is its own
        copy: its total is bar + conj(bar).
        """
        return (store[plan.rows] + np.conj(store[plan.mirrors])).T


def solve_adjoint_rho(pw: PointWeights) -> float:
    """Amplitude adjoint of the backbone point: -(dOmega/drho)/(dx/drho)."""
    return -pw.domega_drho / pw.dx_drho


def _seed_bars(bars: _Bars, pw: PointWeights, dof_index: int):
    """The point's weights as seeds, at half weight: the objective is its own
    mirror, so the fold of each bar restores the other half."""
    bars.lam[0] += 0.5 * pw.lam[0]
    bars.lam[1] += 0.5 * pw.lam[1]
    for (a, slot), wt in pw.R:
        bars.R[table_row(a, 1), slot] += 0.5 * wt
    bars.w[:, dof_index] += pw.amplitude(0.5 * solve_adjoint_rho(pw))


def _backprop_order(model: MechModel, exp, bars: _Bars, plan: OrderPlan, lam, nu, vbar):
    """Reverse of the cohomological steps of one order's canonical indices,
    one column each, for the adjoint pairs (lam, nu), weighted as the sweep
    pushes them, and the bars vbar of V_m that the wdot steps left. The
    steps' operator products are the plan's (w, Mw, Lw and MV) and M phi is
    the expansion's; every other product applies M or C to a bar with
    `real_times`."""
    master = exp.master
    phi = master.phi
    M, C = model.M, model.C

    # h = C + D R_m[slot], the second term at the resonant index
    bar_c = -lam
    if plan.res is not None:
        r, j, den = plan.res, plan.slot, plan.den
        row = plan.rows[r]
        Rj, lj = exp.Rpairs[row, j], plan.Lam[r] + master.lambda_pair[j]
        bars.R[row, j] += bar_c[:, r] @ plan.D
        bar_d = Rj * bar_c[:, r]
        # the velocity lj M + C applied to bar_d, not formed
        bars.phi -= lj * real_times(M, bar_d) + real_times(C, bar_d)
        sc = -(bar_d @ exp.Mphi)
        bars.lam += plan.mm[r] * sc
        bars.lam[j] += sc

        # orthogonality constraint of the bordered solve
        if nu != 0.0:
            bars.phi += nu * plan.Mw[:, r]

        # R_m = phi^T C_m / den; final here: every reader of R_m lies above
        # m's order or at m itself; solve_adjoint keeps it as r_bar for the
        # contraction
        g = bars.R[row, j]
        if g != 0.0:
            bar_c[:, r] += (g / den) * phi
            bars.phi += (g / den) * plan.C[:, r]
            t = -g * Rj / den
            bars.lam += plan.mm[r] * t
            bars.lam[j] += t
            bars.omega += t * 2.0 * model.beta_r * master.omega

    # C = -M Vdot - (Lam M + C) V - f; M bar_c serves both bars
    M_bar_c = real_times(M, bar_c)
    bar_vdot = -M_bar_c
    bar_v = vbar - (plan.Lam * M_bar_c + real_times(C, bar_c))
    # the eigenvalue pair through Lam_m: the wdot step's vbar . w_m, the
    # operator's lambda . (dL_m/dLam) w_m and the force's -bar_c . M V_m
    bars.lam += (vbar * plan.w + lam * plan.Lw - bar_c * plan.MV).sum(axis=0) @ plan.mm

    # V, Vdot sums over lower-order coefficients, every term at once
    if len(plan.u_rows):
        bars.w[plan.u_rows] += plan.A @ bar_v.T
        bars.wdot[plan.u_rows] += plan.A @ bar_vdot.T
        dots = (bar_v.T @ plan.Wu).T + (bar_vdot.T @ plan.Wdotu).T
        np.add.at(bars.R.ravel(), plan.R_at, (plan.S * dots).sum(axis=1))

    # nonlinear force convolution: one pullback per index and tensor's table
    for t, m in enumerate(plan.indices):
        for table in exp.tables:
            parts, r = table.pullback(m, -bar_c[:, t])
            bars.w[parts] += r


def solve_adjoint_phi_omega(exp: SsmExpansion, bars: _Bars):
    """Coupled bordered solve for the mode-shape and frequency adjoints, the
    expansion's mode-shape solve (`SsmExpansion.mode_solve`)."""
    model = exp.model
    _, dlam_domega = lambda_derivative(exp.master, model.alpha_r, model.beta_r, 1.0)
    bars.omega += bars.lam[0] * dlam_domega + bars.lam[1] * np.conj(dlam_domega)
    g_phi = assert_real(bars.phi, "mode-shape adjoint source")
    g_omega = assert_real(bars.omega, "frequency adjoint source")
    lambda_phi, lambda_omega = exp.mode_solve(-g_phi, -g_omega)
    return lambda_phi, float(lambda_omega)


def solve_adjoint(
    model: MechModel,
    exp: SsmExpansion,
    dof_index: int,
    rho: float,
) -> AdjointState:
    """All adjoint variables for Omega at the given reduced amplitude.

    One reverse sweep over the orders, highest first, each order's
    canonical indices one column of a block (`SsmExpansion.plans`):
    the order folds in its mirrors' bars, solves with its indices' own
    operators at once (`SsmExpansion.solve_order`) and reverses its steps.
    The folded mode-shape and frequency bars then feed the coupled bordered
    solve. The operator products that no target changes are read from the
    plans.
    """
    exp.check_model(model)
    phi = exp.master.phi
    bars = _Bars(model.n, table_row((0, exp.order), 1) + 1)
    _seed_bars(bars, point_weights(exp, dof_index, rho), dof_index)

    lam_table = np.zeros_like(bars.w)
    nu = np.zeros(len(exp.plans), complex)
    for i, plan in reversed(list(enumerate(exp.plans))):
        # a self-symmetric index is its own mirror: the folds double what
        # it pushes, so it pushes at half weight, and its w_m is folded
        # only after its own wdot step has pushed to it
        vbar = plan.wt * _Bars.fold(bars.wdot, plan)
        # reverse of wdot_m = Lam_m w_m + (R_m[0] + R_m[1]) phi + V_m for the
        # bar vbar but its V_m term: vbar is V_m's bar, which the index step takes
        bars.w[plan.rows] += (plan.Lam * vbar).T
        bars.phi += vbar @ plan.Rsum
        r = plan.res
        if r is not None:
            bars.R[plan.rows[r], plan.slot] += vbar[:, r] @ phi
        lam, nu[i] = exp.solve_order(plan, -_Bars.fold(bars.w, plan))
        write_order(lam_table, plan, lam.T)
        if r is not None:
            # the swapped R pair is this one conjugated, slots exchanged
            bars.R[plan.rows[r]] += np.conj(bars.R[plan.mirrors[r], ::-1])
        # a resonant index is never self-symmetric: its weight is 1
        _backprop_order(model, exp, bars, plan, plan.wt * lam, nu[i], vbar)

    # the order-1 rows are the mode shape's; phi and omega are their own
    # mirrors, and the eigenvalue pair's is the pair swapped
    bars.phi += bars.w[0] + bars.w[1]
    bars.phi += np.conj(bars.phi)
    bars.lam += np.conj(bars.lam[::-1])
    bars.omega += np.conj(bars.omega)
    lambda_phi, lambda_omega = solve_adjoint_phi_omega(exp, bars)
    r_bar = np.array([0 if p.res is None else bars.R[p.rows[p.res], p.slot] for p in exp.plans])
    return AdjointState(lam_table, nu, r_bar, lambda_phi, lambda_omega)


@dataclass
class AdjointReport:
    names: tuple[str, ...]
    d_omega: np.ndarray


def contract_gradient(
    model: MechModel,
    exp: SsmExpansion,
    adjoint: AdjointState,
    params: ParamDerivatives,
) -> AdjointReport:
    """dOmega/dmu for every design variable from the solved adjoint state.

    The reverse sweep has already carried every cross-order coupling, so each
    index adds only its local explicit operator derivatives, weighted by
    lambda_m, nu_m and the R bar. With bar_C = -lambda_m + (r_bar_m/den) phi,
    the total bar of C_m (its second term only at a resonant index), and
    dM, dC = alpha_r dM + beta_r dK and dK the parameter's operator
    derivatives, the index's term is

        bar_C . (-df_m - dM Vdot_m - (Lam_m dM + dC) V_m)
        + lambda_m . (dK + Lam_m dC + Lam_m^2 dM) w_m
        + R_m[j] lambda_m . ((Lam_m + lambda_j) dM + dC) phi + nu_m phi^T dM w_m.

    Only the adjoint variables depend on the amplitude target. Everything
    they are contracted with (the partial forces df_m of all parameters, the
    operator derivatives applied to the primal vectors, and the eigenproblem
    terms) is the expansion's record of explicit parameter partials
    (`SsmExpansion.partials`), built on the first call of either method for
    this `ParamDerivatives` and read by the direct walk too. A call steps
    through the plans, each order at once: one batched (P, n) mat-vec per
    index, one product and sum over the (P_M, k, n) stacks and each swapped
    index's conjugate term, so a full-set expansion gives the canonical
    one's gradient; then one realness check of all P sums. No linear solves
    appear.
    """
    exp.check_model(model)
    record = exp.partials(params)
    phi = exp.master.phi
    mp = list(params.matrix_params)

    accum = np.zeros(params.count, dtype=complex)
    for i, (plan, (pf, pC, Aw, Vphi, phiMw)) in enumerate(zip(exp.plans, record.orders)):
        lam = adjoint.lam[plan.rows]
        bar_c = -lam
        r = plan.res
        if r is not None:
            bar_c[r] += (adjoint.r_bar[i] / plan.den) * phi
        term = -(pf @ bar_c[:, :, None])[:, :, 0]  # (k, P)
        if mp:
            dense = (pC * bar_c + Aw * lam).sum(axis=2)  # (P_M, k)
            if r is not None:
                # the resonant column's R pair is R_m[slot] and a zero
                dense[:, r] += plan.Rsum[r] * (Vphi @ lam[r]) + adjoint.nu[i] * phiMw
            term[:, mp] += dense.T
        # each swapped index adds its partner's term conjugated
        accum += term.sum(axis=0) + np.conj(term[plan.swapped].sum(axis=0))

    modal_phi, dMphi = record.eig
    accum[mp] += modal_phi @ adjoint.lambda_phi + adjoint.lambda_omega * (dMphi @ phi)
    d_omega = assert_real_each(accum, "gradient", params.names)
    return AdjointReport(names=params.names, d_omega=d_omega)
