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
is then one local contraction per index: the explicit operator derivatives
at that index, weighted by its lambda_m, nu_m and R bar, plus the
eigenproblem terms. No linear solves and no cross-order sums appear per
parameter.

The sweep is the reverse of the program the primal runs: one cohomological
step per canonical index (m1 >= m2) and a conjugate copy for the swapped
index. It walks the canonical indices only. The reverse of the copy is a
fold: the bars pushed to the swapped index reach the canonical one
conjugated (with the two R slots exchanged) before the canonical step is
reversed. A self-symmetric index (m1 = m2) and the objective are their own
mirrors, so their pushes enter at half weight and the fold restores them;
the mode shape and the frequency fold to bar + conj(bar), the eigenvalue
pair to bar_0 + conj(bar_1).

All cross-order couplings are evaluated as vector-times-operator products;
dense Jacobians between coefficient blocks are never materialized, and no
operator is formed to be applied to one vector: the velocity s M + C
reaches a bar as s (M b) + C b. The force convolution at each index
is pulled back once per tensor (`PairSums.pullback`): one gather from the
expansion's own tables (`SsmExpansion.tables`), the ones its recursion
summed the forces with, returns the summed bar of every lower-order index
the convolution reads. Operators come from the `MechModel`; the
parameters' dM, dC and dK reach only the record of explicit partials.

Only the seeds depend on the amplitude target. What depends on the
expansion alone is built once, and every target reads it. The sweep reads
the operator products of the primal vectors that each index's record keeps
(M w_m, (C + 2 Lam_m M) w_m and M V_m, and the modal diagonal d that the
solves divide by) and the expansion's M phi, so a target after the first
pays for its seeds' sweep only; M and C reach the bars through
`mechmodel.real_times`, as in the primal. The contraction reads the record of
the residuals' explicit parameter partials per `ParamDerivatives`
(`SsmExpansion.partials`, kept in the expansion's memo, the matrix
parameters' terms stacked one row each), the same record the direct walk
reads.

Resonant indices are solved in bordered form in the primal, so each carries
one extra adjoint scalar for the accompanying orthogonality constraint; its
contribution enters the mode-shape equation and the mass-matrix contraction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .backbone import PointWeights, point_weights
from .errors import assert_real, assert_real_each
from .mechmodel import MechModel, ParamDerivatives, real_times
from .multiindex import canonical_indices, order, symmetric
from .sens_direct import lambda_derivative
from .ssm import SsmExpansion, v_decomps


@dataclass
class AdjointState:
    """Adjoint variables of the fixed-amplitude frequency response.

    All dicts hold the canonical half; the swapped index carries the
    elementwise conjugate. lambda_m are adjoint to the cohomological
    equations, nu_m to the orthogonality constraints of the bordered
    (resonant) solves, and r_bar_m is the total bar of the resonant reduced
    coefficient R_m[slot] that the reverse sweep collected from every
    higher-order coupling and from the frequency seeds.
    """

    lambda_m: dict
    nu_m: dict
    r_bar: dict
    lambda_phi: np.ndarray
    lambda_omega: float


class _Bars:
    """Reverse-mode accumulators over the expansion graph. The per-index
    stores (bars of w_m, wdot_m and the R_m pair) read zero where nothing has
    pushed yet. V_m's bar is not stored: the wdot step at m makes it and the
    index step at m, its one reader, takes it as an argument."""

    def __init__(self, n: int):
        self.n = n
        self.w = defaultdict(lambda: np.zeros(n, dtype=complex))
        self.wdot = defaultdict(lambda: np.zeros(n, dtype=complex))
        self.R = defaultdict(lambda: np.zeros(2, dtype=complex))
        self.phi = np.zeros(n, dtype=complex)
        self.lam = np.zeros(2, dtype=complex)  # bars of the eigenvalue pair
        self.omega = 0.0

    def fold(self, store: dict, m) -> np.ndarray:
        """Pop the total bar of canonical m from store.

        The swapped index's record is the conjugate copy of m's, so the bar
        pushed to it arrives conjugated. A self-symmetric index is its own
        copy: its total is bar + conj(bar).
        """
        zero = np.zeros(self.n, dtype=complex)
        own = store.pop(m, zero)
        mirror = own if m[0] == m[1] else store.pop(symmetric(m), zero)
        return own + np.conj(mirror)


def solve_adjoint_rho(pw: PointWeights) -> float:
    """Amplitude adjoint of the backbone point: -(dOmega/drho)/(dx/drho)."""
    return -pw.domega_drho / pw.dx_drho


def _seed_bars(bars: _Bars, pw: PointWeights, dof_index: int):
    """The point's weights as seeds, at half weight: the objective is its own
    mirror, so the fold of each bar restores the other half."""
    bars.lam[0] += 0.5 * pw.lam[0]
    bars.lam[1] += 0.5 * pw.lam[1]
    for (a, slot), wt in pw.R:
        bars.R[a][slot] += 0.5 * wt
    for m, coef in pw.amplitude(0.5 * solve_adjoint_rho(pw)).items():
        if order(m) == 1:
            bars.phi[dof_index] += coef
        else:
            bars.w[m][dof_index] += coef


def _backprop_wdot(exp, bars: _Bars, m, rec, b):
    """Reverse of wdot_m = Lam_m w_m + (R_m[0] + R_m[1]) phi + V_m for the bar
    b but its V_m term: b is V_m's bar, which the index step at m takes."""
    bars.w[m] += rec.Lam * b
    if rec.slot is not None:
        bars.R[m][rec.slot] += b @ exp.master.phi
    bars.phi += (rec.R[0] + rec.R[1]) * b
    _add_lam_bar(bars, m, b @ rec.w)


def _add_lam_bar(bars: _Bars, m, value: complex):
    bars.lam[0] += m[0] * value
    bars.lam[1] += m[1] * value


def _backprop_index(model: MechModel, exp, bars: _Bars, m, rec, lam_m, nu_m, vbar):
    """Reverse of the cohomological step at m for the adjoint pair (lam_m,
    nu_m) and the bar vbar of V_m that the wdot step at m left. The step's
    operator products are the record's (rec.Mw, rec.Lw, rec.MV) and M phi is
    the expansion's; every other product applies M or C to a bar with
    `real_times`."""
    master = exp.master
    phi = master.phi
    M, C = model.M, model.C

    # lambda^T (L_m w_m - h_m): operator depends on omega through Lam_m
    _add_lam_bar(bars, m, lam_m @ rec.Lw)
    bar_h = -lam_m

    # h = C + D R_m[slot]
    bar_c = bar_h.copy()
    if rec.slot is not None:
        j = rec.slot
        bars.R[m][j] += bar_h @ rec.D
        bar_d = rec.R[j] * bar_h
        # the velocity (Lam + lambda_j) M + C applied to bar_d, not formed
        bars.phi -= (rec.Lam + master.lambda_pair[j]) * real_times(M, bar_d) + real_times(C, bar_d)
        sc = -(bar_d @ exp.Mphi)
        _add_lam_bar(bars, m, sc)
        bars.lam[j] += sc

    # orthogonality constraint of the bordered solve
    if nu_m != 0.0:
        bars.phi += nu_m * rec.Mw

    # R_m = phi^T C_m / den
    if rec.slot is not None:
        j = rec.slot
        # final here: every reader of R_m lies above m's order or at m
        # itself; solve_adjoint keeps it as r_bar for the contraction
        g = bars.R[m][j]
        if g != 0.0:
            bar_c += (g / rec.den) * phi
            bars.phi += (g / rec.den) * rec.C
            t = -g * rec.R[j] / rec.den
            _add_lam_bar(bars, m, t)
            bars.lam[j] += t
            bars.omega += t * 2.0 * model.beta_r * master.omega

    # C = -M Vdot - (Lam M + C) V - f; M bar_c serves both bars
    M_bar_c = real_times(M, bar_c)
    bar_vdot = -M_bar_c
    bar_v = vbar - (rec.Lam * M_bar_c + real_times(C, bar_c))
    bar_f = -bar_c
    _add_lam_bar(bars, m, -(bar_c @ rec.MV))

    # V, Vdot sums over lower-order coefficients
    for u, j, k in v_decomps(m, exp.r_orders()):
        Rkj = exp.R(k)[j]
        bars.w[u] += u[j] * Rkj * bar_v
        bars.R[k][j] += u[j] * (bar_v @ exp.w(u))
        bars.wdot[u] += u[j] * Rkj * bar_vdot
        bars.R[k][j] += u[j] * (bar_vdot @ exp.wdot(u))

    # nonlinear force convolution: one pullback per tensor's table
    for table in exp.tables:
        for u, bar_u in table.pullback(m, bar_f).items():
            if order(u) == 1:
                bars.phi += bar_u
            else:
                bars.w[u] += bar_u


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

    One reverse sweep over the canonical indices, highest order first; each
    index folds in its mirror's bars, solves with its own operator
    (`SsmExpansion.solve`) and reverses its step. The folded mode-shape and
    frequency bars then feed the coupled bordered solve. The operator
    products that no target changes are read from the records.
    """
    exp.check_model(model)
    bars = _Bars(model.n)
    _seed_bars(bars, point_weights(exp, dof_index, rho), dof_index)

    lambda_m: dict = {}
    nu_m: dict = {}
    for q in range(exp.order, 1, -1):
        for m in canonical_indices(q):
            rec = exp.coeffs(m)
            # a self-symmetric index is its own mirror: the folds double what
            # it pushes, so it pushes at half weight, and its w_m is folded
            # only after its own wdot step has pushed to it
            wt = 0.5 if m[0] == m[1] else 1.0
            vbar = wt * bars.fold(bars.wdot, m)
            _backprop_wdot(exp, bars, m, rec, vbar)
            lam, nu = exp.solve(rec.d, rec.slot, -bars.fold(bars.w, m))
            lambda_m[m] = lam
            if rec.slot is not None:
                nu_m[m] = nu
                # the swapped R pair is this one conjugated, slots exchanged
                bars.R[m] += np.conj(bars.R.pop(symmetric(m), np.zeros(2))[::-1])
            _backprop_index(model, exp, bars, m, rec, wt * lam, wt * nu, vbar)

    # phi and omega are their own mirrors; the eigenvalue pair's is the pair swapped
    bars.phi += np.conj(bars.phi)
    bars.lam += np.conj(bars.lam[::-1])
    bars.omega += np.conj(bars.omega)
    lambda_phi, lambda_omega = solve_adjoint_phi_omega(exp, bars)
    r_bar = {m: bars.R[m][exp.coeffs(m).slot] for m in nu_m}
    return AdjointState(lambda_m, nu_m, r_bar, lambda_phi, lambda_omega)


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
    this `ParamDerivatives` and read by the direct walk too. A call is then
    one (P, n) mat-vec and a few dot products per index and matrix parameter
    (its row of the record's stacks), and one realness check of all P sums;
    no linear solves appear. The pass walks the canonical indices and adds
    each term's conjugate for the swapped index, so a full-set expansion
    gives the same gradient as the canonical one.
    """
    exp.check_model(model)
    record = exp.partials(params)
    phi = exp.master.phi

    accum = np.zeros(params.count, dtype=complex)
    for m, pf, (pC, Aw, Vphi, phiMw) in record.indices:
        rec = exp.coeffs(m)
        lam = adjoint.lambda_m[m]
        j = rec.slot
        bar_c = -lam
        if j is not None:
            bar_c = bar_c + (adjoint.r_bar[m] / rec.den) * phi

        term = -(pf @ bar_c)
        # row k, one dot and one sum at a time: stacking them rounds otherwise
        for k, p in enumerate(params.matrix_params):
            term[p] += bar_c @ pC[k] + lam @ Aw[k]
            if j is not None:
                term[p] += rec.R[j] * (lam @ Vphi[k])
                term[p] += adjoint.nu_m[m] * phiMw[k]
        accum += term
        if m[0] != m[1]:
            accum += np.conj(term)

    for p, modal_phi, dMphi in zip(params.matrix_params, *record.eig):
        accum[p] += adjoint.lambda_phi @ modal_phi
        accum[p] += adjoint.lambda_omega * (phi @ dMphi)
    d_omega = assert_real_each(accum, "gradient", params.names)
    return AdjointReport(names=params.names, d_omega=d_omega)
