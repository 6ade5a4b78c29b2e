"""Adjoint sensitivity of the backbone frequency at fixed physical amplitude.

The Lagrangian couples the response frequency with the amplitude map, the
cohomological equations, the eigenproblem and the mass normalization. Adjoint
variables are obtained by one reverse sweep: the amplitude adjoint first, then
the per-index vectors from the highest order downward (reusing the primal
factorizations; the operators are complex symmetric), finally a coupled
bordered real system for the mode-shape/frequency pair. The sweep carries
every cross-order coupling backward, including the total bar of each resonant
reduced coefficient R_m, which it keeps. The gradient is then one local
contraction per index: the explicit operator derivatives at that index,
weighted by its lambda_m, nu_m and R bar, plus the eigenproblem terms. No
linear solves and no cross-order sums appear per parameter.

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
dense Jacobians between coefficient blocks are never materialized. The force
convolution at each index is pulled back once per tensor, by the reverse of
its key-space linearization (`PairSums.linearize`), which returns the summed
bar of every lower-order index the convolution reads. The sweep builds one
`PairSums` table per model tensor and the contraction one per stacked
parameter tensor, each once per call: the pair sums of T3 replace the sum
over ordered triples at every index. The primal keeps the triple loop (see
`mechmodel`), so the expansion the passes read is unchanged, the sweep's
adjoint variables are bitwise the triple loop's, and only the contraction's
cubic partial forces are reassociated, at roundoff. Operators come from the
model's `Pencil` and each parameter's derivative pencil; the contraction's
stacked parameter tensors are built once per `ParamDerivatives`.

Resonant indices are solved in bordered form in the primal, so each carries
one extra adjoint scalar for the accompanying orthogonality constraint; its
contribution enters the mode-shape equation and the mass-matrix contraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backbone import domega_drho, dx_drho, x_harmonics, x_rms
from .errors import TurningPointError, assert_real
from .mechmodel import MechModel, PairSums, ParamDerivatives
from .multiindex import canonical_indices, order, symmetric
from .sens_direct import lambda_derivative, mode_factorization
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


@dataclass
class _Bars:
    """Reverse-mode accumulators over the expansion graph."""

    n: int
    w: dict = field(default_factory=dict)
    wdot: dict = field(default_factory=dict)
    R: dict = field(default_factory=dict)
    V: dict = field(default_factory=dict)
    phi: np.ndarray | None = None
    lam: np.ndarray | None = None  # (2,) bars of the eigenvalue pair
    omega: complex = 0.0

    def __post_init__(self):
        self.phi = np.zeros(self.n, dtype=complex)
        self.lam = np.zeros(2, dtype=complex)

    def vec(self, store: dict, m) -> np.ndarray:
        if m not in store:
            store[m] = np.zeros(self.n, dtype=complex)
        return store[m]

    def rbar(self, m) -> np.ndarray:
        if m not in self.R:
            self.R[m] = np.zeros(2, dtype=complex)
        return self.R[m]

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


def solve_adjoint_rho(exp: SsmExpansion, dof_index: int, rho: float) -> float:
    """Amplitude adjoint: -(dOmega/drho)/(dx/drho)."""
    slope = dx_drho(exp, dof_index, rho)
    if slope == 0.0:
        raise TurningPointError("dx/drho vanished; amplitude constraint is degenerate")
    return -domega_drho(exp, rho) / slope


def _seed_bars(exp, bars: _Bars, lambda_rho: float, dof_index: int, rho: float):
    """Seeds of the objective at half weight: it is its own mirror, so the
    fold of each bar restores the other half."""
    # frequency seeds (conjugate-pair difference form)
    bars.lam[0] += -0.25j
    bars.lam[1] += +0.25j
    for q, a in exp.r1_terms():
        bars.rbar(a)[0] += -0.25j * rho ** (q - 1)
        bars.rbar(symmetric(a))[1] += +0.25j * rho ** (q - 1)
    # amplitude seeds: by Parseval x**2 = sum_d c_d c_{-d}, so
    # dx / dw_m[dof] = rho**|m| c_{-d} / x with d = m1 - m2
    x = x_rms(exp, dof_index, rho)
    c = x_harmonics(exp, dof_index, rho)
    for m in exp.data:
        coef = 0.5 * lambda_rho / x * rho ** order(m) * c[exp.order + m[1] - m[0]]
        if order(m) == 1:
            bars.phi[dof_index] += coef
        else:
            bars.vec(bars.w, m)[dof_index] += coef


def _backprop_wdot(exp, bars: _Bars, m, rec, b):
    """Reverse of wdot_m = Lam_m w_m + (R_m[0] + R_m[1]) phi + V_m for the bar b."""
    bars.vec(bars.w, m)[:] += rec.Lam * b
    if rec.slot is not None:
        bars.rbar(m)[rec.slot] += b @ exp.master.phi
    bars.vec(bars.V, m)[:] += b
    bars.phi += (rec.R[0] + rec.R[1]) * b
    _add_lam_bar(bars, m, b @ rec.w)


def _add_lam_bar(bars: _Bars, m, value: complex):
    bars.lam[0] += m[0] * value
    bars.lam[1] += m[1] * value


def _route_force_bar(exp, bars: _Bars, u, vec):
    if order(u) == 1:
        bars.phi += vec
    else:
        bars.vec(bars.w, u)[:] += vec


def _backprop_index(model: MechModel, exp, tables, bars: _Bars, m, rec, lam_m, nu_m):
    master = exp.master
    phi = master.phi
    pen, M = model.pencil, model.M

    # lambda^T (L_m w_m - h_m): operator depends on omega through Lam_m
    _add_lam_bar(bars, m, lam_m @ (pen.C @ rec.w + 2.0 * rec.Lam * (M @ rec.w)))
    bar_h = -lam_m

    # h = C + D R_m[slot]
    bar_c = bar_h.copy()
    if rec.slot is not None:
        j = rec.slot
        bars.rbar(m)[j] += bar_h @ rec.D
        bar_d = rec.R[j] * bar_h
        bars.phi += -(pen.velocity(rec.Lam + master.lambda_pair[j]) @ bar_d)
        sc = -(bar_d @ (M @ phi))
        _add_lam_bar(bars, m, sc)
        bars.lam[j] += sc

    # orthogonality constraint of the bordered solve
    if nu_m != 0.0:
        bars.phi += nu_m * (M @ rec.w)

    # R_m = phi^T C_m / den
    if rec.slot is not None:
        j = rec.slot
        # final here: every reader of R_m lies above m's order or at m
        # itself; solve_adjoint keeps it as r_bar for the contraction
        g = bars.rbar(m)[j]
        if g != 0.0:
            bar_c += (g / rec.den) * phi
            bars.phi += (g / rec.den) * rec.C
            t = -g * rec.R[j] / rec.den
            _add_lam_bar(bars, m, t)
            bars.lam[j] += t
            bars.omega += t * 2.0 * model.beta_r * master.omega

    # C = -M Vdot - (Lam M + C) V - f
    bar_vdot = -(M @ bar_c)
    bar_v = bars.V.pop(m, np.zeros(model.n, complex)) - pen.velocity(rec.Lam) @ bar_c
    bar_f = -bar_c
    _add_lam_bar(bars, m, -(bar_c @ (M @ rec.V)))

    # V, Vdot sums over lower-order coefficients
    for u, j, k in v_decomps(m, exp.r_orders()):
        Rkj = exp.R(k)[j]
        bars.vec(bars.w, u)[:] += u[j] * Rkj * bar_v
        bars.rbar(k)[j] += u[j] * (bar_v @ exp.w(u))
        bars.vec(bars.wdot, u)[:] += u[j] * Rkj * bar_vdot
        bars.rbar(k)[j] += u[j] * (bar_vdot @ exp.wdot(u))

    # nonlinear force convolution: one pullback per tensor's table
    for table in tables:
        for u, bar_u in table.linearize(m).reverse(bar_f).items():
            _route_force_bar(exp, bars, u, bar_u)


def solve_adjoint_phi_omega(model: MechModel, exp: SsmExpansion, bars: _Bars):
    """Coupled bordered solve for the mode-shape and frequency adjoints."""
    master = exp.master
    _, dlam_domega = lambda_derivative(master, model.alpha_r, model.beta_r, 1.0)
    bars.omega += bars.lam[0] * dlam_domega + bars.lam[1] * np.conj(dlam_domega)
    g_phi = assert_real(bars.phi, "mode-shape adjoint source")
    g_omega = assert_real(bars.omega, "frequency adjoint source")

    Mphi = model.M @ master.phi
    lu = mode_factorization(
        model, master.omega, 2.0 * Mphi, -2.0 * master.omega * Mphi,
        "bordered mode-shape adjoint system",
    )
    lambda_phi, lambda_omega = lu.solve(-g_phi, -g_omega)
    return lambda_phi, float(lambda_omega)


def solve_adjoint(
    model: MechModel,
    exp: SsmExpansion,
    dof_index: int,
    rho: float,
) -> AdjointState:
    """All adjoint variables for Omega at the given reduced amplitude.

    One reverse sweep over the canonical indices, highest order first; each
    index folds in its mirror's bars, solves with its own factorization and
    reverses its step. The folded mode-shape and frequency bars then feed
    the coupled bordered solve.
    """
    tables = [PairSums(T, exp.w, exp.order) for T in (model.T2, model.T3)]
    bars = _Bars(model.n)
    _seed_bars(exp, bars, solve_adjoint_rho(exp, dof_index, rho), dof_index, rho)

    lambda_m: dict = {}
    nu_m: dict = {}
    for q in range(exp.order, 1, -1):
        for m in canonical_indices(q):
            rec = exp.coeffs(m)
            # a self-symmetric index is its own mirror: the folds double what
            # it pushes, so it pushes at half weight, and its w_m is folded
            # only after its own wdot step has pushed to it
            wt = 0.5 if m[0] == m[1] else 1.0
            _backprop_wdot(exp, bars, m, rec, wt * bars.fold(bars.wdot, m))
            lam, nu = rec.lu.solve(-bars.fold(bars.w, m))
            lambda_m[m] = lam
            if rec.slot is not None:
                nu_m[m] = nu
                # the swapped R pair is this one conjugated, slots exchanged
                bars.rbar(m)[:] += np.conj(bars.R.pop(symmetric(m), np.zeros(2))[::-1])
            _backprop_index(model, exp, tables, bars, m, rec, wt * lam, wt * nu)

    # phi and omega are their own mirrors; the eigenvalue pair's is the pair swapped
    bars.phi += np.conj(bars.phi)
    bars.lam += np.conj(bars.lam[::-1])
    bars.omega += np.conj(bars.omega)
    lambda_phi, lambda_omega = solve_adjoint_phi_omega(model, exp, bars)
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
    the total bar of C_m (its second term only at a resonant index), and dP
    the parameter's derivative pencil (dM, dC, dK), the index's term is

        bar_C . (-df_m - dM Vdot_m - dP.velocity(Lam_m) V_m)
        + lambda_m . dP.at(Lam_m) w_m
        + R_m[j] lambda_m . dP.velocity(Lam_m + lambda_j) phi + nu_m phi^T dM w_m.

    The force-tensor derivatives of all parameters are stacked into one
    tensor per arity (`params.stacked`, built once per `ParamDerivatives`),
    so df_m . bar_C is one contraction per arity for all parameters, read
    from one `PairSums` table per stacked tensor built for this call;
    parameters with mass/stiffness derivatives get their dense terms in a
    short scalar loop. No linear solves appear. The pass walks the canonical
    indices and adds each term's conjugate for the swapped index, so a
    full-set expansion gives the same gradient as the canonical one.
    """
    master = exp.master
    phi = master.phi
    n = model.n
    P = params.count
    lam_pair = master.lambda_pair

    dpens = [(p, params.pencil(p, model)) for p in params.matrix_params]
    tables = [PairSums(T, exp.w, exp.order) for T in params.stacked]

    accum = np.zeros(P, dtype=complex)
    for q in range(2, exp.order + 1):
        for m in canonical_indices(q):
            rec = exp.coeffs(m)
            lam = adjoint.lambda_m[m]
            j = rec.slot
            bar_c = -lam
            if j is not None:
                bar_c = bar_c + (adjoint.r_bar[m] / rec.den) * phi

            pf = np.zeros(P * n, dtype=complex)
            for table in tables:
                pf += table.force(m)
            term = -(pf.reshape(P, n) @ bar_c)

            for p, dP in dpens:
                pC = -dP.M @ rec.Vdot - dP.velocity(rec.Lam) @ rec.V
                term[p] += bar_c @ pC + lam @ (dP.at(rec.Lam) @ rec.w)
                if j is not None:
                    term[p] += rec.R[j] * (lam @ (dP.velocity(rec.Lam + lam_pair[j]) @ phi))
                    term[p] += adjoint.nu_m[m] * (phi @ (dP.M @ rec.w))
            accum += term
            if m[0] != m[1]:
                accum += np.conj(term)

    for p, dP in dpens:
        accum[p] += adjoint.lambda_phi @ (dP.modal(master.omega) @ phi)
        accum[p] += adjoint.lambda_omega * (phi @ (dP.M @ phi))
    d_omega = np.array(
        [
            assert_real(accum[p], f"gradient for parameter {params.names[p]!r}")
            for p in range(P)
        ]
    )
    return AdjointReport(names=params.names, d_omega=d_omega)
