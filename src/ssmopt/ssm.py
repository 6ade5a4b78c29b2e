"""Two-dimensional autonomous SSM expansion via per-index cohomological solves.

For each multi-index m (order >= 2) the displacement coefficient w_m solves
``L_m w_m = h_m`` with ``L_m = K + Lam_m*C + Lam_m**2*M``, the model's
`Pencil` at Lam_m. Near-resonant
indices (|m1 - m2| = 1, odd order) carry a reduced-dynamics coefficient R_m
chosen to project the right-hand side out of the master direction; their
operator is solved in bordered form with the constraint phi^T M w_m = 0 so the
exactly-singular undamped case is handled by the same path as the lightly
damped one (for which the bordered and plain solutions coincide).

Each operator is factored once, by `factorize`, into a rcond-checked
`Factorization` that the record keeps; the sensitivity passes solve with
it and do not factor again. Each solve's normwise backward error is checked,
and an overflowed right-hand side is reported before the solve. A resonant
record also keeps the denominator of its R_m and the force D that R_m exerts
on the right-hand side, so no pass rebuilds them.

All coefficients at the swapped index (m2, m1) are elementwise conjugates of
those at (m1, m2), so only canonical indices are solved and the rest are
written by conjugation. The sensitivity passes (direct, adjoint sweep,
contraction) walk the canonical indices too and mirror the swapped ones by
conjugation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import (
    AmplitudeUnreachableError,
    DegenerateParametrizationError,
    OuterResonanceError,
    SsmError,
)
from .mechmodel import MechModel
from .multiindex import (
    E1,
    E2,
    MultiIndex,
    canonical_indices,
    decomps,
    order,
    r1_active_index,
    resonant_slot,
    symmetric,
)
from .spectral import MasterPair

RCOND_SINGULAR = 1e-12
DENOMINATOR_TOL = 1e-10
# bound on a solve's normwise backward error, in units of machine epsilon
SOLVE_BACKWARD_ERROR = 1e3
RESIDUAL_THETA_SAMPLES = 32  # theta grid of the invariance residual


@dataclass(frozen=True)
class Factorization:
    """LU factors of a dense system A, or of A bordered by one column b and
    one row c^T:

        [[A, gb b], [gc c^T, 0]],  gb = scale/||b||_1,  gc = scale/||c||_1.

    Scaling both borders to `scale`, the size of A's terms, makes the rcond
    check see how close the system is to singular, not the units of the
    border. `solve` takes the unscaled border value and returns the unscaled
    border unknown.
    """

    lu: tuple
    anorm: float  # 1-norm of the factored (bordered) matrix
    gb: float | None = None  # None: A is not bordered
    gc: float | None = None

    def solve(self, rhs: np.ndarray, border=0.0):
        """(x, s) solving A x + b s = rhs, c^T x = border (bordered), or
        (x, 0.0) solving A x = rhs. rhs is one column or an (n, K) block with
        one border value per column."""
        if self.gb is None:
            return scipy.linalg.lu_solve(self.lu, rhs), 0.0
        last = self.gc * np.broadcast_to(border, rhs.shape[1:])
        sol = scipy.linalg.lu_solve(self.lu, np.concatenate([rhs, last[None]]))
        return sol[:-1], self.gb * sol[-1]


def factorize(A: np.ndarray, error, b=None, c=None, scale: float = 0.0) -> Factorization:
    """Factorization of A, or of A bordered by b and c scaled to `scale`.

    LAPACK's condition estimate of the factored matrix is checked: below
    RCOND_SINGULAR, `error(rcond)` is raised (scipy's lu_factor only warns on
    a singular matrix). A failed or non-finite estimate reads as rcond 0.
    """
    gb = gc = None
    if b is not None:
        gb, gc = (max(scale, 1e-300) / max(np.linalg.norm(v, 1), 1e-300) for v in (b, c))
        A = np.block([[A, gb * b[:, None]], [gc * c, 0.0]])
    anorm = np.linalg.norm(A, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu = scipy.linalg.lu_factor(A)
    (gecon,) = lapack.get_lapack_funcs(("gecon",), (lu[0],))
    rcond, info = gecon(lu[0], anorm)
    if info != 0 or not np.isfinite(rcond):
        rcond = 0.0
    if rcond < RCOND_SINGULAR:
        raise error(float(rcond))
    return Factorization(lu, anorm, gb, gc)


@dataclass
class IndexCoeffs:
    """Coefficients and cached solver data for one multi-index."""

    m: MultiIndex
    w: np.ndarray
    wdot: np.ndarray
    R: np.ndarray  # shape (2,), complex reduced-dynamics coefficients
    Lam: complex
    V: np.ndarray
    Vdot: np.ndarray
    C: np.ndarray
    D: np.ndarray | None  # force of R_m[slot] on the right-hand side, resonant only
    slot: int | None  # resonant slot (0 or 1) or None
    den: complex | None = None  # denominator of R_m[slot], resonant only
    lu: Factorization | None = None  # L_m, bordered when resonant; canonical only


def v_decomps(m: MultiIndex, r_orders: tuple[int, ...]):
    """Terms (u, j, k) of the lower-order coupling sum for index m.

    k runs over near-resonant indices of orders in r_orders below order(m);
    u = m + e_j - k must be a valid index of order >= 2 with u[j] > 0.
    """
    out = []
    q = order(m)
    for qk in r_orders:
        if qk >= q:
            break
        a = r1_active_index(qk)
        for k, j, e in ((a, 0, E1), (symmetric(a), 1, E2)):
            u = (m[0] + e[0] - k[0], m[1] + e[1] - k[1])
            if u[0] >= 0 and u[1] >= 0 and u[j] > 0:
                out.append((u, j, k))
    return out


class SsmExpansion:
    """SSM coefficients up to a given odd order, plus per-index solver cache."""

    def __init__(self, model: MechModel, master: MasterPair):
        self.model = model
        self.master = master
        self.order = 1
        self.data: dict[MultiIndex, IndexCoeffs] = {}
        self.n_solves = 0
        # backbone's amplitude polynomials and validity caps, keyed on order
        self.backbone_cache: dict = {}
        self._init_leading()

    def _init_leading(self):
        phi = self.master.phi.astype(complex)
        lam = self.master.lam
        n = self.model.n
        zero = np.zeros(n, dtype=complex)
        for m, lam_j, slot in (((1, 0), lam, 0), ((0, 1), np.conj(lam), 1)):
            R = np.zeros(2, dtype=complex)
            R[slot] = lam_j
            self.data[m] = IndexCoeffs(
                m=m,
                w=phi.copy(),
                wdot=lam_j * phi,
                R=R,
                Lam=lam_j,
                V=zero.copy(),
                Vdot=zero.copy(),
                C=zero.copy(),
                D=None,
                slot=slot,
            )

    # -- accessors ---------------------------------------------------------

    def coeffs(self, m: MultiIndex) -> IndexCoeffs:
        return self.data[m]

    def w(self, m: MultiIndex) -> np.ndarray:
        return self.data[m].w

    def wdot(self, m: MultiIndex) -> np.ndarray:
        return self.data[m].wdot

    def R(self, m: MultiIndex) -> np.ndarray:
        return self.data[m].R

    def r_orders(self) -> tuple[int, ...]:
        """Odd orders >= 3 carrying reduced-dynamics coefficients."""
        return tuple(q for q in range(3, self.order + 1, 2))

    def r1_terms(self) -> list[tuple[int, MultiIndex]]:
        """(order, index) pairs of the active first reduced coefficients."""
        return [(q, r1_active_index(q)) for q in self.r_orders()]


def _conjugate_record(rec: IndexCoeffs) -> IndexCoeffs:
    ms = symmetric(rec.m)
    slot = None if rec.slot is None else 1 - rec.slot
    return IndexCoeffs(
        m=ms,
        w=np.conj(rec.w),
        wdot=np.conj(rec.wdot),
        R=np.conj(rec.R[::-1]),
        Lam=np.conj(rec.Lam),
        V=np.conj(rec.V),
        Vdot=np.conj(rec.Vdot),
        C=np.conj(rec.C),
        D=None if rec.D is None else np.conj(rec.D),
        slot=slot,
        den=None if rec.den is None else np.conj(rec.den),
    )


def order_step(model: MechModel, exp: SsmExpansion, m: MultiIndex) -> IndexCoeffs:
    """Compute the coefficients at one multi-index from all lower orders."""
    master = exp.master
    phi = master.phi
    lam_pair = master.lambda_pair
    pen, M, n = model.pencil, model.M, model.n

    Lam = m[0] * lam_pair[0] + m[1] * lam_pair[1]

    # an overflowed force is reported below as a non-finite right-hand side
    with np.errstate(over="ignore", invalid="ignore"):
        f2, f3 = (
            T.contract_sum([tuple(exp.w(u) for u in d) for d in decomps(m, T.arity)])
            for T in (model.T2, model.T3)
        )
        f = f2 + f3

    V = np.zeros(n, dtype=complex)
    Vdot = np.zeros(n, dtype=complex)
    for u, j, k in v_decomps(m, exp.r_orders()):
        coef = u[j] * exp.R(k)[j]
        V += coef * exp.w(u)
        Vdot += coef * exp.wdot(u)

    C_m = -M @ Vdot - pen.velocity(Lam) @ V - f

    slot = resonant_slot(m)
    R = np.zeros(2, dtype=complex)
    D = den = None
    h = C_m
    L = pen.at(Lam)
    singular = partial(OuterResonanceError, m)
    if slot is None:
        lu = factorize(L, singular)
    else:
        lam_j = lam_pair[slot]
        den = Lam + lam_j + model.alpha_r + model.beta_r * master.omega**2
        if abs(den) < DENOMINATOR_TOL:
            raise DegenerateParametrizationError(
                f"near-resonant denominator {abs(den):.2e} at index {m}"
            )
        R[slot] = (phi @ C_m) / den
        D = -pen.velocity(Lam + lam_j) @ phi.astype(complex)
        h = C_m + D * R[slot]
        # Bordered operator: the reduced coefficient removed the master
        # projection from h, so the solution with phi^T M w = 0 is the
        # regular limit; for xi > 0 it equals the plain solve. The border
        # stays on the scale of L's terms.
        Mphi = M @ phi
        lu = factorize(L, singular, Mphi, Mphi, pen.scale(Lam))
    if not np.all(np.isfinite(h)):
        raise SsmError(f"cohomological right-hand side at index {m} is not finite (overflow)")
    w, _ = lu.solve(h)

    # w must solve a nearby system: its normwise backward error
    # ||L w - h|| / (||L|| ||w|| + ||h||) is bounded. h can also be a round-off-
    # level difference of large terms (e.g. a 1-DOF resonant index); residuals
    # on that cancellation floor pass too. The test is scale-free, so it is
    # taken on w, h, C_m and R[slot] divided by a power of two at their largest
    # magnitude: exact, and no norm overflows while the entries are finite. A
    # non-finite bound (an overflowed w) and NaN fail the test.
    eps = np.finfo(float).eps
    big = max(np.abs(w).max(), np.abs(h).max(), np.abs(C_m).max(), np.abs(R).max())
    sc = np.ldexp(1.0, -max(int(np.frexp(big)[1]), 0))
    cancel_scale = np.linalg.norm(sc * C_m)
    if slot is not None:
        cancel_scale += abs(sc * R[slot]) * np.linalg.norm(D)
    resid = np.linalg.norm(L @ (sc * w) - sc * h)
    scale = lu.anorm * np.linalg.norm(sc * w) + np.linalg.norm(sc * h)
    tol = eps * (SOLVE_BACKWARD_ERROR * scale + 100 * cancel_scale)
    if not (np.isfinite(tol) and resid <= tol):
        raise SsmError(
            f"cohomological solve at index {m} failed: "
            f"scaled residual {resid:.2e} above {tol:.2e}"
        )

    if m[0] == m[1]:
        # self-symmetric index: every quantity is real in exact arithmetic;
        # dropping the roundoff imaginary part makes the conjugacy invariant
        # hold by construction
        w = w.real.astype(complex)
        for arr in (V, Vdot, C_m):
            arr.imag = 0.0

    wdot = Lam * w + (R[0] + R[1]) * phi + V
    exp.n_solves += 1
    return IndexCoeffs(m, w, wdot, R, Lam, V, Vdot, C_m, D, slot, den, lu)


def compute_ssm(
    model: MechModel,
    master: MasterPair,
    order_: int,
    from_expansion: SsmExpansion | None = None,
) -> SsmExpansion:
    """Expansion up to the given odd order >= 3.

    Passing a lower-order expansion extends it: the recursion is lower
    triangular in order, so existing coefficients are reused unchanged.
    """
    if order_ < 3 or order_ % 2 == 0:
        raise ValueError(f"expansion order must be odd and >= 3, got {order_}")
    if from_expansion is None:
        exp = SsmExpansion(model, master)
    else:
        if from_expansion.model is not model:
            raise ValueError("extension requires the same model")
        exp = from_expansion
        if exp.order >= order_:
            return exp
    for q in range(exp.order + 1, order_ + 1):
        for m in canonical_indices(q):
            rec = order_step(model, exp, m)
            exp.data[m] = rec
            if m[0] != m[1]:
                exp.data[symmetric(m)] = _conjugate_record(rec)
        exp.order = q
    return exp


# -- invariance residual -----------------------------------------------------


@dataclass(frozen=True)
class ErrorMeasure:
    """Relative residual of the invariance equation sampled on a theta grid."""

    epsilon: float
    rho_max: float


@dataclass(frozen=True)
class AdaptResult:
    expansion: SsmExpansion
    error: ErrorMeasure
    warned: bool


def invariance_residual(model: MechModel, exp: SsmExpansion, rho: float) -> ErrorMeasure:
    """Relative residual of the invariance equation, max over a theta grid of
    RESIDUAL_THETA_SAMPLES points.

    On the SSM, x = W(p) and v = Wdot(p) with p' = R(p). The force-balance
    defect C x' + M v' + K x + f(x) is measured against K x + f(x), both
    preconditioned by the static stiffness; the velocity defect x' - v is
    measured against v, both divided by the natural frequency. A raw
    force-relative measure over-penalizes stiff components (e.g. axial FE
    DOFs) whose defect has no bearing on the master dynamics; the weighted
    measure tracks the accuracy of the predicted response itself.

    K is regularized by 1e-14 ||K||_1 and factored without the rcond check:
    a free-free stiffness (a rigid-body mode beside the master) is valid
    input, and its regularized factorization has rcond near 1e-14.

    All grid points are evaluated at once. At p = (rho e^{i theta},
    rho e^{-i theta}) the power p^m is rho^|m| e^{i (m1 - m2) theta}, so
    W, R(p) and the partials dW/dp1, dW/dp2 are each one (theta x index)
    matrix of powers times the stacked coefficients [w; wdot] or R; the
    stiffness preconditioner takes one LU solve with all grid points as
    right-hand sides. Only the internal force is evaluated point by point.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    n = model.n
    K = model.K
    luK = scipy.linalg.lu_factor(K + 1e-14 * np.linalg.norm(K, 1) * np.eye(n))
    omega = exp.master.omega

    def state_norms(force: np.ndarray, velocity: np.ndarray) -> np.ndarray:
        """Weighted norm at each grid point of the (theta x n) blocks."""
        s1 = scipy.linalg.lu_solve(luK, force.T)
        s2 = velocity / omega
        return np.sqrt(np.sum(np.abs(s1) ** 2, axis=0) + np.sum(np.abs(s2) ** 2, axis=1))

    n_grid = RESIDUAL_THETA_SAMPLES
    thetas = 2.0 * np.pi * np.arange(1, n_grid + 1) / n_grid
    ms = np.array(list(exp.data))
    q = ms.sum(axis=1)
    d = ms[:, 0] - ms[:, 1]
    # powers p^m of W and of the two partials (m1 p^(m - e1), m2 p^(m - e2))
    rho_q1 = rho ** np.maximum(q - 1, 0)
    Phi = np.exp(1j * np.outer(thetas, d)) * rho**q
    Phi1 = np.exp(1j * np.outer(thetas, d - 1)) * (ms[:, 0] * rho_q1)
    Phi2 = np.exp(1j * np.outer(thetas, d + 1)) * (ms[:, 1] * rho_q1)
    recs = exp.data.values()
    Wm = np.array([np.concatenate([rec.w, rec.wdot]) for rec in recs])
    Rm = np.array([rec.R for rec in recs])

    W = Phi @ Wm
    Rp = Phi @ Rm
    dW = (Phi1 @ Wm) * Rp[:, :1] + (Phi2 @ Wm) * Rp[:, 1:]
    x, v = W[:, :n], W[:, n:]
    dx, dv = dW[:, :n], dW[:, n:]
    ref = x @ K.T + np.array([model.nonlinear_force(xk) for xk in x])
    defect = dx @ model.pencil.C.T + dv @ model.M.T + ref
    den = state_norms(ref, v)
    if np.any(den == 0.0):
        raise SsmError("degenerate evaluation point: zero invariance denominator")
    eps = float(np.max(state_norms(defect, dx - v) / den))
    return ErrorMeasure(eps, rho)


def adapt_order(
    model: MechModel,
    master: MasterPair,
    tol: float,
    rho_at,
    order_range: tuple[int, int] = (3, 13),
) -> AdaptResult:
    """Smallest odd order in range whose residual at rho_at(expansion), the
    amplitude that order's own expansion maps the targets to, meets the
    tolerance. An order at which rho_at raises AmplitudeUnreachableError
    misses, with residual inf at the validity cap. Returns the highest order
    with warned=True when none qualifies.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    lo, hi = order_range
    # a bound may come from JSON as an integral float such as 9.0
    if lo % 2 != 1 or hi % 2 != 1 or lo < 3 or hi < lo:
        raise ValueError(f"order range must be odd bounds with 3 <= lo <= hi, got {order_range}")
    exp = None
    for O in range(int(lo), int(hi) + 1, 2):
        exp = compute_ssm(model, master, O, from_expansion=exp)
        try:
            rho = rho_at(exp)
        except AmplitudeUnreachableError as unreachable:
            err = ErrorMeasure(np.inf, unreachable.rho_cap)
        else:
            err = invariance_residual(model, exp, rho)
        if err.epsilon <= tol:
            return AdaptResult(exp, err, False)
    return AdaptResult(exp, err, True)


def dump_expansion(exp: SsmExpansion) -> dict:
    """JSON-ready dump of all coefficients (golden-file regression format)."""
    entries = []
    for m in sorted(exp.data.keys(), key=lambda t: (order(t), -t[0])):
        rec = exp.data[m]
        entries.append(
            {
                "m1": m[0],
                "m2": m[1],
                "w_re": rec.w.real.tolist(),
                "w_im": rec.w.imag.tolist(),
                "wdot_re": rec.wdot.real.tolist(),
                "wdot_im": rec.wdot.imag.tolist(),
                "R1_re": rec.R[0].real,
                "R1_im": rec.R[0].imag,
                "R2_re": rec.R[1].real,
                "R2_im": rec.R[1].imag,
            }
        )
    return {
        "order": exp.order,
        "omega": exp.master.omega,
        "xi": exp.master.xi,
        "lambda_re": exp.master.lam.real,
        "lambda_im": exp.master.lam.imag,
        "phi": exp.master.phi.tolist(),
        "coefficients": entries,
    }
