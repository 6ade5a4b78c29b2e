"""Two-dimensional autonomous SSM expansion, solved one order at a time.

For each multi-index m (order >= 2) the displacement coefficient w_m solves
``L_m w_m = h_m`` with ``L_m = K + Lam_m*C + Lam_m**2*M``, never formed.
Near-resonant indices (|m1 - m2| = 1, odd order) carry a reduced-dynamics
coefficient R_m chosen to project the right-hand side out of the master
direction; their operator is solved in bordered form with the constraint
phi^T M w_m = 0 so the exactly-singular undamped case is handled by the same
path as the lightly damped one (for which the bordered and plain solutions
coincide).

The coefficients w, wdot and R of every index are rows of three tables in
the `multiindex.table_row` layout (`SsmExpansion.W`, `Wdot`, `Rpairs`). The
force convolution at each index reads the `PairSums` tables of T2 and T3
(`SsmExpansion.tables`), which read the w table itself and which
`compute_ssm` grows by one order before it solves that order's indices; the
sensitivity passes read the same tables.

Every operator is solved in the model's undamped, mass-normalized modes
(`MechModel.modes`): Rayleigh damping keeps them classical normal modes
(Caughey & O'Kelly, J. Appl. Mech. 1965), so Phi^T L_m Phi = diag(d) with
d_j = (Lam_m - lambda_j)(Lam_m - conj(lambda_j)), the nonresonance
conditions of SSM theory (Haller & Ponsioen, Nonlinear Dyn. 2016). A solve
divides by d; a d_j that vanishes against the size of L_m's terms (the
master's own left out at a resonant index) is an outer resonance of mode j.
The same solve serves the bordered mode-shape system
(`SsmExpansion.mode_solve`), and the same basis the invariance residual's
regularized stiffness K + eps M: nothing is factored, and no L_m is formed.
Every product of M, C, K or the modes with complex data is one
`mechmodel.real_times`, those of each order's backward-error check
(`_check_solve`) too. An overflowed right-hand side is reported first.

All coefficients at the swapped index (m2, m1) are elementwise conjugates of
those at (m1, m2), so only canonical indices are solved and the rest are
written by conjugation. The canonical indices of one order read only lower
orders, so `compute_ssm` steps through the orders, each order's indices one
column of (n, k) blocks: the forces, the lower-order coupling sums and the
right-hand sides are formed at once, and one modal solve with one diagonal
per column and the resonant column bordered (`SsmExpansion.solve_order`)
solves the order. Each step writes its order's rows and their conjugate
mirrors into the tables (`write_order`) and leaves its order's `OrderPlan`,
what the later passes read of its canonical indices, in
`SsmExpansion.plans`. The sensitivity passes (direct, adjoint sweep,
contraction) read the canonical indices too and mirror the swapped ones by
conjugation; the direct walk and the adjoint sweep step through the same
plans. The direct walk and the contraction read one record per
`ParamDerivatives` of the residuals' explicit partial derivatives in the
design variables (`Partials`, kept by `SsmExpansion.partials`), one block
per plan, the matrix parameters' terms stacked as their dM and dK are, one
row each. The expansion keeps M phi, and its mode-shape solve serves both
the adjoint's mode-shape system and the direct eigenpair derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    AmplitudeUnreachableError,
    ArgumentError,
    DegenerateModeError,
    OuterResonanceError,
    SsmError,
    check_argument,
)
from .mechmodel import MechModel, PairSums, ParamDerivatives, real_times
from .multiindex import (
    E1,
    E2,
    MultiIndex,
    all_indices,
    canonical_indices,
    order,
    r1_active_index,
    resonant_slot,
    symmetric,
    table_row,
)
from .spectral import MasterPair

SINGULAR_RATIO = 1e-12
# bound on a solve's normwise backward error, in units of machine epsilon
SOLVE_BACKWARD_ERROR = 1e3
RESIDUAL_THETA_SAMPLES = 32  # theta grid of the invariance residual


def _check_diagonal(d: np.ndarray, size: float, skip, error):
    """Raise error(j, |d_j| / size) when the diagonal operator d is
    numerically singular: its entry j smallest in magnitude, entry `skip`
    (None: none) left out, is below SINGULAR_RATIO times `size`, the size of
    the operator's terms, or is not a number."""
    a = np.abs(d)
    if skip is not None:
        a[skip] = np.inf
    j = int(np.argmin(a))
    if not a[j] >= SINGULAR_RATIO * size:
        raise error(j, float(a[j] / size))


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
    """SSM coefficients up to a given odd order, and what the later passes
    read from them at every amplitude target.

    The coefficients of every index, swapped ones included, are rows of
    three tables in the `table_row` layout (orders 1 and up), each step
    growing them by one order as new arrays: w (`W`) and wdot (`Wdot`),
    (rows, n), and the R_m pairs (`Rpairs`, (rows, 2)); `w(m)`, `wdot(m)`
    and `R(m)` are views of m's rows. One `OrderPlan` per order from 2 up,
    ascending (`plans`), keeps what only its canonical indices need,
    the modal diagonals that its solves (`solve_order`) divide by among
    them; extending the expansion appends plans and keeps the others.
    The expansion keeps M phi and C phi (`Mphi`, `Cphi`); the master must be
    the model's mode `mode_index` itself, of either sign (`master_row`), so
    that phi^T M picks that mode's component in the modal basis. The
    `PairSums` tables of the model tensors that have entries (`tables`, T2's
    and T3's) read the w table and grow with it, and the recursion and every
    sensitivity pass read them. The memo (`memo`) keeps what depends on the
    expansion alone: the backbone's amplitude polynomials and validity caps.
    Per `ParamDerivatives`, in one slot each that another `ParamDerivatives`
    replaces, it keeps the record of the residuals' explicit parameter
    partials (`partials`), which both sensitivity methods read, and the
    direct method's walk record. It holds the current order's entries only:
    `compute_ssm` with from_expansion, which extends an expansion in place,
    clears it.
    """

    def __init__(self, model: MechModel, master: MasterPair):
        self.model = model
        self.master = master
        self.order = 1
        self.plans: list[OrderPlan] = []
        self.n_solves = 0
        self._memo: dict = {}
        i = master.mode_index
        col = model.modes[1][:, i] if 0 <= i < model.n else np.nan
        sign = 1.0 if np.array_equal(master.phi, col) else -1.0
        if not np.array_equal(master.phi, sign * col):
            raise ArgumentError(f"the master pair is not the model's mode {i}")
        self.master_row = (i, sign)  # phi = sign * Phi[:, i]
        self.Mphi = model.M @ master.phi
        self.Cphi = model.C @ master.phi
        # order 1: the mode shape at (1, 0) and (0, 1), with R_m = Lam_m in
        # the index's own slot
        phi = master.phi.astype(complex)
        lam, lam_bar = master.lam, np.conj(master.lam)
        self.W = np.array([phi, phi])
        self.Wdot = np.array([lam * phi, lam_bar * phi])
        self.Rpairs = np.array([[lam, 0.0], [0.0, lam_bar]], complex)
        self.tables = tuple(PairSums(T, self.W, self.order) for T in (model.T2, model.T3) if T.nnz)

    def _grow(self, q: int):
        """Append zero rows to the coefficient tables up to those of order q."""
        extra = table_row((0, q), 1) + 1 - len(self.W)
        self.W, self.Wdot, self.Rpairs = (
            np.concatenate([X, np.zeros((extra, X.shape[1]), complex)])
            for X in (self.W, self.Wdot, self.Rpairs)
        )

    # -- accessors ---------------------------------------------------------

    @property
    def indices(self) -> tuple[MultiIndex, ...]:
        """Every index, in `table_row` order: index r is row r of W, Wdot
        and Rpairs."""
        return tuple(m for q in range(1, self.order + 1) for m in all_indices(q))

    def w(self, m: MultiIndex) -> np.ndarray:
        return self.W[table_row(m, 1)]

    def wdot(self, m: MultiIndex) -> np.ndarray:
        return self.Wdot[table_row(m, 1)]

    def R(self, m: MultiIndex) -> np.ndarray:
        return self.Rpairs[table_row(m, 1)]

    def r_orders(self) -> tuple[int, ...]:
        """Odd orders >= 3 carrying reduced-dynamics coefficients."""
        return tuple(q for q in range(3, self.order + 1, 2))

    def r1_terms(self) -> list[tuple[int, MultiIndex]]:
        """(order, index) pairs of the active first reduced coefficients."""
        return [(q, r1_active_index(q)) for q in self.r_orders()]

    # -- memo ----------------------------------------------------------------

    def memo(self, key, build, owner=None):
        """build(), kept under key until `compute_ssm` extends the expansion.

        An entry belongs to its owner: a read for another owner (compared
        by identity, against the reference the entry keeps) rebuilds the
        entry and replaces it, so a key holds one owner's value at a time.
        """
        held = self._memo.get(key)
        if held is None or held[0] is not owner:
            held = self._memo[key] = (owner, build())
        return held[1]

    def check_model(self, model: MechModel):
        """ArgumentError unless `model` is the one the expansion was computed
        for: its coefficients and its memo belong to that model."""
        if model is not self.model:
            raise ArgumentError("the expansion was computed for another model")

    def partials(self, params: ParamDerivatives) -> "Partials":
        """The residuals' explicit partial derivatives in the parameters
        (`Partials`), built on first use for each `ParamDerivatives`. The
        gradient contraction and the direct walk both read them."""
        return self.memo("partials", lambda: _build_partials(self, params), owner=params)

    def solve_order(self, plan: "OrderPlan", rhs: np.ndarray, border=0.0):
        """(x, s) solving L_m x = rhs at every canonical index of one order
        at once, one column of rhs per index of `plan`, and at the resonant
        index L_m x + M phi s = rhs, phi^T M x = border (`_modal_solve`); s
        is 0.0 at an even order. The bordered operator is complex
        symmetric, so the adjoint solves with it too."""
        return self._modal_solve(plan.d, plan.res, rhs, border)

    def _modal_solve(self, d: np.ndarray, bordered, rhs: np.ndarray, border):
        """(x, s) with x = Phi y and diag(d) y = q = Phi^T rhs, for rhs one
        column or an (n, K) block and d one diagonal for every column or
        (n, K), one per column. bordered selects the bordered columns (None:
        none, Ellipsis: all, an integer: one): there the master's y_j0 is
        the border value and s = q_j0 - d_j0 y_j0, each signed by
        `master_row`. A non-finite rhs or border raises numpy's
        ValueError."""
        Phi = self.model.modes[1]
        q = real_times(Phi.T, np.asarray_chkfinite(rhs))
        d = d.reshape(d.shape + (1,) * (q.ndim - d.ndim))
        s = 0.0
        if bordered is not None:
            j0, sign = self.master_row
            at = (j0, bordered)
            border = sign * np.asarray_chkfinite(np.broadcast_to(border, q[at].shape))
            s = sign * (q[at] - d[at] * border)
            d = d.copy()
            d[at] = 1.0
            q[at] = border
        return real_times(Phi, q / d), s

    def mode_solve(self, rhs: np.ndarray, border):
        """(x, s) solving the bordered mode-shape system

            [[K - omega^2 M, 2 M phi], [-2 omega (M phi)^T, 0]] [x; s] = [rhs; border]

        for a real rhs, one column or an (n, K) block: `_modal_solve` with
        the modal diagonal omega_j^2 - omega^2, every column bordered, the
        border scaled by -1/(2 omega) and s halved. The adjoint and the
        direct eigenpair derivatives both solve it. A repeated frequency
        raises DegenerateModeError."""
        omegas, omega = self.model.modes[0], self.master.omega

        def singular(j, ratio):
            return DegenerateModeError(
                f"bordered mode-shape system is singular (mode {j}, ratio {ratio:.2e}; "
                "repeated frequency)"
            )

        d = omegas**2 - omega**2  # the master's entry is exactly 0
        _check_diagonal(d, omegas[-1] ** 2 + omega**2, self.master_row[0], singular)
        x, s = self._modal_solve(d, ..., rhs, np.asarray(border) / (-2.0 * omega))
        return x.real, 0.5 * s.real


@dataclass(eq=False)
class Partials:
    """The residuals' explicit partial derivatives for one `ParamDerivatives`
    (`SsmExpansion.partials`), one block tuple (pf, pC, Aw, Vphi, phiMw) per
    `OrderPlan` in `orders`, columns as the plan's: pf the (k, P, n) partial
    forces dT of all parameters, one `PairSums.force` per stacked tensor;
    (P_M, k, n) stacks, row q for matrix_params[q], with dC = alpha_r dM +
    beta_r dK: pC = -dM Vdot_m - (Lam_m dM + dC) V_m, Aw = (dK + Lam_m dC +
    Lam_m^2 dM) w_m; and the resonant column's (P_M, n) Vphi = ((Lam_m +
    lambda_j) dM + dC) phi and (P_M,) phiMw = phi . dM w_m, None at an even
    order. `eig` is the master's `ParamDerivatives.modal_partials`. Arrays
    only: the memo that keeps the record makes no cycle back to the expansion."""

    orders: list
    eig: tuple


def _build_partials(exp: SsmExpansion, params: ParamDerivatives) -> Partials:
    model, master, phi = exp.model, exp.master, exp.master.phi
    tables = [PairSums(T, exp.W, exp.order) for T in (params.dT2, params.dT3) if T.nnz]
    P, n = params.count, model.n

    # no operator is formed: each index's [Vdot_m, V_m, w_m], then phi, are
    # the columns of one block that the dM and dK stacks each multiply once;
    # an order's vectors of one kind are every third of its columns
    cols = np.column_stack(
        [X[:, t] for p in exp.plans for t in range(len(p.indices)) for X in (p.Vdot, p.V, p.w)]
        + [phi]
    )
    dMX, dKX = (real_times(D, cols).transpose(0, 2, 1) for D in (params.dM, params.dK))
    dCX = model.alpha_r * dMX + model.beta_r * dKX

    orders = []
    start = 0
    for plan in exp.plans:
        k = len(plan.indices)
        Vdot, V, w = (slice(start + i, start + 3 * k, 3) for i in range(3))
        start += 3 * k
        Lam = plan.Lam[:, None]
        pC = -dMX[:, Vdot] - (Lam * dMX[:, V] + dCX[:, V])
        Aw = dKX[:, w] + Lam * dCX[:, w] + Lam**2 * dMX[:, w]
        Vphi = phiMw = None
        if plan.res is not None:
            Vphi = (plan.Lam[plan.res] + master.lambda_pair[plan.slot]) * dMX[:, -1] + dCX[:, -1]
            # one dot per row: stacked rounds otherwise
            phiMw = np.array([phi @ v for v in dMX[:, w][:, plan.res]])
        pf = np.zeros((k, P * n), dtype=complex)
        for t, m in enumerate(plan.indices):
            for table in tables:
                pf[t] += table.force(m)  # in place: no (P*n) temporary per table
        orders.append((pf.reshape(k, P, n), pC, Aw, Vphi, phiMw))
    return Partials(orders, params.modal_partials(master.omega, phi))


@dataclass(eq=False)
class OrderPlan:
    """The canonical indices of one order, one column each, as `compute_ssm`
    solved them and the sensitivity passes step through them
    (`SsmExpansion.plans`).

    Rows are those of the `table_row` layout (orders 1 and up), the layout
    of the expansion's coefficient tables, of the direct walk's record and
    of the adjoint's bars. The stacks are the indices' vectors side by side,
    w the expansion's canonical rows of this order, and the couplings are
    the terms (u, j, k) of their lower-order sums (`v_decomps`), one row
    each. Arrays and numbers only, no view of the expansion's tables: a plan
    makes no cycle back to the expansion and keeps no old table alive.
    """

    indices: tuple
    rows: np.ndarray  # (k,) the indices' rows
    mirrors: np.ndarray  # (k,) their swapped partners' rows; a self-symmetric index's own
    swapped: np.ndarray  # the columns of the indices with a partner of their own
    wt: np.ndarray  # (k,) 0.5 at a self-symmetric index, else 1.0
    mm: np.ndarray  # (k, 2) complex: the indices' components
    Lam: np.ndarray  # (k,)
    Rsum: np.ndarray  # (k,) R_m[0] + R_m[1]
    d: np.ndarray  # (n, k) the modal diagonals
    w: np.ndarray  # (n, k) w_m; it, V, Vdot and C keep contiguous columns for the dots
    V: np.ndarray  # (n, k) V_m
    Vdot: np.ndarray  # (n, k) Vdot_m
    C: np.ndarray  # (n, k) C_m
    Mw: np.ndarray  # (n, k) M w_m
    Lw: np.ndarray  # (n, k) (C + 2 Lam_m M) w_m
    MV: np.ndarray  # (n, k) M V_m
    res: int | None  # the resonant index's column, at an odd order
    slot: int | None  # its slot, the force D of R_m[slot] on the rhs and R_m[slot]'s denominator
    D: np.ndarray | None
    den: complex | None
    u_rows: np.ndarray  # (U,) the distinct rows of the couplings' u, ascending
    R_at: np.ndarray  # (T,) 2 row(k) + j: each coupling's R_k[j] in a flattened (rows, 2) table
    A: np.ndarray  # (U, k) sum of u[j] R_k[j] over the couplings of each u and index
    S: np.ndarray  # (T, k) u[j] in the column of the coupling's index, else 0
    Wu: np.ndarray  # (n, T) each coupling's w_u
    Wdotu: np.ndarray  # (n, T) each coupling's wdot_u


def write_order(table: np.ndarray, plan: OrderPlan, X: np.ndarray, pairs: bool = False):
    """X's rows, one per canonical index of the plan, into the plan's rows
    of a `table_row` table, and their conjugates into the swapped indices'
    rows, with the two slots exchanged for R pairs (pairs=True)."""
    table[plan.rows] = X
    mirror = np.conj(X[plan.swapped])
    table[plan.mirrors[plan.swapped]] = mirror[:, ::-1] if pairs else mirror


def _check_solve(model: MechModel, indices, Lam, w, h, C_m, R, res, D):
    """SsmError naming the first failing index unless each column t of the
    order's (n, k) block w solves L_m w_t = h_t at indices[t] to a bounded
    normwise backward error ||L w - h|| / (||L||_1 ||w|| + ||h||), or to the
    cancellation floor of h_t = C_m (+ D R_m[slot] in the resonant column
    res, R[t] the pair R_m), a round-off-level difference of large terms at,
    e.g., a 1-DOF resonant index. L_m = (1 + beta Lam_m) K + (Lam_m^2 + alpha
    Lam_m) M is not formed: K and M multiply the block, and ||L_m||_1 sums
    their nonzeros. Each column is divided by a power of two at its largest
    magnitude (exact: no norm overflows); a non-finite bound and NaN fail."""
    big = np.max([np.abs(X).max(axis=0) for X in (w, h, C_m, R.T)], axis=0)
    sc = np.ldexp(1.0, -np.maximum(np.frexp(big)[1], 0))
    w, h, C_m = sc * w, sc * h, sc * C_m
    cancel_scale = np.linalg.norm(C_m, axis=0)
    if D is not None:
        cancel_scale[res] += np.abs(sc[res] * R[res]).max() * np.linalg.norm(D)
    a, b = 1.0 + model.beta_r * Lam, Lam * (Lam + model.alpha_r)
    resid = np.linalg.norm(a * real_times(model.K, w) + b * real_times(model.M, w) - h, axis=0)
    # each column of |L_m| summed over the model's nonzeros
    Kc, Mc, starts = model.column_nonzeros
    L_norm = np.add.reduceat(np.abs(np.outer(a, Kc) + np.outer(b, Mc)), starts, axis=1).max(1)
    scale = L_norm * np.linalg.norm(w, axis=0) + np.linalg.norm(h, axis=0)
    tol = np.finfo(float).eps * (SOLVE_BACKWARD_ERROR * scale + 100 * cancel_scale)
    ok = np.isfinite(tol) & (resid <= tol)
    if not ok.all():
        t = np.argmin(ok)  # the first failing column
        raise SsmError(
            f"cohomological solve at index {indices[t]} failed: "
            f"scaled residual {resid[t]:.2e} above {tol[t]:.2e}"
        )


def step_order(exp: SsmExpansion):
    """Extend the expansion by one order: grow its coefficient and force
    tables, solve the order's canonical indices at once, one column each,
    write their rows and the swapped indices' conjugates (`write_order`),
    and append the order's `OrderPlan`.

    The couplings come first: they read lower orders only. The forces, V,
    Vdot, C_m, the resonant column's R_m and h = C_m + D R_m and the modal
    diagonals are then (n, k) blocks, solved by one modal solve. The outer
    resonance and a non-finite right-hand side are checked per column, in
    the order of the indices, before it, and the backward errors after it.
    """
    model, master, phi = exp.model, exp.master, exp.master.phi
    M, n, lam_pair = model.M, model.n, master.lambda_pair
    q = exp.order + 1
    indices = tuple(canonical_indices(q))
    k = len(indices)
    r_orders = exp.r_orders()
    terms = [(t, u, j, kk) for t, m in enumerate(indices) for u, j, kk in v_decomps(m, r_orders)]
    u_rows = sorted({table_row(u, 1) for _, u, _, _ in terms})
    R_at = np.array([2 * table_row(kk, 1) + j for _, _, j, kk in terms], np.intp)
    Rk = exp.Rpairs.ravel().take(R_at)  # each coupling's R_k[j]
    A = np.zeros((len(u_rows), k), complex)
    S = np.zeros((len(terms), k))
    for i, (t, u, j, _) in enumerate(terms):
        A[u_rows.index(table_row(u, 1)), t] += u[j] * Rk[i]
        S[i, t] = u[j]
    at = np.array([table_row(u, 1) for _, u, _, _ in terms], np.intp)
    Wu, Wdotu = (X[at].T.copy() for X in (exp.W, exp.Wdot))  # (n, T), C-contiguous
    Lam = np.array([m[0] * lam_pair[0] + m[1] * lam_pair[1] for m in indices])
    res = next((t for t, m in enumerate(indices) if resonant_slot(m) is not None), None)
    slot = None if res is None else resonant_slot(indices[res])

    exp._grow(q)
    # an overflowed vector, force or product is reported below as a
    # non-finite right-hand side
    R = np.zeros((k, 2), complex)
    D = den = None
    with np.errstate(over="ignore", invalid="ignore"):
        for table in exp.tables:
            table.extend(exp.W, q)
        F = np.zeros((k, n), complex)
        for t, m in enumerate(indices):
            for table in exp.tables:
                F[t] += table.force(m)
        SR = S * Rk[:, None]
        V, Vdot = Wu @ SR, Wdotu @ SR
        MV = real_times(M, V)  # the velocity Lam M + C is not formed
        C_m = -real_times(M, Vdot) - (Lam * MV + real_times(model.C, V)) - F.T
        h = C_m.copy()
        if res is not None:
            lj = Lam[res] + lam_pair[slot]
            den = lj + model.alpha_r + model.beta_r * master.omega**2
            R[res, slot] = (phi @ C_m[:, res]) / den
            D = -(lj * exp.Mphi + exp.Cphi)
            # Bordered operator: the reduced coefficient removed the master
            # projection from h, so the solution with phi^T M w = 0 is the
            # regular limit; for xi > 0 it equals the plain solve.
            h[:, res] += D * R[res, slot]

    # L_m = (1 + beta Lam) K + (Lam^2 + alpha Lam) M is diag(d) in the
    # modes, and size bounds the terms of every d_j; at a resonant index the
    # master's own d_j0 is the resonance that the border takes
    w2 = model.modes[0] ** 2
    d = (1.0 + model.beta_r * Lam) * w2[:, None] + Lam * (Lam + model.alpha_r)
    a = np.abs(Lam)
    size = (1.0 + model.beta_r * a) * w2[-1] + a * (a + model.alpha_r)
    for t, m in enumerate(indices):
        skip = master.mode_index if t == res else None
        _check_diagonal(d[:, t], size[t], skip, partial(OuterResonanceError, m))
        if not np.all(np.isfinite(h[:, t])):
            raise SsmError(f"cohomological right-hand side at index {m} is not finite (overflow)")
    w, _ = exp._modal_solve(d, res, h, 0.0)
    _check_solve(model, indices, Lam, w, h, C_m, R, res, D)

    # a self-symmetric index: every quantity is real in exact arithmetic;
    # dropping the roundoff imaginary part makes the conjugacy invariant
    # hold by construction
    sym = [t for t, m in enumerate(indices) if m[0] == m[1]]
    for X in (w, V, Vdot, C_m, MV):
        X[:, sym] = X[:, sym].real

    Rsum = R[:, 0] + R[:, 1]
    wdot = Lam * w + Rsum * phi[:, None] + V
    Mw = real_times(M, w)
    Lw = real_times(model.C, w) + 2.0 * Lam * Mw
    plan = OrderPlan(
        indices,
        np.array([table_row(m, 1) for m in indices]),
        np.array([table_row(symmetric(m), 1) for m in indices]),
        np.array([t for t, m in enumerate(indices) if m[0] != m[1]], np.intp),
        np.array([0.5 if m[0] == m[1] else 1.0 for m in indices]),
        np.array(indices, complex),
        Lam,
        Rsum,
        d,
        *(np.asfortranarray(X) for X in (w, V, Vdot, C_m)),
        Mw,
        Lw,
        MV,
        res,
        slot,
        D,
        den,
        np.array(u_rows, np.intp),
        R_at,
        A,
        S,
        Wu,
        Wdotu,
    )
    write_order(exp.W, plan, plan.w.T)
    write_order(exp.Wdot, plan, wdot.T)
    write_order(exp.Rpairs, plan, R, pairs=True)
    exp.plans.append(plan)
    exp.n_solves += k
    exp.order = q


def compute_ssm(
    model: MechModel,
    master: MasterPair,
    order_: int,
    from_expansion: SsmExpansion | None = None,
) -> SsmExpansion:
    """Expansion up to the given odd order >= 3, one order at a time
    (`step_order`).

    Passing a lower-order expansion extends it: the recursion is lower
    triangular in order, so existing coefficients and plans are reused
    unchanged; its memo, built for the lower order, is cleared.
    """
    if order_ < 3 or order_ % 2 == 0:
        raise ArgumentError(f"expansion order must be odd and >= 3, got {order_}")
    if from_expansion is None:
        exp = SsmExpansion(model, master)
    else:
        from_expansion.check_model(model)
        exp = from_expansion
        if exp.order >= order_:
            return exp
        exp._memo.clear()
    while exp.order < order_:
        step_order(exp)
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

    The preconditioner is the regularized stiffness (K + eps M)^-1 =
    Phi diag(1 / (omega^2 + eps)) Phi^T in the model's modes, eps = 1e-14
    ||K||_1: a free-free stiffness (a rigid-body mode beside the master) is
    valid input. `model` must be the expansion's (`check_model`).

    All grid points are evaluated at once. At p = (rho e^{i theta},
    rho e^{-i theta}) the power p^m is rho^|m| e^{i (m1 - m2) theta}, so
    W, R(p) and the partials dW/dp1, dW/dp2 are each one (theta x index)
    matrix of powers times the stacked coefficients [w; wdot] or R; the
    stiffness preconditioner applies Phi^T and then Phi to all grid points
    at once. Only the internal force is evaluated point by point.
    """
    check_argument("rho", rho, positive=True)
    exp.check_model(model)
    n, omega = model.n, exp.master.omega
    omegas, modes = model.modes
    reg = (omegas**2 + 1e-14 * np.linalg.norm(model.K, 1))[:, None]

    def state_norms(force: np.ndarray, velocity: np.ndarray) -> np.ndarray:
        """Weighted norm at each grid point of the (theta x n) blocks, taken on
        both divided by one power of two at their largest magnitude (exact)."""
        e = np.frexp(max(np.abs(force).max(), np.abs(velocity).max()))[1]
        # numpy may lay a block out in Fortran order (from n = 512 on)
        blocks = (np.ascontiguousarray(X) for X in (force, velocity))
        f, v = (np.ldexp(X.view(float), -e).view(complex) for X in blocks)
        s1 = real_times(modes, real_times(modes.T, f.T) / reg)
        sq = np.sum(np.abs(s1) ** 2, axis=0) + np.sum(np.abs(v / omega) ** 2, axis=1)
        return np.ldexp(np.sqrt(sq), e)

    n_grid = RESIDUAL_THETA_SAMPLES
    thetas = 2.0 * np.pi * np.arange(1, n_grid + 1) / n_grid
    ms = np.array(exp.indices)
    q = ms.sum(axis=1)
    d = ms[:, 0] - ms[:, 1]
    # powers p^m of W and of the two partials (m1 p^(m - e1), m2 p^(m - e2))
    rho_q1 = rho ** np.maximum(q - 1, 0)
    Phi = np.exp(1j * np.outer(thetas, d)) * rho**q
    Phi1 = np.exp(1j * np.outer(thetas, d - 1)) * (ms[:, 0] * rho_q1)
    Phi2 = np.exp(1j * np.outer(thetas, d + 1)) * (ms[:, 1] * rho_q1)
    Wm = np.hstack([exp.W, exp.Wdot])

    W = Phi @ Wm
    Rp = Phi @ exp.Rpairs
    dW = (Phi1 @ Wm) * Rp[:, :1] + (Phi2 @ Wm) * Rp[:, 1:]
    x, v = W[:, :n], W[:, n:]
    dx, dv = dW[:, :n], dW[:, n:]
    ref = real_times(model.K, x.T).T + np.array([model.nonlinear_force(xk) for xk in x])
    defect = real_times(model.C, dx.T).T + real_times(model.M, dv.T).T + ref
    den = state_norms(ref, v)
    if np.abs(x).max() < np.finfo(float).tiny or np.any(den == 0.0):
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
    check_argument("tolerance", tol, positive=True)
    lo, hi = order_range
    if lo % 2 != 1 or hi % 2 != 1 or lo < 3 or hi < lo:
        raise ArgumentError(f"order range must be odd bounds with 3 <= lo <= hi, got {order_range}")
    exp = None
    for O in range(lo, hi + 1, 2):
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
    for m in exp.indices:
        w, wdot, R = exp.w(m), exp.wdot(m), exp.R(m)
        entries.append(
            {
                "m1": m[0],
                "m2": m[1],
                "w_re": w.real.tolist(),
                "w_im": w.imag.tolist(),
                "wdot_re": wdot.real.tolist(),
                "wdot_im": wdot.imag.tolist(),
                "R1_re": R[0].real,
                "R1_im": R[0].imag,
                "R2_re": R[1].real,
                "R2_im": R[1].imag,
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
