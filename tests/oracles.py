"""Test-only reference computations; nothing in the package imports them.

* `fd_gradient_richardson`: central differences at two steps and their
  Richardson combination, a self-consistency check for the FD oracle.
* `ridders_gradient`: Ridders' polynomial extrapolation of central
  differences, an independent gradient reference; on the chains it is about
  three orders of magnitude closer to the analytic gradient than one
  central difference. Both sensitivity methods read the same record of
  explicit partials, so comparing them with each other cannot see a fault
  in that record; this reference differentiates only the primal, through
  `reference_response`.
* `reference_response`: the backbone frequency at a fixed amplitude, as
  `fdcheck.backbone_response` gives it, with the reduced amplitude polished
  to roundoff. `rho_of_x` stops at `RHO_X_RTOL`, and where it stops moves
  with the design; a difference quotient magnifies that jitter past the
  gradient's roundoff.
* `reference_vk_beam`: the per-element, dict-accumulating von Karman beam
  assembly with central-FD parameter derivatives. `models.build_vk_beam`
  assembles all elements of a design in one batched pass; this is the
  element-by-element form it must reproduce bit for bit.
* `reference_adjoint`: the all-index reverse sweep. `sens_adjoint.solve_adjoint`
  walks only the canonical indices and folds each swapped index's bars into
  its canonical partner; this sweep reverses every index on its own, the form
  the fold must reproduce to roundoff.
* `reference_full_set_ssm`: the expansion with every index solved on its
  own. `ssm.compute_ssm` solves only the canonical indices and writes the
  swapped ones by conjugation; this is the form the conjugation must
  reproduce to roundoff.
* `contract_sum`: the force convolution as one sum over every ordered tuple
  of lower indices, the products formed once per trailing key. `PairSums`
  sums each convolution over its first part only, the other parts taken
  from a table of pair sums; this is the form it reassociates. With
  arguments in extended precision it is the reference the kernels'
  accuracy is measured against.
* `reference_linearize`: the key-space linearization of the force
  convolution over any decomposition set, one decomposition at a time.
  `PairSums.linearize(m)` gathers each coefficient from a table of pair sums;
  over `decomps(m, arity)` the two add the same products in the same order.
* `reference_pullback`: the reverse mode of a force convolution as one loop
  over the decompositions. `PairSums.pullback` gathers the pair-sum table
  rows at a per-tensor scatter pattern and sums each receiving bin in key
  order; this loop forms the same sums in the same order, so the two must
  agree bit for bit.
* `reference_canonical`: a tensor's entries put in canonical form by a
  lexsort of the index columns. `SymTensor.canonical` packs each entry into
  one integer key and sorts the keys stably instead; the two must give the
  same entries and sums bit for bit.
* `reference_projection`: the direct method's projection of its walk record
  as one loop per parameter, one scalar product at a time.
  `sens_direct.chain_derivatives` projects every parameter at once and must
  give the loop's numbers bit for bit.
* `first_order_operators`: the matrices of the equivalent first-order form.
  `ssm.invariance_residual` works in the second-order form; the first-order
  one is the independent reference its tests compare with.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ssmopt.backbone import dx_drho, omega_of_rho, point_weights, rho_of_x, x_rms
from ssmopt.errors import ConfigError, ModelError
from ssmopt.fdcheck import fd_gradient
from ssmopt.mechmodel import Linearization, MechModel, ParamDerivatives, SymTensor, _accum
from ssmopt.models import FAMILIES, FD_ASSEMBLY_RELSTEP, VkBeamSpec
from ssmopt.multiindex import all_indices, symmetric
from ssmopt.sens_adjoint import (
    AdjointState,
    _backprop_index,
    _backprop_wdot,
    _Bars,
    _seed_bars,
    solve_adjoint_phi_omega,
)
from ssmopt.spectral import track_mode
from ssmopt.ssm import SsmExpansion, compute_ssm, order_step


def fd_gradient_richardson(fun, mu0, rel_step: float = 1e-5):
    """(extrapolated gradient, consistency ratio per component).

    Central differences at steps h and h/2; the error ratio of a smooth
    function is ~4, and the Richardson combination cancels the leading term.
    """
    g1 = fd_gradient(fun, mu0, rel_step)
    g2 = fd_gradient(fun, mu0, rel_step / 2.0)
    extrap = (4.0 * g2 - g1) / 3.0
    denom = np.maximum(np.abs(g2 - extrap), 1e-300)
    ratio = np.abs(g1 - extrap) / denom
    return extrap, ratio


def ridders_derivative(f, h: float, con: float = 1.4, ntab: int = 10, safe: float = 2.0):
    """(f'(0), error estimate) by Ridders' extrapolation of central differences
    (Ridders, Adv. Eng. Software 4, 1982; Press et al., Numerical Recipes,
    3rd ed., section 5.7, `dfridr`).

    The central difference at steps h, h/con, h/con^2, ... is extrapolated to
    zero step in a Neville tableau. The answer is the tableau entry whose
    change against its two parents is smallest, and that change is the error
    estimate. The walk stops when the diagonal grows past safe times that
    estimate: roundoff has taken over.
    """
    a = np.empty((ntab, ntab))
    a[0, 0] = (f(h) - f(-h)) / (2.0 * h)
    ans, err = a[0, 0], np.inf
    for i in range(1, ntab):
        h /= con
        a[0, i] = (f(h) - f(-h)) / (2.0 * h)
        fac = con * con
        for j in range(1, i + 1):
            a[j, i] = (a[j - 1, i] * fac - a[j - 1, i - 1]) / (fac - 1.0)
            fac *= con * con
            errt = max(abs(a[j, i] - a[j - 1, i]), abs(a[j, i] - a[j - 1, i - 1]))
            if errt <= err:
                ans, err = a[j, i], errt
        if abs(a[i, i] - a[i - 1, i - 1]) >= safe * err:
            break
    return ans, err


def ridders_gradient(fun, mu0, rel_step: float = 1e-2):
    """(gradient, error estimate per component) of fun at mu0, one
    `ridders_derivative` per component with first step rel_step*(1+|mu_i|)."""
    mu0 = np.asarray(mu0, dtype=float)
    out = np.empty((2, len(mu0)))
    for i in range(len(mu0)):
        e = np.zeros(len(mu0))
        e[i] = 1.0
        out[:, i] = ridders_derivative(lambda t: fun(mu0 + t * e), rel_step * (1.0 + abs(mu0[i])))
    return out[0], out[1]


def reference_response(builder, mu, *, x0: float, dof_index: int, order: int, reference) -> float:
    """Omega at fixed target amplitude for the model built at mu, as
    `fdcheck.backbone_response`, with two Newton steps on x_rms(rho) = x0
    past `rho_of_x`: these take rho from `RHO_X_RTOL` (1e-10) to roundoff."""
    model = builder(np.asarray(mu, dtype=float))
    exp = compute_ssm(model, track_mode(model, reference), order)
    rho = rho_of_x(exp, dof_index, x0)
    for _ in range(2):
        rho -= (x_rms(exp, dof_index, rho) - x0) / dx_drho(exp, dof_index, rho)
    return omega_of_rho(exp, rho)


_GAUSS_XI, _GAUSS_W = np.polynomial.legendre.leggauss(5)
_GAUSS_XI = 0.5 * (_GAUSS_XI + 1.0)  # map to [0, 1]
_GAUSS_W = 0.5 * _GAUSS_W

_T2_ROT_PATH = np.einsum_path(
    "ijk,ia,jb,kc->abc", np.empty((6,) * 3), *([np.empty((6, 6))] * 3), optimize="optimal"
)[0]
_T3_ROT_PATH = np.einsum_path(
    "ijkl,ia,jb,kc,ld->abcd", np.empty((6,) * 4), *([np.empty((6, 6))] * 4), optimize="optimal"
)[0]


def _element_local(E: float, A: float, I: float, rho: float, Le: float):
    """Local matrices/tensors of one straight element, DOFs (u1,w1,t1,u2,w2,t2)."""
    K = np.zeros((6, 6))
    M = np.zeros((6, 6))
    T2 = np.zeros((6, 6, 6))
    T3 = np.zeros((6, 6, 6, 6))
    Bu = np.array([-1.0, 0, 0, 1.0, 0, 0]) / Le
    for xi, wgt in zip(_GAUSS_XI, _GAUSS_W):
        dx = wgt * Le
        Nu = np.array([1 - xi, 0, 0, xi, 0, 0])
        H = np.array(
            [
                0,
                1 - 3 * xi**2 + 2 * xi**3,
                Le * (xi - 2 * xi**2 + xi**3),
                0,
                3 * xi**2 - 2 * xi**3,
                Le * (-(xi**2) + xi**3),
            ]
        )
        G = np.array(
            [
                0,
                (-6 * xi + 6 * xi**2) / Le,
                1 - 4 * xi + 3 * xi**2,
                0,
                (6 * xi - 6 * xi**2) / Le,
                -2 * xi + 3 * xi**2,
            ]
        )
        S = np.array(
            [
                0,
                (-6 + 12 * xi) / Le**2,
                (-4 + 6 * xi) / Le,
                0,
                (6 - 12 * xi) / Le**2,
                (-2 + 6 * xi) / Le,
            ]
        )
        K += dx * (E * A * np.outer(Bu, Bu) + E * I * np.outer(S, S))
        M += dx * rho * A * (np.outer(Nu, Nu) + np.outer(H, H))
        T2 += dx * E * A * (
            0.5 * np.einsum("i,j,k->ijk", Bu, G, G)
            + np.einsum("i,j,k->ijk", G, Bu, G)
        )
        T3 += dx * 0.5 * E * A * np.einsum("i,j,k,l->ijkl", G, G, G, G)
    return K, M, T2, T3


def _beam_nodes(spec: VkBeamSpec) -> np.ndarray:
    x = np.linspace(0.0, spec.length, spec.n_elements + 1)
    y = spec.a1 * np.sin(np.pi * x / spec.length) + spec.a2 * np.sin(
        2 * np.pi * x / spec.length
    )
    return np.column_stack([x, y])


def _assemble_vk(spec: VkBeamSpec):
    """Free-DOF operators after clamping: M, K dense, (T2, T3) as entry dicts."""
    if spec.thickness <= 0 or spec.length <= 0:
        raise ModelError("beam thickness and length must be positive")
    if spec.n_elements < 2:
        raise ModelError("beam needs at least 2 elements")
    b = spec.width if spec.width is not None else spec.thickness
    if b <= 0:
        raise ModelError("beam width must be positive")
    A = b * spec.thickness
    I = b * spec.thickness**3 / 12.0
    nodes = _beam_nodes(spec)
    n_nodes = spec.n_elements + 1
    ndof = 3 * n_nodes
    M = np.zeros((ndof, ndof))
    K = np.zeros((ndof, ndof))
    free = np.arange(3, ndof - 3)
    free_index = np.full(ndof, -1)
    free_index[free] = np.arange(len(free))
    t2: dict[tuple[int, int, int], float] = {}
    t3: dict[tuple[int, int, int, int], float] = {}
    for e in range(spec.n_elements):
        d = nodes[e + 1] - nodes[e]
        Le = float(np.hypot(*d))
        if Le <= 0:
            raise ModelError("inverted or degenerate beam geometry")
        c, s = d / Le
        Kl, Ml, T2l, T3l = _element_local(spec.youngs, A, I, spec.density, Le)
        R = np.array([[c, s, 0], [-s, c, 0], [0, 0, 1.0]])
        T = np.zeros((6, 6))
        T[:3, :3] = R
        T[3:, 3:] = R
        Kg = T.T @ Kl @ T
        Mg = T.T @ Ml @ T
        T2g = np.einsum("ijk,ia,jb,kc->abc", T2l, T, T, T, optimize=_T2_ROT_PATH)
        T3g = np.einsum("ijkl,ia,jb,kc,ld->abcd", T3l, T, T, T, T, optimize=_T3_ROT_PATH)
        dofs = np.r_[3 * e : 3 * e + 3, 3 * (e + 1) : 3 * (e + 1) + 3]
        K[np.ix_(dofs, dofs)] += Kg
        M[np.ix_(dofs, dofs)] += Mg
        for Tg, acc in ((T2g, t2), (T3g, t3)):
            tol = 1e-14 * max(1.0, np.abs(Tg).max())
            nz = np.nonzero(np.abs(Tg) > tol)
            keys = free_index[dofs[np.array(nz)]].T
            kept = np.all(keys >= 0, axis=1)
            for key, v in zip(map(tuple, keys[kept].tolist()), Tg[nz][kept]):
                acc[key] = acc.get(key, 0.0) + v
    Mf = M[np.ix_(free, free)]
    Kf = K[np.ix_(free, free)]
    return Mf, Kf, (t2, t3)


def _tensor_from_dict(n: int, arity: int, entries: dict) -> SymTensor:
    return SymTensor.from_entries(n, arity, [(*key, v) for key, v in entries.items()])


def reference_vk_beam(
    spec: VkBeamSpec, params: tuple[str, ...] | None = None
) -> tuple[MechModel, ParamDerivatives]:
    """`build_vk_beam` computed element by element through entry dicts."""
    fields = FAMILIES["vk_beam"].params
    if params is None:
        params = tuple(fields)
    Mf, Kf, (t2, t3) = _assemble_vk(spec)
    n = Mf.shape[0]
    model = MechModel(
        M=Mf,
        K=Kf,
        alpha_r=spec.alpha_r,
        beta_r=spec.beta_r,
        T2=_tensor_from_dict(n, 2, t2),
        T3=_tensor_from_dict(n, 3, t3),
    )
    dM, dK, dT = [], [], {2: [], 3: []}
    for p in params:
        if p not in fields:
            raise ConfigError(f"unknown beam parameter {p!r}")
        fld = fields[p]
        mu = getattr(spec, fld)
        h = FD_ASSEMBLY_RELSTEP * (1.0 + abs(mu))
        plus = _assemble_vk(replace(spec, **{fld: mu + h}))
        minus = _assemble_vk(replace(spec, **{fld: mu - h}))
        dM.append((plus[0] - minus[0]) / (2 * h))
        dK.append((plus[1] - minus[1]) / (2 * h))
        for arity, tp, tm in zip((2, 3), plus[2], minus[2]):
            diff = {
                key: (tp.get(key, 0.0) - tm.get(key, 0.0)) / (2 * h)
                for key in set(tp) | set(tm)
            }
            dT[arity].append(_tensor_from_dict(n, arity, diff))
    derivs = ParamDerivatives(
        names=tuple(params), dM=tuple(dM), dK=tuple(dK), dT2=tuple(dT[2]), dT3=tuple(dT[3])
    )
    return model, derivs


def reference_adjoint(model: MechModel, exp, dof_index: int, rho: float) -> AdjointState:
    """Adjoint variables from a reverse sweep over every index.

    Each index, swapped ones included, reverses its own wdot and
    cohomological steps; a swapped index is solved with the conjugated
    factorization of its canonical partner (its operator is the conjugate
    one). Every bar is read where it was pushed, so nothing is folded and the
    objective's seeds count at full weight. The dicts cover every index. Each
    index's operator products are formed here from its own record (the
    expansion keeps them for the canonical records only); M phi and the
    mode-shape factorization are the expansion's (`SsmExpansion.mode_lu`).
    """
    pen = model.pencil
    bars = _Bars(model.n)
    _seed_bars(bars, point_weights(exp, dof_index, rho), dof_index)
    # `_seed_bars` seeds half of each bar for the fold; doubling is exact
    bars.lam *= 2.0
    bars.phi *= 2.0
    for store in (bars.w, bars.R):
        for v in store.values():
            v *= 2.0

    lambda_m: dict = {}
    nu_m: dict = {}
    for q in range(exp.order, 1, -1):
        idx_q = all_indices(q)
        # each index's wdot bar is also its V bar, read by its index step
        vbar = {m: bars.wdot.pop(m, np.zeros(model.n, complex)) for m in idx_q}
        for m in idx_q:
            _backprop_wdot(exp, bars, m, exp.coeffs(m), vbar[m])
        for m in idx_q:
            rhs = -bars.w.pop(m, np.zeros(model.n, complex))
            rec = exp.coeffs(m)
            if rec.lu is not None:
                lam, nu = rec.lu.solve(rhs)
            else:
                lam, nu = exp.coeffs(symmetric(m)).lu.solve(np.conj(rhs))
                lam, nu = np.conj(lam), np.conj(nu)
            lambda_m[m] = lam
            if rec.slot is not None:
                nu_m[m] = nu
        for m in idx_q:
            rec = exp.coeffs(m)
            Mw = pen.M @ rec.w
            rec = replace(rec, Mw=Mw, Lw=pen.C @ rec.w + 2.0 * rec.Lam * Mw, MV=pen.M @ rec.V)
            _backprop_index(model, exp, bars, m, rec, lambda_m[m], nu_m.get(m, 0.0), vbar[m])

    lambda_phi, lambda_omega = solve_adjoint_phi_omega(exp, bars)
    r_bar = {m: bars.R[m][exp.coeffs(m).slot] for m in nu_m}
    return AdjointState(lambda_m, nu_m, r_bar, lambda_phi, lambda_omega)


def reference_canonical(n: int, arity: int, entries) -> SymTensor:
    """SymTensor from validated [i, j, k(, l), v] rows: the trailing indices
    sorted per row, the rows ordered by a lexsort of the index columns,
    duplicates summed in that order and zero sums dropped."""
    arr = np.asarray(entries, float)
    ids = arr[:, :-1].astype(np.intp)
    vals = arr[:, -1]
    idx = np.column_stack([ids[:, 0], np.sort(ids[:, 1:], axis=1)])
    key_order = np.lexsort(idx.T[::-1])
    idx = idx[key_order]
    vals = vals[key_order]
    newgrp = np.ones(len(idx), dtype=bool)
    newgrp[1:] = np.any(idx[1:] != idx[:-1], axis=1)
    starts = np.nonzero(newgrp)[0]
    summed = np.add.reduceat(vals, starts)
    keep = summed != 0.0
    return SymTensor(n, idx[starts][keep], summed[keep])


def reference_projection(record, pw, dof_index: int) -> tuple[np.ndarray, np.ndarray]:
    """(drho, dOmega) of every parameter from the direct walk's record
    (`sens_direct._Record`) and the backbone point's weights, before the
    realness check: per parameter, drho sums a * dw_m[dof_index] over the
    amplitude weights and dOmega sums the eigenvalue pair's and R's
    weighted derivatives, each in the order of the weights. A swapped
    index's derivatives are the conjugates of its canonical partner's."""

    def dw_at(p, m):
        if m[0] >= m[1]:
            return record.dw[p, record.rows[m], dof_index]
        return np.conj(record.dw[p, record.rows[symmetric(m)], dof_index])

    def dR_at(p, m, slot):
        if m[0] >= m[1]:
            return record.dR[p, record.resonant[m], slot]
        return np.conj(record.dR[p, record.resonant[symmetric(m)], 1 - slot])

    amp = list(pw.amplitude(-1.0 / pw.dx_drho).items())
    P = len(record.dlam)
    drho = np.empty(P, dtype=complex)
    dOm = np.empty(P, dtype=complex)
    for p in range(P):
        drho[p] = sum(a * dw_at(p, m) for m, a in amp)
        d = pw.lam[0] * record.dlam[p, 0] + pw.lam[1] * record.dlam[p, 1]
        for (m, slot), wt in pw.R:
            d += wt * dR_at(p, m, slot)
        dOm[p] = d
    return drho, dOm


def reference_full_set_ssm(model: MechModel, master, order: int) -> SsmExpansion:
    """Expansion up to `order` that solves every index, the swapped ones
    included, instead of conjugating the canonical records."""
    exp = SsmExpansion(model, master)
    for q in range(exp.order + 1, order + 1):
        for table in exp.tables:
            table.extend(exp.w, q)
        for m in all_indices(q):
            exp.data[m] = order_step(model, exp, m)
        exp.order = q
    return exp


def contract_sum(T: SymTensor, arg_tuples) -> np.ndarray:
    """f_i = sum over the argument tuples (a, b[, c]) of sum v * a[j] * b[k] (* c[l]).

    The products depend only on the trailing key, so they are formed once
    per key and expanded to the entries in one accumulation. The sums are
    complex, in the arguments' precision when that is wider (`np.clongdouble`).
    """
    if T.nnz == 0 or not arg_tuples:
        return np.zeros(T.n, dtype=complex)
    key_cols, key_of = T.key_pattern
    G = np.zeros(len(key_cols[0]), dtype=np.result_type(complex, *arg_tuples[0]))
    for args in arg_tuples:
        term = args[0][key_cols[0]]
        for a, c in zip(args[1:], key_cols[1:]):
            term = term * a[c]
        G += term
    return _accum(T.cols[0], T.vals * G[key_of], T.n)


def reference_linearize(T: SymTensor, parts, w) -> Linearization:
    """The sum over `parts` of contract_sum([(w(d[0]), w(d[1]), ...)]),
    linearized in the vectors of the indices it reads.

    For each index u and slot, the coefficient over the trailing keys is the
    sum over the decompositions d with d[slot] = u of the product of the
    other slots' vectors at their key columns, in slot order, added in the
    order of `parts`. The rows follow the order in which the decompositions
    first read the (u, slot) pairs.
    """
    if T.nnz == 0 or not parts:
        return Linearization(T, (), np.zeros((0, 0), dtype=complex))
    key_cols, _ = T.key_pattern
    coef: dict = {}
    for d in parts:
        for slot, u in enumerate(d):
            others = [w(t)[key_cols[o]] for o, t in enumerate(d) if o != slot]
            term = others[0]
            for g in others[1:]:
                term = term * g
            coef[u, slot] = coef[u, slot] + term if (u, slot) in coef else term
    return Linearization(T, tuple(coef), np.array(list(coef.values())))


def reference_pullback(T: SymTensor, v: np.ndarray, parts, w) -> dict:
    """{u: r_u} of `PairSums.pullback(m, v)` over parts =
    `decomps(m, T.arity)`, summed per (u, slot) in one loop over the
    decompositions and scattered per (u, slot)."""
    if T.nnz == 0 or not parts:
        return {}
    key_cols, key_of = T.key_pattern
    s = _accum(key_of, T.vals * v[T.cols[0]], len(key_cols[0]))
    used = {(u, slot) for d in parts for slot, u in enumerate(d)}
    gathered = {(u, slot): w(u)[key_cols[slot]] for u, slot in used}
    sums: dict = {}
    for d in parts:
        for slot, u in enumerate(d):
            others = [gathered[t, o] for o, t in enumerate(d) if o != slot]
            term = others[0]
            for g in others[1:]:
                term = term * g
            sums[u, slot] = sums[u, slot] + term if (u, slot) in sums else term
    out: dict = {}
    for (u, slot), g in sums.items():
        r = _accum(key_cols[slot], s * g, T.n)
        out[u] = out[u] + r if u in out else r
    return out


def first_order_operators(model: MechModel) -> tuple[np.ndarray, np.ndarray]:
    """Matrices (B, A) of the equivalent first-order form B z' = A z + F(z),
    z = (x, v), F = (-f(x), 0)."""
    n = model.n
    B = np.zeros((2 * n, 2 * n))
    B[:n, :n] = model.pencil.C
    B[:n, n:] = model.M
    B[n:, :n] = model.M
    A = np.zeros((2 * n, 2 * n))
    A[:n, :n] = -model.K
    A[n:, n:] = model.M
    return B, A
