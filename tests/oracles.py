"""Test-only reference computations; nothing in the package imports them.

* `fd_gradient_richardson`: central differences at two steps and their
  Richardson combination, a self-consistency check for the FD oracle.
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
* `reference_linearize`: the key-space linearization of the force
  convolution over any decomposition set, one decomposition at a time.
  `PairSums.linearize(m)` gathers each coefficient from a table of pair sums;
  over `decomps(m, arity)` the two add the same products in the same order.
* `reference_pullback`: the reverse mode of a force convolution as one loop
  over the decompositions. `PairSums.linearize(m).reverse` gathers the
  key-space linearization and scatters it; this loop forms the same sums in
  the same order, so the two must agree bit for bit.
* `first_order_operators`: the matrices of the equivalent first-order form.
  `ssm.invariance_residual` works in the second-order form; the first-order
  one is the independent reference its tests compare with.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ssmopt.errors import ConfigError, ModelError
from ssmopt.fdcheck import fd_gradient
from ssmopt.mechmodel import Linearization, MechModel, PairSums, ParamDerivatives, SymTensor, _accum
from ssmopt.models import FAMILIES, FD_ASSEMBLY_RELSTEP, VkBeamSpec
from ssmopt.multiindex import all_indices, symmetric
from ssmopt.sens_adjoint import (
    AdjointState,
    _backprop_index,
    _backprop_wdot,
    _Bars,
    _seed_bars,
    solve_adjoint_phi_omega,
    solve_adjoint_rho,
)
from ssmopt.ssm import SsmExpansion, order_step


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
    objective's seeds count at full weight. The dicts cover every index.
    """
    bars = _Bars(model.n)
    _seed_bars(exp, bars, solve_adjoint_rho(exp, dof_index, rho), dof_index, rho)
    # `_seed_bars` seeds half of each bar for the fold; doubling is exact
    bars.lam *= 2.0
    bars.phi *= 2.0
    for store in (bars.w, bars.R):
        for v in store.values():
            v *= 2.0

    tables = [PairSums(T, exp.w, exp.order) for T in (model.T2, model.T3)]
    lambda_m: dict = {}
    nu_m: dict = {}
    for q in range(exp.order, 1, -1):
        idx_q = all_indices(q)
        for m in idx_q:
            b = bars.wdot.pop(m, np.zeros(model.n, complex))
            _backprop_wdot(exp, bars, m, exp.coeffs(m), b)
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
            _backprop_index(model, exp, tables, bars, m, rec, lambda_m[m], nu_m.get(m, 0.0))

    lambda_phi, lambda_omega = solve_adjoint_phi_omega(model, exp, bars)
    r_bar = {m: bars.R[m][exp.coeffs(m).slot] for m in nu_m}
    return AdjointState(lambda_m, nu_m, r_bar, lambda_phi, lambda_omega)


def reference_full_set_ssm(model: MechModel, master, order: int) -> SsmExpansion:
    """Expansion up to `order` that solves every index, the swapped ones
    included, instead of conjugating the canonical records."""
    exp = SsmExpansion(model, master)
    for q in range(exp.order + 1, order + 1):
        for m in all_indices(q):
            exp.data[m] = order_step(model, exp, m)
        exp.order = q
    return exp


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
    """{u: r_u} of `PairSums.linearize(m).reverse(v)` over parts =
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
