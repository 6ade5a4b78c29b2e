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
  steps through whole orders of canonical indices and folds each swapped
  index's bars into its canonical partner; this sweep reverses every index
  on its own, one at a time with per-index bars in dicts, the form the fold
  must reproduce to roundoff. It solves with `formed_solve`, and returns
  its adjoint variables by index (`ReferenceAdjoint`); `adjoint_by_index`
  reads a `sens_adjoint.AdjointState`'s per-order tables back the same way.
* `reference_contraction`: the gradient contraction one canonical index at
  a time, one dot per matrix parameter. `sens_adjoint.contract_gradient`
  takes each order's indices at once, one batched product per term, and
  must agree with it to roundoff. It reads the record of explicit partials
  by index (`partials_by_index`), as `reference_walk` does.
* `reference_walk`: the direct walk one canonical index at a time, every
  parameter's pass stepping at each index with its derivatives in dicts.
  `sens_direct._walk` steps through whole orders, each order's indices one
  column of a block, and must agree with it to roundoff. It applies each
  linearization with `reference_forward`, which gathers the vectors of the
  rows one by one; the walk gathers them from its record's table.
* `pulled`: `PairSums.pullback`'s rows read back as indices, {u: r_u}.
* `formed_solve`: a dense solve of an index's formed operator L_m, bordered
  by M phi at a resonant index. `modal_solve` divides by the operator's
  diagonal in the model's modes, the column of it that the order's plan
  keeps, instead; the two agree to the operator's conditioning.
* `IndexCoeffs`, `index_record`, `conjugate_record` and `write_record`:
  one index's coefficients as one record. The expansion keeps them in
  tables of every index and in per-order plans of the canonical ones;
  `index_record` reads them back per index, conjugated at a swapped index.
* `reference_index_step` and `reference_ssm`: the recursion one canonical
  index at a time, each index's force, coupling sums, right-hand side,
  modal diagonal and solve on their own, in records. `ssm.step_order` takes each
  order's indices at once, one column of (n, k) blocks, and must agree
  with it to roundoff.
* `reference_full_set_ssm`: the expansion with every swapped index solved
  on its own (`reference_index_step`). `ssm.compute_ssm` writes the swapped
  ones by conjugation; this is the form the conjugation must reproduce to
  roundoff.
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
* `reference_partials`: the record of explicit parameter partials with
  every derivative operator formed (dC = alpha_r dM + beta_r dK, then
  Lam dM + dC and dK + Lam dC + Lam^2 dM per index) and applied to one
  vector at a time. `ssm._build_partials` forms no operator: it multiplies
  one block of all the indices' vectors by dM and by dK and combines the
  columns, so the two agree to roundoff.
* `first_order_operators`: the matrices of the equivalent first-order form.
  `ssm.invariance_residual` works in the second-order form; the first-order
  one is the independent reference its tests compare with.
* `reference_stack`: per-parameter tensors stacked as rows p*n + i by one
  vstack of their index tables. `ParamDerivatives.stack` writes each index
  column in place instead; the two must give the same entries in the same
  order bit for bit. `beam_param_tensors`
  differences the beam's per-parameter tensors as `models.build_vk_beam`
  does, before it stacks them.
* `param_tensors`, `param_matrices` and `pick_params`: the per-parameter
  tensors sliced back out of a `ParamDerivatives`' stacked ones, every
  parameter's dM and dK (zero for a parameter that is not a matrix
  parameter), and a `ParamDerivatives` of chosen parameters of others,
  stacked again. Tests that build or read one operator per parameter go
  through them.
* `reference_validity_cap`: the validity-cap scan as one pair of `x_rms`
  calls per grid point. `backbone._scan_validity_cap` evaluates the whole
  grid in one pass and must give the same cap bit for bit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from ssmopt.backbone import (
    VALIDITY_DIVERGENCE,
    _linear_rho_scale,
    dx_drho,
    omega_of_rho,
    point_weights,
    rho_of_x,
    x_rms,
)
from ssmopt.errors import ConfigError, ModelError, assert_real_each
from ssmopt.fdcheck import fd_gradient
from ssmopt.mechmodel import (
    Linearization,
    MechModel,
    PairSums,
    ParamDerivatives,
    SymTensor,
    _accum,
    real_times,
)
from ssmopt import models
from ssmopt.models import FAMILIES, FD_ASSEMBLY_RELSTEP, VkBeamSpec
from ssmopt.multiindex import (
    all_indices,
    canonical_indices,
    order,
    resonant_slot,
    symmetric,
    table_row,
)
from ssmopt.sens_adjoint import AdjointState, solve_adjoint_phi_omega, solve_adjoint_rho
from ssmopt.sens_direct import eig_derivatives, lambda_derivative
from ssmopt.spectral import track_mode
from ssmopt import ssm
from ssmopt.ssm import SsmExpansion, compute_ssm, v_decomps


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
        tuple(params),
        tuple(range(len(params))),
        np.array(dM).reshape(-1, n, n),
        np.array(dK).reshape(-1, n, n),
        *(reference_stack(n, a, dT[a]) for a in (2, 3)),
    )
    return model, derivs


def beam_param_tensors(spec: VkBeamSpec, params: tuple[str, ...]) -> dict:
    """{arity: [dT_p]}: the beam's per-parameter tensor derivatives,
    differenced per full key over the union of both designs' keys as
    `models.build_vk_beam` differences them before it stacks them."""
    fields = FAMILIES["vk_beam"].params
    n = models._assemble_vk(spec)[0].shape[0]
    dT = {2: [], 3: []}
    for p in params:
        fld = fields[p]
        mu = getattr(spec, fld)
        h = FD_ASSEMBLY_RELSTEP * (1.0 + abs(mu))
        plus = models._assemble_vk(replace(spec, **{fld: mu + h}))
        minus = models._assemble_vk(replace(spec, **{fld: mu - h}))
        for arity, (cp, vp), (cm, vm) in zip((2, 3), plus[2], minus[2]):
            codes, at = np.unique(np.concatenate([cp, cm]), return_inverse=True)
            a, b = np.zeros(len(codes)), np.zeros(len(codes))
            a[at[: len(cp)]] = vp
            b[at[len(cp) :]] = vm
            dT[arity].append(models._sym_tensor(n, arity, codes, (a - b) / (2 * h)))
    return dT


def reference_stack(n: int, arity: int, tensors) -> SymTensor:
    """The per-parameter tensors of dimension n as one tensor whose row
    p*n + i is row i of tensors[p]: their index tables stacked by one
    vstack, each receiving index offset by its parameter's p*n. Tensors
    without entries add none."""
    parts = [(p, t) for p, t in enumerate(tensors) if t.nnz]
    if not parts:
        return SymTensor.empty(len(tensors) * n, arity)
    pid = np.concatenate([np.full(t.nnz, p) for p, t in parts])
    idx = np.vstack([t.idx for _, t in parts])
    idx[:, 0] += pid * n
    vals = np.concatenate([t.vals for _, t in parts])
    return SymTensor(len(tensors) * n, idx, vals)


def param_tensors(params: ParamDerivatives, arity: int) -> list[SymTensor]:
    """Each parameter's tensor of the stacked dT2 (arity 2) or dT3 (arity
    3): the entries of rows p*n .. p*n + n - 1 in stacked order, their
    receiving index less p*n."""
    T = params.dT2 if arity == 2 else params.dT3
    n = T.n // max(params.count, 1)
    out = []
    for p in range(params.count):
        at = T.cols[0] // n == p
        idx = T.idx[at]
        idx[:, 0] -= p * n
        out.append(SymTensor(n, idx, T.vals[at]))
    return out


def param_matrices(params: ParamDerivatives) -> list[tuple[np.ndarray, np.ndarray]]:
    """(dM_p, dK_p) of every parameter p: its slices of the dM and dK stacks
    when `matrix_params` declares it, else zero matrices."""
    n = params.dM.shape[1]
    slot = {p: k for k, p in enumerate(params.matrix_params)}
    return [
        (params.dM[slot[p]], params.dK[slot[p]]) if p in slot else (np.zeros((n, n)),) * 2
        for p in range(params.count)
    ]


def pick_params(chosen) -> ParamDerivatives:
    """The parameters (source, p) in `chosen`, in that order, as one
    `ParamDerivatives`: each one's matrices (when its source declares it a
    matrix parameter) and sliced tensors (`param_tensors`) taken from its
    source and stacked again. The sources share one model size."""
    sliced = {id(src): {a: param_tensors(src, a) for a in (2, 3)} for src, _ in chosen}
    return ParamDerivatives.stack(
        chosen[0][0].dM.shape[1],
        names=[src.names[p] for src, p in chosen],
        matrices={
            i: param_matrices(src)[p] for i, (src, p) in enumerate(chosen) if p in src.matrix_params
        },
        dT2=[sliced[id(src)][2][p] for src, p in chosen],
        dT3=[sliced[id(src)][3][p] for src, p in chosen],
    )


def reference_validity_cap(exp: SsmExpansion, dof_index: int) -> float:
    """The validity-cap scan one grid point at a time: rho grows by a factor
    1.25 per step, at most 200 times, until the full amplitude is zero or
    the truncation two orders lower misses it by more than
    VALIDITY_DIVERGENCE."""
    lower = max(exp.order - 2, 1)
    rho = _linear_rho_scale(exp, dof_index)
    for _ in range(200):
        xf = x_rms(exp, dof_index, rho)
        xl = x_rms(exp, dof_index, rho, max_order=lower)
        if xf == 0.0 or abs(xf - xl) > VALIDITY_DIVERGENCE * xf:
            return rho
        rho *= 1.25
    return rho


@dataclass
class IndexCoeffs:
    """Coefficients and solver data for one multi-index of order >= 2, the
    per-index form of an expansion's tables and order plans."""

    m: tuple
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


def conjugate_record(rec: IndexCoeffs) -> IndexCoeffs:
    """The record of the swapped index: every field conjugated, the R pair's
    slots exchanged."""
    return IndexCoeffs(
        m=symmetric(rec.m),
        w=np.conj(rec.w),
        wdot=np.conj(rec.wdot),
        R=np.conj(rec.R[::-1]),
        Lam=np.conj(rec.Lam),
        V=np.conj(rec.V),
        Vdot=np.conj(rec.Vdot),
        C=np.conj(rec.C),
        D=None if rec.D is None else np.conj(rec.D),
        slot=None if rec.slot is None else 1 - rec.slot,
        den=None if rec.den is None else np.conj(rec.den),
    )


def index_record(exp: SsmExpansion, m) -> IndexCoeffs:
    """The record of any index m of order >= 2 of an expansion: w, wdot and
    R are m's rows of its tables, and the rest the column of m's order plan
    or, at a swapped index, the canonical partner's column conjugated."""
    c = max(m, symmetric(m))
    plan, t = plan_column(exp, c)
    res = (plan.D, plan.slot, plan.den) if t == plan.res else (None, None, None)
    vectors = (exp.w(c), exp.wdot(c), exp.R(c), plan.Lam[t], plan.V[:, t], plan.Vdot[:, t])
    rec = IndexCoeffs(c, *vectors, plan.C[:, t], *res)
    if c != m:
        rec = conjugate_record(rec)
    return replace(rec, w=exp.w(m), wdot=exp.wdot(m), R=exp.R(m))


def write_record(exp: SsmExpansion, rec: IndexCoeffs):
    """rec's w, wdot and R into its index's rows of the expansion's tables."""
    row = table_row(rec.m, 1)
    exp.W[row], exp.Wdot[row], exp.Rpairs[row] = rec.w, rec.wdot, rec.R


def formed_solve(model: MechModel, exp, rec, rhs: np.ndarray, border=0.0):
    """(x, s) from `np.linalg.solve` with the formed operator L_m =
    model.at(rec.Lam) of any index's record, bordered at a resonant index:
    [[L_m, M phi], [(M phi)^T, 0]] [x; s] = [rhs; border]. s is 0.0 at a
    plain index."""
    A = model.at(rec.Lam)
    if rec.slot is None:
        return np.linalg.solve(A, rhs), 0.0
    Mphi = exp.Mphi[:, None]
    A = np.block([[A, Mphi], [Mphi.T, np.zeros((1, 1))]])
    x = np.linalg.solve(A, np.append(rhs, border))
    return x[:-1], x[-1]


def plan_column(exp: SsmExpansion, m):
    """(plan, t): the `OrderPlan` of the canonical index m and m's column."""
    plan = exp.plans[order(m) - 2]
    return plan, plan.indices.index(m)


def modal_solve(model: MechModel, exp: SsmExpansion, rec, rhs: np.ndarray, border=0.0):
    """`formed_solve` in the model's modes: the modal diagonal of L_m is the
    plan's column of the index or, at a swapped index, of its canonical
    partner conjugated."""
    m = rec.m
    plan, t = plan_column(exp, max(m, symmetric(m)))
    d = plan.d[:, t] if m[0] >= m[1] else np.conj(plan.d[:, t])
    return exp._modal_solve(d, None if rec.slot is None else ..., rhs, border)


class _IndexBars:
    """The reference sweep's accumulators, one dict entry per index: the
    bars of w_m, wdot_m and the R_m pair read zero where nothing has pushed
    yet. V_m's bar is not stored: the wdot step at m makes it and the index
    step at m, its one reader, takes it as an argument."""

    def __init__(self, n: int):
        self.w = defaultdict(lambda: np.zeros(n, dtype=complex))
        self.wdot = defaultdict(lambda: np.zeros(n, dtype=complex))
        self.R = defaultdict(lambda: np.zeros(2, dtype=complex))
        self.phi = np.zeros(n, dtype=complex)
        self.lam = np.zeros(2, dtype=complex)  # bars of the eigenvalue pair
        self.omega = 0.0


def _add_lam_bar(bars: _IndexBars, m, value: complex):
    bars.lam[0] += m[0] * value
    bars.lam[1] += m[1] * value


def _backprop_wdot(exp, bars: _IndexBars, m, rec, b):
    """Reverse of wdot_m = Lam_m w_m + (R_m[0] + R_m[1]) phi + V_m for the bar
    b but its V_m term: b is V_m's bar, which the index step at m takes."""
    bars.w[m] += rec.Lam * b
    if rec.slot is not None:
        bars.R[m][rec.slot] += b @ exp.master.phi
    bars.phi += (rec.R[0] + rec.R[1]) * b
    _add_lam_bar(bars, m, b @ rec.w)


def pulled(table: PairSums, m, v: np.ndarray) -> dict:
    """`PairSums.pullback(m, v)` as {u: r_u}: its parts' rows in the
    `table_row` layout read back as indices."""
    parts, r = table.pullback(m, v)
    index = {table_row(u, 1): u for q in range(1, max(order(m), 2)) for u in all_indices(q)}
    return {index[k]: x for k, x in zip(parts, r)}


def _backprop_index(model: MechModel, exp, bars: _IndexBars, m, rec, lam_m, nu_m, vbar):
    """Reverse of the cohomological step at m, one index at a time, for the
    adjoint pair (lam_m, nu_m) and the bar vbar of V_m that the wdot step at
    m left, with the operator products formed from the record rec."""
    master = exp.master
    phi = master.phi
    M, C = model.M, model.C
    Mw = M @ rec.w

    _add_lam_bar(bars, m, lam_m @ (C @ rec.w + 2.0 * rec.Lam * Mw))
    bar_h = -lam_m
    bar_c = bar_h.copy()
    if rec.slot is not None:
        j = rec.slot
        bars.R[m][j] += bar_h @ rec.D
        bar_d = rec.R[j] * bar_h
        bars.phi -= (rec.Lam + master.lambda_pair[j]) * real_times(M, bar_d) + real_times(C, bar_d)
        sc = -(bar_d @ exp.Mphi)
        _add_lam_bar(bars, m, sc)
        bars.lam[j] += sc
    if nu_m != 0.0:
        bars.phi += nu_m * Mw
    if rec.slot is not None:
        j = rec.slot
        g = bars.R[m][j]
        if g != 0.0:
            bar_c += (g / rec.den) * phi
            bars.phi += (g / rec.den) * rec.C
            t = -g * rec.R[j] / rec.den
            _add_lam_bar(bars, m, t)
            bars.lam[j] += t
            bars.omega += t * 2.0 * model.beta_r * master.omega

    M_bar_c = real_times(M, bar_c)
    bar_vdot = -M_bar_c
    bar_v = vbar - (rec.Lam * M_bar_c + real_times(C, bar_c))
    bar_f = -bar_c
    _add_lam_bar(bars, m, -(bar_c @ (M @ rec.V)))
    for u, j, k in v_decomps(m, exp.r_orders()):
        Rkj = exp.R(k)[j]
        bars.w[u] += u[j] * Rkj * bar_v
        bars.R[k][j] += u[j] * (bar_v @ exp.w(u))
        bars.wdot[u] += u[j] * Rkj * bar_vdot
        bars.R[k][j] += u[j] * (bar_vdot @ exp.wdot(u))
    for table in exp.tables:
        for u, bar_u in pulled(table, m, bar_f).items():
            if order(u) == 1:
                bars.phi += bar_u
            else:
                bars.w[u] += bar_u


@dataclass
class ReferenceAdjoint:
    """Adjoint variables by index: lambda_m {m: (n,)}, nu_m and r_bar {m:
    scalar} of the resonant indices, and the mode-shape and frequency
    adjoints. `reference_adjoint` fills the dicts at every index,
    `adjoint_by_index` at the canonical ones."""

    lambda_m: dict
    nu_m: dict
    r_bar: dict
    lambda_phi: np.ndarray
    lambda_omega: float


def adjoint_by_index(exp: SsmExpansion, state: AdjointState) -> ReferenceAdjoint:
    """`sens_adjoint.AdjointState` read back by canonical index of order
    >= 2: lambda_m m's row of the lambda table, nu_m and r_bar the entries
    of the resonant index's order plan."""
    lambda_m, nu_m, r_bar = {}, {}, {}
    for plan, nu, rb in zip(exp.plans, state.nu, state.r_bar):
        lambda_m.update(zip(plan.indices, state.lam[plan.rows]))
        if plan.res is not None:
            m = plan.indices[plan.res]
            nu_m[m], r_bar[m] = nu, rb
    return ReferenceAdjoint(lambda_m, nu_m, r_bar, state.lambda_phi, state.lambda_omega)


def reference_adjoint(
    model: MechModel, exp, dof_index: int, rho: float, solve=formed_solve
) -> ReferenceAdjoint:
    """Adjoint variables from a reverse sweep over every index.

    Each index, swapped ones included, reverses its own wdot and
    cohomological steps; each is solved with its own formed operator
    (`formed_solve`), not the modal diagonal the canonical records keep,
    unless `solve` (same arguments) says otherwise. Every bar is read where
    it was pushed, so nothing is folded and the objective's seeds count at
    full weight. The dicts cover every index. Each
    index's operator products are formed here from its own record (the
    expansion's plans keep them for the canonical indices only); M phi and
    the mode-shape solve are the expansion's (`SsmExpansion.mode_solve`).
    """
    bars = _IndexBars(model.n)
    pw = point_weights(exp, dof_index, rho)
    # the objective's seeds at full weight
    bars.lam += pw.lam
    for (a, slot), wt in pw.R:
        bars.R[a][slot] += wt
    for m, coef in pw.amplitude(solve_adjoint_rho(pw)).items():
        if order(m) == 1:
            bars.phi[dof_index] += coef
        else:
            bars.w[m][dof_index] += coef

    lambda_m: dict = {}
    nu_m: dict = {}
    for q in range(exp.order, 1, -1):
        idx_q = all_indices(q)
        # each index's wdot bar is also its V bar, read by its index step
        vbar = {m: bars.wdot.pop(m, np.zeros(model.n, complex)) for m in idx_q}
        for m in idx_q:
            _backprop_wdot(exp, bars, m, index_record(exp, m), vbar[m])
        for m in idx_q:
            rhs = -bars.w.pop(m, np.zeros(model.n, complex))
            rec = index_record(exp, m)
            lam, nu = solve(model, exp, rec, rhs)
            lambda_m[m] = lam
            if rec.slot is not None:
                nu_m[m] = nu
        for m in idx_q:
            rec = index_record(exp, m)
            _backprop_index(model, exp, bars, m, rec, lambda_m[m], nu_m.get(m, 0.0), vbar[m])

    lambda_phi, lambda_omega = solve_adjoint_phi_omega(exp, bars)
    r_bar = {m: bars.R[m][resonant_slot(m)] for m in nu_m}
    return ReferenceAdjoint(lambda_m, nu_m, r_bar, lambda_phi, lambda_omega)


def reference_forward(lin: Linearization, dw) -> np.ndarray:
    """A one-index linearization (`PairSums.linearize`) applied to the
    derivative vectors `dw(u)`: sum over (u, slot) of coef * dw(u) at the
    slot's key column, expanded to the receiving rows in one accumulation."""
    T = lin.tensor
    if not lin.rows:
        return np.zeros(T.n, dtype=complex)
    key_cols, key_of = T.key_pattern
    slots = np.fromiter((slot for _, slot in lin.rows), np.intp, len(lin.rows))
    flat = key_cols[slots] + (np.arange(len(lin.rows)) * T.n)[:, None]
    table = np.array([dw(u) for u, _ in lin.rows])
    G = np.einsum("rk,rk->k", lin.coef, table.ravel().take(flat))
    return _accum(T.cols[0], T.vals * G[key_of], T.n)


class _IndexPass:
    """One parameter's forward pass of `reference_walk`, one index at a
    time: its derivatives by index in dicts, the swapped indices' as
    conjugate copies."""

    def __init__(self, exp: SsmExpansion, dphi, domega, dMphi):
        model = exp.model
        self.exp = exp
        self.domega = domega
        _, dlam = lambda_derivative(exp.master, model.alpha_r, model.beta_r, domega)
        self.dlam_pair = np.array([dlam, np.conj(dlam)])
        self.dphi = dphi.astype(complex)
        self.matrix = dMphi is not None
        self.dMphi = np.zeros(model.n, dtype=complex)
        if self.matrix:
            self.dMphi = dMphi + real_times(model.M, self.dphi)
        self.dw = {(1, 0): self.dphi, (0, 1): self.dphi}
        self.dwdot: dict = {}
        self.dR: dict = {}

    def step(self, rec: IndexCoeffs, lins, v_terms, pf, dense):
        m, exp = rec.m, self.exp
        model, master, phi = exp.model, exp.master, exp.master.phi
        M, C = model.M, model.C
        pC, Aw, Vphi = dense or (None,) * 3
        dlam_pair = self.dlam_pair
        Lam = rec.Lam
        dLam = m[0] * dlam_pair[0] + m[1] * dlam_pair[1]
        plan, t = plan_column(exp, m)
        MV, Lw = (plan.MV[:, t], plan.Lw[:, t]) if self.matrix else (0.0, 0.0)

        df = pf + sum(reference_forward(lin, self.dw.__getitem__) for lin in lins)
        dV = dVdot = 0.0
        dC = -df - dLam * MV
        if v_terms:
            for u, j, k, uj, Rkj in v_terms:
                dRkj = self.dR[k][j]
                dV = dV + uj * (self.dw[u] * Rkj + exp.w(u) * dRkj)
                dVdot = dVdot + uj * (self.dwdot[u] * Rkj + exp.wdot(u) * dRkj)
            dC = dC - real_times(M, dVdot) - (Lam * real_times(M, dV) + real_times(C, dV))
        if pC is not None:
            dC = dC + pC

        dR = np.zeros(2, dtype=complex)
        dh = dC
        if rec.slot is not None:
            j = rec.slot
            dlj = dLam + dlam_pair[j]
            dden = dlj + 2.0 * model.beta_r * master.omega * self.domega
            dR[j] = (self.dphi @ rec.C + phi @ dC) / rec.den - rec.R[j] * dden / rec.den
            dD = -dlj * exp.Mphi
            if Vphi is not None:
                lj = Lam + master.lambda_pair[j]
                dD = dD - (lj * real_times(M, self.dphi) + real_times(C, self.dphi)) - Vphi
            dh = dC + dD * rec.R[j] + rec.D * dR[j]

        dLw = dLam * Lw
        if Aw is not None:
            dLw = dLw + Aw
        dw, _ = modal_solve(model, exp, rec, dh - dLw, -(self.dMphi @ rec.w))
        self.dw[m] = dw
        self.dwdot[m] = (
            dLam * rec.w + Lam * dw + dV + (dR[0] + dR[1]) * phi + (rec.R[0] + rec.R[1]) * self.dphi
        )
        if rec.slot is not None:
            self.dR[m] = dR
        if m[0] != m[1]:
            ms = symmetric(m)
            self.dw[ms] = np.conj(dw)
            self.dwdot[ms] = np.conj(self.dwdot[m])
            if rec.slot is not None:
                self.dR[ms] = np.conj(dR[::-1])


@dataclass
class ReferenceWalk:
    """`reference_walk`'s derivatives: dw {m: (P, n)} of every index, dR
    {m: (P, 2)} of every resonant index of order >= 3 and dlam (P, 2)."""

    dw: dict
    dR: dict
    dlam: np.ndarray


def reference_walk(model: MechModel, exp: SsmExpansion, params: ParamDerivatives) -> ReferenceWalk:
    """The direct walk one canonical index at a time, every parameter's pass
    stepping at each index in ascending order. `sens_direct._walk` steps
    through whole orders, each order's indices one column of a block; this
    is the per-index form it reassociates, with each index's linearizations
    applied by `reference_forward`."""
    record = exp.partials(params)
    dphi_all, domega_all = eig_derivatives(exp, params, record.eig)
    rows = {p: k for k, p in enumerate(params.matrix_params)}
    dMphi = dict(zip(params.matrix_params, record.eig[1]))
    passes = [
        _IndexPass(exp, dphi_all[p], domega_all[p], dMphi.get(p)) for p in range(params.count)
    ]
    r_orders = exp.r_orders()
    for m, pf, (pC, Aw, Vphi, _) in partials_by_index(exp, record):
        rec = index_record(exp, m)
        lins = [table.linearize(m) for table in exp.tables]
        v_terms = [(u, j, k, u[j], exp.R(k)[j]) for u, j, k in v_decomps(m, r_orders)]
        for p, ps in enumerate(passes):
            k = rows.get(p)
            dense = None if k is None else (pC[k], Aw[k], None if Vphi is None else Vphi[k])
            ps.step(rec, lins, v_terms, pf[p], dense)
    resonant = [m for m in exp.indices if order(m) > 1 and resonant_slot(m) is not None]
    return ReferenceWalk(
        {m: np.array([ps.dw[m] for ps in passes]).reshape(-1, model.n) for m in exp.indices},
        {m: np.array([ps.dR[m] for ps in passes]).reshape(-1, 2) for m in resonant},
        np.array([ps.dlam_pair for ps in passes]).reshape(-1, 2),
    )


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
    (`sens_direct._Record`, one row per index in the `table_row` layout)
    and the backbone point's weights, before the realness check: per
    parameter, drho sums a * dw_m[dof_index] over the amplitude weights and
    dOmega sums the eigenvalue pair's and R's weighted derivatives, each in
    the order of the weights."""

    def dw_at(p, m):
        return record.dw[p, table_row(m, 1), dof_index]

    def dR_at(p, m, slot):
        return record.dR[p, table_row(m, 1), slot]

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


def reference_index_step(model: MechModel, exp: SsmExpansion, m) -> IndexCoeffs:
    """The coefficients at one multi-index of any kind from all lower
    orders, one index on its own: the force, the coupling sums V and Vdot
    added term by term, C_m, at a resonant index R_m and h = C_m + D R_m,
    and the modal diagonal d of L_m that the solve divides by. The
    expansion's tables must reach m's order. No check runs."""
    master, phi, lam_pair = exp.master, exp.master.phi, exp.master.lambda_pair
    Lam = m[0] * lam_pair[0] + m[1] * lam_pair[1]
    f = np.zeros(model.n, dtype=complex)
    for table in exp.tables:
        f += table.force(m)
    V = np.zeros(model.n, dtype=complex)
    Vdot = np.zeros(model.n, dtype=complex)
    for u, j, k in v_decomps(m, exp.r_orders()):
        coef = u[j] * exp.R(k)[j]
        V += coef * exp.w(u)
        Vdot += coef * exp.wdot(u)
    MV = real_times(model.M, V)
    C_m = -real_times(model.M, Vdot) - (Lam * MV + real_times(model.C, V)) - f

    slot = resonant_slot(m)
    w2 = model.modes[0] ** 2
    d = (1.0 + model.beta_r * Lam) * w2 + Lam * (Lam + model.alpha_r)
    R = np.zeros(2, dtype=complex)
    D = den = None
    h = C_m
    if slot is not None:
        lam_j = lam_pair[slot]
        den = Lam + lam_j + model.alpha_r + model.beta_r * master.omega**2
        R[slot] = (phi @ C_m) / den
        D = -((Lam + lam_j) * exp.Mphi + exp.Cphi)
        h = C_m + D * R[slot]
    w, _ = exp._modal_solve(d, None if slot is None else ..., h, 0.0)
    if m[0] == m[1]:
        w = w.real.astype(complex)
        for arr in (V, Vdot, C_m):
            arr.imag = 0.0
    wdot = Lam * w + (R[0] + R[1]) * phi + V
    return IndexCoeffs(m, w, wdot, R, Lam, V, Vdot, C_m, D, slot, den)


def reference_ssm(model: MechModel, master, order_: int) -> tuple[SsmExpansion, dict]:
    """(exp, records): the expansion up to `order_` with every canonical
    index solved on its own (`reference_index_step`), in ascending order,
    and the swapped ones written by conjugation (`conjugate_record`), and
    the record of every index of order >= 2. The expansion keeps no order
    plans."""
    exp = SsmExpansion(model, master)
    records = {}
    for q in range(exp.order + 1, order_ + 1):
        exp._grow(q)
        for table in exp.tables:
            table.extend(exp.W, q)
        for m in canonical_indices(q):
            rec = reference_index_step(model, exp, m)
            for r in (rec, conjugate_record(rec)) if m[0] != m[1] else (rec,):
                records[r.m] = r
                write_record(exp, r)
        exp.order = q
    return exp, records


def reference_full_set_ssm(model: MechModel, master, order_: int) -> SsmExpansion:
    """Expansion up to `order_` whose swapped indices are each solved on
    their own (`reference_index_step`) instead of conjugated, their w, wdot
    and R written over the conjugates in the expansion's tables. Each
    order's canonical indices, and the plans that the sensitivity passes
    read, are the expansion's own step (`ssm.step_order`) on the lower
    orders of this expansion."""
    exp = SsmExpansion(model, master)
    while exp.order < order_:
        ssm.step_order(exp)
        for m in all_indices(exp.order):
            if m[0] < m[1]:
                write_record(exp, reference_index_step(model, exp, m))
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
        return Linearization(T, (), np.zeros((0, 0), dtype=complex), np.zeros((0, 0), np.intp))
    key_cols, _ = T.key_pattern
    coef: dict = {}
    for d in parts:
        for slot, u in enumerate(d):
            others = [w(t)[key_cols[o]] for o, t in enumerate(d) if o != slot]
            term = others[0]
            for g in others[1:]:
                term = term * g
            coef[u, slot] = coef[u, slot] + term if (u, slot) in coef else term
    at = np.array([key_cols[slot] + table_row(u, 1) * T.n for u, slot in coef])
    return Linearization(T, tuple(coef), np.array(list(coef.values())), at)


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


def reference_partials(exp: SsmExpansion, params: ParamDerivatives) -> tuple[dict, list]:
    """({(m, p): (pC, Aw, Vphi, phiMw)}, eig) of the record of explicit
    partials (`ssm.Partials`) over the canonical indices of order >= 2 and
    the matrix parameters, each operator formed, then applied: pC = -dM
    Vdot_m - (Lam_m dM + dC) V_m, Aw = (dK + Lam_m dC + Lam_m^2 dM) w_m and,
    at a resonant index only, Vphi = ((Lam_m + lambda_j) dM + dC) phi and
    phiMw = phi . dM w_m; eig holds (p, (dK - omega^2 dM) phi, dM phi)."""
    model, master, phi = exp.model, exp.master, exp.master.phi
    dense = {}
    for m in exp.indices:
        if m[0] + m[1] < 2 or m[0] < m[1]:
            continue
        rec = index_record(exp, m)
        for p, dM, dK in zip(params.matrix_params, params.dM, params.dK):
            dC = model.alpha_r * dM + model.beta_r * dK
            Vphi = phiMw = None
            if rec.slot is not None:
                Vphi = ((rec.Lam + master.lambda_pair[rec.slot]) * dM + dC) @ phi
                phiMw = phi @ (dM @ rec.w)
            dense[m, p] = (
                -dM @ rec.Vdot - (rec.Lam * dM + dC) @ rec.V,
                (dK + rec.Lam * dC + rec.Lam**2 * dM) @ rec.w,
                Vphi,
                phiMw,
            )
    omega = master.omega
    eig = [
        (p, (dK - omega**2 * dM) @ phi, dM @ phi)
        for p, dM, dK in zip(params.matrix_params, params.dM, params.dK)
    ]
    return dense, eig


def partials_by_index(exp: SsmExpansion, record: ssm.Partials) -> list:
    """The record of explicit partials (`ssm.Partials`) read back by
    canonical index of order >= 2, ascending: (m, pf, (pC, Aw, Vphi,
    phiMw)) with pf (P, n), pC and Aw (P_M, n), and Vphi and phiMw the
    order's at its resonant index, else None."""
    out = []
    for plan, (pf, pC, Aw, Vphi, phiMw) in zip(exp.plans, record.orders):
        for t, m in enumerate(plan.indices):
            res = (Vphi, phiMw) if t == plan.res else (None, None)
            out.append((m, pf[t], (pC[:, t], Aw[:, t], *res)))
    return out


def reference_contraction(
    model: MechModel, exp: SsmExpansion, adjoint: AdjointState, params: ParamDerivatives
) -> np.ndarray:
    """dOmega/dmu of `sens_adjoint.contract_gradient`, one canonical index
    at a time: each index's term from its own adjoint variables
    (`adjoint_by_index`) and record entries (`partials_by_index`), one dot
    per matrix parameter, and its conjugate added for the swapped index."""
    exp.check_model(model)
    record = exp.partials(params)
    phi = exp.master.phi
    by_index = adjoint_by_index(exp, adjoint)

    accum = np.zeros(params.count, dtype=complex)
    for m, pf, (pC, Aw, Vphi, phiMw) in partials_by_index(exp, record):
        lam = by_index.lambda_m[m]
        j = resonant_slot(m)
        bar_c = -lam
        if j is not None:
            bar_c = bar_c + (by_index.r_bar[m] / exp.plans[order(m) - 2].den) * phi

        term = -(pf @ bar_c)
        for k, p in enumerate(params.matrix_params):
            term[p] += bar_c @ pC[k] + lam @ Aw[k]
            if j is not None:
                term[p] += exp.R(m)[j] * (lam @ Vphi[k])
                term[p] += by_index.nu_m[m] * phiMw[k]
        accum += term
        if m[0] != m[1]:
            accum += np.conj(term)

    for p, modal_phi, dMphi in zip(params.matrix_params, *record.eig):
        accum[p] += adjoint.lambda_phi @ modal_phi
        accum[p] += adjoint.lambda_omega * (phi @ dMphi)
    return assert_real_each(accum, "gradient", params.names)


def first_order_operators(model: MechModel) -> tuple[np.ndarray, np.ndarray]:
    """Matrices (B, A) of the equivalent first-order form B z' = A z + F(z),
    z = (x, v), F = (-f(x), 0)."""
    n = model.n
    B = np.zeros((2 * n, 2 * n))
    B[:n, :n] = model.C
    B[:n, n:] = model.M
    B[n:, :n] = model.M
    A = np.zeros((2 * n, 2 * n))
    A[:n, :n] = -model.K
    A[n:, n:] = model.M
    return B, A
