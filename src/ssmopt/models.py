"""Built-in parametrized model generators.

Two families:

* Grounded oscillator chains with per-spring quadratic/cubic forces. Each
  mass i feels, from every attached spring, the force
  ``k*d + k2*d**2 + k3*d**3`` with ``d = x_i - x_neighbor`` (ground
  displacement zero). One table of spring terms per power, each term
  labelled with its spring, builds K (power 1), T2 and T3. The analytic
  derivatives are the operators at unit coefficient, the nominal ones the
  coefficient times them, and each per-spring k3 takes its spring's terms.

* Clamped-clamped geometrically nonlinear beam assembled from 2-node
  elements with linear axial and cubic Hermite transverse interpolation and
  axial strain ``u' + w'**2 / 2``. The initial shape enters through the nodal
  coordinates (a sine-series heightmap), which activates quadratic
  axial-bending coupling for curved shapes. Each design is assembled in one
  batched pass: the element quantities carry a leading element axis, the
  rotation to global DOFs is one batched product per operator, and the
  element contributions are scattered by key (`bincount`). Parameter
  derivatives are central finite differences of the assembly (nominal and
  +/- design of each parameter), so their roundoff is part of the result:
  one-ulp changes in the element quantities move the beam gradients by as
  much as 1.6e-6 relative. The batched pass therefore performs each element's
  arithmetic in the same order as an element-by-element assembly and sums
  the elements in element order (`tests/oracles.py` holds that reference).

`FAMILIES` maps each family's config `type` to its spec class, its design
parameters (name -> spec field) and its builder.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from math import comb

import numpy as np

from .errors import ConfigError, ModelError
from .mechmodel import MechModel, ParamDerivatives, SymTensor

FD_ASSEMBLY_RELSTEP = 1e-6


def _check_finite(spec):
    """ModelError naming the first numeric field of a family spec that is not
    finite (NaN and Infinity pass a JSON reader); a width of None is allowed."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if value is not None and not np.isfinite(value):
            raise ModelError(f"{f.name} must be a finite number, got {value}")


# -- oscillator chains -------------------------------------------------------


@dataclass(frozen=True)
class ChainSpec:
    """Chain of masses, the first one grounded through a spring."""

    n_masses: int = 2
    mass: float = 1.0
    k: float = 1.0
    k2: float = 0.5
    k3: float = 0.2
    alpha_r: float = 0.0
    beta_r: float = 0.1


def _spring_terms(n: int, power: int):
    """(spring, ids, vals): every spring's terms of (x_i - x_o)**power on each
    mass i it acts on, at unit coefficient. Spring 0 joins mass 0 to the
    ground (x_o = 0, term a = 0 only); spring s > 0 joins masses s - 1 and s.
    Term a holds i power + 1 - a times, then o a times, and the weight
    comb(power, a) * (-1)**a; ids holds one index column per row."""
    s = np.arange(1, n)
    spring = np.concatenate([[0], s, s])
    mass = np.concatenate([[0], s - 1, s])
    other = np.concatenate([[0], s, s - 1])
    a = np.arange(power + 1)
    kept = (spring[:, None] > 0) | (a == 0)
    column = np.arange(power + 1)[:, None, None]  # then end, then term
    ids = np.where(column <= power - a, mass[:, None], other[:, None])
    weights = np.array([comb(power, b) * (-1) ** b for b in a], float)
    spring = np.broadcast_to(spring[:, None], kept.shape)
    return spring[kept], ids[:, kept], np.broadcast_to(weights, kept.shape)[kept]


def build_chain(
    spec: ChainSpec, params: tuple[str, ...] | None = None
) -> tuple[MechModel, ParamDerivatives]:
    """Chain model plus analytic derivatives for the selected shared parameters
    (default: every parameter of the chain family)."""
    if params is None:
        params = tuple(FAMILIES["chain"].params)
    _check_finite(spec)
    n = spec.n_masses
    if n < 1 or spec.mass <= 0:
        raise ModelError("chain needs at least one mass with positive mass value")
    _, ids, unit = _spring_terms(n, 1)
    K, K1 = np.zeros((n, n)), np.zeros((n, n))
    np.add.at(K, tuple(ids), spec.k * unit)
    np.add.at(K1, tuple(ids), unit)
    T2u, T3u = (SymTensor.canonical(n, *_spring_terms(n, p)[1:]) for p in (2, 3))
    # each unit value is a nonzero integer: only a zero coefficient zeroes one
    T2, T3 = (
        SymTensor(n, T.idx, coef * T.vals) if coef else SymTensor.empty(n, T.arity)
        for T, coef in ((T2u, spec.k2), (T3u, spec.k3))
    )
    model = MechModel(
        M=spec.mass * np.eye(n),
        K=K,
        alpha_r=spec.alpha_r,
        beta_r=spec.beta_r,
        T2=T2,
        T3=T3,
    )
    E2, E3 = SymTensor.empty(n, 2), SymTensor.empty(n, 3)
    # (dM, dK) of the matrix parameters; k2 and k3 move only the tensors
    matrices = {"mass": (np.eye(n), np.zeros((n, n))), "k": (np.zeros((n, n)), K1)}
    tensors = {"mass": (E2, E3), "k": (E2, E3), "k2": (T2u, E3), "k3": (E2, T3u)}
    unknown = [p for p in params if p not in tensors]
    if unknown:
        raise ConfigError(f"unknown chain parameters: {unknown}")
    derivs = ParamDerivatives.stack(
        n,
        names=tuple(params),
        matrices={i: matrices[p] for i, p in enumerate(params) if p in matrices},
        dT2=[tensors[p][0] for p in params],
        dT3=[tensors[p][1] for p in params],
    )
    return model, derivs


def chain_per_spring_k3(spec: ChainSpec, count: int) -> ParamDerivatives:
    """One design variable per spring: its cubic coefficient (first `count` springs)."""
    n = spec.n_masses
    if not 0 <= count <= n:
        raise ConfigError(f"chain has {n} springs, requested a count of {count}")
    spring, ids, unit = _spring_terms(n, 3)
    return ParamDerivatives.stack(
        n,
        names=tuple(f"k3_{s}" for s in range(count)),
        matrices={},
        dT2=[SymTensor.empty(n, 2)] * count,
        dT3=[SymTensor.canonical(n, ids[:, spring == s], unit[spring == s]) for s in range(count)],
    )


# -- von Karman beam ---------------------------------------------------------


@dataclass(frozen=True)
class VkBeamSpec:
    """Clamped-clamped beam with a two-harmonic sine heightmap.

    width=None means a square cross-section that tracks the thickness.
    """

    n_elements: int = 10
    length: float = 1.0
    thickness: float = 0.01
    width: float | None = None
    a1: float = 0.0
    a2: float = 0.0
    youngs: float = 90e9
    density: float = 7850.0
    alpha_r: float = 0.0
    beta_r: float = 0.0


_GAUSS_XI, _GAUSS_W = np.polynomial.legendre.leggauss(5)
_GAUSS_XI = 0.5 * (_GAUSS_XI + 1.0)  # map to [0, 1]
_GAUSS_W = 0.5 * _GAUSS_W


def _outer(*vecs: np.ndarray) -> np.ndarray:
    """Per-element outer product of (ne, 6) rows, multiplied left to right."""
    subs = "ijkl"[: len(vecs)]
    return np.einsum(",".join("e" + c for c in subs) + "->e" + subs, *vecs)


def _element_local(E: float, A: float, I: float, rho: float, Le: np.ndarray):
    """Local matrices/tensors of straight elements with lengths `Le`, one per
    element on the leading axis; DOFs (u1,w1,t1,u2,w2,t2)."""
    ne = len(Le)
    K = np.zeros((ne, 6, 6))
    M = np.zeros((ne, 6, 6))
    T2 = np.zeros((ne, 6, 6, 6))
    T3 = np.zeros((ne, 6, 6, 6, 6))
    # Le**2 through the C library's pow, as a Python float computes it: numpy
    # squares by one multiplication, which rounds differently about once in
    # a thousand, and the FD derivatives carry every such roundoff
    Le2 = np.array([le**2 for le in Le.tolist()])
    zero = np.zeros(ne)

    def rows(*cols):
        """(ne, 6) rows from six columns, each one value or one per element."""
        return np.column_stack([c + zero for c in cols])

    Bu = np.array([-1.0, 0, 0, 1.0, 0, 0]) / Le[:, None]
    for xi, wgt in zip(_GAUSS_XI, _GAUSS_W):
        dx = wgt * Le
        Nu = np.array([1 - xi, 0, 0, xi, 0, 0])
        H = rows(
            0,
            1 - 3 * xi**2 + 2 * xi**3,
            Le * (xi - 2 * xi**2 + xi**3),
            0,
            3 * xi**2 - 2 * xi**3,
            Le * (-(xi**2) + xi**3),
        )
        G = rows(
            0,
            (-6 * xi + 6 * xi**2) / Le,
            1 - 4 * xi + 3 * xi**2,
            0,
            (6 * xi - 6 * xi**2) / Le,
            -2 * xi + 3 * xi**2,
        )
        S = rows(
            0,
            (-6 + 12 * xi) / Le2,
            (-4 + 6 * xi) / Le,
            0,
            (6 - 12 * xi) / Le2,
            (-2 + 6 * xi) / Le,
        )
        K += dx[:, None, None] * (E * A * _outer(Bu, Bu) + E * I * _outer(S, S))
        M += (dx * rho * A)[:, None, None] * (np.outer(Nu, Nu) + _outer(H, H))
        # membrane coupling: EA * (w'^2/2 * du' + u'w' * dw') and EA/2 * w'^3 * dw'
        T2 += (dx * E * A)[:, None, None, None] * (0.5 * _outer(Bu, G, G) + _outer(G, Bu, G))
        T3 += (dx * 0.5 * E * A)[:, None, None, None, None] * _outer(G, G, G, G)
    return K, M, T2, T3


def _beam_nodes(spec: VkBeamSpec) -> np.ndarray:
    x = np.linspace(0.0, spec.length, spec.n_elements + 1)
    y = spec.a1 * np.sin(np.pi * x / spec.length) + spec.a2 * np.sin(
        2 * np.pi * x / spec.length
    )
    return np.column_stack([x, y])


def _merge_entries(Tg: np.ndarray, loc: np.ndarray, n: int):
    """Free-DOF entries of the rotated element tensors Tg (ne, 6, ..., 6).

    loc (ne, 6) holds the free-DOF index of each element DOF, -1 where it is
    clamped. Per element, values up to 1e-14 * max(1, max|Tg_e|) are
    dropped; so is every entry on a clamped DOF. Returns (codes, vals): the
    raveled full keys (i, j, k[, l]) in order of first appearance and their
    values summed over the elements in element order.
    """
    ne, slots = len(Tg), Tg.ndim - 1
    code, free = 0, True
    for a in range(slots):
        la = np.expand_dims(loc, tuple(b + 1 for b in range(slots) if b != a))
        code, free = code * n + la, free & (la >= 0)
    mag = np.abs(Tg)
    tol = 1e-14 * np.maximum(1.0, mag.reshape(ne, -1).max(axis=1))
    hit = np.flatnonzero(free & (mag > tol.reshape((ne,) + (1,) * slots)))
    codes = code.ravel()[hit]
    uniq, first, inv = np.unique(codes, return_index=True, return_inverse=True)
    sums = np.bincount(inv, Tg.ravel()[hit], minlength=len(uniq))
    order = np.argsort(first)
    return uniq[order], sums[order]


def _assemble_vk(spec: VkBeamSpec):
    """Free-DOF operators of one design after clamping, all elements in one
    batched pass: M, K dense, and (codes, vals) of T2 and T3 (`_merge_entries`)."""
    if spec.thickness <= 0 or spec.length <= 0:
        raise ModelError("beam thickness and length must be positive")
    if spec.n_elements < 2:
        raise ModelError("beam needs at least 2 elements")
    b = spec.width if spec.width is not None else spec.thickness
    if b <= 0:
        raise ModelError("beam width must be positive")
    A = b * spec.thickness
    I = b * spec.thickness**3 / 12.0
    ne = spec.n_elements
    d = np.diff(_beam_nodes(spec), axis=0)
    Le = np.hypot(d[:, 0], d[:, 1])
    if np.any(Le <= 0):
        raise ModelError("inverted or degenerate beam geometry")
    c, s = (d / Le[:, None]).T
    Kl, Ml, T2l, T3l = _element_local(spec.youngs, A, I, spec.density, Le)
    # rotation to global DOFs: the same 3x3 block at both nodes
    T = np.zeros((ne, 6, 6))
    for o in (0, 3):
        T[:, o, o] = T[:, o + 1, o + 1] = c
        T[:, o, o + 1] = s
        T[:, o + 1, o] = -s
        T[:, o + 2, o + 2] = 1.0
    Tt = T.transpose(0, 2, 1)
    ndof = 3 * (ne + 1)
    dofs = 3 * np.arange(ne)[:, None] + np.arange(6)
    flat = (dofs[:, :, None] * ndof + dofs[:, None, :]).ravel()
    # both end nodes are clamped (all three DOFs each): free DOF f is global
    # DOF f + 3, and loc is -1 on a clamped element DOF
    n = ndof - 6
    loc = dofs - 3
    loc[(loc < 0) | (loc >= n)] = -1

    def scatter(X):
        full = np.bincount(flat, (Tt @ X @ T).ravel(), minlength=ndof * ndof)
        return full.reshape(ndof, ndof)[3:-3, 3:-3]

    T2g = np.einsum("eijk,eia,ejb,ekc->eabc", T2l, T, T, T, optimize=True)
    T3g = np.einsum("eijkl,eia,ejb,ekc,eld->eabcd", T3l, T, T, T, T, optimize=True)
    return scatter(Ml), scatter(Kl), (_merge_entries(T2g, loc, n), _merge_entries(T3g, loc, n))


def _sym_tensor(n: int, arity: int, codes: np.ndarray, vals: np.ndarray) -> SymTensor:
    """SymTensor from raveled full keys and their values, rows in the given order."""
    return SymTensor.canonical(n, np.unravel_index(codes, (n,) * (arity + 1)), vals)


def build_vk_beam(
    spec: VkBeamSpec, params: tuple[str, ...] | None = None
) -> tuple[MechModel, ParamDerivatives]:
    """Beam model plus FD-of-assembly derivatives for shape/size parameters
    (default: every parameter of the vk_beam family). Tensor derivatives are
    differenced per full key, over the union of both designs' keys, before
    symmetrization."""
    field_of = FAMILIES["vk_beam"].params
    if params is None:
        params = tuple(field_of)
    _check_finite(spec)
    M, K, tensors = _assemble_vk(spec)
    n = M.shape[0]
    matrices, dT = {}, {2: [], 3: []}
    for i, p in enumerate(params):
        if p not in field_of:
            raise ConfigError(f"unknown beam parameter {p!r}")
        fld = field_of[p]
        mu = getattr(spec, fld)
        h = FD_ASSEMBLY_RELSTEP * (1.0 + abs(mu))
        plus = _assemble_vk(replace(spec, **{fld: mu + h}))
        minus = _assemble_vk(replace(spec, **{fld: mu - h}))
        # every beam parameter moves M and K, the flat beam's included
        matrices[i] = ((plus[0] - minus[0]) / (2 * h), (plus[1] - minus[1]) / (2 * h))
        for arity, (cp, vp), (cm, vm) in zip((2, 3), plus[2], minus[2]):
            codes, at = np.unique(np.concatenate([cp, cm]), return_inverse=True)
            a, b = np.zeros(len(codes)), np.zeros(len(codes))
            a[at[: len(cp)]] = vp
            b[at[len(cp) :]] = vm
            dT[arity].append(_sym_tensor(n, arity, codes, (a - b) / (2 * h)))
    derivs = ParamDerivatives.stack(n, params, matrices, dT[2], dT[3])
    # built last: freeing its eigh's workspace raises glibc's mmap threshold,
    # which kept the assemblies' temporaries on the heap (vk_beam40: +3 MB RSS)
    model = MechModel(
        M=M,
        K=K,
        alpha_r=spec.alpha_r,
        beta_r=spec.beta_r,
        T2=_sym_tensor(n, 2, *tensors[0]),
        T3=_sym_tensor(n, 3, *tensors[1]),
    )
    return model, derivs


def vk_center_dof(spec: VkBeamSpec) -> int:
    """Free-DOF index of the transverse displacement at the beam midpoint node."""
    if spec.n_elements % 2 != 0:
        raise ConfigError("center DOF requires an even element count")
    center_node = spec.n_elements // 2
    return 3 * (center_node - 1) + 1  # node 0 is clamped away


# -- family table --------------------------------------------------------------


@dataclass(frozen=True)
class ModelFamily:
    """A parametrized model family.

    params maps each design parameter to the spec field it sets, in the
    default order; build(spec, params) returns (MechModel, ParamDerivatives).
    """

    spec: type
    params: dict[str, str]
    build: Callable[[object, tuple[str, ...]], tuple[MechModel, ParamDerivatives]]


# the builders are looked up by module attribute at each call, so a wrapper
# installed on the attribute sees every build
FAMILIES = {
    "chain": ModelFamily(
        ChainSpec,
        {p: p for p in ("mass", "k", "k2", "k3")},
        lambda spec, params: build_chain(spec, params),
    ),
    "vk_beam": ModelFamily(
        VkBeamSpec,
        {"a1": "a1", "a2": "a2", "h": "thickness", "L": "length"},
        lambda spec, params: build_vk_beam(spec, params),
    ),
}
