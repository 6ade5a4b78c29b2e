"""Built-in parametrized model generators.

Two families:

* Grounded oscillator chains with per-spring quadratic/cubic forces. Each
  mass i feels, from every attached spring, the force
  ``k*d + k2*d**2 + k3*d**3`` with ``d = x_i - x_neighbor`` (ground
  displacement zero). Parameter derivatives are analytic.

* Clamped-clamped geometrically nonlinear beam assembled from 2-node
  elements with linear axial and cubic Hermite transverse interpolation and
  axial strain ``u' + w'**2 / 2``. The initial shape enters through the nodal
  coordinates (a sine-series heightmap), which activates quadratic
  axial-bending coupling for curved shapes. Parameter derivatives are central
  finite differences of the assembly.

`FAMILIES` maps each family's config `type` to its spec class, its design
parameters (name -> spec field) and its builder.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .errors import ConfigError, ModelError
from .mechmodel import MechModel, ParamDerivatives, SymTensor

FD_ASSEMBLY_RELSTEP = 1e-6


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


def _chain_springs(n: int) -> list[tuple[int | None, int]]:
    """(left, right) mass indices per spring; None is the ground."""
    return [(None, 0)] + [(i, i + 1) for i in range(n - 1)]


def _spring_ends(left: int | None, right: int):
    """(mass, other end) for each mass a spring acts on; None is the ground."""
    return [(i, right if i == left else left) for i in (left, right) if i is not None]


def _spring_entries(i: int, o: int | None, power: int, coef: float) -> list:
    """Tensor entries of coef*(x_i - x_o)**power acting on mass i."""
    if o is None:
        return [(i,) * (power + 1) + (coef,)]
    return [
        (i,) * (power + 1 - a) + (o,) * a + (coef * comb(power, a) * (-1) ** a,)
        for a in range(power + 1)
    ]


def _chain_operators(spec: ChainSpec, k: float, k2: float, k3: float):
    n = spec.n_masses
    K = np.zeros((n, n))
    entries: dict[int, list] = {2: [], 3: []}
    for left, right in _chain_springs(n):
        for i, o in _spring_ends(left, right):
            K[i, i] += k
            if o is not None:
                K[i, o] -= k
            for power, coef in ((2, k2), (3, k3)):
                entries[power] += _spring_entries(i, o, power, coef)
    return K, *(SymTensor.from_entries(n, a, entries[a]) for a in (2, 3))


def build_chain(
    spec: ChainSpec, params: tuple[str, ...] | None = None
) -> tuple[MechModel, ParamDerivatives]:
    """Chain model plus analytic derivatives for the selected shared parameters
    (default: every parameter of the chain family)."""
    if params is None:
        params = tuple(FAMILIES["chain"].params)
    n = spec.n_masses
    if n < 1 or spec.mass <= 0:
        raise ModelError("chain needs at least one mass with positive mass value")
    K, T2, T3 = _chain_operators(spec, spec.k, spec.k2, spec.k3)
    model = MechModel(
        M=spec.mass * np.eye(n),
        K=K,
        alpha_r=spec.alpha_r,
        beta_r=spec.beta_r,
        T2=T2,
        T3=T3,
    )
    K1, T2u, T3u = _chain_operators(spec, 1.0, 1.0, 1.0)
    zeros = np.zeros((n, n))
    E2, E3 = SymTensor.empty(n, 2), SymTensor.empty(n, 3)
    table = {
        "mass": (np.eye(n), zeros, E2, E3),
        "k": (zeros, K1, E2, E3),
        "k2": (zeros, zeros, T2u, E3),
        "k3": (zeros, zeros, E2, T3u),
    }
    unknown = [p for p in params if p not in table]
    if unknown:
        raise ConfigError(f"unknown chain parameters: {unknown}")
    derivs = ParamDerivatives(
        names=tuple(params),
        dM=tuple(table[p][0] for p in params),
        dK=tuple(table[p][1] for p in params),
        dT2=tuple(table[p][2] for p in params),
        dT3=tuple(table[p][3] for p in params),
    )
    return model, derivs


def chain_per_spring_k3(spec: ChainSpec, count: int) -> ParamDerivatives:
    """One design variable per spring: its cubic coefficient (first `count` springs)."""
    n = spec.n_masses
    springs = _chain_springs(n)
    if count > len(springs):
        raise ConfigError(f"chain has only {len(springs)} springs, requested {count}")
    zeros = np.zeros((n, n))
    dT3 = []
    for left, right in springs[:count]:
        t3 = []
        for i, o in _spring_ends(left, right):
            t3 += _spring_entries(i, o, 3, 1.0)
        dT3.append(SymTensor.from_entries(n, 3, t3))
    return ParamDerivatives(
        names=tuple(f"k3_{s}" for s in range(count)),
        dM=tuple(zeros for _ in range(count)),
        dK=tuple(zeros for _ in range(count)),
        dT2=tuple(SymTensor.empty(n, 2) for _ in range(count)),
        dT3=tuple(dT3),
    )


# -- von Karman beam ---------------------------------------------------------


@dataclass(frozen=True)
class VkBeamSpec:
    """Clamped-clamped beam with a two-harmonic sine heightmap.

    width=None means a square cross-section that tracks the thickness.
    poisson is retained as material metadata; the beam force law uses the
    Young's modulus directly.
    """

    n_elements: int = 10
    length: float = 1.0
    thickness: float = 0.01
    width: float | None = None
    a1: float = 0.0
    a2: float = 0.0
    youngs: float = 90e9
    poisson: float = 0.3
    density: float = 7850.0
    alpha_r: float = 0.0
    beta_r: float = 0.0


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
        # membrane coupling: EA * (w'^2/2 * du' + u'w' * dw') and EA/2 * w'^3 * dw'
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
    # both end nodes are clamped (all three DOFs each); tensor entries on a
    # clamped DOF are dropped as they are assembled
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


def _vk_model(spec: VkBeamSpec) -> MechModel:
    Mf, Kf, (t2, t3) = _assemble_vk(spec)
    n = Mf.shape[0]
    return MechModel(
        M=Mf,
        K=Kf,
        alpha_r=spec.alpha_r,
        beta_r=spec.beta_r,
        T2=_tensor_from_dict(n, 2, t2),
        T3=_tensor_from_dict(n, 3, t3),
    )


def build_vk_beam(
    spec: VkBeamSpec, params: tuple[str, ...] | None = None
) -> tuple[MechModel, ParamDerivatives]:
    """Beam model plus FD-of-assembly derivatives for shape/size parameters
    (default: every parameter of the vk_beam family)."""
    fields = FAMILIES["vk_beam"].params
    if params is None:
        params = tuple(fields)
    model = _vk_model(spec)
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
            dT[arity].append(_tensor_from_dict(model.n, arity, diff))
    derivs = ParamDerivatives(
        names=tuple(params), dM=tuple(dM), dK=tuple(dK), dT2=tuple(dT[2]), dT3=tuple(dT[3])
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
