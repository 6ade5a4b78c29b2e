"""Second-order mechanical model with quadratic/cubic force tensors.

The model is ``M x'' + C x' + K x + f(x) = 0`` with Rayleigh damping
``C = alpha_r M + beta_r K`` and a polynomial internal force
``f_i = T2[i,j,k] x_j x_k + T3[i,j,k,l] x_j x_k x_l``.

Both force tensors are one type, `SymTensor`, whose arity (2 for T2, 3 for
T3) is the number of trailing index columns. It stores coordinate lists with
sorted trailing indices and pre-symmetrized values, so the contraction order
of the trailing arguments is irrelevant by construction. Its kernels
(`contract`, `contract_sum`, `vjp`) serve the SSM recursion, the direct chain
and the adjoint sweep alike. `SymTensor.from_entries` is also where tensor
entries from a JSON descriptor are validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ModelError


def _accum(idx: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Sum `weights` into an n-vector at positions `idx` (complex-safe)."""
    if np.iscomplexobj(weights):
        return np.bincount(idx, weights.real, minlength=n) + 1j * np.bincount(
            idx, weights.imag, minlength=n
        )
    return np.bincount(idx, weights, minlength=n)


@dataclass(frozen=True)
class SymTensor:
    """Sparse tensor symmetric over its trailing indices: quadratic or cubic force.

    `idx` has one leading (receiving) index column plus `arity` trailing ones,
    so arity 2 stores T2[i,j,k] and arity 3 stores T3[i,j,k,l]. Entries are
    stored once per canonical key with sorted trailing indices; the value
    carries the permutation multiplicity, so ``force(x) = sum v*x[j]*x[k]``
    (times ``x[l]`` for arity 3).
    """

    n: int
    idx: np.ndarray = field(repr=False)  # (nnz, 1 + arity) int
    vals: np.ndarray = field(repr=False)  # (nnz,) float
    cols: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # index columns as contiguous arrays, gathered once per tensor
        object.__setattr__(
            self, "cols", tuple(np.ascontiguousarray(c) for c in self.idx.T)
        )

    @classmethod
    def from_entries(cls, n: int, arity: int, entries) -> "SymTensor":
        """Tensor from [i, j, k, v] (arity 2) or [i, j, k, l, v] (arity 3) rows.

        Rows are validated as model input: each holds arity + 1 integer
        indices in [0, n) and a finite value; duplicates are summed.
        """
        name = f"T{arity}"
        entries = list(entries)
        if not entries:
            return cls.empty(n, arity)
        width = arity + 2
        try:
            arr = np.array(entries)
        except (TypeError, ValueError, OverflowError):
            arr = None
        if arr is None or arr.ndim != 2 or arr.shape[1] != width or arr.dtype.kind not in "iuf":
            raise ModelError(
                f"{name} entries must be rows of {width} numbers "
                f"({arity + 1} indices, then the value)"
            )
        arr = arr.astype(float, copy=False)
        if not np.all(np.isfinite(arr)):
            raise ModelError(f"{name} holds a non-finite number")
        ids = arr[:, :-1]
        if np.any(ids != np.floor(ids)):
            raise ModelError(f"{name} indices must be integers")
        if ids.min() < 0 or ids.max() >= n:
            raise ModelError(f"{name} index out of range for n = {n}")
        ids = ids.astype(np.intp)
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
        return cls(n, idx[starts][keep], summed[keep])

    @classmethod
    def empty(cls, n: int, arity: int) -> "SymTensor":
        return cls(n, np.zeros((0, arity + 1), dtype=np.intp), np.zeros(0))

    @property
    def arity(self) -> int:
        return self.idx.shape[1] - 1

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def to_entries(self) -> list[list[float]]:
        return [[*map(int, key), float(v)] for key, v in zip(self.idx, self.vals)]

    # Entrywise kernel: exact only when summed over permutation-closed
    # decomposition sets or with equal arguments.
    def contract(self, *args: np.ndarray) -> np.ndarray:
        """f_i = sum v * args[0][j] * args[1][k] (* args[2][l])."""
        if self.nnz == 0:
            return np.zeros(self.n, dtype=np.result_type(*args))
        prod = self.vals
        for a, c in zip(args, self.cols[1:]):
            prod = prod * a[c]
        return _accum(self.cols[0], prod, self.n)

    def force(self, x: np.ndarray) -> np.ndarray:
        return self.contract(*[x] * self.arity)

    def contract_sum(self, arg_tuples) -> np.ndarray:
        """Sum of contract over a list of argument tuples; one accumulation."""
        if self.nnz == 0 or not arg_tuples:
            return np.zeros(self.n, dtype=complex)
        trailing = self.cols[1:]
        G = np.zeros(self.nnz, dtype=complex)
        for args in arg_tuples:
            term = args[0][trailing[0]]
            for a, c in zip(args[1:], trailing[1:]):
                term = term * a[c]
            G += term
        return _accum(self.cols[0], self.vals * G, self.n)

    def vjp(self, v: np.ndarray, slot: int, others) -> np.ndarray:
        """Row-vector product r_p = sum_i v_i d(contract)_i / d(args[slot])_p.

        `others` are the arguments that stay fixed, in positional order.
        """
        if self.nnz == 0:
            return np.zeros(self.n, dtype=np.result_type(v, *others))
        trailing = self.cols[1:]
        prod = self.vals * v[self.cols[0]]
        for a, c in zip(others, trailing[:slot] + trailing[slot + 1 :]):
            prod = prod * a[c]
        return _accum(trailing[slot], prod, self.n)


def _check_symmetric(name: str, a: np.ndarray, tol: float = 1e-10):
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if np.abs(a - a.T).max(initial=0.0) > tol * scale:
        raise ModelError(f"{name} matrix is not symmetric")


@dataclass(frozen=True)
class MechModel:
    """Immutable mechanical system; safe for concurrent read-only use."""

    M: np.ndarray
    K: np.ndarray
    alpha_r: float
    beta_r: float
    T2: SymTensor
    T3: SymTensor

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        K = np.asarray(self.K, dtype=float)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "K", K)
        n = M.shape[0]
        if M.shape != (n, n) or K.shape != (n, n):
            raise ModelError("M and K must be square matrices of equal size")
        _check_symmetric("mass", M)
        _check_symmetric("stiffness", K)
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise ModelError("mass matrix is not positive definite") from None
        kmin = float(scipy.linalg.eigvalsh(K, subset_by_index=[0, 0])[0])
        if kmin < -1e-10 * max(1.0, float(np.abs(K).max())):
            raise ModelError("stiffness matrix is not positive semidefinite")
        if self.alpha_r < 0 or self.beta_r < 0:
            raise ModelError("Rayleigh coefficients must be nonnegative")
        if self.T2.n != n or self.T3.n != n:
            raise ModelError("tensor dimension does not match matrix size")
        if self.T2.arity != 2 or self.T3.arity != 3:
            raise ModelError("T2 must be a quadratic and T3 a cubic tensor")

    @property
    def n(self) -> int:
        return self.M.shape[0]

    def damping(self) -> np.ndarray:
        """Rayleigh damping matrix alpha_r*M + beta_r*K."""
        return self.alpha_r * self.M + self.beta_r * self.K

    def nonlinear_force(self, x: np.ndarray) -> np.ndarray:
        """Quadratic plus cubic internal force at displacement x."""
        return self.T2.force(x) + self.T3.force(x)

    def first_order_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """Matrices (B, A) of the equivalent first-order form B z' = A z + F(z)."""
        n = self.n
        C = self.damping()
        B = np.zeros((2 * n, 2 * n))
        B[:n, :n] = C
        B[:n, n:] = self.M
        B[n:, :n] = self.M
        A = np.zeros((2 * n, 2 * n))
        A[:n, :n] = -self.K
        A[n:, n:] = self.M
        return B, A


@dataclass(frozen=True)
class ParamDerivatives:
    """Per-design-variable derivatives of all system operators.

    The damping derivative is implied: dC = alpha_r*dM + beta_r*dK.
    """

    names: tuple[str, ...]
    dM: tuple[np.ndarray, ...]
    dK: tuple[np.ndarray, ...]
    dT2: tuple[SymTensor, ...]
    dT3: tuple[SymTensor, ...]

    def __post_init__(self):
        p = len(self.names)
        if not (len(self.dM) == len(self.dK) == len(self.dT2) == len(self.dT3) == p):
            raise ModelError("parameter derivative lists must have equal length")

    @property
    def count(self) -> int:
        return len(self.names)

    def dC(self, i: int, model: MechModel) -> np.ndarray:
        return model.alpha_r * self.dM[i] + model.beta_r * self.dK[i]


@dataclass(frozen=True)
class LightDampingVerdict:
    """Admissibility of the light-damping condition at a given frequency."""

    valid: bool
    never_satisfied: bool
    omega_interval: tuple[float, float]


def check_light_damping(alpha_r: float, beta_r: float, omega: float) -> LightDampingVerdict:
    """Check alpha_r - 2*omega + beta_r*omega**2 < 0 and report the valid interval.

    The interval depends on which Rayleigh coefficients vanish; when the
    product alpha_r*beta_r reaches 1 the condition cannot hold at any
    frequency.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if beta_r == 0.0 and alpha_r == 0.0:
        interval, never = (0.0, np.inf), False
    elif beta_r == 0.0:
        interval, never = (alpha_r / 2.0, np.inf), False
    elif alpha_r == 0.0:
        interval, never = (0.0, 2.0 / beta_r), False
    elif alpha_r * beta_r < 1.0:
        root = np.sqrt(1.0 - alpha_r * beta_r)
        interval, never = ((1.0 - root) / beta_r, (1.0 + root) / beta_r), False
    else:
        interval, never = (np.nan, np.nan), True
    valid = (alpha_r - 2.0 * omega + beta_r * omega**2) < 0.0
    return LightDampingVerdict(valid=valid, never_satisfied=never, omega_interval=interval)


def model_to_json(model: MechModel) -> dict:
    """Explicit matrix-form descriptor (0-based tensor indices)."""
    return {
        "type": "matrix",
        "n": model.n,
        "M": model.M.tolist(),
        "K": model.K.tolist(),
        "alpha_r": model.alpha_r,
        "beta_r": model.beta_r,
        "T2": model.T2.to_entries(),
        "T3": model.T3.to_entries(),
    }


def model_from_json(desc: dict) -> MechModel:
    if desc.get("type") != "matrix":
        raise ModelError(f"expected a matrix-form descriptor, got type={desc.get('type')!r}")
    n = int(desc["n"])
    M = np.asarray(desc["M"], dtype=float)
    if len(M) != n:
        raise ModelError(f"n = {n} but M has {len(M)} rows")
    return MechModel(
        M=M,
        K=np.asarray(desc["K"], dtype=float),
        alpha_r=float(desc.get("alpha_r", 0.0)),
        beta_r=float(desc.get("beta_r", 0.0)),
        T2=SymTensor.from_entries(n, 2, desc.get("T2", [])),
        T3=SymTensor.from_entries(n, 3, desc.get("T3", [])),
    )
