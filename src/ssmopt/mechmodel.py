"""Second-order mechanical model with quadratic/cubic force tensors.

The model is ``M x'' + C x' + K x + f(x) = 0`` with Rayleigh damping
``C = alpha_r M + beta_r K`` and a polynomial internal force
``f_i = T2[i,j,k] x_j x_k + T3[i,j,k,l] x_j x_k x_l``. One `Pencil` holds M, C
and K and builds every operator the passes apply from them.

Both force tensors are one type, `SymTensor`, whose arity (2 for T2, 3 for
T3) is the number of trailing index columns. It stores coordinate lists with
sorted trailing indices and pre-symmetrized values, so the contraction order
of the trailing arguments is irrelevant by construction.

Many entries share a trailing key (j, k[, l]) and differ only in the
receiving row i: a beam's T3 has about six entries per key. The kernels that
sum over decomposition sets therefore work in a key-factored layout, built on
first use and cached (`SymTensor.key_pattern`): the distinct sorted trailing
keys, one contiguous row of a (slot, key) array per trailing slot, and each
entry's key number.
`contract_sum` forms its products once per key and expands them to the
entries in one accumulation; the SSM recursion sums its force convolutions
with it, over every ordered triple of T3, so the expansion's numbers do not
depend on how the sensitivity passes group their products.
The sensitivity passes build one `PairSums` table per tensor per pass
(`solve_adjoint`, `contract_gradient` and `chain_derivatives` each build
their own): for T3 the pair sums P_s = sum over u + v = s of w_u w_v at the
key columns, for T2 the vectors themselves. Its `linearize(m)` linearizes
the force convolution at m in the lower-order vectors, one coefficient over
the keys per (index, slot) gathered from the table, bitwise the
decomposition-by-decomposition form. That one `Linearization` serves both
modes: `forward` applies it to derivative vectors in one accumulation (the
direct pass), and `reverse` reduces an adjoint onto the keys once and
scatters one accumulation per (index, slot) (the adjoint sweep). Its
`force(m)` gives the parameter tensors' partial forces (the gradient
contraction and the direct pass) in one sum per first part instead of one
per triple. The primal keeps the triple loop: pair sums reassociate its
products, and would move its coefficients at roundoff (7.4e-13 normwise on
curved vk_beam10 at O9).
`SymTensor.force`, the force at one displacement, stays entrywise.
`SymTensor.from_entries` is also where tensor entries from a JSON descriptor
are validated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np
import scipy.linalg

from .errors import ModelError
from .multiindex import all_indices, decomps, order


def _accum(idx: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Sum `weights` into an n-vector at positions `idx`, in order (complex-safe).

    One ordered pass: the sums are bitwise those of a `bincount` per real
    part. numpy 1.25 made `ufunc.at` fast enough for this.
    """
    out = np.zeros(n, np.result_type(weights, float))
    np.add.at(out, idx, weights)
    return out


def _number_table(rows) -> np.ndarray | None:
    """`rows` as a 2-D numeric array, or None when it is not a table of numbers.

    numpy reads a ragged list as an error, strings as a string array and a
    bool (JSON true/false) next to a number as 0 or 1; all are rejected.
    """
    try:
        arr = np.array(rows)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.ndim != 2 or arr.dtype.kind not in "iuf":
        return None
    if not isinstance(rows, np.ndarray) and bool in set(
        map(type, itertools.chain.from_iterable(rows))
    ):
        return None
    return arr


def _distinct(cols) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse): where each distinct column of the integer table
    `cols` first occurs, in ascending order of the columns, and each
    column's number among them."""
    base = int(max(c.max() for c in cols)) + 1
    code = cols[0].astype(np.int64)
    for c in cols[1:]:
        code = code * base + c
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    return first, inverse


@lru_cache(maxsize=None)
def _linear_plan(m, arity: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """(rows, at, slots): the layout of `PairSums.linearize(m)`, which depends
    on the index and the arity alone.

    rows lists the (u, slot) pairs in the order the decompositions of m into
    `arity` parts first read them; at[r] is the table row of m - u and
    slots[r] the slot of rows[r].
    """
    rows = tuple(dict.fromkeys((u, slot) for d in decomps(m, arity) for slot, u in enumerate(d)))
    at = np.fromiter((_table_row((m[0] - u[0], m[1] - u[1]), arity - 1) for u, _ in rows), np.intp)
    slots = np.fromiter((slot for _, slot in rows), np.intp)
    return rows, at, slots


@lru_cache(maxsize=None)
def _sum_plan(lo: int, top: int) -> tuple:
    """The terms of a `PairSums` table of the indices of orders lo .. top - 1:
    one (row, parts, first) per decomposition of each index into lo parts, in
    `decomps` order. parts holds the parts' rows in the table of vectors
    (orders 1 and up), and first marks a row's first term."""
    sums = [s for q in range(lo, top) for s in all_indices(q)]
    return tuple(
        (r, tuple(_table_row(v, 1) for v in d), k == 0)
        for r, s in enumerate(sums)
        for k, d in enumerate(decomps(s, lo))
    )


def _table_row(s, lo: int) -> int:
    """Row of index s in a table of the indices of orders lo and up, in
    ascending order and each order's in `all_indices` order."""
    q = order(s)
    return (q * (q + 1) - lo * (lo + 1)) // 2 + s[1]


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
        if len(entries) == 0:
            return cls.empty(n, arity)
        width = arity + 2
        arr = _number_table(entries)
        if arr is None or arr.shape[1] != width:
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

    def force(self, x: np.ndarray) -> np.ndarray:
        """f_i = sum v * x[j] * x[k] (* x[l]), entry by entry."""
        if self.nnz == 0:
            return np.zeros(self.n, dtype=np.result_type(x))
        prod = self.vals
        for c in self.cols[1:]:
            prod = prod * x[c]
        return _accum(self.cols[0], prod, self.n)

    @cached_property
    def key_pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """(key_cols, key_of): the distinct trailing keys and each entry's key.

        key_cols holds one contiguous row per trailing slot, the keys in
        ascending order; key_of[e] is the number of entry e's key. Built on
        first use, so constructing a tensor costs nothing extra.
        """
        trailing = self.cols[1:]
        first, key_of = _distinct(trailing)
        return np.stack([c[first] for c in trailing]), key_of

    @cached_property
    def projections(self) -> tuple[np.ndarray, np.ndarray]:
        """(cols, proj): the distinct column tuples of the keys with one slot
        dropped, over every slot, and in proj[s] each key's tuple with slot s
        dropped. Built on first use, like `key_pattern`."""
        key_cols, _ = self.key_pattern
        dropped = np.hstack([np.delete(key_cols, s, axis=0) for s in range(self.arity)])
        first, inverse = _distinct(dropped)
        return dropped[:, first], inverse.reshape(self.arity, -1)

    def contract_sum(self, arg_tuples) -> np.ndarray:
        """f_i = sum over the argument tuples (a, b[, c]) of sum v * a[j] * b[k] (* c[l]).

        The products depend only on the trailing key, so they are formed once
        per key and expanded to the entries in the accumulation.
        """
        if self.nnz == 0 or not arg_tuples:
            return np.zeros(self.n, dtype=complex)
        key_cols, key_of = self.key_pattern
        G = np.zeros(len(key_cols[0]), dtype=complex)
        for args in arg_tuples:
            term = args[0][key_cols[0]]
            for a, c in zip(args[1:], key_cols[1:]):
                term = term * a[c]
            G += term
        return _accum(self.cols[0], self.vals * G[key_of], self.n)


class PairSums:
    """A force tensor's sums over the lower parts of every decomposition, for
    one expansion's vectors `w` up to a top order.

    For a tensor of arity k and each index s of orders k - 1 .. order - 1,
    the table holds

        P_s[c] = sum over (v, ...) in decomps(s, k - 1) of w(v)[c_0] * ...,

    added in `decomps` order, at the column tuples c of the union of the
    tensor's (k - 1)-slot key projections. For T3 these are pair sums over
    the (j, k), (j, l) and (k, l) columns (Haro et al., The Parameterization
    Method for Invariant Manifolds, 2016, ch. 2); for T2 they are the vectors
    themselves at the key columns. A convolution at m is then one sum over
    the first part u of its decompositions with P_{m-u}, instead of one over
    every ordered triple.

    `linearize(m)` is bitwise the decomposition-by-decomposition
    linearization: for slot s, the decompositions with d_s = u are the
    decompositions of m - u into the other slots, in `decomps` order and
    multiplied lower slot first, which is how the table adds them. `force(m)`
    reassociates the cubic products and so moves T3's partial force at
    roundoff; T2's is bitwise `contract_sum`'s.

    A pass builds one table per tensor and reads it at every index.
    """

    def __init__(self, tensor: SymTensor, w, order_: int):
        """The table of `tensor` over the vectors `w(index)` of an expansion
        of order `order_` >= tensor.arity."""
        self.tensor, self.w = tensor, w
        if tensor.nnz == 0:
            return
        cols, self.proj = tensor.projections
        lo = tensor.arity - 1
        W = np.array([w(v) for q in range(1, order_ - lo + 1) for v in all_indices(q)])
        gathered = [W[:, c] for c in cols]
        # every index of order >= lo has a decomposition into lo parts, so
        # each row gets its first term
        self.table = np.empty((_table_row((order_, 0), lo), cols.shape[1]), W.dtype)
        for r, d, first in _sum_plan(lo, order_):
            term = gathered[0][d[0]]
            for g, v in zip(gathered[1:], d[1:]):
                term = term * g[v]
            if first:
                self.table[r] = term
            else:
                self.table[r] += term

    def linearize(self, m) -> "Linearization":
        """The force convolution at m linearized in the vectors of the
        indices it reads: row (u, slot) is P_{m-u} at the slot's projection,
        all rows in one gather."""
        T = self.tensor
        if T.nnz == 0:
            return Linearization(T, (), np.zeros((0, 0), dtype=complex))
        rows, at, slots = _linear_plan(m, T.arity)
        return Linearization(T, rows, self.table[at[:, None], self.proj[slots]])

    def force(self, m) -> np.ndarray:
        """The force convolution at m: the sum over the first part u of
        w(u) at the first key column times P_{m-u} at the other columns."""
        T = self.tensor
        if T.nnz == 0:
            return np.zeros(T.n, dtype=complex)
        key_cols, key_of = T.key_pattern
        rows, at, slots = _linear_plan(m, T.arity)
        first = np.flatnonzero(slots == 0)
        G = np.zeros(len(key_cols[0]), dtype=complex)
        for r, P in zip(first, self.table[at[first][:, None], self.proj[0]]):
            G += self.w(rows[r][0])[key_cols[0]] * P
        return _accum(T.cols[0], T.vals * G[key_of], T.n)


@dataclass(frozen=True)
class Linearization:
    """A force convolution linearized in key space (`PairSums.linearize`).

    Row r of `coef` is the coefficient of the vector of index u in slot
    `slot`, (u, slot) = rows[r], over the tensor's trailing keys; the rows
    follow the order in which the decompositions first read the pairs.
    `forward` applies the linearization to derivative vectors, `reverse`
    pulls an adjoint back onto the indices.
    """

    tensor: SymTensor
    rows: tuple
    coef: np.ndarray = field(repr=False)  # (rows, keys)

    @cached_property
    def _flat(self) -> np.ndarray:
        """For each coefficient entry (r, k), its position in the flattened
        table whose row r is the vector of rows[r]'s index: k's key column
        of the row's slot. Built on the first forward product; the reverse
        does not need it."""
        T = self.tensor
        key_cols, _ = T.key_pattern
        slots = np.fromiter((slot for _, slot in self.rows), np.intp, len(self.rows))
        return key_cols[slots] + (np.arange(len(self.rows)) * T.n)[:, None]

    def forward(self, dw) -> np.ndarray:
        """sum over (u, slot) of coef * dw(u) at the slot's key column,
        expanded to the receiving rows in one accumulation; `dw` maps an
        index to its vector."""
        T = self.tensor
        if not self.rows:
            return np.zeros(T.n, dtype=complex)
        table = np.array([dw(u) for u, _ in self.rows])
        G = np.einsum("rk,rk->k", self.coef, table.ravel().take(self._flat))
        return _accum(T.cols[0], T.vals * G[T.key_pattern[1]], T.n)

    def reverse(self, v: np.ndarray) -> dict:
        """{u: r_u}, r_u[p] = sum_i v_i dF_i / dw(u)_p. The adjoint is
        reduced onto the trailing keys once and each coefficient is
        scattered in one accumulation."""
        if not self.rows:
            return {}
        T = self.tensor
        key_cols, key_of = T.key_pattern
        s = _accum(key_of, T.vals * v[T.cols[0]], len(key_cols[0]))
        out: dict = {}
        for (u, slot), c in zip(self.rows, self.coef):
            g = _accum(key_cols[slot], s * c, T.n)
            out[u] = out[u] + g if u in out else g
        return out


@dataclass(frozen=True)
class Pencil:
    """M, C and K and, each in one association, the operators at(s) = K + s C +
    s^2 M, velocity(s) = s M + C, modal(omega) = K - omega^2 M, and scale(s),
    the size of at(s)'s terms (which may cancel to zero at resonance)."""

    M: np.ndarray
    C: np.ndarray
    K: np.ndarray

    def at(self, s) -> np.ndarray:
        return self.K + s * self.C + s**2 * self.M

    def velocity(self, s) -> np.ndarray:
        return s * self.M + self.C

    def modal(self, omega: float) -> np.ndarray:
        return self.K - omega**2 * self.M

    def scale(self, s) -> float:
        norm = partial(np.linalg.norm, ord=1)
        return norm(self.K) + abs(s) * norm(self.C) + abs(s) ** 2 * norm(self.M)


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
        for name in ("M", "K"):
            arr = _number_table(getattr(self, name))
            if arr is None:
                raise ModelError(f"{name} must be a matrix of numbers (equal-length rows)")
            if not np.all(np.isfinite(arr)):
                raise ModelError(f"{name} holds a non-finite number")
            object.__setattr__(self, name, arr.astype(float, copy=False))
        M, K = self.M, self.K
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
        for name in ("alpha_r", "beta_r"):
            if not np.isfinite(getattr(self, name)):
                raise ModelError(f"{name} must be a finite number")
        if self.alpha_r < 0 or self.beta_r < 0:
            raise ModelError("Rayleigh coefficients must be nonnegative")
        if self.T2.n != n or self.T3.n != n:
            raise ModelError("tensor dimension does not match matrix size")
        if self.T2.arity != 2 or self.T3.arity != 3:
            raise ModelError("T2 must be a quadratic and T3 a cubic tensor")

    @property
    def n(self) -> int:
        return self.M.shape[0]

    @cached_property
    def pencil(self) -> Pencil:
        """M, the Rayleigh damping alpha_r M + beta_r K, and K."""
        return Pencil(self.M, self.alpha_r * self.M + self.beta_r * self.K, self.K)

    def nonlinear_force(self, x: np.ndarray) -> np.ndarray:
        """Quadratic plus cubic internal force at displacement x."""
        return self.T2.force(x) + self.T3.force(x)


@dataclass(frozen=True)
class ParamDerivatives:
    """Per-design-variable derivatives of all system operators.

    The damping derivative is implied: `pencil` forms alpha_r dM + beta_r dK.
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

    @cached_property
    def stacked(self) -> tuple[SymTensor, ...]:
        """dT2 and dT3 each as one tensor whose rows are p*n + i.

        One contract_sum of a stacked tensor yields the partial forces of all
        parameters at once, as a flat (P*n) vector. Tensors that are empty
        for every parameter are left out. Built once per instance, so the
        key pattern of each stacked tensor is derived once too.
        """
        out = []
        for tensors in (self.dT2, self.dT3):
            parts = [(p, t) for p, t in enumerate(tensors) if t.nnz]
            if not parts:
                continue
            n = parts[0][1].n
            pid = np.concatenate([np.full(t.nnz, p) for p, t in parts])
            idx = np.vstack([t.idx for _, t in parts])
            idx[:, 0] += pid * n
            vals = np.concatenate([t.vals for _, t in parts])
            out.append(SymTensor(len(tensors) * n, idx, vals))
        return tuple(out)

    @cached_property
    def matrix_params(self) -> tuple[int, ...]:
        """The parameters with a nonzero dM or dK. The others change only the
        force tensors (one k3 per spring, for one), so every dense matrix
        term of theirs vanishes and the sensitivity passes skip it."""
        return tuple(
            p for p in range(self.count) if np.any(self.dM[p]) or np.any(self.dK[p])
        )

    def pencil(self, p: int, model: MechModel) -> Pencil:
        """Parameter p's derivative of `model.pencil`."""
        dM, dK = self.dM[p], self.dK[p]
        return Pencil(dM, model.alpha_r * dM + model.beta_r * dK, dK)


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


def model_from_json(desc: dict) -> MechModel:
    if desc.get("type") != "matrix":
        raise ModelError(f"expected a matrix-form descriptor, got type={desc.get('type')!r}")
    n = int(desc["n"])
    if len(desc["M"]) != n:
        raise ModelError(f"n = {n} but M has {len(desc['M'])} rows")
    return MechModel(
        M=desc["M"],
        K=desc["K"],
        alpha_r=float(desc.get("alpha_r", 0.0)),
        beta_r=float(desc.get("beta_r", 0.0)),
        T2=SymTensor.from_entries(n, 2, desc.get("T2", [])),
        T3=SymTensor.from_entries(n, 3, desc.get("T3", [])),
    )
