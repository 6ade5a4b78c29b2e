"""Second-order mechanical model with quadratic/cubic force tensors.

The model is ``M x'' + C x' + K x + f(x) = 0`` with Rayleigh damping
``C = alpha_r M + beta_r K`` and a polynomial internal force
``f_i = T2[i,j,k] x_j x_k + T3[i,j,k,l] x_j x_k x_l``. The `MechModel` holds M,
C, K and its modes, all made when it is built; `real_times` applies them to
complex data.

Both force tensors are one type, `SymTensor`, whose arity (2 for T2, 3 for
T3) is the number of trailing index columns. It stores coordinate lists with
sorted trailing indices and pre-symmetrized values, so the contraction order
of the trailing arguments is irrelevant by construction. Each entry is
stored once: the index table is column-major and the kernels read its
columns as views. A `ParamDerivatives` keeps its tensor derivatives the same
way, as one stacked tensor per arity and no per-parameter copies.

Many entries share a trailing key (j, k[, l]) and differ only in the
receiving row i: a beam's T3 has about six entries per key. The kernels that
sum over decomposition sets therefore work in a key-factored layout, built on
first use and cached (`SymTensor.key_pattern`): the distinct sorted trailing
keys, one contiguous row of a (slot, key) array per trailing slot, and each
entry's key number. They form their products once per key and expand them to
the entries in one accumulation.

One kernel sums the force convolutions of the SSM recursion, for the
expansion and for every sensitivity pass: a `PairSums` table holds, for T3,
the pair sums P_s = sum over u + v = s of w_u w_v at the key columns; for T2
it is the vectors themselves. The convolution at m is then one sum over its
first part u with P_{m-u} instead of one over every ordered triple. No table
copies the vectors: each reads the expansion's w table (`SsmExpansion.W`),
and T2's table is that table. The expansion owns the tables of its model tensors with
entries and grows them by one order before it solves each order
(`SsmExpansion.tables`); the adjoint sweep and the direct walk read the same
tables. The stacked parameter tensors' tables are built once per
`ParamDerivatives` and order, for the partial forces in the record of
explicit parameter partials that both sensitivity methods read
(`SsmExpansion.partials`); `ParamDerivatives.modal_partials` gives that
record's eigenproblem terms.
A table's `force(m)` is the convolution at m, and its `linearize(m)`
linearizes that convolution in the lower-order vectors, one coefficient over
the keys per (index, slot) gathered from the table, bitwise the
decomposition-by-decomposition form. The direct walk applies it to a table
of derivative vectors in the `multiindex.table_row` layout with
`Linearization.gather`, one sum over the keys, and `SymTensor.spread`, one
accumulation into the receiving rows. The adjoint sweep calls the reverse,
`pullback(m, v)`, which forms no coefficients: it reduces v onto the keys
once, gathers the table rows of every part of m at the tensor's
`scatter_pattern` in one take, and sums each (slot, receiving DOF) bin in
key order. Its bars, returned with the parts' rows in the same layout, are
bitwise those of scattering the coefficients one (index, slot) at a time.
`SymTensor.force`, the force at one displacement, stays entrywise.
`SymTensor.from_entries` validates the tensor rows of a JSON descriptor
(`model_from_json`); it and the built-in families put entries in canonical
form with `SymTensor.canonical`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ModelError
from .multiindex import all_indices, decomps, table_row


def _accum(idx: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Sum `weights` into an n-vector at positions `idx`, in order (complex-safe).

    One ordered pass: the sums are bitwise those of a `bincount` per real
    part. numpy 1.25 made `ufunc.at` fast enough for this.
    """
    out = np.zeros(n, np.result_type(weights, float))
    np.add.at(out, idx, weights)
    return out


def real_times(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for a real matrix, or (P, n, n) stack, A and a complex column or
    (n, K) block x, as one real product with x's real and imaginary parts
    side by side: numpy would copy A to complex for A @ x. Every product of
    a model operator with complex data is this one."""
    x = np.ascontiguousarray(x, complex)
    y = A @ x.view(float).reshape(len(x), -1)
    return y.view(complex).reshape(A.shape[:-1] + x.shape[1:])


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
def _linear_plan(m, arity: int) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray]:
    """(rows, at, slots, parts): the layout of `PairSums.linearize(m)`, which
    depends on the index and the arity alone.

    rows lists the (u, slot) pairs in the order the decompositions of m into
    `arity` parts first read them; at[r] is the table row of m - u, slots[r]
    the slot of rows[r] and parts[r] the `table_row` row (orders 1 and up)
    of its u.
    """
    rows = tuple(dict.fromkeys((u, slot) for d in decomps(m, arity) for slot, u in enumerate(d)))
    at = np.fromiter((table_row((m[0] - u[0], m[1] - u[1]), arity - 1) for u, _ in rows), np.intp)
    slots = np.fromiter((slot for _, slot in rows), np.intp)
    parts = np.fromiter((table_row(u, 1) for u, _ in rows), np.intp)
    return rows, at, slots, parts


@lru_cache(maxsize=None)
def _pull_plan(m, arity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(parts, at, rows): the layout of `PairSums.pullback(m, v)`.

    parts holds the `table_row` rows (orders 1 and up) of the distinct parts
    u of the decompositions of m into `arity` parts, in the order they first
    read them, and at[k] is the pair-sum table row of m - u for the k-th.
    `decomps` is closed under permutation, so every part fills every slot:
    rows holds, part after part, the row k * arity + slot of each of part
    k's slots, in the order the decompositions first read (u, slot).
    """
    lin_rows = _linear_plan(m, arity)[0]
    parts = tuple(dict.fromkeys(u for u, _ in lin_rows))
    number = {u: k for k, u in enumerate(parts)}
    at = np.fromiter(
        (table_row((m[0] - u[0], m[1] - u[1]), arity - 1) for u in parts), np.intp, len(parts)
    )
    # a stable sort keeps each part's slots in first-read order
    rows = sorted((number[u] * arity + slot for u, slot in lin_rows), key=lambda r: r // arity)
    part_rows = np.fromiter((table_row(u, 1) for u in parts), np.intp, len(parts))
    return part_rows, at, np.array(rows, np.intp)


@lru_cache(maxsize=None)
def _force_plan(m, arity: int) -> tuple[np.ndarray, np.ndarray]:
    """(parts, at): the layout of `PairSums.force(m)`. For each first part u
    of the decompositions of m into `arity` parts, in the order they first
    read it, parts holds u's row in the table of vectors and at the table
    row of m - u."""
    rows, at, slots, _ = _linear_plan(m, arity)
    first = np.flatnonzero(slots == 0)
    return np.fromiter((table_row(rows[r][0], 1) for r in first), np.intp), at[first]


@lru_cache(maxsize=None)
def _sum_plan(lo: int, q: int) -> tuple:
    """The terms of a `PairSums` table's rows of order q: one (row, parts,
    first) per decomposition of each index of order q into lo parts, in
    `decomps` order. row is the index's row among the order's, parts holds
    the parts' rows in the table of vectors (orders 1 and up), and first
    marks a row's first term."""
    return tuple(
        (r, tuple(table_row(v, 1) for v in d), k == 0)
        for r, s in enumerate(all_indices(q))
        for k, d in enumerate(decomps(s, lo))
    )


@dataclass(frozen=True)
class SymTensor:
    """Sparse tensor symmetric over its trailing indices: quadratic or cubic force.

    `idx` has one leading (receiving) index column plus `arity` trailing ones,
    so arity 2 stores T2[i,j,k] and arity 3 stores T3[i,j,k,l]. Entries are
    stored once per canonical key with sorted trailing indices; the value
    carries the permutation multiplicity, so ``force(x) = sum v*x[j]*x[k]``
    (times ``x[l]`` for arity 3).

    `idx` is kept column-major (Fortran order), and `cols` holds its columns
    as contiguous views of it, not copies.
    """

    n: int
    idx: np.ndarray = field(repr=False)  # (nnz, 1 + arity) int
    vals: np.ndarray = field(repr=False)  # (nnz,) float
    cols: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = np.asfortranarray(self.idx)
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "cols", tuple(idx.T))

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
        return cls.canonical(n, ids.astype(np.intp).T, arr[:, -1])

    @classmethod
    def canonical(cls, n: int, ids, vals: np.ndarray) -> "SymTensor":
        """Tensor from unvalidated entries: `ids` holds the receiving index
        column and then the trailing ones, integers in [0, n), and `vals`
        one value per entry.

        The trailing indices are sorted by a min/max network, and each entry
        is packed into one int64 key (i, sorted trailing) in base n. A
        stable sort of the keys gives the order a lexsort of the columns
        gives, so equal keys are summed (`reduceat`) in input order and zero
        sums are dropped.
        """
        lead, *trailing = (np.asarray(c, np.intp) for c in ids)
        arity = len(trailing)
        if n ** (arity + 1) >= 2**63:
            raise ModelError(f"T{arity} keys of n = {n} do not fit in 64 bits")
        for a, b in {2: ((0, 1),), 3: ((0, 1), (1, 2), (0, 1))}[arity]:
            lo = np.minimum(trailing[a], trailing[b])
            trailing[b] = np.maximum(trailing[a], trailing[b])
            trailing[a] = lo
        key = lead.astype(np.int64)
        for c in trailing:
            key = key * n + c
        key_order = np.argsort(key, kind="stable")
        key = key[key_order]
        newgrp = np.ones(len(key), dtype=bool)
        newgrp[1:] = key[1:] != key[:-1]
        starts = np.nonzero(newgrp)[0]
        summed = np.add.reduceat(np.asarray(vals, float)[key_order], starts)
        keep = summed != 0.0
        first = key_order[starts[keep]]
        idx = np.stack([lead[first], *(c[first] for c in trailing)]).T
        return cls(n, idx, summed[keep])

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

    def spread(self, G: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Add vals[e] * G[key of e] into the n-vector `out` at entry e's
        receiving row, entry after entry: on a zero `out`, bitwise
        `_accum`'s sums. G is a value per trailing key (`key_pattern`)."""
        np.add.at(out, self.cols[0], self.vals * G[self.key_pattern[1]])
        return out

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

    @cached_property
    def scatter_pattern(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(proj, keys, depth): the (slot, key) entries of `PairSums.pullback`
        on a flattened (depth, arity * n) grid. Column slot * n + p is the
        bin of the keys whose column in that slot is p, in ascending order,
        one per row; depth is the longest bin. A cell holds its entry's
        projection column (`projections`) and key number, and a cell past
        its bin's end holds column 0 and key number len(keys), which the
        pullback weights by zero. Built on first use, like `key_pattern`.
        """
        key_cols, _ = self.key_pattern
        n_keys = key_cols.shape[1]
        bins = (np.arange(self.arity)[:, None] * self.n + key_cols).ravel()
        by_bin = np.argsort(bins, kind="stable")
        bins = bins[by_bin]
        counts = np.bincount(bins, minlength=self.arity * self.n)
        depth = int(counts.max())
        row = np.arange(len(bins)) - np.repeat(np.cumsum(counts) - counts, counts)
        proj = np.zeros((depth, self.arity * self.n), np.intp)
        keys = np.full((depth, self.arity * self.n), n_keys, np.intp)
        proj[row, bins] = self.projections[1].ravel()[by_bin]
        keys[row, bins] = np.tile(np.arange(n_keys), self.arity)[by_bin]
        return proj.ravel(), keys.ravel(), depth


class PairSums:
    """A force tensor's sums over the lower parts of every decomposition, for
    one expansion's vectors up to a top order. The tensor has entries; a
    tensor without any has no table, and the force sums leave it out.

    For a tensor of arity k and each index s of orders k - 1 .. order - 1,
    the table holds

        P_s[c] = sum over (v, ...) in decomps(s, k - 1) of w(v)[c_0] * ...,

    added in `decomps` order, at the column tuples c of the union of the
    tensor's (k - 1)-slot key projections. For T3 these are pair sums over
    the (j, k), (j, l) and (k, l) columns (Haro et al., The Parameterization
    Method for Invariant Manifolds, 2016, ch. 2); for T2 they are the vectors
    themselves, so T2's table is the vector table, read at DOF columns. A
    convolution at m is then one sum over the first part u of its
    decompositions with P_{m-u}, instead of one over every ordered triple.

    `linearize(m)` is bitwise the decomposition-by-decomposition
    linearization: for slot s, the decompositions with d_s = u are the
    decompositions of m - u into the other slots, in `decomps` order and
    multiplied lower slot first, which is how the table adds them. Its
    reverse, `pullback(m, v)`, reads the same rows and adds in the same
    order. `force(m)` adds T2's products in the order of the sum over every
    decomposition, and groups T3's triples by their first part. Against an
    extended-precision triple sum that grouping is no less accurate than the
    triple loop (on vk_beam40 at O9, 2.5e-11 against 9.9e-11 worst
    normwise).

    A table grows one order at a time (`extend`): each order appends its own
    rows, and no row is rebuilt. It reads the vectors from the expansion's
    own (rows, n) table of w in the `table_row` layout (orders 1 and up,
    `SsmExpansion.W`, `vectors`), which it keeps no copy of; the expansion
    keeps the tables of its model tensors with entries
    (`SsmExpansion.tables`) and extends them over its grown w table before
    it solves each order. A table built at once is the same loop started
    from an empty table.
    """

    def __init__(self, tensor: SymTensor, W: np.ndarray, order_: int):
        """The table of `tensor` over the vectors W, the (rows, n) table of
        an expansion of order `order_` in the `table_row` layout."""
        self.tensor = tensor
        # the highest order whose convolutions the table serves; below
        # tensor.arity there are none
        self.top = tensor.arity - 1
        cols, self.proj = tensor.projections
        if tensor.arity == 2:
            # one-part sums: the table is the vectors, read at DOF columns
            self.proj = cols[0][self.proj]
        self.table = np.empty((0, cols.shape[1]), complex)
        self.extend(W, order_)

    def extend(self, W: np.ndarray, order_: int):
        """Grow the table to serve the convolutions at orders up to `order_`
        over the vectors W, a (rows, n) table in the `table_row` layout that
        must reach order `order_` - 1.

        Serving order top needs the rows of the indices of order top - 1,
        sums over the vectors of orders up to top - lo, lo = arity - 1: each
        order appends its rows.
        """
        T = self.tensor
        lo = T.arity - 1
        self.vectors = W
        if lo == 1:
            self.table = W
            self.top = max(self.top, order_)
            return
        cols = T.projections[0]
        for top in range(self.top + 1, order_ + 1):
            self.top = top
            gathered = [W[: table_row((0, top - lo), 1) + 1, c] for c in cols]
            rows = np.empty((top, cols.shape[1]), W.dtype)  # order top - 1 has top indices
            # every index of order >= lo has a decomposition into lo parts,
            # so each row gets its first term
            for r, d, first in _sum_plan(lo, top - 1):
                term = gathered[0][d[0]]
                for g, v in zip(gathered[1:], d[1:]):
                    term = term * g[v]
                if first:
                    rows[r] = term
                else:
                    rows[r] += term
            self.table = np.concatenate([self.table, rows])

    @cached_property
    def scatter(self) -> np.ndarray:
        """The table column of each cell of the tensor's `scatter_pattern`,
        built on the first `pullback`."""
        proj = self.tensor.scatter_pattern[0]
        return self.tensor.projections[0][0][proj] if self.tensor.arity == 2 else proj

    def linearize(self, m) -> "Linearization":
        """The force convolution at m linearized in the vectors of the
        indices it reads: row (u, slot) is P_{m-u} at the slot's projection,
        all rows in one gather."""
        T = self.tensor
        rows, at, slots, parts = _linear_plan(m, T.arity)
        # flat takes: a gather by two index arrays costs about three times as much
        flat = self.proj.take(slots, axis=0)
        flat += (at * self.table.shape[1])[:, None]
        coef = self.table.ravel().take(flat)
        # where the vector entries that coef multiplies lie in the walk's table
        flat = T.key_pattern[0].take(slots, axis=0)
        flat += (parts * T.n)[:, None]
        return Linearization(T, rows, coef, flat)

    def pullback(self, m, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(parts, r): r[k][p] = sum_i v_i dF_i / dw(u)_p for the force
        convolution F at m and the k-th index u that it reads, whose row in
        the `table_row` layout (orders 1 and up) is parts[k].

        v is reduced onto the trailing keys once. The table rows P_{m-u} of
        every part u are gathered at the tensor's `scatter_pattern` in one
        take and weighted by the reduced adjoint. numpy reduces an axis that
        is not the last one row after row, so the sum over the grid's depth
        adds each (slot, receiving DOF) bin's keys in ascending order, as a
        scatter of each (u, slot) coefficient in turn would. Each part's
        slots are then added in the order the decompositions first read
        them: the result is bitwise the decomposition loop's
        (`tests/oracles.py`, `reference_pullback`).
        """
        T = self.tensor
        parts, at, rows = _pull_plan(m, T.arity)
        if not len(parts):
            return parts, np.zeros((0, T.n), complex)
        key_cols, key_of = T.key_pattern
        _, keys, depth = T.scatter_pattern
        # one entry past the last key stays zero: the weight of the padding
        s = _accum(key_of, T.vals * v[T.cols[0]], key_cols.shape[1] + 1)
        G = self.table[at].take(self.scatter, axis=1)
        # s first: numpy's complex product is not symmetric in its operands
        np.multiply(s[keys], G, out=G)
        bins = G.reshape(len(parts), depth, -1).sum(axis=1)
        return parts, bins.reshape(-1, T.n)[rows].reshape(len(parts), T.arity, T.n).sum(axis=1)

    def force(self, m) -> np.ndarray:
        """The force convolution at m: the sum over the first part u of
        w(u) at the first key column times P_{m-u} at the other columns."""
        T = self.tensor
        key_cols, key_of = T.key_pattern
        parts, at = _force_plan(m, T.arity)
        G = np.zeros(len(key_cols[0]), dtype=complex)
        Ws = self.vectors[parts].take(key_cols[0], axis=1)
        for w, P in zip(Ws, self.table[at].take(self.proj[0], axis=1)):
            G += w * P
        return _accum(T.cols[0], T.vals * G[key_of], T.n)


@dataclass(frozen=True)
class Linearization:
    """A force convolution linearized in key space (`PairSums.linearize`).

    Row r of `coef` is the coefficient of the vector of index u in slot
    `slot`, (u, slot) = rows[r], over the tensor's trailing keys; the rows
    follow the order in which the decompositions first read the pairs.
    `gather` applies the coefficients to derivative vectors; its reverse is
    `PairSums.pullback`, which reads the table without forming `coef`.
    """

    tensor: SymTensor
    rows: tuple
    coef: np.ndarray = field(repr=False)  # (rows, keys)
    # for each entry (r, k) of coef, the position in a flattened (indices, n)
    # table in the `table_row` layout (orders 1 and up) of the vector entry it
    # multiplies: the row of rows[r]'s index, k's key column of its slot
    at: np.ndarray = field(repr=False)

    def gather(self, dW: np.ndarray) -> np.ndarray:
        """(keys,): the sum over (u, slot) of coef times dW's row of u at the
        slot's key column, added row after row, for a contiguous
        (indices, n) table dW in the `table_row` layout. `SymTensor.spread`
        expands it to the receiving rows; the two are the linearization
        applied to dW."""
        X = dW.ravel().take(self.at)
        return np.add.reduce(np.multiply(self.coef, X, out=X), axis=0)


def _check_symmetric(name: str, a: np.ndarray, tol: float = 1e-10):
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if np.abs(a - a.T).max(initial=0.0) > tol * scale:
        raise ModelError(f"{name} matrix is not symmetric")


@dataclass(frozen=True)
class MechModel:
    """Immutable mechanical system, built whole (`__post_init__`); safe for
    concurrent read-only use. at(s) = K + s C + s^2 M is the one operator
    the recursion forms, for the backward-error check of each solve."""

    M: np.ndarray
    K: np.ndarray
    alpha_r: float
    beta_r: float
    T2: SymTensor
    T3: SymTensor
    C: np.ndarray = field(init=False, repr=False, compare=False)
    modes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check the operators; set C and modes = (omega, Phi), every
        undamped mode, ascending, mass-normalized and read-only.

        M = L L^T (which shows M definite) reduces K phi = omega^2 M phi to
        the eigenproblem of A = L^-1 K L^-T, formed by two solves with L
        (Golub & Van Loan, Matrix Computations, 4th ed., 8.7); eigh reads
        A's upper triangle. A has K's inertia (Sylvester), so K is
        semidefinite unless its smallest omega^2 is below -1e-10 times the
        largest in magnitude. Y is orthonormal, so Phi = L^-T Y is
        mass-normalized. Each shape's largest entry is made positive, so
        downstream coefficients are deterministic across runs.
        """
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
            L = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise ModelError("mass matrix is not positive definite") from None
        A = np.linalg.solve(L, np.linalg.solve(L, K).T)
        w2, Y = np.linalg.eigh(A, UPLO="U")
        if w2[0] < -1e-10 * np.abs(w2).max():
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
        Phi = np.linalg.solve(L.T, Y)
        omegas = np.sqrt(np.maximum(w2, 0.0))
        peak = Phi[np.abs(Phi).argmax(axis=0), np.arange(n)]
        Phi[:, peak < 0] *= -1.0
        omegas.flags.writeable = Phi.flags.writeable = False
        object.__setattr__(self, "modes", (omegas, Phi))
        object.__setattr__(self, "C", self.alpha_r * M + self.beta_r * K)

    @property
    def n(self) -> int:
        return self.M.shape[0]

    def at(self, s) -> np.ndarray:
        return self.K + s * self.C + s**2 * self.M

    def nonlinear_force(self, x: np.ndarray) -> np.ndarray:
        """Quadratic plus cubic internal force at displacement x."""
        return self.T2.force(x) + self.T3.force(x)


@dataclass(frozen=True)
class ParamDerivatives:
    """Per-design-variable derivatives of all system operators. The damping
    derivative alpha_r dM + beta_r dK is implied.

    `matrix_params` lists, ascending, the parameters whose dM and dK the
    builder declares; the others (one k3 per spring, for one) move only the
    force tensors and have no dense term. dM and dK are (P_M, n, n) stacks,
    P_M = len(matrix_params), slice k for parameter matrix_params[k]. dT2
    and dT3 are each one stacked tensor whose row p*n + i is row i of
    parameter p's derivative (`stack`), so one `PairSums.force` yields the
    partial forces of all parameters at once, as a flat (P*n) vector.
    """

    names: tuple[str, ...]
    matrix_params: tuple[int, ...]
    dM: np.ndarray = field(repr=False)  # (P_M, n, n)
    dK: np.ndarray = field(repr=False)
    dT2: SymTensor
    dT3: SymTensor

    def __post_init__(self):
        p, mp = len(self.names), self.matrix_params
        if list(mp) != sorted(set(mp)) or not all(0 <= q < p for q in mp):
            raise ModelError(f"matrix_params must be ascending, distinct and below {p}, got {mp}")
        n = self.dM.shape[-1] if self.dM.ndim == 3 else -1
        if self.dM.shape != (len(mp), n, n) or self.dK.shape != self.dM.shape:
            raise ModelError(f"dM and dK must be equal stacks of {len(mp)} square matrices")
        rows = p * n
        for arity, T in ((2, self.dT2), (3, self.dT3)):
            if not isinstance(T, SymTensor) or T.arity != arity or T.n != rows:
                raise ModelError(
                    f"dT{arity} must be one stacked tensor of arity {arity} with {rows} rows"
                )

    @classmethod
    def stack(cls, n: int, names, matrices: dict, dT2, dT3) -> "ParamDerivatives":
        """Derivatives of an n-DOF model from {p: (dM_p, dK_p)} of the matrix
        parameters, p a parameter's number, and one tensor per parameter in
        dT2 and in dT3. The matrices are stacked in ascending p ((0, n, n)
        for none). Each tensor list is stacked into one tensor of P*n rows:
        the entries of the parameters in order, each tensor's entries in its
        own order, the receiving index of parameter p's entries offset by
        p*n. A tensor without entries adds none.
        """

        def stacked(arity: int, tensors) -> SymTensor:
            parts = [(p, T) for p, T in enumerate(tensors) if T.nnz]
            if any(T.n != n or T.arity != arity for _, T in parts):
                raise ModelError(f"dT{arity} must hold tensors of arity {arity} and dimension {n}")
            if not parts:
                return SymTensor.empty(len(tensors) * n, arity)
            idx = np.empty((arity + 1, sum(T.nnz for _, T in parts)), np.intp)
            for k, col in enumerate(idx):
                np.concatenate([T.cols[k] for _, T in parts], out=col)
            start = 0
            for p, T in parts:  # in place: no index temporary as long as idx
                idx[0, start : start + T.nnz] += p * n
                start += T.nnz
            vals = np.concatenate([T.vals for _, T in parts])
            return SymTensor(len(tensors) * n, idx.T, vals)

        mp = tuple(sorted(matrices))
        dM, dK = (
            np.array([matrices[p][i] for p in mp], float) if mp else np.zeros((0, n, n))
            for i in (0, 1)
        )
        return cls(tuple(names), mp, dM, dK, stacked(2, dT2), stacked(3, dT3))

    @property
    def count(self) -> int:
        return len(self.names)

    def modal_partials(self, omega: float, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """((dK - omega^2 dM) phi, dM phi), the eigenproblem's explicit
        partials at (omega, phi): (P_M, n) stacks like dM and dK. dK -
        omega^2 dM is formed: dK phi - omega^2 dM phi rounds otherwise, by
        more than the golden gradients allow."""
        return (self.dK - omega**2 * self.dM) @ phi, self.dM @ phi


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
    if not omega > 0:
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
