import itertools

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ssmopt import MechModel, SymTensor, check_light_damping, compute_ssm, solve_master
from ssmopt.errors import ModelError
from ssmopt.mechmodel import PairSums, _accum, model_from_json, real_times
from ssmopt import models
from ssmopt.models import ChainSpec, VkBeamSpec, build_chain, build_vk_beam, chain_per_spring_k3
from ssmopt.multiindex import all_indices, canonical_indices, decomps

from oracles import (
    contract_sum,
    first_order_operators,
    pulled,
    reference_canonical,
    reference_linearize,
    reference_pullback,
)


def one_dof(k2=0.0, k3=0.0, alpha_r=0.0, beta_r=0.0):
    return MechModel(
        M=np.eye(1),
        K=np.eye(1),
        alpha_r=alpha_r,
        beta_r=beta_r,
        T2=SymTensor.from_entries(1, 2, [(0, 0, 0, k2)] if k2 else []),
        T3=SymTensor.from_entries(1, 3, [(0, 0, 0, 0, k3)] if k3 else []),
    )


class TestDamping:
    def test_zero_coefficients_give_zero_matrix(self, chain2):
        model, _ = chain2
        undamped = MechModel(model.M, model.K, 0.0, 0.0, model.T2, model.T3)
        assert np.all(undamped.C == 0.0)

    def test_reference_chain_damping_follows_stiffness_pattern(self, chain2):
        # beta_r = 0.1 on the unit-stiffness chain puts c = 0.1 on K's pattern
        model, _ = chain2
        assert np.allclose(model.C, 0.1 * model.K, rtol=0, atol=1e-15)

    def test_mass_scaling_identity(self):
        m = MechModel(np.eye(3), 2 * np.eye(3), 1.0, 0.0,
                      SymTensor.empty(3, 2), SymTensor.empty(3, 3))
        assert np.allclose(m.C, np.eye(3))

    def test_elementwise_combination(self, chain2):
        model, _ = chain2
        expected = model.alpha_r * model.M + model.beta_r * model.K
        assert np.array_equal(model.C, expected)

    def test_pencil_is_formed_once_per_model(self, chain2):
        # the damping is made once, when the model is built, and kept
        model, _ = chain2
        assert model.C is model.C

    def test_pencil_operators(self):
        rng = np.random.default_rng(5)
        A, B = (rng.normal(size=(3, 3)) for _ in range(2))
        M, K = A @ A.T + 3.0 * np.eye(3), B @ B.T
        pen = MechModel(M, K, 0.7, 0.2, SymTensor.empty(3, 2), SymTensor.empty(3, 3))
        M, C, K = pen.M, pen.C, pen.K
        s = 0.3 - 1.7j
        assert np.allclose(pen.at(s), K + s * C + s * s * M, rtol=1e-15, atol=0)


class TestNonlinearForce:
    def test_zero_displacement(self, chain2):
        model, _ = chain2
        assert np.all(model.nonlinear_force(np.zeros(2)) == 0.0)

    def test_scalar_contraction(self):
        model = one_dof(k2=3.0, k3=5.0)
        # 3*2^2 + 5*2^3
        assert model.nonlinear_force(np.array([2.0]))[0] == pytest.approx(52.0)

    def test_chain_matches_hand_expanded_springs(self, chain2):
        # oracle: the two spring-force expressions written out by hand
        model, _ = chain2
        k2, k3 = 0.5, 0.2
        rng = np.random.default_rng(7)
        for _ in range(20):
            x1, x2 = rng.normal(size=2)
            f1 = k2 * x1**2 + k3 * x1**3 + k2 * (x1 - x2) ** 2 + k3 * (x1 - x2) ** 3
            f2 = k2 * (x2 - x1) ** 2 + k3 * (x2 - x1) ** 3
            got = model.nonlinear_force(np.array([x1, x2]))
            assert np.allclose(got, [f1, f2], rtol=0, atol=1e-12)

    def test_homogeneity_quadratic_and_cubic(self, chain2):
        model, _ = chain2
        quad = MechModel(model.M, model.K, 0.0, 0.0, model.T2, SymTensor.empty(2, 3))
        cub = MechModel(model.M, model.K, 0.0, 0.0, SymTensor.empty(2, 2), model.T3)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=2)
            lam = rng.uniform(0.5, 2.0)
            assert np.allclose(quad.nonlinear_force(lam * x), lam**2 * quad.nonlinear_force(x))
            assert np.allclose(cub.nonlinear_force(lam * x), lam**3 * cub.nonlinear_force(x))


def _random_tensor(rng, n, arity):
    """A SymTensor from unsorted, partly duplicated entries, plus its dense
    symmetrized form as the oracle."""
    raw = rng.integers(0, n, size=(12, arity + 1))
    raw = np.vstack([raw, raw[:3]])  # duplicates merge on ingest
    vals = rng.normal(size=len(raw))
    tensor = SymTensor.from_entries(n, arity, [(*map(int, r), v) for r, v in zip(raw, vals)])
    dense = np.zeros((n,) * (arity + 1))
    for r, v in zip(raw, vals):
        dense[tuple(r)] += v
    perms = list(itertools.permutations(range(1, arity + 1)))
    dense = sum(np.transpose(dense, (0, *p)) for p in perms) / len(perms)
    return tensor, dense


# dense oracles: the force contraction, and its derivative in one argument
# (any one: the symmetrized tensor makes the slot irrelevant)
DENSE_FORCE = {2: "ijk,j,k->i", 3: "ijkl,j,k,l->i"}
DENSE_VJP = {2: "ijk,i,k->j", 3: "ijkl,i,k,l->j"}


def _dense_pullback(dense, arity, v, sets, w):
    """Reverse mode of the summed contraction, slot by slot, per receiving index."""
    ref = {}
    for d in sets:
        for slot, u in enumerate(d):
            others = [w[t] for o, t in enumerate(d) if o != slot]
            ref[u] = ref.get(u, 0) + np.einsum(DENSE_VJP[arity], dense, v, *others)
    return ref


def _vectors(rng, n, top):
    """A random complex vector for every index of orders 1 .. top."""
    return {
        u: rng.normal(size=n) + 1j * rng.normal(size=n)
        for q in range(1, top + 1)
        for u in all_indices(q)
    }


def _check_kernels(tensor, dense, arity, rng, n):
    """The triple loop (`oracles.contract_sum`), the pair-sum force and the
    pair-sum pullback against the dense oracle for every order-4 index."""
    w = _vectors(rng, n, 3)
    table = PairSums(tensor, np.array(list(w.values())), 4)
    for m in all_indices(4):
        sets = decomps(m, arity)
        args = [tuple(w[u] for u in d) for d in sets]
        want = sum(np.einsum(DENSE_FORCE[arity], dense, *a) for a in args)
        assert np.allclose(contract_sum(tensor, args), want, atol=1e-12)
        assert np.allclose(table.force(m), want, atol=1e-12)
        # reverse mode: the summed bar of every receiving index over the
        # permutation-closed set
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = pulled(table, m, v)
        ref = _dense_pullback(dense, arity, v, sets, w)
        assert got.keys() == ref.keys() == {u for d in sets for u in d}
        for u in ref:
            assert np.allclose(got[u], ref[u], atol=1e-12)


class TestSymTensor:
    @pytest.mark.parametrize("arity", [2, 3])
    def test_matches_dense_symmetrized_oracle(self, arity):
        rng = np.random.default_rng(20 + arity)
        n = 4
        tensor, dense = _random_tensor(rng, n, arity)
        assert tensor.arity == arity
        x = rng.normal(size=n)
        assert np.allclose(tensor.force(x), np.einsum(DENSE_FORCE[arity], dense, *[x] * arity))
        _check_kernels(tensor, dense, arity, rng, n)

    @pytest.mark.parametrize("arity", [2, 3])
    def test_contract_sum_shares_trailing_keys(self, arity):
        # every receiving row on each of three trailing keys, the keys given
        # in permuted slot order and every entry listed twice, so the key
        # map and the duplicate summation both carry the result
        rng = np.random.default_rng(40 + arity)
        n = 6
        keys = [tuple(rng.integers(0, n, size=arity)) for _ in range(3)]
        while len({tuple(sorted(k)) for k in keys}) < 3:
            keys = [tuple(rng.integers(0, n, size=arity)) for _ in range(3)]
        rows, dense = [], np.zeros((n,) * (arity + 1))
        for key in keys:
            for i in range(n):
                for _ in range(2):
                    v = rng.normal()
                    perm = tuple(rng.permutation(key))
                    rows.append((i, *map(int, perm), v))
                    dense[(i, *perm)] += v
        order = rng.permutation(len(rows))
        tensor = SymTensor.from_entries(n, arity, [rows[k] for k in order])
        perms = list(itertools.permutations(range(1, arity + 1)))
        dense = sum(np.transpose(dense, (0, *p)) for p in perms) / len(perms)
        key_cols, key_of = tensor.key_pattern
        assert len(key_cols[0]) == 3 and tensor.nnz == 3 * n
        for c, kc in zip(tensor.cols[1:], key_cols):
            assert np.array_equal(kc[key_of], c)
        _check_kernels(tensor, dense, arity, rng, n)


TOP = 5  # the linearization cases read every index of orders 2 .. TOP


def _linearization_cases(seed):
    """(tensor, w, table, m): random tensors of arity 2 and 3, random vectors
    of every index below TOP and their pair-sum table, at every index of
    orders 2 .. TOP. A tensor without entries has no table."""
    rng = np.random.default_rng(seed)
    n = 5
    for arity in (2, 3):
        tensor = _random_tensor(rng, n, arity)[0]
        w = _vectors(rng, n, TOP - 1)
        table = PairSums(tensor, np.array(list(w.values())), TOP)
        for q in range(2, TOP + 1):
            for m in all_indices(q):
                yield tensor, w, table, m


def _applied(table, m, dw: dict) -> np.ndarray:
    """The table's linearization at m applied to the vectors dw, as the
    direct walk applies it: `Linearization.gather` over the vectors stacked
    in the `table_row` layout, then `SymTensor.spread`."""
    lin = table.linearize(m)
    out = np.zeros(table.tensor.n, complex)
    if lin.rows:
        table.tensor.spread(lin.gather(np.array(list(dw.values()))), out)
    return out


def _assert_bitwise_pullback(tensor, table, m, v, w):
    """The table's linearization at m and its pullback are bitwise those of
    the decomposition-by-decomposition loops."""
    parts = decomps(m, tensor.arity)
    lin, ref_lin = table.linearize(m), reference_linearize(tensor, parts, w)
    assert lin.rows == ref_lin.rows
    if lin.rows:
        assert np.array_equal(lin.coef, ref_lin.coef)
        assert np.array_equal(lin.at, ref_lin.at)
    got = pulled(table, m, v)
    ref = reference_pullback(tensor, v, parts, w)
    assert list(got) == list(ref)
    for u in ref:
        assert np.array_equal(got[u], ref[u])


class TestLinearization:
    """`PairSums.linearize`: one key-space linearization per index, gathered
    from the pair-sum table and applied forward by the direct pass, and its
    reverse `PairSums.pullback`, which the sweep calls."""

    def test_forward_is_the_sum_of_slot_replaced_contractions(self):
        rng = np.random.default_rng(61)
        for tensor, w, table, m in _linearization_cases(60):
            parts = decomps(m, tensor.arity)
            dw = _vectors(rng, tensor.n, TOP - 1)
            got = _applied(table, m, dw)
            want = contract_sum(
                tensor,
                [(*(w[t] for t in d[:s]), dw[u], *(w[t] for t in d[s + 1 :]))
                 for d in parts for s, u in enumerate(d)]
            )
            assert got.shape == (tensor.n,)
            if not parts:
                assert np.all(got == 0.0)
            else:
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_pullback_is_the_adjoint_of_forward(self):
        # dot-product identity: v . (J dw) = sum_u r_u . dw_u
        rng = np.random.default_rng(62)
        for tensor, w, table, m in _linearization_cases(60):
            parts = decomps(m, tensor.arity)
            dw = _vectors(rng, tensor.n, TOP - 1)
            v = rng.normal(size=tensor.n) + 1j * rng.normal(size=tensor.n)
            r = pulled(table, m, v)
            lhs = v @ _applied(table, m, dw)
            rhs = sum(r[u] @ dw[u] for u in r)
            scale = sum(np.abs(r[u]) @ np.abs(dw[u]) for u in r)
            assert abs(lhs - rhs) <= 1e-14 * scale
            if not parts:
                assert r == {} and lhs == 0.0
            else:
                assert r.keys() == {u for d in parts for u in d}

    def test_pullback_is_bitwise_the_decomposition_loop(self):
        rng = np.random.default_rng(63)
        for tensor, w, table, m in _linearization_cases(60):
            v = rng.normal(size=tensor.n) + 1j * rng.normal(size=tensor.n)
            _assert_bitwise_pullback(tensor, table, m, v, w.__getitem__)

    def test_pullback_is_bitwise_the_decomposition_loop_on_a_beam(self):
        # the expansion's own vectors, every index of curved vk_beam10 to O9
        model, _ = build_vk_beam(VkBeamSpec(a1=0.002, a2=0.001), ())
        exp = compute_ssm(model, solve_master(model, 0), 9)
        rng = np.random.default_rng(65)
        for tensor in (model.T2, model.T3):
            table = PairSums(tensor, exp.W, exp.order)
            for m in exp.indices:
                if m[0] + m[1] >= 2:
                    v = rng.normal(size=model.n) + 1j * rng.normal(size=model.n)
                    _assert_bitwise_pullback(tensor, table, m, v, exp.w)

    def test_empty_decomposition_set(self):
        # no three indices of order >= 1 sum to an order-2 index
        tensor, _ = _random_tensor(np.random.default_rng(64), 4, 3)
        w = _vectors(np.random.default_rng(64), 4, 2)
        table = PairSums(tensor, np.array(list(w.values())), 3)
        assert table.linearize((1, 1)).rows == ()
        assert pulled(table, (1, 1), np.ones(4)) == {}


class TestPairSums:
    """`PairSums.force`: the convolution as one sum per first part."""

    @staticmethod
    def _check_force(tensor, table, m, w):
        parts = decomps(m, tensor.arity)
        want = contract_sum(tensor, [tuple(w(u) for u in d) for d in parts])
        got = table.force(m)
        if tensor.arity == 2:
            # the products are the triple loop's, added in its order
            assert np.array_equal(got, want)
            return
        # the cubic products are reassociated: roundoff of the contraction of
        # |T| over |w| bounds the difference, whatever cancels in the sum
        bound = contract_sum(
            SymTensor(tensor.n, tensor.idx, np.abs(tensor.vals)),
            [tuple(np.abs(w(u)) for u in d) for d in parts],
        )
        assert np.all(np.abs(got - want) <= 1e-13 * bound.real)

    def test_force_matches_contract_sum(self):
        for tensor, w, table, m in _linearization_cases(66):
            self._check_force(tensor, table, m, w.__getitem__)

    def test_stacked_parameter_forces_on_a_beam(self):
        model, params = build_vk_beam(VkBeamSpec(a1=0.002, a2=0.001))
        exp = compute_ssm(model, solve_master(model, 0), 9)
        assert params.dT2.nnz and params.dT3.nnz
        for tensor in (params.dT2, params.dT3):
            table = PairSums(tensor, exp.W, exp.order)
            for m in exp.indices:
                if m[0] + m[1] >= 2:
                    self._check_force(tensor, table, m, exp.w)


    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="np.longdouble is no wider than float64 here, so there is no "
        "extended-precision reference",
    )
    @pytest.mark.parametrize("n_elements", [10, 40])
    def test_cubic_force_is_no_less_accurate_than_the_triple_loop(self, n_elements):
        # the T3 convolutions over a curved beam's O9 vectors against the
        # triple sum in extended precision: the pair sums' worst normwise
        # error is at most the triple loop's (on x86-64, vk_beam10 1.5e-13
        # against 3.4e-13, vk_beam40 2.5e-11 against 9.9e-11)
        spec = VkBeamSpec(n_elements=n_elements, a1=0.002, a2=0.001)
        model, _ = build_vk_beam(spec, ())
        exp = compute_ssm(model, solve_master(model, 0), 9)
        T = model.T3
        table = PairSums(T, exp.W, exp.order)
        wide = {m: exp.w(m).astype(np.clongdouble) for m in exp.indices}
        worst = {"pairs": 0.0, "triples": 0.0}
        for q in range(3, exp.order + 1):
            for m in canonical_indices(q):
                parts = decomps(m, 3)
                ref = contract_sum(T, [tuple(wide[u] for u in d) for d in parts])
                triples = contract_sum(T, [tuple(exp.w(u) for u in d) for d in parts])
                for kernel, got in (("pairs", table.force(m)), ("triples", triples)):
                    err = float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
                    worst[kernel] = max(worst[kernel], err)
        assert worst["pairs"] <= worst["triples"], worst

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="np.longdouble is no wider than float64 here, so there is no "
        "extended-precision reference",
    )
    @pytest.mark.parametrize("n_elements", [10, 40])
    def test_pullback_is_no_less_accurate_than_the_decomposition_loop(self, n_elements):
        # each tensor's pullback of a random adjoint at every canonical index
        # of a curved beam's O9 expansion, against the decomposition loop in
        # extended precision: per tensor, the table kernel's worst normwise
        # error is at most the loop's in float64
        spec = VkBeamSpec(n_elements=n_elements, a1=0.002, a2=0.001)
        model, _ = build_vk_beam(spec, ())
        exp = compute_ssm(model, solve_master(model, 0), 9)
        wide = {m: exp.w(m).astype(np.clongdouble) for m in exp.indices}
        rng = np.random.default_rng(67)
        for T, table in zip((model.T2, model.T3), exp.tables):
            worst = {"table": 0.0, "loop": 0.0}
            for q in range(2, exp.order + 1):
                for m in canonical_indices(q):
                    parts = decomps(m, T.arity)
                    v = rng.normal(size=model.n) + 1j * rng.normal(size=model.n)
                    ref = reference_pullback(T, v.astype(np.clongdouble), parts, wide.__getitem__)
                    if not ref:
                        continue
                    want = np.array([ref[u] for u in ref])
                    kernels = {
                        "table": pulled(table, m, v),
                        "loop": reference_pullback(T, v, parts, exp.w),
                    }
                    for kernel, got in kernels.items():
                        assert got.keys() == ref.keys()
                        diff = np.array([got[u] for u in ref]) - want
                        err = float(np.linalg.norm(diff) / np.linalg.norm(want))
                        worst[kernel] = max(worst[kernel], err)
            assert worst["table"] <= worst["loop"], (T.arity, worst)


def _same_entries(got: SymTensor, want: SymTensor) -> bool:
    """Bitwise equal index arrays (dtype included) and values."""
    return (
        got.idx.dtype == want.idx.dtype
        and np.array_equal(got.idx, want.idx)
        and got.vals.tobytes() == want.vals.tobytes()
    )


class TestCanonical:
    """`SymTensor.canonical` sorts packed keys where the lexsort of the index
    columns (`oracles.reference_canonical`) sorted the columns; entries and
    sums must come out bit for bit the same: the beam's FD-of-assembly
    derivatives turn a one-ulp change into a visible gradient change."""

    def test_chain_tensors(self, monkeypatch):
        seen = []
        direct = SymTensor.canonical

        def recorded(cls, n, ids, vals):
            got = direct(n, ids, vals)
            seen.append((n, ids, vals, got))
            return got

        monkeypatch.setattr(SymTensor, "canonical", classmethod(recorded))
        spec = ChainSpec(n_masses=11)
        build_chain(spec)
        chain_per_spring_k3(spec, 11)
        assert len(seen) == 2 + 11
        for n, ids, vals, got in seen:
            entries = np.column_stack([*ids, vals])
            assert _same_entries(got, reference_canonical(n, len(ids) - 1, entries))

    @pytest.mark.parametrize(
        "spec", [VkBeamSpec(n_elements=40, a1=0.002, a2=0.001), VkBeamSpec()], ids=["curved40", "flat10"]
    )
    def test_beam_tensors_nominal_and_every_derivative(self, spec, monkeypatch):
        seen = []
        direct = models._sym_tensor

        def recorded(n, arity, codes, vals):
            got = direct(n, arity, codes, vals)
            seen.append((n, arity, codes, vals, got))
            return got

        monkeypatch.setattr(models, "_sym_tensor", recorded)
        _, params = build_vk_beam(spec)
        assert len(seen) == 2 + 2 * params.count
        for n, arity, codes, vals, got in seen:
            ids = np.unravel_index(codes, (n,) * (arity + 1))
            want = reference_canonical(n, arity, np.column_stack([*ids, vals]))
            assert _same_entries(got, want)

    @pytest.mark.parametrize("arity", [2, 3])
    def test_random_entries_with_duplicates_and_cancellations(self, arity):
        rng = np.random.default_rng(70 + arity)
        n = 6
        ids = rng.integers(0, n, size=(300, arity + 1))
        vals = rng.normal(size=300) * 10.0 ** rng.integers(-6, 6, size=300)
        # each of the first 40 entries again with its trailing indices
        # permuted and its value negated: those keys may sum to exactly zero
        twin = ids[:40].copy()
        twin[:, 1:] = rng.permuted(twin[:, 1:], axis=1)
        ids = np.vstack([ids, twin, ids[40:60]])
        vals = np.concatenate([vals, -vals[:40], vals[40:60]])
        entries = [(*map(int, r), v) for r, v in zip(ids, vals)]
        got = SymTensor.from_entries(n, arity, entries)
        assert _same_entries(got, reference_canonical(n, arity, entries))
        # some of the negated twins cancelled their key to an exact zero
        kept = set(map(tuple, got.idx.tolist()))
        assert any((r[0], *sorted(r[1:])) not in kept for r in ids[:40].tolist())
        shuffled = rng.permutation(len(entries))
        again = SymTensor.canonical(n, ids[shuffled].T, vals[shuffled])
        assert _same_entries(again, reference_canonical(n, arity, [entries[k] for k in shuffled]))

    def test_keys_past_64_bits_are_rejected(self):
        with pytest.raises(ModelError, match="do not fit in 64 bits"):
            SymTensor.canonical(2**21, [[0], [1], [2], [3]], np.ones(1))


class TestAccum:
    """`_accum` is one ordered scatter: bitwise a bincount per real part."""

    @pytest.mark.parametrize("complex_weights", [False, True])
    @pytest.mark.parametrize("size", [0, 1, 7, 5000])
    def test_bitwise_the_bincount_pair(self, complex_weights, size):
        rng = np.random.default_rng(size)
        n = 40  # bins past the largest index stay unused
        idx = rng.integers(0, 30, size=size)  # repeated indices
        weights = rng.normal(size=size) * 10.0 ** rng.integers(-8, 8, size=size)
        if complex_weights:
            weights = weights + 1j * rng.normal(size=size)
            want = np.bincount(idx, weights.real, minlength=n) + 1j * np.bincount(
                idx, weights.imag, minlength=n
            )
        else:
            want = np.bincount(idx, weights, minlength=n)
        got = _accum(idx, weights, n)
        # bincount of an empty index returns integer zeros; the scatter keeps
        # the weights' floating type
        assert got.dtype == np.result_type(weights, float) and got.shape == (n,)
        assert np.array_equal(got.view(float), want.astype(got.dtype).view(float))


class TestLightDamping:
    @pytest.mark.parametrize("omega", [0.0, -1.0, np.nan])
    def test_nonpositive_frequency_raises(self, omega):
        with pytest.raises(ValueError) as err:
            check_light_damping(0.0, 0.1, omega)
        assert type(err.value) is ValueError and str(err.value) == "omega must be positive"

    def test_stiffness_proportional_interval(self):
        v = check_light_damping(0.0, 0.1, 0.618)
        assert v.valid and not v.never_satisfied
        assert v.omega_interval == (0.0, 20.0)

    def test_never_satisfied(self):
        v = check_light_damping(2.0, 1.0, 1.0)
        assert v.never_satisfied and not v.valid

    def test_undamped_always_valid(self):
        v = check_light_damping(0.0, 0.0, 12.3)
        assert v.valid and v.omega_interval == (0.0, np.inf)

    def test_mass_proportional_interval(self):
        v = check_light_damping(1.0, 0.0, 0.3)
        assert not v.valid and v.omega_interval[0] == pytest.approx(0.5)

    def test_rayleigh_interval_ends_are_the_roots(self):
        # both coefficients positive, alpha beta < 1: the condition holds
        # strictly between the two roots of alpha - 2 omega + beta omega^2
        alpha, beta = 0.3, 0.5
        lo, hi = check_light_damping(alpha, beta, 1.0).omega_interval
        assert 0.0 < lo < hi
        for root in (lo, hi):
            assert alpha - 2.0 * root + beta * root**2 == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(sorted(np.roots([beta, -2.0, alpha])), (lo, hi), rtol=1e-14, atol=0)
        for omega, valid in ((0.5 * lo, False), (0.5 * (lo + hi), True), (1.5 * hi, False)):
            v = check_light_damping(alpha, beta, omega)
            assert v.valid == valid and not v.never_satisfied


class TestFirstOrderForm:
    def test_scalar_blocks(self):
        model = one_dof()
        B, A = first_order_operators(model)
        assert np.array_equal(B, [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(A, [[-1.0, 0.0], [0.0, 1.0]])

    def test_block_symmetry(self, chain2):
        model, _ = chain2
        B, A = first_order_operators(model)
        assert np.array_equal(B, B.T)
        assert np.array_equal(A, A.T)

    def test_residual_vanishes_on_simulated_trajectory(self, chain2):
        # oracle: integrate the second-order equations, then check that the
        # first-order operators reproduce the same dynamics pointwise
        model, _ = chain2
        n = model.n
        C = model.C
        Minv = np.linalg.inv(model.M)

        def rhs(_t, z):
            x, v = z[:n], z[n:]
            acc = -Minv @ (C @ v + model.K @ x + model.nonlinear_force(x))
            return np.concatenate([v, acc])

        z0 = np.array([0.3, -0.1, 0.0, 0.2])
        sol = solve_ivp(rhs, (0.0, 5.0), z0, rtol=1e-10, atol=1e-12, dense_output=True)
        B, A = first_order_operators(model)
        for t in np.linspace(0.1, 4.9, 7):
            z = sol.sol(t)
            zdot = rhs(t, z)
            F = np.concatenate([-model.nonlinear_force(z[:n]), np.zeros(n)])
            resid = B @ zdot - A @ z - F
            assert np.linalg.norm(resid) < 1e-8 * max(1.0, np.linalg.norm(z))


class TestValidation:
    def test_rejects_indefinite_mass(self):
        with pytest.raises(ModelError):
            MechModel(-np.eye(2), np.eye(2), 0.0, 0.0,
                      SymTensor.empty(2, 2), SymTensor.empty(2, 3))

    def test_rejects_negative_rayleigh(self):
        with pytest.raises(ModelError):
            MechModel(np.eye(2), np.eye(2), -0.1, 0.0,
                      SymTensor.empty(2, 2), SymTensor.empty(2, 3))

    @pytest.mark.parametrize("field", ["alpha_r", "beta_r"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_rayleigh(self, field, value):
        coeffs = {"alpha_r": 0.0, "beta_r": 0.0, field: value}
        with pytest.raises(ModelError, match=f"^{field} "):
            MechModel(np.eye(2), np.eye(2), T2=SymTensor.empty(2, 2),
                      T3=SymTensor.empty(2, 3), **coeffs)

    @pytest.mark.parametrize("row", [[True, 0, 0, 1.0], [0, 0, 0, False], [1, True, 0, 2]])
    def test_rejects_boolean_tensor_entries(self, row):
        with pytest.raises(ModelError, match="^T2 "):
            SymTensor.from_entries(2, 2, [row])

    @pytest.mark.parametrize("arity", [2, 3])
    def test_float_array_entries_match_list_entries(self, arity):
        rng = np.random.default_rng(7)
        rows = [[*map(int, rng.integers(0, 3, size=arity + 1)), float(rng.normal())]
                for _ in range(12)]
        rows += rows[:4]  # duplicates are summed
        from_list = SymTensor.from_entries(3, arity, rows)
        from_array = SymTensor.from_entries(3, arity, np.array(rows))
        assert np.array_equal(from_array.idx, from_list.idx)
        assert np.array_equal(from_array.vals, from_list.vals)
        assert SymTensor.from_entries(3, arity, np.zeros((0, arity + 2))).nnz == 0

    @pytest.mark.parametrize("arity", [2, 3])
    @pytest.mark.parametrize(
        "table",
        [
            lambda w: np.ones((2, w), dtype=bool),
            lambda w: np.array([[0.0] * (w - 1) + [np.nan]]),
            lambda w: np.array([[0.0] * (w - 2) + [2.0, 1.0]]),
        ],
        ids=["bool", "nan", "index out of range"],
    )
    def test_rejects_bad_array_entries(self, arity, table):
        with pytest.raises(ModelError, match=f"^T{arity} "):
            SymTensor.from_entries(2, arity, table(arity + 2))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"M": [[1.0, 0.0], [0.0]]}, "M must be a matrix of numbers (equal-length rows)"),
            ({"K": [[1.0, np.nan], [np.nan, 1.0]]}, "K holds a non-finite number"),
            ({"M": np.ones((2, 3))}, "M and K must be square matrices of equal size"),
            ({"K": np.eye(3)}, "M and K must be square matrices of equal size"),
            ({"M": [[1.0, 0.5], [0.0, 1.0]]}, "mass matrix is not symmetric"),
            ({"K": [[1.0, 0.5], [0.0, 1.0]]}, "stiffness matrix is not symmetric"),
            ({"M": np.diag([1.0, 0.0])}, "mass matrix is not positive definite"),
            ({"K": np.diag([1.0, -1.0])}, "stiffness matrix is not positive semidefinite"),
            ({"alpha_r": np.nan}, "alpha_r must be a finite number"),
            ({"beta_r": -0.1}, "Rayleigh coefficients must be nonnegative"),
            ({"T2": SymTensor.empty(3, 2)}, "tensor dimension does not match matrix size"),
            ({"T3": SymTensor.empty(3, 3)}, "tensor dimension does not match matrix size"),
            ({"T2": SymTensor.empty(2, 3)}, "T2 must be a quadratic and T3 a cubic tensor"),
            ({"T3": SymTensor.empty(2, 2)}, "T2 must be a quadratic and T3 a cubic tensor"),
        ],
    )
    def test_each_check_names_its_input(self, change, message):
        fields = dict(M=np.eye(2), K=np.eye(2), alpha_r=0.0, beta_r=0.0,
                      T2=SymTensor.empty(2, 2), T3=SymTensor.empty(2, 3))
        MechModel(**fields)
        with pytest.raises(ModelError) as err:
            MechModel(**(fields | change))
        assert type(err.value) is ModelError and str(err.value) == message

    def test_json_descriptor_must_be_a_matrix_form(self):
        with pytest.raises(ModelError, match="expected a matrix-form descriptor, got type='chain'"):
            model_from_json({"type": "chain", "n": 1, "M": [[1.0]], "K": [[1.0]]})

    def test_rejects_asymmetric_stiffness(self):
        K = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ModelError):
            MechModel(np.eye(2), K, 0.0, 0.0, SymTensor.empty(2, 2), SymTensor.empty(2, 3))



class TestConstruction:
    def test_building_factors_once(self, monkeypatch):
        # one Cholesky of M serves the mass check and the modes, one eigh the
        # stiffness check and the modes; reading the modes factors nothing
        rng = np.random.default_rng(3)
        A, B = (rng.normal(size=(5, 5)) for _ in range(2))
        M, K = A @ A.T + 5.0 * np.eye(5), B @ B.T
        calls = []
        for name in ("cholesky", "eigh", "eigvalsh"):

            def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        model = MechModel(M, K, 0.1, 0.01, SymTensor.empty(5, 2), SymTensor.empty(5, 3))
        solve_master(model, 1)
        model.modes, model.C
        monkeypatch.undo()
        assert calls == ["cholesky", "eigh"]

    @staticmethod
    def reduced_model(w2, scale):
        """A model whose reduced eigenvalues omega^2 are w2, with M and K
        both scaled by `scale` (which leaves the omega^2 as they are)."""
        rng = np.random.default_rng(17)
        A = rng.normal(size=(len(w2), len(w2)))
        M = A @ A.T + len(w2) * np.eye(len(w2))
        L = np.linalg.cholesky(M)
        Q = np.linalg.qr(rng.normal(size=M.shape))[0]
        K = L @ Q @ np.diag(w2) @ Q.T @ L.T
        n = len(w2)
        return MechModel(
            scale * M, scale * 0.5 * (K + K.T), 0.0, 0.0, SymTensor.empty(n, 2), SymTensor.empty(n, 3)
        )

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_stiffness_check_is_free_of_scale(self, scale):
        # the check reads the reduced spectrum: a zero omega^2 passes and one
        # of -1e-8 times the largest fails, at any scale of M and K alike
        w2 = np.array([0.0, 1.0, 2.5, 4.0])
        self.reduced_model(w2, scale)
        w2[0] = -1e-8 * w2[-1]
        with pytest.raises(ModelError, match="^stiffness matrix is not positive semidefinite$"):
            self.reduced_model(w2, scale)


class TestRealTimes:
    @pytest.mark.parametrize(
        "A_shape, x_shape", [((4, 5), (5,)), ((4, 5), (5, 3)), ((3, 5, 5), (5, 2))],
        ids=["column", "block", "stack"],
    )
    def test_matches_the_complex_product(self, A_shape, x_shape):
        # the real product of x's parts side by side is A's complex copy
        # times x, to roundoff
        rng = np.random.default_rng(8)
        A = rng.normal(size=A_shape)
        x = rng.normal(size=x_shape) + 1j * rng.normal(size=x_shape)
        got = real_times(A, x)
        assert got.shape == A_shape[:-1] + x_shape[1:] and got.dtype == complex
        np.testing.assert_allclose(got, A.astype(complex) @ x, rtol=1e-14, atol=1e-14)
