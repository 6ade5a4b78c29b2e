import itertools

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ssmopt import MechModel, SymTensor, check_light_damping
from ssmopt.errors import ModelError
from ssmopt.multiindex import all_indices, decomps

from oracles import first_order_operators, reference_pullback


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
        assert np.all(undamped.damping() == 0.0)

    def test_reference_chain_damping_follows_stiffness_pattern(self, chain2):
        # beta_r = 0.1 on the unit-stiffness chain puts c = 0.1 on K's pattern
        model, _ = chain2
        assert np.allclose(model.damping(), 0.1 * model.K, rtol=0, atol=1e-15)

    def test_mass_scaling_identity(self):
        m = MechModel(np.eye(3), 2 * np.eye(3), 1.0, 0.0,
                      SymTensor.empty(3, 2), SymTensor.empty(3, 3))
        assert np.allclose(m.damping(), np.eye(3))

    def test_elementwise_combination(self, chain2):
        model, _ = chain2
        expected = model.alpha_r * model.M + model.beta_r * model.K
        assert np.array_equal(model.damping(), expected)


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


def _check_kernels(tensor, dense, arity, rng, n):
    """contract_sum and pullback against the dense oracle for every order-4 index."""
    for m in all_indices(4):
        sets = decomps(m, arity)
        w = {u: rng.normal(size=n) + 1j * rng.normal(size=n) for d in sets for u in d}
        args = [tuple(w[u] for u in d) for d in sets]
        want = sum(np.einsum(DENSE_FORCE[arity], dense, *a) for a in args)
        assert np.allclose(tensor.contract_sum(args), want, atol=1e-12)
        # reverse mode: the summed bar of every receiving index over the
        # permutation-closed set
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = tensor.pullback(v, sets, w.__getitem__)
        ref = _dense_pullback(dense, arity, v, sets, w)
        assert got.keys() == ref.keys() == w.keys()
        for u in w:
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


def _linearization_cases():
    """(tensor, parts) pairs: random tensors of arity 2 and 3 and an empty
    one, over the decomposition sets of every index of orders 2-5 and a set
    that repeats decompositions and reads one index in several slots."""
    rng = np.random.default_rng(60)
    n = 5
    repeated = {
        2: (((1, 0), (1, 0)), ((1, 0), (1, 0)), ((2, 0), (1, 0)), ((1, 0), (2, 0))),
        3: (((1, 0),) * 3, ((1, 0),) * 3, ((0, 1), (1, 0), (1, 0)), ((1, 0), (0, 1), (1, 0))),
    }
    for arity in (2, 3):
        sets = [decomps(m, arity) for q in range(2, 6) for m in all_indices(q)]
        sets = [p for p in sets if p] + [repeated[arity]]
        for tensor in (_random_tensor(rng, n, arity)[0], SymTensor.empty(n, arity)):
            for parts in sets:
                yield tensor, parts


def _vectors(rng, n, parts):
    return {u: rng.normal(size=n) + 1j * rng.normal(size=n) for d in parts for u in d}


class TestLinearization:
    """`SymTensor.linearize`: one key-space linearization per decomposition
    set, applied forward by the direct pass and in reverse by the sweep."""

    def test_forward_is_the_sum_of_slot_replaced_contractions(self):
        rng = np.random.default_rng(61)
        for tensor, parts in _linearization_cases():
            w, dw = _vectors(rng, tensor.n, parts), _vectors(rng, tensor.n, parts)
            got = tensor.linearize(parts, w.__getitem__).forward(dw.__getitem__)
            want = tensor.contract_sum(
                [(*(w[t] for t in d[:s]), dw[u], *(w[t] for t in d[s + 1 :]))
                 for d in parts for s, u in enumerate(d)]
            )
            assert got.shape == (tensor.n,)
            if tensor.nnz == 0:
                assert np.all(got == 0.0)
            else:
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_reverse_is_the_adjoint_of_forward(self):
        # dot-product identity: v . (J dw) = sum_u r_u . dw_u
        rng = np.random.default_rng(62)
        for tensor, parts in _linearization_cases():
            w, dw = _vectors(rng, tensor.n, parts), _vectors(rng, tensor.n, parts)
            v = rng.normal(size=tensor.n) + 1j * rng.normal(size=tensor.n)
            lin = tensor.linearize(parts, w.__getitem__)
            r = lin.reverse(v)
            lhs = v @ lin.forward(dw.__getitem__)
            rhs = sum(r[u] @ dw[u] for u in r)
            scale = sum(np.abs(r[u]) @ np.abs(dw[u]) for u in r)
            assert abs(lhs - rhs) <= 1e-14 * scale
            if tensor.nnz == 0:
                assert r == {} and lhs == 0.0
            else:
                assert r.keys() == w.keys()

    def test_pullback_is_bitwise_the_decomposition_loop(self):
        rng = np.random.default_rng(63)
        for tensor, parts in _linearization_cases():
            w = _vectors(rng, tensor.n, parts)
            v = rng.normal(size=tensor.n) + 1j * rng.normal(size=tensor.n)
            got = tensor.pullback(v, parts, w.__getitem__)
            ref = reference_pullback(tensor, v, parts, w.__getitem__)
            assert list(got) == list(ref)
            for u in ref:
                assert np.array_equal(got[u], ref[u])

    def test_empty_decomposition_set(self):
        tensor, _ = _random_tensor(np.random.default_rng(64), 4, 3)
        lin = tensor.linearize((), None)
        assert np.all(lin.forward(None) == 0.0) and lin.reverse(np.ones(4)) == {}


class TestLightDamping:
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
        C = model.damping()
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

    def test_rejects_asymmetric_stiffness(self):
        K = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ModelError):
            MechModel(np.eye(2), K, 0.0, 0.0, SymTensor.empty(2, 2), SymTensor.empty(2, 3))

