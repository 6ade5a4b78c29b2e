import dataclasses
import gc
import re
import weakref

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ssmopt import SsmExpansion, compute_ssm, invariance_residual, solve_master, ssm
from ssmopt.backbone import omega_of_rho, rho_of_x
from ssmopt.errors import (
    AmplitudeUnreachableError,
    ArgumentError,
    OuterResonanceError,
    SsmError,
)
from ssmopt.mechmodel import PairSums, SymTensor, model_from_json
from ssmopt.models import ChainSpec, VkBeamSpec, build_chain, build_vk_beam
from ssmopt.multiindex import order, symmetric
from ssmopt.optimizer import GRADIENTS
from ssmopt.ssm import adapt_order

from oracles import (
    first_order_operators,
    formed_solve,
    index_record,
    plan_column,
    reference_check_solve,
    reference_full_set_ssm,
    reference_ssm,
    validity_cap,
)
from test_properties import random_case


def assert_tables_built_at_once(exp):
    """The expansion's force tables, grown order by order, are bitwise the
    tables built at once from its finished vectors."""
    for table in exp.tables:
        once = PairSums(table.tensor, exp.W, exp.order)
        assert table.top == once.top == exp.order
        assert np.array_equal(table.vectors, once.vectors)
        assert np.array_equal(table.table, once.table)


def make_duffing_exp(duffing, duffing_master, O=5):
    model, _ = duffing
    return model, compute_ssm(model, duffing_master, O)


class TestLeadingOrder:
    def test_unit_oscillator_coefficients(self, duffing, duffing_master):
        model, _ = duffing
        exp = SsmExpansion(model, duffing_master)
        assert exp.w((1, 0))[0] == 1.0
        assert exp.R((1, 0))[0] == 1j

    def test_velocity_coefficient_definition(self, chain2, chain2_master):
        model, _ = chain2
        exp = SsmExpansion(model, chain2_master)
        assert np.allclose(exp.wdot((1, 0)) - chain2_master.lam * exp.w((1, 0)), 0.0)

    def test_leading_conjugacy(self, chain2, chain2_master):
        model, _ = chain2
        exp = SsmExpansion(model, chain2_master)
        assert np.array_equal(np.conj(exp.w((0, 1))), exp.w((1, 0)))


class TestOrderStep:
    def test_linear_model_all_higher_coefficients_vanish(self, linear_chain):
        model, _ = linear_chain
        exp = compute_ssm(model, solve_master(model, 0), 7)
        for m in exp.indices:
            if order(m) >= 2:
                assert np.abs(exp.w(m)).max() == 0.0
                assert np.abs(exp.R(m)).max() == 0.0

    def test_duffing_cubic_backbone_coefficient(self, duffing, duffing_master):
        # oracle: first-order harmonic balance Omega^2 = omega^2 + (3/4)g a^2
        # with a = 2 rho, Taylor-expanded: Omega = 1 + (3g/2) rho^2
        model, exp = make_duffing_exp(duffing, duffing_master, 3)
        gamma = 0.1
        assert exp.R((2, 1))[0].imag == pytest.approx(1.5 * gamma, abs=1e-12)
        assert exp.R((2, 1))[0].real == pytest.approx(0.0, abs=1e-14)

    def test_cohomological_residual_per_index(self, chain2, chain2_exp5):
        model, _ = chain2
        Cmat = model.C
        for m in chain2_exp5.indices:
            if order(m) < 2:
                continue
            rec = index_record(chain2_exp5, m)
            L = model.K + rec.Lam * Cmat + rec.Lam**2 * model.M
            h = rec.C.copy()
            if rec.slot is not None:
                h = h + rec.D * rec.R[rec.slot]
            resid = np.linalg.norm(L @ rec.w - h)
            assert resid <= 1e-9 * np.linalg.norm(h) + 1e-14

    def test_even_orders_carry_no_reduced_dynamics(self, chain2_exp5):
        for m in chain2_exp5.indices:
            if order(m) % 2 == 0:
                assert np.abs(chain2_exp5.R(m)).max() == 0.0


class TestComputeSsm:
    def test_canonical_solve_counts(self, chain2, chain2_master):
        model, _ = chain2
        exp = compute_ssm(model, chain2_master, 3)
        # two canonical indices at order 2 and two at order 3
        assert exp.n_solves == 4

    def test_extension_preserves_lower_orders(self, chain2, chain2_master):
        model, _ = chain2
        e5 = compute_ssm(model, chain2_master, 5)
        snapshot = {m: e5.w(m).copy() for m in e5.indices}
        e7 = compute_ssm(model, chain2_master, 7, from_expansion=e5)
        assert e7.order == 7
        for m, w in snapshot.items():
            assert np.array_equal(e7.w(m), w)
        assert_tables_built_at_once(e7)

    def test_extension_keeps_the_lower_order_plans(self, chain2, chain2_master):
        # the plans of orders 2-5 are the same objects after the extension,
        # which appends those of orders 6 and 7
        model, _ = chain2
        e5 = compute_ssm(model, chain2_master, 5)
        plans = list(e5.plans)
        assert [order(p.indices[0]) for p in plans] == [2, 3, 4, 5]
        e7 = compute_ssm(model, chain2_master, 7, from_expansion=e5)
        assert len(e7.plans) == 6 and all(a is b for a, b in zip(e7.plans, plans))
        assert [order(p.indices[0]) for p in e7.plans[4:]] == [6, 7]

    @pytest.mark.parametrize("case", ["chain101", "damped_curved_vk_beam10"])
    def test_per_order_step_matches_the_per_index_reference(self, case):
        # each order's indices solved at once, one column each, against the
        # recursion one index at a time: the two reassociate the same sums,
        # so they agree to roundoff, normwise at every index
        if case == "chain101":
            model, _ = build_chain(ChainSpec(n_masses=101, alpha_r=0.0, beta_r=0.02))
            O = 5
        else:
            spec = VkBeamSpec(a1=0.002, a2=0.001, alpha_r=1.0, beta_r=1e-5)
            model, _ = build_vk_beam(spec, ())
            O = 9
        master = solve_master(model, 0)
        got = compute_ssm(model, master, O)
        ref, want = reference_ssm(model, master, O)
        assert got.indices == ref.indices
        assert set(want) == {m for m in got.indices if order(m) >= 2}
        for m in got.indices:
            for name in ("w", "wdot", "R"):
                a, b = getattr(got, name)(m), getattr(ref, name)(m)
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b), (m, name)
        for m, rec in want.items():
            for name in ("w", "wdot", "R", "V", "Vdot", "C"):
                a, b = getattr(index_record(got, m), name), getattr(rec, name)
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b), (m, name)

    @pytest.mark.parametrize("order_", [3, 5])
    def test_extension_to_an_order_it_has_returns_it_unchanged(
        self, chain2, chain2_master, order_
    ):
        # no order is solved and the memo, built for the expansion's own
        # order, is kept
        model, _ = chain2
        e5 = compute_ssm(model, chain2_master, 5)
        kept = e5.memo("key", object)
        snapshot = {m: e5.w(m).copy() for m in e5.indices}
        solves = e5.n_solves
        assert compute_ssm(model, chain2_master, order_, from_expansion=e5) is e5
        assert (e5.order, e5.n_solves) == (5, solves)
        assert e5.memo("key", object) is kept
        assert tuple(snapshot) == e5.indices
        for m, w in snapshot.items():
            assert np.array_equal(e5.w(m), w)

    @pytest.mark.parametrize("case", ["chain2", "vk_beam10"])
    def test_force_tables_grow_to_the_one_shot_build(self, case, chain2, chain2_master):
        if case == "chain2":
            (model, _), master = chain2, chain2_master
        else:
            model, _ = build_vk_beam(VkBeamSpec(a1=0.002, a2=0.001), ())
            master = solve_master(model, 0)
        exp = compute_ssm(model, master, 9)
        assert [t.tensor for t in exp.tables] == [model.T2, model.T3]
        assert_tables_built_at_once(exp)

    def test_force_tables_read_the_one_vector_table(self, monkeypatch):
        # curved vk_beam10 O9 with its four parameters: every force table,
        # the expansion's and those the partials record sums with, reads
        # the expansion's w table and holds no vector table of its own; each
        # plan's w is the table's canonical rows of its order, and no plan
        # keeps the table of a lower order alive
        model, params = build_vk_beam(VkBeamSpec(a1=0.002, a2=0.001))
        master = solve_master(model, 0)
        assert params.count == 4
        exp = compute_ssm(model, master, 7)
        lower = weakref.ref(exp.W)
        compute_ssm(model, master, 9, from_expansion=exp)
        gc.collect()
        assert lower() is None
        built = []

        def recording(*args):
            built.append(PairSums(*args))
            return built[-1]

        monkeypatch.setattr(ssm, "PairSums", recording)
        exp.partials(params)
        assert len(exp.tables) == len(built) == 2
        for table in (*exp.tables, *built):
            vectors = [
                a for a in vars(table).values()
                if isinstance(a, np.ndarray) and a.ndim == 2 and a.shape[1] == model.n
            ]
            assert vectors and all(np.shares_memory(a, exp.W) for a in vectors), table.tensor
        for plan in exp.plans:
            assert np.array_equal(plan.w, exp.W[plan.rows].T)

    def test_a_tensor_without_entries_has_no_table(self, duffing, duffing_master):
        # Duffing's T2 has no entries, so its expansion keeps T3's table
        # only. A T2 with one zero entry has a table whose forces are +0, so
        # the expansion and both gradients must be bitwise those without it.
        model, params = duffing
        exp = compute_ssm(model, duffing_master, 9)
        assert [t.tensor for t in exp.tables] == [model.T3]
        padded = dataclasses.replace(model, T2=SymTensor(1, np.zeros((1, 3), np.intp), np.zeros(1)))
        exp0 = compute_ssm(padded, solve_master(padded, 0), 9)
        assert len(exp0.tables) == 2
        for m in exp.indices:
            for name in ("w", "wdot", "R"):
                a, b = getattr(exp, name)(m), getattr(exp0, name)(m)
                assert a.tobytes() == b.tobytes(), (m, name)
            if order(m) >= 2:
                rec, rec0 = index_record(exp, m), index_record(exp0, m)
                for name in ("V", "Vdot", "C"):
                    assert getattr(rec, name).tobytes() == getattr(rec0, name).tobytes(), (m, name)
        rho = rho_of_x(exp, 0, 0.3)
        assert rho_of_x(exp0, 0, 0.3) == rho
        for grad in GRADIENTS.values():
            want = grad(model, exp, params, 0, rho)
            assert grad(padded, exp0, params, 0, rho).tobytes() == want.tobytes()

    def test_full_set_matches_canonical_conjugation(self):
        # independent full-index recomputation against the conjugate shortcut
        spec = ChainSpec(n_masses=3)
        model, _ = build_chain(spec)
        master = solve_master(model, 0)
        canon = compute_ssm(model, master, 7)
        full = reference_full_set_ssm(model, master, 7)
        for m in canon.indices:
            assert np.allclose(canon.w(m), full.w(m), rtol=0, atol=1e-13)
            assert np.allclose(canon.wdot(m), full.wdot(m), rtol=0, atol=1e-13)
            assert np.allclose(canon.R(m), full.R(m), rtol=0, atol=1e-13)

    def test_conjugacy_of_stored_records(self, chain2_exp5):
        for m in chain2_exp5.indices:
            ms = symmetric(m)
            assert np.array_equal(np.conj(chain2_exp5.w(m)), chain2_exp5.w(ms))
            assert np.array_equal(np.conj(chain2_exp5.R(m)[::-1]), chain2_exp5.R(ms))

    def test_rejects_even_order(self, chain2, chain2_master):
        model, _ = chain2
        with pytest.raises(ValueError):
            compute_ssm(model, chain2_master, 4)


def two_dof_matrix_model(K, beta_r=0.0):
    return model_from_json(
        {"type": "matrix", "n": 2, "M": [[1.0, 0.0], [0.0, 1.0]], "K": K, "beta_r": beta_r,
         "T3": [[0, 0, 0, 0, 1.0]]}
    )


class TestFactorization:
    """The solves in the model's modes: L_m^-1 = Phi diag(1 / d) Phi^T."""

    def test_outer_resonance_raises_at_the_index(self):
        # omega_2 = 3 omega_1: L at (3, 0) is K - 9 M = diag(-8, 0)
        model = two_dof_matrix_model([[1.0, 0.0], [0.0, 9.0]])
        with pytest.raises(OuterResonanceError) as info:
            compute_ssm(model, solve_master(model, 0), 3)
        assert info.value.m == (3, 0) and info.value.mode == 1
        assert info.value.ratio < 1e-12

    def test_chain_near_one_to_three_names_the_index_and_mode(self):
        # an undamped grounded two-mass chain whose coupling spring puts
        # omega_2 within about 1e-13 of 3 omega_1, not at it: d_1 at (3, 0),
        # omega_2^2 - 9 omega_1^2, is nonzero but below 1e-12 of the size of
        # L's terms
        k = (64.0 - np.sqrt(2800.0)) / 72.0 * (1.0 + 1e-13)  # 36 k^2 - 64 k + 9 = 0: 1:3
        model = model_from_json({
            "type": "matrix", "n": 2, "M": [[1.0, 0.0], [0.0, 1.0]],
            "K": [[1.0 + k, -k], [-k, k]], "T3": [[0, 0, 0, 0, 1.0]],
        })
        omegas = model.modes[0]
        assert 0.0 < abs(omegas[1] - 3.0 * omegas[0]) < 1e-11
        with pytest.raises(OuterResonanceError, match=r"index \(3, 0\).*mode 1") as info:
            compute_ssm(model, solve_master(model, 0), 5)
        assert info.value.m == (3, 0) and info.value.mode == 1
        assert 0.0 < info.value.ratio < 1e-12

    def test_stiffness_scale_does_not_move_the_backbone(self):
        # K and T3 scaled by s scale omega by sqrt(s) and leave the backbone
        # ratio Omega / omega unchanged: the resonant denominators, about
        # 2 omega, shrink with s, and the recursion still expands down to
        # omega = 1e-20
        def ratio(s):
            model = model_from_json({
                "type": "matrix", "n": 2, "M": [[1, 0], [0, 1]],
                "K": [[2 * s, -s], [-s, 2 * s]],
                "T3": [[0, 0, 0, 0, 0.3 * s], [1, 1, 1, 1, 0.3 * s]],
            })
            master = solve_master(model, 0)
            exp = compute_ssm(model, master, 5)
            return omega_of_rho(exp, rho_of_x(exp, 0, 0.1)) / master.omega

        want = ratio(1.0)
        assert want == pytest.approx(1.0022478905466674, rel=1e-15)
        for s in (1e-22, 1e-40):
            assert abs(ratio(s) - want) <= np.spacing(want), s

    def test_master_must_be_a_mode_of_the_model(self, chain2):
        # the solves set and read the master's component in the model's
        # modes, so a master that is not one of them is rejected: here the
        # first mode of the chain with twice the mass
        heavier, _ = build_chain(ChainSpec(mass=2.0))
        with pytest.raises(ValueError, match="not the model's mode 0"):
            SsmExpansion(chain2[0], solve_master(heavier, 0))

    def test_free_free_stiffness_expands(self):
        # a rigid-body mode beside the master is valid input: the residual
        # regularizes K by 1e-14 ||K||_1 M, and no check rejects it
        model = two_dof_matrix_model([[1.0, -1.0], [-1.0, 1.0]], beta_r=0.01)
        master = solve_master(model, 1)
        eps = []
        for O in (3, 5):
            exp = compute_ssm(model, master, O)
            eps.append(invariance_residual(model, exp, rho_of_x(exp, 0, 0.05)).epsilon)
        assert np.all(np.isfinite(eps))
        assert eps[1] < eps[0]

    @staticmethod
    def _order5_column(m):
        """(model, exp, plan, t): a three-mass chain's O5 expansion, the
        order-5 plan, (5, 0), (4, 1) and (3, 2) its columns, and m's column."""
        model, _ = build_chain(ChainSpec(n_masses=3))
        exp = compute_ssm(model, solve_master(model, 0), 5)
        plan, t = plan_column(exp, m)
        assert plan.indices == ((5, 0), (4, 1), (3, 2)) and plan.res == 2
        return model, exp, plan, t

    @pytest.mark.parametrize("m", [(4, 1), (3, 2)])
    def test_block_solve_equals_column_solves(self, m):
        # plain (4, 1) and resonant (3, 2) columns: the order's block solve,
        # each column with its own diagonal and the resonant one bordered,
        # is its columns solved one at a time
        model, exp, plan, t = self._order5_column(m)
        rng = np.random.default_rng(3)
        rhs = rng.normal(size=(model.n, 3)) + 1j * rng.normal(size=(model.n, 3))
        border = rng.normal() + 1j * rng.normal()
        x, s = exp.solve_order(plan, rhs, border)
        res = 0 if t == plan.res else None
        one = dataclasses.replace(plan, d=plan.d[:, [t]], res=res)
        xt, st = exp.solve_order(one, rhs[:, [t]], border)
        assert np.linalg.norm(x[:, t] - xt[:, 0]) <= 1e-14 * np.linalg.norm(xt)
        if res is not None:
            assert abs(s - st) <= 1e-14 * abs(st)

    @pytest.mark.parametrize("m", [(4, 1), (3, 2)])
    def test_solve_matches_the_formed_operator(self, m):
        # plain (4, 1) and resonant (3, 2): the modal solve against a dense
        # solve of L_m, bordered at the resonant index by M phi
        model, exp, plan, t = self._order5_column(m)
        rec = index_record(exp, m)
        rng = np.random.default_rng(4)
        rhs = rng.normal(size=(model.n, 3)) + 1j * rng.normal(size=(model.n, 3))
        border = 0.3 - 0.2j
        x, s = exp.solve_order(plan, rhs, border)
        want, s_want = formed_solve(model, exp, rec, rhs[:, t], border)
        assert np.linalg.norm(x[:, t] - want) <= 1e-13 * np.linalg.norm(want)
        if rec.slot is not None:
            assert abs(s - s_want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("m", [(4, 1), (3, 2)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_right_hand_side_raises(self, m, bad):
        # plain (4, 1) and bordered (3, 2): a non-finite entry of the rhs,
        # or a non-finite border value, raises numpy's ValueError before
        # any product reads it
        model, exp, plan, t = self._order5_column(m)
        rhs = np.ones((model.n, 3), complex)
        rhs[1, t] = bad
        with pytest.raises(ValueError) as want:
            np.asarray_chkfinite(rhs)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            exp.solve_order(plan, rhs)
        if t == plan.res:
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                exp.solve_order(plan, np.ones((model.n, 3), complex), bad)


class TestSolveCheck:
    """The per-index check of the cohomological solve: a normwise backward
    error, which does not grow with the size of the operator's terms."""

    def test_curved_vk_beam320_expands(self):
        # n = 957: ||L w - h|| reaches about 1e-9 ||h|| at index (2, 2) with
        # ||L|| ||w|| large, while the backward error stays near epsilon
        model, _ = build_vk_beam(VkBeamSpec(n_elements=320, a1=0.002, a2=0.001), ())
        exp = compute_ssm(model, solve_master(model, 0), 5)
        assert exp.n_solves == 10

    def test_corrupted_factor_raises(self, chain2, chain2_master):
        model = self._corrupted(chain2[0])
        with pytest.raises(SsmError, match=r"cohomological solve at index \(2, 0\) failed"):
            compute_ssm(model, chain2_master, 3)

    @staticmethod
    def _corrupted(model):
        """A copy of the model whose modes have their frequencies doubled:
        the master is still a column of the modal basis, but every diagonal
        d that the solves divide by is off."""
        twin = dataclasses.replace(model)
        omegas, Phi = model.modes
        twin.__dict__["modes"] = (2.0 * omegas, Phi)
        return twin

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_check_holds_past_squared_overflow(self):
        # with T3 entries 1e300 the order-3 coefficients reach about 4e298:
        # their squares overflow, so unscaled norms read inf and any residual
        # would pass; the scaled test still sees a corrupted modal basis
        model = model_from_json({
            "type": "matrix", "n": 2, "M": [[1, 0], [0, 1]], "K": [[2, -1], [-1, 2]],
            "beta_r": 0.01, "T3": [[0, 0, 0, 0, 1e300], [1, 1, 1, 1, 1e300]],
        })
        master = solve_master(model, 0)
        exp = compute_ssm(model, master, 3)
        assert np.abs(exp.w((3, 0))).max() > 1e200
        with pytest.raises(SsmError, match=r"cohomological solve at index \(3, 0\) failed"):
            compute_ssm(self._corrupted(model), master, 3)

    def test_wrong_border_raises(self, chain2, chain2_master, monkeypatch):
        # a resonant solve sets the master's modal component to the border
        # value, phi^T M w = 0 in the recursion; any other value moves w off
        # the solution of L w = h
        solve = ssm.SsmExpansion._modal_solve

        def wrong_border(self, d, bordered, rhs, border):
            return solve(self, d, bordered, rhs, border + 1.0)

        monkeypatch.setattr(ssm.SsmExpansion, "_modal_solve", wrong_border)
        with pytest.raises(SsmError, match=r"cohomological solve at index \(2, 1\) failed"):
            compute_ssm(chain2[0], chain2_master, 3)


    @staticmethod
    def _checks(model, indices, Lam, w, h, C_m, R, res, D):
        """The messages of the order's check and of the formed check, run
        index by index until one fails (None: it passed)."""

        def message(check):
            try:
                check()
            except SsmError as err:
                return str(err)
            return None

        def formed():
            for t, m in enumerate(indices):
                at_res = D if t == res else None
                reference_check_solve(model, m, Lam[t], w[:, t], h[:, t], C_m[:, t], R[t], at_res)

        block = message(lambda: ssm._check_solve(model, indices, Lam, w, h, C_m, R, res, D))
        return block, message(formed)

    @pytest.mark.parametrize("case", ["chain2", "vk_beam10", "dense3", "random"])
    def test_order_check_matches_the_formed_check(self, case):
        # every order's solves pass both the order's check (K and M applied
        # to the block, ||L_m||_1 summed over their nonzeros) and the check
        # against each index's formed L_m; a column of w scaled by 1 + 1e-6
        # fails both, at its index and with the same message. The dense
        # model has every entry of M and K nonzero
        if case == "chain2":
            model, order_ = build_chain(ChainSpec())[0], 7
        elif case == "vk_beam10":
            spec = VkBeamSpec(a1=0.002, a2=0.001, alpha_r=1.0, beta_r=1e-5)
            model, order_ = build_vk_beam(spec, ())[0], 9
        elif case == "dense3":
            model, order_ = model_from_json({
                "type": "matrix", "n": 3, "alpha_r": 0.01, "beta_r": 0.002,
                "M": [[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]],
                "K": [[3.0, -1.0, 0.5], [-1.0, 4.0, -1.2], [0.5, -1.2, 5.0]],
                "T2": [[0, 0, 1, 0.4]], "T3": [[0, 0, 0, 0, 1.0], [0, 1, 2, 2, 0.5]],
            }), 7
            assert np.all(model.M != 0) and np.all(model.K != 0)
        else:
            model, _, order_ = random_case(0)
        exp = compute_ssm(model, solve_master(model, 0), order_)
        assert len(exp.plans) == order_ - 1
        for plan in exp.plans:
            R = exp.Rpairs[plan.rows]
            h = plan.C.copy()
            if plan.res is not None:
                h[:, plan.res] += plan.D * R[plan.res, plan.slot]
            rest = (h, plan.C, R, plan.res, plan.D)
            assert self._checks(model, plan.indices, plan.Lam, plan.w, *rest) == (None, None)
            for t, m in enumerate(plan.indices):
                w = plan.w.copy()
                w[:, t] *= 1.0 + 1e-6
                block, formed = self._checks(model, plan.indices, plan.Lam, w, *rest)
                assert block == formed
                assert block.startswith(f"cohomological solve at index {m} failed"), (m, block)


class TestInvarianceResidual:
    def test_linear_model_is_exactly_invariant(self, linear_chain):
        model, _ = linear_chain
        exp = compute_ssm(model, solve_master(model, 0), 5)
        assert invariance_residual(model, exp, 0.5).epsilon <= 1e-12

    def test_monotone_in_order(self, duffing, duffing_master):
        model, _ = duffing
        eps = []
        exp = None
        for O in (3, 5, 7):
            exp = compute_ssm(model, duffing_master, O, from_expansion=exp)
            eps.append(invariance_residual(model, exp, 0.3).epsilon)
        assert eps[1] <= eps[0] and eps[2] <= eps[1]

    def test_vanishes_toward_origin(self, chain2, chain2_exp5):
        model, _ = chain2
        assert invariance_residual(model, chain2_exp5, 1e-8).epsilon <= 1e-10

    def test_degenerate_evaluation_point_raises(self, chain2, chain2_exp5):
        # at rho = 1e-320 (subnormal) every state norm at the grid points
        # reads zero, so the relative residual has no denominator
        model, _ = chain2
        with pytest.raises(SsmError, match="^degenerate evaluation point: zero invariance"):
            invariance_residual(model, chain2_exp5, 1e-320)

    @pytest.mark.parametrize("rho", [1e-160, 1e-200, 1e-300])
    def test_tiny_amplitude_keeps_the_norms(self, chain2, chain2_exp5, rho):
        # the state norms are taken on blocks divided by a power of two: the
        # squares of the blocks themselves underflow here, the defect's to a
        # residual of 0.0 at 1e-160 and the denominator's to an error below
        eps = invariance_residual(chain2[0], chain2_exp5, rho).epsilon
        assert 0.0 < eps <= 1e-15, rho

    def test_large_model_keeps_the_norms(self):
        # from n = 512 on numpy lays the force blocks out in Fortran order,
        # which a complex-to-float view of the block cannot take as it is;
        # the 511-mass chain reads 3.6e-11 here
        model, _ = build_chain(ChainSpec(n_masses=512))
        exp = compute_ssm(model, solve_master(model, 0), 3)
        assert 0.0 < invariance_residual(model, exp, 1e-3).epsilon <= 1e-10

    def test_unnormalized_defect_slope(self, chain2, chain2_master):
        # independent residual evaluation: with a nonzero quadratic
        # nonlinearity the absolute defect of the invariance equation scales
        # as rho**(order+1). Measured over a decade where the defect sits
        # well above the float64 roundoff floor.
        model, _ = chain2
        O = 3
        exp = compute_ssm(model, chain2_master, O)
        B, A = first_order_operators(model)
        n = model.n

        def defect(rho):
            worst = 0.0
            for k in range(1, 9):
                th = 2 * np.pi * k / 8
                p = np.array([rho * np.exp(1j * th), rho * np.exp(-1j * th)])
                W = np.zeros(2 * n, dtype=complex)
                d1 = np.zeros(2 * n, dtype=complex)
                d2 = np.zeros(2 * n, dtype=complex)
                R = np.zeros(2, dtype=complex)
                for m in exp.indices:
                    pm = p[0] ** m[0] * p[1] ** m[1]
                    Wm = np.concatenate([exp.w(m), exp.wdot(m)])
                    W += Wm * pm
                    if m[0]:
                        d1 += m[0] * p[0] ** (m[0] - 1) * p[1] ** m[1] * Wm
                    if m[1]:
                        d2 += m[1] * p[0] ** m[0] * p[1] ** (m[1] - 1) * Wm
                    R += exp.R(m) * pm
                F = np.zeros(2 * n)
                F[:n] = -model.nonlinear_force(W[:n].real)
                worst = max(worst, np.linalg.norm(B @ (d1 * R[0] + d2 * R[1]) - A @ W - F))
            return worst

        rhos = np.array([3e-3, 3e-2])
        slope = np.log(defect(rhos[1]) / defect(rhos[0])) / np.log(rhos[1] / rhos[0])
        assert abs(slope - (O + 1)) <= 0.5

    def test_rejects_zero_amplitude(self, chain2, chain2_exp5):
        model, _ = chain2
        for rho, message in (
            (0.0, "rho must be positive"),
            (np.nan, "rho must be positive"),
            (np.inf, "rho must be finite, got inf"),
        ):
            with pytest.raises(ArgumentError) as err:
                invariance_residual(model, chain2_exp5, rho)
            assert str(err.value) == message

    def test_another_model_is_rejected(self, chain2, chain2_exp5):
        # the stiffness factor is the expansion's, so the model must be too
        twin = dataclasses.replace(chain2[0])  # equal values, another object
        with pytest.raises(ValueError, match="another model"):
            invariance_residual(twin, chain2_exp5, 0.1)

    @pytest.mark.parametrize("name", ["chain2", "vk_beam10"])
    def test_matches_pointwise_loop(self, chain2, name):
        if name == "chain2":
            model = chain2[0]
        else:
            model = build_vk_beam(VkBeamSpec(a1=0.005, a2=0.002), ())[0]
        master = solve_master(model, 0)
        exp = None
        for O in (3, 5, 7, 9):
            exp = compute_ssm(model, master, O, from_expansion=exp)
            cap = validity_cap(exp, 1)
            for rho in (0.01 * cap, 0.3 * cap, cap):
                want = loop_residual(model, exp, rho)
                got = invariance_residual(model, exp, rho).epsilon
                # epsilon is itself relative; near the roundoff floor of the
                # defect only an absolute comparison is meaningful
                assert abs(got - want) <= 1e-12 * max(1.0, want), (O, rho)


def loop_residual(model, exp, rho, theta_samples=32):
    """invariance_residual's epsilon, one theta point and one index at a time,
    from the first-order form with the velocity block weighted by M^-1."""
    B, A = first_order_operators(model)
    n = model.n
    Kreg = model.K + 1e-14 * np.linalg.norm(model.K, 1) * model.M
    Minv = np.linalg.inv(model.M)

    def state_norm(vec):
        s1 = np.linalg.solve(Kreg, vec[:n])
        s2 = Minv @ vec[n:] / exp.master.omega
        return np.sqrt(np.linalg.norm(s1) ** 2 + np.linalg.norm(s2) ** 2)

    eps = 0.0
    for k in range(1, theta_samples + 1):
        theta = 2.0 * np.pi * k / theta_samples
        p = np.array([rho * np.exp(1j * theta), rho * np.exp(-1j * theta)])
        W = np.zeros(2 * n, dtype=complex)
        dW1 = np.zeros(2 * n, dtype=complex)
        dW2 = np.zeros(2 * n, dtype=complex)
        Rp = np.zeros(2, dtype=complex)
        for m in exp.indices:
            Wm = np.concatenate([exp.w(m), exp.wdot(m)])
            pm = p[0] ** m[0] * p[1] ** m[1]
            W += Wm * pm
            if m[0] > 0:
                dW1 += m[0] * p[0] ** (m[0] - 1) * p[1] ** m[1] * Wm
            if m[1] > 0:
                dW2 += m[1] * p[0] ** m[0] * p[1] ** (m[1] - 1) * Wm
            Rp += exp.R(m) * pm
        F = np.zeros(2 * n, dtype=complex)
        F[:n] = -model.nonlinear_force(W[:n])
        rhs = A @ W + F
        lhs = B @ (dW1 * Rp[0] + dW2 * Rp[1])
        eps = max(eps, state_norm(lhs - rhs) / state_norm(rhs))
    return eps


class TestAdaptOrder:
    @pytest.mark.parametrize(
        "tol, order_range, message",
        [
            (0.0, (3, 13), "tolerance must be positive"),
            (-1e-3, (3, 13), "tolerance must be positive"),
            (1e-3, (4, 9), "order range must be odd bounds with 3 <= lo <= hi, got (4, 9)"),
            (1e-3, (3, 8), "order range must be odd bounds with 3 <= lo <= hi, got (3, 8)"),
            (1e-3, (1, 5), "order range must be odd bounds with 3 <= lo <= hi, got (1, 5)"),
            (1e-3, (7, 5), "order range must be odd bounds with 3 <= lo <= hi, got (7, 5)"),
            (np.nan, (3, 13), "tolerance must be positive"),
            (np.inf, (3, 13), "tolerance must be finite, got inf"),
        ],
    )
    def test_bad_arguments_raise(self, chain2, chain2_master, tol, order_range, message):
        with pytest.raises(ValueError) as err:
            adapt_order(chain2[0], chain2_master, tol, lambda e: 0.2, order_range)
        assert type(err.value) is ArgumentError and str(err.value) == message

    def test_linear_model_stops_at_three(self, linear_chain):
        model, _ = linear_chain
        res = adapt_order(model, solve_master(model, 0), tol=1e-8, rho_at=lambda e: 0.5)
        assert res.expansion.order == 3 and not res.warned

    def test_warning_flag_when_range_exhausted(self, duffing, duffing_master):
        model, _ = duffing
        res = adapt_order(
            model, duffing_master, tol=1e-14, rho_at=lambda e: 0.5, order_range=(3, 5)
        )
        assert res.warned and res.expansion.order == 5

    def test_order_increases_with_amplitude_on_beam(self, beam, beam_master, beam_center_dof):
        model, _ = beam
        orders = []
        for xt in (0.0005, 0.002, 0.004):
            res = adapt_order(
                model,
                beam_master,
                tol=1e-3,
                rho_at=lambda e: rho_of_x(e, beam_center_dof, xt),
                order_range=(3, 9),
            )
            assert res.error.rho_max == rho_of_x(res.expansion, beam_center_dof, xt)
            orders.append(res.expansion.order)
        assert orders == sorted(orders)
        assert orders[-1] > orders[0]

    def test_residual_factors_the_stiffness_once_per_model(
        self, beam, beam_master, beam_center_dof, monkeypatch
    ):
        # every order's residual reads the stiffness's factors in the modes
        # the model keeps: one eigendecomposition, made when the model is
        # built, for the expansion and every residual, the one that gives
        # this model's frequencies; each epsilon equals the one a fresh
        # model, factored anew, gives
        factored, seen = [], []
        eigh, residual = np.linalg.eigh, ssm.invariance_residual

        def counted_eigh(a, *args, **kwargs):
            out = eigh(a, *args, **kwargs)
            factored.append(out[0])
            return out

        def recorded_residual(m, exp, rho):
            err = residual(m, exp, rho)
            seen.append((exp.order, rho, err.epsilon))
            return err

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(ssm, "invariance_residual", recorded_residual)
        model = dataclasses.replace(beam[0])
        res = adapt_order(
            model,
            beam_master,
            tol=1e-300,
            rho_at=lambda e: rho_of_x(e, beam_center_dof, 0.002),
            order_range=(3, 9),
        )
        monkeypatch.undo()
        assert res.warned and [O for O, _, _ in seen] == [3, 5, 7, 9]
        assert len(factored) == 1
        assert np.array_equal(np.sqrt(np.maximum(factored[0], 0.0)), model.modes[0])
        for O, rho, epsilon in seen:
            fresh = dataclasses.replace(model)
            exp = compute_ssm(fresh, beam_master, O)
            assert invariance_residual(fresh, exp, rho).epsilon == epsilon, O

    @staticmethod
    def reachable_from(first_order, rho):
        """rho_at that misses below first_order, at a cap of 0.3."""

        def rho_at(exp):
            if exp.order < first_order:
                raise AmplitudeUnreachableError(1.0, 0.5, rho_cap=0.3)
            return rho

        return rho_at

    def test_unreachable_target_raises_the_order(self, chain2, chain2_master):
        # a tolerance no finite residual exceeds leaves unreachability the
        # only cause to raise
        model, _ = chain2
        res = adapt_order(model, chain2_master, tol=1e300, rho_at=self.reachable_from(7, 0.2))
        assert res.expansion.order == 7 and not res.warned
        assert res.error.rho_max == 0.2
        assert res.error.epsilon == invariance_residual(model, res.expansion, 0.2).epsilon

    def test_unreachable_at_the_top_order_warns(self, chain2, chain2_master):
        model, _ = chain2
        res = adapt_order(
            model,
            chain2_master,
            tol=1e300,
            rho_at=self.reachable_from(7, 0.2),
            order_range=(3, 5),
        )
        assert res.warned and res.expansion.order == 5
        assert res.error.epsilon == np.inf and res.error.rho_max == 0.3


class TestBackboneAgainstSimulation:
    def test_undamped_chain_ringdown_frequency(self):
        # oracle: time integration from an on-manifold initial condition; the
        # oscillation period must match the backbone prediction
        spec = ChainSpec(alpha_r=0.0, beta_r=0.0)
        model, _ = build_chain(spec)
        master = solve_master(model, 0)
        exp = compute_ssm(model, master, 7)
        n = model.n
        Minv = np.linalg.inv(model.M)

        def rhs(_t, z):
            x, v = z[:n], z[n:]
            return np.concatenate([v, -Minv @ (model.K @ x + model.nonlinear_force(x))])

        for rho in (0.05, 0.25):
            Om = omega_of_rho(exp, rho)
            W = np.zeros(2 * n, dtype=complex)
            for m in exp.indices:
                W += np.concatenate([exp.w(m), exp.wdot(m)]) * rho ** order(m)
            z0 = W.real
            T = 2 * np.pi / Om
            sol = solve_ivp(rhs, (0, 3.2 * T), z0, rtol=1e-11, atol=1e-13, dense_output=True)
            tt = np.linspace(0, 3.2 * T, 8000)
            v = sol.sol(tt)[n]
            sgn = np.sign(v)
            idx = np.nonzero((sgn[:-1] > 0) & (sgn[1:] <= 0))[0]
            cross = [tt[i] - v[i] * (tt[i + 1] - tt[i]) / (v[i + 1] - v[i]) for i in idx]
            Om_sim = 2 * np.pi / np.diff(cross).mean()
            assert Om == pytest.approx(Om_sim, rel=2e-4)
