import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ssmopt import cli, config, models, optimizer, sens_direct, ssm
from ssmopt.cli import main
from ssmopt.errors import SsmOptError

CHAIN_MODEL = {
    "type": "chain",
    "n_masses": 2,
    "mass": 1.0,
    "k": 1.0,
    "k2": 0.5,
    "k3": 0.2,
    "alpha_r": 0.0,
    "beta_r": 0.1,
}


# name -> (model, backbone block without dof and mode, exit code): the
# default flat two-element beam, and two curved ones from a random search
NODE_CASES = {
    "flat": ({"type": "vk_beam", "n_elements": 2}, {"x_targets": [0.001], "order": 5}, 3),
    "curved_runs": (
        {"type": "vk_beam", "n_elements": 2, "a1": -0.016566989417925795,
         "a2": -0.005921777264207622, "thickness": 0.00855892718193769,
         "length": 0.3375375429104786, "alpha_r": 1.788621511644578,
         "beta_r": 0.00023756377879621734},
        {"x_targets": [0.0002974252554316926, 0.0003716097376518507, 0.0007186212714375624],
         "order": 15, "max_order": 9, "eps_tol": 1.845676196243789e-07},
        0,
    ),
    "curved_unreachable": (
        {"type": "vk_beam", "n_elements": 2, "a1": 0.0011963281926679406,
         "a2": 0.006372223240229437, "thickness": 0.00481115487634845,
         "length": 4.66743656166571, "alpha_r": 0.5075378986335566, "beta_r": 0.0},
        {"x_targets": [0.2961145528881397, 0.37394090863492213, 0.4700578827427184],
         "order": 15, "max_order": 3, "eps_tol": 3.384596100942822e-05},
        3,
    ),
}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestBackboneCommand:
    def test_emits_three_files(self, tmp_path, capsys):
        cfg = {
            "command": "backbone",
            "model": CHAIN_MODEL,
            "backbone": {"dof": 1, "x_targets": [0.05, 0.1, 0.2], "order": 5},
        }
        rc = main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        csv = (tmp_path / "out" / "backbone.csv").read_text()
        rows = csv.strip().split("\n")
        assert rows[0] == "rho,omega,x"
        assert len(rows) == 4  # header + one per target
        exp = json.loads((tmp_path / "out" / "expansion.json").read_text())
        assert exp["order"] == 5
        report = json.loads((tmp_path / "out" / "error_report.json").read_text())
        assert report["epsilon"] >= 0.0

    def test_order_auto_adapts(self, tmp_path):
        cfg = {
            "model": CHAIN_MODEL,
            "backbone": {"dof": 1, "x_targets": [0.2], "order": "auto", "eps_tol": 1e-6},
        }
        rc = main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "error_report.json").read_text())
        assert report["order"] > 3
        assert report["epsilon"] <= 1e-6

    def test_order_auto_option_overrides_a_fixed_order(self, tmp_path):
        # the config fixes O3; --order auto adapts past it, as in the
        # config's own "auto"
        cfg = {
            "model": CHAIN_MODEL,
            "backbone": {"dof": 1, "x_targets": [0.2], "order": 3, "eps_tol": 1e-6},
        }
        argv = ["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]
        assert main(["backbone", *argv, "--order", "auto"]) == 0
        report = json.loads((tmp_path / "o" / "error_report.json").read_text())
        assert report["order"] > 3 and report["epsilon"] <= 1e-6

    def test_numbers_round_trip_losslessly(self, tmp_path):
        cfg = {
            "model": CHAIN_MODEL,
            "backbone": {"dof": 1, "x_targets": [0.123456789012345], "order": 5},
        }
        out = tmp_path / "rt"
        assert main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        row = (out / "backbone.csv").read_text().strip().split("\n")[1].split(",")
        assert float(row[2]) == 0.123456789012345

    def test_invalid_schema_exit_code_and_path(self, tmp_path, capsys):
        cfg = {"model": CHAIN_MODEL, "backbone": {"dof": 1, "x_targets": [0.1], "bogus": 1}}
        rc = main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "backbone" in err

    @pytest.mark.parametrize(
        "text, message",
        [(None, "cannot read config"), ("{\"model\": ", "config is not valid JSON")],
    )
    def test_unreadable_config_exit_code(self, tmp_path, capsys, text, message):
        # None: the path names a directory, which cannot be read as a file
        path = tmp_path / "cfg.json"
        if text is None:
            path.mkdir()
        else:
            path.write_text(text)
        rc = main(["backbone", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_unknown_top_level_key_rejected(self, tmp_path, capsys):
        cfg = {"model": CHAIN_MODEL, "backbone": {"dof": 1, "x_targets": [0.1]}, "extra": {}}
        assert main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 1

    def test_model_error_exit_code(self, tmp_path):
        bad = {
            "type": "matrix",
            "n": 2,
            "M": [[-1.0, 0.0], [0.0, 1.0]],
            "K": [[1.0, 0.0], [0.0, 1.0]],
        }
        cfg = {"model": bad, "backbone": {"dof": 0, "x_targets": [0.1]}}
        assert main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2

    def test_fixed_order_maps_targets_through_its_own_expansion(self, tmp_path):
        # 0.0075 lies past the O3 validity cap of this beam (0.00699) but
        # inside the O9 one; a fixed order never looks at the O3 expansion
        cfg = {
            "model": {"type": "vk_beam", "a1": 0.01},
            "backbone": {"dof": 13, "x_targets": [0.002, 0.0075], "order": 9},
        }
        out = tmp_path / "o"
        assert main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        report = json.loads((out / "error_report.json").read_text())
        assert report["order"] == 9
        assert report["epsilon"] == pytest.approx(2.7e-2, rel=0.05)

    def test_auto_reaches_a_target_past_the_o3_cap(self, tmp_path):
        # auto measures each order where its own expansion maps the targets:
        # O3 cannot reach 0.0075, O9 can, and its residual misses eps_tol
        cfg = {
            "model": {"type": "vk_beam", "a1": 0.01},
            "backbone": {
                "dof": 13,
                "x_targets": [0.002, 0.0075],
                "order": "auto",
                "max_order": 9,
                "eps_tol": 1e-3,
            },
        }
        out = tmp_path / "o"
        assert main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        report = json.loads((out / "error_report.json").read_text())
        assert report["order"] == 9 and report["order_warning"]
        assert report["epsilon"] == pytest.approx(2.7e-2, rel=0.05)

    def test_auto_solves_each_index_once(self, tmp_path, monkeypatch):
        # one expansion grows from O3 to O9: one solve per canonical index of
        # orders 2-9, and no probe expansion beside it
        calls = []
        step = ssm.step_order

        def counted(exp):
            step(exp)
            calls.extend(exp.plans[-1].indices)

        monkeypatch.setattr(ssm, "step_order", counted)
        cfg = {
            "model": {"type": "vk_beam", "a1": 0.01},
            "backbone": {"dof": 13, "x_targets": [0.002, 0.005], "order": "auto", "max_order": 9},
        }
        assert main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 28 and len(set(calls)) == 28

    @pytest.mark.parametrize(
        "model, block",
        [
            (CHAIN_MODEL, {"dof": 1, "x_targets": [0.2], "eps_tol": 1e-6}),
            ({"type": "vk_beam", "a1": 0.01}, {"dof": 13, "x_targets": [0.002, 0.005], "max_order": 9}),
        ],
    )
    def test_auto_reports_what_its_fixed_order_reports(self, tmp_path, model, block):
        def report(order):
            cfg = {"model": model, "backbone": block | {"order": order}}
            out = tmp_path / str(order)
            path = write_config(tmp_path, cfg, f"{order}.json")
            assert main(["backbone", "--config", path, "--out", str(out)]) == 0
            return json.loads((out / "error_report.json").read_text())

        auto = report("auto")
        fixed = report(auto["order"])
        assert (auto["epsilon"], auto["rho_max"]) == (fixed["epsilon"], fixed["rho_max"])
        eps_tol = block.get("eps_tol", cli.BACKBONE_DEFAULTS["eps_tol"])
        for rep in (auto, fixed):
            assert rep["order_warning"] == (rep["epsilon"] > eps_tol)

    def test_integral_float_orders_run(self, tmp_path):
        # JSON integers may arrive as 5.0; the schema accepts them as integers
        for i, block in enumerate(({"order": 5.0}, {"order": "auto", "max_order": 5.0})):
            cfg = {"model": CHAIN_MODEL, "backbone": {"dof": 1, "x_targets": [0.1]} | block}
            path = write_config(tmp_path, cfg, f"{i}.json")
            assert main(["backbone", "--config", path, "--out", str(tmp_path / str(i))]) == 0

    def test_outer_resonance_exit_code_names_the_index(self, tmp_path, capsys):
        # omega_2 = 3 omega_1: the (3, 0) operator K - 9 M is singular
        model = {
            "type": "matrix",
            "n": 2,
            "M": [[1.0, 0.0], [0.0, 1.0]],
            "K": [[1.0, 0.0], [0.0, 9.0]],
            "T3": [[0, 0, 0, 0, 1.0]],
        }
        cfg = {"model": model, "backbone": {"dof": 0, "x_targets": [0.1], "order": 3}}
        rc = main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "cohomological operator at index (3, 0) is numerically singular" in err
        assert "mode 1 resonates with the master pair" in err
        assert "Traceback" not in err

    def test_rigid_body_master_exit_code(self, tmp_path, capsys):
        # free-free three-mass chain: its mode 0 is rigid, and its computed
        # omega^2 is roundoff, here of either sign depending on the masses
        model = {
            "type": "matrix",
            "n": 3,
            "M": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            "K": [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]],
            "beta_r": 0.01,
            "T3": [[0, 0, 0, 0, 1.0]],
        }
        cfg = {"model": model, "backbone": {"dof": 0, "x_targets": [0.1], "order": 3, "mode": 0}}
        rc = main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "mode 0 has zero frequency (rigid-body mode)" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_expansion_exit_code_names_the_index(self, tmp_path, capsys):
        # every entry is finite, but the order-5 force products of the order-3
        # coefficients (about 1e300 each) overflow to inf
        model = {
            "type": "matrix",
            "n": 2,
            "M": [[1, 0], [0, 1]],
            "K": [[2, -1], [-1, 2]],
            "beta_r": 0.01,
            "T3": [[0, 0, 0, 0, 1e300], [1, 1, 1, 1, 1e300]],
        }
        cfg = {"model": model, "backbone": {"dof": 0, "x_targets": [0.1], "order": 5}}
        rc = main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "Traceback" not in err
        assert "computation error: cohomological right-hand side at index (5, 0)" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_amplitude_polynomial_exit_code(self, tmp_path, capsys):
        # the order-5 coefficients are finite (max |w| about 6e198), but the
        # Parseval sum of their squares is not: reported, not inverted as NaN
        model = {"type": "chain", "n_masses": 2, "k3": 1e100}
        cfg = {"model": model, "backbone": {"dof": 1, "x_targets": [1e-60], "order": 5}}
        rc = main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "Traceback" not in err and "Warning" not in err
        assert "computation error: the amplitude polynomial of DOF 1 at order 5 overflows" in err

    def test_null_width_is_the_default_width(self, tmp_path):
        model = {"type": "vk_beam", "n_elements": 4}
        outs = []
        for i, fields in enumerate(({}, {"width": None})):
            cfg = {"model": dict(model, **fields), "backbone": {"dof": 4, "x_targets": [0.001]}}
            outs.append(tmp_path / f"o{i}")
            argv = ["--config", write_config(tmp_path, cfg, f"cfg{i}.json"), "--out", str(outs[-1])]
            assert main(["backbone", *argv]) == 0
        for name in ("backbone.csv", "expansion.json", "error_report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(NODE_CASES))
    def test_roundoff_node_of_the_master_mode(self, tmp_path, capsys, case):
        # DOF 1 of each two-element beam's mode 1 is a node that roundoff
        # leaves at 6e-18 to 3e-16 of the mode's largest entry
        model, block, code = NODE_CASES[case]
        cfg = {"model": model, "backbone": dict(block, dof=1, mode=1)}
        out = tmp_path / "o"
        rc = main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == code
        if code == 3:
            x0 = block["x_targets"][0]
            found = re.fullmatch(
                rf"computation error: target amplitude {x0:.6g} unreachable; maximum "
                r"attainable within the validity radius is (\S+)\n",
                err,
            )
            assert found, err
            if case == "flat":  # by symmetry the midspan does not move in this mode
                assert float(found[1]) < 1e-15
        else:
            assert err == ""
            x = [float(r.split(",")[2]) for r in (out / "backbone.csv").read_text().split()[1:]]
            assert x == block["x_targets"]
            assert json.loads((out / "error_report.json").read_text())["order_warning"]

    @pytest.mark.parametrize(
        "field, fields",
        [
            ("T3", {"T3": [[0, 0, 0, 0.1]]}),  # one index short
            ("T2", {"T2": [[0, 0, 0, 0, 0.5]]}),  # one index too many
            ("T2", {"T2": [[0.5, 0, 0, 0.5]]}),  # fractional index
            ("T2", {"T2": [[0, 0, 0, "x"]]}),  # non-numeric value
            ("T3", {"T3": [[0, 0, 0, 0, float("nan")]]}),  # non-finite value
            ("n", {"n": 2}),  # disagrees with the 1x1 M
            ("M", {"M": [["a"]]}),  # non-numeric matrix entry
            ("K", {"K": [[1.0], [1.0, 2.0]]}),  # ragged matrix
            ("M", {"M": [[float("inf")]]}),  # non-finite matrix entry
            ("T2", {"T2": [[True, 0, 0, 1.0]]}),  # boolean index
            ("alpha_r", {"alpha_r": float("nan")}),  # non-finite Rayleigh coefficient
            ("beta_r", {"beta_r": float("inf")}),
        ],
    )
    def test_malformed_matrix_model_exit_code(self, tmp_path, capsys, field, fields):
        model = dict({"type": "matrix", "n": 1, "M": [[1.0]], "K": [[1.0]]}, **fields)
        cfg = {"model": model, "backbone": {"dof": 0, "x_targets": [0.1], "order": 3}}
        rc = main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"model error: {field} ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value",
        [("k2", float("nan")), ("k3", float("nan")), ("mass", float("inf")), ("k", float("inf"))],
    )
    def test_non_finite_chain_coefficient_exit_code(self, tmp_path, capsys, field, value):
        # json writes these as NaN and Infinity, which json.load reads back
        cfg = {"model": dict(CHAIN_MODEL, **{field: value}), "backbone": {"dof": 1, "x_targets": [0.1]}}
        rc = main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"model error: {field} must be a finite number, got {value}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["a1", "thickness", "length", "width", "density", "youngs"])
    def test_non_finite_vk_beam_field_exit_code(self, tmp_path, capsys, field, value):
        # checked before assembly, which would otherwise fill M or K with
        # NaN under numpy warnings and blame the matrix
        cfg = {
            "model": {"type": "vk_beam", field: value},
            "backbone": {"dof": 13, "x_targets": [0.001], "order": 3},
        }
        rc = main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"model error: {field} must be a finite number, got {value}")
        assert "Traceback" not in err

    def test_degenerate_beam_geometry_exit_code(self, tmp_path, capsys):
        # a positive length whose element lengths underflow to zero
        cfg = {
            "model": {"type": "vk_beam", "length": 5e-324},
            "backbone": {"dof": 13, "x_targets": [0.001], "order": 3},
        }
        rc = main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("model error: inverted or degenerate beam geometry")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, fields, argv",
        [
            ("x_targets", {"x_targets": [0.1, -0.2]}, []),  # negative target
            ("x_targets", {"x_targets": [float("nan")]}, []),  # NaN target
            ("dof", {"dof": 7}, []),  # the model has 2 DOFs
            ("mode", {"mode": 9}, []),
            ("n_theta", {"n_theta": 128}, []),  # no grid setting: an unknown key
            ("order", {"order": 4}, []),  # even order in the config
            ("order", {}, ["--order", "4"]),  # even order on the command line
            ("order", {}, ["--order", "five"]),
            ("max_order", {"order": "auto", "max_order": 8}, []),
            ("eps_tol", {"order": "auto", "eps_tol": -1.0}, []),
            ("eps_tol", {"order": "auto"}, ["--eps-tol", "nan"]),
        ],
    )
    def test_bad_backbone_input_exit_code(self, tmp_path, capsys, field, fields, argv):
        block = dict({"dof": 1, "x_targets": [0.1], "order": 5}, **fields)
        cfg = {"model": CHAIN_MODEL, "backbone": block}
        path = write_config(tmp_path, cfg)
        rc = main(["backbone", "--config", path, "--out", str(tmp_path / "o"), *argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "field, model",
        [
            ("model/params/0': 'foo' is not one of", dict(CHAIN_MODEL, params=["foo"])),
            ("'bogus' was unexpected", dict(CHAIN_MODEL, bogus=1)),
            ("'thickness' was unexpected", dict(CHAIN_MODEL, thickness=0.01)),
            ("'n_masses' was unexpected", {"type": "vk_beam", "n_masses": 2}),
            ("model/params/1': 'k3' is not one of", {"type": "vk_beam", "params": ["h", "k3"]}),
            ("n_elements", {"type": "vk_beam", "n_elements": 0}),
            ("model/type", {"type": "spring"}),
            ("'params' was unexpected", {"type": "matrix", "n": 1, "M": [[1.0]], "K": [[1.0]], "params": []}),
            ("'poisson' was unexpected", {"type": "vk_beam", "poisson": 0.3}),  # read by nothing
        ],
    )
    def test_bad_model_block_names_the_key(self, tmp_path, capsys, field, model):
        cfg = {"model": model, "backbone": {"dof": 0, "x_targets": [0.001], "order": 3}}
        rc = main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_out_key_rejected(self, tmp_path, capsys):
        # the output directory comes from --out alone
        cfg = {"model": CHAIN_MODEL, "backbone": {"dof": 1, "x_targets": [0.1]}, "out": "o2"}
        rc = main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "'out' was unexpected" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("backbone", {"model": CHAIN_MODEL}),
            ("sens", {"model": CHAIN_MODEL}),
            ("optimize", {"model": CHAIN_MODEL}),
            ("backbone", {"backbone": {"dof": 1, "x_targets": [0.1]}}),
        ],
    )
    def test_missing_block_rejected(self, tmp_path, capsys, command, cfg):
        rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "block" in err
        assert "Traceback" not in err

    def test_command_mismatch_rejected(self, tmp_path):
        cfg = {
            "command": "sens",
            "model": CHAIN_MODEL,
            "backbone": {"dof": 1, "x_targets": [0.1]},
        }
        assert main(["backbone", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 1


class TestSensCommand:
    def test_two_methods_agree(self, tmp_path):
        cfg = {
            "model": CHAIN_MODEL,
            "sens": {"dof": 1, "x0": 0.1, "methods": ["adjoint", "direct"], "order": 5},
        }
        out = tmp_path / "s"
        rc = main(["sens", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 0
        adj = json.loads((out / "sens_adjoint.json").read_text())
        dd = json.loads((out / "sens_direct.json").read_text())
        ga = np.array([g["dOmega"] for g in adj["gradients"]])
        gd = np.array([g["dOmega"] for g in dd["gradients"]])
        assert np.all(np.abs(ga - gd) <= 1e-8 * np.abs(gd))
        assert adj["method"] == "adjoint"

    def test_verify_fd_block(self, tmp_path):
        cfg = {
            "model": CHAIN_MODEL,
            "sens": {"dof": 1, "x0": 0.1, "methods": ["adjoint"], "order": 3},
        }
        out = tmp_path / "fd"
        rc = main(["sens", "--config", write_config(tmp_path, cfg), "--out", str(out), "--verify-fd"])
        assert rc == 0
        blk = json.loads((out / "sens_fd_check.json").read_text())
        assert blk["max_rel_err_adjoint"] <= 1e-5

    def test_verify_fd_is_normwise(self, tmp_path):
        # d/da2 of the curved beam is ~3e-10 against ~5e-5 of central-FD
        # noise: a componentwise error would read ~1 for agreeing gradients
        cfg = {
            "model": {"type": "vk_beam", "n_elements": 4, "a1": 0.001, "params": ["a1", "a2", "h", "L"]},
            "sens": {"dof": 4, "x0": 0.002, "methods": ["adjoint", "direct"], "order": 5},
        }
        out = tmp_path / "fd"
        rc = main(["sens", "--config", write_config(tmp_path, cfg), "--out", str(out), "--verify-fd"])
        assert rc == 0
        blk = json.loads((out / "sens_fd_check.json").read_text())
        assert blk["max_rel_err_adjoint"] <= 1e-5
        assert blk["max_rel_err_direct"] <= 1e-5

    def test_verify_fd_builds_models_only(self, tmp_path, monkeypatch):
        # the design's assembly and two per parameter for its derivatives,
        # then one per FD point: the FD points' derivatives would be unread
        assembled = []
        assemble = models._assemble_vk

        def counted(spec):
            assembled.append(spec)
            return assemble(spec)

        monkeypatch.setattr(models, "_assemble_vk", counted)
        cfg = {
            "model": {"type": "vk_beam", "n_elements": 4, "a1": 0.001, "params": ["a1", "a2", "h", "L"]},
            "sens": {"dof": 4, "x0": 0.002, "methods": ["adjoint"], "order": 3},
        }
        out = tmp_path / "fd"
        rc = main(["sens", "--config", write_config(tmp_path, cfg), "--out", str(out), "--verify-fd"])
        assert rc == 0
        assert len(assembled) == 1 + 2 * 4 + 2 * 4

    @pytest.mark.parametrize(
        "field, fields",
        [
            ("dof", {"dof": 7}),
            ("mode", {"mode": 2}),
            ("x0", {"x0": -0.1}),
            ("x0", {"x0": float("inf")}),
            ("order", {"order": 4}),
            ("n_theta", {"n_theta": 128}),
        ],
    )
    def test_bad_sens_input_exit_code(self, tmp_path, capsys, field, fields):
        cfg = {"model": CHAIN_MODEL, "sens": dict({"dof": 1, "x0": 0.1}, **fields)}
        rc = main(["sens", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert not (tmp_path / "o").exists()

    def test_matrix_model_without_params_rejected(self, tmp_path):
        cfg = {
            "model": {"type": "matrix", "n": 1, "M": [[1.0]], "K": [[1.0]]},
            "sens": {"dof": 0, "x0": 0.1},
        }
        assert main(["sens", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 1


class TestVerifyCommand:
    def test_all_invariants_pass(self, capsys):
        assert main(["verify", "--out", "unused"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4
        assert "0 failures" in out


class TestOptimizeCommand:
    def test_chain_toy_run(self, tmp_path):
        model_block = dict(CHAIN_MODEL, params=["k3"])
        cfg = {
            "model": model_block,
            "optimize": {
                "objective": {"type": "constant"},
                "constraints": [
                    {"type": "backbone", "dof": 1, "x": 0.35, "omega": 0.6083}
                ],
                "bounds": {"lower": [-1.0], "upper": [1.0]},
                "tolerances": {"constraint_tol": 1e-7, "max_iter": 40, "eps_tol": 1e-2},
            },
        }
        out = tmp_path / "opt"
        rc = main(["optimize", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"]
        trace = (out / "trace.csv").read_text().strip().split("\n")
        assert trace[0].startswith("iteration,")
        assert len(trace) >= 2

    def test_start_past_every_validity_radius_exit_code(self, tmp_path, capsys):
        # at the start design no order up to 7 expands dof 1 to x = 10: the
        # first evaluation fails with the unreachable amplitude's own message
        cfg = {
            "model": dict(CHAIN_MODEL, params=["k3"]),
            "optimize": {
                "objective": {"type": "constant"},
                "constraints": [{"type": "backbone", "dof": 1, "x": 10.0, "omega": 1.0}],
                "bounds": {"lower": [-1.0], "upper": [1.0]},
                "tolerances": {"max_order": 7},
            },
        }
        out = tmp_path / "opt"
        rc = main(["optimize", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("computation error: target amplitude 10 unreachable; "
                              "maximum attainable within the validity radius is 3.26856")
        assert not out.exists()


OPT_BLOCK = {
    "objective": {"type": "constant"},
    "constraints": [{"type": "backbone", "dof": 1, "x": 0.35, "omega": 0.6083}],
    "bounds": {"lower": [-1.0], "upper": [1.0]},
    "tolerances": {"max_iter": 2},
}


# a variable objective with keys of the linear and product types
STRAY_KEYS_OBJECTIVE = {
    "type": "variable",
    "name": "k3",
    "coeffs": {"k3": 5},
    "vars": ["nope"],
    "offset": 3,
}


def opt_case(model=None, constraint=None, tolerances=None, **fields):
    block = dict(OPT_BLOCK, **fields)
    if constraint is not None:
        block["constraints"] = [dict(OPT_BLOCK["constraints"][0], **constraint)]
    if tolerances is not None:
        block["tolerances"] = dict(OPT_BLOCK["tolerances"], **tolerances)
    return {"model": model or dict(CHAIN_MODEL, params=["k3"]), "optimize": block}


class TestOptimizeInputs:
    @pytest.mark.parametrize(
        "field, cfg",
        [
            ("constraints[0].dof", opt_case(constraint={"dof": 7})),
            ("constraints[0].x", opt_case(constraint={"x": -0.35})),
            (
                "constraints[0].mode",
                opt_case(constraints=[{"type": "eigfreq", "mode": 5, "omega": 1.0}]),
            ),
            ("optimize.mode", opt_case(mode=5)),
            ("'n_theta' was unexpected", opt_case(tolerances={"n_theta": 128})),
            ("tolerances.max_order", opt_case(tolerances={"max_order": 8})),
            ("tolerances.eps_tol", opt_case(tolerances={"eps_tol": -1.0})),
            ("objective.name", opt_case(objective={"type": "variable", "name": "foo"})),
            ("objective.coeffs", opt_case(objective={"type": "linear"})),
            ("objective.vars", opt_case(objective={"type": "product", "vars": ["k3", "k"]})),
            ("objective.type", opt_case(objective={"type": "quadratic"})),
            ("objective.scale", opt_case(objective={"type": "constant", "scale": 2})),
            (
                "model/params/0': 'foo' is not one of",
                opt_case(model={"type": "vk_beam", "n_elements": 2, "params": ["foo"]}),
            ),
            (
                "optimize needs design parameters",
                opt_case(model={"type": "matrix", "n": 1, "M": [[1.0]], "K": [[1.0]]}),
            ),
            ("optimize needs design parameters", opt_case(model=dict(CHAIN_MODEL, params=[]))),
            ("constraints[0].omega", opt_case(constraint={"omega": float("nan")})),
            ("constraints[0].omega", opt_case(constraint={"omega": float("inf")})),
            ("tolerances.constraint_tol", opt_case(tolerances={"constraint_tol": float("nan")})),
            ("tolerances.constraint_tol", opt_case(tolerances={"constraint_tol": -1.0})),
            ("'step_tol' was unexpected", opt_case(tolerances={"step_tol": float("nan")})),
            ("objective.value", opt_case(objective={"type": "constant", "value": float("nan")})),
            (
                "objective.coeffs.k3",
                opt_case(objective={"type": "linear", "coeffs": {"k3": float("nan")}}),
            ),
            ("mu0", opt_case(mu0=[float("nan")])),
            ("mu0", opt_case(mu0=[5.0])),  # outside the bounds [-1, 1]
            (
                "objective.coeffs, objective.vars, objective.offset",
                opt_case(objective=STRAY_KEYS_OBJECTIVE),
            ),
            ("objective.offset", opt_case(objective={"type": "constant", "offset": 3})),
        ],
    )
    def test_bad_optimize_input_exit_code(self, tmp_path, capsys, field, cfg):
        rc = main(["optimize", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_objective_over_declared_parameters_runs(self, tmp_path):
        model = dict(CHAIN_MODEL, params=["k3", "k2"])
        cfg = opt_case(
            model=model,
            objective={"type": "linear", "coeffs": {"k2": 1.0}, "offset": 0.5},
            bounds={"lower": [-1.0, 0.0], "upper": [1.0, 1.0]},
        )
        rc = main(["optimize", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert rc in (0, 4)
        assert json.loads((tmp_path / "o" / "summary.json").read_text())["names"] == ["k3", "k2"]


TOY_OPT = opt_case(tolerances={"max_iter": 40, "constraint_tol": 1e-7})
# (command, config, path of the integer that the test writes as a float)
INTEGER_FIELDS = {
    "backbone.dof": (
        "backbone",
        {"model": CHAIN_MODEL, "backbone": {"dof": 1, "x_targets": [0.1], "order": 5}},
        ("backbone", "dof"),
    ),
    "sens.order": (
        "sens",
        {
            "model": CHAIN_MODEL,
            "sens": {"dof": 1, "x0": 0.1, "methods": list(optimizer.GRADIENTS), "order": 5},
        },
        ("sens", "order"),
    ),
    "chain.n_masses": (
        "backbone",
        {"model": CHAIN_MODEL, "backbone": {"dof": 1, "x_targets": [0.1]}},
        ("model", "n_masses"),
    ),
    "vk_beam.n_elements": (
        "backbone",
        {
            "model": {"type": "vk_beam", "n_elements": 4, "a1": 0.002, "a2": 0.001},
            "backbone": {"dof": 4, "x_targets": [0.002], "order": 5},
        },
        ("model", "n_elements"),
    ),
    "optimize.max_iter": ("optimize", TOY_OPT, ("optimize", "tolerances", "max_iter")),
    "optimize.constraint_dof": ("optimize", TOY_OPT, ("optimize", "constraints", 0, "dof")),
}


@pytest.mark.parametrize("case", INTEGER_FIELDS)
def test_integral_floats_run_as_integers(tmp_path, case):
    """An integer written as an integral float (1.0), which the schema takes
    as an integer, runs as that integer: the files match those of the same
    config written with ints, apart from the measured seconds."""
    command, cfg, path = INTEGER_FIELDS[case]
    as_float = json.loads(json.dumps(cfg))
    *parents, key = path
    block = as_float
    for p in parents:
        block = block[p]
    block[key] = float(block[key])
    files = {}
    for name, c in (("int", cfg), ("float", as_float)):
        out = tmp_path / name
        argv = ["--config", write_config(tmp_path, c, f"{name}.json"), "--out", str(out)]
        assert main([command, *argv]) == 0
        files[name] = {
            f.name: re.sub(r'"seconds": [^,\n]*', '"seconds"', f.read_text()) for f in out.iterdir()
        }
    assert files["float"] == files["int"] and files["int"]


def test_bare_library_error_exit_code(tmp_path, capsys, monkeypatch):
    # an SsmOptError of none of the three typed families exits 4
    def fail(cfg, outdir):
        raise SsmOptError("no family")

    monkeypatch.setattr(cli, "cmd_bench", fail)
    assert main(["bench", "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == "error: no family\n"


def test_defaults_are_schema_properties():
    """Every default the CLI fills in is a key the schema accepts, with a
    value the schema accepts."""
    blocks = config.CONFIG_SCHEMA["properties"]
    tolerances = blocks["optimize"]["properties"]["tolerances"]["properties"]
    for defaults, props in (
        (cli.BACKBONE_DEFAULTS, blocks["backbone"]["properties"]),
        (cli.SENS_DEFAULTS, blocks["sens"]["properties"]),
        ({f.name: f.default for f in dataclasses.fields(optimizer.OptTolerances)}, tolerances),
    ):
        assert set(defaults) <= set(props)
        for key, value in defaults.items():
            assert not any(config._schema_errors(props[key], value)), key


def test_files_do_not_depend_on_blas_threads(tmp_path):
    """`ssmopt backbone` on vk_beam40 at order 5 writes the same bytes with
    OpenBLAS's default thread count as with OPENBLAS_NUM_THREADS=1, because
    `cli.main` sets one thread itself (`blas.one_blas_thread`). Without that
    call the default run differs in the last digits of all three files. On a
    1-CPU host OpenBLAS runs one thread either way, and the test cannot tell
    the two apart."""
    model = {"type": "vk_beam", "n_elements": 40, "a1": 0.002, "a2": 0.001}
    cfg = {"model": model, "backbone": {"dof": 58, "x_targets": [0.002], "order": 5}}
    path = write_config(tmp_path, cfg)
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = {"default": env, "one": env | {"OPENBLAS_NUM_THREADS": "1"}}
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "ssmopt.cli", "backbone", "--config", path, "--out", str(tmp_path / name)],
            env=run_env,
            stdout=subprocess.DEVNULL,
        )
        for name, run_env in runs.items()
    ]
    assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
    for name in ("backbone.csv", "expansion.json", "error_report.json"):
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name


class TestBenchCommand:
    def test_csv_schema(self, tmp_path):
        cfg = {
            "bench": {
                "n_masses": 9,
                "param_counts": [1, 4],
                "orders": [3],
                "x0": 0.01,
                "repeats": 1,
            }
        }
        out = tmp_path / "b"
        rc = main(["bench", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 0
        rows = (out / "bench.csv").read_text().strip().split("\n")
        assert rows[0] == "method,order,nparams,seconds"
        assert len(rows) == 1 + 1 + 2 * 2  # primal, then two methods x two param counts
        assert rows[1].startswith("primal,3,0,")
        for row in rows[1:]:
            method, order, nparams, seconds = row.split(",")
            assert method in ("primal", "direct", "adjoint")
            assert float(seconds) > 0

    def test_every_timed_call_is_cold(self, tmp_path, monkeypatch):
        # each repeat of each method gets its own expansion and
        # ParamDerivatives: one record of explicit partials per timed call
        # and one direct walk per direct call, none read from an earlier call
        builds = {"walk": [], "partials": []}
        for name, module, fn in (
            ("walk", sens_direct, "_walk"),
            ("partials", ssm, "_build_partials"),
        ):

            def counted(*args, _build=getattr(module, fn), _seen=builds[name]):
                _seen.append(args[-2:])  # (exp, params)
                return _build(*args)

            monkeypatch.setattr(module, fn, counted)
        cfg = {"bench": {"n_masses": 5, "param_counts": [1, 3], "orders": [3, 5], "repeats": 2}}
        rc = main(["bench", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "b")])
        assert rc == 0
        runs = 2 * 2 * 2  # repeats x parameter counts x orders
        walked, recorded = builds["walk"], builds["partials"]
        # one record per timed call: the direct call's and the adjoint call's
        assert len(walked) == runs and len(recorded) == 2 * runs
        # a new expansion and a new ParamDerivatives for every timed call
        exps = {id(exp) for exp, _ in walked + recorded}
        params = {id(p) for _, p in walked + recorded}
        assert len(exps) == len(params) == 2 * runs

    @pytest.mark.parametrize(
        "field, fields",
        [
            ("bench/orders/0", {"orders": [4]}),
            ("bench/x0", {"x0": -1}),
            ("bench/x0", {"x0": 0}),
        ],
    )
    def test_bad_bench_input_exit_code(self, tmp_path, capsys, field, fields):
        block = {"n_masses": 5, "param_counts": [1], "orders": [3], "x0": 0.01, "repeats": 1}
        cfg = {"command": "bench", "bench": dict(block, **fields)}
        rc = main(["bench", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "b")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert "Traceback" not in err
        assert not (tmp_path / "b").exists()
