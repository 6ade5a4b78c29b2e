"""Seeded random configs through `cli.main`.

Each seed draws a small chain (n <= 3 masses), vk_beam (<= 4 elements) or
matrix model and a backbone, sens or optimize block (order <= 5, max_iter
<= 3). About a third of the configs then get one bad input, which must exit
1 naming the field. Every other config must end in a documented exit code;
a random design may hit a model, expansion or convergence failure. No call
may raise.
"""

import json

import numpy as np
import pytest

from ssmopt.cli import main
from ssmopt.models import FAMILIES

N_CONFIGS = 60


def chain_block(rng):
    return {
        "type": "chain",
        "n_masses": int(rng.integers(1, 4)),
        "mass": float(rng.uniform(0.5, 2.0)),
        "k": float(rng.uniform(0.5, 2.0)),
        "k2": float(rng.uniform(-0.5, 0.5)),
        "k3": float(rng.uniform(-0.3, 0.3)),
        "alpha_r": float(rng.uniform(0.0, 0.02)),
        "beta_r": float(rng.uniform(0.0, 0.1)),
    }


def beam_block(rng):
    return {
        "type": "vk_beam",
        "n_elements": int(rng.integers(2, 5)),
        "a1": float(rng.uniform(0.0, 0.005)),
        "a2": float(rng.uniform(0.0, 0.005)),
    }


def matrix_block(rng):
    n = int(rng.integers(1, 4))
    a, b = rng.normal(size=(2, n, n))

    def entries(arity, count):
        return [
            [*map(int, rng.integers(0, n, size=arity + 1)), float(0.3 * rng.normal())]
            for _ in range(count)
        ]

    return {
        "type": "matrix",
        "n": n,
        "M": (a @ a.T + n * np.eye(n)).tolist(),
        "K": (b @ b.T + n * np.eye(n)).tolist(),
        "beta_r": float(rng.uniform(0.0, 0.01)),
        "T2": entries(2, 2 * n),
        "T3": entries(3, 2 * n),
    }


def n_dof(model):
    if model["type"] == "chain":
        return model["n_masses"]
    if model["type"] == "vk_beam":
        return 3 * (model["n_elements"] - 1)
    return model["n"]


def random_config(seed):
    """(command, config, bad field or None) of the seed."""
    rng = np.random.default_rng(seed)
    kind = ("chain", "vk_beam", "matrix")[seed % 3]
    command = ("backbone", "sens", "optimize")[(seed // 3) % 3]
    model = {"chain": chain_block, "vk_beam": beam_block, "matrix": matrix_block}[kind](rng)
    if kind != "matrix":
        names = list(FAMILIES[kind].params)
        model["params"] = list(rng.permutation(names)[: rng.integers(1, len(names) + 1)])
    n = n_dof(model)
    dof = int(rng.integers(0, n))
    x = float(rng.uniform(0.1, 0.3) * (0.01 if kind == "vk_beam" else 0.2))
    if command == "backbone":
        block = {"dof": dof, "x_targets": sorted(x * rng.uniform(0.2, 1.0, size=3))}
        block |= {"order": "auto", "max_order": 5, "eps_tol": 1e-3} if rng.random() < 0.5 else {
            "order": int(rng.choice([3, 5]))
        }
    elif command == "sens":
        block = {"dof": dof, "x0": x, "order": int(rng.choice([3, 5])),
                 "methods": ["adjoint", "direct"]}
    else:
        p = len(model.get("params", []))
        block = {
            "objective": {"type": "constant"},
            "constraints": [{"type": "eigfreq", "mode": 0, "omega": float(rng.uniform(0.5, 2.0))}],
            "bounds": {"lower": [-1.0] * p, "upper": [2.0] * p},
            "tolerances": {"max_iter": int(rng.integers(1, 4)), "max_order": 5},
        }
        if kind == "chain":
            block["constraints"] = [{"type": "backbone", "dof": dof, "x": x, "omega": 1.0}]
            block["objective"] = {"type": "variable", "name": model["params"][0]}
            block["bounds"] = {"lower": [-0.5] * p, "upper": [3.0] * p}
    cfg = {"model": model, command: block}

    bad = None
    if rng.random() < 0.35:
        bad = str(rng.choice(["dof", "order", "params", "bogus"]))
        if kind == "matrix" and (bad == "params" or command != "backbone"):
            bad = "bogus"  # a matrix model has no params, nor a design to check
        if bad == "dof":
            if command == "optimize":
                block["constraints"] = [{"type": "eigfreq", "mode": n + 1, "omega": 1.0}]
                bad = "mode"
            else:
                block["dof"] = n + int(rng.integers(0, 3))
        elif bad == "order":
            if command == "optimize":
                block["tolerances"]["max_order"] = 6
            else:
                block["order"] = 4
        elif bad == "params":
            model["params"] = model["params"] + ["foo"]
            bad = "'foo' is not one of"
        else:
            model["bogus"] = 1.0
    return command, cfg, bad


@pytest.mark.parametrize("seed", range(N_CONFIGS))
def test_random_config_exits_with_a_documented_code(tmp_path, capsys, seed):
    command, cfg, bad = random_config(seed)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if bad is not None:
        assert rc == 1
        assert err.startswith("config error: ") and bad in err
    elif cfg["model"]["type"] == "matrix" and command != "backbone":
        assert rc == 1 and "needs design parameters" in err
    else:
        assert rc in (0, 2, 3, 4), err


def test_unbuildable_line_search_trial_shortens_the_step(tmp_path, capsys):
    # seed 15's config, rounded: the first full step sends the mass to its
    # lower bound -0.5, where the chain cannot be built; that trial must count
    # as an infinite merit and halve the step instead of ending the run
    cfg = {
        "model": {
            "type": "chain", "n_masses": 3, "mass": 1.7237, "k": 1.0166, "k2": -0.4552,
            "k3": 0.04296, "alpha_r": 0.00292, "beta_r": 0.0719, "params": ["mass", "k3"],
        },
        "optimize": {
            "objective": {"type": "variable", "name": "mass"},
            "constraints": [{"type": "backbone", "dof": 0, "x": 0.05126, "omega": 1.0}],
            "bounds": {"lower": [-0.5, -0.5], "upper": [3.0, 3.0]},
            "tolerances": {"max_iter": 3, "max_order": 5},
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    rc = main(["optimize", "--config", str(path), "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mu_star"][0] > 0.0


@pytest.mark.parametrize("seed", [34, 421])
def test_infeasible_start_without_a_step_stops_at_once(tmp_path, capsys, seed):
    # a two-element beam with one shape parameter and an eigenfrequency
    # target far off: the constraint column and the objective gradient are
    # zero, so the step is zero while the start is infeasible; the run ends
    # at that step instead of repeating the start until max_iter
    command, cfg, bad = random_config(seed)
    assert command == "optimize" and bad is None
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    rc = main([command, "--config", str(path), "--out", str(out)])
    assert rc == 4, capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["message"] == "merit line search stalled"
    assert summary["iterations"] == 1
    assert len((out / "trace.csv").read_text().strip().split("\n")) == 2  # header, one row
