import os
import sys

# Tier-1 runs with one BLAS thread. Criterion 8's timing gates compare a
# direct call of about 10 ms with one of about 0.5 s, and with OpenBLAS free
# to spread small solves over every CPU, a second busy process makes the
# small call several times slower. The thread count is read when numpy loads,
# so it must be set before anything imports numpy.
assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py"
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest

from ssmopt import compute_ssm, solve_master
from ssmopt.models import ChainSpec, VkBeamSpec, build_chain, build_vk_beam, vk_center_dof


@pytest.fixture(scope="session")
def chain2():
    """Two-mass chain with the reference parameter set."""
    model, params = build_chain(ChainSpec())
    return model, params


@pytest.fixture(scope="session")
def chain2_master(chain2):
    model, _ = chain2
    return solve_master(model, 0)


@pytest.fixture(scope="session")
def chain2_exp5(chain2, chain2_master):
    model, _ = chain2
    return compute_ssm(model, chain2_master, 5)


@pytest.fixture(scope="session")
def duffing():
    """Undamped single-DOF cubic oscillator, parameters (k, k3)."""
    spec = ChainSpec(n_masses=1, mass=1.0, k=1.0, k2=0.0, k3=0.1, alpha_r=0.0, beta_r=0.0)
    model, params = build_chain(spec, params=("k", "k3"))
    return model, params


@pytest.fixture(scope="session")
def duffing_master(duffing):
    model, _ = duffing
    return solve_master(model, 0)


@pytest.fixture(scope="session")
def linear_chain():
    model, params = build_chain(ChainSpec(k2=0.0, k3=0.0))
    return model, params


@pytest.fixture(scope="session")
def beam_spec():
    return VkBeamSpec()


@pytest.fixture(scope="session")
def beam(beam_spec):
    return build_vk_beam(beam_spec)


@pytest.fixture(scope="session")
def beam_master(beam):
    model, _ = beam
    return solve_master(model, 0)


@pytest.fixture(scope="session")
def beam_center_dof(beam_spec):
    return vk_center_dof(beam_spec)
