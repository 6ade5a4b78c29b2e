"""Backbone-curve computation and tailoring of nonlinear mechanical systems
via two-dimensional spectral-submanifold reduction, with direct and adjoint
sensitivities of the frequency-amplitude relation."""

from .mechmodel import (
    MechModel,
    ParamDerivatives,
    SymTensor,
    check_light_damping,
    model_from_json,
)
from .spectral import MasterPair, mac, solve_master, track_mode
from .ssm import SsmExpansion, adapt_order, compute_ssm, invariance_residual
from .blas import one_blas_thread
from .backbone import BackboneCurve, omega_of_rho, rho_of_x, sample_backbone, x_rms

__all__ = [
    "MechModel",
    "ParamDerivatives",
    "SymTensor",
    "check_light_damping",
    "model_from_json",
    "MasterPair",
    "mac",
    "solve_master",
    "track_mode",
    "SsmExpansion",
    "adapt_order",
    "compute_ssm",
    "invariance_residual",
    "BackboneCurve",
    "omega_of_rho",
    "rho_of_x",
    "sample_backbone",
    "x_rms",
    "one_blas_thread",
]

__version__ = "0.1.0"
