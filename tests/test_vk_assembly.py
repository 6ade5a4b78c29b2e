"""The batched beam assembly against the element-by-element reference.

`models.build_vk_beam` assembles each design in one pass over all elements;
`oracles.reference_vk_beam` accumulates element by element into dicts. The
model and dM/dK must agree bit for bit: the beam gradients are checked
against stored values to 1e-8, and one-ulp noise in the element quantities
already moves them by more than that. The tensor derivatives keep the same
keys; only the order in which permuted duplicates are summed differs.
"""

import numpy as np
import pytest

from ssmopt.errors import ModelError
from ssmopt.models import VkBeamSpec, build_vk_beam

from oracles import param_tensors, reference_vk_beam

SPECS = {
    "vk_beam40 curved": VkBeamSpec(n_elements=40, a1=0.002, a2=0.001),
    "vk_beam10 flat": VkBeamSpec(),
    "vk_beam10 (0.004, 0.0015)": VkBeamSpec(a1=0.004, a2=0.0015),
    "vk_beam10 (0.01, 0.0035)": VkBeamSpec(a1=0.01, a2=0.0035),
    # one element length here whose square numpy's multiplication rounds
    # differently from the C library's pow
    "vk_beam10 (0.004, 0.001)": VkBeamSpec(a1=0.004, a2=0.001),
    "vk_beam4 h 0.02 L 0.7": VkBeamSpec(n_elements=4, thickness=0.02, length=0.7),
    "vk_beam3 width 0.03": VkBeamSpec(n_elements=3, width=0.03, a1=0.001),
}


def same_tensor(a, b):
    return np.array_equal(a.idx, b.idx) and np.array_equal(a.vals, b.vals)


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
def test_batched_assembly_matches_reference(spec):
    model, derivs = build_vk_beam(spec)
    ref_model, ref_derivs = reference_vk_beam(spec)
    assert np.array_equal(model.M, ref_model.M)
    assert np.array_equal(model.K, ref_model.K)
    assert same_tensor(model.T2, ref_model.T2)
    assert same_tensor(model.T3, ref_model.T3)
    assert derivs.names == ref_derivs.names
    assert derivs.matrix_params == ref_derivs.matrix_params
    assert np.array_equal(derivs.dM, ref_derivs.dM)
    assert np.array_equal(derivs.dK, ref_derivs.dK)
    for arity in (2, 3):
        for dT, ref in zip(param_tensors(derivs, arity), param_tensors(ref_derivs, arity)):
            assert np.array_equal(dT.idx, ref.idx)
            scale = np.abs(ref.vals).max(initial=0.0)
            assert np.abs(dT.vals - ref.vals).max(initial=0.0) <= 1e-15 * scale


@pytest.mark.parametrize(
    "spec, message",
    [
        (VkBeamSpec(thickness=0.0), "beam thickness and length must be positive"),
        (VkBeamSpec(length=-1.0), "beam thickness and length must be positive"),
        (VkBeamSpec(n_elements=1), "beam needs at least 2 elements"),
        (VkBeamSpec(width=0.0), "beam width must be positive"),
        (VkBeamSpec(width=-0.01), "beam width must be positive"),
    ],
)
def test_invalid_beam_keeps_its_message(spec, message):
    for build in (build_vk_beam, reference_vk_beam):
        with pytest.raises(ModelError, match=f"^{message}$"):
            build(spec)

