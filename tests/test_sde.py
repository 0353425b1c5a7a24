import dataclasses
import math

import numpy as np
import pytest

from rbmlmc.euler import euler_paths_batch
from rbmlmc.ledger import CostLedger
from rbmlmc.sde import make_gbm, preset, preset_names

# The paper's Lipschitz constant gamma of drift and diffusion (Frobenius
# norm), which its error bounds depend on: for affine data, the larger
# spectral norm of A and of B as an (r d, r) matrix.
GAMMA = {"gbm": 0.2, "additive_noise": 1.0, "linear2d": 0.514916286289917}


def test_preset_names_and_unknown():
    assert preset_names() == ["additive_noise", "gbm", "linear2d"]
    with pytest.raises(ValueError):
        preset("heston")


def test_gbm_coefficients():
    # a(x) = 0.05 x, b(x) = 0.2 x
    g = preset("gbm")
    assert (g.A.tolist(), g.a0.tolist()) == ([[0.05]], [0.0])
    assert (g.B.tolist(), g.b0.tolist()) == ([[[0.2]]], [[0.0]])
    assert g.x0.tolist() == [1.0]
    # closed-form terminal mean used as an exact target elsewhere
    assert float(g.x0[0]) * math.exp(g.A[0, 0]) == pytest.approx(
        1.0512710963760241)


def test_additive_noise_coefficients():
    # a(x) = -x, b(x) = 1
    p = preset("additive_noise")
    assert (p.A.tolist(), p.a0.tolist()) == ([[-1.0]], [0.0])
    assert (p.B.tolist(), p.b0.tolist()) == ([[[0.0]]], [[1.0]])
    # Ornstein-Uhlenbeck closed forms
    assert math.exp(-1.0) == pytest.approx(0.36787944117144233)
    assert (1 - math.exp(-2.0)) / 2 == pytest.approx(0.43233235838169365)


def test_all_presets_pass_lipschitz_spot_check():
    # pairs in [-3, 3]^r: a0 and b0 cancel in the coefficient differences
    rng = np.random.default_rng(0)
    for name in preset_names():
        p = preset(name)
        # a(x) - a(y) = A (x - y), and b(x) - b(y) flattened is B (x - y)
        slopes = (p.A, p.B.reshape(-1, p.r))
        assert max(np.linalg.norm(s, 2) for s in slopes) == GAMMA[name]
        x, y = rng.uniform(-3.0, 3.0, (2, 1000, p.r))
        bound = GAMMA[name] * np.linalg.norm(x - y, axis=-1) * (1 + 1e-9)
        for s in slopes:
            assert np.all(np.linalg.norm((x - y) @ s.T, axis=-1) <= bound)


def test_diffusion_nonsingular_square_presets():
    for name in preset_names():
        p = preset(name)
        if p.r == p.d:  # b(x0) = B x0 + b0
            b = np.einsum("ijl,l->ij", p.B, p.x0) + p.b0
            assert abs(np.linalg.det(b)) > 1e-6


def test_dimension_mismatch_errors():
    g = preset("gbm")
    with pytest.raises(ValueError):
        euler_paths_batch(g, np.zeros((1, 4, 2)))
    with pytest.raises(ValueError):
        euler_paths_batch(preset("linear2d"), np.zeros((1, 4, 1)))


def test_coefficient_evaluation_counter():
    # one drift and one diffusion evaluation per path and step
    ledger = CostLedger()
    euler_paths_batch(preset("gbm"), np.zeros((1, 1, 1)), ledger)
    assert ledger.coeff_evals == 2
    euler_paths_batch(preset("linear2d"), np.zeros((5, 3, 2)), ledger)
    assert ledger.coeff_evals == 2 + 2 * 5 * 3


def test_make_gbm_custom_parameters():
    p = make_gbm(0.0, 1.0, 2.0)
    assert (p.A.tolist(), p.B.tolist(), p.x0.tolist()) == (
        [[0.0]], [[[1.0]]], [2.0])


def test_problem_rejects_misshaped_coefficients():
    p = preset("linear2d")  # r = d = 2
    assert dataclasses.replace(p, label="copy").label == "copy"
    for name, bad in (("x0", np.zeros(3)), ("A", np.zeros((2, 3))),
                      ("a0", np.zeros((2, 1))), ("B", np.zeros((2, 2))),
                      ("b0", np.zeros((1, 2)))):
        with pytest.raises(ValueError, match=f"^{name} must have shape"):
            dataclasses.replace(p, **{name: bad})
