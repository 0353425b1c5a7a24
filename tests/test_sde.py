import dataclasses
import math

import numpy as np
import pytest

from rbmlmc.euler import euler_paths_batch
from rbmlmc.ledger import CostLedger
from rbmlmc.sde import (lipschitz_spot_check, make_gbm, make_zero_noise,
                        preset, preset_names)


def test_preset_names_and_unknown():
    assert preset_names() == ["additive_noise", "gbm", "linear2d"]
    with pytest.raises(ValueError):
        preset("heston")


def test_gbm_coefficients():
    g = preset("gbm")
    x = np.array([2.0])
    assert g.drift(x)[0] == pytest.approx(0.1)
    assert g.diffusion(x)[0, 0] == pytest.approx(0.4)
    assert g.gamma == 0.2
    # closed-form terminal mean used as an exact target elsewhere
    assert float(g.x0[0]) * math.exp(g.A[0, 0]) == pytest.approx(
        1.0512710963760241)


def test_additive_noise_coefficients():
    p = preset("additive_noise")
    x = np.array([0.0])
    assert p.drift(x)[0] == 0.0
    assert p.diffusion(x)[0, 0] == 1.0
    # Ornstein-Uhlenbeck closed forms
    assert math.exp(-1.0) == pytest.approx(0.36787944117144233)
    assert (1 - math.exp(-2.0)) / 2 == pytest.approx(0.43233235838169365)


def test_linear2d_diffusion_nonsingular_at_x0():
    p = preset("linear2d")
    b = p.diffusion(p.x0)
    assert abs(np.linalg.det(b)) > 1e-6


def test_all_presets_pass_lipschitz_spot_check():
    for name in preset_names():
        assert lipschitz_spot_check(preset(name))


def test_diffusion_nonsingular_square_presets():
    for name in preset_names():
        p = preset(name)
        if p.r == p.d:
            assert abs(np.linalg.det(np.atleast_2d(
                p.diffusion(p.x0)))) > 0


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


def test_zero_noise_debug_problem():
    p = make_zero_noise()
    assert np.all(p.drift(np.array([3.0])) == 0)
    assert np.all(p.diffusion(np.array([3.0])) == 0)


def test_make_gbm_custom_parameters():
    p = make_gbm(0.0, 1.0, 1.0)
    assert p.drift(np.array([5.0]))[0] == 0.0
    assert p.diffusion(np.array([5.0]))[0, 0] == 5.0
    assert p.gamma == 1.0


def test_problem_rejects_misshaped_coefficients():
    p = preset("linear2d")  # r = d = 2
    assert dataclasses.replace(p, label="copy").label == "copy"
    for name, bad in (("x0", np.zeros(3)), ("A", np.zeros((2, 3))),
                      ("a0", np.zeros((2, 1))), ("B", np.zeros((2, 2))),
                      ("b0", np.zeros((1, 2)))):
        with pytest.raises(ValueError, match=f"^{name} must have shape"):
            dataclasses.replace(p, **{name: bad})
