import numpy as np
import pytest

from rbmlmc.euler import sup_distance_batch
from rbmlmc.functionals import (make_constant, preset_functional,
                                preset_functional_names)
from rbmlmc.mlmc import MLMCParams, run
from rbmlmc.sde import make_zero_noise


def at(f, values):
    """f at one path given by its (m+1, r) breakpoint values."""
    return f.eval_batch(np.asarray(values, dtype=float)[None])[0]


def test_preset_names_and_unknown():
    assert "terminal" in preset_functional_names()
    with pytest.raises(ValueError):
        preset_functional("barrier")
    with pytest.raises(ValueError):
        preset_functional("distance_to_ref")  # needs a reference point


def test_terminal_on_constant_path():
    f = preset_functional("terminal")
    assert at(f, np.full((4, 1), 3.25)) == 3.25


def test_time_average_exact_trapezoid():
    f = preset_functional("time_average")
    assert at(f, [[0.0], [1.0]]) == pytest.approx(0.5)
    # hand-built 3-breakpoint path: integral of pw-linear (0, 2, 1)
    assert at(f, [[0.0], [2.0], [1.0]]) == pytest.approx(
        0.5 * (0 + 2) / 2 + 0.5 * (2 + 1) / 2)


def test_running_max_breakpoint_max():
    f = preset_functional("running_max")
    assert at(f, [[0.0], [2.0], [1.0]]) == 2.0


def test_distance_to_ref_constant_reference():
    f = preset_functional("distance_to_ref", x0=np.array([1.0]))
    assert at(f, [[1.0], [1.8], [0.5]]) == pytest.approx(0.8)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_distance_to_ref_bitwise_equals_norm(r):
    # the expression distance_to_ref evaluated before it called the one
    # sup-distance kernel: the floats must not change
    rng = np.random.default_rng(r)
    values = rng.standard_normal((6, 17, r))
    values[0, 3] = np.nan
    values[1, 5, 0] = np.inf
    values[2, 0] = -0.0
    ref = rng.standard_normal(r)
    with np.errstate(invalid="ignore"):
        old = np.max(np.linalg.norm(values - ref, axis=-1), axis=-1)
        new = preset_functional("distance_to_ref", x0=ref).eval_batch(values)
    assert np.array_equal(new.view(np.int64), old.view(np.int64))


def test_lipschitz_spot_check_all_presets():
    rng = np.random.default_rng(0)
    names = preset_functional_names()
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        a = rng.normal(size=(1, m + 1, 1))
        b = rng.normal(size=(1, m + 1, 1))
        gap = sup_distance_batch(a, b)[0] * (1 + 1e-12)
        for name in names:
            f = preset_functional(name, x0=np.array([0.0]))
            assert abs(f.eval_batch(a)[0] - f.eval_batch(b)[0]) <= gap


def test_eval_with_cost_charges_breakpoints():
    # mlmc.run charges m+1 per evaluation on an m-step path: one fine path
    # per level, plus one coarse path with m/2 steps from level 1 on
    params = MLMCParams(variant="classical", L=3, N=(1, 1, 1, 1))
    rep = run(make_zero_noise(), preset_functional("terminal"), params, 0)
    assert rep.ledger.info_cost == 2 + (3 + 2) + (5 + 3) + (9 + 5)
    params = MLMCParams(variant="classical", L=1, N=(3, 2))
    rep = run(make_zero_noise(), preset_functional("terminal"), params, 0)
    assert rep.ledger.info_cost == 3 * 2 + 2 * (3 + 2)


def test_constant_functional():
    f = make_constant(2.5)
    assert at(f, np.random.default_rng(0).normal(size=(5, 1))) == 2.5
