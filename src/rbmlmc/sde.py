"""SDE problems dX = a(X) dt + b(X) dW on [0,1] with Lipschitz coefficients.

Coefficients are vectorized: drift maps arrays of shape (..., r) to (..., r),
diffusion maps (..., r) to (..., r, d). Presets are linear so terminal-value
moments have closed forms usable as exact test targets.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class SDEProblem:
    label: str
    r: int
    d: int
    x0: np.ndarray
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    gamma: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.r < 1 or self.d < 1:
            raise ValueError("state and driving dimensions must be >= 1")
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError("gamma must be finite and >= 0")
        if np.shape(self.x0) != (self.r,):
            raise ValueError(f"x0 must have shape ({self.r},)")


def make_gbm(mu: float = 0.05, sigma: float = 0.2, x0: float = 1.0) -> SDEProblem:
    """Geometric Brownian motion dX = mu X dt + sigma X dW."""

    def drift(x):
        return mu * x

    def diffusion(x):
        return sigma * x[..., None]

    return SDEProblem(label="gbm", r=1, d=1, x0=np.array([x0], dtype=float),
                      drift=drift, diffusion=diffusion,
                      gamma=max(abs(mu), abs(sigma)),
                      params={"mu": mu, "sigma": sigma})


def make_additive_noise() -> SDEProblem:
    """Ornstein-Uhlenbeck dX = -X dt + dW, x0 = 1."""

    def drift(x):
        return -x

    def diffusion(x):
        return np.ones(x.shape + (1,), dtype=float)

    return SDEProblem(label="additive_noise", r=1, d=1,
                      x0=np.array([1.0]), drift=drift, diffusion=diffusion,
                      gamma=1.0)


_LIN2D_A = np.array([[-0.5, 0.1], [0.0, -0.3]])
_LIN2D_C = np.array([[0.3, 0.05], [0.0, 0.25]])


def make_linear2d() -> SDEProblem:
    """2d linear system with constant-plus-diagonal-linear diffusion."""

    def drift(x):
        return x @ _LIN2D_A.T

    def diffusion(x):
        b = np.broadcast_to(_LIN2D_C, x.shape + (2,)).copy()
        b[..., 0, 0] += 0.1 * x[..., 0]
        b[..., 1, 1] += 0.1 * x[..., 1]
        return b

    # Drift Lipschitz constant is the spectral norm of the matrix (~0.52);
    # the diffusion difference is 0.1*diag(x-y), Frobenius norm 0.1|x-y|.
    gamma = float(np.linalg.norm(_LIN2D_A, 2))
    return SDEProblem(label="linear2d", r=2, d=2, x0=np.array([1.0, 1.0]),
                      drift=drift, diffusion=diffusion, gamma=gamma)


def make_zero_noise(x0: float = 1.0) -> SDEProblem:
    """Deterministic debug problem: zero drift and diffusion."""

    def drift(x):
        return np.zeros_like(x)

    def diffusion(x):
        return np.zeros(x.shape + (1,), dtype=float)

    return SDEProblem(label="zero_noise", r=1, d=1,
                      x0=np.array([x0]), drift=drift, diffusion=diffusion,
                      gamma=0.0)


_PRESETS = {
    "gbm": make_gbm,
    "linear2d": make_linear2d,
    "additive_noise": make_additive_noise,
}


def preset(name: str) -> SDEProblem:
    if name not in _PRESETS:
        raise ValueError(f"unknown SDE preset {name!r}; "
                         f"choose from {sorted(_PRESETS)}")
    return _PRESETS[name]()


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def lipschitz_spot_check(p: SDEProblem, n_pairs: int = 1000,
                         box: float = 3.0, seed: int = 0,
                         rtol: float = 1e-9) -> bool:
    """Sample pairs in [-box, box]^r and check both coefficient bounds."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-box, box, size=(n_pairs, p.r))
    y = rng.uniform(-box, box, size=(n_pairs, p.r))
    dist = np.linalg.norm(x - y, axis=-1)
    da = np.linalg.norm(p.drift(x) - p.drift(y), axis=-1)
    db = np.linalg.norm(p.diffusion(x) - p.diffusion(y), axis=(-2, -1))
    bound = p.gamma * dist * (1.0 + rtol)
    return bool(np.all(da <= bound) and np.all(db <= bound))
