"""SDE problems dX = a(X) dt + b(X) dW on [0,1] with Lipschitz coefficients.

Every problem is affine and is given by its coefficient data: the drift is
a(x) = A x + a0 and the diffusion is b(x)[i, j] = sum_l B[i, j, l] x_l +
b0[i, j]. Coefficients are vectorized: drift maps arrays of shape (..., r)
to (..., r), diffusion maps (..., r) to (..., r, d). Presets are linear so
terminal-value moments have closed forms usable as exact test targets.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SDEProblem:
    label: str
    r: int
    d: int
    x0: np.ndarray
    A: np.ndarray    # (r, r) drift matrix
    a0: np.ndarray   # (r,) drift offset
    B: np.ndarray    # (r, d, r) diffusion slopes
    b0: np.ndarray   # (r, d) diffusion offset

    def __post_init__(self):
        if self.r < 1 or self.d < 1:
            raise ValueError("state and driving dimensions must be >= 1")
        r, d = self.r, self.d
        for name, shape in (("x0", (r,)), ("A", (r, r)), ("a0", (r,)),
                            ("B", (r, d, r)), ("b0", (r, d))):
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"{name} must have shape {shape}")

    @property
    def gamma(self) -> float:
        """The paper's Lipschitz constant gamma of drift and diffusion
        (Frobenius norm), which its error bounds depend on; kept as that
        object though no command reads it. It is the larger spectral norm
        of A and of B as an (r d, r) matrix."""
        return float(max(np.linalg.norm(self.A, 2),
                         np.linalg.norm(self.B.reshape(-1, self.r), 2)))

    def drift(self, x: np.ndarray) -> np.ndarray:
        """A x + a0 for states x of shape (..., r)."""
        return np.dot(x, self.A.T) + self.a0

    def diffusion(self, x: np.ndarray) -> np.ndarray:
        """B x + b0, shape (..., r, d), for states x of shape (..., r)."""
        slopes = np.dot(x, self.B.reshape(self.r * self.d, self.r).T)
        return slopes.reshape(x.shape[:-1] + (self.r, self.d)) + self.b0


def _affine(label, x0, A, B, b0) -> SDEProblem:
    A = np.array(A, dtype=float)
    return SDEProblem(label=label, r=A.shape[0], d=np.shape(b0)[1],
                      x0=np.array(x0, dtype=float), A=A,
                      a0=np.zeros(A.shape[0]), B=np.array(B, dtype=float),
                      b0=np.array(b0, dtype=float))


def make_gbm(mu: float = 0.05, sigma: float = 0.2, x0: float = 1.0) -> SDEProblem:
    """Geometric Brownian motion dX = mu X dt + sigma X dW."""
    return _affine("gbm", [x0], [[mu]], [[[sigma]]], [[0.0]])


def make_additive_noise() -> SDEProblem:
    """Ornstein-Uhlenbeck dX = -X dt + dW, x0 = 1."""
    return _affine("additive_noise", [1.0], [[-1.0]], [[[0.0]]], [[1.0]])


_LIN2D_A = np.array([[-0.5, 0.1], [0.0, -0.3]])
_LIN2D_C = np.array([[0.3, 0.05], [0.0, 0.25]])


def make_linear2d() -> SDEProblem:
    """2d linear system with constant-plus-diagonal-linear diffusion."""
    # B[i, i, i] = 0.1: the diagonal of the diffusion grows with its own
    # coordinate; gamma is the drift matrix's spectral norm (~0.51).
    B = np.zeros((2, 2, 2))
    B[0, 0, 0] = B[1, 1, 1] = 0.1
    return _affine("linear2d", [1.0, 1.0], _LIN2D_A, B, _LIN2D_C)


def make_zero_noise(x0: float = 1.0) -> SDEProblem:
    """Deterministic debug problem: zero drift and diffusion."""
    return _affine("zero_noise", [x0], [[0.0]], [[[0.0]]], [[0.0]])


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
