"""Path functionals with Lipschitz constant at most one (sup norm).

Each functional carries a batched evaluator over arrays of breakpoint values
(shape (n, m+1, r)); for piecewise-linear paths the presets are exact, no
quadrature error. mlmc.level_values charges each evaluation on an m-step
path as m+1 to the ledger's information cost.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .euler import sup_distance_batch


@dataclass(frozen=True)
class Functional:
    label: str
    eval_batch: Callable[[np.ndarray], np.ndarray]


def _terminal(values: np.ndarray) -> np.ndarray:
    return values[:, -1, 0]


def _running_max(values: np.ndarray) -> np.ndarray:
    # Piecewise-linear paths attain their max at a breakpoint.
    return np.max(values[:, :, 0], axis=1)


def _time_average(values: np.ndarray) -> np.ndarray:
    # Exact trapezoid on the path's own equidistant breakpoints.
    v = values[:, :, 0]
    m = v.shape[1] - 1
    return (0.5 * (v[:, 0] + v[:, -1]) + v[:, 1:-1].sum(axis=1)) / m


def make_distance_to_ref(ref: np.ndarray | None) -> Functional:
    """sup_t |x(t) - ref| for a constant reference point ref in R^r: the one
    sup-distance kernel, euler.sup_distance_batch, in its point form.

    1-Lipschitz by the triangle inequality for the sup distance.
    """
    if ref is None:
        raise ValueError("distance_to_ref requires a reference point x0")
    ref = np.asarray(ref, dtype=float)
    return Functional(label="distance_to_ref",
                      eval_batch=lambda v: sup_distance_batch(v, ref))


def make_constant(c: float) -> Functional:
    """Constant functional (Lipschitz constant 0); debug/telescoping probe."""

    def ev(values: np.ndarray) -> np.ndarray:
        return np.full(values.shape[0], c, dtype=float)

    return Functional(label=f"const_{c}", eval_batch=ev)


_PRESETS = {
    "terminal": lambda x0: Functional("terminal", _terminal),
    "running_max": lambda x0: Functional("running_max", _running_max),
    "time_average": lambda x0: Functional("time_average", _time_average),
    "distance_to_ref": make_distance_to_ref,
}


def preset_functional(name: str, x0: np.ndarray | None = None) -> Functional:
    """Named Lip-1 functional; distance_to_ref needs the problem's x0."""
    if name not in _PRESETS:
        raise ValueError(f"unknown functional preset {name!r}; choose from "
                         f"{preset_functional_names()}")
    return _PRESETS[name](x0)


def preset_functional_names() -> list[str]:
    return sorted(_PRESETS)
